"""Operator bases, constraint assembly, the dual solver, and updating."""

import functools
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmctree import (
    DensityOperator,
    MarginalSet,
    QmcSpec,
    SubsystemLayout,
    bayesian_update,
    diagram_commutes,
    gell_mann_basis,
    marginal_constraints,
    maximally_mixed,
    petz_recover,
    sample_density,
    sample_qmc,
    solve_maxent,
    trace_distance,
    von_neumann_entropy,
)
from qmctree.layout import embed
from qmctree.linalg import MatrixError
from qmctree.maxent import (
    ConstraintConflictError,
    ConstraintSet,
    MaxEntError,
    _dual_value,
    _gibbs,
    _gradient,
    _hessian,
    expectation_constraints,
)

from conftest import PROPERTY, classical_chain, random_conditional

L3Q = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
LAB = SubsystemLayout(("A", "B"), (2, 2))


def reordered(state, labels):
    """``state`` with its factors named in the order ``labels``."""
    sub = SubsystemLayout(tuple(labels), tuple(state.layout.dim_of(l) for l in labels))
    return DensityOperator(sub, embed(state.matrix, state.layout, sub))


def basis_keys(layout, labels):
    """Non-identity basis indices on ``labels``, in layout order, as
    frozensets of (label, index) pairs."""
    on = [l for l in layout.labels if l in labels]
    ranges = [range(layout.dim_of(l) ** 2) for l in on]
    keys = (frozenset((l, k) for l, k in zip(on, idx) if k)
            for idx in itertools.product(*ranges))
    return [key for key in keys if key]


def reference_observables(layout, marginals):
    """One observable at a time: the Kronecker product of each basis
    element in the marginal's own label order, embedded into ``layout``;
    the first occurrence of a shared observable is kept."""
    seen, out = set(), []
    for marg in marginals:
        sub = marg.layout
        for key in basis_keys(layout, sub.labels):
            if key in seen:
                continue
            seen.add(key)
            index = dict(key)
            local = functools.reduce(np.kron, [
                gell_mann_basis(d)[index.get(l, 0)] for l, d in zip(sub.labels, sub.dims)
            ])
            out.append(embed(local, sub, layout))
    return out


@st.composite
def assembly_cases(draw):
    """(layout, marginal label tuples, seed): two or three factors of
    dimension 2 or 3 and one to three marginals, each naming its factors
    in any order."""
    n = draw(st.integers(2, 3))
    dims = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    layout = SubsystemLayout(tuple("ABC"[:n]), tuple(dims))
    subsets = [c for k in range(1, n + 1)
               for c in itertools.combinations(layout.labels, k)]
    count = draw(st.integers(1, 3))
    labels = [tuple(draw(st.permutations(draw(st.sampled_from(subsets)))))
              for _ in range(count)]
    return layout, labels, draw(st.integers(0, 2**32 - 1))


class TestGellMannBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_counts_and_normalization(self, d):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d
        np.testing.assert_allclose(basis[0], np.eye(d), atol=1e-14)
        for j, el in enumerate(basis[1:], start=1):
            assert abs(np.trace(el)) < 1e-12
            assert np.trace(el @ el).real == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_mutual_orthogonality(self, d):
        basis = gell_mann_basis(d)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert abs(np.trace(basis[i].conj().T @ basis[j])) < 1e-12

    def test_qubit_basis_is_pauli(self):
        basis = gell_mann_basis(2)
        np.testing.assert_allclose(basis[1], [[0, 1], [1, 0]], atol=1e-14)
        np.testing.assert_allclose(basis[2], [[0, -1j], [1j, 0]], atol=1e-14)
        np.testing.assert_allclose(basis[3], [[1, 0], [0, -1]], atol=1e-14)


class TestConstraints:
    def test_single_qubit_mixed_targets_zero(self):
        cs = expectation_constraints(
            LAB, (maximally_mixed(SubsystemLayout(("A",), (2,))),)
        )
        assert len(cs) == 3
        assert all(abs(t) < 1e-14 for t in cs.targets)

    def test_pair_count(self, rng):
        marg = sample_density(LAB, seed=rng)
        cs = expectation_constraints(LAB, (marg,))
        assert len(cs) == 15

    def test_tripartite_dedup_count(self, rng):
        joint = sample_density(L3Q, seed=rng)
        cs = marginal_constraints(MarginalSet(
            L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C")))
        ))
        # 15 + 15 minus the three shared single-B observables
        assert len(cs) == 27

    def test_conflicting_targets_rejected(self):
        ab = sample_density(LAB, seed=1)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        with pytest.raises(ConstraintConflictError):
            expectation_constraints(L3Q, (ab, bc))

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(Exception):
            ConstraintSet(
                LAB, (np.array([[0.0, 1.0], [0.0, 0.0]]),), (0.0,)
            )

    def test_non_hermitian_full_size_observable_rejected(self):
        op = np.zeros((4, 4))
        op[0, 1] = 1.0
        with pytest.raises(MatrixError):
            ConstraintSet(LAB, (np.eye(4), op), (1.0, 0.0))

    def test_wrong_shape_observable_rejected(self):
        with pytest.raises(MaxEntError, match=r"\(2, 2\).*\(4, 4\)"):
            ConstraintSet(LAB, (np.eye(2),), (1.0,))

    def test_stored_as_read_only_stacks(self, rng):
        cs = expectation_constraints(LAB, (sample_density(LAB, seed=rng),))
        assert cs.observables.shape == (15, 4, 4)
        assert cs.targets.shape == (15,)
        assert not cs.observables.flags.writeable
        assert not cs.targets.flags.writeable
        empty = ConstraintSet(LAB, (), ())
        assert empty.observables.shape == (0, 4, 4)
        assert empty.targets.shape == (0,)

    @PROPERTY
    @given(case=assembly_cases())
    @example(case=(  # reversed and non-contiguous label orders
        SubsystemLayout(("A", "B", "C"), (2, 3, 2)),
        [("C", "A"), ("B", "A"), ("A", "C")], 7,
    ))
    def test_assembly_matches_per_observable_reference(self, case):
        layout, labels, seed = case
        joint = sample_density(layout, seed=seed)
        marginals = [reordered(joint.marginal(l), l) for l in labels]
        cs = expectation_constraints(layout, marginals)

        key_sets = [set(basis_keys(layout, l)) for l in labels]
        shared = sum(len(k & set().union(*key_sets[:i])) for i, k in enumerate(key_sets))
        sizes = [math.prod(layout.dim_of(x) ** 2 for x in l) - 1 for l in labels]
        assert len(cs) == sum(sizes) - shared

        expected = reference_observables(layout, marginals)
        np.testing.assert_allclose(cs.observables, np.array(expected), rtol=0, atol=1e-15)
        traces = np.einsum("kij,ji->k", cs.observables, joint.matrix).real
        np.testing.assert_allclose(cs.targets, traces, rtol=0, atol=1e-12)

        # the first marginal against another state's marginal on the first
        # drawn label set that overlaps it (its own, if no other does)
        b = next(l for l in labels[1:] + labels[:1] if set(l) & set(labels[0]))
        other = sample_density(layout, seed=seed + 1)
        overlap = set(labels[0]) & set(b)
        assert trace_distance(joint.marginal(overlap).matrix,
                              other.marginal(overlap).matrix) > 1e-6
        with pytest.raises(ConstraintConflictError):
            expectation_constraints(
                layout, [marginals[0], reordered(other.marginal(b), b)]
            )


class TestSolver:
    def test_empty_constraints_maximally_mixed(self):
        solution = solve_maxent(ConstraintSet(LAB, (), ()))
        assert trace_distance(
            solution.state.matrix, maximally_mixed(LAB).matrix
        ) < 1e-12
        assert solution.log_partition == pytest.approx(math.log(4), abs=1e-12)

    def test_full_tomography_recovers_state(self, rng):
        target = sample_density(SubsystemLayout(("A",), (2,)), seed=rng)
        cs = expectation_constraints(
            SubsystemLayout(("A",), (2,)), (target,)
        )
        solution = solve_maxent(cs)
        assert trace_distance(solution.state.matrix, target.matrix) < 1e-7

    def test_qmc_marginals_match_petz(self):
        state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=8)
        ab, bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        cs = marginal_constraints(MarginalSet(state.layout, (ab, bc)))
        solution = solve_maxent(cs)
        petz = petz_recover(ab, bc).state
        assert trace_distance(solution.state.matrix, petz.matrix) < 1e-6
        assert solution.residual <= 1e-6

    def test_constraint_satisfaction(self, rng):
        joint = sample_density(L3Q, seed=rng)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        cs = marginal_constraints(MarginalSet(L3Q, (ab, bc)))
        out = solve_maxent(cs).state
        assert trace_distance(out.marginal(("A", "B")).matrix, ab.matrix) < 1e-6
        assert trace_distance(out.marginal(("B", "C")).matrix, bc.matrix) < 1e-6

    def test_entropy_dominance(self, rng):
        joint = sample_density(L3Q, seed=rng)
        cs = marginal_constraints(MarginalSet(
            L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C")))
        ))
        out = solve_maxent(cs).state
        assert von_neumann_entropy(out) >= von_neumann_entropy(joint) - 1e-7

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        layout = SubsystemLayout(("A", "B"), (2, 2))
        marg = sample_density(layout, seed=rng)
        cs = expectation_constraints(layout, (marg,))
        thetas = [np.asarray(t) for t in cs.observables]
        targets = np.asarray(cs.targets)
        base = np.zeros((4, 4), dtype=complex)
        eps = 1e-6
        for _ in range(20):
            lam = rng.uniform(-0.5, 0.5, len(thetas))
            rho, log_z, *_ = _gibbs(base, thetas, lam)
            grad = np.array(
                [np.sum(rho.conj() * t).real for t in thetas]
            ) - targets
            for i in rng.choice(len(lam), size=3, replace=False):
                up, dn = lam.copy(), lam.copy()
                up[i] += eps
                dn[i] -= eps
                _, lz_u, *_ = _gibbs(base, thetas, up)
                _, lz_d, *_ = _gibbs(base, thetas, dn)
                fd = (
                    _dual_value(lz_u, up, targets)
                    - _dual_value(lz_d, dn, targets)
                ) / (2 * eps)
                scale = max(abs(fd), 1e-3)
                assert abs(grad[i] - fd) / scale < 1e-5

    def test_dual_convexity_spot_check(self):
        rng = np.random.default_rng(78)
        layout = SubsystemLayout(("A",), (2,))
        cs = expectation_constraints(
            layout, (sample_density(layout, seed=rng),)
        )
        thetas = [np.asarray(t) for t in cs.observables]
        targets = np.asarray(cs.targets)
        base = np.zeros((2, 2), dtype=complex)

        def value(lam):
            _, lz, *_ = _gibbs(base, thetas, lam)
            return _dual_value(lz, lam, targets)

        for _ in range(20):
            x = rng.uniform(-1, 1, len(thetas))
            y = rng.uniform(-1, 1, len(thetas))
            mid = value((x + y) / 2)
            assert mid <= (value(x) + value(y)) / 2 + 1e-9

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(80)
        cs = expectation_constraints(LAB, (sample_density(LAB, seed=rng),))
        thetas = np.array(cs.observables)
        targets = np.asarray(cs.targets)
        base = np.zeros((4, 4), dtype=complex)
        lam = rng.uniform(-0.5, 0.5, len(thetas))
        _, _, w, v, ew, z = _gibbs(base, thetas, lam)
        hess = _hessian(v.conj().T @ thetas @ v, w, ew, z)
        eps = 1e-5
        for j in rng.choice(len(lam), size=4, replace=False):
            up, dn = lam.copy(), lam.copy()
            up[j] += eps
            dn[j] -= eps
            fd = (
                _gradient(_gibbs(base, thetas, up)[0], thetas, targets)
                - _gradient(_gibbs(base, thetas, dn)[0], thetas, targets)
            ) / (2 * eps)
            np.testing.assert_allclose(hess[:, j], fd, rtol=0, atol=1e-8)

    def test_hessian_matches_pair_loop(self):
        # reference: the loop over constraint pairs that the stacked
        # product replaced, on a spectrum without near-degeneracies
        rng = np.random.default_rng(79)
        cs = expectation_constraints(LAB, (sample_density(LAB, seed=rng),))
        thetas = np.array(cs.observables)
        lam = rng.uniform(-0.5, 0.5, len(thetas))
        _, _, w, v, ew, z = _gibbs(np.zeros((4, 4), dtype=complex), thetas, lam)
        assert np.min(np.diff(w)) > 1e-3
        tilde = v.conj().T @ thetas @ v
        dw = w[:, None] - w
        phi = np.where(dw == 0, ew[:, None], (ew[:, None] - ew) / np.where(dw == 0, 1, dw))
        mean = [np.sum(np.diag(t).real * ew) / z for t in tilde]
        ref = np.empty((len(tilde), len(tilde)))
        for i, ti in enumerate(tilde):
            for j, tj in enumerate(tilde):
                ref[i, j] = np.sum(ti.conj() * phi * tj).real / z - mean[i] * mean[j]
        np.testing.assert_allclose(_hessian(tilde, w, ew, z), ref, rtol=0, atol=1e-12)

    def test_hessian_near_degenerate_spectrum(self):
        # gap 1e-9: (e^a - e^b) / (a - b) keeps only about seven digits
        w = np.array([0.3, 0.3 + 1e-9])
        ew = np.exp(w - w.max())
        sigma_x = np.array([[[0, 1], [1, 0]]], dtype=complex)
        hess = _hessian(sigma_x, w, ew, float(ew.sum()))
        with localcontext() as ctx:
            ctx.prec = 50
            gap = Decimal(w[0]) - Decimal(w[1])
            e0, e1 = gap.exp(), Decimal(1)
            # sigma_x has a zero diagonal, so the mean term vanishes
            exact = 2 * (e0 - e1) / gap / (e0 + e1)
        assert hess.shape == (1, 1)
        assert abs(hess[0, 0] / float(exact) - 1) < 1e-12


class TestBayesianUpdate:
    def test_consistent_prior_is_fixed_point(self, rng):
        prior = sample_density(LAB, seed=rng)
        cs = expectation_constraints(LAB, (prior.marginal(("A",)),))
        posterior = bayesian_update(prior, cs)
        assert trace_distance(posterior.matrix, prior.matrix) < 1e-8

    def test_uniform_prior_single_marginal(self, rng):
        # updating the flat state by one pair marginal appends a maximally
        # mixed complementary factor
        ab = sample_density(LAB, seed=rng)
        cs = expectation_constraints(L3Q, (ab,))
        posterior = bayesian_update(maximally_mixed(L3Q), cs)
        expected = np.kron(ab.matrix, np.eye(2) / 2)
        assert trace_distance(posterior.matrix, expected) < 1e-7

    def test_uniform_prior_other_side(self, rng):
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=rng)
        cs = expectation_constraints(L3Q, (bc,))
        posterior = bayesian_update(maximally_mixed(L3Q), cs)
        expected = np.kron(np.eye(2) / 2, bc.matrix)
        assert trace_distance(posterior.matrix, expected) < 1e-7

    def test_uniform_prior_matches_maxent(self, rng):
        joint = sample_density(L3Q, seed=rng)
        cs = marginal_constraints(MarginalSet(
            L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C")))
        ))
        via_update = bayesian_update(maximally_mixed(L3Q), cs)
        via_maxent = solve_maxent(cs).state
        assert trace_distance(via_update.matrix, via_maxent.matrix) < 1e-7

    def test_prior_with_other_dims_rejected(self):
        # same labels, but the factor dimensions are swapped
        prior = sample_density(SubsystemLayout(("A", "B"), (2, 3)), seed=1)
        layout = SubsystemLayout(("A", "B"), (3, 2))
        cs = expectation_constraints(layout, (maximally_mixed(layout.restrict(("A",))),))
        with pytest.raises(MaxEntError, match="prior layout"):
            bayesian_update(prior, cs)

    def test_rank_deficient_prior_rejected(self):
        vec = np.zeros(4)
        vec[0] = 1.0
        prior = DensityOperator(LAB, np.outer(vec, vec))
        cs = ConstraintSet(LAB, (), ())
        with pytest.raises(Exception):
            bayesian_update(prior, cs)


class TestDiagram:
    def test_qmc_marginals_commute(self):
        state = sample_qmc(QmcSpec(2, 2, ((0.6, 1, 2), (0.4, 2, 1))), seed=12)
        report = diagram_commutes(
            state.marginal(("A", "B")), state.marginal(("B", "C"))
        )
        assert report.commutes
        assert report.max_distance <= 1e-5

    def test_generic_marginals_do_not_commute(self):
        joint = sample_density(L3Q, seed=21)
        report = diagram_commutes(
            joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        )
        assert not report.commutes
        assert report.max_distance > 1e-3

    def test_classical_chain_commutes(self, rng):
        chain = classical_chain(
            np.array([0.45, 0.55]),
            random_conditional(rng, 2, 2),
            random_conditional(rng, 2, 2),
        )
        report = diagram_commutes(
            chain.marginal(("A", "B")), chain.marginal(("B", "C"))
        )
        assert report.commutes

    def test_agrees_with_compatibility_verdict(self):
        from qmctree import check_qmc_compatibility

        rng = np.random.default_rng(99)
        for i in range(6):
            if i % 2:
                joint = sample_qmc(QmcSpec(2, 2, ((1.0, 2, 1),)), seed=rng)
            else:
                joint = sample_density(L3Q, seed=rng)
            ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
            verdict = check_qmc_compatibility(ab, bc).verdict
            assert diagram_commutes(ab, bc).commutes == verdict
