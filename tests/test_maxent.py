"""Constraint sets, the dual solver and its calculus, and updating."""

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
    marginal_constraints,
    matrix_function,
    maximally_mixed,
    petz_recover,
    relative_entropy,
    sample_density,
    sample_qmc,
    solve_maxent,
    trace_distance,
    von_neumann_entropy,
)
from qmctree.layout import LayoutError, embed
from qmctree.maxent import (
    GRAD_TOL,
    ConstraintConflictError,
    ConstraintSet,
    MaxEntError,
    _dual_value,
    _gibbs,
    _hessian,
    _mismatch,
    _unit_stack,
    expectation_constraints,
)

from conftest import PROPERTY, classical_chain, random_conditional

L3Q = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
LAB = SubsystemLayout(("A", "B"), (2, 2))
L4 = SubsystemLayout(("A", "B", "C", "D"), (2, 2, 2, 2))


def reordered(state, labels):
    """``state`` with its factors named in the order ``labels``."""
    sub = SubsystemLayout(tuple(labels), tuple(state.layout.dim_of(l) for l in labels))
    return DensityOperator(sub, embed(state.matrix, state.layout, sub))


def hermitian(rng, d, scale=0.5):
    """Random Hermitian d x d matrix with entries of size up to ``scale``."""
    x = rng.uniform(-scale, scale, (d, d)) + 1j * rng.uniform(-scale, scale, (d, d))
    return (x + x.conj().T) / 2


def random_multipliers(rng, cs):
    """One random Hermitian Lambda_e per marginal, as one flat vector."""
    return np.concatenate([hermitian(rng, m.layout.dim).ravel() for m in cs.marginals])


def flat_targets(cs):
    return np.concatenate([m.matrix.ravel() for m in cs.marginals])


def mismatch(cs, lam, base=None):
    """The dual's gradient at ``lam``: vec(Tr_rest rho - rho_e) per marginal."""
    d = cs.layout.dim
    base = np.zeros((d, d), dtype=complex) if base is None else base
    _, _, _, v, ew, z = _gibbs(base, cs, lam)
    return _mismatch(_unit_stack(cs, v), ew, z, flat_targets(cs))


@st.composite
def constraint_cases(draw):
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


def hessian_rank(cs, seed):
    """Rank of the dual's Hessian at random multipliers: the number of
    independent constraints, once the identity on each marginal and the
    operators on factors two marginals share are counted once."""
    lam = random_multipliers(np.random.default_rng(seed), cs)
    d = cs.layout.dim
    _, _, w, v, ew, z = _gibbs(np.zeros((d, d), dtype=complex), cs, lam)
    eigenvalues = np.linalg.eigvalsh(_hessian(_unit_stack(cs, v), w, ew, z))
    return int(np.sum(eigenvalues > 1e-10 * eigenvalues[-1]))


class TestConstraints:
    def test_single_qubit_mixed_targets_zero(self):
        # I/2 on A asks nothing of the maximally mixed start: the mismatch
        # is zero at Lambda = 0, so the solver stops at once
        cs = expectation_constraints(
            LAB, (maximally_mixed(SubsystemLayout(("A",), (2,))),))
        assert hessian_rank(cs, 0) == 3
        solution = solve_maxent(cs)
        assert solution.iterations == 1
        assert solution.residual < 1e-15
        np.testing.assert_array_equal(solution.multipliers[0], np.zeros((2, 2)))
        np.testing.assert_allclose(solution.state.matrix, np.eye(4) / 4, atol=1e-15)

    def test_pair_count(self, rng):
        # a 4 x 4 multiplier: 16 entries, less the identity
        marg = sample_density(LAB, seed=rng)
        cs = expectation_constraints(LAB, (marg,))
        assert len(flat_targets(cs)) == 16
        assert hessian_rank(cs, 1) == 15

    def test_tripartite_dedup_count(self, rng):
        # 15 + 15, less the three operators on B that both marginals carry
        joint = sample_density(L3Q, seed=rng)
        cs = marginal_constraints(MarginalSet(
            L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C")))
        ))
        assert len(flat_targets(cs)) == 32
        assert hessian_rank(cs, 2) == 27

    def test_conflicting_targets_rejected(self):
        ab = sample_density(LAB, seed=1)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        with pytest.raises(ConstraintConflictError):
            expectation_constraints(L3Q, (ab, bc))

    def test_marginals_must_sit_on_the_layout(self):
        with pytest.raises(LayoutError, match="unknown label"):
            ConstraintSet(LAB, (maximally_mixed(SubsystemLayout(("C",), (2,))),))
        with pytest.raises(LayoutError, match="dimension mismatch"):
            ConstraintSet(LAB, (maximally_mixed(SubsystemLayout(("A",), (3,))),))

    def test_marginals_kept_as_given(self, rng):
        ab = sample_density(LAB, seed=rng)
        cs = marginal_constraints(MarginalSet(LAB, [ab]))
        assert cs.layout == LAB
        assert cs.marginals == (ab,)
        assert not hasattr(cs, "observables") and not hasattr(cs, "targets")

    @PROPERTY
    @given(case=constraint_cases())
    @example(case=(  # reversed and non-contiguous label orders
        SubsystemLayout(("A", "B", "C"), (2, 3, 2)),
        [("C", "A"), ("B", "A"), ("A", "C")], 7,
    ))
    def test_marginals_naming_factors_in_any_order(self, case):
        layout, labels, seed = case
        joint = sample_density(layout, seed=seed)
        in_order = [joint.marginal(l) for l in labels]
        named = [reordered(m, l) for m, l in zip(in_order, labels)]
        want = solve_maxent(expectation_constraints(layout, in_order))
        got = solve_maxent(expectation_constraints(layout, named))
        assert trace_distance(got.state.matrix, want.state.matrix) < 1e-12
        for m in in_order:
            reduced = got.state.marginal(m.labels).matrix
            assert trace_distance(reduced, m.matrix) < 1e-9

        # the first marginal against another state's marginal on the first
        # drawn label set that overlaps it (its own, if no other does)
        b = next(l for l in labels[1:] + labels[:1] if set(l) & set(labels[0]))
        other = sample_density(layout, seed=seed + 1)
        overlap = set(labels[0]) & set(b)
        assert trace_distance(joint.marginal(overlap).matrix,
                              other.marginal(overlap).matrix) > 1e-6
        with pytest.raises(ConstraintConflictError):
            expectation_constraints(
                layout, [named[0], reordered(other.marginal(b), b)]
            )


class TestSolver:
    def test_empty_constraints_maximally_mixed(self):
        solution = solve_maxent(ConstraintSet(LAB, ()))
        assert trace_distance(
            solution.state.matrix, maximally_mixed(LAB).matrix
        ) < 1e-12
        assert solution.log_partition == pytest.approx(math.log(4), abs=1e-12)
        assert solution.multipliers == ()

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

    @pytest.mark.parametrize("edges", [
        (("A", "B"), ("B", "C"), ("C", "D")),
        (("A", "B"), ("A", "C"), ("A", "D")),
    ], ids=["path", "star"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relative_entropy_to_maxent_is_entropy_gap(self, edges, seed):
        # log sigma = sum_e Lambda_e (x) 1 - log Z and sigma shares rho's
        # marginals, so Tr rho log sigma = Tr sigma log sigma for any rho
        rho = sample_density(L4, seed=seed)
        sigma = solve_maxent(marginal_constraints(
            MarginalSet(L4, tuple(rho.marginal(e) for e in edges)))).state
        gap = von_neumann_entropy(sigma) - von_neumann_entropy(rho)
        assert abs(relative_entropy(rho, sigma) - gap) <= 1e-10

    def test_multipliers_are_the_log_of_the_state(self):
        # one traceless Hermitian Lambda_e per marginal, in its own label
        # order: log sigma = sum_e Lambda_e (x) 1 - log Z
        joint = sample_density(SubsystemLayout(("A", "B", "C"), (2, 3, 2)), seed=5)
        marginals = (reordered(joint.marginal(("A", "B")), ("B", "A")),
                     joint.marginal(("B", "C")))
        solution = solve_maxent(expectation_constraints(joint.layout, marginals))
        h = -solution.log_partition * np.eye(joint.layout.dim)
        for marg, lam in zip(marginals, solution.multipliers):
            assert lam.shape == (marg.layout.dim,) * 2
            np.testing.assert_array_equal(lam, lam.conj().T)
            assert abs(np.trace(lam)) < 1e-12
            h = h + embed(lam, marg.layout, joint.layout)
        log_sigma = matrix_function(solution.state.matrix, "log")
        np.testing.assert_allclose(h, log_sigma, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["trace", "overlap"])
    def test_targets_off_by_rounding_still_solve(self, kind):
        # BC's trace off one, or its B marginal off AB's, by 5e-10: within
        # TRACE_TOL and OVERLAP_TOL, so accepted, but no state meets both
        # marginals exactly.  The solver must not chase that difference
        # along multipliers that change no state.
        joint = sample_density(L3Q, seed=3)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        m = bc.matrix.copy()
        if kind == "trace":
            m *= 1 + 5e-10
        else:
            m += 5e-10 * np.kron(np.diag([1.0, -1.0]), np.eye(2))
        off = DensityOperator(bc.layout, m)
        exact = solve_maxent(expectation_constraints(L3Q, (ab, bc)))
        near = solve_maxent(expectation_constraints(L3Q, (ab, off)))
        assert near.residual <= GRAD_TOL
        assert near.iterations == exact.iterations
        assert trace_distance(near.state.matrix, exact.state.matrix) < 1e-8
        assert near.log_partition == pytest.approx(exact.log_partition, abs=1e-8)
        assert max(np.abs(l).max() for l in near.multipliers) < 10

    def test_unit_stack_matches_embedded_units(self):
        # v^dagger (E_jk (x) 1) v for a marginal on non-contiguous factors
        # named out of layout order
        layout = SubsystemLayout(("A", "B", "C"), (2, 3, 2))
        sub = SubsystemLayout(("C", "A"), (2, 2))
        cs = ConstraintSet(layout, (maximally_mixed(sub),))
        rng = np.random.default_rng(81)
        v, _ = np.linalg.qr(rng.standard_normal((12, 12))
                            + 1j * rng.standard_normal((12, 12)))
        units = np.eye(16).reshape(16, 4, 4)  # E_jk at row 4 j + k
        want = [v.conj().T @ embed(e, sub, layout) @ v for e in units]
        np.testing.assert_allclose(_unit_stack(cs, v), want, rtol=0, atol=1e-14)

    def test_gradient_matches_finite_differences(self):
        # directional: Tr((Tr_rest rho - rho_e) Delta) against the dual's
        # central difference along a random Hermitian Delta
        rng = np.random.default_rng(77)
        joint = sample_density(L3Q, seed=rng)
        cs = expectation_constraints(
            L3Q, (joint.marginal(("A", "B")), reordered(joint.marginal(("B", "C")), "CB")))
        targets = flat_targets(cs)
        base = np.zeros((8, 8), dtype=complex)
        eps = 1e-6

        def value(lam):
            return _dual_value(_gibbs(base, cs, lam)[1], lam, targets)

        for _ in range(20):
            lam = random_multipliers(rng, cs)
            grad = mismatch(cs, lam)
            for _ in range(3):
                delta = random_multipliers(rng, cs)
                slope = np.vdot(grad, delta).real
                fd = (value(lam + eps * delta) - value(lam - eps * delta)) / (2 * eps)
                assert abs(slope - fd) / max(abs(fd), 1e-3) < 1e-5

    def test_dual_convexity_spot_check(self):
        rng = np.random.default_rng(78)
        layout = SubsystemLayout(("A",), (2,))
        cs = expectation_constraints(
            layout, (sample_density(layout, seed=rng),)
        )
        targets = flat_targets(cs)
        base = np.zeros((2, 2), dtype=complex)

        def value(lam):
            _, lz, *_ = _gibbs(base, cs, lam)
            return _dual_value(lz, lam, targets)

        for _ in range(20):
            x = hermitian(rng, 2, 1.0).ravel()
            y = hermitian(rng, 2, 1.0).ravel()
            mid = value((x + y) / 2)
            assert mid <= (value(x) + value(y)) / 2 + 1e-9

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(80)
        joint = sample_density(L3Q, seed=rng)
        cs = expectation_constraints(
            L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C"))))
        lam = random_multipliers(rng, cs)
        _, _, w, v, ew, z = _gibbs(np.zeros((8, 8), dtype=complex), cs, lam)
        hess = _hessian(_unit_stack(cs, v), w, ew, z)
        np.testing.assert_array_equal(hess, hess.conj().T)
        assert np.linalg.eigvalsh(hess)[0] > -1e-14
        eps = 1e-5
        for _ in range(4):
            delta = random_multipliers(rng, cs)
            fd = (mismatch(cs, lam + eps * delta)
                  - mismatch(cs, lam - eps * delta)) / (2 * eps)
            np.testing.assert_allclose(hess @ delta, fd, rtol=0, atol=1e-8)

    def test_hessian_matches_pair_loop(self):
        # reference: a loop over pairs of matrix units, on a spectrum
        # without near-degeneracies
        rng = np.random.default_rng(79)
        cs = expectation_constraints(LAB, (sample_density(LAB, seed=rng),))
        lam = random_multipliers(rng, cs)
        _, _, w, v, ew, z = _gibbs(np.zeros((4, 4), dtype=complex), cs, lam)
        assert np.min(np.diff(w)) > 1e-3
        tilde = [v.conj().T @ e @ v for e in np.eye(16).reshape(16, 4, 4)]
        dw = w[:, None] - w
        phi = np.where(dw == 0, ew[:, None], (ew[:, None] - ew) / np.where(dw == 0, 1, dw))
        mean = [np.sum(np.diag(t) * ew) / z for t in tilde]
        ref = np.empty((16, 16), dtype=complex)
        for i, ti in enumerate(tilde):
            for j, tj in enumerate(tilde):
                ref[i, j] = np.sum(ti.conj() * phi * tj) / z - np.conj(mean[i]) * mean[j]
        np.testing.assert_allclose(_hessian(_unit_stack(cs, v), w, ew, z), ref,
                                   rtol=0, atol=1e-12)

    def test_hessian_near_degenerate_spectrum(self):
        # gap 1e-9: (e^a - e^b) / (a - b) keeps only about seven digits.
        # H is diagonal, so its eigenvectors are the identity
        w = np.array([0.3, 0.3 + 1e-9])
        ew = np.exp(w - w.max())
        layout = SubsystemLayout(("A",), (2,))
        stack = _unit_stack(ConstraintSet(layout, (maximally_mixed(layout),)), np.eye(2))
        hess = _hessian(stack, w, ew, float(ew.sum()))
        sigma_x = np.array([0, 1, 1, 0], dtype=complex)  # vec of [[0, 1], [1, 0]]
        curvature = np.vdot(sigma_x, hess @ sigma_x)
        with localcontext() as ctx:
            ctx.prec = 50
            gap = Decimal(w[0]) - Decimal(w[1])
            e0, e1 = gap.exp(), Decimal(1)
            # sigma_x has a zero diagonal, so the mean term vanishes
            exact = 2 * (e0 - e1) / gap / (e0 + e1)
        assert hess.shape == (4, 4)
        assert abs(curvature / float(exact) - 1) < 1e-12


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
        cs = ConstraintSet(LAB, ())
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
