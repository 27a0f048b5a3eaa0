"""One spectral decomposition per density operator, and the local
application of B (x) C factors that Petz recovery and the compatibility
test build on.

Eigendecompositions are counted by wrapping ``numpy.linalg.eigh`` and
``eigvalsh``, so the counts do not depend on the machine.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qmctree import (
    DensityOperator,
    QmcSpec,
    QuantumTree,
    SubsystemLayout,
    best_pair_mutual_info,
    check_qmc_compatibility,
    learn_tree,
    petz_recover,
    relative_entropy,
    sample_density,
    sample_markov_path,
    sample_qmc,
    trace_distance,
    tree_recover,
)
from qmctree import recovery, states
from qmctree.layout import LayoutError, embed, local_product
from qmctree.linalg import HermitianEig, hermitian_eig, matrix_function, support_cutoff
from qmctree.recovery import compose_layouts

from conftest import PROPERTY, classical_chain, layouts, local_cases


@pytest.fixture
def eig_calls(monkeypatch):
    """Matrices passed to numpy's Hermitian eigensolvers, in call order."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, **kwargs):
            seen.append(np.array(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


@pytest.fixture
def solver_calls(monkeypatch):
    """Calls to numpy's Hermitian eigensolvers, counted by name."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def partial_traces(monkeypatch):
    """Label sets traced down to by ``DensityOperator.marginal``, in call order."""
    seen = []
    real = states.partial_trace

    def counted(op, layout, keep):
        seen.append(tuple(sorted(keep)))
        return real(op, layout, keep)

    monkeypatch.setattr(states, "partial_trace", counted)
    return seen


def markov_path_tree(labels, seed):
    """A Markov path state on qubits and the tree of its path edges."""
    joint = sample_markov_path(labels, (2,) * len(labels), seed=seed)
    edges = list(zip(labels, labels[1:]))
    return joint, QuantumTree(joint.layout, edges, {e: joint.marginal(e) for e in edges})


def two_eigh_relative_entropy(rho, sigma):
    """S(rho||sigma) from the eigendecompositions of both operators."""
    pe, qe = hermitian_eig(rho.matrix), hermitian_eig(sigma.matrix)
    p, u = pe.eigenvalues, pe.eigenvectors
    q, v = qe.eigenvalues, qe.eigenvectors
    p_sup = p > support_cutoff(p)
    q_ker = q <= support_cutoff(q)
    overlap = np.abs(u.conj().T @ v) ** 2
    leakage = float(p[p_sup] @ overlap[np.ix_(p_sup, q_ker)].sum(axis=1)) \
        if np.any(q_ker) else 0.0
    if leakage > 1e-10:
        return math.inf
    term_p = float(np.sum(p[p_sup] * np.log(p[p_sup])))
    q_sup = ~q_ker
    term_q = float(p[p_sup] @ overlap[np.ix_(p_sup, q_sup)] @ np.log(q[q_sup]))
    return term_p - term_q


def dense_petz(rho_ab, rho_bc, t, layout):
    """X rho_AB X^dagger with every factor embedded at full dimension."""
    _, b, _, _ = compose_layouts(rho_ab, rho_bc)
    rho_b = rho_bc.marginal(b)
    z = (1 + 1j * t) / 2
    x = embed(matrix_function(rho_bc.matrix, "power", z), rho_bc.layout, layout) \
        @ embed(matrix_function(rho_b.matrix, "power", -z), rho_b.layout, layout)
    m = x @ embed(rho_ab.matrix, rho_ab.layout, layout) @ x.conj().T
    return m / np.trace(m).real


@st.composite
def petz_cases(draw):
    """(dims, groups, joint order, target order, t, seed) over three or
    four labels; ``groups`` puts each label on the A side (0), in the
    shared B (1) or on the C side (2), each group nonempty."""
    n = draw(st.integers(3, 4))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    groups = tuple(draw(
        st.lists(st.integers(0, 2), min_size=n, max_size=n)
        .filter(lambda g: set(g) == {0, 1, 2})
    ))
    joint_order = tuple(draw(st.permutations("ABCD"[:n])))
    target_order = tuple(draw(st.permutations("ABCD"[:n])))
    t = draw(st.sampled_from([0.0, 0.7]))
    return dims, groups, joint_order, target_order, t, draw(st.integers(0, 2**32 - 1))


class TestSpectrumKept:
    def test_learn_tree_decomposes_full_dimension_once(self, eig_calls):
        labels = tuple("ABCDEF")
        joint = sample_markov_path(labels, (2,) * 6, seed=3)
        eig_calls.clear()
        learn_tree(joint)
        full = [a for a in eig_calls if a.shape[-1] == joint.layout.dim]
        assert len(full) == 1

    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_check_and_petz_decompose_bc_once(self, eig_calls, t):
        state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=11)
        rho_ab, rho_bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        eig_calls.clear()
        assert check_qmc_compatibility(rho_ab, rho_bc).verdict
        petz_recover(rho_ab, rho_bc, t=t)
        bc = [a for a in eig_calls
              if a.shape == rho_bc.matrix.shape and np.allclose(a, rho_bc.matrix)]
        assert len(bc) == 1

    def test_eigenvalues_match_eigvalsh(self, rng):
        layout = SubsystemLayout(("A", "B", "C"), (2, 3, 2))
        rho = sample_density(layout, seed=rng)
        np.testing.assert_allclose(
            rho.eigenvalues(), np.linalg.eigvalsh(rho.matrix), atol=1e-12
        )
        state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=12)
        out = petz_recover(state.marginal(("A", "B")), state.marginal(("B", "C"))).state
        np.testing.assert_allclose(
            out.eigenvalues(), np.linalg.eigvalsh(out.matrix), atol=1e-12
        )
        np.testing.assert_allclose(out.eig.reconstruct(), out.matrix, atol=1e-12)

    def test_spectrum_is_read_only(self, rng):
        rho = sample_density(SubsystemLayout(("A",), (3,)), seed=rng)
        with pytest.raises(ValueError):
            rho.eigenvalues()[0] = 1.0
        with pytest.raises(ValueError):
            rho.eig.eigenvectors[0, 0] = 1.0

    def test_eig_computed_once(self, eig_calls, rng):
        rho = sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=rng)
        eig_calls.clear()
        assert rho.eig is rho.eig
        assert len(eig_calls) == 1

    def test_full_marginal_is_self(self, rng):
        rho = sample_density(SubsystemLayout(("A", "B"), (2, 3)), seed=rng)
        assert rho.marginal(("B", "A")) is rho

    def test_marginal_kept_per_label_set(self, rng):
        rho = sample_density(SubsystemLayout(("A", "B", "C"), (2, 3, 2)), seed=rng)
        assert rho.marginal(("B", "A")) is rho.marginal(("A", "B"))

    @pytest.mark.parametrize("t", [0.0, 0.4])
    def test_check_and_petz_trace_out_b_once_per_marginal(self, partial_traces, t):
        state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=13)
        rho_ab, rho_bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        partial_traces.clear()
        assert check_qmc_compatibility(rho_ab, rho_bc).verdict
        petz_recover(rho_ab, rho_bc)
        petz_recover(rho_ab, rho_bc, t=t)
        assert partial_traces == [("B",), ("B",)]

    def test_three_step_recovery_eigh_count(self, monkeypatch):
        joint, tree = markov_path_tree(tuple("ABCDE"), seed=21)
        calls = []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        result = tree_recover(tree)
        assert len(result.step_defects) == 3
        # one eigh at the joint's D, the final state's; the others are the
        # edge marginals' and their vertices'
        assert [s for s in calls if s[0] > 4] == [(32, 32)]
        assert trace_distance(result.state.matrix, joint.matrix) < 1e-8

    def test_three_step_recovery_work_per_step(self, monkeypatch):
        # per step: one local product forms the BC factor X and two apply
        # it, X rho then (X rho) X^dagger, the Petz output, which is never
        # rebuilt from its spectrum; each applies a product plan
        _, tree = markov_path_tree(tuple("ABCDE"), seed=21)
        calls = Counter()
        for owner, name in ((recovery, "_apply"), (recovery, "_bc_factor"),
                            (HermitianEig, "reconstruct")):
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        result = tree_recover(tree)
        assert len(result.step_defects) == 3
        assert calls == Counter(_apply=9, _bc_factor=3)
        assert calls["reconstruct"] == 0

    def test_non_strict_recovery_never_checks_overlap(self):
        # with eps_m = 0, rounding alone fails some step's report; a
        # non-strict run still recovers the joint
        joint, tree = markov_path_tree(tuple("ABCDE"), seed=22)
        result = tree_recover(tree, eps_m=0.0, strict=False)
        assert any(defect is not None for _, defect in result.step_defects)
        assert trace_distance(result.state.matrix, joint.matrix) < 1e-8

    def test_petz_output_checked_like_a_matrix(self):
        layout = SubsystemLayout(("A",), (2,))
        eig = hermitian_eig(np.diag([0.7, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="trace"):
            DensityOperator._from_eig(layout, eig, eig.reconstruct())


class TestPetzOutputSpectrum:
    """A Petz output is given its spectrum only; its eigenvectors are
    computed on first use, or at once when rounding left an eigenvalue
    below zero that must be cut."""

    L3 = SubsystemLayout(("A", "B", "C"), (2, 3, 2))

    def warm_pair(self, seed):
        # a full-rank joint: X rho_AB X^dagger is full rank, so no output
        # eigenvalue is cut
        joint = sample_density(self.L3, seed=seed)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        for t in (0.0, 0.7):  # forms rho_B and every decomposition recovery reads
            petz_recover(ab, bc, t=t)
        return ab, bc

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_warm_recovery_takes_one_spectrum(self, solver_calls, t):
        ab, bc = self.warm_pair(seed=41)
        solver_calls.clear()
        for _ in range(2):
            petz_recover(ab, bc, t=t)
        assert solver_calls == Counter(eigvalsh=2)

    def test_output_decomposed_once_on_first_use(self, solver_calls):
        ab, bc = self.warm_pair(seed=42)
        out = petz_recover(ab, bc, t=0.7).state
        solver_calls.clear()
        assert out.eig is out.eig
        assert solver_calls == Counter(eigh=1)
        np.testing.assert_allclose(out.eig.reconstruct(), out.matrix, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_rank_deficient_recovery_takes_one_eigh(self, solver_calls, t):
        # a pure joint's marginals are rank deficient, and so is their Petz
        # output: it is decomposed at once, without a spectrum first
        joint = sample_density(SubsystemLayout(("A", "B", "C"), (2, 2, 2)),
                               rank=1, seed=43)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        assert not ab.is_full_rank()
        petz_recover(ab, bc, t=t)
        solver_calls.clear()
        out = petz_recover(ab, bc, t=t).state
        assert solver_calls == Counter(eigh=1)
        assert "eig" in vars(out)  # kept from that eigh

    def test_full_rank_inputs_cut_after_the_spectrum(self, solver_calls):
        # a pure joint mixed with 1e-10 of the identity has full-rank
        # marginals, yet rounding leaves output eigenvalues below zero: the
        # spectrum comes first, then one eigh cuts them
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        pure = sample_density(layout, rank=1, seed=44).matrix
        joint = DensityOperator(layout, (1 - 1e-10) * pure + 1e-10 * np.eye(8) / 8)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        assert ab.is_full_rank() and bc.is_full_rank()
        petz_recover(ab, bc)
        solver_calls.clear()
        out = petz_recover(ab, bc).state
        assert solver_calls == Counter(eigvalsh=1, eigh=1)
        assert "eig" in vars(out)
        assert out.eigenvalues()[0] >= 0.0

    def test_rank_deficient_selection_takes_one_eigh(self, solver_calls):
        # p(b = 0 | a = 1) = 0 makes the AB marginal rank deficient, and the
        # selected chain keeps it
        joint = classical_chain([0.6, 0.4], [[0.7, 0.3], [0.0, 1.0]],
                                [[0.2, 0.8], [0.5, 0.5]])
        assert not joint.marginal(("A", "B")).is_full_rank()
        selection = best_pair_mutual_info(joint)
        assert selection.discarded_pair != ("A", "B")
        solver_calls.clear()
        again = best_pair_mutual_info(joint)
        # one overlap trace distance per chain, one eigh for the estimator
        assert solver_calls == Counter(eigvalsh=3, eigh=1)
        np.testing.assert_array_equal(again.estimator.matrix,
                                      selection.estimator.matrix)

    def test_cut_outputs_match_eigh_and_cut(self):
        # a pure joint's Petz outputs have rank 2 of 8, and rounding leaves
        # some of the six zero eigenvalues negative in many of them
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        cut = 0
        for seed in range(200):
            joint = sample_density(layout, rank=1, seed=seed)
            ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
            for t in (0.0, 0.7):
                out = petz_recover(ab, bc, t=t).state
                cut += "eig" in vars(out)  # kept from the cutting eigh
                w, v = np.linalg.eigh(dense_petz(ab, bc, t, layout))
                w = np.maximum(w, 0.0) / np.sum(np.maximum(w, 0.0))
                assert out.eigenvalues()[0] >= 0.0
                np.testing.assert_allclose(out.eigenvalues(), w, atol=1e-12)
                np.testing.assert_allclose(
                    out.matrix, (v * w) @ v.conj().T, atol=1e-12)
        assert cut > 0  # the cut path ran


class TestPairFactsOnce:
    """A compatibility check and Petz recovery of one pair form each of
    their shared facts once."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        seen = []
        real = recovery.spectral_function

        def counted(eig, f, z=None):
            seen.append(f)
            return real(eig, f, z)

        monkeypatch.setattr(recovery, "spectral_function", counted)
        return seen

    def test_check_and_t0_share_the_bc_factor(self, spectral_calls):
        # check: rho_BC^1/2, rho_B^-1/2 and rho_AB^1/2; t = 0: none; t != 0:
        # its own two powers
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=31)
        assert check_qmc_compatibility(rho_ab, rho_bc).verdict
        petz_recover(rho_ab, rho_bc)
        petz_recover(rho_ab, rho_bc, t=0.7)
        assert spectral_calls == ["power", "power", "sqrt", "power", "power"]

    def test_t0_recovery_first_forms_the_factor_check_reuses(self, spectral_calls):
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=32)
        petz_recover(rho_ab, rho_bc)
        check_qmc_compatibility(rho_ab, rho_bc)
        assert spectral_calls == ["power", "power", "sqrt"]

    def test_kept_factor_read_only_and_only_at_t0(self):
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=33)
        petz_recover(rho_ab, rho_bc, t=0.7)
        assert rho_bc._bc_factors == {}
        plain = petz_recover(rho_ab, rho_bc)
        kept = rho_bc._bc_factors[frozenset({"B"})]
        assert list(rho_bc._bc_factors) == [frozenset({"B"})]
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0
        petz_recover(rho_ab, rho_bc, t=-1.3)
        assert list(rho_bc._bc_factors) == [frozenset({"B"})]
        plan = recovery._pair_plan(rho_ab.layout, rho_bc.layout, None)
        assert recovery._bc_factor(rho_bc, plan, 0.5) is kept
        np.testing.assert_array_equal(
            petz_recover(rho_ab, rho_bc).state.matrix, plain.state.matrix)

    def test_petz_output_not_retested_for_hermiticity(self, monkeypatch):
        # X rho X^dagger is Hermitian by construction; with every marginal
        # already kept, recovery makes no Hermiticity test at all
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=34)
        petz_recover(rho_ab, rho_bc)
        calls = []
        monkeypatch.setattr(states, "is_hermitian",
                            lambda op: calls.append(op.shape) or True)
        petz_recover(rho_ab, rho_bc)
        petz_recover(rho_ab, rho_bc, t=0.7)
        assert calls == []


def fresh_qmc_pair(seed):
    """A Markov joint and its AB and BC marginals as new states, with no
    reduced state or factor kept yet."""
    joint = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=seed)
    ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
    return (joint, DensityOperator(ab.layout, ab.matrix.copy()),
            DensityOperator(bc.layout, bc.matrix.copy()))


class TestRelativeEntropyOracle:
    def test_full_rank(self, rng):
        layout = SubsystemLayout(("A", "B"), (2, 3))
        rho, sigma = sample_density(layout, seed=rng), sample_density(layout, seed=rng)
        assert relative_entropy(rho, sigma) == pytest.approx(
            two_eigh_relative_entropy(rho, sigma), abs=1e-10
        )

    def test_rank_deficient(self, rng):
        layout = SubsystemLayout(("A", "B"), (2, 3))
        sigma = sample_density(layout, rank=4, seed=rng)
        # rho supported inside supp(sigma): a mixture of sigma's eigenvectors
        v = sigma.eig.eigenvectors[:, sigma.eigenvalues() > 1e-12]
        weights = rng.uniform(0.1, 1.0, 3)
        m = (v[:, :3] * (weights / weights.sum())) @ v[:, :3].conj().T
        rho = DensityOperator(layout, m)
        ours = relative_entropy(rho, sigma)
        assert math.isfinite(ours)
        assert ours == pytest.approx(two_eigh_relative_entropy(rho, sigma), abs=1e-10)
        low = sample_density(layout, rank=2, seed=rng)
        full = sample_density(layout, seed=rng)
        assert relative_entropy(low, full) == pytest.approx(
            two_eigh_relative_entropy(low, full), abs=1e-10
        )

    def test_infinite(self, rng):
        layout = SubsystemLayout(("A", "B"), (2, 2))
        rho = sample_density(layout, seed=rng)
        sigma = sample_density(layout, rank=2, seed=rng)
        assert relative_entropy(rho, sigma) == math.inf
        assert two_eigh_relative_entropy(rho, sigma) == math.inf

    @PROPERTY
    @given(layout=layouts(), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_oracle_on_random_layouts(self, layout, seed, data):
        rng = np.random.default_rng(seed)
        d = layout.dim
        sigma = sample_density(layout, rank=data.draw(st.integers(1, d)), seed=rng)
        if data.draw(st.booleans()):
            # rho inside supp(sigma), so the entropy is finite
            v = sigma.eig.eigenvectors[:, sigma.eigenvalues() > 1e-12]
            weights = rng.uniform(0.1, 1.0, v.shape[1])
            rho = DensityOperator(layout, (v * (weights / weights.sum())) @ v.conj().T)
        else:
            rho = sample_density(layout, rank=data.draw(st.integers(1, d)), seed=rng)
        ours = relative_entropy(rho, sigma)
        oracle = two_eigh_relative_entropy(rho, sigma)
        if math.isinf(oracle):
            assert ours == oracle
        else:
            assert ours == pytest.approx(oracle, abs=1e-10)


class TestLocalApplication:
    @PROPERTY
    @given(case=local_cases())
    @example(case=(  # overlapping non-contiguous factors, named out of target order
        SubsystemLayout(("A", "B", "C", "D"), (2, 2, 3, 2)),
        SubsystemLayout(("D", "B"), (2, 2)),
        SubsystemLayout(("C", "D", "A"), (3, 2, 2)), 0,
    ))
    @example(case=(  # y on the whole target: x applied to a full matrix
        SubsystemLayout(("A", "B", "C"), (2, 3, 2)),
        SubsystemLayout(("C", "A"), (2, 2)),
        SubsystemLayout(("A", "B", "C"), (2, 3, 2)), 1,
    ))
    @example(case=(  # no shared factor: an outer product
        SubsystemLayout(("A", "B", "C"), (2, 3, 2)),
        SubsystemLayout(("C", "A"), (2, 2)),
        SubsystemLayout(("B",), (3,)), 2,
    ))
    @example(case=(  # x on the whole target, y's factors out of target order
        SubsystemLayout(("A", "B", "C", "D"), (2, 3, 2, 2)),
        SubsystemLayout(("A", "B", "C", "D"), (2, 3, 2, 2)),
        SubsystemLayout(("D", "B"), (2, 3)), 3,
    ))
    @example(case=(  # unit-dimension factors, on one operand and on both
        SubsystemLayout(("A", "B", "C", "D"), (1, 2, 1, 3)),
        SubsystemLayout(("B", "A", "C"), (2, 1, 1)),
        SubsystemLayout(("D", "C", "B"), (3, 1, 2)), 4,
    ))
    def test_local_product_equals_embed_matmul(self, case):
        target, x_sub, y_sub, seed = case
        rng = np.random.default_rng(seed)
        x, y = (
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in (x_sub.dim, y_sub.dim)
        )
        np.testing.assert_allclose(
            local_product(x, x_sub, y, y_sub, target),
            embed(x, x_sub, target) @ embed(y, y_sub, target),
            atol=1e-12,
        )

    def test_local_product_factor_on_neither_operand(self):
        target = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        with pytest.raises(LayoutError, match="neither operand"):
            local_product(
                np.eye(4), target.restrict(("A", "B")),
                np.eye(2), target.restrict(("B",)), target,
            )

    @PROPERTY
    @given(case=petz_cases())
    @example(case=((2, 2, 2), (0, 1, 2), ("A", "B", "C"), ("B", "A", "C"), 0.0, 1))
    @example(case=((2, 3, 2, 2), (0, 1, 0, 2), ("A", "B", "C", "D"),
                   ("D", "C", "A", "B"), 0.7, 2))
    def test_petz_equals_dense_formula(self, case):
        dims, groups, joint_order, target_order, t, seed = case
        labels = "ABCD"[:len(dims)]
        dim_of = dict(zip(labels, dims))
        joint = sample_density(
            SubsystemLayout(joint_order, tuple(dim_of[l] for l in joint_order)),
            seed=seed,
        )
        side = dict(zip(labels, groups))
        rho_ab = joint.marginal([l for l in labels if side[l] < 2])
        rho_bc = joint.marginal([l for l in labels if side[l] > 0])
        target = SubsystemLayout(target_order, tuple(dim_of[l] for l in target_order))
        result = petz_recover(rho_ab, rho_bc, t=t, target=target)
        assert result.state.layout == target
        np.testing.assert_allclose(
            result.state.matrix, dense_petz(rho_ab, rho_bc, t, target), atol=1e-10
        )
