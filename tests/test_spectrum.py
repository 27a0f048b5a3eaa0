"""One spectral decomposition per density operator, and the local
application of B (x) C factors that Petz recovery and the compatibility
test build on.

Eigendecompositions are counted by wrapping ``numpy.linalg.eigh`` and
``eigvalsh`` (and Cholesky factorizations by wrapping
``numpy.linalg.cholesky``), so the counts do not depend on the machine.
"""

import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qmctree import (
    DensityOperator,
    MarginalSet,
    QmcSpec,
    QuantumTree,
    SubsystemLayout,
    best_pair_mutual_info,
    check_qmc_compatibility,
    delta_s,
    learn_tree,
    marginal_constraints,
    maximally_mixed,
    partial_trace,
    petz_recover,
    relative_entropy,
    sample_density,
    sample_markov_path,
    sample_markov_tree,
    sample_qmc,
    solve_maxent,
    trace_distance,
    tree_recover,
    von_neumann_entropy,
)
from qmctree import recovery, states
from qmctree.layout import LayoutError, embed, local_product
from qmctree.linalg import (
    HermitianEig,
    _hermitian_part,
    hermitian_eig,
    matrix_function,
    support_cutoff,
)
from qmctree.recovery import compose_layouts
from qmctree.tree import EstimatorMarginalError

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
    """Calls to numpy's Hermitian eigensolvers and Cholesky factorization,
    counted by name."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "cholesky"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def joint_size_calls(monkeypatch):
    """(name, shape) of each eigh, eigvalsh and Cholesky call on a matrix
    larger than 4 x 4, the largest edge marginal of a qubit tree, in call
    order."""
    calls = []
    for name in ("eigh", "eigvalsh", "cholesky"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            if np.shape(a)[0] > 4:
                calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

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

    def test_three_step_recovery_eigh_count(self, joint_size_calls):
        joint, tree = markov_path_tree(tuple("ABCDE"), seed=21)
        joint_size_calls.clear()
        result = tree_recover(tree)
        assert len(result.step_defects) == 3
        # full-rank edges: no eigh or Cholesky at the joint's D, only the
        # final state's eigvalsh certificate, the spectrum S(sigma) reads;
        # the eighs left are the edge marginals'
        assert joint_size_calls == [("eigvalsh", (32, 32))]
        assert trace_distance(result.state.matrix, joint.matrix) < 1e-8

    def test_rank_deficient_edge_takes_one_eigh(self, joint_size_calls):
        # rho_A (x) a pure rho_BC: the B-C edge is rank deficient, so the
        # final state is decomposed and the gap is the measured S(rho||sigma)
        a = sample_density(SubsystemLayout(("A",), (2,)), seed=22)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), rank=1, seed=23)
        joint = DensityOperator(SubsystemLayout(("A", "B", "C"), (2, 2, 2)),
                                np.kron(a.matrix, bc.matrix))
        joint_size_calls.clear()
        learned = learn_tree(joint)
        assert learned.tree.edges == (("A", "B"), ("B", "C"))
        assert not learned.tree.edge_marginals[("B", "C")].is_full_rank()
        assert joint_size_calls == [("eigh", (8, 8))]
        assert learned.gap.total == relative_entropy(joint, learned.estimator)
        assert abs(learned.gap.total) < 1e-10

    def test_learn_tree_certifies_by_the_spectrum_it_reads(self, joint_size_calls):
        # a full-rank five-qubit Markov tree with a branch: the one solver
        # call at the joint's D is the estimator's eigvalsh, which certifies
        # it and which the ledger's S(sigma) reads
        layout = SubsystemLayout(tuple("ABCDE"), (2,) * 5)
        edges = (("A", "B"), ("B", "C"), ("B", "D"), ("D", "E"))
        joint = sample_markov_tree(layout, edges, seed=24)
        joint_size_calls.clear()
        learned = learn_tree(joint)
        assert learned.tree.edges == edges
        assert all(e.is_full_rank() for e in learned.tree.edge_marginals.values())
        assert [c for c in joint_size_calls if c[1] == (32, 32)] == [("eigvalsh", (32, 32))]
        # the calls at 4 < D' < 32 are spectra of the estimator's marginals
        assert {name for name, _ in joint_size_calls} == {"eigvalsh"}
        m = learned.estimator.matrix
        np.testing.assert_array_equal(learned.estimator.eigenvalues(),
                                      np.linalg.eigvalsh(_hermitian_part(m)))

    def test_spectrum_below_the_floor_takes_the_eigh_cut(self, monkeypatch,
                                                          solver_calls):
        # a final spectrum below -NEGATIVITY_TOL fails the certificate, as
        # a failed Cholesky does, and one eigh cuts the output instead
        _, tree = markov_path_tree(tuple("ABCDE"), seed=21)
        certified = tree_recover(tree).state  # forms every edge fact
        real = np.linalg.eigvalsh

        def below_the_floor(a, *args, **kwargs):
            w = real(a, *args, **kwargs)
            if len(a) == 32:
                w[0] = -2 * states.NEGATIVITY_TOL
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", below_the_floor)
        solver_calls.clear()
        state = tree_recover(tree).state
        assert solver_calls["eigh"] == 1 and solver_calls["cholesky"] == 0
        assert "eig" in vars(state)  # kept from the cutting eigh
        m = state.matrix
        np.testing.assert_array_equal(m, m.conj().T)
        assert abs(m.trace().real - 1.0) <= states.TRACE_TOL
        assert state.eigenvalues()[0] >= 0.0
        np.testing.assert_allclose(m, certified.matrix, atol=1e-12)

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
            DensityOperator._certified(layout, eig.reconstruct(), eig)


class TestDeltaSTermsOnFirstRead:
    """``learn_tree``'s ledger reads the ``delta_s`` sum, so the per-leaf
    terms, which need the estimator's marginal on every peeled rest and its
    spectrum, are formed when first read and then kept."""

    EDGES = (("A", "B"), ("B", "C"), ("B", "D"), ("D", "E"), ("E", "F"))

    def branched_tree(self, seed=25):
        layout = SubsystemLayout(tuple("ABCDEF"), (2,) * 6)
        return sample_markov_tree(layout, self.EDGES, seed=seed)

    def test_learn_tree_takes_one_joint_size_spectrum(self, joint_size_calls,
                                                      partial_traces):
        joint = self.branched_tree()
        joint.marginal(("A", "B"))  # the joint's own pair marginals are not counted
        partial_traces.clear()
        joint_size_calls.clear()
        learned = learn_tree(joint)
        assert learned.tree.edges == self.EDGES
        assert all(e.is_full_rank() for e in learned.tree.edge_marginals.values())
        # the estimator's spectrum, which certifies it and which S(sigma)
        # reads, is the one solver call above 4 x 4; no estimator marginal
        # above pair size is formed
        assert joint_size_calls == [("eigvalsh", (64, 64))]
        assert max(map(len, partial_traces)) <= 2
        report = learned.delta_s_report
        terms = report.terms
        # the rests of the four peeling steps, on 5, 4, 3 and 2 labels
        assert joint_size_calls[1:] == [("eigvalsh", (d, d)) for d in (32, 16, 8)]
        assert sorted(map(len, partial_traces))[-3:] == [3, 4, 5]
        joint_size_calls.clear()
        partial_traces.clear()
        assert report.terms is terms
        assert report.term_sum == float(sum(t for _, t in terms))
        assert not joint_size_calls and not partial_traces

    @pytest.mark.parametrize("seed", [25, 26])
    def test_terms_are_the_peeling_cmis_of_the_estimator(self, seed):
        learned = learn_tree(self.branched_tree(seed))
        sigma = learned.estimator

        def s(labels):
            return von_neumann_entropy(sigma.marginal(labels))

        steps, _ = learned.tree.peel_order()
        expected = tuple(
            (leaf, s((leaf, parent)) + s(rest) - s((parent,)) - s((leaf,) + rest))
            for leaf, parent, rest in steps)
        assert [leaf for leaf, _ in learned.delta_s_report.terms] == [
            leaf for leaf, _, _ in steps]
        assert learned.delta_s_report.terms == expected  # to the bit
        assert learned.delta_s_report.term_sum == pytest.approx(
            learned.delta_s_report.delta_s, abs=1e-10)

    def test_broken_edge_marginal_raises_at_the_call(self, partial_traces):
        # the edge marginal checks stay eager: delta_s raises before any
        # report, and so before any term, exists
        joint = self.branched_tree()
        tree = learn_tree(joint).tree
        partial_traces.clear()
        with pytest.raises(EstimatorMarginalError, match="marginal by"):
            delta_s(tree, maximally_mixed(joint.layout))
        assert max(map(len, partial_traces)) <= 2


class TestPetzOutputSpectrum:
    """A Petz output of full-rank inputs is certified positive definite by
    one Cholesky factorization, and its spectrum and eigenvectors are
    computed on first use; when the certificate fails, or an input is rank
    deficient, one eigh cuts rounding's negative eigenvalues at once."""

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
        # the one spectrum each recovery paid for is now one certificate
        assert solver_calls == Counter(cholesky=2)

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
        # certificate fails first, then one eigh cuts them
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        pure = sample_density(layout, rank=1, seed=44).matrix
        joint = DensityOperator(layout, (1 - 1e-10) * pure + 1e-10 * np.eye(8) / 8)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        assert ab.is_full_rank() and bc.is_full_rank()
        petz_recover(ab, bc)
        solver_calls.clear()
        out = petz_recover(ab, bc).state
        assert solver_calls == Counter(cholesky=1, eigh=1)
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

    @pytest.mark.parametrize("decompose", [False, True])
    @pytest.mark.parametrize("entry, value, shown", [
        ((1, 1), 0.0, "0.000e+00"),  # with every other entry zeroed below
        ((1, 1), np.nan, "nan"),
        ((2, 1), np.nan, "nan"),
        ((1, 1), np.inf, "nan"),
    ])
    def test_zero_or_non_finite_trace_raises(self, decompose, entry, value, shown):
        # certified or decomposed, a Petz output without a positive finite
        # trace raises RecoveryError; a factor of a non-finite matrix need
        # not raise, so the certificate alone would pass a NaN off the diagonal
        m = np.eye(4, dtype=complex) / 4
        if value == 0.0:
            m[:] = 0.0
        m[entry] = value
        with pytest.raises(recovery.RecoveryError, match=re.escape(f"trace {shown}:")):
            recovery._petz_state(m, SubsystemLayout(("A", "B"), (2, 2)), ("B",),
                                 "eigh" if decompose else "cholesky")

    def test_first_spectrum_query_takes_one_eigvalsh(self, solver_calls):
        ab, bc = self.warm_pair(seed=45)
        out = petz_recover(ab, bc, t=0.7).state
        assert "_spectrum" not in vars(out)  # certified, not decomposed
        solver_calls.clear()
        w = out.eigenvalues()
        assert solver_calls == Counter(eigvalsh=1)
        assert out.is_full_rank()
        von_neumann_entropy(out)
        assert out.eigenvalues() is w
        assert solver_calls == Counter(eigvalsh=1)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(out.matrix), atol=1e-12)

    def test_spectrum_read_from_eig_when_formed_first(self, solver_calls):
        ab, bc = self.warm_pair(seed=46)
        out = petz_recover(ab, bc).state
        solver_calls.clear()
        eig = out.eig
        assert out.eigenvalues() is eig.eigenvalues
        assert out.is_full_rank()
        assert solver_calls == Counter(eigh=1)

    def test_marginal_of_certified_output_forms_no_spectrum(self, solver_calls):
        # a marginal is certified by the output it reduces: forming it takes
        # no solver, and its own spectrum is one eigvalsh on first read;
        # the output is never decomposed
        ab, bc = self.warm_pair(seed=47)
        out = petz_recover(ab, bc, t=0.7).state
        solver_calls.clear()
        reduced = out.marginal(("A", "C"))
        assert not solver_calls
        reduced.eigenvalues()
        assert solver_calls == Counter(eigvalsh=1)
        assert "_spectrum" not in vars(out) and "eig" not in vars(out)
        np.testing.assert_allclose(
            reduced.eigenvalues(), np.linalg.eigvalsh(reduced.matrix), atol=1e-12)

    @PROPERTY
    @given(case=petz_cases())
    def test_lazy_spectrum_equals_eigvalsh_of_hermitian_part(self, case):
        # a certified output is m + m^dagger scaled, Hermitian to the bit, so
        # its spectrum, taken from the matrix itself, is the one taken from
        # the copy (m + m^dagger) / 2 to the bit
        dims, groups, joint_order, _, t, seed = case
        labels = "ABCD"[:len(dims)]
        dim_of, side = dict(zip(labels, dims)), dict(zip(labels, groups))
        joint = sample_density(
            SubsystemLayout(joint_order, tuple(dim_of[l] for l in joint_order)),
            seed=seed,
        )
        out = petz_recover(joint.marginal([l for l in labels if side[l] < 2]),
                           joint.marginal([l for l in labels if side[l] > 0]),
                           t=t).state
        assume("_spectrum" not in vars(out) and "eig" not in vars(out))
        np.testing.assert_array_equal(
            out.eigenvalues(), np.linalg.eigvalsh(_hermitian_part(out.matrix)))

    @PROPERTY
    @given(kind=st.sampled_from(["full", "near_singular", "deficient"]),
           t=st.sampled_from([0.0, 0.7]), seed=st.integers(0, 2**32 - 1))
    def test_output_positive_normalized_and_hermitian(self, kind, t, seed):
        # full rank certifies, a pure joint mixed with 1e-10 of the identity
        # mostly fails the certificate, and a pure joint's marginals are
        # rank deficient; every output keeps the state's invariants
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        rank = 8 if kind == "full" else 1
        joint = sample_density(layout, rank=rank, seed=seed)
        if kind == "near_singular":
            joint = DensityOperator(
                layout, (1 - 1e-10) * joint.matrix + 1e-10 * np.eye(8) / 8)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        out = petz_recover(ab, bc, t=t).state
        m = out.matrix
        assert out.eigenvalues()[0] >= -states.NEGATIVITY_TOL
        assert abs(m.trace().real - 1.0) <= states.TRACE_TOL
        np.testing.assert_array_equal(m, m.conj().T)


class TestLibraryStateCertificates:
    """A state the library builds is Hermitian to the bit and keeps the
    certificate it was built with: a sampled state one eigvalsh of its own
    matrix, with no Hermiticity test and no copy; the maximally mixed
    state its known spectrum, with no solver call."""

    SAMPLERS = {
        "qmc": lambda seed: sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=seed),
        "tree": lambda seed: sample_markov_tree(
            SubsystemLayout(tuple("ABCDE"), (2, 3, 2, 3, 2)),
            [("A", "B"), ("B", "C"), ("C", "D"), ("C", "E")], seed=seed),
    }

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_sampled_state_takes_one_eigvalsh(self, solver_calls, monkeypatch, sampler):
        tested = []
        monkeypatch.setattr(states, "is_hermitian", lambda op: tested.append(op) or True)
        state = self.SAMPLERS[sampler](5)
        assert not tested
        assert solver_calls == Counter(eigvalsh=1)
        assert len(state.eigenvalues()) == state.layout.dim  # kept: that one was at D
        assert solver_calls == Counter(eigvalsh=1)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    def test_kept_spectrum_is_eigvalsh_of_hermitian_part(self, sampler, seed):
        state = self.SAMPLERS[sampler](seed)
        np.testing.assert_array_equal(
            state.eigenvalues(), np.linalg.eigvalsh(_hermitian_part(state.matrix)))

    @pytest.mark.parametrize("dims", [(1,), (2, 3), (4, 4, 2)])
    def test_maximally_mixed_takes_no_solver(self, solver_calls, dims):
        layout = SubsystemLayout(tuple("ABC"[:len(dims)]), dims)
        state = maximally_mixed(layout)
        w = state.eigenvalues()
        assert not solver_calls
        np.testing.assert_array_equal(w, np.full(layout.dim, 1 / layout.dim))
        np.testing.assert_array_equal(w, np.linalg.eigvalsh(state.matrix))


def record_eig_calls(patch, record):
    """Wrap numpy's Hermitian eigensolvers through ``patch`` (a
    MonkeyPatch), so that each call first passes its name and matrix to
    ``record``."""
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            record(_name, a)
            return _real(a, *args, **kwargs)

        patch.setattr(np.linalg, name, counted)


@st.composite
def certified_parents(draw):
    """A state of each kind whose marginals the library forms: an outside
    Hilbert-Schmidt matrix, a sampled Markov tree, a Petz output or a
    max-entropy state, on two to four factors of dimension 1 to 3 (three
    of dimension 1 or 2 for the solver)."""
    kind = draw(st.sampled_from(["outside", "tree", "petz", "maxent"]))
    n = draw(st.integers(*{"petz": (3, 4), "maxent": (3, 3)}.get(kind, (2, 4))))
    top = 2 if kind == "maxent" else 3
    dims = tuple(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    labels = tuple(draw(st.permutations("ABCD"[:n])))
    layout = SubsystemLayout(labels, dims)
    seed = draw(st.integers(0, 2**32 - 1))
    path = list(zip(labels, labels[1:]))
    if kind == "outside":
        return sample_density(layout, seed=seed)
    if kind == "tree":
        return sample_markov_tree(layout, path, seed=seed)
    # marginals on A B and B C, with B the second label and C the rest
    joint = sample_density(layout, seed=seed)
    ab, bc = joint.marginal(labels[:2]), joint.marginal(labels[1:])
    if kind == "petz":
        return petz_recover(ab, bc, t=draw(st.sampled_from([0.0, 0.7]))).state
    return solve_maxent(marginal_constraints(MarginalSet(layout, (ab, bc)))).state


class TestMarginalCertifiedByParent:
    """A marginal is a partial trace of a state the library has certified,
    so it is certified by that state: forming it takes no solver, and its
    spectrum is taken on first read, from ``eig`` when that was formed
    first, else by one eigvalsh of its Hermitian part."""

    @PROPERTY
    @given(parent=certified_parents(), eig_first=st.booleans())
    def test_marginal_takes_its_spectrum_on_first_read(self, parent, eig_first):
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            record_eig_calls(mp, lambda name, a: calls.update([name]))
            labels = parent.labels
            keeps = [k for r in range(1, len(labels))
                     for k in itertools.combinations(labels, r)]
            reduced = [parent.marginal(k) for k in keeps]
        assert not calls
        for keep, m in zip(keeps, reduced):
            np.testing.assert_array_equal(
                m.matrix, partial_trace(parent.matrix, parent.layout, keep))
            if eig_first:
                eig = m.eig
                assert m.eigenvalues() is eig.eigenvalues
            else:
                np.testing.assert_array_equal(
                    m.eigenvalues(), np.linalg.eigvalsh(_hermitian_part(m.matrix)))

    def test_check_decomposes_each_marginal_by_one_eigh(self, monkeypatch):
        # from their forming on, rho_AB^1/2 and the BC factor decompose
        # the two marginals, and the ranks the report reads come from
        # those eighs: no eigvalsh of either; the other calls are rho_B's
        # eigh and the overlap's trace distance
        calls = []
        record_eig_calls(monkeypatch, lambda name, a: calls.append((name, np.array(a))))
        state = sample_qmc(QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1))), seed=11)
        calls.clear()
        rho_ab, rho_bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        assert check_qmc_compatibility(rho_ab, rho_bc).verdict
        for rho in (rho_ab, rho_bc):
            assert [name for name, a in calls if a.shape == rho.matrix.shape
                    and np.allclose(a, rho.matrix)] == ["eigh"]
        assert Counter(name for name, _ in calls) == Counter(eigh=3, eigvalsh=1)


class TestPairFactsOnce:
    """A compatibility check and Petz recovery of one pair form each of
    their shared facts once."""

    @pytest.fixture
    def spectral_calls(self, monkeypatch):
        """(function, decomposition) per spectral function formed, by
        recovery or by a state for its kept square root."""
        seen = []
        real = recovery.spectral_function

        def counted(eig, f, z=None):
            seen.append((f, eig))
            return real(eig, f, z)

        for module in (recovery, states):
            monkeypatch.setattr(module, "spectral_function", counted)
        return seen

    def test_check_and_t0_share_the_bc_factor(self, spectral_calls):
        # check: rho_BC^1/2, rho_B^-1/2 and rho_AB^1/2; t = 0: none; t != 0:
        # its own two powers
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=31)
        assert check_qmc_compatibility(rho_ab, rho_bc).verdict
        petz_recover(rho_ab, rho_bc)
        petz_recover(rho_ab, rho_bc, t=0.7)
        assert [f for f, _ in spectral_calls] == [
            "sqrt", "power", "sqrt", "power", "power"]

    def test_t0_recovery_first_forms_the_factor_check_reuses(self, spectral_calls):
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=32)
        petz_recover(rho_ab, rho_bc)
        check_qmc_compatibility(rho_ab, rho_bc)
        assert [f for f, _ in spectral_calls] == ["sqrt", "power", "sqrt"]

    def test_selection_forms_each_square_root_once(self, spectral_calls):
        # two chains read marginal AB as rho_AB, and two read AC as rho_BC,
        # across different shared labels: each root is still formed once,
        # and so is each shared marginal's inverse root
        joint = classical_chain([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]],
                                [[0.2, 0.8], [0.5, 0.5]])
        pairs = states.pairwise_marginals(joint)
        best_pair_mutual_info(pairs)
        assert Counter(f for f, _ in spectral_calls) == Counter(sqrt=3, power=3)
        assert len({(f, id(eig)) for f, eig in spectral_calls}) == 6
        roots = {id(m.eig) for m in pairs.values()}
        assert {id(eig) for f, eig in spectral_calls if f == "sqrt"} == roots

    def test_kept_square_root_read_only(self):
        _, rho_ab, _ = fresh_qmc_pair(seed=35)
        root = rho_ab._sqrt
        assert rho_ab._sqrt is root
        with pytest.raises(ValueError):
            root[0, 0] = 1.0
        np.testing.assert_allclose(root @ root, rho_ab.matrix, atol=1e-12)

    def test_rank_read_once_per_state(self, monkeypatch):
        # is_full_rank is a flag derived once from the kept spectrum, so a
        # warm check and two recoveries derive no support cutoff
        _, rho_ab, rho_bc = fresh_qmc_pair(seed=36)
        check_qmc_compatibility(rho_ab, rho_bc)
        calls = []
        real = states.support_cutoff
        monkeypatch.setattr(states, "support_cutoff",
                            lambda w: calls.append(w.shape) or real(w))
        for _ in range(2):
            check_qmc_compatibility(rho_ab, rho_bc)
            petz_recover(rho_ab, rho_bc)
            petz_recover(rho_ab, rho_bc, t=0.7)
        assert calls == []

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
