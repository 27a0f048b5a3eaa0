"""Density operators, entropies and random ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmctree import (
    DensityOperator,
    MarginalSet,
    QmcSpec,
    SubsystemLayout,
    classical_state,
    conditional_mutual_information,
    maximally_mixed,
    mutual_information,
    relative_entropy,
    sample_density,
    sample_markov_path,
    sample_markov_tree,
    sample_qmc,
    trace_distance,
    von_neumann_entropy,
)
from qmctree.fileio import FileFormatError, read_density, write_operator
from qmctree.layout import embed
from qmctree.states import StateError, overlap_distance, overlap_violation

from conftest import PROPERTY, bell_state, classical_chain, ghz_state, random_conditional

L2 = SubsystemLayout(("A",), (2,))
L3Q = SubsystemLayout(("A", "B", "C"), (2, 2, 2))


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(StateError):
            DensityOperator(L2, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_non_hermitian_with_valid_hermitian_part(self, tmp_path):
        # the Hermitian part is I/2, a valid state: only the Hermiticity
        # test can refuse it, in the constructor and in the file reader
        m = np.array([[0.5, 1e-6], [-1e-6, 0.5]], dtype=complex)
        with pytest.raises(StateError, match="Hermitian"):
            DensityOperator(L2, m)
        path = tmp_path / "skew.json"
        write_operator(path, L2, m)
        with pytest.raises(FileFormatError, match="Hermitian"):
            read_density(path)

    @pytest.mark.filterwarnings("error")
    def test_rejects_skew_part_with_overflowing_norm(self, tmp_path):
        # ||m|| and ||m - m^dagger|| both overflow to inf, and the Hermitian
        # part is I/2; the skew part must still refuse it, with no warning
        m = np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex)
        with pytest.raises(StateError, match="Hermitian"):
            DensityOperator(L2, m)
        path = tmp_path / "overflow.json"
        write_operator(path, L2, m)
        with pytest.raises(FileFormatError, match="Hermitian"):
            read_density(path)

    @pytest.mark.filterwarnings("error")
    def test_rejects_hermitian_matrix_whose_spectrum_overflows(self, tmp_path):
        # eigenvalues 0.5 +- 1e308: symmetrized as m/2 + m^dagger/2, the
        # matrix does not overflow, and the eigenvalue -1e308 refuses it,
        # in the constructor and in the file reader, with no warning
        m = np.array([[0.5, 1e308], [1e308, 0.5]])
        with pytest.raises(StateError, match="negative eigenvalue"):
            DensityOperator(L2, m)
        path = tmp_path / "overflow.json"
        write_operator(path, L2, m)
        with pytest.raises(FileFormatError, match="negative eigenvalue"):
            read_density(path)

    def test_rejects_negative(self):
        with pytest.raises(StateError):
            DensityOperator(L2, np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(StateError):
            DensityOperator(L2, np.diag([0.6, 0.6]))

    def test_rejects_nan_entry(self):
        # a NaN fails every tolerance comparison, so it must not pass as
        # "within tolerance"
        with pytest.raises(StateError):
            DensityOperator(L2, np.diag([np.nan, 1.0]))

    def test_marginal_of_product(self, rng):
        a = sample_density(L2, seed=rng)
        b = sample_density(SubsystemLayout(("B",), (2,)), seed=rng)
        joint = DensityOperator(
            SubsystemLayout(("A", "B"), (2, 2)), np.kron(a.matrix, b.matrix)
        )
        assert trace_distance(joint.marginal(("A",)).matrix, a.matrix) < 1e-12

    def test_marginal_floor_scales_with_traced_dimension(self):
        # lambda_min = -9e-11 is within the constructor's floor, and tracing
        # out the four-dimensional C sums four such entries into -3.6e-10
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 4))
        p = np.full(16, (1 + 3.6e-10) / 12)
        p[:4] = -0.9e-10
        rho = DensityOperator(layout, np.diag(p))
        ab = rho.marginal(("A", "B"))
        assert ab.eigenvalues()[0] == pytest.approx(-3.6e-10, rel=1e-6)

    def test_matrix_read_only(self):
        state = maximally_mixed(L2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 9.0

    def test_equality_and_hash_by_identity(self):
        # an array field has no truth value: states compare as objects
        a, b = maximally_mixed(L2), maximally_mixed(L2)
        assert a == a and a != b
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2

    def test_complex_matrix_adopted_without_copy(self):
        # a complex128 matrix becomes the state's own, read-only, array
        m = np.eye(2, dtype=complex) / 2
        state = DensityOperator(L2, m)
        assert state.matrix is m
        with pytest.raises(ValueError):
            m[0, 0] = 0.7
        # any other dtype is converted, so the caller's array stays writable
        real = np.eye(2) / 2
        DensityOperator(L2, real)
        real[0, 0] = 0.7


class TestMarginalSet:
    def test_cover_required(self):
        ab = maximally_mixed(SubsystemLayout(("A", "B"), (2, 2)))
        with pytest.raises(Exception):
            MarginalSet(L3Q, (ab,))

    def test_consistent_pair_accepted(self, rng):
        joint = sample_density(L3Q, seed=rng)
        MarginalSet(L3Q, (joint.marginal(("A", "B")), joint.marginal(("B", "C"))))

    def test_inconsistent_overlap_rejected(self, rng):
        ab = sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=1)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        with pytest.raises(StateError):
            MarginalSet(L3Q, (ab, bc))

    def test_overlap_compared_in_one_label_order(self):
        # two marginals of one state on {A, C}, named in opposite orders:
        # their matrices differ, their reductions to {A, C} do not
        layout = SubsystemLayout(("A", "B", "C"), (2, 3, 2))
        joint = sample_density(layout, seed=4)
        ac = joint.marginal(("A", "C"))
        ca_layout = SubsystemLayout(("C", "A"), (2, 2))
        ca = DensityOperator(ca_layout, embed(ac.matrix, ac.layout, ca_layout))
        assert trace_distance(ac.matrix, ca.matrix) > 1e-3
        MarginalSet(layout, (ca, joint.marginal(("A", "B")), ac))
        assert overlap_distance(ca, ac, ("A", "C")) < 1e-15
        assert overlap_violation(ac, ca, ("A", "C"), 1e-12) is None


def _traceless_direction(rng, d: int, tight: bool) -> np.ndarray:
    """A traceless Hermitian d x d matrix of spectral norm 1; ``tight`` gives
    eigenvalues +-1 in equal numbers (d even), where 1/2 ||X||_1 equals the
    Frobenius bound 1/2 sqrt(d) ||X||_F."""
    if tight:
        q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        x = (q * np.repeat([1.0, -1.0], d // 2)) @ q.conj().T
    else:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g + g.conj().T
        x -= np.trace(x).real / d * np.eye(d)
    return (x + x.conj().T) / 2 / np.max(np.abs(np.linalg.eigvalsh(x)))


class TestOverlapGate:
    """``overlap_violation`` decides from a Frobenius bound first; its
    decision is always that of the exact trace distance."""

    @PROPERTY
    @given(d=st.integers(1, 6), tight=st.booleans(), seed=st.integers(0, 2**32 - 1),
           tol=st.floats(1e-12, 1e-3), offset=st.sampled_from([-1e-9, 0.0, 1e-9]))
    def test_same_decision_as_trace_distance(self, d, tight, seed, tol, offset):
        rng = np.random.default_rng(seed)
        layout = SubsystemLayout(("B",), (d,))
        tight = tight and d % 2 == 0
        base = sample_density(layout, seed=rng).matrix
        a = DensityOperator(layout, (base + np.eye(d) / d) / 2)  # lambda_min >= 1/2d
        if d == 1:
            b = a
        else:
            x = _traceless_direction(rng, d, tight)
            # scaled so the trace distance sits just below, at or just above tol
            scale = tol / (0.5 * np.sum(np.abs(np.linalg.eigvalsh(x)))) * (1 + offset)
            b = DensityOperator(layout, a.matrix + scale * x)
        exact = trace_distance(a.matrix, b.matrix)
        # the tolerance itself, and the doubles next to the exact distance
        for t in (tol, exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)):
            found = overlap_violation(a, b, ("B",), t)
            assert (found is None) == (exact <= t)
            assert found is None or found == exact

    def test_marginal_set_reports_exact_distance(self, rng):
        ab = sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=1)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        dist = trace_distance(ab.marginal(("B",)).matrix, bc.marginal(("B",)).matrix)
        with pytest.raises(StateError, match=f"trace distance {dist:.3e}"):
            MarginalSet(L3Q, (ab, bc))
        MarginalSet(L3Q, (ab, bc), overlap_tol=dist)


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(
            DensityOperator(L2, np.diag([1.0, 0.0]))
        ) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        l4 = SubsystemLayout(("A", "B"), (2, 2))
        assert von_neumann_entropy(maximally_mixed(l4)) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_frozen_three_level_value(self):
        layout = SubsystemLayout(("A",), (3,))
        rho = DensityOperator(layout, np.diag([0.5, 1 / 3, 1 / 6]))
        assert von_neumann_entropy(rho) == pytest.approx(
            1.0114042647073518, abs=1e-9
        )

    def test_entropy_bounds(self, rng):
        for _ in range(20):
            rho = sample_density(L3Q, seed=rng)
            s = von_neumann_entropy(rho)
            assert -1e-9 <= s <= math.log(8) + 1e-9


class TestRelativeEntropy:
    def test_self_zero(self, rng):
        rho = sample_density(L2, seed=rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_identity(self, rng):
        # S(sigma || id/d) = log d - S(sigma)
        sigma = sample_density(L3Q, seed=rng)
        lhs = relative_entropy(sigma, maximally_mixed(L3Q))
        rhs = math.log(8) - von_neumann_entropy(sigma)
        assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_disjoint_support_infinite(self):
        p = DensityOperator(L2, np.diag([1.0, 0.0]))
        q = DensityOperator(L2, np.diag([0.0, 1.0]))
        assert relative_entropy(p, q) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(20):
            p = sample_density(L2, seed=rng)
            q = sample_density(L2, seed=rng)
            assert relative_entropy(p, q) >= -1e-9

    def test_zero_iff_equal(self, rng):
        p = sample_density(L2, seed=rng)
        q = sample_density(L2, seed=rng)
        assert relative_entropy(p, q) > 1e-4  # generic samples differ
        assert trace_distance(p.matrix, q.matrix) > 1e-4


class TestMutualInformation:
    def test_product_zero(self, rng):
        a = sample_density(L2, seed=rng)
        b = sample_density(SubsystemLayout(("B",), (2,)), seed=rng)
        joint = DensityOperator(
            SubsystemLayout(("A", "B"), (2, 2)), np.kron(a.matrix, b.matrix)
        )
        assert mutual_information(joint, ("A",), ("B",)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_bell_pair(self):
        assert mutual_information(bell_state(), ("A",), ("B",)) == pytest.approx(
            2 * math.log(2), abs=1e-9
        )

    def test_classical_perfect_correlation(self):
        layout = SubsystemLayout(("A", "B"), (2, 2))
        joint = classical_state(layout, np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(joint, ("A",), ("B",)) == pytest.approx(
            math.log(2), abs=1e-10
        )

    def test_bad_partition(self):
        with pytest.raises(Exception):
            mutual_information(bell_state(), ("A",), ("A",))


class TestConditionalMutualInformation:
    def test_product_zero(self, rng):
        parts = [sample_density(SubsystemLayout((l,), (2,)), seed=rng)
                 for l in "ABC"]
        m = np.kron(np.kron(parts[0].matrix, parts[1].matrix), parts[2].matrix)
        joint = DensityOperator(L3Q, m)
        assert conditional_mutual_information(
            joint, ("A",), ("B",), ("C",)
        ) == pytest.approx(0.0, abs=1e-10)

    def test_ghz_value(self):
        # S(AB) = S(BC) = S(B) = log 2 and S(ABC) = 0, so I(A:C|B) = log 2;
        # strictly positive: this state is not recoverable from its marginals
        value = conditional_mutual_information(
            ghz_state(), ("A",), ("B",), ("C",)
        )
        assert value == pytest.approx(math.log(2), abs=1e-9)

    def test_qmc_sample_zero(self):
        spec = QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1)))
        state = sample_qmc(spec, seed=7)
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C",)
        )) <= 1e-8

    def test_ssa_sweep(self):
        # strong subadditivity on 200 random tripartite states
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(200):
            rho = sample_density(L3Q, seed=rng)
            worst = min(
                worst,
                conditional_mutual_information(rho, ("A",), ("B",), ("C",)),
            )
        assert worst >= -1e-9


class TestSampleDensity:
    def test_rank_one_pure(self, rng):
        rho = sample_density(L3Q, rank=1, seed=rng)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_seed_reproducible(self):
        a = sample_density(L3Q, seed=42)
        b = sample_density(L3Q, seed=42)
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_mean_near_maximally_mixed(self):
        rng = np.random.default_rng(5)
        acc = np.zeros((4, 4), dtype=complex)
        layout = SubsystemLayout(("A", "B"), (2, 2))
        n = 2000
        for _ in range(n):
            acc += sample_density(layout, seed=rng).matrix
        assert trace_distance(acc / n, np.eye(4) / 4) < 0.02

    def test_bad_rank(self):
        with pytest.raises(StateError):
            sample_density(L2, rank=5)


class TestSampleQmc:
    def test_single_block_product(self):
        spec = QmcSpec(2, 2, ((1.0, 1, 2),))
        state = sample_qmc(spec, seed=0)
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C",)
        )) <= 1e-9

    def test_two_blocks(self):
        spec = QmcSpec(2, 2, ((0.5, 1, 2), (0.5, 2, 1)))
        state = sample_qmc(spec, seed=1)
        assert state.layout.dim_of("B") == 4
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C",)
        )) <= 1e-9

    def test_classical_spec_matches_chain(self, rng):
        # diagonal factors give exactly the p(a,b) p(c|b) embedding
        p_a = np.array([0.3, 0.7])
        p_ba = random_conditional(rng, 2, 2)
        p_cb = random_conditional(rng, 2, 2)
        chain = classical_chain(p_a, p_ba, p_cb)
        assert abs(conditional_mutual_information(
            chain, ("A",), ("B",), ("C",)
        )) <= 1e-10

    def test_spec_validation(self):
        with pytest.raises(StateError):
            QmcSpec(2, 2, ((0.7, 1, 1),))  # probabilities do not sum to 1
        with pytest.raises(StateError):
            QmcSpec(0, 2, ((1.0, 1, 1),))

    @pytest.mark.parametrize("dim_a, dim_c, blocks", [
        (2.5, 2, ((1.0, 1, 2),)),
        (2, 1.5, ((1.0, 1, 2),)),
        (2, 2, ((1.0, 1.7, 2),)),
        (2, 2, ((1.0, 1, 2.5),)),
        (True, 2, ((1.0, 1, 2),)),
        (2, np.True_, ((1.0, 1, 2),)),
        (2, 2, ((1.0, True, 2),)),
        ("2", 2, ((1.0, 1, 2),)),
        (math.nan, 2, ((1.0, 1, 2),)),
        (2, math.inf, ((1.0, 1, 2),)),
    ], ids=["dim_a", "dim_c", "left", "right", "bool_a", "numpy_bool_c",
            "bool_block", "string", "nan", "inf"])
    def test_non_integer_dimension_rejected(self, dim_a, dim_c, blocks):
        with pytest.raises(StateError, match="must be an integer"):
            QmcSpec(dim_a, dim_c, blocks)

    def test_integral_dimensions_converted(self):
        spec = QmcSpec(2.0, np.int64(2), ((1.0, 1.0, np.float64(2.0)),))
        assert (spec.dim_a, spec.dim_c, spec.blocks) == (2, 2, ((1.0, 1, 2),))
        assert all(type(v) is int for v in (spec.dim_a, spec.dim_c, *spec.blocks[0][1:]))
        assert sample_qmc(spec, seed=0).layout.dims == (2, 2, 2)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, p):
        with pytest.raises(StateError, match="finite"):
            QmcSpec(2, 2, ((p, 1, 2),))

    def test_invariants_sweep(self):
        rng = np.random.default_rng(3)
        for i in range(25):
            blocks = ((0.5, 1, 2), (0.5, 2, 1)) if i % 2 else ((1.0, 1, 2),)
            state = sample_qmc(QmcSpec(2, 2, blocks), seed=rng)
            assert abs(conditional_mutual_information(
                state, ("A",), ("B",), ("C",)
            )) <= 1e-8


class TestMarkovSamplers:
    def test_path_pairwise_cmi(self):
        labels = ("A", "B", "C", "D")
        state = sample_markov_path(labels, (2, 2, 2, 2), seed=9)
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C", "D")
        )) <= 1e-8
        assert abs(conditional_mutual_information(
            state, ("A", "B"), ("C",), ("D",)
        )) <= 1e-8

    def test_star_tree_separator_cmi(self):
        layout = SubsystemLayout(("A", "B", "C", "D"), (2, 2, 2, 2))
        edges = [("A", "B"), ("B", "C"), ("B", "D")]
        state = sample_markov_tree(layout, edges, seed=4)
        # B separates every pair of leaves
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C", "D")
        )) <= 1e-8
        assert abs(conditional_mutual_information(
            state, ("C",), ("B",), ("A", "D")
        )) <= 1e-8
        assert abs(conditional_mutual_information(
            state, ("D",), ("B",), ("A", "C")
        )) <= 1e-8

    def test_entangled_edge_is_markov_but_never_sampled(self):
        # rho_A (x) rho_BC with an entangled rho_BC is Markov on A-B-C; the
        # sampler makes B classical, so its rho_BC is always separable
        def min_partial_transpose_eigenvalue(rho_bc):
            m = rho_bc.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            return np.linalg.eigvalsh(m)[0]

        werner = 0.9 * bell_state(("B", "C")).matrix + 0.1 * np.eye(4) / 4
        rho_a = sample_density(L2, seed=5).matrix
        state = DensityOperator(L3Q, np.kron(rho_a, werner))
        assert abs(conditional_mutual_information(state, ("A",), ("B",), ("C",))) <= 1e-12
        assert min_partial_transpose_eigenvalue(state.marginal(("B", "C"))) < -0.1
        for seed in range(20):
            sampled = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=seed)
            assert min_partial_transpose_eigenvalue(sampled.marginal(("B", "C"))) > 0.0

    def test_tree_sampler_rejects_unknown_label(self):
        with pytest.raises(StateError, match="unknown vertex"):
            sample_markov_tree(L3Q, [("A", "Z"), ("A", "B")])

    def test_tree_sampler_respects_layout_order(self):
        layout = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
        state = sample_markov_tree(layout, [("A", "B"), ("B", "C")], seed=2)
        assert state.labels == ("A", "B", "C")
        assert abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C",)
        )) <= 1e-8
