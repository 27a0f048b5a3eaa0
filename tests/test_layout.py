"""Layout algebra: partial trace, identity embedding and local products."""

import dataclasses
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import qmctree
from qmctree import SubsystemLayout, embed, maximally_mixed, partial_trace
from qmctree.layout import (
    LayoutError,
    _product_plan,
    local_product,
    tree_neighbours,
    union_find,
)
from qmctree.recovery import compose_layouts

from conftest import PROPERTY, layouts, local_cases


L_ABC = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def random_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestLayout:
    def test_basic_properties(self):
        assert L_ABC.dim == 8
        assert L_ABC.dim_of("B") == 2
        assert L_ABC.restrict(("A", "C")).labels == ("A", "C")
        assert L_ABC.complement(("B",)) == ("A", "C")

    def test_label_and_dim_counts_must_match(self):
        with pytest.raises(LayoutError, match="2 labels but 1 dims"):
            SubsystemLayout(("A", "B"), (2,))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout(("A", "A"), (2, 2))

    def test_bad_dimension_rejected(self):
        with pytest.raises(LayoutError):
            SubsystemLayout(("A",), (0,))

    def test_dimension_cap(self):
        with pytest.raises(LayoutError):
            SubsystemLayout(tuple("ABCDEFGHIJKLM"), (2,) * 13)  # 8192 > 4096

    @pytest.mark.parametrize("dim", [
        2.5, np.float64(2.7), True, np.True_, "3", math.nan, math.inf, None, 2 + 0j,
    ], ids=["float", "numpy_float", "bool", "numpy_bool", "string", "nan", "inf",
            "none", "complex"])
    def test_non_integer_dimension_rejected(self, dim):
        # the rule QmcSpec applies: no silent int() of a non-integral value
        with pytest.raises(LayoutError, match="dimension must be an integer"):
            SubsystemLayout(("A", "B"), (2, dim))

    def test_integral_dimensions_converted(self):
        layout = SubsystemLayout(("A", "B", "C"), (2.0, np.int64(3), np.float64(1.0)))
        assert layout.dims == (2, 3, 1)
        assert all(type(d) is int for d in layout.dims)
        assert layout == SubsystemLayout(("A", "B", "C"), (2, 3, 1))


class TestUnionFind:
    def test_union_reports_cycles(self):
        union = union_find("ABCD")
        assert union("A", "B") and union("C", "D") and union("B", "C")
        assert not union("A", "D")
        assert not union("B", "B")

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            union_find("AB")("A", "Z")


class TestTreeNeighbours:
    def test_neighbours_in_edge_order(self):
        assert tree_neighbours("ABCD", [("B", "D"), ("A", "B"), ("B", "C")]) == {
            "A": ["B"], "B": ["D", "A", "C"], "C": ["B"], "D": ["B"]}


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a, b, c = (random_density(rng, 2) for _ in range(3))
        joint = np.kron(np.kron(a, b), c)
        np.testing.assert_allclose(
            partial_trace(joint, L_ABC, ("A", "B")), np.kron(a, b), atol=1e-12
        )

    def test_maximally_mixed(self):
        lab = SubsystemLayout(("A", "B"), (2, 3))
        joint = np.eye(6) / 6
        np.testing.assert_allclose(
            partial_trace(joint, lab, ("A",)), np.eye(2) / 2, atol=1e-14
        )

    def test_ghz_trace_out_a(self):
        vec = np.zeros(8)
        vec[0] = vec[7] = 1 / np.sqrt(2)
        ghz = np.outer(vec, vec)
        # hand-contracted: Tr_A |GHZ><GHZ| = (|00><00| + |11><11|)/2 on BC
        np.testing.assert_allclose(
            partial_trace(ghz, L_ABC, ("B", "C")),
            np.diag([0.5, 0.0, 0.0, 0.5]),
            atol=1e-14,
        )

    def test_trace_preserved(self, rng):
        op = random_density(rng, 8)
        for keep in [("A",), ("B", "C"), ("A", "C")]:
            reduced = partial_trace(op, L_ABC, keep)
            assert abs(np.trace(reduced) - np.trace(op)) < 1e-12

    def test_partial_traces_commute(self, rng):
        op = random_density(rng, 8)
        via_a_then_c = partial_trace(op, L_ABC, ("B", "C"))
        via_a_then_c = partial_trace(
            via_a_then_c, L_ABC.restrict(("B", "C")), ("B",)
        )
        via_c_then_a = partial_trace(op, L_ABC, ("A", "B"))
        via_c_then_a = partial_trace(
            via_c_then_a, L_ABC.restrict(("A", "B")), ("B",)
        )
        direct = partial_trace(op, L_ABC, ("B",))
        np.testing.assert_allclose(via_a_then_c, direct, atol=1e-12)
        np.testing.assert_allclose(via_c_then_a, direct, atol=1e-12)

    def test_kept_label_order_preserved(self, rng):
        op = random_density(rng, 8)
        kept = partial_trace(op, L_ABC, ("A", "C"))
        assert kept.shape == (4, 4)

    def test_unknown_label(self):
        with pytest.raises(LayoutError):
            partial_trace(np.eye(8) / 8, L_ABC, ("X",))

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            partial_trace(np.eye(4) / 4, L_ABC, ("A",))


class TestEmbed:
    def test_pauli_z_on_middle(self):
        sub = SubsystemLayout(("B",), (2,))
        out = embed(PAULI_Z, sub, L_ABC)
        expected = np.kron(np.kron(np.eye(2), PAULI_Z), np.eye(2))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_embed_then_trace_back(self, rng):
        sub = SubsystemLayout(("B",), (2,))
        rho_b = random_density(rng, 2)
        out = embed(rho_b, sub, L_ABC)
        back = partial_trace(out, L_ABC, ("B",))
        np.testing.assert_allclose(back / 4.0, rho_b, atol=1e-12)

    def test_noncontiguous_embed_against_index_loop(self, rng):
        # brute-force oracle: entry-by-entry identity on the B factor
        sub = SubsystemLayout(("A", "C"), (2, 2))
        op = random_density(rng, 4)
        out = embed(op, sub, L_ABC)
        for a1 in range(2):
            for b1 in range(2):
                for c1 in range(2):
                    for a2 in range(2):
                        for b2 in range(2):
                            for c2 in range(2):
                                row = (a1 * 2 + b1) * 2 + c1
                                col = (a2 * 2 + b2) * 2 + c2
                                want = (
                                    op[a1 * 2 + c1, a2 * 2 + c2]
                                    if b1 == b2 else 0.0
                                )
                                assert abs(out[row, col] - want) < 1e-12

    def test_adjointness_of_embed_and_partial_trace(self, rng):
        # <embed(x), y> = <x, partial_trace(y)> for all operator pairs
        sub = SubsystemLayout(("A", "C"), (2, 2))
        for _ in range(20):
            x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            lhs = np.trace(embed(x, sub, L_ABC).conj().T @ y)
            rhs = np.trace(x.conj().T @ partial_trace(y, L_ABC, ("A", "C")))
            assert abs(lhs - rhs) < 1e-10

    def test_label_mismatch(self):
        sub = SubsystemLayout(("X",), (2,))
        with pytest.raises(LayoutError):
            embed(np.eye(2), sub, L_ABC)


class TestLayoutAlgebra:
    @PROPERTY
    @given(case=local_cases())
    def test_trace_of_embedding(self, case):
        # partial_trace(embed(X)) = X * d_rest, in the target's label order
        target, sub, _, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((sub.dim,) * 2) + 1j * rng.standard_normal((sub.dim,) * 2)
        kept = target.restrict(sub.labels)
        np.testing.assert_allclose(
            partial_trace(embed(x, sub, target), target, sub.labels),
            embed(x, sub, kept) * (target.dim // sub.dim),
            atol=1e-12,
        )

    @PROPERTY
    @given(target=layouts(), data=st.data())
    def test_disjoint_partial_traces_commute(self, target, data):
        order = data.draw(st.permutations(target.labels))
        i = data.draw(st.integers(1, target.n - 1))
        j = data.draw(st.integers(i, target.n))
        keep, first, second = order[:i], order[i:j], order[j:]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        op = random_density(rng, target.dim)

        def trace_out(traced):
            mid = target.restrict(set(target.labels) - set(traced))
            return partial_trace(partial_trace(op, target, mid.labels), mid, keep)

        direct = partial_trace(op, target, keep)
        np.testing.assert_allclose(trace_out(first), direct, atol=1e-12)
        np.testing.assert_allclose(trace_out(second), direct, atol=1e-12)


def transposing_product(x, x_sub, y, y_sub, target):
    """``local_product`` as one matmul whose operands and result are always
    transposed, its axis orders derived here from the labels."""
    dim = {l: d for l, d in zip(target.labels, target.dims) if d > 1}
    xs = [l for l in x_sub.labels if l in dim]
    ys = [l for l in y_sub.labels if l in dim]
    s = [l for l in xs if l in ys]
    x_only = [l for l in xs if l not in s]
    y_only = [l for l in ys if l not in s]

    def permuted(a, labels, order, rows, cols):
        pos = [labels.index(l) for l in order]
        a = a.reshape([dim[l] for l in labels] * 2)
        return a.transpose(pos + [len(labels) + p for p in pos]).reshape(rows, cols)

    d_x, d_s, d_y = (math.prod(dim[l] for l in g) for g in (x_only, s, y_only))
    xy = (permuted(x, xs, x_only + s, d_x * d_s * d_x, d_s)
          @ permuted(y, ys, s + y_only, d_s, d_y * d_s * d_y))
    out = x_only + s + x_only + y_only + s + y_only
    rows = [out.index(l) for l in dim]
    cols = [len(out) - 1 - out[::-1].index(l) for l in dim]
    return xy.reshape([dim[l] for l in out]).transpose(rows + cols).reshape(
        target.dim, target.dim)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestLocalProductBits:
    """A transpose whose axis order is the identity is skipped; the
    product is the same to the bit as one that transposes every time."""

    @staticmethod
    def operands(rng, x_sub, y_sub):
        def draw(d):
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x, y = draw(x_sub.dim), draw(y_sub.dim)
        # C order, F order, and the conjugate-transposed view the Petz map passes
        return [(x, y), (np.asfortranarray(x), np.asfortranarray(y)),
                (x.conj().T, y.conj().T)]

    @PROPERTY
    @given(case=local_cases())
    def test_equals_always_transposing_product(self, case):
        target, x_sub, y_sub, seed = case
        for x, y in self.operands(np.random.default_rng(seed), x_sub, y_sub):
            assert_same_bits(local_product(x, x_sub, y, y_sub, target),
                             transposing_product(x, x_sub, y, y_sub, target))

    @pytest.mark.parametrize("x_labels, y_labels, target, dims, skipped", [
        ("ABC", "BC", "ABC", (2, 3, 2), 3),  # (X rho) X^dagger of the Petz map
        ("BC", "AB", "ABC", (2, 3, 2), 0),   # X rho
        ("BC", "B", "BC", (3, 2), 1),        # the BC factor X
        ("BA", "AC", "ABC", (2, 2, 2), 2),
        ("AC", "CB", "ABC", (2, 1, 3), 3),   # unit factors index nothing
        ("ABC", "CBA", "ABC", (2, 1, 2), 2),
        ("CA", "B", "ABC", (2, 1, 2), 2),
    ])
    def test_identity_orders_skipped(self, x_labels, y_labels, target, dims, skipped):
        target = SubsystemLayout(tuple(target), dims)
        x_sub, y_sub = (SubsystemLayout(tuple(l), tuple(target.dim_of(c) for c in l))
                        for l in (x_labels, y_labels))
        plan = _product_plan(x_sub, y_sub, target)
        assert [axes for _, axes, _ in plan].count(None) == skipped
        for x, y in self.operands(np.random.default_rng(7), x_sub, y_sub):
            assert_same_bits(local_product(x, x_sub, y, y_sub, target),
                             transposing_product(x, x_sub, y, y_sub, target))


class TestEinsumLetterLimit:
    """Unit factors take no einsum letter in ``partial_trace``, so a layout
    of more than 26 factors, most of them unit, is traced like any other.
    ``local_product`` is one matmul, which has no letter limit."""

    @staticmethod
    def unit_factors(n):
        return SubsystemLayout(tuple(f"q{i}" for i in range(n)), (1,) * n)

    @pytest.mark.parametrize("n", [27, 40])
    def test_unit_factors_past_the_letters(self, n):
        many = self.unit_factors(n)
        one = many.restrict(("q0",))
        np.testing.assert_array_equal(
            partial_trace(np.full((1, 1), 2.0), many, ("q0",)), [[2.0]])
        product = local_product(np.full((1, 1), 2.0), many, np.full((1, 1), 3.0),
                                one, many)
        np.testing.assert_array_equal(product, [[6.0]])

    def test_at_the_limit(self):
        many = self.unit_factors(26)
        half = many.restrict(many.labels[:13])
        rest = many.restrict(many.labels[13:])
        assert partial_trace(np.eye(1), many, ("q0",)).shape == (1, 1)
        assert local_product(np.eye(1), half, np.eye(1), rest, many).shape == (1, 1)
        # one shared factor would need a 53rd einsum letter
        assert local_product(np.eye(1), many, np.eye(1), half, many).shape == (1, 1)


def twin(layout):
    """A new layout object equal to ``layout``."""
    return SubsystemLayout(tuple(layout.labels), tuple(layout.dims))


def mixed(labels, dims):
    return maximally_mixed(SubsystemLayout(tuple(labels), tuple(dims)))


class TestLayoutFactsOnce:
    """Facts derived from a layout are cached per layout value: a repeated
    call and a call on an equal new layout object agree, and every error
    is raised again on every call."""

    def test_value_semantics_pinned(self):
        layout = SubsystemLayout(["A", "B"], [2, 3])
        assert layout == SubsystemLayout(("A", "B"), (2, 3))
        assert layout != SubsystemLayout(("B", "A"), (3, 2))
        assert hash(layout) == hash((("A", "B"), (2, 3)))
        assert repr(layout) == "SubsystemLayout(labels=('A', 'B'), dims=(2, 3))"
        assert [f.name for f in dataclasses.fields(layout)] == ["labels", "dims"]
        assert layout.dim == 6

    def test_hash_after_unpickling_from_another_process(self):
        # the hash is kept on the layout, and string hashes vary by process
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = os.path.dirname(os.path.dirname(qmctree.__file__))
        code = ("import pickle, sys; from qmctree import SubsystemLayout; "
                "sys.stdout.buffer.write(pickle.dumps(SubsystemLayout(('A', 'B'), (2, 3))))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}).stdout
        layout = pickle.loads(out)
        assert hash(layout) == hash((("A", "B"), (2, 3)))
        assert {SubsystemLayout(("A", "B"), (2, 3)): "found"}[layout] == "found"

    @PROPERTY
    @given(layout=layouts(), data=st.data())
    def test_restrict_and_partial_trace_repeat(self, layout, data):
        keep = data.draw(st.lists(st.sampled_from(layout.labels), min_size=1, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        op = random_density(rng, layout.dim)
        sub = layout.restrict(keep)
        assert sub.labels == tuple(l for l in layout.labels if l in keep)
        assert layout.restrict(keep) == sub == twin(layout).restrict(keep)
        first = partial_trace(op, layout, keep)
        assert first.shape == (sub.dim, sub.dim)
        np.testing.assert_array_equal(partial_trace(op, layout, keep), first)
        np.testing.assert_array_equal(partial_trace(op, twin(layout), keep), first)

    @PROPERTY
    @given(layout=layouts(), data=st.data())
    def test_compose_layouts_repeat(self, layout, data):
        assume(layout.n >= 3)
        order = data.draw(st.permutations(layout.labels))
        i = data.draw(st.integers(1, layout.n - 2))
        j = data.draw(st.integers(i + 1, layout.n - 1))
        ab = layout.restrict(order[:j])
        bc = layout.restrict(order[i:])
        first = compose_layouts(maximally_mixed(ab), maximally_mixed(bc))
        a, b, c, joint = first
        assert set(a) == set(order[:i]) and set(c) == set(order[j:])
        assert b == tuple(l for l in ab.labels if l in order[i:j])
        assert joint.labels == a + b + c
        assert joint.dims == tuple(layout.dim_of(l) for l in joint.labels)
        assert compose_layouts(maximally_mixed(ab), maximally_mixed(bc)) == first
        assert compose_layouts(
            maximally_mixed(twin(ab)), maximally_mixed(twin(bc))) == first

    @pytest.mark.parametrize("call, message", [
        (lambda: partial_trace(np.eye(8), L_ABC, ()), "keep must be nonempty"),
        (lambda: partial_trace(np.eye(8), L_ABC, ("A", "Z")), "unknown label 'Z'"),
        (lambda: L_ABC.restrict(("A", "Z")), r"unknown labels \['Z'\]"),
        (lambda: compose_layouts(mixed("AB", (2, 2)), mixed("BC", (3, 2))),
         "dimension mismatch on shared label 'B'"),
        (lambda: compose_layouts(mixed("AB", (2, 2)), mixed("B", (2,))),
         "one marginal is contained in the other"),
        (lambda: compose_layouts(mixed("AB", (2, 2)), mixed("CD", (2, 2))),
         "marginals share no label"),
    ])
    def test_errors_raise_on_every_call(self, call, message):
        for _ in range(2):
            with pytest.raises(LayoutError, match=message):
                call()
