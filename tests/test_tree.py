"""Tree structure learning, iterated recovery, and entropy bookkeeping."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmctree import (
    DensityOperator,
    QuantumTree,
    SubsystemLayout,
    WeightedEdgeList,
    check_qmc_compatibility,
    chow_liu_tree,
    classical_state,
    conditional_mutual_information,
    delta_s,
    learn_tree,
    matrix_function,
    mutual_information,
    petz_recover,
    relative_entropy,
    relative_entropy_gap,
    sample_density,
    sample_markov_path,
    sample_markov_tree,
    trace_distance,
    tree_recover,
    von_neumann_entropy,
)
from qmctree.layout import LayoutError, embed
from qmctree.linalg import frobenius
from qmctree.recovery import (
    DEFAULT_EPS_MARGINAL,
    DEFAULT_EPS_NORMALITY,
    TIE_TOL,
    RecoveryError,
)
from qmctree.tree import (
    EstimatorMarginalError,
    TreeError,
    TreeRecoveryError,
    enumerate_spanning_trees,
    pairwise_marginals,
)

from conftest import PROPERTY, layouts, random_conditional


def classical_tree_state(layout, edges, rng):
    """Diagonal state with tree-factorized probabilities (all binary)."""
    labels = layout.labels
    adj = {l: [] for l in labels}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    root = labels[0]
    order, parent = [root], {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    marg = {root: rng.uniform(0.2, 0.8)}
    conds = {v: random_conditional(rng, 2, 2) for v in order[1:]}
    table = np.zeros((2,) * len(labels))
    for config in np.ndindex(*(2,) * len(labels)):
        x = dict(zip(labels, config))
        p = marg[root] if x[root] == 0 else 1 - marg[root]
        for v in order[1:]:
            p *= conds[v][x[parent[v]], x[v]]
        table[config] = p
    return classical_state(layout, table)


L3 = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
L4 = SubsystemLayout(("A", "B", "C", "D"), (2, 2, 2, 2))


def composed_recover(tree, eps_m, eps_n):
    """``tree_recover``'s peel order through the public calls: the
    (edge, report) pairs, the pre-normalization traces and the state."""
    steps, root_edge = tree.peel_order()
    state = tree.edge_marginals[root_edge]
    reports, traces = [], []
    for leaf, parent, _ in reversed(steps):
        edge = tuple(sorted((leaf, parent)))
        marg = tree.edge_marginals[edge]
        reports.append((edge, check_qmc_compatibility(state, marg, eps_m, eps_n)))
        target = tree.layout.restrict(set(state.labels) | {leaf})
        result = petz_recover(state, marg, eps_m=math.inf, target=target)
        traces.append(result.pre_normalization_trace)
        state = result.state
    return reports, traces, state


@st.composite
def tree_cases(draw):
    """(kind, tree): a spanning tree on three or four factors (D >= 8),
    with the edge marginals of a Markov, generic or rank-deficient joint."""
    layout = draw(layouts().filter(lambda l: l.n >= 3 and l.dim >= 8))
    edges = draw(st.sampled_from(list(enumerate_spanning_trees(layout.labels))))
    kind = draw(st.sampled_from(["markov", "generic", "rank_deficient"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "markov":
        joint = sample_markov_tree(layout, edges, seed=seed)
    elif kind == "generic":
        joint = sample_density(layout, seed=seed)
    else:
        rank = draw(st.integers(1, max(1, layout.dim // 4)))
        joint = sample_density(layout, rank=rank, seed=seed)
    return kind, QuantumTree(layout, edges, {e: joint.marginal(e) for e in edges})


class TestQuantumTree:
    def make_tree(self, state, edges):
        return QuantumTree(
            state.layout, edges, {tuple(sorted(e)): state.marginal(sorted(e))
                                  for e in edges}
        )

    def test_cycle_rejected(self, rng):
        state = sample_density(SubsystemLayout(("A", "B", "C"), (2, 2, 2)),
                               seed=rng)
        with pytest.raises(TreeError):
            self.make_tree(state, [("A", "B"), ("B", "C"), ("A", "C")])

    def test_disconnected_rejected(self, rng):
        state = sample_density(L4, seed=rng)
        with pytest.raises(TreeError):
            self.make_tree(state, [("A", "B"), ("C", "D"), ("A", "B")])

    def test_inconsistent_vertex_reductions_rejected(self):
        ab = sample_density(SubsystemLayout(("A", "B"), (2, 2)), seed=1)
        bc = sample_density(SubsystemLayout(("B", "C"), (2, 2)), seed=2)
        with pytest.raises(TreeError):
            QuantumTree(
                SubsystemLayout(("A", "B", "C"), (2, 2, 2)),
                [("A", "B"), ("B", "C")],
                {("A", "B"): ab, ("B", "C"): bc},
            )

    def test_edge_marginal_in_wrong_dimension_rejected(self):
        joint = sample_density(SubsystemLayout(("A", "B", "C"), (2, 2, 2)), seed=3)
        ab3 = sample_density(SubsystemLayout(("A", "B"), (2, 3)), seed=4)
        with pytest.raises(LayoutError, match="dimension mismatch for 'B'"):
            QuantumTree(joint.layout, [("A", "B"), ("B", "C")],
                        {("A", "B"): ab3, ("B", "C"): joint.marginal(("B", "C"))})

    def test_edge_marginal_on_wrong_labels_rejected(self):
        joint = sample_density(SubsystemLayout(("A", "B", "C"), (2, 2, 2)), seed=5)
        with pytest.raises(TreeError, match=r"edge A-B is on \('A', 'C'\)"):
            QuantumTree(joint.layout, [("A", "B"), ("B", "C")],
                        {("A", "B"): joint.marginal(("A", "C")),
                         ("B", "C"): joint.marginal(("B", "C"))})

    def test_single_vertex_rejected(self):
        with pytest.raises(TreeError, match="need at least two vertices"):
            QuantumTree(SubsystemLayout(("A",), (2,)), [], {})

    def test_marginal_key_not_a_pair_rejected(self, rng):
        state = sample_density(SubsystemLayout(("A", "B", "C"), (2, 2, 2)),
                               seed=rng)
        with pytest.raises(TreeError, match=r"\('A', 'B', 'C'\)"):
            QuantumTree(
                state.layout, [("A", "B"), ("B", "C")],
                {("A", "B", "C"): state.marginal(("A", "B")),
                 ("B", "C"): state.marginal(("B", "C"))},
            )

    def test_peel_order_path(self, rng):
        state = sample_density(L4, seed=rng)
        tree = self.make_tree(state, [("A", "B"), ("B", "C"), ("C", "D")])
        steps, root_edge = tree.peel_order()
        assert [s[0] for s in steps] == ["A", "B"]
        assert root_edge == ("C", "D")

    def test_peel_order_star(self, rng):
        state = sample_density(L4, seed=rng)
        tree = self.make_tree(state, [("A", "B"), ("B", "C"), ("B", "D")])
        steps, root_edge = tree.peel_order()
        assert [s[0] for s in steps] == ["A", "C"]
        assert root_edge == ("B", "D")


class TestInputErrors:
    """Each public entry point refuses malformed input with its message."""

    @staticmethod
    def path_tree():
        joint = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=6)
        edges = (("A", "B"), ("B", "C"))
        return joint, QuantumTree(joint.layout, edges,
                                  {e: joint.marginal(e) for e in edges})

    def test_marginals_must_cover_the_edges(self):
        joint, _ = self.path_tree()
        with pytest.raises(TreeError, match="edge_marginals must cover exactly the edge set"):
            QuantumTree(joint.layout, [("A", "B"), ("B", "C")],
                        {("A", "B"): joint.marginal(("A", "B"))})

    def test_vertex_marginal_of_unknown_vertex(self):
        _, tree = self.path_tree()
        with pytest.raises(TreeError, match="vertex 'Z' has no incident edge"):
            tree.vertex_marginal("Z")

    def test_chow_liu_on_one_label(self):
        with pytest.raises(TreeError, match="need at least two vertices"):
            chow_liu_tree(WeightedEdgeList.from_dict(("A",), {}))

    def test_delta_s_of_estimator_on_other_labels(self):
        _, tree = self.path_tree()
        other = sample_density(SubsystemLayout(("A", "B", "D"), (2, 2, 2)), seed=7)
        with pytest.raises(LayoutError, match="estimator labels do not match the tree"):
            delta_s(tree, other)

    def test_learn_tree_on_marginals_without_layout(self):
        joint, _ = self.path_tree()
        with pytest.raises(TreeError, match="layout is required with marginal-only input"):
            learn_tree(pairwise_marginals(joint))


class TestChowLiu:
    def test_three_vertex_oracle(self):
        weights = WeightedEdgeList.from_dict(
            ("A", "B", "C"),
            {("A", "B"): 0.5, ("B", "C"): 0.4, ("A", "C"): 0.1},
        )
        assert chow_liu_tree(weights) == (("A", "B"), ("B", "C"))

    def test_equal_weights_lexicographic(self):
        weights = WeightedEdgeList.from_dict(
            ("A", "B", "C"), {p: 1.0 for p in
                              [("A", "B"), ("A", "C"), ("B", "C")]}
        )
        assert chow_liu_tree(weights) == (("A", "B"), ("A", "C"))

    def test_matches_brute_force_n5(self):
        labels = tuple("ABCDE")
        rng = np.random.default_rng(55)
        trees = list(enumerate_spanning_trees(labels))
        assert len(trees) == 125  # Cayley: 5^3
        for _ in range(20):
            w = {p: float(rng.uniform(0, 1))
                 for p in itertools.combinations(labels, 2)}
            weights = WeightedEdgeList.from_dict(labels, w)
            got = chow_liu_tree(weights)
            best = max(trees, key=lambda t: sum(w[e] for e in t))
            assert sum(w[e] for e in got) == pytest.approx(
                sum(w[e] for e in best), abs=1e-12
            )

    def test_incomplete_weights_rejected(self):
        with pytest.raises(TreeError):
            WeightedEdgeList.from_dict(("A", "B", "C"), {("A", "B"): 1.0})


class TestTreeRecover:
    def test_three_chain_equals_petz(self):
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=14)
        ab, bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        tree = QuantumTree(
            state.layout, [("A", "B"), ("B", "C")],
            {("A", "B"): ab, ("B", "C"): bc},
        )
        out = tree_recover(tree).state
        petz = petz_recover(ab, bc).state
        assert trace_distance(out.matrix, petz.matrix) < 1e-10

    def test_two_vertices_on_the_tree_layout(self, rng):
        # an edge marginal naming its factors in another order than the
        # tree's layout comes back on the layout, as a larger tree's state does
        rho = sample_density(SubsystemLayout(("A", "B"), (2, 3)), seed=rng)
        ba = SubsystemLayout(("B", "A"), (3, 2))
        tree = QuantumTree(ba, [("A", "B")], {("A", "B"): rho})
        for out in (tree_recover(tree).state,
                    learn_tree({("A", "B"): rho}, layout=ba).estimator):
            assert out.layout == ba
            np.testing.assert_array_equal(out.matrix, embed(rho.matrix, rho.layout, ba))
            np.testing.assert_array_equal(out.eigenvalues(), rho.eigenvalues())

    @pytest.mark.parametrize("edges", [
        [("A", "B"), ("B", "C"), ("C", "D")],
        [("A", "B"), ("B", "C"), ("B", "D")],
    ])
    def test_classical_tree_factorization(self, edges, rng):
        state = classical_tree_state(L4, edges, rng)
        tree = QuantumTree(
            L4, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        out = tree_recover(tree).state
        # oracle: joint probability = prod p(edge) / prod p(vertex)^(deg-1)
        diag_out = np.diag(out.matrix).real
        diag_true = np.diag(state.matrix).real
        np.testing.assert_allclose(diag_out, diag_true, atol=1e-10)
        assert trace_distance(out.matrix, state.matrix) < 1e-10

    @pytest.mark.parametrize("edges", [
        [("A", "B"), ("B", "C"), ("C", "D")],
        [("A", "B"), ("B", "C"), ("B", "D")],
    ])
    def test_markov_tree_roundtrip(self, edges):
        state = sample_markov_tree(L4, edges, seed=16)
        tree = QuantumTree(
            L4, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        out = tree_recover(tree).state
        for e in edges:
            pair = tuple(sorted(e))
            assert trace_distance(
                out.marginal(pair).matrix, state.marginal(pair).matrix
            ) < 1e-7

    def test_eq_log_identity_full_rank(self):
        edges = [("A", "B"), ("B", "C"), ("C", "D")]
        state = sample_markov_path(("A", "B", "C", "D"), (2, 2, 2, 2), seed=18)
        tree = QuantumTree(
            state.layout, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        result = tree_recover(tree)
        if result.rank_deficient:
            pytest.skip("rank-deficient sample")
        combo = np.zeros((16, 16), dtype=complex)
        for e in edges:
            m = tree.edge_marginals[tuple(sorted(e))]
            combo += embed(
                matrix_function(m.matrix, "log"), m.layout, state.layout
            )
        for v in state.labels:
            deg = tree.degree(v)
            if deg > 1:
                m = tree.vertex_marginal(v)
                combo -= (deg - 1) * embed(
                    matrix_function(m.matrix, "log"), m.layout, state.layout
                )
        log_out = matrix_function(result.state.matrix, "log")
        assert frobenius(log_out - combo) < 1e-6

    def test_incompatible_edge_reported(self):
        joint = sample_density(L4, seed=19)
        edges = [("A", "B"), ("B", "C"), ("C", "D")]
        tree = QuantumTree(
            L4, edges,
            {tuple(sorted(e)): joint.marginal(sorted(e)) for e in edges},
        )
        with pytest.raises(TreeRecoveryError) as err:
            tree_recover(tree)
        assert err.value.edge is not None
        assert err.value.defect is not None

    @PROPERTY
    @given(case=tree_cases())
    def test_fused_steps_equal_public_calls(self, case):
        # tree_recover forms each step's t = 0 Petz output on the raw matrix
        # of the state so far and decomposes only the last; composing the
        # public calls must give the same traces and state up to rounding
        kind, tree = case
        eps_m, eps_n = 1e-8, 1e-8
        want_reports, want_traces, want_state = composed_recover(tree, eps_m, eps_n)
        got = tree_recover(tree, eps_m, strict=kind == "markov")
        assert [e for e, _ in got.step_defects] == [e for e, _ in want_reports]
        assert got.rank_deficient == any(r.rank_deficient for _, r in want_reports)
        assert got.pre_normalization_traces == pytest.approx(want_traces, rel=1e-12)
        assert got.state.layout == want_state.layout
        np.testing.assert_allclose(got.state.matrix, want_state.matrix, atol=1e-12)

    @PROPERTY
    @given(case=tree_cases())
    def test_step_defects_match_compatibility_test(self, case):
        # Petz's theorem: a step's output keeps the state it extends exactly
        # when the pair passes the normality test; past the first failing
        # step the state so far no longer agrees with the next edge on the
        # parent, which the theorem assumes
        _, tree = case
        want_reports, _, _ = composed_recover(
            tree, DEFAULT_EPS_MARGINAL, DEFAULT_EPS_NORMALITY)
        got = tree_recover(tree, strict=False)
        for (edge, defect), (_, report) in zip(got.step_defects, want_reports):
            assert (defect is None) == report.verdict, edge
            if not report.verdict:
                break

    def test_marginals_in_reversed_label_order(self):
        # an edge marginal may list its labels in either order, the root
        # edge's included; the recovered state is the same
        joint = sample_markov_path(("A", "B", "C", "D"), (2, 3, 2, 2), seed=24)
        edges = [("A", "B"), ("B", "C"), ("C", "D")]
        marginals = {e: joint.marginal(e) for e in edges}
        flipped = {}
        for e, m in marginals.items():
            layout = SubsystemLayout(m.labels[::-1], m.layout.dims[::-1])
            flipped[e] = DensityOperator(layout, embed(m.matrix, m.layout, layout))
        want = tree_recover(QuantumTree(joint.layout, edges, marginals))
        got = tree_recover(QuantumTree(joint.layout, edges, flipped))
        assert [d for _, d in got.step_defects] == [None, None]
        assert got.state.layout == want.state.layout
        np.testing.assert_allclose(got.state.matrix, want.state.matrix, atol=1e-12)
        assert trace_distance(got.state.matrix, joint.matrix) < 1e-8

    def test_state_hermitian_to_the_bit(self):
        # the operator-file writer formats each distinct |entry| once, so a
        # state Hermitian only up to rounding would double its work
        joint = sample_markov_path(tuple("ABCDE"), (2,) * 5, seed=25)
        edges = [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")]
        m = tree_recover(QuantumTree(joint.layout, edges,
                                     {e: joint.marginal(e) for e in edges})).state.matrix
        assert np.array_equal(m, m.conj().T)

    def test_pre_normalization_traces_recorded(self):
        # a generic joint fails the compatibility test on some edge, and the
        # non-strict run reports each step's trace before renormalization
        joint = sample_density(L4, seed=23)
        edges = [("A", "B"), ("B", "C"), ("B", "D")]
        tree = QuantumTree(L4, edges, {e: joint.marginal(e) for e in edges})
        result = tree_recover(tree, strict=False)
        assert any(defect is not None for _, defect in result.step_defects)
        _, want_traces, _ = composed_recover(tree, 1e-8, 1e-8)
        assert len(result.pre_normalization_traces) == 2
        assert result.pre_normalization_traces == pytest.approx(want_traces, rel=1e-12)


class TestDeltaS:
    def make_tree_and_estimator(self, edges, seed):
        state = sample_markov_tree(L4, edges, seed=seed)
        tree = QuantumTree(
            L4, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        return tree, tree_recover(tree).state

    def test_markov_tree_near_zero(self):
        tree, est = self.make_tree_and_estimator(
            [("A", "B"), ("B", "C"), ("C", "D")], 22
        )
        report = delta_s(tree, est)
        assert abs(report.delta_s) <= 1e-7
        assert all(abs(t) <= 1e-7 for _, t in report.terms)

    def test_term_sum_identity(self):
        tree, est = self.make_tree_and_estimator(
            [("A", "B"), ("B", "C"), ("B", "D")], 23
        )
        report = delta_s(tree, est)
        assert report.term_sum == pytest.approx(report.delta_s, abs=1e-7)

    def test_three_vertex_matches_cmi(self):
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=24)
        edges = [("A", "B"), ("B", "C")]
        tree = QuantumTree(
            state.layout, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        est = tree_recover(tree).state
        report = delta_s(tree, est)
        cmi = conditional_mutual_information(est, ("A",), ("B",), ("C",))
        assert report.delta_s == pytest.approx(cmi, abs=1e-9)

    def test_estimator_breaking_an_edge_marginal_rejected(self):
        tree, est = self.make_tree_and_estimator(
            [("A", "B"), ("B", "C"), ("C", "D")], 25
        )
        assert delta_s(tree, est).delta_s == pytest.approx(0.0, abs=1e-7)
        with pytest.raises(TreeError, match=r"violates the \('A', 'B'\) marginal"):
            delta_s(tree, sample_density(L4, seed=27))

    def test_non_markov_estimator_positive(self):
        # a constraint-satisfying estimator for the marginals of a non-tree
        # state carries a strictly positive entropy gap
        from qmctree import MarginalSet, marginal_constraints, solve_maxent

        joint = sample_density(L4, seed=26)
        edges = [("A", "B"), ("B", "C"), ("C", "D")]
        marginals = {
            tuple(sorted(e)): joint.marginal(sorted(e)) for e in edges
        }
        tree = QuantumTree(L4, edges, marginals)
        est = solve_maxent(marginal_constraints(
            MarginalSet(L4, tuple(marginals.values()))
        )).state
        report = delta_s(tree, est)
        assert report.delta_s > 0
        assert report.delta_s >= -1e-8


def tree_margin(learned):
    """Smallest amount by which a pair off the learned tree is lighter than
    the lightest tree edge on the path between its ends; a positive margin
    means the maximum-weight tree is unique."""
    weight, edges = learned.weights.as_dict(), learned.tree.edges

    def path(u, v, used):
        if u == v:
            return []
        for e in edges:
            if u in e and e not in used:
                rest = path(e[e[0] == u], v, used | {e})
                if rest is not None:
                    return [e] + rest
        return None

    return min(min(weight[e] for e in path(a, b, frozenset())) - w
               for (a, b), w in weight.items() if (a, b) not in edges)


class TestLearnTree:
    @pytest.mark.parametrize("edges,seed", [
        ([("A", "B"), ("B", "C"), ("C", "D")], 1),
        ([("A", "B"), ("B", "C"), ("B", "D")], 2),
        ([("A", "C"), ("A", "D"), ("B", "D")], 3),
    ])
    @pytest.mark.parametrize("names", ["BCDA", "DCBA", "CADB"])
    def test_relabelling_invariance(self, edges, seed, names):
        state = sample_markov_tree(L4, edges, seed=seed)
        learned = learn_tree(state)
        assert tree_margin(learned) >= 1e-3  # TIE_TOL ties cannot decide
        rename = dict(zip(L4.labels, names))
        layout = SubsystemLayout(tuple(names), L4.dims)
        relabelled = learn_tree(DensityOperator(layout, state.matrix.copy()))
        weight = relabelled.weights.as_dict()
        for (a, b), w in learned.weights.as_dict().items():
            assert abs(weight[tuple(sorted((rename[a], rename[b])))] - w) <= 1e-12
        assert set(relabelled.tree.edges) == {
            tuple(sorted((rename[a], rename[b]))) for a, b in learned.tree.edges
        }

    def test_classical_tree_recovered(self, rng):
        edges = [("A", "B"), ("B", "C"), ("B", "D")]
        state = classical_tree_state(L4, edges, rng)
        learned = learn_tree(state)
        assert set(learned.tree.edges) == {tuple(sorted(e)) for e in edges}
        assert learned.gap.total <= 1e-8

    def test_product_state_zero_gap_lexicographic(self, rng):
        parts = [sample_density(SubsystemLayout((l,), (2,)), seed=rng)
                 for l in "ABCD"]
        m = parts[0].matrix
        for p in parts[1:]:
            m = np.kron(m, p.matrix)
        joint = DensityOperator(L4, m)
        learned = learn_tree(joint)
        assert learned.gap.total <= 1e-7
        assert learned.tree.edges == (("A", "B"), ("A", "C"), ("A", "D"))

    def test_markov_path_gap_minimal_over_all_trees(self):
        labels = tuple("ABCDE")
        layout = SubsystemLayout(labels, (2,) * 5)
        state = sample_markov_path(labels, (2,) * 5, seed=27)
        learned = learn_tree(state)
        best = math.inf
        for edges in enumerate_spanning_trees(labels):
            tree = QuantumTree(
                layout, edges,
                {e: state.marginal(e) for e in edges},
            )
            est = tree_recover(tree, strict=False).state
            best = min(best, relative_entropy(state, est))
        assert learned.gap.total <= best + 1e-7

    def test_gap_decomposition_sums(self):
        labels = ("A", "B", "C", "D")
        state = sample_markov_tree(
            L4, [("A", "B"), ("B", "C"), ("B", "D")], seed=28
        )
        learned = learn_tree(state)
        assert learned.gap.decomposition_sum == pytest.approx(
            learned.gap.total, abs=1e-7
        )

    @pytest.mark.parametrize("shape", ["path", "star", "caterpillar"])
    @pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-9, 1e-8, 1e-7])
    @pytest.mark.parametrize("seed", [61, 62])
    def test_gap_total_equals_measured_relative_entropy(self, shape, eps, seed):
        # on full-rank edges gap.total is S(sigma) - S(rho), by the identity
        # log sigma = sum_e log rho_e - sum_v (deg v - 1) log rho_v; the
        # measured S(rho || sigma) checks it, on Markov trees and on
        # near-Markov mixtures the strict gate still passes
        edges = {"path": [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")],
                 "star": [("A", "C"), ("B", "C"), ("C", "D"), ("C", "E")],
                 "caterpillar": [("A", "B"), ("B", "C"), ("B", "D"), ("D", "E")]}[shape]
        layout = SubsystemLayout(tuple("ABCDE"), (2,) * 5)
        markov = sample_markov_tree(layout, edges, seed=seed).matrix
        noise = sample_density(layout, seed=seed + 100).matrix
        joint = DensityOperator(layout, (1 - eps) * markov + eps * noise)
        learned = learn_tree(joint)
        assert all(m.is_full_rank() for m in learned.tree.edge_marginals.values())
        assert learned.gap.total == pytest.approx(
            relative_entropy(joint, learned.estimator), abs=1e-12)

    def test_marginal_only_input(self):
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=30)
        learned = learn_tree(pairwise_marginals(state), layout=state.layout)
        assert learned.gap is None
        assert trace_distance(learned.estimator.matrix, state.matrix) < 1e-7


class TestOneLedger:
    """relative_entropy_gap is the tree ledger on the path X-Y-Z."""

    LEDGER = ("neg_edge_mutual_info", "neg_delta_s", "sum_vertex_entropies",
              "neg_joint_entropy")

    def test_path_ledger_equals_learned_gap(self):
        state = sample_markov_path(("A", "B", "C"), (2, 2, 2), seed=31)
        learned = learn_tree(state)
        assert learned.tree.edges == (("A", "B"), ("B", "C"))
        gap = relative_entropy_gap(state, learned.estimator, ("A", "B", "C"))
        for name in self.LEDGER:
            assert getattr(gap, name) == pytest.approx(
                getattr(learned.gap, name), abs=1e-12)
        assert gap.total == pytest.approx(learned.gap.decomposition_sum, abs=1e-12)
        assert gap.neg_estimator_cmi == gap.neg_delta_s

    def test_state_on_more_labels_than_the_chain_rejected(self):
        # the estimator lives on A, B, C and the state on A, B, C, D, so
        # S(rho || sigma) is undefined; the path tree does not span D
        state = sample_markov_path(("A", "B", "C", "D"), (2, 2, 2, 2), seed=1)
        est = petz_recover(state.marginal(("A", "B")), state.marginal(("B", "C"))).state
        with pytest.raises(TreeError, match="2 edges cannot span 4 vertices"):
            relative_entropy_gap(state, est, ("A", "B", "C"))

    def test_broken_marginal_is_a_tree_and_a_recovery_error(self):
        truth = sample_density(L3, seed=1)
        other = sample_density(L3, seed=2)
        with pytest.raises(EstimatorMarginalError, match=r"violates the \('A', 'B'\) marginal"):
            relative_entropy_gap(truth, other, ("A", "B", "C"))
        assert issubclass(EstimatorMarginalError, TreeError)
        assert issubclass(EstimatorMarginalError, RecoveryError)


class TestTieTolerance:
    """Weights within TIE_TOL are ties, settled lexicographically."""

    @pytest.mark.parametrize("seed", range(20))
    def test_product_state_lexicographic_tree(self, seed):
        rng = np.random.default_rng(seed)
        m = np.ones((1, 1), dtype=complex)
        for l in "ABCD":
            m = np.kron(m, sample_density(SubsystemLayout((l,), (2,)), seed=rng).matrix)
        learned = learn_tree(DensityOperator(L4, m))
        assert learned.tree.edges == (("A", "B"), ("A", "C"), ("A", "D"))

    def test_rounding_noise_is_a_tie(self):
        w = {("A", "B"): 0.0, ("A", "C"): 0.0, ("B", "C"): 1e-16}
        weights = WeightedEdgeList.from_dict(("A", "B", "C"), w)
        assert chow_liu_tree(weights) == (("A", "B"), ("A", "C"))
        w[("B", "C")] = 10 * TIE_TOL
        weights = WeightedEdgeList.from_dict(("A", "B", "C"), w)
        assert chow_liu_tree(weights) == (("A", "B"), ("B", "C"))
