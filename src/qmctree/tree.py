"""Quantum trees: maximum-weight structure learning and iterated recovery."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .layout import (
    LayoutError,
    SubsystemLayout,
    embed,
    partial_trace,
    spanning_tree_problem,
    union_find,
)
from .recovery import (
    DEFAULT_EPS_MARGINAL,
    _estimator_conflict,
    _normalize,
    _pair_plan,
    _petz_product,
    _petz_state,
    best_in_tie_order,
)
from .states import (
    OVERLAP_TOL,
    DensityOperator,
    distance_violation,
    mutual_information,
    overlap_conflict,
    pairwise_marginals,
    relative_entropy,
    von_neumann_entropy,
)


class TreeError(ValueError):
    pass


class TreeRecoveryError(TreeError):
    def __init__(self, message, edge=None, defect=None):
        super().__init__(message)
        self.edge = edge
        self.defect = defect


def _sorted_pair(pair) -> tuple[str, str]:
    if len(pair) != 2:
        raise TreeError(f"edge {tuple(pair)} is not a pair of labels")
    a, b = pair
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class QuantumTree:
    """Spanning tree over subsystem labels with a marginal per edge."""

    layout: SubsystemLayout
    edges: tuple
    edge_marginals: dict

    def __post_init__(self):
        if len(self.layout.labels) < 2:
            raise TreeError("need at least two vertices")
        edges = tuple(_sorted_pair(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        problem = spanning_tree_problem(self.layout.labels, edges)
        if problem:
            raise TreeError(problem)
        marginals = {_sorted_pair(k): v for k, v in self.edge_marginals.items()}
        object.__setattr__(self, "edge_marginals", marginals)
        if set(marginals) != set(edges):
            raise TreeError("edge_marginals must cover exactly the edge set")
        for (a, b), m in marginals.items():
            if set(m.labels) != {a, b}:
                raise TreeError(f"marginal for edge {a}-{b} is on {m.labels}")
        # edges sharing a vertex must agree on it
        conflict = overlap_conflict(self.layout, tuple(marginals.values()), OVERLAP_TOL)
        if conflict is not None:
            raise TreeError(conflict)

    def degree(self, v: str) -> int:
        return sum(v in e for e in self.edges)

    def vertex_marginal(self, v: str) -> DensityOperator:
        for e in self.edges:
            if v in e:
                return self.edge_marginals[e].marginal((v,))
        raise TreeError(f"vertex {v!r} has no incident edge")

    def peel_order(self):
        """Leaf-elimination sequence (leaf, neighbor, remaining labels).

        The lowest-label leaf goes first at every step; peeling stops when a
        single edge remains.
        """
        remaining = set(self.layout.labels)
        edges = set(self.edges)
        steps = []
        while len(remaining) > 2:
            neigh = {v: [] for v in remaining}
            for a, b in edges:
                neigh[a].append(b)
                neigh[b].append(a)
            leaf = min(v for v in remaining if len(neigh[v]) == 1)
            parent = neigh[leaf][0]
            remaining.remove(leaf)
            edges.remove(_sorted_pair((leaf, parent)))
            steps.append((leaf, parent, tuple(sorted(remaining))))
        return steps, _sorted_pair(tuple(remaining))


@dataclass(frozen=True)
class WeightedEdgeList:
    """All label pairs of a complete graph with mutual-information weights."""

    labels: tuple
    pairs: tuple
    weights: tuple

    @classmethod
    def from_dict(cls, labels, weights: dict) -> "WeightedEdgeList":
        labels = tuple(labels)
        expected = set(itertools.combinations(sorted(labels), 2))
        weights = {_sorted_pair(k): float(v) for k, v in weights.items()}
        if set(weights) != expected:
            raise TreeError("weights must cover every pair of labels exactly once")
        pairs = tuple(sorted(expected))
        return cls(labels, pairs, tuple(weights[p] for p in pairs))

    def as_dict(self) -> dict:
        return dict(zip(self.pairs, self.weights))


def chow_liu_tree(weights: WeightedEdgeList) -> tuple:
    """Maximum-weight spanning tree by greedy descending-weight insertion.

    Edges are taken by descending weight, those within TIE_TOL of the
    heaviest remaining edge counting as equal and the lexicographically
    smallest going first; each is added when it does not close a cycle.
    """
    if len(weights.labels) < 2:
        raise TreeError("need at least two vertices")
    weight = weights.as_dict()
    remaining = sorted(weights.pairs)
    union = union_find(weights.labels)
    edges = []
    while remaining:
        pair = best_in_tie_order(remaining, weight.__getitem__)
        remaining.remove(pair)
        if union(*pair):
            edges.append(pair)
    return tuple(sorted(edges))


@dataclass(frozen=True)
class TreeRecoveryResult:
    state: DensityOperator
    step_defects: tuple  # (edge, trace distance beyond eps_m or None) per step
    rank_deficient: bool  # some edge marginal is; full-rank edges keep states full rank
    pre_normalization_traces: tuple  # Petz output trace per extension step


def tree_recover(
    tree: QuantumTree,
    eps_m: float = DEFAULT_EPS_MARGINAL,
    strict: bool = True,
) -> TreeRecoveryResult:
    """Recover the joint state by re-attaching peeled leaves via the t = 0
    Petz map.  By Petz's theorem a step is QMC-compatible exactly when its
    output keeps the state it extends, so its defect is their trace distance
    beyond ``eps_m``, else None.  The parent overlap needs no check: edges
    agree at OVERLAP_TOL, and each later parent marginal is a gated output."""
    steps, root_edge = tree.peel_order()
    state = tree.edge_marginals[root_edge]
    layout = tree.layout.restrict(root_edge)
    m = state.matrix if state.layout == layout else embed(state.matrix, state.layout, layout)
    defects, traces = [], []
    for leaf, parent, _ in reversed(steps):
        edge = _sorted_pair((leaf, parent))
        target = tree.layout.restrict(set(layout.labels) | {leaf})
        rho_edge = tree.edge_marginals[edge]
        sigma = _petz_product(m, rho_edge, 0.0, _pair_plan(layout, rho_edge.layout, target))
        tr = _normalize(sigma, float(sigma.trace().real), (parent,))
        defect = distance_violation(partial_trace(sigma, target, layout.labels), m, eps_m)
        defects.append((edge, defect))
        traces.append(tr)
        if strict and defect is not None:
            raise TreeRecoveryError(
                f"extension across edge {edge} strays {defect:.3e} in trace "
                "distance from the state it extends", edge, defect)
        m, layout = sigma, target
    if steps:  # one eigh, which learn_tree's relative entropy reuses
        m += m.conj().T  # twice sigma, Hermitian to the bit: halves the file writer's work
        state = _petz_state(m, layout, (parent,), decompose=True).state
    rank_deficient = not all(e.is_full_rank() for e in tree.edge_marginals.values())
    return TreeRecoveryResult(state, tuple(defects), rank_deficient, tuple(traces))


@dataclass(frozen=True)
class DeltaSReport:
    """Entropy-combination gap of a tree estimator and its per-leaf terms."""

    delta_s: float
    terms: tuple  # (leaf, conditional-mutual-information term)

    @property
    def term_sum(self) -> float:
        return float(sum(t for _, t in self.terms))


def delta_s(
    tree: QuantumTree,
    estimator: DensityOperator,
) -> DeltaSReport:
    """Sum of edge entropies minus weighted vertex entropies minus the
    estimator entropy, with its leaf-peeling conditional terms."""
    if set(estimator.labels) != set(tree.layout.labels):
        raise LayoutError("estimator labels do not match the tree")
    conflict = _estimator_conflict(estimator, tree.edge_marginals.values())
    if conflict is not None:
        raise TreeError(conflict)
    value = sum(von_neumann_entropy(m) for m in tree.edge_marginals.values())
    for v in tree.layout.labels:
        value -= (tree.degree(v) - 1) * von_neumann_entropy(tree.vertex_marginal(v))
    value -= von_neumann_entropy(estimator)

    steps, _ = tree.peel_order()
    terms = []
    for leaf, parent, rest in steps:
        others = tuple(l for l in rest if l != parent)
        scope = (leaf, parent) + others
        term = (
            von_neumann_entropy(estimator.marginal((leaf, parent)))
            + von_neumann_entropy(estimator.marginal(rest))
            - von_neumann_entropy(estimator.marginal((parent,)))
            - von_neumann_entropy(estimator.marginal(scope))
        )
        terms.append((leaf, term))
    return DeltaSReport(float(value), tuple(terms))


@dataclass(frozen=True)
class GapReport:
    """Relative-entropy budget of a learned tree against the true joint."""

    total: float
    neg_edge_mutual_info: float
    neg_delta_s: float
    sum_vertex_entropies: float
    neg_joint_entropy: float

    @property
    def decomposition_sum(self) -> float:
        return (
            self.neg_edge_mutual_info
            + self.neg_delta_s
            + self.sum_vertex_entropies
            + self.neg_joint_entropy
        )


@dataclass(frozen=True)
class LearnedTree:
    tree: QuantumTree
    weights: WeightedEdgeList
    estimator: DensityOperator
    delta_s_report: DeltaSReport
    gap: GapReport | None


def learn_tree(
    source,
    layout: SubsystemLayout | None = None,
    eps_m: float = DEFAULT_EPS_MARGINAL,
) -> LearnedTree:
    """Learn the maximum-weight spanning tree from pairwise mutual
    informations and recover its joint estimator.

    ``source`` is either the full joint state or a dict of all pairwise
    marginals (then ``layout`` is required).  With joint access the report
    also carries the relative-entropy budget of the estimator.
    """
    if isinstance(source, DensityOperator):
        joint = source
        layout = source.layout
        marginals = pairwise_marginals(source)
    else:
        joint = None
        if layout is None:
            raise TreeError("layout is required with marginal-only input")
        marginals = {_sorted_pair(k): v for k, v in source.items()}

    mi = {
        pair: mutual_information(m, (pair[0],), (pair[1],))
        for pair, m in marginals.items()
    }
    weights = WeightedEdgeList.from_dict(layout.labels, mi)
    edges = chow_liu_tree(weights)
    tree = QuantumTree(layout, edges, {e: marginals[e] for e in edges})
    estimator = tree_recover(tree, eps_m).state
    ds = delta_s(tree, estimator)

    gap = None
    if joint is not None:
        neg_mi = -sum(mi[e] for e in edges)
        singles = sum(
            von_neumann_entropy(joint.marginal((v,))) for v in layout.labels
        )
        gap = GapReport(
            total=relative_entropy(joint, estimator),
            neg_edge_mutual_info=neg_mi,
            neg_delta_s=-ds.delta_s,
            sum_vertex_entropies=singles,
            neg_joint_entropy=-von_neumann_entropy(joint),
        )
    return LearnedTree(tree, weights, estimator, ds, gap)


def enumerate_spanning_trees(labels):
    """All spanning trees of the complete graph on ``labels`` (small n)."""
    labels = tuple(sorted(labels))
    n = len(labels)
    pairs = list(itertools.combinations(labels, 2))
    for combo in itertools.combinations(pairs, n - 1):
        if spanning_tree_problem(labels, combo) is None:
            yield tuple(sorted(combo))
