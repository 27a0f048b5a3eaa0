"""Quantum trees: maximum-weight structure learning and iterated recovery."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .layout import LayoutError, SubsystemLayout, spanning_tree_problem, union_find
from .recovery import (
    DEFAULT_EPS_MARGINAL,
    DEFAULT_EPS_NORMALITY,
    ESTIMATOR_MARGINAL_TOL,
    _normality_test,
    _petz_state,
    best_in_tie_order,
)
from .states import (
    OVERLAP_TOL,
    DensityOperator,
    mutual_information,
    overlap_violation,
    pairwise_marginals,
    relative_entropy,
    von_neumann_entropy,
)


class TreeError(ValueError):
    pass


class TreeRecoveryError(TreeError):
    def __init__(self, message, edge=None, report=None):
        super().__init__(message)
        self.edge = edge
        self.report = report


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
            for l in (a, b):
                if m.layout.dim_of(l) != self.layout.dim_of(l):
                    raise TreeError(f"dimension mismatch on {l!r}")
        # shared single-vertex reductions of incident edges must agree
        for v in self.layout.labels:
            incident = [e for e in edges if v in e]
            ref = marginals[incident[0]].marginal((v,))
            for e in incident[1:]:
                dist = overlap_violation(ref, marginals[e], (v,), OVERLAP_TOL)
                if dist is not None:
                    raise TreeError(
                        f"edges {incident[0]} and {e} disagree on vertex {v!r}: "
                        f"trace distance {dist:.3e}"
                    )

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
    step_reports: tuple  # (edge, CompatReport) per extension step
    rank_deficient: bool
    pre_normalization_traces: tuple  # Petz output trace per extension step


def tree_recover(
    tree: QuantumTree,
    eps_m: float = DEFAULT_EPS_MARGINAL,
    eps_n: float = DEFAULT_EPS_NORMALITY,
    strict: bool = True,
) -> TreeRecoveryResult:
    """Recover the joint state by re-attaching peeled leaves via the
    transpose map; each extension step is gated by the compatibility test."""
    steps, root_edge = tree.peel_order()
    state = tree.edge_marginals[root_edge]
    reports, traces = [], []
    rank_deficient = False
    for leaf, parent, _ in reversed(steps):
        edge = _sorted_pair((leaf, parent))
        edge_marg = tree.edge_marginals[edge]
        target = tree.layout.restrict(set(state.labels) | {leaf})
        report, tt = _normality_test(state, edge_marg, eps_m, eps_n, target)
        reports.append((edge, report))
        rank_deficient = rank_deficient or report.rank_deficient
        if strict and not report.verdict:
            raise TreeRecoveryError(
                f"extension across edge {edge} fails the compatibility check "
                f"(marginal residual "
                f"{report.marginal_consistency_residual:.3e}, normality "
                f"residual {report.normality_residual:.3e})",
                edge=edge,
                report=report,
            )
        # tt is the t = 0 Petz output; the report above gates the overlap in
        # a strict run, and a non-strict run recovers whatever the overlap.
        # The next step's rho_AB^1/2 and learn_tree's relative entropy read
        # the state's eigenvectors, so it keeps its eigh
        result = _petz_state(tt, target, (parent,), decompose=True)
        traces.append(result.pre_normalization_trace)
        state = result.state
    return TreeRecoveryResult(state, tuple(reports), rank_deficient, tuple(traces))


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
    for edge, marg in tree.edge_marginals.items():
        dist = overlap_violation(estimator, marg, edge, ESTIMATOR_MARGINAL_TOL)
        if dist is not None:
            raise TreeError(
                f"estimator violates the {edge} marginal by {dist:.3e}"
            )
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
    eps_n: float = DEFAULT_EPS_NORMALITY,
    strict: bool = True,
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
    try:
        estimator = tree_recover(tree, eps_m, eps_n, strict=strict).state
    except TreeRecoveryError as err:
        raise TreeRecoveryError(
            f"recovery failed on edge {err.edge}: {err}", err.edge, err.report
        ) from err
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
