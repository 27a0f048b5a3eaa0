"""Quantum trees: maximum-weight structure learning and iterated recovery."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .layout import (
    LayoutError,
    SubsystemLayout,
    embed,
    partial_trace,
    spanning_tree_problem,
    tree_neighbours,
    union_find,
)
from .recovery import (
    DEFAULT_EPS_MARGINAL,
    RecoveryError,
    _pair_plan,
    _petz_product,
    _petz_state,
    _positive_trace,
    best_in_tie_order,
)
from .states import (
    OVERLAP_TOL,
    DensityOperator,
    distance_violation,
    overlap_conflict,
    overlap_violation,
    pair_mutual_informations,
    pairwise_marginals,
    relative_entropy,
    von_neumann_entropy,
)


# how far an estimator may stray from an edge marginal in trace distance
ESTIMATOR_MARGINAL_TOL = 1e-6


class TreeError(ValueError):
    pass


class EstimatorMarginalError(TreeError, RecoveryError):
    """Raised when an estimator strays from an edge marginal it should keep."""


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

    @cached_property
    def _neighbours(self) -> dict:
        """Each vertex's neighbours, in edge order."""
        return tree_neighbours(self.layout.labels, self.edges)

    def degree(self, v: str) -> int:
        return len(self._neighbours.get(v, ()))

    def vertex_marginal(self, v: str) -> DensityOperator:
        """The state on ``v`` of the first edge marginal that holds it."""
        neighbours = self._neighbours.get(v)
        if not neighbours:
            raise TreeError(f"vertex {v!r} has no incident edge")
        return self.edge_marginals[_sorted_pair((v, neighbours[0]))].marginal((v,))

    def peel_order(self):
        """Leaf-elimination sequence (leaf, neighbor, remaining labels).

        The lowest-label leaf goes first at every step; peeling stops when a
        single edge remains.
        """
        neigh = {v: list(ws) for v, ws in self._neighbours.items()}
        steps = []
        while len(neigh) > 2:
            leaf = min(v for v, ws in neigh.items() if len(ws) == 1)
            (parent,) = neigh.pop(leaf)
            neigh[parent].remove(leaf)
            steps.append((leaf, parent, tuple(sorted(neigh))))
        return steps, _sorted_pair(tuple(neigh))


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
    agree at OVERLAP_TOL, and each later parent marginal is a gated output.
    The final state keeps the spectrum that certifies it (see _petz_state)."""
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
        tr = _positive_trace(float(sigma.trace().real), (parent,))
        sigma /= tr
        defect = distance_violation(partial_trace(sigma, target, layout.labels), m, eps_m)
        defects.append((edge, defect))
        traces.append(tr)
        if strict and defect is not None:
            raise TreeRecoveryError(
                f"extension across edge {edge} strays {defect:.3e} in trace "
                "distance from the state it extends", edge, defect)
        m, layout = sigma, target
    rank_deficient = not all(e.is_full_rank() for e in tree.edge_marginals.values())
    if steps:  # full-rank edges: certified by the spectrum S(sigma) reads; else one eigh
        state = _petz_state(m, layout, (parent,),
                            "eigh" if rank_deficient else "spectrum").state
    elif state.layout != layout:  # a permutation keeps the marginal's spectrum
        state = DensityOperator._certified(layout, m, state.eigenvalues())
    return TreeRecoveryResult(state, tuple(defects), rank_deficient, tuple(traces))


@dataclass(frozen=True)
class DeltaSReport:
    """Entropy-combination gap of a tree estimator and its per-leaf terms.
    ``delta_s`` comes with the report; ``terms``, which need the estimator's
    marginal on every peeled rest and its spectrum, are formed on first read."""

    delta_s: float
    _tree: QuantumTree = field(repr=False, compare=False)
    _estimator: DensityOperator = field(repr=False, compare=False)

    @cached_property
    def terms(self) -> tuple:
        """(leaf, conditional-mutual-information term) per peeling step."""
        def s(labels):  # the estimator keeps each marginal and its spectrum
            return von_neumann_entropy(self._estimator.marginal(labels))

        # a step's scope, its leaf and rest, is the last step's rest or all labels
        return tuple((leaf, s((leaf, parent)) + s(rest) - s((parent,)) - s((leaf,) + rest))
                     for leaf, parent, rest in self._tree.peel_order()[0])

    @property
    def term_sum(self) -> float:
        return float(sum(t for _, t in self.terms))


def delta_s(
    tree: QuantumTree,
    estimator: DensityOperator,
) -> DeltaSReport:
    """Sum of edge entropies minus weighted vertex entropies minus the
    estimator entropy.  The sum and the edge marginal checks are made here
    (an estimator that breaks an edge marginal raises EstimatorMarginalError);
    the leaf-peeling conditional terms are formed on first read."""
    if set(estimator.labels) != set(tree.layout.labels):
        raise LayoutError("estimator labels do not match the tree")
    for m in tree.edge_marginals.values():
        dist = overlap_violation(m, estimator, m.labels, ESTIMATOR_MARGINAL_TOL)
        if dist is not None:
            raise EstimatorMarginalError(
                f"estimator violates the {tuple(sorted(m.labels))} marginal by {dist:.3e}")

    value = sum(von_neumann_entropy(m) for m in tree.edge_marginals.values())
    for v in tree.layout.labels:
        if tree.degree(v) > 1:  # a leaf's vertex term has weight 0
            value -= (tree.degree(v) - 1) * von_neumann_entropy(tree.vertex_marginal(v))
    value -= von_neumann_entropy(estimator)  # the spectrum the estimator keeps
    return DeltaSReport(float(value), tree, estimator)


@dataclass(frozen=True)
class GapReport:
    """Entropy ledger of a tree estimator sigma against the true joint rho,
    -sum_e I_e - Delta S + sum_v S_v - S(rho) = S(sigma) - S(rho) (the
    ``decomposition_sum``).  ``total`` is S(rho || sigma).  It equals the sum
    when sigma is Markov on full-rank edge marginals it keeps (log sigma then
    combines their logs, so Tr rho log sigma = Tr sigma log sigma) and is the
    sum there, unclamped if rounding makes it negative; with a rank-deficient
    edge ``learn_tree`` measures it (+inf where supp rho leaves supp sigma)."""

    total: float
    neg_edge_mutual_info: float
    neg_delta_s: float
    sum_vertex_entropies: float
    neg_joint_entropy: float

    @property
    def decomposition_sum(self) -> float:
        return (self.neg_edge_mutual_info + self.neg_delta_s
                + self.sum_vertex_entropies + self.neg_joint_entropy)

    @property
    def neg_estimator_cmi(self) -> float:
        """``neg_delta_s`` by its chain name: on a path X-Y-Z whose
        estimator keeps the edge marginals, Delta S = I_sigma(X:Z|Y)."""
        return self.neg_delta_s


def _gap_report(joint: DensityOperator, tree: QuantumTree, mi: dict,
                ds: DeltaSReport, total: float | None = None) -> GapReport:
    """The ledger from the edge mutual informations ``mi``, the tree's vertex
    states and the estimator's ``delta_s`` report; ``total`` None takes the sum."""
    parts = (-sum(mi[e] for e in tree.edges), -ds.delta_s,
             sum(von_neumann_entropy(tree.vertex_marginal(v)) for v in tree.layout.labels),
             -von_neumann_entropy(joint))
    return GapReport(sum(parts) if total is None else total, *parts)


def relative_entropy_gap(
    rho_true: DensityOperator,
    estimator: DensityOperator,
    chain: tuple[str, str, str],
) -> GapReport:
    """The ledger of ``estimator`` on the path tree X-Y-Z of ``chain``,
    built from ``rho_true``'s marginals on (X, Y) and (Y, Z).  A
    ``rho_true`` on other labels than the chain's, whose relative entropy
    to the estimator is undefined, raises TreeError."""
    x, y, z = chain
    edges = ((x, y), (y, z))
    tree = QuantumTree(rho_true.layout, edges, {e: rho_true.marginal(e) for e in edges})
    return _gap_report(rho_true, tree, pair_mutual_informations(tree.edge_marginals),
                       delta_s(tree, estimator))


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
    also carries the estimator's relative-entropy ledger, a ``GapReport``.
    On full-rank edges the one joint-size spectrum taken is the estimator's:
    the ledger reads the ``delta_s`` sum, not its terms, which are formed
    only when read.
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

    weights = WeightedEdgeList.from_dict(layout.labels, pair_mutual_informations(marginals))
    edges = chow_liu_tree(weights)
    tree = QuantumTree(layout, edges, {e: marginals[e] for e in edges})
    recovered = tree_recover(tree, eps_m)
    ds = delta_s(tree, recovered.state)

    gap = None
    if joint is not None:  # see GapReport for the total on full-rank edges
        total = relative_entropy(joint, recovered.state) if recovered.rank_deficient else None
        gap = _gap_report(joint, tree, weights.as_dict(), ds, total)
    return LearnedTree(tree, weights, recovered.state, ds, gap)


def enumerate_spanning_trees(labels):
    """All spanning trees of the complete graph on ``labels`` (small n)."""
    labels = tuple(sorted(labels))
    n = len(labels)
    pairs = list(itertools.combinations(labels, 2))
    for combo in itertools.combinations(pairs, n - 1):
        if spanning_tree_problem(labels, combo) is None:
            yield tuple(sorted(combo))
