"""Density operators, entropic functionals and random state ensembles."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .layout import (
    LayoutError,
    SubsystemLayout,
    _check_factors,
    _integer,
    embed,
    partial_trace,
    spanning_tree_problem,
)
from .linalg import (
    HermitianEig,
    _hermitian_part,
    frobenius,
    is_hermitian,
    support_cutoff,
    trace_distance,
)

TRACE_TOL = 1e-9
NEGATIVITY_TOL = 1e-10
OVERLAP_TOL = 1e-8
# relative margin on the overlap gates' Frobenius bound: far above the few
# units in the last place by which a computed trace distance can exceed it
_BOUND_MARGIN = 1 + 1e-9


class StateError(ValueError):
    """Raised when a candidate density operator violates its invariants."""


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one matrix bound to a SubsystemLayout.

    A state keeps, each formed at most once and read-only: the spectrum
    computed for validation, which serves every eigenvalue query; one
    eigendecomposition, ``eig``, formed on first use (a Petz output is
    given its spectrum, and its eigenvectors only where rounding left an
    eigenvalue below zero to cut); the reduced state on each label set
    (``marginal``); and, per shared label set B, the t = 0 Petz factor
    rho^1/2 (rho_B^-1/2 (x) 1) that the normality test also uses when it
    reads this state as rho_BC (``recovery._bc_factor``).
    A complex128 ``matrix`` is adopted without a copy and made read-only,
    so pass a copy to keep your own array writable; other dtypes are
    converted into a new array.  States compare and hash by identity.
    """

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        self._validate(np.asarray(self.matrix, dtype=complex))

    @classmethod
    def _checked(cls, layout, m, w, floor=NEGATIVITY_TOL) -> "DensityOperator":
        """``cls(layout, m)`` for an ``m`` that is Hermitian by construction,
        with spectrum ``w``: Hermiticity is not tested again, and negative
        eigenvalues down to ``-floor`` are allowed."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        state._validate(m, w, floor)
        return state

    @classmethod
    def _from_eig(cls, layout, eig: HermitianEig, m) -> "DensityOperator":
        """The state ``m``, whose decomposition is ``eig``, checked on its
        known spectrum."""
        state = cls._checked(layout, m, eig.eigenvalues)
        _freeze(eig.eigenvectors)
        object.__setattr__(state, "eig", eig)  # fills the cached property
        return state

    def _validate(self, m: np.ndarray, w: np.ndarray | None = None,
                  floor: float = NEGATIVITY_TOL):
        if m.shape != (self.layout.dim, self.layout.dim):
            raise StateError(
                f"matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        if w is None:
            if not is_hermitian(m):
                raise StateError("matrix is not Hermitian within tolerance")
            w = np.linalg.eigvalsh(_hermitian_part(m))
        # eigvalsh and HermitianEig spectra ascend; a NaN spectrum fails too
        if not w[0] >= -floor:
            raise StateError(f"negative eigenvalue {w[0]:.3e}")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace is {tr}, expected 1")
        _freeze(m, w)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", w)
        object.__setattr__(self, "_marginals", {})  # label set -> reduced state
        object.__setattr__(self, "_bc_factors", {})  # label set -> t = 0 BC factor

    @cached_property
    def eig(self) -> HermitianEig:
        """Eigendecomposition of the matrix, computed on first use."""
        # validation tested Hermiticity: decompose without testing again
        eig = HermitianEig(*np.linalg.eigh(_hermitian_part(self.matrix)))
        _freeze(eig.eigenvalues, eig.eigenvectors)
        return eig

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels

    def marginal(self, keep) -> "DensityOperator":
        """The reduced state on ``keep``, built on first use and then kept,
        so every caller shares it and its one decomposition."""
        keep = frozenset(keep)
        if keep not in self._marginals:
            if keep == frozenset(self.labels):
                return self
            layout = self.layout.restrict(keep)
            # lambda_min(Tr_C rho) >= d_C lambda_min(rho), so the floor
            # scales with the traced-out dimension d_C
            floor = self.layout.dim // layout.dim * max(
                NEGATIVITY_TOL, -float(self._spectrum[0]))
            # the partial trace of a Hermitian matrix is Hermitian
            reduced = partial_trace(self.matrix, self.layout, keep)
            self._marginals[keep] = self._checked(
                layout, reduced, np.linalg.eigvalsh(_hermitian_part(reduced)), floor)
        return self._marginals[keep]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only)."""
        return self._spectrum

    def is_full_rank(self) -> bool:
        w = self._spectrum
        return bool(w[0] > support_cutoff(w))


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)


def pairwise_marginals(rho: DensityOperator) -> dict:
    """Marginals of ``rho`` on every pair of its labels, keyed by sorted pair."""
    return {
        p: rho.marginal(p) for p in itertools.combinations(sorted(rho.labels), 2)
    }


def _reductions(a: DensityOperator, b: DensityOperator, shared):
    """The matrices of ``a`` and ``b`` reduced to ``shared``, in ``a``'s label order."""
    ra, rb = a.marginal(shared), b.marginal(shared)
    mb = rb.matrix if rb.layout == ra.layout else embed(rb.matrix, rb.layout, ra.layout)
    return ra.matrix, mb


def overlap_distance(a: DensityOperator, b: DensityOperator, shared) -> float:
    """Trace distance between the reductions of ``a`` and ``b`` to ``shared``."""
    return trace_distance(*_reductions(a, b, shared))


def overlap_violation(a: DensityOperator, b: DensityOperator, shared,
                      tol: float) -> float | None:
    """``overlap_distance(a, b, shared)`` when it exceeds ``tol``, else None."""
    return distance_violation(*_reductions(a, b, shared), tol)


def distance_violation(ma: np.ndarray, mb: np.ndarray, tol: float) -> float | None:
    """``trace_distance(ma, mb)`` when it exceeds ``tol``, else None.

    For the difference X of the two d x d matrices, Cauchy-Schwarz on its
    eigenvalues gives 1/2 ||X||_1 <= 1/2 sqrt(d) ||X||_F.  A pair whose
    bound is within ``tol`` is accepted without an eigenvalue solve; only
    a pair whose bound fails pays for the exact distance, which decides.
    """
    if 0.5 * math.sqrt(len(ma)) * frobenius(ma - mb) * _BOUND_MARGIN <= tol:
        return None
    dist = trace_distance(ma, mb)
    return dist if dist > tol else None


def maximally_mixed(layout: SubsystemLayout) -> DensityOperator:
    d = layout.dim
    return DensityOperator(layout, np.eye(d, dtype=complex) / d)


def classical_state(layout: SubsystemLayout, probs: np.ndarray) -> DensityOperator:
    """Diagonal state embedding a joint probability table (shape = dims)."""
    p = np.asarray(probs, dtype=float).reshape(layout.dim)
    return DensityOperator(layout, np.diag(p.astype(complex)))


@dataclass(frozen=True)
class MarginalSet:
    """Marginals on sub-layouts of a common parent, with cover + overlap checks."""

    parent: SubsystemLayout
    marginals: tuple[DensityOperator, ...]
    overlap_tol: float = field(default=OVERLAP_TOL, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "marginals", tuple(self.marginals))
        missing = set(self.parent.labels).difference(*(m.labels for m in self.marginals))
        if missing:
            raise LayoutError(f"marginals do not cover labels {sorted(missing)}")
        conflict = overlap_conflict(self.parent, self.marginals, self.overlap_tol)
        if conflict is not None:
            raise StateError(conflict)


def overlap_conflict(parent: SubsystemLayout, marginals, tol: float) -> str | None:
    """Why two of ``marginals`` disagree on shared factors by more than ``tol``
    in trace distance, or None.  A marginal on a factor that ``parent``
    lacks, or has in another dimension, raises LayoutError."""
    for m in marginals:
        _check_factors(m.layout, parent)
    for i, a in enumerate(marginals):
        for b in marginals[:i]:
            shared = set(a.labels) & set(b.labels)
            dist = overlap_violation(b, a, shared, tol) if shared else None
            if dist is not None:
                return (f"marginals on {b.labels} and {a.labels} disagree on "
                        f"{sorted(shared)}: trace distance {dist:.3e}")
    return None


# ---------------------------------------------------------------------------
# entropies

def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -sum lambda log lambda, in nats."""
    w = rho.eigenvalues()
    tau = support_cutoff(w)
    w = w[w > tau]
    return float(-np.sum(w * np.log(w)))


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """S(rho||sigma) in nats; +inf when supp(rho) is not inside supp(sigma).

    Only sigma is decomposed: Tr rho log sigma = sum_j log q_j <v_j|rho|v_j>
    over sigma's support, and the leakage Tr(rho Pi_ker(sigma)) decides
    the infinite case.
    """
    if rho.layout.labels != sigma.layout.labels or rho.layout.dims != sigma.layout.dims:
        raise LayoutError("relative entropy requires matching layouts")
    p = rho.eigenvalues()
    q, v = sigma.eig.eigenvalues, sigma.eig.eigenvectors
    weights = np.sum(v.conj() * (rho.matrix @ v), axis=0).real  # <v_j|rho|v_j>
    q_ker = q <= support_cutoff(q)
    if float(np.sum(weights[q_ker])) > 1e-10:
        return math.inf
    p = p[p > support_cutoff(p)]
    term_p = float(np.sum(p * np.log(p)))
    term_q = float(weights[~q_ker] @ np.log(q[~q_ker]))
    return term_p - term_q


def mutual_information(rho: DensityOperator, part1, part2) -> float:
    part1, part2 = tuple(part1), tuple(part2)
    if set(part1) & set(part2) or set(part1) | set(part2) != set(rho.labels):
        raise LayoutError(
            f"parts {part1} and {part2} must partition {rho.labels}"
        )
    return (
        von_neumann_entropy(rho.marginal(part1))
        + von_neumann_entropy(rho.marginal(part2))
        - von_neumann_entropy(rho)
    )


def conditional_mutual_information(rho: DensityOperator, part_a, part_b, part_c) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC)."""
    a, b, c = tuple(part_a), tuple(part_b), tuple(part_c)
    blocks = set(a) | set(b) | set(c)
    if (
        blocks != set(rho.labels)
        or len(a) + len(b) + len(c) != len(rho.labels)
    ):
        raise LayoutError(
            f"blocks {a}, {b}, {c} must partition {rho.labels}"
        )
    return (
        von_neumann_entropy(rho.marginal(a + b))
        + von_neumann_entropy(rho.marginal(b + c))
        - von_neumann_entropy(rho.marginal(b))
        - von_neumann_entropy(rho)
    )


# ---------------------------------------------------------------------------
# random ensembles

def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def sample_density(
    layout: SubsystemLayout, rank: int | None = None, seed=None
) -> DensityOperator:
    """Hilbert-Schmidt-ensemble sample rho = G G^dagger / Tr(G G^dagger)."""
    d = layout.dim
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise StateError(f"rank must be in [1, {d}], got {rank}")
    g = _ginibre(_rng(seed), d, rank)
    m = g @ g.conj().T
    return DensityOperator(layout, m / np.trace(m).real)


def random_unitary(d: int, seed=None) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre matrix with phase-fixed R diagonal."""
    q, r = np.linalg.qr(_ginibre(_rng(seed), d, d))
    phase = np.diag(r) / np.abs(np.diag(r))
    return q * phase


@dataclass(frozen=True)
class QmcSpec:
    """Block structure for a tripartite state with zero conditional correlation.

    ``blocks`` lists (probability, left dim, right dim) for the direct-sum
    decomposition of the middle factor.
    """

    dim_a: int
    dim_c: int
    blocks: tuple[tuple[float, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "dim_a", _integer(self.dim_a, "dim_a", StateError))
        object.__setattr__(self, "dim_c", _integer(self.dim_c, "dim_c", StateError))
        object.__setattr__(self, "blocks", tuple(
            (float(p), _integer(dl, "block dimension", StateError),
             _integer(dr, "block dimension", StateError))
            for p, dl, dr in self.blocks
        ))
        if self.dim_a < 1 or self.dim_c < 1 or not self.blocks:
            raise StateError("dims must be >= 1 and blocks nonempty")
        probs = [p for p, _, _ in self.blocks]
        if (not all(math.isfinite(p) and p >= 0 for p in probs)
                or abs(sum(probs) - 1.0) > 1e-12):
            raise StateError("block probabilities must be finite, >= 0 and sum to 1")
        if any(dl < 1 or dr < 1 for _, dl, dr in self.blocks):
            raise StateError("block dimensions must be >= 1")

    @property
    def dim_b(self) -> int:
        return sum(dl * dr for _, dl, dr in self.blocks)


def sample_qmc(spec: QmcSpec, seed=None) -> DensityOperator:
    """Assemble a random block-direct-sum state on A, B, C with zero I(A:C|B).

    Each block is a product of two Hilbert-Schmidt samples; a Haar-random
    unitary on the middle factor hides the block basis.
    """
    rng = _rng(seed)
    da, db, dc = spec.dim_a, spec.dim_b, spec.dim_c
    layout = SubsystemLayout(("A", "B", "C"), (da, db, dc))
    full = np.zeros((layout.dim, layout.dim), dtype=complex)
    offset = 0
    for p, dl, dr in spec.blocks:
        left = sample_density(SubsystemLayout(("a", "l"), (da, dl)), seed=rng)
        right = sample_density(SubsystemLayout(("r", "c"), (dr, dc)), seed=rng)
        # block on A (x) B_j (x) C with B_j = L (x) R occupying rows
        # offset..offset + dl*dr of the middle factor
        block = np.kron(left.matrix, right.matrix)
        iso = np.zeros((db, dl * dr))
        iso[offset:offset + dl * dr, :] = np.eye(dl * dr)
        lift = np.kron(np.kron(np.eye(da), iso), np.eye(dc))
        full += p * (lift @ block @ lift.conj().T)
        offset += dl * dr
    ub = np.kron(np.kron(np.eye(da), random_unitary(db, rng)), np.eye(dc))
    full = ub @ full @ ub.conj().T
    full = (full + full.conj().T) / 2
    return DensityOperator(layout, full / np.trace(full).real)


def sample_markov_path(
    labels: tuple[str, ...], dims: tuple[int, ...], seed=None
) -> DensityOperator:
    """Random state with zero conditional correlation along a path of labels."""
    if len(labels) < 2:
        raise StateError("a path needs at least two vertices")
    layout = SubsystemLayout(tuple(labels), tuple(dims))
    edges = [tuple(sorted((a, b))) for a, b in zip(labels, labels[1:])]
    return sample_markov_tree(layout, edges, seed)


def sample_markov_tree(
    layout: SubsystemLayout, edges, seed=None
) -> DensityOperator:
    """Random globally Markov state on an arbitrary spanning tree.

    Internal vertices carry a random local basis and a classical
    tree-structured distribution over the basis labels; leaves attach
    genuinely mixed quantum states conditioned on the neighboring label.
    Per separator this is a block form characterizing states with zero
    conditional correlation, so the global Markov property holds by
    construction.  It is not every such form: an internal vertex is
    classical, so no edge at it is ever entangled.  The sampler cannot
    produce, for instance, rho_A (x) rho_BC with an entangled rho_BC on
    the path A-B-C, although that state is Markov, qubits included.
    """
    edges = [tuple(sorted(e)) for e in edges]
    problem = spanning_tree_problem(layout.labels, edges)
    if problem:
        raise StateError(problem)
    rng = _rng(seed)
    if len(layout.labels) == 2:
        return sample_density(layout, seed=rng)
    return _sample_classical_backbone_tree(layout, edges, rng)


def _sample_classical_backbone_tree(layout, edges, rng) -> DensityOperator:
    adj = {l: [] for l in layout.labels}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    internal = [l for l in layout.labels if len(adj[l]) > 1]
    leaves = [l for l in layout.labels if len(adj[l]) == 1]

    # classical tree-structured distribution over internal basis labels
    root = internal[0]
    order, parent_of = [root], {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in internal and w not in parent_of:
                parent_of[w] = v
                order.append(w)
                stack.append(w)
    dims_int = {l: layout.dim_of(l) for l in internal}
    marg = {root: _random_dist(rng, dims_int[root])}
    cond = {}
    for v in order[1:]:
        p = parent_of[v]
        cond[v] = np.stack(
            [_random_dist(rng, dims_int[v]) for _ in range(dims_int[p])]
        )

    bases = {l: random_unitary(layout.dim_of(l), rng) for l in internal}
    leaf_states = {
        l: [
            sample_density(SubsystemLayout((l,), (layout.dim_of(l),)), seed=rng)
            for _ in range(dims_int[adj[l][0]])
        ]
        for l in leaves
    }

    full = np.zeros((layout.dim, layout.dim), dtype=complex)
    for config in np.ndindex(*(dims_int[l] for l in internal)):
        x = dict(zip(internal, config))
        weight = marg[root][x[root]]
        for v in order[1:]:
            weight *= cond[v][x[parent_of[v]], x[v]]
        factors = []
        for l in layout.labels:
            if l in internal:
                vec = bases[l][:, x[l]]
                factors.append(np.outer(vec, vec.conj()))
            else:
                factors.append(leaf_states[l][x[adj[l][0]]].matrix)
        block = factors[0]
        for f in factors[1:]:
            block = np.kron(block, f)
        full += weight * block
    full = (full + full.conj().T) / 2
    return DensityOperator(layout, full / np.trace(full).real)


def _random_dist(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, n)
    return p / p.sum()
