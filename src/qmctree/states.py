"""Density operators, entropic functionals and random state ensembles."""

from __future__ import annotations

import itertools
import math
import string
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
    tree_neighbours,
)
from .linalg import (
    NEGATIVITY_TOL,
    HermitianEig,
    _hermitian_part,
    frobenius,
    is_hermitian,
    spectral_function,
    support_cutoff,
    trace_distance,
)

TRACE_TOL = 1e-9
OVERLAP_TOL = 1e-8
# relative margin on the overlap gates' Frobenius bound: far above the few
# units in the last place by which a computed trace distance can exceed it
_BOUND_MARGIN = 1 + 1e-9


class StateError(ValueError):
    """Raised when a candidate density operator violates its invariants."""


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, PSD, trace-one matrix bound to a SubsystemLayout.

    The constructor validates an outside matrix: its shape, Hermiticity,
    one ``eigvalsh`` checked at lambda_min >= -NEGATIVITY_TOL, and its
    trace.  A Petz output, a sample or a Gibbs state is Hermitian to the
    bit and names its certificate (``_certified``): a spectrum, a
    decomposition, or a Cholesky success.  A marginal is certified by the
    state it reduces and takes its spectrum on first read.  A state keeps,
    each formed at most once and read-only: its spectrum, which serves
    every eigenvalue query; whether it is full rank; ``eig``; rho^1/2; the
    reduced state on each label set (``marginal``); and, per shared label
    set B, the t = 0 Petz factor rho^1/2 (rho_B^-1/2 (x) 1) that the
    normality test also uses when it reads this state as rho_BC
    (``recovery._bc_factor``).
    A complex128 ``matrix`` is adopted without a copy and made read-only,
    so pass a copy to keep your own array writable; other dtypes are
    converted into a new array.  States compare and hash by identity.
    """

    layout: SubsystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = self._square(np.asarray(self.matrix, dtype=complex))
        if not is_hermitian(m):
            raise StateError("matrix is not Hermitian within tolerance")
        self._keep(m, np.linalg.eigvalsh(_hermitian_part(m)))

    @classmethod
    def _certified(cls, layout, m, certificate) -> "DensityOperator":
        """The state ``m`` with its certificate of positivity: an ascending
        spectrum or a ``HermitianEig`` of ``m`` (then Hermitian to the
        bit), kept and checked at lambda_min >= -NEGATIVITY_TOL; or None,
        the spectrum then taken on first read, when a Cholesky
        factorization of ``m`` succeeded or ``m`` is a partial trace of a
        state, which is Hermitian and positive because that state is."""
        state = object.__new__(cls)
        object.__setattr__(state, "layout", layout)
        if isinstance(certificate, HermitianEig):
            _freeze(certificate.eigenvectors)
            object.__setattr__(state, "eig", certificate)  # fills the cached property
            certificate = certificate.eigenvalues
        state._keep(state._square(m), certificate)
        return state

    def _square(self, m: np.ndarray) -> np.ndarray:
        """``m``, when it has the layout's D x D shape."""
        if m.shape != (self.layout.dim, self.layout.dim):
            raise StateError(
                f"matrix shape {m.shape} does not match layout dim {self.layout.dim}"
            )
        return m

    def _keep(self, m: np.ndarray, w: np.ndarray | None):
        """The checks every state passes on its spectrum ``w`` (None when
        it is taken on first read) and trace, then ``m`` and ``w`` frozen
        as the matrix and spectrum, with empty stores for the states and
        factors derived from them."""
        # eigvalsh and HermitianEig spectra ascend; a NaN spectrum fails too
        if w is not None and not w[0] >= -NEGATIVITY_TOL:
            raise StateError(f"negative eigenvalue {w[0]:.3e}")
        tr = float(m.trace().real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace is {tr}, expected 1")
        _freeze(m)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_marginals", {})  # label set -> reduced state
        object.__setattr__(self, "_bc_factors", {})  # label set -> t = 0 BC factor
        if w is not None:
            _freeze(w)
            object.__setattr__(self, "_spectrum", w)  # fills the cached property

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The ascending spectrum of a state certified without one (a
        Cholesky-certified Petz output or a marginal): read from ``eig``
        when that is formed, else one ``eigvalsh`` of the Hermitian part."""
        if "eig" in vars(self):
            return self.eig.eigenvalues
        w = np.linalg.eigvalsh(_hermitian_part(self.matrix))
        _freeze(w)
        return w

    @cached_property
    def _full_rank(self) -> bool:
        w = self._spectrum
        return bool(w[0] > support_cutoff(w))

    @cached_property
    def _sqrt(self) -> np.ndarray:
        """rho^1/2 (read-only): the normality test reads it as rho_AB^1/2,
        and the t = 0 Petz factor as rho_BC^1/2."""
        root = spectral_function(self.eig, "sqrt")
        _freeze(root)
        return root

    @cached_property
    def eig(self) -> HermitianEig:
        """Eigendecomposition of the matrix, computed on first use."""
        # every state is Hermitian within tolerance: decompose without testing again
        eig = HermitianEig(*np.linalg.eigh(_hermitian_part(self.matrix)))
        _freeze(eig.eigenvalues, eig.eigenvectors)
        return eig

    @property
    def labels(self) -> tuple[str, ...]:
        return self.layout.labels

    def marginal(self, keep) -> "DensityOperator":
        """The reduced state on ``keep``, built on first use and then kept,
        so every caller shares it and its one decomposition.  It is
        certified by this state, since lambda_min(Tr_C rho) >=
        d_C lambda_min(rho), and takes its spectrum on first read."""
        keep = frozenset(keep)
        if keep not in self._marginals:
            if keep == frozenset(self.labels):
                return self
            self._marginals[keep] = self._certified(
                self.layout.restrict(keep), partial_trace(self.matrix, self.layout, keep), None)
        return self._marginals[keep]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only)."""
        return self._spectrum

    def is_full_rank(self) -> bool:
        return self._full_rank


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
    return DensityOperator._certified(layout, np.eye(d, dtype=complex) / d, np.full(d, 1 / d))


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
    q, v = sigma.eig.eigenvalues, sigma.eig.eigenvectors
    weights = np.sum(v.conj() * (rho.matrix @ v), axis=0).real  # <v_j|rho|v_j>
    q_ker = q <= support_cutoff(q)
    if float(np.sum(weights[q_ker])) > 1e-10:
        return math.inf
    term_q = float(weights[~q_ker] @ np.log(q[~q_ker]))
    return -von_neumann_entropy(rho) - term_q


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


def pair_mutual_informations(marginals: dict) -> dict:
    """I(a:b) of each bipartite marginal in ``marginals``, keyed by its pair (a, b)."""
    return {(a, b): mutual_information(m, (a,), (b,)) for (a, b), m in marginals.items()}


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


def _hilbert_schmidt(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """G G^dagger / Tr(G G^dagger) for a d x rank Ginibre matrix G."""
    g = _ginibre(rng, d, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def sample_density(
    layout: SubsystemLayout, rank: int | None = None, seed=None
) -> DensityOperator:
    """Hilbert-Schmidt-ensemble sample rho = G G^dagger / Tr(G G^dagger)."""
    d = layout.dim
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise StateError(f"rank must be in [1, {d}], got {rank}")
    return DensityOperator(layout, _hilbert_schmidt(_rng(seed), d, rank))


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
    full = np.zeros((da, db, dc, da, db, dc), dtype=complex)
    offset = 0
    for p, dl, dr in spec.blocks:
        left = _hilbert_schmidt(rng, da * dl, da * dl)
        right = _hilbert_schmidt(rng, dr * dc, dr * dc)
        # block on A (x) B_j (x) C with B_j = L (x) R occupying rows
        # offset..offset + dl*dr of the middle factor
        rows = slice(offset, offset + dl * dr)
        full[:, rows, :, :, rows, :] = p * np.kron(left, right).reshape(
            da, dl * dr, dc, da, dl * dr, dc)
        offset += dl * dr
    # (1 (x) U (x) 1) full (1 (x) U (x) 1)^dagger: U on B's row axis, then
    # U* on its column axis, as broadcast products
    u = random_unitary(db, rng)
    full = (u @ full.reshape(da, db, -1)).reshape(-1, db, dc)
    return _certified_sample(layout, (u.conj() @ full).reshape(layout.dim, layout.dim))


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
    if len(layout.labels) <= 2:  # no separator: every state is Markov
        return sample_density(layout, seed=rng)
    return _sample_classical_backbone_tree(layout, edges, rng)


def _sample_classical_backbone_tree(layout, edges, rng) -> DensityOperator:
    adj = tree_neighbours(layout.labels, edges)
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

    # one einsum over the backbone: the root distribution, each internal
    # edge's conditional table, a stack of projectors u[:, x] u[:, x]^dagger
    # per internal vertex and a stack of states per leaf, indexed by its
    # neighbour's value.  A unit axis gets no subscript and is squeezed
    # away, so layouts of many unit factors do not run out of letters.
    dims = dict(zip(layout.labels, layout.dims))
    letters = iter(string.ascii_letters)
    row = {l: next(letters) if dims[l] > 1 else "" for l in layout.labels}
    col = {l: next(letters) if dims[l] > 1 else "" for l in layout.labels}
    var = {l: next(letters) if dims[l] > 1 else "" for l in internal}
    terms, operands = [var[root]], [_random_dist(rng, dims[root])]
    for v in order[1:]:
        p = parent_of[v]
        terms.append(var[p] + var[v])
        operands.append(np.stack([_random_dist(rng, dims[v]) for _ in range(dims[p])]))
    for v in internal:
        u = random_unitary(dims[v], rng)
        terms.append(var[v] + row[v] + col[v])
        operands.append(np.einsum("ix,jx->xij", u, u.conj()))
    for l in leaves:
        p = adj[l][0]
        terms.append(var[p] + row[l] + col[l])
        operands.append(np.stack([_hilbert_schmidt(rng, dims[l], dims[l])
                                  for _ in range(dims[p])]))
    spec = ",".join(terms) + "->" + "".join(row.values()) + "".join(col.values())
    full = np.einsum(spec, *map(np.squeeze, operands), optimize="greedy")
    return _certified_sample(layout, full.reshape(layout.dim, layout.dim))


def _certified_sample(layout, full: np.ndarray) -> DensityOperator:
    """The state of a sampler's fresh PSD matrix ``full``: its Hermitian
    part, Hermitian to the bit, normalized in place and certified by its
    spectrum."""
    full += full.conj().T
    full /= 2
    full /= np.trace(full).real
    return DensityOperator._certified(layout, full, np.linalg.eigvalsh(full))


def _random_dist(rng, n: int) -> np.ndarray:
    p = rng.uniform(0.1, 1.0, n)
    return p / p.sum()
