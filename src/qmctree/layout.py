"""Tensor-product index bookkeeping for multipartite operators.

Operators are dense complex numpy arrays in row-major order.  The
multi-index convention is big-endian: the first label of a layout is the
most significant factor, matching ``np.kron(first, ..., last)``.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass

import numpy as np

DEFAULT_DIM_CAP = 4096
# entries per lru_cache of facts derived from layout values; a process
# sees few distinct layouts
LAYOUT_CACHE_SIZE = 256


class LayoutError(ValueError):
    """Raised for malformed layouts or label/dimension mismatches."""


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled tensor factors with local dimensions.

    Equality, hash and repr are those of ``labels`` and ``dims``, so the
    facts derived from a layout are computed once per layout value.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if len(self.labels) != len(self.dims):
            raise LayoutError(
                f"{len(self.labels)} labels but {len(self.dims)} dims"
            )
        if len(set(self.labels)) != len(self.labels):
            raise LayoutError(f"duplicate labels in {self.labels}")
        if any(d < 1 for d in self.dims):
            raise LayoutError(f"dims must be >= 1, got {self.dims}")
        if self.dim > DEFAULT_DIM_CAP:
            raise LayoutError(
                f"total dimension {self.dim} exceeds cap {DEFAULT_DIM_CAP}"
            )

    @functools.cached_property
    def dim(self) -> int:
        """Total Hilbert-space dimension (computed by ``__post_init__``)."""
        return math.prod(self.dims)

    @property
    def n(self) -> int:
        return len(self.labels)

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LayoutError(f"unknown label {label!r} in layout {self.labels}")

    def restrict(self, keep) -> "SubsystemLayout":
        """Sub-layout on ``keep``, preserving this layout's label order."""
        return _restrict(self, frozenset(keep))

    def complement(self, labels) -> tuple[str, ...]:
        labels = set(labels)
        return tuple(l for l in self.labels if l not in labels)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _restrict(layout: SubsystemLayout, keep: frozenset) -> SubsystemLayout:
    unknown = keep - set(layout.labels)
    if unknown:
        raise LayoutError(f"unknown labels {sorted(unknown)}")
    pairs = [(l, d) for l, d in zip(layout.labels, layout.dims) if l in keep]
    return SubsystemLayout(tuple(l for l, _ in pairs), tuple(d for _, d in pairs))


def _check_square(op: np.ndarray, layout: SubsystemLayout):
    op = np.asarray(op, dtype=complex)
    if op.shape != (layout.dim, layout.dim):
        raise LayoutError(
            f"operator shape {op.shape} does not match layout dimension "
            f"{layout.dim}"
        )
    return op


def _check_factors(sub: SubsystemLayout, target: SubsystemLayout):
    for label, d in zip(sub.labels, sub.dims):
        if target.dim_of(label) != d:
            raise LayoutError(
                f"dimension mismatch for {label!r}: sub has {d}, "
                f"target has {target.dim_of(label)}"
            )


def partial_trace(op: np.ndarray, layout: SubsystemLayout, keep) -> np.ndarray:
    """Trace out the factors of ``layout`` not listed in ``keep``.

    Returns the operator on ``layout.restrict(keep)``; kept label order
    follows the parent layout.
    """
    op = _check_square(op, layout)
    spec, kept_dim = _trace_plan(layout, frozenset(keep))
    tensor = op.reshape(*layout.dims, *layout.dims)
    return np.einsum(spec, tensor).reshape(kept_dim, kept_dim)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _trace_plan(layout: SubsystemLayout, keep: frozenset) -> tuple[str, int]:
    """einsum subscripts and kept dimension of ``partial_trace``."""
    if not keep:
        raise LayoutError("keep must be nonempty")
    keep_idx = sorted(layout.index(l) for l in keep)

    n = layout.n
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise LayoutError("too many factors for einsum contraction")
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for j in range(n):
        if j not in keep_idx:
            col[j] = row[j]
    out = [row[j] for j in keep_idx] + [col[j] for j in keep_idx]
    spec = "".join(row) + "".join(col) + "->" + "".join(out)
    return spec, math.prod(layout.dims[j] for j in keep_idx)


def embed(op: np.ndarray, sub: SubsystemLayout, target: SubsystemLayout) -> np.ndarray:
    """Extend ``op`` on ``sub`` to ``target`` by tensoring identities.

    ``sub`` may sit on non-contiguous factors of ``target``; the result is
    permuted into the target's factor order.
    """
    op = _check_square(op, sub)
    _check_factors(sub, target)
    comp = target.complement(sub.labels)
    comp_dim = math.prod(target.dim_of(l) for l in comp)
    full = np.kron(op, np.eye(comp_dim, dtype=complex))

    # current factor order: sub.labels then complement (in target order)
    current = list(sub.labels) + list(comp)
    cur_dims = [target.dim_of(l) for l in current]
    perm = [current.index(l) for l in target.labels]
    n = len(current)
    tensor = full.reshape(*cur_dims, *cur_dims)
    tensor = tensor.transpose(perm + [n + p for p in perm])
    return tensor.reshape(target.dim, target.dim)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _product_spec(x_sub: SubsystemLayout, y_sub: SubsystemLayout,
                  target: SubsystemLayout) -> str:
    """einsum subscripts of ``local_product`` for one layout triple."""
    _check_factors(x_sub, target)
    _check_factors(y_sub, target)
    missing = set(target.labels) - set(x_sub.labels) - set(y_sub.labels)
    if missing:
        raise LayoutError(f"target factors {sorted(missing)} are on neither operand")
    shared = set(x_sub.labels) & set(y_sub.labels)
    if 2 * target.n + len(shared) > len(string.ascii_letters):
        raise LayoutError("too many factors for einsum contraction")
    letters = iter(string.ascii_letters)
    row = {l: next(letters) for l in target.labels}
    col = {l: next(letters) for l in target.labels}
    # a shared factor is contracted; elsewhere the other operand is identity
    mid = {l: next(letters) for l in shared}
    x = [row[l] for l in x_sub.labels] + [mid.get(l, col[l]) for l in x_sub.labels]
    y = [mid.get(l, row[l]) for l in y_sub.labels] + [col[l] for l in y_sub.labels]
    out = [row[l] for l in target.labels] + [col[l] for l in target.labels]
    return f"{''.join(x)},{''.join(y)}->{''.join(out)}"


def local_product(x: np.ndarray, x_sub: SubsystemLayout, y: np.ndarray,
                  y_sub: SubsystemLayout, target: SubsystemLayout) -> np.ndarray:
    """``embed(x, x_sub, target) @ embed(y, y_sub, target)`` as one einsum in
    O(D^2 * d) work, d the dimension of the factors both operands act on.
    Every factor of ``target`` must be on at least one operand."""
    spec = _product_spec(x_sub, y_sub, target)
    x = _check_square(x, x_sub).reshape(x_sub.dims * 2)
    y = _check_square(y, y_sub).reshape(y_sub.dims * 2)
    return np.einsum(spec, x, y).reshape(target.dim, target.dim)


def union_find(labels):
    """Disjoint sets over ``labels``, for spanning-tree checks and Kruskal.

    Returns ``union(a, b)``, which joins the sets holding ``a`` and ``b``
    and returns False when they were already one set, i.e. when the pair
    closes a cycle.  Unknown labels raise KeyError.
    """
    parent = {l: l for l in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b) -> bool:
        ra, rb = find(a), find(b)
        parent[ra] = rb
        return ra != rb

    return union


def spanning_tree_problem(labels, edges) -> str | None:
    """Why ``edges`` is not a spanning tree on ``labels``, or None if it is."""
    labels = tuple(labels)
    if len(edges) != len(labels) - 1:
        return f"{len(edges)} edges cannot span {len(labels)} vertices"
    union = union_find(labels)
    for a, b in edges:
        if a not in labels or b not in labels:
            return f"edge {a}-{b} uses an unknown vertex"
        if not union(a, b):
            return f"edge set has a cycle through {a}-{b}"
    return None
