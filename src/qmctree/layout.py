"""Tensor-product index bookkeeping for multipartite operators.

Operators are dense complex numpy arrays in row-major order.  The
multi-index convention is big-endian: the first label of a layout is the
most significant factor, matching ``np.kron(first, ..., last)``.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    facts derived from a layout are computed once per layout value; the
    hash is computed once, on construction.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dims", tuple(
            _integer(d, "dimension", LayoutError) for d in self.dims))
        object.__setattr__(self, "_hash", hash((self.labels, self.dims)))
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

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt on unpickling: str hashes vary by process
        return SubsystemLayout, (self.labels, self.dims)

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


def _integer(value, name: str, error: type[ValueError]) -> int:
    """``value`` as an int: integral floats and numpy integers convert, while
    bools, non-integral or non-finite numbers and non-numbers raise ``error``."""
    if (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
            and math.isfinite(value) and value == int(value)):
        return int(value)
    raise error(f"{name} must be an integer, got {value!r}")


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
    comp_dim, dims, axes = _embed_plan(sub, target)
    # op (x) 1 as a broadcast product: entry for entry what np.kron forms
    full = op.reshape(sub.dim, 1, sub.dim, 1) * np.eye(comp_dim)[None, :, None, :]
    return full.reshape(dims).transpose(axes).reshape(target.dim, target.dim)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _embed_plan(sub: SubsystemLayout, target: SubsystemLayout) -> tuple:
    """Complement dimension, tensor shape and axis order of ``embed``: op (x) 1
    has the factors of ``sub``, then the rest of ``target`` in target order,
    on its rows and on its columns; the axes put them in target order."""
    _check_factors(sub, target)
    current = list(sub.labels) + list(target.complement(sub.labels))
    perm = [current.index(l) for l in target.labels]
    dims = tuple(target.dim_of(l) for l in current) * 2
    return target.dim // sub.dim, dims, tuple(perm) + tuple(len(perm) + p for p in perm)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _product_plan(x_sub: SubsystemLayout, y_sub: SubsystemLayout,
                  target: SubsystemLayout) -> tuple:
    """How ``local_product`` permutes its operands into one matmul that
    contracts their shared factors S, and the result into target order:
    for x, y and their product, the dims of the tensor it is read as, the
    axis order that permutes that tensor (None for the identity, whose
    transpose is skipped) and the shape it then takes.

    Unit-dimension factors index nothing and are dropped, so no tensor
    has more than two axes per factor of dimension > 1.
    """
    _check_factors(x_sub, target)
    _check_factors(y_sub, target)
    missing = set(target.labels) - set(x_sub.labels) - set(y_sub.labels)
    if missing:
        raise LayoutError(f"target factors {sorted(missing)} are on neither operand")
    dim = {l: d for l, d in zip(target.labels, target.dims) if d > 1}
    xs = [l for l in x_sub.labels if l in dim]
    ys = [l for l in y_sub.labels if l in dim]
    s = [l for l in xs if l in ys]
    x_only = [l for l in xs if l not in s]
    y_only = [l for l in ys if l not in s]
    # each factor is on two axes of the product, its row before its column;
    # off its operand, the other operand is identity there
    out = x_only + s + x_only + y_only + s + y_only
    row, col = {}, {}
    for i, l in enumerate(out):
        row.setdefault(l, i)
        col[l] = i

    def unless_identity(axes):
        return None if axes == tuple(range(len(axes))) else axes

    def axes(labels, order):
        pos = [labels.index(l) for l in order]
        return unless_identity(tuple(pos) + tuple(len(labels) + p for p in pos))

    d_x, d_s, d_y = (math.prod(dim[l] for l in g) for g in (x_only, s, y_only))
    return (
        # x: rows then columns of its factors -> (X' rows, S rows, X' cols | S cols)
        (tuple(dim[l] for l in xs) * 2, axes(xs, x_only + s), (d_x * d_s * d_x, d_s)),
        # y: rows then columns of its factors -> (S rows | Y' rows, S cols, Y' cols)
        (tuple(dim[l] for l in ys) * 2, axes(ys, s + y_only), (d_s, d_y * d_s * d_y)),
        # the product -> the target's rows, then its columns
        (tuple(dim[l] for l in out),
         unless_identity(tuple(row[l] for l in dim) + tuple(col[l] for l in dim)),
         (target.dim, target.dim)),
    )


def _apply(plan: tuple, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of the complex (d, d) operands ``x`` and ``y`` by ``plan``."""
    x_plan, y_plan, out_plan = plan
    return _permuted(_permuted(x, *x_plan) @ _permuted(y, *y_plan), *out_plan)


def _permuted(a: np.ndarray, dims, axes, shape) -> np.ndarray:
    a = a.reshape(dims)
    return (a if axes is None else a.transpose(axes)).reshape(shape)


def local_product(x: np.ndarray, x_sub: SubsystemLayout, y: np.ndarray,
                  y_sub: SubsystemLayout, target: SubsystemLayout) -> np.ndarray:
    """``embed(x, x_sub, target) @ embed(y, y_sub, target)`` without embedding
    either operand, in O(D^2 * d) work, d the dimension of the factors both
    operands act on.  Every factor of ``target`` must be on at least one
    operand.

    x is permuted to a (d_X'^2 d, d) matrix and y to a (d, d d_Y'^2) one,
    X' and Y' the factors on x only and on y only, so one matmul contracts
    the shared factors; a transpose then puts the result in target order.
    """
    plan = _product_plan(x_sub, y_sub, target)
    return _apply(plan, _check_square(x, x_sub), _check_square(y, y_sub))


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
