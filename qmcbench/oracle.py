"""Reference computations for checking qmctree, written apart from it.

Plain numpy/scipy only; this module never imports qmctree.  It generates
the benchmark's states (Ginibre, block-direct-sum Markov chains and
classical-backbone Markov trees with a known tree) and gives the partial
trace, entropies and trace distance the checks compare against.  The
eigensolver is scipy's LAPACK wrapper, so the checks do not share numpy's
`linalg` path with the code under test.

Operators use the same big-endian multi-index as ``np.kron``: the first
factor is the most significant.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.linalg

EIG_FLOOR = 1e-14


# ---------------------------------------------------------------------------
# linear algebra

def eigvalsh(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    return scipy.linalg.eigvalsh((a + a.conj().T) / 2)


def ptrace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every factor whose index is not in ``keep``.

    Factors are traced one at a time with ``np.trace`` on the reshaped
    tensor; kept factors stay in their original order.
    """
    dims = list(dims)
    keep = sorted(set(keep))
    n = len(dims)
    t = np.asarray(rho).reshape(dims + dims)
    for j in reversed(range(n)):
        if j in keep:
            continue
        cur = t.ndim // 2
        t = np.trace(t, axis1=j, axis2=j + cur)
    d = int(math.prod(dims[j] for j in keep))
    return t.reshape(d, d)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in nats."""
    w = eigvalsh(rho)
    w = w[w > EIG_FLOOR * max(1.0, float(np.max(np.abs(w))))]
    return float(-np.sum(w * np.log(w)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(eigvalsh(np.asarray(a) - np.asarray(b)))))


def within(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """A value <= tol exactly when the trace distance of a and b is <= tol.

    Tries the bound ||X||_1 <= sqrt(d) ||X||_F first, which needs no
    eigensolver; the exact trace distance is computed only when the bound
    is not enough.
    """
    diff = np.asarray(a) - np.asarray(b)
    bound = 0.5 * math.sqrt(diff.shape[0]) * float(np.linalg.norm(diff))
    return bound if bound <= tol else trace_distance(a, b)


def mutual_info(rho: np.ndarray, dims, a, b) -> float:
    """I(A:B) of the marginal on factor groups ``a`` and ``b``."""
    a, b = list(a), list(b)
    return (entropy(ptrace(rho, dims, a)) + entropy(ptrace(rho, dims, b))
            - entropy(ptrace(rho, dims, a + b)))


def cmi(rho: np.ndarray, dims, a, b, c) -> float:
    """I(A:C|B) = S(AB) + S(BC) - S(B) - S(ABC) on factor groups."""
    a, b, c = list(a), list(b), list(c)
    return (entropy(ptrace(rho, dims, a + b)) + entropy(ptrace(rho, dims, b + c))
            - entropy(ptrace(rho, dims, b)) - entropy(ptrace(rho, dims, a + b + c)))


# ---------------------------------------------------------------------------
# state generators

def ginibre(rng: np.random.Generator, d: int, floor: float = 0.0) -> np.ndarray:
    """Full-rank Hilbert-Schmidt random state G G^dagger / Tr, mixed with
    weight ``floor`` into I/d so every eigenvalue is at least floor/d."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return (1 - floor) * m / np.trace(m).real + floor * np.eye(d) / d


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def markov_chain(rng: np.random.Generator, da: int, blocks, dc: int,
                 floor: float = 0.0) -> np.ndarray:
    """Block-direct-sum state on A (x) B (x) C with I(A:C|B) = 0.

    ``blocks`` lists (dim L_j, dim R_j); B is the direct sum of L_j (x) R_j
    and block j carries p_j rho_{A L_j} (x) rho_{R_j C}, each factor a
    ``ginibre`` state with the given ``floor``.  A Haar unitary on B hides
    the block basis.
    """
    db = sum(dl * dr for dl, dr in blocks)
    probs = rng.uniform(0.5, 1.0, len(blocks))
    probs /= probs.sum()
    full = np.zeros((da, db, dc, da, db, dc), dtype=complex)
    off = 0
    for p, (dl, dr) in zip(probs, blocks):
        left = ginibre(rng, da * dl, floor).reshape(da, dl, da, dl)
        right = ginibre(rng, dr * dc, floor).reshape(dr, dc, dr, dc)
        blk = p * np.einsum("alAL,rcRC->alrcALRC", left, right)
        blk = blk.reshape(da, dl * dr, dc, da, dl * dr, dc)
        s = slice(off, off + dl * dr)
        full[:, s, :, :, s, :] = blk
        off += dl * dr
    d = da * db * dc
    u = np.kron(np.kron(np.eye(da), haar_unitary(rng, db)), np.eye(dc))
    rho = u @ full.reshape(d, d) @ u.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def tree_shape(rng: np.random.Generator, n: int, shape: str):
    """Edges (i, j), i < j, of a spanning tree on vertices 0..n-1.

    Vertex numbers are shuffled so the shape does not follow label order.
    """
    perm = rng.permutation(n)
    if shape == "path":
        raw = [(k, k + 1) for k in range(n - 1)]
    elif shape == "star":
        raw = [(0, k) for k in range(1, n)]
    elif shape == "caterpillar":
        spine = max(2, n // 2)
        raw = [(k, k + 1) for k in range(spine - 1)]
        raw += [(int(rng.integers(0, spine)), k) for k in range(spine, n)]
    elif shape == "prufer":
        seq = list(rng.integers(0, n, n - 2))
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        raw = []
        for v in seq:
            leaf = min(k for k in range(n) if degree[k] == 1)
            raw.append((leaf, int(v)))
            degree[leaf] -= 1
            degree[v] -= 1
        u, w = [k for k in range(n) if degree[k] == 1]
        raw.append((u, w))
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    return sorted(tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in raw)


def markov_tree(rng: np.random.Generator, dims, edges) -> np.ndarray:
    """Globally Markov state on a spanning tree with a classical backbone.

    Internal vertices hold a classical tree-structured variable written in
    a random local basis; each leaf holds a mixed state chosen by its
    neighbour's value.  Every separator then splits the state into the
    block form of zero conditional mutual information.
    """
    n = len(dims)
    adj = {v: [] for v in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    internal = [v for v in range(n) if len(adj[v]) > 1]
    if not internal:
        raise ValueError("tree needs an internal vertex")
    root = internal[0]
    parent, order, stack = {root: None}, [root], [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in internal and w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)

    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    row = [next(letters) for _ in range(n)]
    col = [next(letters) for _ in range(n)]
    var = {v: next(letters) for v in internal}
    terms, operands = [], []

    root_p = rng.uniform(0.3, 1.0, dims[root])
    terms.append(var[root])
    operands.append(root_p / root_p.sum())
    for v in order[1:]:
        # a noisy copy channel: strong, distinct correlations along edges
        dp, dv = dims[parent[v]], dims[v]
        keep = rng.uniform(0.55, 0.8)
        chan = (1 - keep) * rng.dirichlet(np.ones(dv), size=dp)
        chan[np.arange(dp), np.arange(dp) % dv] += keep
        terms.append(var[parent[v]] + var[v])
        operands.append(chan)
    for v in range(n):
        if v in var:
            u = haar_unitary(rng, dims[v])
            proj = np.einsum("ix,jx->xij", u, u.conj())
            terms.append(var[v] + row[v] + col[v])
            operands.append(proj)
        else:
            p = adj[v][0]
            leaf = np.stack([ginibre(rng, dims[v]) for _ in range(dims[p])])
            terms.append(var[p] + row[v] + col[v])
            operands.append(leaf)
    spec = ",".join(terms) + "->" + "".join(row) + "".join(col)
    d = int(math.prod(dims))
    rho = np.einsum(spec, *operands, optimize="greedy").reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def tree_margin(weights: dict, edges) -> float:
    """How far ``edges`` is from losing its place as the unique maximum
    spanning tree: min over non-edges (u, v) of (smallest weight on the
    tree path u..v) - weight(u, v).  Positive means unique."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)

    def path_min(u, v):
        stack = [(u, None, math.inf)]
        while stack:
            x, prev, low = stack.pop()
            if x == v:
                return low
            for y in adj[x]:
                if y != prev:
                    stack.append((y, x, min(low, weights[tuple(sorted((x, y)))])))
        raise ValueError("edges do not connect the vertices")

    tree = set(edges)
    return min(
        (path_min(u, v) - w for (u, v), w in weights.items() if (u, v) not in tree),
        default=math.inf,
    )


def pair_weights(rho: np.ndarray, dims) -> dict:
    """Mutual information of every vertex pair, keyed (i, j) with i < j."""
    return {
        (i, j): mutual_info(rho, dims, [i], [j])
        for i, j in itertools.combinations(range(len(dims)), 2)
    }


# ---------------------------------------------------------------------------
# operator files: {"labels", "dims", "matrix": rows of [re, im]}

def write_operator_json(path, labels, dims, matrix: np.ndarray):
    m = np.asarray(matrix, dtype=complex)
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m.tolist()]
    with open(path, "w") as fh:
        json.dump({"labels": list(labels), "dims": list(dims), "matrix": rows}, fh)
        fh.write("\n")


def read_operator_json(path):
    """Parse an operator file into (labels, dims, matrix) with no help from
    qmctree; raises ValueError on any departure from the format."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or set(data) != {"labels", "dims", "matrix"}:
        raise ValueError(f"{path}: not an operator object")
    labels, dims = tuple(data["labels"]), tuple(int(d) for d in data["dims"])
    d = int(math.prod(dims))
    m = np.asarray(data["matrix"], dtype=float)
    if len(labels) != len(dims) or m.shape != (d, d, 2):
        raise ValueError(f"{path}: shape {m.shape} does not match dims {dims}")
    return labels, dims, m[..., 0] + 1j * m[..., 1]
