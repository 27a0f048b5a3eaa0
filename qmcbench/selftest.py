"""Self-test of the benchmark's oracle (no qmctree involved).

    python3 qmcbench/selftest.py

Shows that the generated states have conditional mutual information ~ 0
across every separator they are built to have, that generic states do
not, that the partial trace inverts ``kron`` products, and that operator
files round-trip exactly.  Exits 1 on the first failed property.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import numpy as np

import oracle as o

ZERO = 1e-10


def require(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def components_without(edges, v, n):
    """Vertex sets of the tree with vertex v removed."""
    adj = {k: set() for k in range(n)}
    for a, b in edges:
        if v not in (a, b):
            adj[a].add(b)
            adj[b].add(a)
    seen, parts = {v}, []
    for start in range(n):
        if start in seen:
            continue
        part, stack = [], [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            part.append(x)
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        parts.append(sorted(part))
    return parts


def main():
    rng = np.random.default_rng(2024)

    # partial trace against kron products, on every subset of three factors
    dims = (2, 3, 2)
    factors = [o.ginibre(rng, d) for d in dims]
    full = np.kron(np.kron(factors[0], factors[1]), factors[2])
    worst = 0.0
    for r in range(1, 4):
        for keep in itertools.combinations(range(3), r):
            want = factors[keep[0]]
            for k in keep[1:]:
                want = np.kron(want, factors[k])
            worst = max(worst, float(np.max(np.abs(o.ptrace(full, dims, keep) - want))))
    require(worst < 1e-14, f"ptrace inverts kron on all subsets (max error {worst:.1e})")

    # Markov chains: I(A:C|B) = 0; Ginibre states: clearly positive
    for da, blocks, dc in [(2, ((1, 2),), 2), (2, ((1, 1), (1, 2)), 3),
                           (3, ((2, 1), (1, 2)), 2), (3, ((1, 1), (1, 2)), 3)]:
        db = sum(l * r for l, r in blocks)
        rho = o.markov_chain(rng, da, blocks, dc)
        w = o.eigvalsh(rho)
        require(w.min() > -ZERO and abs(w.sum() - 1) < ZERO,
                f"markov_chain {da},{blocks},{dc} is a density operator")
        value = o.cmi(rho, (da, db, dc), [0], [1], [2])
        require(abs(value) < ZERO, f"markov_chain {da},{blocks},{dc}: I(A:C|B) = {value:.1e}")
        g = o.ginibre(rng, da * db * dc)
        value = o.cmi(g, (da, db, dc), [0], [1], [2])
        require(value > 1e-3, f"ginibre {da},{db},{dc}: I(A:C|B) = {value:.3f}")

    # Markov trees: every vertex separates its components
    for shape in ("path", "star", "caterpillar", "prufer"):
        n = 6
        dims = tuple(rng.permutation((2, 2, 2, 2, 2, 3)).tolist())
        edges = o.tree_shape(rng, n, shape)
        require(len(edges) == n - 1 and len(components_without(edges, -1, n)) == 1,
                f"{shape} tree spans {n} vertices")
        rho = o.markov_tree(rng, dims, edges)
        worst = 0.0
        for v in range(n):
            parts = components_without(edges, v, n)
            if len(parts) < 2:
                continue  # a leaf separates nothing
            for part in parts:
                rest = [k for k in range(n) if k != v and k not in part]
                worst = max(worst, abs(o.cmi(rho, dims, part, [v], rest)))
        require(worst < ZERO, f"{shape} tree: max separator CMI {worst:.1e}")
        margin = o.tree_margin(o.pair_weights(rho, dims), edges)
        print(f"   {shape} tree: max-spanning-tree margin {margin:.3e} nats")

    # operator files round-trip bit-exactly
    rho = o.ginibre(rng, 6)
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
    os.makedirs(work, exist_ok=True)
    path = os.path.join(work, f"selftest-{os.getpid()}.json")
    try:
        o.write_operator_json(path, "AB", (2, 3), rho)
        labels, dims, back = o.read_operator_json(path)
    finally:
        os.remove(path)
    require(labels == ("A", "B") and dims == (2, 3) and np.array_equal(back, rho),
            "operator file round trip is exact")

    # entropy and trace distance on closed forms
    p = np.array([0.5, 0.3, 0.2])
    require(abs(o.entropy(np.diag(p)) + float(np.sum(p * np.log(p)))) < 1e-14,
            "entropy of a diagonal state")
    require(abs(o.trace_distance(np.diag([1.0, 0]), np.diag([0, 1.0])) - 1) < 1e-14
            and abs(o.entropy(np.eye(4) / 4) - math.log(4)) < 1e-14,
            "trace distance of orthogonal states, entropy of the maximally mixed state")


if __name__ == "__main__":
    main()
