"""Acceptance suite: ten end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion, each at its stated tolerance.
"""

import itertools
import math
import time

import numpy as np

from qmctree import (
    DensityOperator,
    MarginalSet,
    QmcSpec,
    QuantumTree,
    SubsystemLayout,
    best_pair_min_entropy,
    best_pair_mutual_info,
    check_qmc_compatibility,
    classical_state,
    conditional_mutual_information,
    delta_s,
    diagram_commutes,
    embed,
    learn_tree,
    marginal_constraints,
    matrix_function,
    mutual_information,
    partial_trace,
    petz_recover,
    relative_entropy,
    relative_entropy_gap,
    sample_density,
    sample_markov_path,
    sample_markov_tree,
    sample_qmc,
    solve_maxent,
    trace_distance,
    tree_recover,
    von_neumann_entropy,
)
from qmctree.linalg import frobenius
from qmctree.maxent import (
    _dual_value,
    _gibbs,
    _mismatch,
    _unit_stack,
    expectation_constraints,
)
from qmctree.recovery import chain_pairs, chains_in_tie_order
from qmctree.tree import enumerate_spanning_trees, pairwise_marginals

from conftest import classical_chain, random_conditional

L3Q = SubsystemLayout(("A", "B", "C"), (2, 2, 2))
L4 = SubsystemLayout(("A", "B", "C", "D"), (2, 2, 2, 2))


def qmc_specs(n, rng):
    """Seeded stream of structured specs: qubit ends, middle dim 2 or 4."""
    out = []
    for _ in range(n):
        if rng.integers(2):
            blocks = ((1.0, 1, 2),) if rng.integers(2) else ((1.0, 2, 1),)
        else:
            p = float(rng.uniform(0.2, 0.8))
            blocks = ((p, 1, 2), (1 - p, 2, 1))
        out.append(QmcSpec(2, 2, blocks))
    return out


def random_chain(rng):
    p = float(rng.uniform(0.2, 0.8))
    return classical_chain(
        np.array([p, 1 - p]),
        random_conditional(rng, 2, 2),
        random_conditional(rng, 2, 2),
    )


def test_criterion_01_qmc_roundtrip():
    """100 structured states: Petz on the extracted marginals reproduces the
    joint within 1e-8 trace distance and CMI is at most 1e-8."""
    rng = np.random.default_rng(1001)
    worst_dist, worst_cmi = 0.0, 0.0
    for spec in qmc_specs(100, rng):
        state = sample_qmc(spec, seed=rng)
        recovered = petz_recover(
            state.marginal(("A", "B")), state.marginal(("B", "C"))
        ).state
        worst_dist = max(
            worst_dist, trace_distance(recovered.matrix, state.matrix)
        )
        worst_cmi = max(worst_cmi, abs(conditional_mutual_information(
            state, ("A",), ("B",), ("C",)
        )))
    print(f"criterion 1: max roundtrip distance {worst_dist:.3e}, "
          f"max CMI {worst_cmi:.3e}")
    assert worst_dist <= 1e-8
    assert worst_cmi <= 1e-8


def test_criterion_02_compatibility_iff():
    """The same 100 structured pairs all pass the normality test; 100
    generic 3-qubit states fail it with frequency at least 0.9."""
    rng = np.random.default_rng(1001)
    for spec in qmc_specs(100, rng):
        state = sample_qmc(spec, seed=rng)
        report = check_qmc_compatibility(
            state.marginal(("A", "B")), state.marginal(("B", "C"))
        )
        assert report.verdict, "structured pair unexpectedly failed"
    rng = np.random.default_rng(1002)
    failures = 0
    for _ in range(100):
        joint = sample_density(L3Q, seed=rng)
        report = check_qmc_compatibility(
            joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        )
        if not report.verdict:
            failures += 1
    print(f"criterion 2: generic failure frequency {failures}/100")
    assert failures >= 90
    assert failures >= 1  # strict inclusion: at least one counterexample


def test_criterion_03_maxent_equals_petz():
    """20 structured cases at joint dimension 8: the dual solver matches the
    Petz output within 1e-6 trace distance in at most 10 s per case."""
    rng = np.random.default_rng(1003)
    worst_dist, worst_time = 0.0, 0.0
    for i in range(20):
        p = float(rng.uniform(0.2, 0.8))
        blocks = ((1.0, 1, 2),) if i % 2 else ((p, 1, 1), (1 - p, 1, 1))
        state = sample_qmc(QmcSpec(2, 2, blocks), seed=rng)
        assert state.layout.dim == 8
        ab, bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        start = time.monotonic()
        solution = solve_maxent(
            marginal_constraints(MarginalSet(state.layout, (ab, bc)))
        )
        elapsed = time.monotonic() - start
        petz = petz_recover(ab, bc).state
        worst_dist = max(
            worst_dist, trace_distance(solution.state.matrix, petz.matrix)
        )
        worst_time = max(worst_time, elapsed)
        assert solution.residual <= 1e-6
        assert elapsed <= 10.0
    print(f"criterion 3: max distance to Petz {worst_dist:.3e}, "
          f"max solve time {worst_time:.2f}s")
    assert worst_dist <= 1e-6


def test_criterion_04_diagram_iff():
    """Sequential updates commute (distances <= 1e-5) on 20 structured
    cases, fail (> 1e-3) on at least 18 of 20 generic cases, and the boolean
    always agrees with the normality verdict."""
    rng = np.random.default_rng(1004)
    for spec in qmc_specs(20, rng):
        state = sample_qmc(spec, seed=rng)
        ab, bc = state.marginal(("A", "B")), state.marginal(("B", "C"))
        report = diagram_commutes(ab, bc)
        assert report.commutes and report.max_distance <= 1e-5
        assert check_qmc_compatibility(ab, bc).verdict == report.commutes
    noncommuting = 0
    for _ in range(20):
        joint = sample_density(L3Q, seed=rng)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        report = diagram_commutes(ab, bc)
        if not report.commutes and report.max_distance > 1e-3:
            noncommuting += 1
        assert check_qmc_compatibility(ab, bc).verdict == report.commutes
    print(f"criterion 4: generic non-commuting {noncommuting}/20")
    assert noncommuting >= 18


def test_criterion_05_selection_consistency():
    """On 50 classical chains (all three pairs compatible) both selection
    rules agree and pick the candidate of minimum relative entropy."""
    rng = np.random.default_rng(1005)
    for _ in range(50):
        joint = random_chain(rng)
        marginals = {
            pair: joint.marginal(pair)
            for pair in [("A", "B"), ("B", "C"), ("A", "C")]
        }
        by_mi = best_pair_mutual_info(joint)  # raises if any pair fails
        estimators, gaps = {}, {}
        for chain in chains_in_tie_order(("A", "B", "C")):
            p1, p2 = chain_pairs(chain)
            est = petz_recover(
                marginals[p1], marginals[p2], target=joint.layout
            ).state
            estimators[chain] = est
            gaps[chain] = relative_entropy(joint, est)
        by_entropy = best_pair_min_entropy(marginals, estimators)
        assert by_mi.chain == by_entropy.chain
        assert gaps[by_mi.chain] <= min(gaps.values()) + 1e-12
    print("criterion 5: 50/50 selections agree and minimize the gap")


def test_criterion_06_gap_ledger():
    """Four-term decomposition sums to the direct relative entropy within
    1e-7 on 20 compatible estimators; the conditional term vanishes within
    1e-7 whenever the normality verdict is true."""
    rng = np.random.default_rng(1006)
    worst_sum = 0.0
    for i in range(20):
        if i % 2:
            joint = sample_qmc(QmcSpec(2, 2, ((1.0, 1, 2),)), seed=rng)
        else:
            joint = sample_density(L3Q, seed=rng)
        ab, bc = joint.marginal(("A", "B")), joint.marginal(("B", "C"))
        estimator = solve_maxent(
            marginal_constraints(MarginalSet(joint.layout, (ab, bc)))
        ).state
        gap = relative_entropy_gap(joint, estimator, ("A", "B", "C"))
        direct = relative_entropy(joint, estimator)
        worst_sum = max(worst_sum, abs(gap.total - direct))
        if check_qmc_compatibility(ab, bc).verdict:
            assert abs(gap.neg_estimator_cmi) <= 1e-7
    print(f"criterion 6: max decomposition error {worst_sum:.3e}")
    assert worst_sum <= 1e-7


def test_criterion_07_chow_liu_optimality():
    """50 five-vertex runs: the learned tree equals the generating tree and
    attains the brute-force maximum weight-sum and minimum relative entropy
    over all 125 spanning trees."""
    labels = tuple("ABCDE")
    layout = SubsystemLayout(labels, (2,) * 5)
    all_trees = list(enumerate_spanning_trees(labels))
    assert len(all_trees) == 125
    rng = np.random.default_rng(1007)
    shapes = [
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")],
        [("A", "B"), ("B", "C"), ("B", "D"), ("D", "E")],
        [("A", "C"), ("B", "C"), ("C", "D"), ("C", "E")],
    ]
    matches = 0
    for run in range(50):
        edges = shapes[run % len(shapes)]
        if run % 2:
            # diagonal tree-structured state
            state = _classical_tree_state(layout, edges, rng)
        else:
            state = sample_markov_tree(layout, edges, seed=rng)
        learned = learn_tree(state)
        generating = tuple(sorted(tuple(sorted(e)) for e in edges))
        if learned.tree.edges == generating:
            matches += 1
        # brute-force weight-sum maximality
        mi = learned.weights.as_dict()
        learned_weight = sum(mi[e] for e in learned.tree.edges)
        best_weight = max(sum(mi[e] for e in t) for t in all_trees)
        assert learned_weight >= best_weight - 1e-12
        # brute-force relative-entropy minimality
        best_gap = math.inf
        marginals = pairwise_marginals(state)
        for t in all_trees:
            tree = QuantumTree(layout, t, {e: marginals[e] for e in t})
            est = tree_recover(tree, strict=False).state
            best_gap = min(best_gap, relative_entropy(state, est))
        assert learned.gap.total <= best_gap + 1e-7
    print(f"criterion 7: exact tree match {matches}/50")
    assert matches == 50


def _classical_tree_state(layout, edges, rng):
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
    p_root = float(rng.uniform(0.2, 0.8))
    conds = {v: random_conditional(rng, 2, 2) for v in order[1:]}
    table = np.zeros((2,) * len(labels))
    for config in np.ndindex(*(2,) * len(labels)):
        x = dict(zip(labels, config))
        p = p_root if x[root] == 0 else 1 - p_root
        for v in order[1:]:
            p *= conds[v][x[parent[v]], x[v]]
        table[config] = p
    return classical_state(layout, table)


def test_criterion_08_tree_log_identity_and_delta_s():
    """20 four-vertex Markov trees: the recovered log matches the edge-minus-
    vertex log combination within 1e-6, the entropy gap and every leaf term
    are at most 1e-7; 20 non-Markov inputs give a positive gap above -1e-8."""
    rng = np.random.default_rng(1008)
    shapes = [
        [("A", "B"), ("B", "C"), ("C", "D")],
        [("A", "B"), ("B", "C"), ("B", "D")],
    ]
    for run in range(20):
        edges = shapes[run % 2]
        state = sample_markov_tree(L4, edges, seed=rng)
        tree = QuantumTree(
            L4, edges,
            {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
        )
        result = tree_recover(tree)
        combo = np.zeros((16, 16), dtype=complex)
        for e in tree.edges:
            m = tree.edge_marginals[e]
            combo += embed(
                matrix_function(m.matrix, "log"), m.layout, L4
            )
        for v in L4.labels:
            deg = tree.degree(v)
            if deg > 1:
                m = tree.vertex_marginal(v)
                combo -= (deg - 1) * embed(
                    matrix_function(m.matrix, "log"), m.layout, L4
                )
        if not result.rank_deficient:
            log_out = matrix_function(result.state.matrix, "log")
            assert frobenius(log_out - combo) <= 1e-6
        report = delta_s(tree, result.state)
        assert report.delta_s <= 1e-7
        assert all(t <= 1e-7 for _, t in report.terms)
    for run in range(20):
        joint = sample_density(L4, seed=rng)
        edges = shapes[run % 2]
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
    print("criterion 8: 20 Markov and 20 non-Markov four-vertex cases pass")


def test_criterion_09_numerical_calculus():
    """SSA on 1000 random tripartite states; dual gradient versus central
    finite differences within 1e-5 relative; partial-trace/embed adjointness
    within 1e-10 on 100 operator pairs."""
    rng = np.random.default_rng(1009)
    worst_cmi = 0.0
    for _ in range(1000):
        rho = sample_density(L3Q, seed=rng)
        worst_cmi = min(
            worst_cmi,
            conditional_mutual_information(rho, ("A",), ("B",), ("C",)),
        )
    print(f"criterion 9: min CMI over 1000 states {worst_cmi:.3e}")
    assert worst_cmi >= -1e-9

    # the gradient Tr_rest rho - rho_AB in the Hermitian multiplier Lambda
    # of the AB marginal, along a random Hermitian direction Delta
    layout = SubsystemLayout(("A", "B"), (2, 2))
    cs = expectation_constraints(layout, (sample_density(layout, seed=rng),))
    targets = cs.marginals[0].matrix.ravel()
    base = np.zeros((4, 4), dtype=complex)
    eps = 1e-6

    def hermitian():
        x = rng.uniform(-0.5, 0.5, (4, 4)) + 1j * rng.uniform(-0.5, 0.5, (4, 4))
        return ((x + x.conj().T) / 2).ravel()

    for _ in range(20):
        lam, delta = hermitian(), hermitian()
        _, _, _, v, ew, z = _gibbs(base, cs, lam)
        grad = _mismatch(_unit_stack(cs, v), ew, z, targets)
        _, lz_u, *_ = _gibbs(base, cs, lam + eps * delta)
        _, lz_d, *_ = _gibbs(base, cs, lam - eps * delta)
        fd = (
            _dual_value(lz_u, lam + eps * delta, targets)
            - _dual_value(lz_d, lam - eps * delta, targets)
        ) / (2 * eps)
        slope = np.vdot(grad, delta).real
        assert abs(slope - fd) / max(abs(fd), 1e-3) < 1e-5

    sub = SubsystemLayout(("A", "C"), (2, 2))
    for _ in range(100):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = np.trace(embed(x, sub, L3Q).conj().T @ y)
        rhs = np.trace(x.conj().T @ partial_trace(y, L3Q, ("A", "C")))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_criterion_10_classical_embedding():
    """Diagonal Markov chains and trees recover their exact classical
    factorizations within 1e-10."""
    rng = np.random.default_rng(1010)
    for _ in range(10):
        chain = random_chain(rng)
        recovered = petz_recover(
            chain.marginal(("A", "B")), chain.marginal(("B", "C"))
        ).state
        assert trace_distance(recovered.matrix, chain.matrix) <= 1e-10
    for edges in (
        [("A", "B"), ("B", "C"), ("C", "D")],
        [("A", "B"), ("B", "C"), ("B", "D")],
    ):
        for _ in range(5):
            state = _classical_tree_state(L4, edges, rng)
            tree = QuantumTree(
                L4, edges,
                {tuple(sorted(e)): state.marginal(sorted(e)) for e in edges},
            )
            out = tree_recover(tree).state
            # probability-space oracle: prod p(edge) / prod p(vertex)^(deg-1)
            diag = np.zeros(16)
            for idx, config in enumerate(np.ndindex(2, 2, 2, 2)):
                x = dict(zip(L4.labels, config))
                value = 1.0
                for e in tree.edges:
                    m = tree.edge_marginals[e]
                    row = x[e[0]] * 2 + x[e[1]]
                    value *= m.matrix[row, row].real
                for v in L4.labels:
                    deg = tree.degree(v)
                    if deg > 1:
                        pv = tree.vertex_marginal(v).matrix[x[v], x[v]].real
                        value /= pv ** (deg - 1)
                diag[idx] = value
            np.testing.assert_allclose(
                np.diag(out.matrix).real, diag, atol=1e-10
            )
            assert trace_distance(out.matrix, state.matrix) <= 1e-10
    print("criterion 10: classical chains and trees recover exactly")
