"""The four workloads: inputs made from a seed, one operation, its checks.

Each workload builds a pool of cases in ``setup`` (timed as set-up), runs
one fixed bundle per ``op`` call (timed), and checks every result in
``check`` against ``oracle`` or a property the method must have (untimed).
Operation k uses case k mod pool size, so every operation of a workload
has the same make-up and cost.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import numpy as np

import oracle as o

LABELS = "ABCDEFGHIJ"
CMI_ZERO = 1e-9      # oracle I(A:C|B) at or below this counts as zero
CMI_POSITIVE = 1e-3  # generic states must clear this to count as > 0
EXACT = 1e-8         # trace distance for "equals" on exact methods
MAXENT_TOL = 1e-6    # the dual solver's own residual tolerance
# Newton's cost depends on how close the spectrum comes to 0.  Mixing this
# weight of I/d into every state that reaches the dual solver keeps its
# iteration count nearly the same for every draw (a maxent_diagram bundle:
# 131-136 iterations, against 150-175 without it), so runs compare the
# code and not the draw
FLOOR = 0.25


def _layout(q, labels, dims):
    return q.SubsystemLayout(tuple(labels), tuple(dims))


def _pair_states(q, rho, dims):
    """(rho_AB, rho_BC) of a tripartite array as DensityOperators."""
    ab = q.DensityOperator(_layout(q, "AB", dims[:2]), o.ptrace(rho, dims, [0, 1]))
    bc = q.DensityOperator(_layout(q, "BC", dims[1:]), o.ptrace(rho, dims, [1, 2]))
    return ab, bc


def _close(problems, what, value, tol):
    if not value <= tol:
        problems.append(f"{what}: {value:.3e} > {tol:.1e}")


def _tripartite_case(rng, da, blocks, dc, compatible, floor=0.0):
    db = sum(l * r for l, r in blocks)
    dims = (da, db, dc)
    rho = (o.markov_chain(rng, da, blocks, dc, floor) if compatible
           else o.ginibre(rng, da * db * dc, floor))
    return {"dims": dims, "rho": rho, "compatible": compatible}


def _check_cmi_class(problems, case):
    """The oracle's I(A:C|B) must sit clearly on the side the generator
    intended; a borderline input would make the verdict check moot."""
    if "cmi" not in case:
        case["cmi"] = o.cmi(case["rho"], case["dims"], [0], [1], [2])
    if case["compatible"]:
        _close(problems, "oracle I(A:C|B) of a Markov input", case["cmi"], CMI_ZERO)
    elif not case["cmi"] >= CMI_POSITIVE:
        problems.append(f"generic input has I(A:C|B) = {case['cmi']:.3e}")


# ---------------------------------------------------------------------------

class TreeLearn:
    """learn_tree from the joint on 9-vertex globally Markov states."""

    name = "tree_learn"
    # nine qubits: D = 512.  With equal factors every tree shape grows the
    # same sizes in tree_recover, so every seed costs the same
    DIMS = (2,) * 9
    SHAPES = ("path", "star", "caterpillar", "prufer")
    MIN_MARGIN = 1e-3   # nats between the tree and its best rival edge
    WARMUP = 1
    BLAS_THREADS = 2
    TRACE_OPS = 1

    def setup(self, q, rng, workdir):
        cases = []
        for shape in self.SHAPES:
            while True:
                dims = self.DIMS
                edges = o.tree_shape(rng, len(dims), shape)
                rho = o.markov_tree(rng, dims, edges)
                weights = o.pair_weights(rho, dims)
                if o.tree_margin(weights, edges) >= self.MIN_MARGIN:
                    break
            state = q.DensityOperator(_layout(q, LABELS[:len(dims)], dims), rho)
            cases.append({"dims": dims, "edges": edges, "rho": rho,
                          "weights": weights, "state": state})
        return cases

    def op(self, q, case):
        return q.learn_tree(case["state"])

    def check(self, case, learned):
        problems = []
        edges = sorted(tuple(sorted(LABELS.index(v) for v in e))
                       for e in learned.tree.edges)
        if edges != case["edges"]:
            problems.append(f"learned edges {edges} != generating {case['edges']}")
        for (a, b), w in learned.weights.as_dict().items():
            _close(problems, f"I({a}:{b}) vs oracle",
                   abs(w - case["weights"][LABELS.index(a), LABELS.index(b)]), 1e-9)
        _close(problems, "estimator vs true joint",
               o.trace_distance(learned.estimator.matrix, case["rho"]), EXACT)
        gap = learned.gap
        _close(problems, "gap ledger vs gap.total",
               abs(gap.decomposition_sum - gap.total), EXACT)
        return problems


class CompatSweep:
    """check_qmc_compatibility + petz_recover (t = 0 and t != 0) at D <= 32."""

    name = "compat_sweep"
    # (dim A, blocks of B as (dim L, dim R), dim C): D = 8, 12, 16, 32
    CHAINS = [
        (2, ((1, 2),), 2),
        (2, ((1, 1), (1, 2)), 2),
        (2, ((2, 1), (1, 2)), 2),
        (2, ((1, 2), (2, 1)), 4),
    ]
    POOL = 8
    WARMUP = 8
    BLAS_THREADS = 1
    TRACE_OPS = 32

    def setup(self, q, rng, workdir):
        bundles = []
        for _ in range(self.POOL):
            bundle = []
            for (da, blocks, dc), compatible in itertools.product(
                    self.CHAINS, (True, False)):
                case = _tripartite_case(rng, da, blocks, dc, compatible)
                case["t"] = float(rng.choice((-1, 1)) * rng.uniform(0.25, 2.0))
                case["ab"], case["bc"] = _pair_states(q, case["rho"], case["dims"])
                bundle.append(case)
            bundles.append(bundle)
        return bundles

    def op(self, q, bundle):
        return [
            (q.check_qmc_compatibility(c["ab"], c["bc"]),
             q.petz_recover(c["ab"], c["bc"]),
             q.petz_recover(c["ab"], c["bc"], t=c["t"]))
            for c in bundle
        ]

    def check(self, bundle, results):
        problems = []
        for case, (report, plain, rotated) in zip(bundle, results):
            _check_cmi_class(problems, case)
            if report.verdict != case["compatible"]:
                problems.append(
                    f"verdict {report.verdict} on a "
                    f"{'Markov' if case['compatible'] else 'generic'} pair "
                    f"{case['dims']} (oracle CMI {case['cmi']:.3e})")
            dims = case["dims"]
            for res in (plain, rotated):
                _close(problems, "Petz pre-normalization trace - 1",
                       abs(res.pre_normalization_trace - 1.0), 1e-9)
                out = res.state.matrix
                _close(problems, "Petz output BC marginal vs rho_BC",
                       o.within(o.ptrace(out, dims, [1, 2]), case["bc"].matrix, 1e-9),
                       1e-9)
                if case["compatible"]:
                    _close(problems, "Petz output vs Markov joint",
                           o.within(out, case["rho"], EXACT), EXACT)
        return problems


class MaxentDiagram:
    """solve_maxent on marginal_constraints plus diagram_commutes.

    Run by hand (``--workload maxent_diagram``); BENCHMARK.json leaves it
    out.  Its operations take about 5 s each, so one round over its cases
    takes twice a worker's share of a 30 s run, and the maxent layer is
    still timed by cli_session (``recover --method maxent`` and
    ``diagram``).
    """

    name = "maxent_diagram"
    # qubit chain (m = 27) and qutrit chain (m = 152), Markov and generic
    CHAINS = [
        (2, ((1, 1), (1, 1)), 2),
        (3, ((1, 1), (1, 2)), 3),
    ]
    POOL = 4
    WARMUP = 1
    BLAS_THREADS = 2
    TRACE_OPS = 1

    def setup(self, q, rng, workdir):
        bundles = []
        for _ in range(self.POOL):
            bundle = []
            for (da, blocks, dc), compatible in itertools.product(
                    self.CHAINS, (True, False)):
                case = _tripartite_case(rng, da, blocks, dc, compatible, FLOOR)
                case["ab"], case["bc"] = _pair_states(q, case["rho"], case["dims"])
                case["marginals"] = q.MarginalSet(
                    _layout(q, "ABC", case["dims"]), (case["ab"], case["bc"]))
                bundle.append(case)
            bundles.append(bundle)
        return bundles

    def op(self, q, bundle):
        return [
            (q.solve_maxent(q.marginal_constraints(c["marginals"])),
             q.diagram_commutes(c["ab"], c["bc"]))
            for c in bundle
        ]

    def check(self, bundle, results):
        problems = []
        for case, (solution, diagram) in zip(bundle, results):
            _check_cmi_class(problems, case)
            dims, out = case["dims"], solution.state.matrix
            _close(problems, "maxent AB marginal",
                   o.trace_distance(o.ptrace(out, dims, [0, 1]), case["ab"].matrix),
                   MAXENT_TOL)
            _close(problems, "maxent BC marginal",
                   o.trace_distance(o.ptrace(out, dims, [1, 2]), case["bc"].matrix),
                   MAXENT_TOL)
            if case["compatible"]:
                _close(problems, "maxent state vs Markov joint",
                       o.trace_distance(out, case["rho"]), MAXENT_TOL)
            if diagram.commutes != case["compatible"]:
                problems.append(
                    f"diagram commutes={diagram.commutes} on a "
                    f"{'Markov' if case['compatible'] else 'generic'} pair "
                    f"{dims} (max distance {diagram.max_distance:.3e})")
        return problems


class CliSession:
    """Scripted in-process sessions through qmctree.cli.main on files."""

    name = "cli_session"
    TREE_DIMS = (2,) * 7          # D = 128 for `tree --joint`
    # one session, so each command repeats often enough in a run for its
    # median to be steady; the seed varies the session's inputs
    POOL = 1
    SWEEP = 8                     # counterexample samples per sweep
    WARMUP = 12                   # one pass over the script
    BLAS_THREADS = 1
    TRACE_OPS = 12                # one session's script

    def setup(self, q, rng, workdir):
        sessions = []
        for k in range(self.POOL):
            d = os.path.join(workdir, f"s{k}")
            os.makedirs(d, exist_ok=True)
            s = {"dir": d, "seed": int(rng.integers(0, 2**31 - 1))}
            for tag, compatible in (("comp", True), ("gen", False)):
                case = _tripartite_case(rng, 2, ((1, 1), (1, 1)), 2, compatible, FLOOR)
                s[tag] = case
                for pair, keep in (("ab", [0, 1]), ("bc", [1, 2])):
                    path = os.path.join(d, f"{tag}_{pair}.json")
                    o.write_operator_json(path, pair.upper(), (2, 2),
                                          o.ptrace(case["rho"], case["dims"], keep))
                    case[pair + "_path"] = path

            p = rng.uniform(0.05, 1.0, 8)
            s["classical"] = np.diag(p / p.sum()).astype(complex)
            s["classical_path"] = os.path.join(d, "classical.json")
            o.write_operator_json(s["classical_path"], "ABC", (2, 2, 2), s["classical"])

            dims = self.TREE_DIMS
            while True:
                edges = o.tree_shape(rng, len(dims), "prufer")
                rho = o.markov_tree(rng, dims, edges)
                weights = o.pair_weights(rho, dims)
                if o.tree_margin(weights, edges) >= TreeLearn.MIN_MARGIN:
                    break
            labels = LABELS[:len(dims)]
            s.update(tree_rho=rho, tree_edges=edges, tree_weights=weights)
            s["tree_path"] = os.path.join(d, "tree_joint.json")
            o.write_operator_json(s["tree_path"], labels, dims, rho)
            refs = {}
            for i, j in edges:
                path = os.path.join(d, f"edge_{labels[i]}{labels[j]}.json")
                o.write_operator_json(path, labels[i] + labels[j],
                                      (dims[i], dims[j]), o.ptrace(rho, dims, [i, j]))
                refs[f"{labels[i]},{labels[j]}"] = path
            s["desc_path"] = os.path.join(d, "tree.json")
            with open(s["desc_path"], "w") as fh:
                json.dump({"labels": list(labels), "dims": list(dims),
                           "edges": [[labels[i], labels[j]] for i, j in edges],
                           "marginals": refs}, fh)
            sessions.append(s)
        # one operation is one command; the run goes through every
        # session's script in order, again and again
        return [{"session": s, "step": step, "argv": argv}
                for s in sessions for step, argv in self._script(s)]

    def _script(self, s):
        d, comp, gen = s["dir"], s["comp"], s["gen"]
        seed = str(s["seed"])
        return [
            ("sample", ["sample", "--kind", "qmc", "--blocks", "0.5:1:2,0.5:2:1",
                        "--seed", seed, "-o", f"{d}/sample.json",
                        "--marginal", "A,B", "--marginal", "B,C"]),
            ("check_comp", ["check", comp["ab_path"], comp["bc_path"]]),
            ("check_gen", ["check", gen["ab_path"], gen["bc_path"]]),
            ("recover_petz", ["recover", comp["ab_path"], comp["bc_path"],
                              "-o", f"{d}/petz.json"]),
            ("recover_maxent", ["recover", comp["ab_path"], comp["bc_path"],
                                "--method", "maxent", "-o", f"{d}/maxent.json"]),
            ("select", ["select", "--joint", s["classical_path"]]),
            ("diagram_comp", ["diagram", comp["ab_path"], comp["bc_path"]]),
            ("diagram_gen", ["diagram", gen["ab_path"], gen["bc_path"]]),
            ("tree_joint", ["tree", "--joint", s["tree_path"], "-o", f"{d}/est.json"]),
            ("tree_file", ["tree", "--tree-file", s["desc_path"]]),
            ("sweep_generic", ["counterexample", "--samples", str(self.SWEEP),
                               "--seed", seed]),
            ("sweep_qmc", ["counterexample", "--samples", str(self.SWEEP),
                           "--qmc", "--seed", seed]),
        ]

    def op(self, q, case):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = q.cli.main(case["argv"])
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, case, out):
        problems = []
        step, s = case["step"], case["session"]
        got_code, text, err = out
        kv = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)

        def fields(code, keys):
            if got_code != code:
                problems.append(f"{step}: exit {got_code}, expected {code}: {err.strip()}")
            missing = [k for k in keys if k not in kv]
            if missing:
                problems.append(f"{step}: missing fields {missing}")

        def file_vs(path, rho, tol, what):
            _, _, m = o.read_operator_json(path)
            _close(problems, f"{step}: {what}", o.trace_distance(m, rho), tol)

        d = s["dir"]
        if step == "sample":
            fields(0, ["output", "marginal_AB", "marginal_BC"])
            _, dims, joint = o.read_operator_json(f"{d}/sample.json")
            w = o.eigvalsh(joint)
            _close(problems, "sample: negative eigenvalue", -float(w.min()), 1e-12)
            _close(problems, "sample: trace - 1", abs(float(w.sum()) - 1.0), 1e-9)
            _close(problems, "sample: I(A:C|B)", o.cmi(joint, dims, [0], [1], [2]),
                   CMI_ZERO)
            for key, keep in (("marginal_AB", [0, 1]), ("marginal_BC", [1, 2])):
                if key in kv:
                    file_vs(kv[key], o.ptrace(joint, dims, keep), 1e-12, key)

        elif step in ("check_comp", "check_gen"):
            pair = s["comp"] if step == "check_comp" else s["gen"]
            _check_cmi_class(problems, pair)
            fields(0 if pair["compatible"] else 1,
                   ["marginal_consistency_residual", "normality_residual",
                    "self_adjoint_residual", "rank_deficient", "verdict"])
            if kv.get("verdict") != str(pair["compatible"]):
                problems.append(f"{step}: verdict={kv.get('verdict')}")

        elif step == "recover_petz":
            fields(0, ["pre_normalization_trace", "output"])
            if "pre_normalization_trace" in kv:
                _close(problems, "recover_petz: trace - 1",
                       abs(float(kv["pre_normalization_trace"]) - 1.0), 1e-9)
            file_vs(f"{d}/petz.json", s["comp"]["rho"], EXACT, "output vs joint")

        elif step == "recover_maxent":
            fields(0, ["residual", "iterations", "log_partition", "output"])
            file_vs(f"{d}/maxent.json", s["comp"]["rho"], MAXENT_TOL, "output vs joint")

        elif step == "select":
            fields(0, ["rule", "chain", "discarded_pair"])
            mi = {p: o.mutual_info(s["classical"], (2, 2, 2), [LABELS.index(p[0])],
                                   [LABELS.index(p[1])]) for p in ("AB", "BC", "AC")}
            if kv.get("rule") != "mutual_information":
                problems.append(f"select: rule={kv.get('rule')} on a classical state")
            if kv.get("discarded_pair") != min(mi, key=mi.get):
                problems.append(f"select: discarded {kv.get('discarded_pair')}, "
                                f"oracle MI {mi}")
            for chain in ("A-B-C", "B-C-A", "B-A-C"):
                x, y, z = chain.split("-")
                want = (mi["".join(sorted(x + y))] + mi["".join(sorted(y + z))])
                got = float(kv.get(f"score_{chain}", "nan"))
                _close(problems, f"select: score_{chain} vs oracle", abs(got - want), 1e-9)

        elif step in ("diagram_comp", "diagram_gen"):
            compatible = step == "diagram_comp"
            fields(0 if compatible else 1,
                   ["distance_two_orders", "distance_first_to_joint",
                    "distance_second_to_joint", "commutes"])
            if kv.get("commutes") != str(compatible):
                problems.append(f"{step}: commutes={kv.get('commutes')}")

        elif step in ("tree_joint", "tree_file"):
            labels = LABELS[:len(self.TREE_DIMS)]
            edge_text = ";".join(labels[i] + labels[j] for i, j in s["tree_edges"])
            gap_keys = ["gap_neg_edge_mutual_info", "gap_neg_delta_s",
                        "gap_sum_vertex_entropies", "gap_neg_joint_entropy"]
            if kv.get("edges") != edge_text:
                problems.append(f"{step}: edges {kv.get('edges')} != {edge_text}")
            if step == "tree_file":
                fields(0, ["edges", "delta_s"])
                _close(problems, "tree_file: |delta_s| on a Markov tree",
                       abs(float(kv.get("delta_s", "nan"))), EXACT)
                return problems
            fields(0, ["edges", "delta_s", "relative_entropy_gap", "output"] + gap_keys)
            if all(k in kv for k in gap_keys + ["relative_entropy_gap"]):
                _close(problems, "tree_joint: gap ledger",
                       abs(sum(float(kv[k]) for k in gap_keys)
                           - float(kv["relative_entropy_gap"])), EXACT)
            for (i, j), w in s["tree_weights"].items():
                got = float(kv.get(f"mutual_info_{labels[i]}{labels[j]}", "nan"))
                _close(problems, f"tree_joint: I({labels[i]}:{labels[j]})",
                       abs(got - w), 1e-9)
            file_vs(f"{d}/est.json", s["tree_rho"], EXACT, "estimator vs joint")

        else:  # sweep_generic, sweep_qmc
            fields(0, ["samples", "failures", "failure_frequency"])
            failures = self.SWEEP if step == "sweep_generic" else 0
            if kv.get("failures") != str(failures):
                problems.append(f"{step}: failures={kv.get('failures')}, "
                                f"expected {failures}")
        return problems


WORKLOADS = {w.name: w for w in (TreeLearn(), CompatSweep(), MaxentDiagram(), CliSession())}
