"""Command-line front end.

Exit status contract: 0 success (or positive verdict), 1 negative verdict,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .fileio import read_density, read_tree_description, write_density
from .layout import SubsystemLayout
from .maxent import (
    ConstraintSet,
    ConvergenceError,
    InfeasibleConstraintsError,
    diagram_commutes,
    solve_maxent,
)
from .recovery import (
    DEFAULT_EPS_MARGINAL,
    DEFAULT_EPS_NORMALITY,
    IncompatiblePairsError,
    RecoveryError,
    best_pair_min_entropy,
    best_pair_mutual_info,
    chain_pairs,
    chains_in_tie_order,
    check_qmc_compatibility,
    compose_layouts,
    petz_recover,
)
from .states import QmcSpec, pairwise_marginals, sample_density, sample_qmc
from .tree import (
    TreeRecoveryError,
    delta_s,
    learn_tree,
    tree_recover,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _emit(pairs):
    for key, value in pairs:
        if isinstance(value, float):
            print(f"{key}={value:.17g}")
        else:
            print(f"{key}={value}")


def _parse_dims(text: str):
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad dims {text!r}; expected e.g. 2,2,2")
    return dims


def cmd_check(args) -> int:
    rho_ab = read_density(args.ab)
    rho_bc = read_density(args.bc)
    report = check_qmc_compatibility(rho_ab, rho_bc, args.tol_marginal, args.tol_normality)
    _emit([
        ("marginal_consistency_residual", report.marginal_consistency_residual),
        ("normality_residual", report.normality_residual),
        ("self_adjoint_residual", report.self_adjoint_residual),
        ("rank_deficient", report.rank_deficient),
        ("verdict", report.verdict),
    ])
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def cmd_recover(args) -> int:
    rho_ab = read_density(args.ab)
    rho_bc = read_density(args.bc)
    if args.method == "petz":
        result = petz_recover(rho_ab, rho_bc, t=args.t, eps_m=args.tol_marginal)
        state = result.state
        _emit([("pre_normalization_trace", result.pre_normalization_trace)])
    else:
        _, _, _, layout = compose_layouts(rho_ab, rho_bc)
        constraints = ConstraintSet(layout, (rho_ab, rho_bc), args.tol_marginal)
        solution = solve_maxent(constraints)
        state = solution.state
        _emit([
            ("residual", solution.residual),
            ("iterations", solution.iterations),
            ("log_partition", solution.log_partition),
        ])
    write_density(args.output, state)
    _emit([("output", args.output)])
    return EXIT_OK


def cmd_select(args) -> int:
    if args.joint:
        # best_pair_mutual_info rejects a joint without exactly three labels
        marginals = pairwise_marginals(read_density(args.joint))
    else:
        marginals = {}
        for path in args.pairs:
            m = read_density(path)
            if len(m.labels) != 2:
                raise RecoveryError(f"{path}: expected a bipartite marginal")
            marginals[tuple(sorted(m.labels))] = m
    try:
        selection = best_pair_mutual_info(marginals, args.tol_marginal, args.tol_normality)
        rule = "mutual_information"
    except IncompatiblePairsError as err:
        print(f"warning: {err}; falling back to min-entropy selection",
              file=sys.stderr)
        labels = tuple(sorted({l for p in marginals for l in p}))
        estimators = {}
        for chain in chains_in_tie_order(labels):
            p1, p2 = chain_pairs(chain)
            try:
                estimators[chain] = petz_recover(
                    marginals[p1], marginals[p2], eps_m=args.tol_marginal
                ).state
            except RecoveryError:
                continue
        selection = best_pair_min_entropy(marginals, estimators)
        rule = "min_entropy"
    _emit([("rule", rule), ("chain", "-".join(selection.chain)),
           ("discarded_pair", "".join(selection.discarded_pair))])
    for chain, score in selection.scores.items():
        _emit([(f"score_{'-'.join(chain)}", score)])
    if args.output:
        write_density(args.output, selection.estimator)
        _emit([("output", args.output)])
    return EXIT_OK


def cmd_tree(args) -> int:
    if args.joint:
        learned = learn_tree(read_density(args.joint), eps_m=args.tol_marginal)
        tree, estimator, ds = learned.tree, learned.estimator, learned.delta_s_report
        for pair, weight in learned.weights.as_dict().items():
            _emit([(f"mutual_info_{''.join(pair)}", weight)])
        gap = learned.gap
        if gap is not None:
            _emit([
                ("relative_entropy_gap", gap.total),
                ("gap_neg_edge_mutual_info", gap.neg_edge_mutual_info),
                ("gap_neg_delta_s", gap.neg_delta_s),
                ("gap_sum_vertex_entropies", gap.sum_vertex_entropies),
                ("gap_neg_joint_entropy", gap.neg_joint_entropy),
            ])
    else:
        tree = read_tree_description(args.tree_file)
        estimator = tree_recover(tree, args.tol_marginal).state
        ds = delta_s(tree, estimator)
    _emit([("edges", ";".join("".join(e) for e in tree.edges)),
           ("delta_s", ds.delta_s)])
    for leaf, term in ds.terms:
        _emit([(f"delta_s_term_{leaf}", term)])
    if args.output:
        write_density(args.output, estimator)
        _emit([("output", args.output)])
    return EXIT_OK


def cmd_diagram(args) -> int:
    rho_ab = read_density(args.ab)
    rho_bc = read_density(args.bc)
    report = diagram_commutes(rho_ab, rho_bc, tol=args.tol)
    _emit([
        ("distance_two_orders", report.distance_two_orders),
        ("distance_first_to_joint", report.distance_first_to_joint),
        ("distance_second_to_joint", report.distance_second_to_joint),
        ("commutes", report.commutes),
    ])
    return EXIT_OK if report.commutes else EXIT_NEGATIVE


def cmd_counterexample(args) -> int:
    if args.samples < 0:
        raise ValueError("sample count must be >= 0")
    dims = _parse_dims(args.dims)
    if len(dims) != 3:
        raise ValueError("counterexample search needs a tripartite layout")
    layout = SubsystemLayout(("A", "B", "C"), dims)
    spec = QmcSpec(dims[0], dims[2], ((1.0, 1, dims[1]),)) if args.qmc else None
    rng = np.random.default_rng(args.seed)
    seeds = rng.integers(0, 2**63 - 1, size=args.samples)
    failures = 0
    first_failure = None
    for index, sample_seed in enumerate(seeds):
        if args.qmc:
            joint = sample_qmc(spec, seed=int(sample_seed))
        else:
            joint = sample_density(layout, seed=int(sample_seed))
        report = check_qmc_compatibility(
            joint.marginal(("A", "B")), joint.marginal(("B", "C")),
            args.tol_marginal, args.tol_normality,
        )
        if not report.verdict:
            failures += 1
            if first_failure is None:
                first_failure = (index, int(sample_seed))
    _emit([
        ("samples", args.samples),
        ("failures", failures),
        ("failure_frequency",
         failures / args.samples if args.samples else 0.0),
        ("first_failing_index",
         first_failure[0] if first_failure else "none"),
        ("first_failing_seed",
         first_failure[1] if first_failure else "none"),
    ])
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.kind == "random":
        layout = SubsystemLayout(
            tuple(args.labels.split(",")), _parse_dims(args.dims)
        )
        state = sample_density(layout, rank=args.rank, seed=args.seed)
    else:
        blocks = []
        for chunk in args.blocks.split(","):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ValueError(f"bad block {chunk!r}; expected p:dimL:dimR")
            blocks.append((float(parts[0]), int(parts[1]), int(parts[2])))
        spec = QmcSpec(args.dim_a, args.dim_c, tuple(blocks))
        state = sample_qmc(spec, seed=args.seed)
    write_density(args.output, state)
    _emit([("output", args.output)])
    for pair in args.marginal or []:
        labels = tuple(pair.split(","))
        out = f"{args.output}.{''.join(labels)}.json"
        write_density(out, state.marginal(labels))
        _emit([(f"marginal_{''.join(labels)}", out)])
    return EXIT_OK


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmctree",
        description="Reconstruction of multipartite density operators from "
                    "tree-structured bipartite marginals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    # each subcommand takes only the tolerance flags it reads
    marginal_tol = argparse.ArgumentParser(add_help=False)
    marginal_tol.add_argument(
        "--tol-marginal", type=float, default=DEFAULT_EPS_MARGINAL,
        help="trace-distance tolerance for overlap consistency")
    both_tols = argparse.ArgumentParser(add_help=False, parents=[marginal_tol])
    both_tols.add_argument(
        "--tol-normality", type=float, default=DEFAULT_EPS_NORMALITY,
        help="normalized Frobenius tolerance for normality")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[both_tols],
                       help="compatibility test for two overlapping marginals")
    p.add_argument("ab")
    p.add_argument("bc")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("recover", parents=[marginal_tol],
                       help="recover a joint state from two marginals")
    p.add_argument("ab")
    p.add_argument("bc")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--t", type=float, default=0.0,
                   help="rotation parameter of the recovery map")
    p.add_argument("--method", choices=("petz", "maxent"), default="petz")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("select", parents=[both_tols],
                       help="best-two-of-three marginal selection")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pairs", nargs=3, metavar="FILE")
    group.add_argument("--joint", metavar="FILE")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("tree", parents=[marginal_tol],
                       help="learn or recover a spanning-tree estimator")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--joint", metavar="FILE")
    group.add_argument("--tree-file", metavar="FILE",
                       help="JSON tree description with marginal file references")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("diagram", help="sequential-update commutativity test")
    p.add_argument("ab")
    p.add_argument("bc")
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("counterexample", parents=[both_tols],
                       help="sample joints and report compatibility failures")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="2,2,2")
    p.add_argument("--qmc", action="store_true",
                   help="sample structured states instead of generic ones")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("sample", help="generate state fixtures")
    p.add_argument("--kind", choices=("random", "qmc"), default="random")
    p.add_argument("--labels", default="A,B,C")
    p.add_argument("--dims", default="2,2,2")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--dim-a", type=int, default=2)
    p.add_argument("--dim-c", type=int, default=2)
    p.add_argument("--blocks", default="1.0:1:2",
                   help="comma-separated p:dimL:dimR block list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--marginal", action="append", metavar="LABELS",
                   help="also write the marginal on these labels (e.g. A,B)")
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TreeRecoveryError, ConvergenceError, InfeasibleConstraintsError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except ValueError as err:  # every qmctree input error is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
