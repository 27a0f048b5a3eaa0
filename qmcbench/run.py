"""qmctree benchmark: one workload per run, results as one JSON line.

    python3 qmcbench/run.py --workload tree_learn --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; qmctree is imported from its
``src/`` directory and nowhere else.

With ``--trace 0`` the run starts ``WORKERS`` processes one after another.
Each sets up the inputs from the seed, a fresh import included, runs the
workload's ``WARMUP`` operations untimed, and then times whole rounds over
the workload's cases, one operation after another, within its share of
``--seconds`` of wall time.  ``setup_s`` is the median of the workers'
set-up times.  ``latency_p50_ms`` is the mean over the cases of each
case's median time, pooled over the workers.  Each case's median, rather
than one median over a mix of cases, keeps the figure from jumping
between the costs of different cases.

With ``--trace 1`` one worker runs a fixed number of operations (the
workload's ``TRACE_OPS``) as a warm-up, then untraced, then traced, and
prints the per-layer metrics; the fixed work makes every count repeat
exactly, so ``--seconds`` does not apply there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")
WORKER_TIMEOUT_S = 170
WORKERS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def blas_info(np) -> dict:
    """BLAS library and the thread count it reports, where it can say."""
    info = {"requested_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", 0))}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        info["library"] = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["threads"] = int(fn())
                return info
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by the parent for the processes it starts
    parser.add_argument("--role", choices=("measure", "trace"),
                        default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qmctree", "__init__.py")):
        print(f"error: no qmctree source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.role is not None:
        return worker(args, wl)
    # the workers inherit this before their numpy loads; never above the
    # core count
    for var in BLAS_VARS:
        os.environ[var] = str(min(wl.BLAS_THREADS, os.cpu_count() or 1))
    # a terminated run ends its worker too (subprocess.run kills it on the
    # way out)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return parent(args)


# ---------------------------------------------------------------------------
# parent: start the workers one at a time and pool what they report

def run_workers(args, roles):
    """Starts one worker per role, one after another; returns their
    reports, or None after the first that fails."""
    reports = []
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    for role in roles:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / len(roles)),
               "--trace", str(args.trace), "--role", role]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"error: {role} worker exited {proc.returncode}", file=sys.stderr)
            return None
        reports.append(json.loads(lines[-1]))
    return reports


def parent(args) -> int:
    import trace_layers

    roles = ["trace"] if args.trace else ["measure"] * WORKERS
    try:
        reports = run_workers(args, roles)
    finally:
        for left in glob.glob(os.path.join(WORK, f"{args.workload}-{os.getpid()}-*")):
            shutil.rmtree(left, ignore_errors=True)
    if reports is None:
        return 1

    problems = [p for r in reports for p in r["problems"]]
    errors = [e for r in reports for e in r["errors"]]
    if args.trace:
        metrics = reports[0]["metrics"]
        units = {k: u for k, u, _ in trace_layers.PER_LAYER}
    else:
        metrics = timings([op for r in reports for op in r["ops"]],
                          sum(r["busy_s"] for r in reports))
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in reports)
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in reports)
        units = dict(END_TO_END)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    env_record = reports[0]["env"]
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=env_record,
                  all_metrics=metrics, workers=reports)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(
            RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for error in errors[:20]:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} workers={len(reports)} "
          f"numpy={env_record['numpy']} blas={env_record['blas']} "
          f"nproc={env_record['nproc']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timings(ops, busy_s) -> dict:
    """Timing figures of the measured operations (``[case, seconds]``
    pairs).  ``latency_p50_ms`` is the mean over the cases of each case's
    median time; only it is printed.  The mean rate and the mean of the
    cases' fastest times go to the results file."""
    per_case = {}
    for case, t in ops:
        per_case.setdefault(case, []).append(t)
    return {
        "latency_p50_ms": statistics.fmean(map(statistics.median, per_case.values())) * 1e3,
        "latency_min_ms": statistics.fmean(map(min, per_case.values())) * 1e3,
        "ops_per_s": len(ops) / busy_s,
    }


# ---------------------------------------------------------------------------
# worker: one process, one set-up, then the role's work

def worker(args, wl) -> int:
    import numpy as np
    import scipy

    import trace_layers

    # set-up runs from just before `import qmctree` until the inputs are ready
    sys.path.insert(0, SRC)
    # named after the parent too, so that it can remove what a killed
    # worker leaves behind
    workdir = os.path.join(WORK, f"{args.workload}-{os.getppid()}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t = time.perf_counter()
        qmctree = importlib.import_module("qmctree")
        importlib.import_module("qmctree.cli")
        cases = wl.setup(qmctree, np.random.default_rng(args.seed), workdir)
        setup_s = time.perf_counter() - t
        if not os.path.abspath(qmctree.__file__).startswith(SRC + os.sep):
            print(f"error: qmctree imported from {qmctree.__file__}", file=sys.stderr)
            return 2
        run = Run(wl, qmctree, cases)
        if args.role == "trace":
            report = {"metrics": run.traced(trace_layers.Tracer)}
        else:
            report = {"busy_s": run.timed(wl.WARMUP, args.seconds)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        ops=run.ops, attempted=run.attempted, failed=run.failed,
        problems=run.problems[:50], errors=run.errors[:50],
        env={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(np),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
    )
    print(json.dumps(report))
    return 0


class Run:
    """Runs and checks operations; keeps their times, counts and problems."""

    def __init__(self, wl, q, cases):
        self.wl, self.q, self.cases = wl, q, cases
        self.attempted = self.failed = 0
        self.ops = []       # [case, seconds] of each timed operation that completed
        self.problems = []  # wrong results: the run is not correct
        self.errors = []    # operations that raised: counted in `failed`

    def once(self, k) -> tuple[float, bool]:
        """Operation k, checked; returns its time and whether it completed."""
        case = self.cases[k % len(self.cases)]
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = self.wl.op(self.q, case)
        except Exception as err:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"op {k} raised {type(err).__name__}: {err}")
            return time.perf_counter() - t, False
        dt = time.perf_counter() - t
        try:
            self.problems.extend(f"op {k}: {p}" for p in self.wl.check(case, result))
        except Exception as err:  # a check that cannot run is a failed check
            self.problems.append(f"op {k}: check raised {type(err).__name__}: {err}")
        return dt, True

    def timed(self, warmup, seconds) -> float:
        """``warmup`` untimed operations, then timed rounds over every case:
        at least one, and another while the last one's wall time (checks
        included) says it will end within ``seconds``.  Returns the summed
        time of the timed operations."""
        for k in range(warmup):
            self.once(k)
        n = len(self.cases)
        busy, end = 0.0, time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            for case in range(n):
                dt, ok = self.once(warmup + case)
                busy += dt
                if ok:
                    self.ops.append([(warmup + case) % n, dt])
            now = time.perf_counter()
            if now + (now - start) > end:
                return busy

    def traced(self, tracer_cls) -> dict:
        n = self.wl.TRACE_OPS
        for i in range(n):  # warm-up, so the first timed pass is not the cold one
            self.once(i)
        plain = sum(self.once(i)[0] for i in range(n))
        with tracer_cls(self.q) as tracer:
            traced = sum(self.once(i)[0] for i in range(n))
        metrics = tracer.metrics()
        metrics["trace.untraced_ops_per_s"] = n / plain
        metrics["trace.ops_per_s"] = n / traced
        metrics["trace.overhead_pct"] = 100 * (traced / plain - 1)
        return metrics


if __name__ == "__main__":
    sys.exit(main())
