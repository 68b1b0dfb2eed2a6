#!/usr/bin/env python3
"""docksim benchmark: end-to-end timings per workload, per-layer figures
from a separate traced run, and a correctness gate on every operation.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1_sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in one process
    python3 perfbench/run.py --smoke               # reduced sizes, untraced and traced

The package is imported from the checkout's ``src`` directory, never from an
installed copy; without it the benchmark exits 2 and prints no result. The
runner is a closed loop: one operation at a time, each started when the
previous one has finished and been checked.

Set-up (import docksim, load and validate scenarios, build the seeded inputs)
is repeated, re-importing the package each time, and ``setup_s`` is the
median. The timed loop then runs operations until ``--seconds`` have passed
and at least MIN_OPS operations are done. ``work_per_s`` is the workload's
unit of work (RK4 steps, CSV rows or boundary points) per second of
operation time; ``peak_rss_mb`` is the process's peak so far, so with
``--workload all`` it covers earlier workloads too.

With ``--trace 0`` the result's metrics are the end-to-end ones that
BENCHMARK.json bounds; ``op_s_tail`` (with its percentile and sample count),
the workload's named work rate and ``failed_op_share`` are printed beside
them. With ``--trace 1`` the loop runs untraced for half the time and traced
for the other half; the result's metrics are the per-layer ones, the
traced/untraced ratio of median operation time, and the share of each
operation no span covers. Spans are written to
``.perfbench_work/spans-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by workload, name and unit, and the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import PER_LAYER, Tracer, install, layer_metrics, uncovered_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# set-up rounds: at least SETUP_MIN_ROUNDS, more while they add up to less
# than SETUP_MIN_SECONDS, so that a set-up of a few milliseconds still gives
# a median over many rounds
SETUP_MIN_ROUNDS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_ROUNDS = 100
# an odd count, so the median is one operation's time; at least as many
# as fit in the run on the slowest workload (demo3d, 2 to 4 s each)
MIN_OPS = 7
TRACE_MIN_OPS = 3
SMOKE_MIN_OPS = 2  # enough to compare one operation's output with the next
TAIL_BEYOND = 10
RHS_PAIRS = 2000
RHS_REPEATS = 7
MODULES = ("cli", "core", "dynamics", "stability", "analysis")


def pin_environment() -> None:
    """Same conditions on every run: the thread-pool default that
    `docksim boundary` gets, and single-threaded BLAS, so the process runs
    no more busy threads than it has cores."""
    os.environ.pop("DOCKSIM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def import_docksim() -> SimpleNamespace:
    """Import docksim afresh from the checkout, dropping any earlier copy,
    so every set-up round pays the import."""
    for name in [n for n in sys.modules if n == "docksim" or n.startswith("docksim.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"docksim.{m}") for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"docksim was imported from {mods.cli.__file__}, not from {SRC}")
    return mods


class Gate:
    """Correctness gate: every operation's output is checked on its own,
    against the first operation of the run (outputs repeat exactly), and at
    seed 0 against the recorded reference outputs."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, raw, error) -> None:
        wl = self.workload
        self.attempted += 1
        output = None if error else wl.collect(raw)
        problems = [error] if error else wl.check(output)
        if not problems:
            digest = wl.digest(output)
            if self.first is None:
                self.first = digest
            elif digest != self.first:
                problems.append("output differs from the run's first operation")
            if self.reference is not None:
                problems += wl.matches_reference(output, self.reference)
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted - 1}: {p}" for p in problems]


def timed_loop(workload, gate, seconds, min_ops, tracer=None):
    """Closed loop; returns the operation times and the operation ids."""
    samples, ops = [], []
    start = time.perf_counter()
    while True:
        op_id = f"op{gate.attempted}"
        error = output = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.op()
            else:
                with tracer.operation(op_id):
                    output = workload.op()
        except Exception as exc:  # a failed operation is counted; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        ops.append(op_id)
        gate.record(output, error)
        if t1 - start >= seconds and len(samples) >= min_ops:
            return samples, ops


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, sample count). Falls back to the maximum when the
    run has too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def rhs_us_per_call(pairs) -> float:
    per_repeat = []
    for _ in range(RHS_REPEATS):
        t0 = time.perf_counter()
        for rhs, y, yd in pairs:
            rhs(y, yd)
        per_repeat.append(1e6 * (time.perf_counter() - t0) / len(pairs))
    return statistics.median(per_repeat)


def run_workload(cls, seed, seconds, trace, smoke, workdir, references):
    setup_times = []
    while not setup_times or not smoke and (
            len(setup_times) < SETUP_MIN_ROUNDS
            or sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_ROUNDS):
        t0 = time.perf_counter()
        mods = import_docksim()
        workload = cls(mods, seed, smoke, workdir)
        setup_times.append(time.perf_counter() - t0)

    reference = references.get(cls.name) if seed == 0 else None
    gate = Gate(workload, reference)
    if not trace:
        samples, _ = timed_loop(workload, gate, seconds, SMOKE_MIN_OPS if smoke else MIN_OPS)
        value, pct, n = tail(samples)
        work_per_s = workload.work_per_op * len(samples) / sum(samples)
        metrics = {
            "op_s_p50": (statistics.median(samples), "s"),
            "work_per_s": (work_per_s, "1/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # printed by name beside the result, not in it: the named work rate
        # and failed_op_share are not defined (or are 0) on every workload,
        # and where a run holds only 7 to 20 operations the tail is one of
        # its fastest few or its slowest, too unsteady from run to run to
        # hold to a bound
        extra = {"op_s_tail": (value, "s"),
                 cls.work_metric: (work_per_s, "1/s"),
                 "failed_op_share": (gate.failed / gate.attempted, "ratio")}
        report = {
            "op_s_tail": f"p{pct:.1f} of {n} operations",
            "op_s": [round(x, 4) for x in samples],
            "setup_rounds": len(setup_times),
        }
    else:
        min_ops = SMOKE_MIN_OPS if smoke else TRACE_MIN_OPS
        untraced, _ = timed_loop(workload, gate, seconds / 2, min_ops)
        tracer = Tracer()
        install(tracer, mods)
        try:
            with tracer.operation("setup"):
                cls(mods, seed, smoke, workdir)
            traced, ops = timed_loop(workload, gate, seconds / 2, min_ops, tracer)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer, ops, "setup")
        for mode in ("2d", "3d"):
            name = f"dynamics.rhs_{mode}.us_per_call"
            layers[name] = rhs_us_per_call(workload.rhs_samples(RHS_PAIRS)) if workload.rhs_mode == mode else 0.0
        rhs_us = layers.get(f"dynamics.rhs_{workload.rhs_mode}.us_per_call", 0.0)
        layers["dynamics.integrate_dde.overhead_us_per_step"] = (
            layers["dynamics.us_per_step"] - 4.0 * rhs_us if layers["dynamics.steps"] and rhs_us else 0.0)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        shares = uncovered_shares(tracer, ops)
        layers["trace.uncovered_share"] = statistics.median(shares.values())
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
        extra = {}
        report = {"uncovered_share_per_op": {op: round(v, 4) for op, v in shares.items()}}
        tracer.dump(WORK / f"spans-{cls.name}.jsonl")

    report["problems"] = gate.problems[:20]
    return metrics, extra, gate, report


def main(argv=None) -> int:
    pin_environment()
    sys.path.insert(0, str(SRC))
    import workloads

    names = sorted(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at reduced size, untraced then traced, in seconds")
    args = ap.parse_args(argv)
    if args.smoke:
        args.workload, args.seconds = "all", 0.0

    if not (SRC / "docksim" / "__init__.py").is_file():
        print(f"error: no docksim package under {SRC}", file=sys.stderr)
        return 2
    try:
        import_docksim()
    except ImportError as exc:
        print(f"error: cannot import docksim: {exc}", file=sys.stderr)
        return 2

    references = json.loads(REFERENCE.read_text())["smoke" if args.smoke else "full"]
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True))
    selected = names if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    all_metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in selected:
            for trace in (0, 1) if args.smoke else (args.trace,):
                metrics, extra, gate, report = run_workload(
                    workloads.WORKLOADS[name], args.seed, args.seconds, trace,
                    args.smoke, workdir, references)
                for metric, (value, unit) in {**metrics, **extra}.items():
                    print(f"{name:15s} {metric:45s} {value:.6g} {unit}")
                print(f"{name:15s} report {json.dumps(report, sort_keys=True)}")
                attempted += gate.attempted
                failed += gate.failed
                correct = correct and gate.failed == 0
                prefix = "" if len(selected) == 1 else name + "/"
                all_metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
