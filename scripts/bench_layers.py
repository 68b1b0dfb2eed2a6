#!/usr/bin/env python3
"""Layer benchmark of the scenario reader, the block path, CSV export and
the closed-form stability layer: load_scenario (which ends in validate)
microseconds per call, integrate_dde microseconds per step, contact-law
(model ``wrench``) calls per run, and write_trajectory_csv /
read_trajectory_csv microseconds per row on the bundled scenarios, table1
and fig7 in 2D and table1, fig7 and demo3d in 3D; then stability_boundary
microseconds per point on one fixed 2 000-point beta grid at mu = 60,
kappa = 1000 (fig7's penetration mode, rounded), and microseconds per
critical_damping(60, 1000, h) call over fixed delays, each the best of
--repeat calls after one untimed call.
Short delays, which no bundled scenario runs, come as the cases
"table1-2d-dt<step>" and "demo3d-3d-dt<step>": the scenario with dt = 1.6e-2
and 8e-3 (h/dt = 1 and 2, whole) and 1e-2, 5e-3, 2.5e-3 and 1.25e-3
(h/dt = 1.6, 3.2, 6.4 and 12.8), every step recorded, and t_end rounded to
a whole number of those steps.

integrate_dde is timed on the call docksim.dynamics.simulate makes, built
the way simulate builds it: the mode's model on the scenario's body and
contact, and its initial_vector of the initial state. The call gets one
untimed warm-up run, which also counts the model's wrench calls, then
--repeat timed runs (time.perf_counter); a round keeps the best of them.
load_scenario is timed on the case's scenario file, best of --repeat calls
after the case's own untimed load. The CSV timings write the case's
simulate trajectory (rows and columns stated) to a temporary file and read
it back, best of --repeat each after one untimed write.

Every round of every side runs in a fresh Python process with
PYTHONPATH=SRC (``--raw ROUND``), alternating which side goes first. A side
is a --side LABEL=SRC (repeatable); without --side there is one, "docksim",
the directory the docksim this script imports comes from. Each round runs
the cases in its own order, CASES shuffled by random.Random(round), the
same for every side, and the JSON records each side's orders under
"case_order_per_round". Under "sides" the JSON holds per side its "cases"
and its "stability" figures: each count as measured, and each timing as its
round bests and their median. With two or more sides, "paired", keyed
"LATER/FIRST", sets each later side against the first per case: the ratio
of its us/step to the first side's in each round (both measured in the same
round), the median of those ratios, and the number of rounds it was faster.
Paired ratios cancel the drift between rounds that moves the medians of
round bests on a shared machine. Each side's docksim runs this script's
--raw child, so it must provide docksim.cli.Parser and docksim.cli.exit_code,
which every checkout since their introduction does.

Exit codes and error lines are docksim.cli.exit_code's: 1 a usage error
(--rounds or --repeat below 1, a --side without "=" or whose SRC holds no
docksim package, named on one line before any round runs), 3 an internal
fault (a side's child process failing, with the last line of its stderr).

Usage: python scripts/bench_layers.py [--rounds 5] [--repeat 5] [--t-end T]
           [--side before=../old/src --side after=src] [--out bench.json]
"""

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import docksim
from docksim import ValidationError, dynamics, stability
from docksim.cli import Parser, exit_code, load_scenario, scenario_path

# (scenario, mode, dt or None for the scenario's own)
CASES = [("table1", "2d", None), ("fig7", "2d", None), ("table1", "3d", None), ("fig7", "3d", None),
         ("demo3d", "3d", None)]
CASES += [(name, mode, dt) for name, mode in (("table1", "2d"), ("demo3d", "3d"))
          for dt in (1.6e-2, 8e-3, 1e-2, 5e-3, 2.5e-3, 1.25e-3)]
# the stability layer's inputs, at mu = 60 and kappa = 1000
BOUNDARY_BETAS = np.linspace(1.0, 200.0, 2000).tolist()
DAMPING_DELAYS = np.linspace(0.002, 0.04, 20).tolist()


def best_of(repeat, fn) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def case_name(name, mode, dt) -> str:
    return f"{name}-{mode}" + (f"-dt{dt:g}" if dt else "")


def measure(t_end, repeat, round_number) -> tuple[dict, list]:
    """One round, its cases in the order random.Random(round_number)
    shuffles CASES into: ({case: {steps, wrench_calls_per_run, csv_rows,
    csv_columns, us_per_step, load_scenario_us, write_csv_us_per_row,
    read_csv_us_per_row}} in the order of CASES, [case, ...] in the order
    run)."""
    order = list(CASES)
    random.Random(round_number).shuffle(order)
    result = dict.fromkeys(case_name(*c) for c in CASES)
    for name, mode, dt in order:
        path = scenario_path(name)
        body, contact, sim, _ = load_scenario(path)
        load = best_of(repeat, lambda: load_scenario(path))
        if t_end is not None:
            sim = dataclasses.replace(sim, t_end=t_end)
        if dt is not None:
            sim = dataclasses.replace(sim, dt=dt, record_every=1, t_end=round(sim.t_end / dt) * dt)
        traj, _ = dynamics.simulate(sim, body, contact, mode=mode)
        model = dynamics._MODELS[mode](body, contact)
        y0 = model.initial_vector(sim.initial)

        def run():
            return dynamics.integrate_dde(model, y0, sim.dt, sim.t_end, sim.h)

        calls = []  # one entry per wrench call of the warm-up run
        wrench = model.wrench
        model.wrench = lambda xd: calls.append(None) or wrench(xd)
        steps = len(run()[0]) - 1
        del model.wrench
        best = best_of(repeat, run)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.traj.csv")
            dynamics.write_trajectory_csv(traj, path)
            with open(path) as fh:
                columns = fh.readline().count(",") + 1
            write = best_of(repeat, lambda: dynamics.write_trajectory_csv(traj, path))
            read = best_of(repeat, lambda: dynamics.read_trajectory_csv(path))
        rows = len(traj.times)
        result[case_name(name, mode, dt)] = {
            "steps": steps, "wrench_calls_per_run": len(calls), "csv_rows": rows, "csv_columns": columns,
            "us_per_step": round(best / steps * 1e6, 4), "load_scenario_us": round(load * 1e6, 2),
            "write_csv_us_per_row": round(write / rows * 1e6, 4),
            "read_csv_us_per_row": round(read / rows * 1e6, 4)}
    return result, [case_name(*c) for c in order]


def measure_stability(repeat) -> dict:
    """One round of the stability layer: {boundary_us_per_point,
    critical_damping_us}."""
    def boundary():
        return stability.stability_boundary("beta", BOUNDARY_BETAS, mu=60.0, kappa=1000.0)

    def damping():
        return [stability.critical_damping(60.0, 1000.0, h) for h in DAMPING_DELAYS]

    result = {}
    for key, fn, per in (("boundary_us_per_point", boundary, len(BOUNDARY_BETAS)),
                         ("critical_damping_us", damping, len(DAMPING_DELAYS))):
        fn()
        result[key] = round(best_of(repeat, fn) / per * 1e6, 4)
    return result


def summarize(rounds: list) -> dict:
    """The figures of one case (or of the stability layer) over the rounds:
    a count (an int, the same in every round) as it is, a timing as its
    round bests and their median."""
    out = {}
    for key, first in rounds[0].items():
        bests = [r[key] for r in rounds]
        out[key] = first if isinstance(first, int) else {
            "per_round": bests, "median": round(statistics.median(bests), 4)}
    return out


def pair(first: list, later: list) -> dict:
    """Per case: the later side's us/step over the first side's in each
    round, the median ratio, and the rounds the later side was faster
    (ties count for neither)."""
    out = {}
    for case in first[0]:
        ratios = [b[case]["us_per_step"] / a[case]["us_per_step"] for a, b in zip(first, later)]
        out[case] = {"ratio_per_round": [round(r, 4) for r in ratios],
                     "median_ratio": round(statistics.median(ratios), 4),
                     "rounds_faster": sum(r < 1.0 for r in ratios)}
    return out


def run_side(label, src, t_end, repeat, round_number) -> dict:
    """Round round_number in a fresh process on the docksim under src; a
    failing child is an internal fault that quotes its last stderr line."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--raw", str(round_number), "--repeat", str(repeat)]
    if t_end is not None:
        cmd += ["--t-end", repr(t_end)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["no stderr"]
        raise RuntimeError(f"side {label}, round {round_number}: exit {proc.returncode}: {lines[-1]}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case and round")
    ap.add_argument("--t-end", type=float, default=None, help="run length [s] (default: each scenario's)")
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                    help="measure the docksim under SRC (repeatable; default: the imported one's)")
    ap.add_argument("--raw", type=int, default=None, metavar="ROUND",
                    help="print the raw JSON of round ROUND (its case order) and exit")
    ap.add_argument("--out", default=None, help="write the JSON here instead of stdout")
    args = ap.parse_args()
    if args.rounds < 1 or args.repeat < 1:
        ap.error("--rounds and --repeat must be >= 1")
    if args.raw is not None:
        cases, order = measure(args.t_end, args.repeat, args.raw)
        print(json.dumps({"cases": cases, "order": order, "stability": measure_stability(args.repeat)}))
        return 0
    here = os.path.dirname(os.path.dirname(os.path.abspath(docksim.__file__)))
    sides = [s.split("=", 1) for s in args.side] or [["docksim", here]]
    if any(len(s) != 2 for s in sides):
        ap.error("--side must look like LABEL=SRC")
    for label, src in sides:
        if not os.path.isdir(os.path.join(src, "docksim")):
            raise ValidationError(f"--side {label}: no docksim package in {src!r}")

    rounds = {label: [] for label, _ in sides}
    for r in range(args.rounds):
        for label, src in (sides if r % 2 == 0 else sides[::-1]):
            rounds[label].append(run_side(label, src, args.t_end, args.repeat, r))
    cases = {label: [r["cases"] for r in rounds[label]] for label in rounds}
    report = {
        "what": "load_scenario (with validate) microseconds per call, integrate_dde microseconds per "
                "step (the call simulate makes), model wrench calls per run, and "
                "write_trajectory_csv / read_trajectory_csv microseconds per row of the simulate "
                "trajectory, per scenario and mode; stability_boundary microseconds per point of a "
                "2000-point beta grid and critical_damping microseconds per call, at mu = 60, kappa = 1000",
        "method": f"{args.rounds} rounds, each running each side in a fresh process, alternating which "
                  f"goes first; per round and case one untimed warm-up run, then the best of "
                  f"{args.repeat} timed runs",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "t_end": args.t_end,
        "unit": "us/step; CSV: us/row; load_scenario: us/call; stability: us/point and us/call",
        "sides": {label: {"cases": {case: summarize([c[case] for c in cases[label]]) for case in cases[label][0]},
                          "stability": summarize([r["stability"] for r in rounds[label]])}
                  for label in rounds},
        "case_order_per_round": {label: [r["order"] for r in rounds[label]] for label in rounds},
    }
    (first, _), *later = sides
    if later:
        report["paired"] = {f"{label}/{first}": pair(cases[first], cases[label]) for label, _ in later}
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
