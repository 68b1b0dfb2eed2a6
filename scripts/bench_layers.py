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

integrate_dde is timed on the very call docksim.dynamics.simulate makes:
one simulate run per case, with integrate_dde wrapped, captures the call's
arguments (so the recorded wrench is included, and the script runs against
any integrate_dde signature), and those arguments are replayed. The replay
gets one untimed warm-up run, which also counts the model class's wrench
calls, then --repeat timed runs (time.perf_counter); a round keeps the best
of them. load_scenario is timed on the case's scenario file, best of
--repeat calls after the case's own untimed load. The CSV timings write
that simulate run's trajectory (rows and columns stated) to a temporary
file and read it back, best of --repeat each after one untimed write. The
JSON holds each round's best and the median of the round bests, the
stability figures under "stability".

Each round runs the cases in its own order, CASES shuffled by
random.Random(round), and the JSON records each round's order under
"case_order_per_round": a case's figure then does not depend on the one
fixed set of cases run before it in the process.

Without --side, every round runs in this process on the docksim it
imports. With --side LABEL=SRC (repeatable), every round runs each side in
a fresh Python process with PYTHONPATH=SRC (``--raw ROUND``, so both sides
of a round run the same order), alternating which side goes first, and the
JSON holds one entry per side: a before/after comparison of
two checkouts, with the stability figures under "stability_sides". Under
"paired", keyed "LATER/FIRST", each later side is set against the first
per case: the ratio of its us/step to the first side's in each round (both
measured in the same round), the median of those ratios, and the number of
rounds it was faster. Paired ratios cancel the drift between rounds that
moves the medians of round bests on a shared machine. Each side's docksim
runs this script's --raw child, so it must provide docksim.cli.Parser and
docksim.cli.exit_code, which every checkout since their introduction does.

Exit codes and error lines are docksim.cli.exit_code's: 1 a usage error
(--rounds or --repeat below 1, a --side without "="), 3 an internal fault
(a side's child process failing included).

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

from docksim.cli import Parser, exit_code

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
    shuffles CASES into: ({case: {load_us, steps, wrench_calls,
    us_per_step, csv_rows, csv_columns, write_us_per_row,
    read_us_per_row}} in the order of CASES, [case, ...] in the order
    run)."""
    from docksim import dynamics
    from docksim.cli import load_scenario, scenario_path

    order = list(CASES)
    random.Random(round_number).shuffle(order)
    result = dict.fromkeys(case_name(*c) for c in CASES)
    for name, mode, dt in order:
        case = case_name(name, mode, dt)
        path = scenario_path(name)
        body, contact, sim, _ = load_scenario(path)
        load = best_of(repeat, lambda: load_scenario(path))
        if t_end is not None:
            sim = dataclasses.replace(sim, t_end=t_end)
        if dt is not None:
            sim = dataclasses.replace(sim, dt=dt, record_every=1, t_end=round(sim.t_end / dt) * dt)
        integrate_dde = dynamics.integrate_dde
        captured = []

        def capture(*args, **kwargs):
            captured.append((args, kwargs))
            return integrate_dde(*args, **kwargs)

        dynamics.integrate_dde = capture
        try:
            traj, _ = dynamics.simulate(sim, body, contact, mode=mode)
        finally:
            dynamics.integrate_dde = integrate_dde
        (args, kwargs), = captured

        def run():
            return integrate_dde(*args, **kwargs)

        cls = dynamics._MODELS[mode]
        calls = [0]
        wrench = cls.wrench

        def counted(self, xd):
            calls[0] += 1
            return wrench(self, xd)

        cls.wrench = counted
        try:
            steps = len(run()[0]) - 1
        finally:
            cls.wrench = wrench
        best = best_of(repeat, run)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.traj.csv")
            dynamics.write_trajectory_csv(traj, path)
            with open(path) as fh:
                columns = fh.readline().count(",") + 1
            write = best_of(repeat, lambda: dynamics.write_trajectory_csv(traj, path))
            read = best_of(repeat, lambda: dynamics.read_trajectory_csv(path))
        rows = len(traj.times)
        result[case] = {"load_us": round(load * 1e6, 2), "steps": steps, "wrench_calls": calls[0],
                        "us_per_step": round(best / steps * 1e6, 4),
                        "csv_rows": rows, "csv_columns": columns,
                        "write_us_per_row": round(write / rows * 1e6, 4),
                        "read_us_per_row": round(read / rows * 1e6, 4)}
    return result, [case_name(*c) for c in order]


def measure_stability(repeat) -> dict:
    """One round of the stability layer: {boundary_us_per_point,
    critical_damping_us}."""
    from docksim import stability

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


def summarize_stability(rounds: list) -> dict:
    """Per stability figure: the round bests and their median."""
    return {key: {"per_round": [r[key] for r in rounds],
                  "median": round(statistics.median(r[key] for r in rounds), 4)} for key in rounds[0]}


def summarize(rounds: list) -> dict:
    """Per case: steps, wrench calls per run, the round bests and their
    median; then the CSV size and the write/read round bests and medians;
    then the load_scenario round bests and their median."""
    out = {}
    for case in rounds[0]:
        first = rounds[0][case]
        bests = {key: [r[case][key] for r in rounds]
                 for key in ("us_per_step", "write_us_per_row", "read_us_per_row", "load_us")}
        out[case] = {
            "steps": first["steps"],
            "wrench_calls_per_run": first["wrench_calls"],
            "best_of_repeat_per_round": bests["us_per_step"],
            "median_of_round_bests": round(statistics.median(bests["us_per_step"]), 4),
            "csv_rows": first["csv_rows"],
            "csv_columns": first["csv_columns"],
        }
        for fn, key in (("write_trajectory_csv", "write_us_per_row"),
                        ("read_trajectory_csv", "read_us_per_row")):
            out[case][f"{fn}_us_per_row_per_round"] = bests[key]
            out[case][f"{fn}_us_per_row"] = round(statistics.median(bests[key]), 4)
        out[case]["load_scenario_us_per_round"] = bests["load_us"]
        out[case]["load_scenario_us"] = round(statistics.median(bests["load_us"]), 2)
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


def run_side(src, t_end, repeat, round_number) -> dict:
    """Round round_number in a fresh process on the docksim under src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--raw", str(round_number), "--repeat", str(repeat)]
    if t_end is not None:
        cmd += ["--t-end", repr(t_end)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    ap = Parser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--repeat", type=int, default=5, help="timed runs per case and round")
    ap.add_argument("--t-end", type=float, default=None, help="run length [s] (default: each scenario's)")
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC",
                    help="measure the docksim under SRC in fresh processes (repeatable)")
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

    report = {
        "what": "load_scenario (with validate) microseconds per call, integrate_dde microseconds per "
                "step (simulate's own call, replayed), model wrench calls per run, and "
                "write_trajectory_csv / read_trajectory_csv microseconds per row of the simulate "
                "trajectory, per scenario and mode; stability_boundary microseconds per point of a "
                "2000-point beta grid and critical_damping microseconds per call, at mu = 60, kappa = 1000",
        "method": f"{args.rounds} rounds; per round and case one untimed warm-up run, then the best "
                  f"of {args.repeat} timed runs",
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, Python {platform.python_version()}, "
                   f"numpy {np.__version__}",
        "t_end": args.t_end,
        "unit": "us/step; CSV: us/row; load_scenario: us/call; stability: us/point and us/call",
    }
    if args.side:
        sides = [s.split("=", 1) for s in args.side]
        if any(len(s) != 2 for s in sides):
            ap.error("--side must look like LABEL=SRC")
        rounds = {label: [] for label, _ in sides}
        for r in range(args.rounds):
            for label, src in (sides if r % 2 == 0 else sides[::-1]):
                rounds[label].append(run_side(src, args.t_end, args.repeat, r))
        report["method"] += "; each round runs each side in a fresh process, alternating which goes first"
        cases = {label: [r["cases"] for r in rounds[label]] for label in rounds}
        report["sides"] = {label: summarize(cases[label]) for label in rounds}
        report["stability_sides"] = {label: summarize_stability([r["stability"] for r in rounds[label]])
                                     for label in rounds}
        report["case_order_per_round"] = {label: [r["order"] for r in rounds[label]] for label in rounds}
        (first, _), *later = sides
        report["paired"] = {f"{label}/{first}": pair(cases[first], cases[label]) for label, _ in later}
    else:
        rounds = [(measure(args.t_end, args.repeat, r), measure_stability(args.repeat)) for r in range(args.rounds)]
        report["workloads"] = summarize([cases for (cases, _), _ in rounds])
        report["stability"] = summarize_stability([stab for _, stab in rounds])
        report["case_order_per_round"] = [order for (_, order), _ in rounds]
    text = json.dumps(report, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
