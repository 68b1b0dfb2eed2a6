#!/usr/bin/env python3
"""Restitution vs virtual damping at the reference operating point.

Sweeps the virtual damping over the nonlinear delayed 2D simulation and
compares the measured coefficient of restitution against the linear
pole-location prediction (critical damping ratio). Writes a CSV next to the
printed table.

Each damping value goes through the scenario reader as the override
contact.b_v, so one that is not a valid damping (negative, NaN, not a
number) exits 1 with one error line before any run. A run that trips the
divergence guard exits 2, as ``docksim simulate`` does, with one line
naming its damping, and writes no CSV. Exit codes and error lines are
docksim.cli.exit_code's: 1 bad input or usage, 2 divergence, 3 an
internal fault.

Usage: python scripts/run_table1.py [--out results/table1_results.csv] [--betas 0,45,50]
"""

import json
import sys
import time
from pathlib import Path

import docksim as ds
from docksim.cli import Parser, exit_code, load_scenario, scenario_path
from docksim.core import ValidationError, write_csv


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out", default="results/table1_results.csv")
    ap.add_argument("--betas", default="0,45,50,55,60,70",
                    help="comma-separated damping values [N*s/m]")
    args = ap.parse_args()

    path = scenario_path("table1.json")
    try:
        cases = [load_scenario(path, [f"contact.b_v={json.dumps(float(text))}"])
                 for text in args.betas.split(",")]
    except ValueError as exc:  # a ValidationError, or text that is not a number
        raise ValidationError(f"--betas: {exc}") from None
    # the operating point does not depend on the damping
    body, contact, sim, _ = cases[0]
    mu, _, kappa = ds.penetration_dde_coeffs(body, contact)
    beta_c = ds.critical_damping(mu, kappa, sim.h)
    print(f"operating point: mu={mu:.4g} kg, kappa={kappa:.4g} N/m, h={sim.h * 1e3:.3g} ms")
    print(f"linear critical damping beta_c = {beta_c:.4g} N*s/m")
    print(f"{'beta':>6} {'beta_c/beta':>12} {'epsilon':>9} {'verdict(linear)':>16} {'cue(nonlinear)':>15}")

    rows = []
    t0 = time.perf_counter()
    for body, contact, sim, options in cases:
        beta = contact.b_v
        try:
            _, events = ds.simulate(sim, body, contact, mode="2d",
                                    event_window=options["averaging_window"])
        except ds.DivergenceError as exc:
            raise ds.DivergenceError(f"beta = {beta:g} N*s/m: {exc}", exc.t) from None
        res = ds.restitution(events[0], band=options["neutrality_band"])
        verdict = ds.verdict_4th_order(body, contact, sim.h,
                                       band=options["neutrality_band"]).verdict
        ratio = beta_c / beta if beta > 0 else float("inf")
        print(f"{beta:6.1f} {ratio:12.3f} {res.epsilon:9.4f} {verdict:>16} {res.classification:>15}")
        rows.append((beta, ratio, res.epsilon, verdict, res.classification))
    print(f"({time.perf_counter() - t0:.2f} s)")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    betas, ratios, epsilons, verdicts, cues = zip(*rows)
    write_csv(out, ["beta", "beta_c_over_beta", "epsilon", "linear_verdict", "nonlinear_cue"],
              [betas, ratios, epsilons], labels=[verdicts, cues])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
