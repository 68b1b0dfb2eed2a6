#!/usr/bin/env python3
"""Full 3D contact demonstration with the compliance-device spring set.

Runs the bundled demo3d scenario twice (with and without virtual damping),
writes both trajectories, the contact events and the observed-energy monitor
of the damped run against its spring-only command stream. Each run's
.traj.csv and .events.json are written by docksim.cli.write_run, so the
damped run's files are the bytes ``docksim simulate demo3d`` writes. Exit
codes and error lines are docksim.cli.exit_code's: 1 bad input or usage
(an --out-dir that cannot be made), 2 divergence, 3 an internal fault.

Usage: python scripts/run_demo3d.py [--out-dir results/demo3d]
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

import docksim as ds
from docksim.analysis import observed_energy, streams_from_trajectories, write_energy_csv
from docksim.cli import Parser, exit_code, load_scenario, scenario_path, write_run


def run(body, contact, sim, options, label, out):
    traj, events = ds.simulate(sim, body, contact, mode="3d",
                               event_window=options["averaging_window"])
    payload = write_run(str(out / label), traj, events, options["neutrality_band"])
    print(f"{label}: {len(events)} contact(s)")
    for entry in payload:
        eps = "-" if entry["epsilon"] is None else f"{entry['epsilon']:.3f}"
        print(f"  t_in={entry['t_in']:.3f} s  eps={eps} ({entry['classification']})")
    return traj


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out-dir", default="results/demo3d")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    body, contact, sim, options = load_scenario(scenario_path("demo3d.json"))
    damped = run(body, contact, sim, options, "damped", out)
    run(body, dataclasses.replace(contact, b_v=0.0), sim, options, "undamped", out)

    # passivity monitor of the damped run: command stream carries the
    # spring-only force, so the damping is the only measured/commuted mismatch
    spring_f = damped.f + contact.b_v * damped.d_dot
    scale = np.divide(spring_f, damped.f, out=np.ones_like(spring_f),
                      where=damped.f != 0.0)
    commanded = ds.Trajectory(
        mode="3d", times=damped.times, states=damped.states, d=damped.d,
        d_dot=damped.d_dot, f=spring_f, tau=damped.tau * scale[:, None],
    )
    record = observed_energy(streams_from_trajectories(damped, commanded, n_hat=contact.n_hat))
    write_energy_csv(record, out / "damped.energy.csv")
    print(f"observed energy after {record.times[-1]:.2f} s: {record.total[-1]:.6g} J "
          f"({record.classification[-1]})")
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
