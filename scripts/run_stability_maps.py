#!/usr/bin/env python3
"""Stability-domain curves around the typical operational point
mu = 60 kg, kappa = 1000 N/m, beta = 50 N*s/m.

Emits the three base curves (critical delay as a function of damping,
stiffness and mass) plus the sensitivity families (each base curve repeated
for a spread of the held-fixed coefficients). All output is plot-ready CSV.
--points, the grid size of every curve, must be at least 1. Exit codes and
error lines are docksim.cli.exit_code's: 1 bad input or usage, 3 an
internal fault.

Usage: python scripts/run_stability_maps.py [--out-dir results/maps]
"""

import sys
from pathlib import Path

import numpy as np

from docksim import ValidationError, stability
from docksim.cli import Parser, exit_code


def main() -> int:
    ap = Parser(description=__doc__)
    ap.add_argument("--out-dir", default="results/maps")
    ap.add_argument("--points", type=int, default=120)
    args = ap.parse_args()
    if args.points < 1:
        raise ValidationError(f"--points must be >= 1, got {args.points}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    mu0, beta0, kappa0 = 60.0, 50.0, 1000.0
    beta_grid = np.linspace(0.0, 400.0, args.points)
    kappa_grid = np.linspace(100.0, 8000.0, args.points)
    mu_grid = np.linspace(1.0, 400.0, args.points)

    def emit(name, axis, grid, **fixed):
        points = stability.stability_boundary(axis, grid, **fixed)
        stability.write_boundary_csv(points, out / name)
        print(f"wrote {out / name} ({len(points)} points)")

    # base curves
    emit("beta_vs_h.csv", "beta", beta_grid, mu=mu0, kappa=kappa0)
    emit("kappa_vs_h.csv", "kappa", kappa_grid, mu=mu0, beta=beta0)
    emit("mu_vs_h.csv", "mu", mu_grid, beta=beta0, kappa=kappa0)

    # sensitivity families
    for kappa in (500.0, 1000.0, 2000.0):
        emit(f"beta_vs_h_kappa{kappa:.0f}.csv", "beta", beta_grid, mu=mu0, kappa=kappa)
    for mu in (30.0, 60.0, 120.0):
        emit(f"beta_vs_h_mu{mu:.0f}.csv", "beta", beta_grid, mu=mu, kappa=kappa0)
        emit(f"kappa_vs_h_mu{mu:.0f}.csv", "kappa", kappa_grid, mu=mu, beta=beta0)
    for beta in (20.0, 50.0, 100.0):
        emit(f"kappa_vs_h_beta{beta:.0f}.csv", "kappa", kappa_grid, mu=mu0, beta=beta)
        emit(f"mu_vs_h_beta{beta:.0f}.csv", "mu", mu_grid, beta=beta, kappa=kappa0)
    for kappa in (500.0, 1000.0, 2000.0):
        emit(f"mu_vs_h_kappa{kappa:.0f}.csv", "mu", mu_grid, beta=beta0, kappa=kappa)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
