"""The benchmark's four workloads.

Each workload builds its inputs from a seed when constructed (seed 0 is
exactly the bundled scenario values), runs one timed operation in ``op``
through docksim's public functions, and checks that operation's output in
``collect`` and ``check``, outside the timed region. Operations call docksim through module attributes
(``mods.dynamics.simulate``, never a name bound at import), so the traced
run's wrappers see every call.

Workloads stress different layers on purpose, so that a change to one
layer has a workload that exercises it and one that bypasses it:

- table1_sweep: the 2D delayed RK4 loop, no I/O.
- demo3d: the 3D right-hand side through the CLI, little I/O.
- export_energy: CSV writes and reads, no integration.
- stability_maps: the closed-form stability sweeps and their thread pool,
  no integration.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

TABLE1_BETAS = (0.0, 45.0, 50.0, 55.0, 60.0, 70.0)
EXPORT_BETAS = (0.0, 60.0)
REL_TOL_EPSILON = 1e-9
REL_TOL_BOUNDARY = 1e-12
CRITICAL_DAMPING_TOL = 2e-9  # [s], twice the solver's own tolerance


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def jittered_betas(rng, betas):
    """Seed 0 keeps the bundled values; other seeds move each by up to
    2 N*s/m (never below 0), which keeps every run to one contact that
    ends inside the run."""
    if rng is None:
        return list(betas)
    return [max(0.0, b + float(rng.uniform(-2.0, 2.0))) for b in betas]


def quiet_main(mods, argv) -> int:
    """docksim.cli.main with its stdout/stderr captured, so the benchmark's
    own last output line stays the result."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return mods.cli.main(argv)


def text_problems(path) -> list[str]:
    data = Path(path).read_bytes().lower()
    return [f"{Path(path).name}: non-finite value"] if b"nan" in data or b"inf" in data else []


def rhs_pairs(states: np.ndarray, lag: int, rng, count: int):
    """(state, delayed state) pairs from a recorded trajectory, drawn
    uniformly so contact and free-flight samples keep their recorded mix.
    Rows before the delay window take the first row (constant pre-history)."""
    idx = rng.integers(0, states.shape[0], size=count)
    return [(states[i].copy(), states[max(0, i - lag)].copy()) for i in idx]


class Workload:
    name = ""
    why = ""
    work_metric = ""  # end-to-end name of work_per_s on this workload
    work_per_op = 0  # units of work_metric done by one operation
    rhs_mode = None  # RHS model whose closure rhs_samples returns, if any

    def __init__(self, mods, seed: int, smoke: bool, workdir: Path):
        self.mods = mods
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = None if seed == 0 else np.random.default_rng(seed)

    def op(self):
        raise NotImplementedError

    def collect(self, raw):
        """Turn what op returned into the output the gate checks; runs after
        the operation's time is taken, so reading and hashing files is not
        counted as docksim's work."""
        return raw

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def digest(self, output):
        """What must repeat exactly between operations of one run."""
        return output

    def reference_of(self, output):
        """What is recorded at seed 0 and compared on later runs, or None."""
        return None

    def matches_reference(self, output, ref) -> list[str]:
        return []


class Table1Sweep(Workload):
    name = "table1_sweep"
    why = ("paper Table 1 damping sweep: six 2D delayed simulations plus restitution "
           "and verdict; the 2D RK4 loop does nearly all the work, no I/O")
    work_metric = "sim_steps_per_s"
    rhs_mode = "2d"

    def __init__(self, mods, seed, smoke, workdir):
        super().__init__(mods, seed, smoke, workdir)
        cli = mods.cli
        betas = jittered_betas(self.rng, TABLE1_BETAS)
        if smoke:
            betas = betas[:1]
        path = cli.scenario_path("table1.json")
        self.cases = []
        for beta in betas:
            body, contact, sim, options = cli.load_scenario(path, [f"contact.b_v={beta!r}"])
            self.cases.append((body, contact, sim, options))
        self.work_per_op = sum(int(round(sim.t_end / sim.dt)) for _, _, sim, _ in self.cases)
        self.last_trajectories = []

    def op(self):
        dynamics, analysis, stability = self.mods.dynamics, self.mods.analysis, self.mods.stability
        epsilons, verdicts, trajectories = [], [], []
        for body, contact, sim, options in self.cases:
            traj, events = dynamics.simulate(
                sim, body, contact, mode="2d", event_window=options["averaging_window"])
            res = analysis.restitution(events[0], band=options["neutrality_band"])
            verdict = stability.verdict_4th_order(body, contact, sim.h, band=options["neutrality_band"])
            epsilons.append(res.epsilon)
            verdicts.append(verdict.verdict)
            trajectories.append(traj)
        self.last_trajectories = trajectories
        return {"epsilon": epsilons, "verdict": verdicts}

    def check(self, output):
        problems = []
        for eps in output["epsilon"]:
            if not (math.isfinite(eps) and eps > 0.0):
                problems.append(f"epsilon {eps!r} is not finite and positive")
        for verdict in output["verdict"]:
            if verdict not in ("stable", "neutral", "unstable"):
                problems.append(f"unknown verdict {verdict!r}")
        return problems

    def reference_of(self, output):
        return output

    def matches_reference(self, output, ref):
        problems = []
        if output["verdict"] != ref["verdict"]:
            problems.append(f"verdicts {output['verdict']} != reference {ref['verdict']}")
        for got, want in zip(output["epsilon"], ref["epsilon"]):
            if abs(got - want) > REL_TOL_EPSILON * abs(want):
                problems.append(f"epsilon {got!r} != reference {want!r}")
        return problems

    def rhs_samples(self, count):
        rng = np.random.default_rng(self.seed)
        pairs = []
        for traj, (body, contact, sim, _) in zip(self.last_trajectories, self.cases):
            lag = int(round(sim.h / (sim.dt * sim.record_every)))
            rhs = self.mods.dynamics.make_rhs_2d(body, contact)
            pairs += [(rhs, y, yd) for y, yd in
                      rhs_pairs(traj.states, lag, rng, count // len(self.cases))]
        return pairs


class Demo3D(Workload):
    name = "demo3d"
    why = ("docksim simulate demo3d through cli.main: 45 000 3D delayed steps; the 3D "
           "right-hand side dominates, file writing is about 2%")
    work_metric = "sim_steps_per_s"
    rhs_mode = "3d"

    def __init__(self, mods, seed, smoke, workdir):
        super().__init__(mods, seed, smoke, workdir)
        cli = mods.cli
        self.overrides = []
        if self.rng is not None:
            self.overrides.append(f"contact.b_v={40.0 + float(self.rng.uniform(-4.0, 4.0))!r}")
        if smoke:
            self.overrides.append("sim.t_end=0.5")
        self.path = cli.scenario_path("demo3d")
        body, contact, sim, _ = cli.load_scenario(self.path, self.overrides)
        self.case = (body, contact, sim)
        self.work_per_op = int(round(sim.t_end / sim.dt))
        self.prefix = str(workdir / "demo3d")
        self.argv = ["simulate", "demo3d", "--out", self.prefix]
        for item in self.overrides:
            self.argv += ["--set", item]

    def op(self):
        return quiet_main(self.mods, self.argv)

    def collect(self, code):
        out = {"exit": code}
        if code == 0:
            out["traj"] = sha256(self.prefix + ".traj.csv")
            out["events"] = sha256(self.prefix + ".events.json")
            out["problems"] = text_problems(self.prefix + ".traj.csv")
            events = json.loads(Path(self.prefix + ".events.json").read_text())["events"]
            if not self.smoke and not events:
                out["problems"].append("no contact event")
        return out

    def check(self, output):
        if output["exit"] != 0:
            return [f"docksim simulate exited {output['exit']}"]
        return list(output["problems"])

    def reference_of(self, output):
        return {"traj": output["traj"], "events": output["events"]}

    def matches_reference(self, output, ref):
        return [f"{key} sha256 differs from reference" for key in ("traj", "events")
                if output.get(key) != ref[key]]

    def rhs_samples(self, count):
        body, contact, sim = self.case
        data = np.loadtxt(self.prefix + ".traj.csv", delimiter=",", skiprows=1, ndmin=2)
        lag = int(round(sim.h / (sim.dt * sim.record_every)))
        rhs = self.mods.dynamics.make_rhs_3d(body, contact)
        rng = np.random.default_rng(self.seed)
        return [(rhs, y, yd) for y, yd in rhs_pairs(data[:, 1:13], lag, rng, count)]


class ExportEnergy(Workload):
    name = "export_energy"
    why = ("write two 12 001-row trajectory CSVs, run docksim energy on them and write "
           "the energy CSV; CSV writes and reads, no integration")
    work_metric = "csv_rows_per_s"
    rhs_mode = "2d"

    def __init__(self, mods, seed, smoke, workdir):
        super().__init__(mods, seed, smoke, workdir)
        cli, dynamics = mods.cli, mods.dynamics
        path = cli.scenario_path("table1.json")
        self.trajectories = []
        for beta in jittered_betas(self.rng, EXPORT_BETAS):
            body, contact, sim, options = cli.load_scenario(path, [f"contact.b_v={beta!r}"])
            traj, _ = dynamics.simulate(sim, body, contact, mode="2d",
                                        event_window=options["averaging_window"])
            self.trajectories.append((traj, body, contact, sim))
        self.paths = [str(workdir / "measured.traj.csv"), str(workdir / "commanded.traj.csv")]
        self.energy_path = str(workdir / "energy.csv")
        self.argv = ["energy", "--measured", self.paths[0], "--commanded", self.paths[1],
                     "--out", self.energy_path]
        # trajectory rows are written and read back; the monitor writes one
        # energy row per 4 ms sample up to the shorter run's end
        traj_rows = sum(len(t.times) for t, _, _, _ in self.trajectories)
        t_end = min(float(t.times[-1]) for t, _, _, _ in self.trajectories)
        self.energy_rows = int(t_end / mods.analysis.DEFAULT_SAMPLE_TIME)
        self.work_per_op = 2 * traj_rows + self.energy_rows

    def op(self):
        dynamics = self.mods.dynamics
        for (traj, _, _, _), path in zip(self.trajectories, self.paths):
            dynamics.write_trajectory_csv(traj, path)
        return quiet_main(self.mods, self.argv)

    def collect(self, code):
        out = {"exit": code}
        if code == 0:
            files = self.paths + [self.energy_path]
            out["sha"] = [sha256(p) for p in files]
            out["problems"] = [p for f in files for p in text_problems(f)]
            rows = Path(self.energy_path).read_bytes().count(b"\n") - 1
            if rows != self.energy_rows:
                out["problems"].append(f"energy CSV has {rows} rows, expected {self.energy_rows}")
        return out

    def check(self, output):
        if output["exit"] != 0:
            return [f"docksim energy exited {output['exit']}"]
        return list(output["problems"])

    def reference_of(self, output):
        return {"sha": output["sha"]}

    def matches_reference(self, output, ref):
        return [] if output.get("sha") == ref["sha"] else ["CSV sha256 differs from reference"]

    def rhs_samples(self, count):
        rng = np.random.default_rng(self.seed)
        pairs = []
        for traj, body, contact, sim in self.trajectories:
            lag = int(round(sim.h / (sim.dt * sim.record_every)))
            rhs = self.mods.dynamics.make_rhs_2d(body, contact)
            pairs += [(rhs, y, yd) for y, yd in rhs_pairs(traj.states, lag, rng, count // 2)]
        return pairs


def closed_form_h_c(mu, beta, kappa):
    """First critical delay from the closed form, vectorized in numpy,
    independently of docksim.stability."""
    mu, beta, kappa = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (mu, beta, kappa)))
    b2 = (beta / mu) ** 2
    omega = np.sqrt(b2 / 2.0 + np.sqrt(b2 * b2 / 4.0 + (kappa / mu) ** 2))
    return np.arctan(omega * beta / kappa) / omega


class StabilityMaps(Workload):
    name = "stability_maps"
    why = ("stability_boundary along beta, kappa and mu with fixed-coefficient families "
           "plus critical_damping over delays; closed-form stability and its thread pool only")
    work_metric = "boundary_points_per_s"
    POINTS = 2000
    DELAYS = 200

    def __init__(self, mods, seed, smoke, workdir):
        super().__init__(mods, seed, smoke, workdir)
        points = 100 if smoke else self.POINTS

        def scale(x):
            return x if self.rng is None else x * float(self.rng.uniform(0.9, 1.1))

        mu0, beta0, kappa0 = scale(60.0), scale(50.0), scale(1000.0)
        grids = {
            "beta": np.linspace(0.0, scale(400.0), points),
            "kappa": np.linspace(scale(100.0), scale(8000.0), points),
            "mu": np.linspace(scale(1.0), scale(400.0), points),
        }
        # the curves of scripts/run_stability_maps.py: three base curves and
        # their families over the held-fixed coefficients
        curves = [
            ("beta", {"mu": mu0, "kappa": kappa0}),
            ("kappa", {"mu": mu0, "beta": beta0}),
            ("mu", {"beta": beta0, "kappa": kappa0}),
        ]
        for k in (0.5, 1.0, 2.0):
            curves.append(("beta", {"mu": mu0, "kappa": k * kappa0}))
        for m in (0.5, 1.0, 2.0):
            curves.append(("beta", {"mu": m * mu0, "kappa": kappa0}))
            curves.append(("kappa", {"mu": m * mu0, "beta": beta0}))
        for b in (0.4, 1.0, 2.0):
            curves.append(("kappa", {"mu": mu0, "beta": b * beta0}))
            curves.append(("mu", {"beta": b * beta0, "kappa": kappa0}))
        for k in (0.5, 1.0, 2.0):
            curves.append(("mu", {"beta": beta0, "kappa": k * kappa0}))
        self.curves = [(axis, grids[axis], fixed) for axis, fixed in curves]
        self.mu0, self.kappa0 = mu0, kappa0
        self.delays = np.linspace(0.002, 0.04, 20 if smoke else self.DELAYS)
        self.work_per_op = sum(len(grid) for _, grid, _ in self.curves)

    def op(self):
        stability = self.mods.stability
        curves = [stability.stability_boundary(axis, grid, **fixed) for axis, grid, fixed in self.curves]
        betas = [stability.critical_damping(self.mu0, self.kappa0, float(h)) for h in self.delays]
        return {"curves": curves, "beta_c": np.array(betas)}

    def digest(self, output):
        h = np.concatenate([[p.h_critical for p in c] for c in output["curves"]])
        return hashlib.sha256(h.tobytes() + output["beta_c"].tobytes()).hexdigest()

    def check(self, output):
        problems = []
        for (axis, grid, fixed), points in zip(self.curves, output["curves"]):
            failed = [p for p in points if p.error is not None]
            if failed:
                problems.append(f"{axis} curve: {len(failed)} failed points ({failed[0].error})")
            x = np.array([p.x for p in points])
            if len(points) != len(grid) or not np.array_equal(x, grid):
                problems.append(f"{axis} curve: points out of grid order")
                continue
            coeffs = dict(fixed, **{axis: grid})
            want = closed_form_h_c(coeffs["mu"], coeffs["beta"], coeffs["kappa"])
            got = np.array([p.h_critical for p in points])
            bad = ~(np.abs(got - want) <= REL_TOL_BOUNDARY * np.abs(want))
            if bad.any():
                problems.append(f"{axis} curve: {int(bad.sum())} h_critical values off the closed form")
        h_back = closed_form_h_c(self.mu0, output["beta_c"], self.kappa0)
        bad = ~(np.abs(h_back - self.delays) <= CRITICAL_DAMPING_TOL)
        if bad.any():
            problems.append(f"critical_damping: {int(bad.sum())} solutions miss their delay")
        return problems


WORKLOADS = {w.name: w for w in (Table1Sweep, Demo3D, ExportEnergy, StabilityMaps)}
