import json
import subprocess
import sys

import numpy as np
import pytest

from docksim.cli import load_scenario, main, scenario_path

BUNDLED = ["table1.json", "fig7.json", "fig9.json", "demo3d.json"]


def run(*args) -> int:
    return main(list(args))


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_validate_cleanly(name):
    body, contact, sim, options = load_scenario(scenario_path(name))
    assert body.m > 0 and sim.dt > 0
    assert 0 < options["neutrality_band"] < 1


def test_t_end_off_the_step_grid_exits_1(tmp_path, capsys):
    code = run("simulate", "table1.json", "--set", "sim.t_end=0.30005",
               "--out", str(tmp_path / "off"))
    assert code == 1
    assert "not a whole number of steps" in capsys.readouterr().err
    assert not (tmp_path / "off.traj.csv").exists()


def test_bundled_name_resolution_prefers_local_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bundled = scenario_path("table1.json")
    assert bundled.is_absolute() and bundled.name == "table1.json"
    local = tmp_path / "table1.json"
    local.write_text("{}")
    assert scenario_path("table1.json").resolve() == local.resolve()


class TestSimulate:
    def test_table1_beta60_reports_near_neutral_epsilon(self, tmp_path):
        out = tmp_path / "b60"
        code = run("simulate", "table1.json", "--set", "contact.b_v=60", "--out", str(out))
        assert code == 0
        events = json.loads((tmp_path / "b60.events.json").read_text())["events"]
        assert len(events) == 1
        assert events[0]["epsilon"] == pytest.approx(1.0, rel=0.10)
        assert (tmp_path / "b60.traj.csv").exists()
        assert (tmp_path / "b60.meta.json").exists()

    def test_beta0_is_unstable(self, tmp_path):
        out = tmp_path / "b0"
        assert run("simulate", "table1.json", "--out", str(out)) == 0
        events = json.loads((tmp_path / "b0.events.json").read_text())["events"]
        assert events[0]["epsilon"] > 1.3
        assert events[0]["classification"] == "unstable"

    def test_short_run_has_no_events(self, tmp_path):
        out = tmp_path / "short"
        code = run("simulate", "table1.json", "--set", "sim.t_end=0.3", "--out", str(out))
        assert code == 0
        assert json.loads((tmp_path / "short.events.json").read_text())["events"] == []

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "table1.json", "--set", "contact.b_v=50",
                       "--set", "sim.t_end=0.9", "--out", str(out)) == 0
        assert (tmp_path / "a.traj.csv").read_bytes() == (tmp_path / "b.traj.csv").read_bytes()
        assert (tmp_path / "a.events.json").read_bytes() == (tmp_path / "b.events.json").read_bytes()

    def test_divergence_exits_2(self, tmp_path):
        code = run("simulate", "table1.json",
                   "--set", "contact.activation=bilateral",
                   "--set", "contact.k_v=30000",
                   "--set", "sim.t_end=6.0",
                   "--out", str(tmp_path / "div"))
        assert code == 2

    def test_invalid_scenario_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "body": {"m": 60.0, "J_x": 1.0, "a": 0.3, "bogus": 1},
            "contact": {"k_v": 1.0, "b_v": 0.0, "alpha_deg": 30.0},
            "sim": {"h": 0.0, "dt": 1e-4, "t_end": 1.0,
                    "initial": {"mode": "2d", "z": -0.1, "v_z": 0.0, "theta_deg": 60, "omega": 0}},
        }))
        assert run("simulate", str(bad), "--out", str(tmp_path / "x")) == 1

    def test_missing_scenario_exits_1(self, tmp_path):
        assert run("simulate", "nope.json", "--out", str(tmp_path / "x")) == 1

    def test_invariant_violation_exits_1(self, tmp_path):
        code = run("simulate", "table1.json", "--set", "body.m=-1",
                   "--out", str(tmp_path / "x"))
        assert code == 1

    def test_planar_scenario_runs_in_3d_mode(self, tmp_path):
        out = tmp_path / "p3"
        code = run("simulate", "table1.json", "--mode", "3d",
                   "--set", "sim.t_end=0.3", "--out", str(out))
        assert code == 0
        header = (tmp_path / "p3.traj.csv").read_text().splitlines()[0]
        assert header.startswith("t,r_x,r_y,r_z")


class TestStability:
    def test_single_point_json(self, tmp_path, capsys):
        assert run("stability", "--mu", "15.6", "--beta", "50", "--kappa", "3000",
                   "--h", "0.016", "--json") == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.016 <= result["h_c"] <= 0.017
        assert result["omega_c"] == pytest.approx(14.0539, rel=1e-4)
        assert result["verdict"] == "stable"

    def test_undamped_has_zero_critical_delay(self, capsys):
        assert run("stability", "--mu", "15.6", "--beta", "0", "--kappa", "3000", "--json") == 0
        assert json.loads(capsys.readouterr().out)["h_c"] == 0.0

    def test_from_scenario_with_damping_override(self, capsys):
        assert run("stability", "--from-scenario", "table1.json",
                   "--h", "0.016", "--beta", "45", "--json") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["verdict"] == "unstable"
        assert result["penetration_mode"]["mu"] == pytest.approx(15.6, rel=1e-9)
        assert result["displacement_mode"]["beta"] == 90.0

    def test_missing_coefficients_exit_1(self):
        assert run("stability", "--mu", "15.6") == 1


class TestBoundary:
    def test_figure_checkpoint(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run("boundary", "--axis", "beta", "--mu", "60", "--kappa", "1000",
                   "--grid", "20", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "x_value,h_critical,omega_c,sigma"
        x, h_c, _, _ = map(float, rows[1].split(","))
        assert x == 20.0
        assert h_c == pytest.approx(0.020, rel=0.02)

    def test_grid_of_one_yields_one_row(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run("boundary", "--axis", "kappa", "--mu", "60", "--beta", "50",
                   "--grid", "1000", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_stiffer_family_shrinks_stability_region(self, tmp_path):
        curves = {}
        for kappa in (500, 1000, 2000):
            out = tmp_path / f"k{kappa}.csv"
            assert run("boundary", "--axis", "beta", "--mu", "60", "--kappa", str(kappa),
                       "--grid", "10:80:8", "--out", str(out)) == 0
            curves[kappa] = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.all(curves[2000][:, 1] < curves[1000][:, 1])
        assert np.all(curves[1000][:, 1] < curves[500][:, 1])

    def test_missing_fixed_coefficient_exits_1(self, tmp_path):
        assert run("boundary", "--axis", "beta", "--mu", "60",
                   "--grid", "1:2:2", "--out", str(tmp_path / "x.csv")) == 1


class TestLinearize:
    def test_matrix_dump(self, capsys):
        assert run("linearize", "table1.json") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["m_a"] == pytest.approx(15.6, rel=1e-9)
        assert result["F_x"][1][0] == pytest.approx(-3000.0 / 60.0)
        assert result["F_y"][3][2] == pytest.approx(-3000.0 / 15.6)
        assert result["T"][2] == pytest.approx([1.0, 0.0, -0.3 * np.cos(np.radians(30)), 0.0])


class TestEnergy:
    def _write_run(self, tmp_path, name, overrides=()):
        out = tmp_path / name
        args = ["simulate", "table1.json", "--set", "sim.t_end=0.9", "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert run(*args) == 0
        return tmp_path / f"{name}.traj.csv"

    def test_identical_files_are_lossless(self, tmp_path):
        traj = self._write_run(tmp_path, "run", ["contact.b_v=50"])
        out = tmp_path / "e.csv"
        assert run("energy", "--measured", str(traj), "--commanded", str(traj),
                   "--out", str(out)) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(8))
        assert np.all(data[:, 1:] == 0.0)
        classes = {line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]}
        assert classes == {"lossless"}

    def test_mismatched_row_counts_exit_1(self, tmp_path):
        traj = self._write_run(tmp_path, "full")
        lines = traj.read_text().splitlines()
        short = tmp_path / "short.traj.csv"
        short.write_text("\n".join(lines[:-10]) + "\n")
        assert run("energy", "--measured", str(traj), "--commanded", str(short),
                   "--out", str(tmp_path / "e.csv")) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "docksim", "stability",
         "--mu", "15.6", "--beta", "50", "--kappa", "3000"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "h_c" in proc.stdout


def test_help_exits_zero():
    assert run("--help") == 0
