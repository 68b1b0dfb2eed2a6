"""The experiment scripts under scripts/ run end to end at small size."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import docksim

from test_golden_outputs import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(docksim.__file__).resolve().parents[1])


def run_script(name, *args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    return proc.stdout if code == 0 else proc.stderr


def test_run_stability_maps(tmp_path):
    run_script("run_stability_maps.py", "--points", "5", "--out-dir", str(tmp_path))
    files = sorted(tmp_path.glob("*.csv"))
    assert len(files) == 21  # three base curves and eighteen family members
    for path in files:
        lines = path.read_text().splitlines()
        assert lines[0] == "x_value,h_critical,omega_c,sigma" and len(lines) == 6


@pytest.mark.parametrize("points", ["0", "-3"])
def test_run_stability_maps_rejects_an_empty_grid(tmp_path, points):
    # both used to end in a traceback: an empty grid, or numpy's negative
    # sample count
    out = tmp_path / "maps"
    err = run_script("run_stability_maps.py", "--points", points, "--out-dir", str(out), code=1)
    assert err == f"error: --points must be >= 1, got {points}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["run_table1.py", "run_demo3d.py", "run_stability_maps.py",
                                  "bench_layers.py", "code_lines.py"])
def test_unknown_flag_is_a_usage_error(name):
    # argparse's own usage exit is 2, the code of a divergence; the scripts
    # exit 1, as docksim does
    err = run_script(name, "--bogus", code=1)
    assert err.startswith(f"usage: {name} ")
    assert err.endswith(f"\n{name}: error: unrecognized arguments: --bogus\n")


def test_run_table1(tmp_path):
    out = tmp_path / "table1.csv"
    run_script("run_table1.py", "--betas", "50", "--out", str(out))
    header, row = out.read_text().splitlines()
    assert header == "beta,beta_c_over_beta,epsilon,linear_verdict,nonlinear_cue"
    assert row.startswith("50,")


@pytest.mark.parametrize("betas, message", [
    # negative damping used to run and then end in a traceback, NaN
    # damping to integrate until the divergence guard's traceback
    ("50,-5", "b_v must be finite and >= 0, got -5.0"),
    ("nan", "b_v must be finite and >= 0, got nan"),
    ("abc", "could not convert string to float: 'abc'"),
])
def test_run_table1_rejects_a_bad_beta(tmp_path, betas, message):
    out = tmp_path / "table1.csv"
    err = run_script("run_table1.py", "--betas", betas, "--out", str(out), code=1)
    assert err == f"error: --betas: {message}\n"
    assert not out.exists()


def test_run_table1_reports_a_divergence(tmp_path):
    # a damping this stiff for the step diverges: the divergence guard's
    # exit 2 and one line naming the damping, not a traceback and exit 1
    out = tmp_path / "table1.csv"
    err = run_script("run_table1.py", "--betas", "50,1e7", "--out", str(out), code=2)
    assert err == ("divergence guard: beta = 1e+07 N*s/m: state magnitude exceeded divergence "
                   "bound 1.05e+03 at t = 0.545 s (instability)\n")
    assert not out.exists()


def test_run_demo3d(tmp_path):
    run_script("run_demo3d.py", "--out-dir", str(tmp_path))
    for label in ("damped", "undamped"):
        assert (tmp_path / f"{label}.traj.csv").exists()
        events = json.loads((tmp_path / f"{label}.events.json").read_text())["events"]
        assert events and all("max_depth" in e and "classification" in e for e in events)
    assert (tmp_path / "damped.energy.csv").exists()
    # the damped run is the bundled demo3d scenario, as `docksim simulate` writes it
    digests = tuple(hashlib.sha256((tmp_path / f"damped.{kind}").read_bytes()).hexdigest()
                    for kind in ("traj.csv", "events.json"))
    assert digests == GOLDEN[("demo3d", "3d")]


def test_run_demo3d_out_dir_that_is_a_file(tmp_path):
    out = tmp_path / "results"
    out.write_text("")
    err = run_script("run_demo3d.py", "--out-dir", str(out), code=1)
    assert err == f"error: [Errno 17] File exists: '{out}'\n"


def test_bench_layers(tmp_path):
    # the bundled scenarios at their own dt, and table1 and demo3d at
    # steps that make h/dt = 1 and 2 (t_end rounded to 0.048 s), and 1.6,
    # 3.2, 6.4 and 12.8
    short = {"dt0.016": 3, "dt0.008": 6, "dt0.01": 5, "dt0.005": 10, "dt0.0025": 20, "dt0.00125": 40}
    steps = {"table1-2d": 500, "fig7-2d": 500, "table1-3d": 500, "fig7-3d": 500, "demo3d-3d": 500}
    steps.update({f"{case}-{dt}": n for case in ("table1-2d", "demo3d-3d") for dt, n in short.items()})
    timings = ("us_per_step", "load_scenario_us", "write_csv_us_per_row", "read_csv_us_per_row")
    # without --side, one side: the docksim this test imports, in its own
    # process
    out = tmp_path / "bench.json"
    run_script("bench_layers.py", "--t-end", "0.05", "--rounds", "1", "--repeat", "1", "--out", str(out))
    report = json.loads(out.read_text())
    assert set(report["sides"]) == {"docksim"} and "paired" not in report
    cases = report["sides"]["docksim"]["cases"]
    assert set(cases) == set(steps)
    for name, case in cases.items():
        # one block of int(h/dt) steps (160 at the own dt), then one
        # speculative span
        assert case["steps"] == steps[name] and case["wrench_calls_per_run"] == 2
        # the simulate trajectory in the 2D or 3D layout; demo3d records
        # every 10th step at its own dt, the short-delay cases every step
        rows = 51 if name == "demo3d-3d" else steps[name] + 1
        assert (case["csv_rows"], case["csv_columns"]) == (rows, 9 if "-2d" in name else 19)
        for key in timings:
            assert len(case[key]["per_round"]) == 1 and case[key]["median"] == case[key]["per_round"][0] > 0.0
    # the round ran the cases in a shuffled order, recorded
    order, = report["case_order_per_round"]["docksim"]
    assert sorted(order) == sorted(steps) and order != list(cases)
    stability = report["sides"]["docksim"]["stability"]
    assert set(stability) == {"boundary_us_per_point", "critical_damping_us"}
    assert all(figure["median"] > 0.0 for figure in stability.values())
    # one round of each of two sides, both in the round's order
    report = json.loads(run_script("bench_layers.py", "--t-end", "0.05", "--rounds", "1",
                                   "--repeat", "1", "--side", f"a={SRC}", "--side", f"b={SRC}"))
    assert set(report["sides"]) == {"a", "b"}
    orders = report["case_order_per_round"]
    assert set(orders) == {"a", "b"} and orders["a"] == orders["b"] == [order]
    for side in report["sides"].values():
        assert set(side["cases"]) == set(steps)
        assert all(side["cases"][name]["steps"] == n for name, n in steps.items())
        assert set(side["stability"]) == {"boundary_us_per_point", "critical_damping_us"}
        assert all(figure["median"] > 0.0 for figure in side["stability"].values())
    # b against a per case: one round's ratio, its median, rounds b won
    assert set(report["paired"]) == {"b/a"}
    paired = report["paired"]["b/a"]
    assert set(paired) == set(steps)
    for name, case in paired.items():
        assert set(case) == {"ratio_per_round", "median_ratio", "rounds_faster"}
        ratio = case["ratio_per_round"][0]
        assert len(case["ratio_per_round"]) == 1 and case["median_ratio"] == ratio > 0.0
        assert case["rounds_faster"] == (ratio < 1.0)
        a, b = (report["sides"][side]["cases"][name]["us_per_step"]["per_round"][0] for side in "ab")
        assert ratio == round(b / a, 4)


def test_bench_layers_rejects_a_side_without_docksim(tmp_path):
    # named on one line before any round runs; it used to end in the
    # child's CalledProcessError, its stderr dropped
    out = tmp_path / "bench.json"
    err = run_script("bench_layers.py", "--side", f"a={SRC}", "--side", f"b={tmp_path}",
                     "--out", str(out), code=1)
    assert err == f"error: --side b: no docksim package in '{tmp_path}'\n"
    assert not out.exists()


def test_bench_layers_reports_a_failing_side(tmp_path):
    # a side whose child fails: exit 3 and the child's last stderr line
    (tmp_path / "docksim").mkdir()
    (tmp_path / "docksim" / "__init__.py").write_text('raise ImportError("this docksim does not import")\n')
    out = tmp_path / "bench.json"
    err = run_script("bench_layers.py", "--side", f"broken={tmp_path}", "--out", str(out), code=3)
    assert err == ("internal error: RuntimeError: side broken, round 0: exit 1: "
                   "ImportError: this docksim does not import\n")
    assert not out.exists()


def test_code_lines(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment line\n"
        "import math  # a code line with a comment\n"
        "\n"
        "\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Method docstring\n"
        "        over two lines.'''\n"
        '        text = """a string,\n'
        '        not a docstring"""\n'
        "        return (text,\n"
        "                math.pi)\n"
    )
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n")
    out = run_script("code_lines.py", str(tmp_path / "pkg"))
    # one.py: import, class, def, both lines of the string, both of the return
    assert out == "     7  one.py\n     1  two.py\n     8  total\n"
