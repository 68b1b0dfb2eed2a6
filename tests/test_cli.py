import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim
from docksim.cli import _write_json, exit_code, load_scenario, main, scenario_path
from docksim.core import ValidationError
from docksim.dynamics import DivergenceError
from docksim.linear import penetration_dde_coeffs

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


def test_step_count_beyond_numpy_exits_1(tmp_path, capsys):
    # 1.2e300 rows: numpy refuses the array before allocating anything,
    # which used to exit 3 as an internal error
    code = run("simulate", "table1", "--set", "sim.dt=1e-300", "--out", str(tmp_path / "big"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: t_end/dt = 1.2e+300 steps is too large: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "big.traj.csv").exists()


@pytest.mark.parametrize("h", ["Infinity", "NaN", "-0.016"])
def test_unusable_delay_exits_1(tmp_path, capsys, h):
    code = run("simulate", "table1.json", "--set", f"sim.h={h}", "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: h must be finite and >= 0, got {float(h)!r}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


def test_infinite_stiffness_exits_1_with_its_own_diagnostic(tmp_path, capsys):
    code = run("simulate", "table1", "--set", "contact.k_v=Infinity", "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: k_v must be finite and >= 0, got inf\n"


@pytest.mark.parametrize("override, message", [
    ("body=5", "body must be an object, got 5"),
    # springs that are not a list used to end in Python's "'int' object is
    # not iterable"; a string or an object was read spring by spring, one
    # per character or key
    ("contact.springs=5", "contact.springs must be a list, got 5"),
    ('contact.springs="ab"', 'contact.springs must be a list, got "ab"'),
    ('contact.springs={"k": 1}', 'contact.springs must be a list, got {"k": 1}'),
    ("contact.springs=[[1,2]]", "contact.springs[0] must be an object, got [1, 2]"),
    # a string used to be read as a set of keys, one per character: "body:
    # give exactly one of J (3x3) or J_x", and a newline split the error line
    ('body="m"', 'body must be an object, got "m"'),
    ('contact.springs=["ab\\ncd"]', 'contact.springs[0] must be an object, got "ab\\ncd"'),
    # "ab" used to exit 3 (dict() of a string), [] to run with exit 0 and
    # [["neutrality_band", 0.5]] to be read as that key
    ('analysis="ab"', 'analysis must be an object, got "ab"'),
    ("analysis=[]", "analysis must be an object, got []"),
    ('analysis=[["neutrality_band", 0.5]]', 'analysis must be an object, got [["neutrality_band", 0.5]]'),
    # used to read "malformed scenario value ('int' object has no attribute 'get')"
    ("sim.initial=5", "sim.initial must be an object, got 5"),
])
def test_malformed_scenario_value_exits_1(tmp_path, capsys, override, message):
    # one line, no traceback, and no file path, which no other reader error names
    assert run("simulate", "table1.json", "--set", override, "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr() == ("", f"error: malformed scenario value ({message})\n")


@pytest.mark.parametrize("exc_type", [TypeError, AttributeError])
@pytest.mark.parametrize("constructor", ["BodyParams", "ContactParams", "ChaserState2D", "SimConfig"])
def test_fault_in_a_type_constructor_exits_3(monkeypatch, capsys, exc_type, constructor):
    # load_scenario used to report any TypeError or AttributeError raised
    # while reading a scenario as "malformed scenario value", exit 1
    def fault(*args, **kwargs):
        raise exc_type("internal bug in a constructor")

    monkeypatch.setattr(f"docksim.cli.{constructor}", fault)
    assert run("stability", "--from-scenario", "table1") == 3
    assert capsys.readouterr() == ("", f"internal error: {exc_type.__name__}: internal bug in a constructor\n")


# (section, the key table1 gives, the other key of its pair with a value)
EITHER_OR = [
    ("body", "J_x", "J=[[1,0,0],[0,1,0],[0,0,1]]", "body: give exactly one of J or J_x"),
    ("body", "a", "a_B=[0,0,0.3]", "body: give exactly one of a_B or a"),
    ("contact", "alpha_deg", "alpha=0.5", "contact: give exactly one of alpha or alpha_deg"),
    ("sim.initial", "theta_deg", "theta=1.0", "sim.initial: give exactly one of theta or theta_deg"),
]


@pytest.mark.parametrize("section, key, other, message", EITHER_OR, ids=[m[1] for m in EITHER_OR])
def test_either_or_keys_take_exactly_one(tmp_path, capsys, section, key, other, message):
    assert run("simulate", "table1", "--set", f"{section}.{other}", "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    doc = json.loads(scenario_path("table1").read_text())
    node = doc
    for name in section.split("."):
        node = node[name]
    del node[key]
    neither = tmp_path / "neither.json"
    neither.write_text(json.dumps(doc))
    assert run("simulate", str(neither), "--out", str(tmp_path / "x")) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x.traj.csv").exists()


def test_radian_angles_load_like_their_degree_twins(tmp_path):
    doc = json.loads(scenario_path("table1").read_text())
    contact, initial = doc["contact"], doc["sim"]["initial"]
    contact["alpha"] = math.radians(contact.pop("alpha_deg"))
    initial["theta"] = math.radians(initial.pop("theta_deg"))
    radians = tmp_path / "radians.json"
    radians.write_text(json.dumps(doc))
    assert repr(load_scenario(radians)) == repr(load_scenario(scenario_path("table1")))


def test_override_without_an_equals_sign_exits_1(capsys):
    assert run("stability", "--from-scenario", "table1", "--set", "contact.b_v") == 1
    assert capsys.readouterr() == ("", "error: override must look like section.key=value, got 'contact.b_v'\n")


@pytest.mark.parametrize("key", ["averaging_window", "neutrality_band"])
@pytest.mark.parametrize("value", ["1e400", "NaN", "-1", "Infinity"])
def test_unusable_analysis_option_exits_1(tmp_path, capsys, key, value):
    # 1e400 reads as inf: the window used to end in an OverflowError
    # traceback, a NaN or negative window in one sample, and a bad band
    # rewrote every verdict ("neutral" for inf)
    code = run("simulate", "table1.json", "--set", f"analysis.{key}={value}",
               "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: analysis.{key} must be finite and >= 0, got {float(value)!r}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


@pytest.mark.parametrize("override, message", [
    ("body.m=true", "body.m must be a number, got true"),
    ("contact.b_v=true", "contact.b_v must be a number, got true"),
    ("contact.alpha_deg=false", "contact.alpha_deg must be a number, got false"),
    ('contact.springs=[{"k": true, "l_hat": [0, 0, 1]}]', "contact.springs[0].k must be a number, got true"),
    ("sim.initial.v_z=true", "sim.initial.v_z must be a number, got true"),
    ("sim.initial.y=false", "sim.initial.y must be a number, got false"),
    ("sim.record_every=true", "sim.record_every must be a number, got true"),
    ("sim.dt=true", "sim.dt must be a number, got true"),
    ("analysis.neutrality_band=false", "analysis.neutrality_band must be a number, got false"),
    ("body.m=null", "body.m must be a number, got null"),
    ('contact.b_v="50"', 'contact.b_v must be a number, got "50"'),
    ('contact.b_v="abc"', 'contact.b_v must be a number, got "abc"'),
    ("contact.b_v=abc", 'contact.b_v must be a number, got "abc"'),
    ("sim.record_every=2.9", "sim.record_every must be a whole number, got 2.9"),
    ("sim.record_every=NaN", "sim.record_every must be a whole number, got NaN"),
    ("sim.record_every=Infinity", "sim.record_every must be a whole number, got Infinity"),
])
def test_scalar_that_is_not_a_json_number_exits_1(tmp_path, capsys, override, message):
    # float(True) is 1.0: b_v = true used to run with b_v = 1 N*s/m; b_v =
    # "50" ran with 50, record_every = 2.9 kept every 2nd row, and NaN and
    # Infinity ended in int()'s own error or an OverflowError traceback
    code = run("simulate", "table1.json", "--set", override, "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


@pytest.mark.parametrize("scenario, override, message", [
    ("fig7", "contact.n_hat=[0,0,true]", "contact.n_hat must hold numbers, got true"),
    # null used to read as nan: "n_hat not unit (|n_hat| = nan)"
    ("fig7", "contact.n_hat=[0,0,null]", "contact.n_hat must hold numbers, got null"),
    ("demo3d", "body.J=[[500,0,0],[0,500,0],[0,0,true]]", "body.J must hold numbers, got true"),
    ("demo3d", "body.a_B=[0,false,0.3]", "body.a_B must hold numbers, got false"),
    ("demo3d", 'contact.springs=[{"k": 4000, "l_hat": [0, 0, true]}]',
     "contact.springs[0].l_hat must hold numbers, got true"),
    ("demo3d", "sim.initial.r=[0,0.01,true]", "sim.initial.r must hold numbers, got true"),
    ("demo3d", "sim.initial.omega=[false,0,0]", "sim.initial.omega must hold numbers, got false"),
])
def test_non_number_in_a_vector_or_matrix_exits_1(tmp_path, capsys, scenario, override, message):
    # np.array(..., dtype=float) reads true as 1: J = [[500,0,0],[0,500,0],[0,0,true]]
    # used to run with J_zz = 1 kg*m^2
    code = run("simulate", scenario, "--set", override, "--set", "sim.t_end=0.01",
               "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


@pytest.mark.parametrize("override, message", [
    # numpy's "inhomogeneous shape" text, naming neither the key nor 3x3
    ("body.J=[[500,0],[0,500,0],[0,0,500]]",
     "body.J must be a 3x3 matrix, got [[500, 0], [0, 500, 0], [0, 0, 500]]"),
    # "expected length-3 vector, got shape (2,)", naming no key
    ("body.a_B=[0,0.3]", "body.a_B must be a length-3 vector, got [0, 0.3]"),
    # used to run with exit 0
    ("sim.initial.r=[[0],[0],[1]]", "sim.initial.r must be a length-3 vector, got [[0], [0], [1]]"),
    ("contact.n_hat=[0,0,1,0]", "contact.n_hat must be a length-3 vector, got [0, 0, 1, 0]"),
    ("contact.springs.0.l_hat=1", "contact.springs[0].l_hat must be a length-3 vector, got 1"),
])
def test_wrong_shape_exits_1(tmp_path, capsys, override, message):
    code = run("simulate", "demo3d", "--set", override, "--set", "sim.t_end=0.01",
               "--out", str(tmp_path / "bad"))
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


HUGE = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("argv, message", [
    (["simulate", "table1", "--set", f"contact.b_v={HUGE}"],
     "contact.b_v must fit a float, got an integer of 401 digits"),
    (["stability", "--from-scenario", "table1", "--set", f"contact.k_v={HUGE}"],
     "contact.k_v must fit a float, got an integer of 401 digits"),
    (["simulate", "table1", "--set", f"sim.record_every=-{HUGE}"],
     "sim.record_every must fit a float, got an integer of 401 digits"),
    (["simulate", "demo3d", "--set", f"body.a_B=[0,0,{HUGE}]"],
     "body.a_B must fit a float, got an integer of 401 digits"),
    (["simulate", "demo3d", "--set", f'contact.springs.0={{"k": 1, "l_hat": [0, 0, {HUGE}]}}'],
     "contact.springs[0].l_hat must fit a float, got an integer of 401 digits"),
])
def test_integer_too_large_for_a_float_exits_1(tmp_path, capsys, argv, message):
    # float() and numpy used to overflow on it: an OverflowError traceback
    out_args = ["--out", str(tmp_path / "bad")] if argv[0] == "simulate" else []
    assert run(*argv, "--set", "sim.t_end=0.01", *out_args) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "bad.traj.csv").exists()


def test_integer_beyond_pythons_digit_limit_exits_1(tmp_path, capsys):
    # json refuses an integer of more than 4300 digits (where Python caps
    # them) with a plain ValueError, which is not an input error: one error
    # line that names the override, or the file, and exit 1
    digits = "1" + "0" * 5000
    scenario = tmp_path / "huge.json"
    scenario.write_text(f'{{"body": {{"m": {digits}}}}}')
    for argv, where in ((["table1", "--set", f"body.m={digits}"], "body.m"), ([str(scenario)], str(scenario))):
        assert run("simulate", *argv, "--out", str(tmp_path / "bad")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and where in err


@pytest.mark.parametrize("override, message", [
    # |a_B| overflowed to inf with numpy's warning, and the run went ahead
    ("body.a_B=[0,0,1e200]", "probe vector a_B is too long: |a_B| overflows a float"),
    # h/dt overflowed in the integrator: an OverflowError traceback
    ("sim.h=1e305", "delay h = 1e+305 is beyond the float range in steps dt = 0.0001"),
])
def test_value_whose_size_overflows_a_derived_quantity_exits_1(tmp_path, capsys, override, message):
    assert run("simulate", "demo3d", "--set", override, "--set", "sim.t_end=0.01",
               "--out", str(tmp_path / "bad")) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_stiffness_sum_beyond_the_float_range_exits_1(tmp_path, capsys):
    # each spring is finite; their sum used to end in numpy's overflow
    # warning and a nan stiffness (linearize, stability) or a run (simulate)
    springs = '[{"k": 1.7e308, "l_hat": [0, 0, 1]}, {"k": 1.7e308, "l_hat": [0, 0, 1]}]'
    for argv in (["simulate", "table1", "--out", str(tmp_path / "bad")], ["linearize", "table1"],
                 ["stability", "--from-scenario", "table1"]):
        assert run(*argv, "--set", f"contact.springs={springs}", "--set", "sim.t_end=0.01") == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: stiffness k_v + sum of spring k_i overflows a float\n"
    assert not (tmp_path / "bad.traj.csv").exists()


def _leaf_paths(node, prefix=()):
    """Every dotted --set path to a scalar of a scenario document."""
    if not isinstance(node, (dict, list)):
        yield ".".join(prefix)
        return
    items = node.items() if isinstance(node, dict) else ((str(i), x) for i, x in enumerate(node))
    for key, value in items:
        yield from _leaf_paths(value, prefix + (key,))


# sim.dt and sim.t_end are never drawn: nothing caps the step count
# t_end/dt, and the integrator allocates all of its rows up front
FUZZ_PATHS = sorted(
    (name, path)
    for name in ("table1", "demo3d")
    for path in {*_leaf_paths(json.loads(scenario_path(name).read_text())),
                 *(f"contact.springs.{i}" for i in range(6)),
                 "nosuch", "body.nosuch", "sim.initial.nosuch", "contact.springs.0.nosuch",
                 "body", "contact", "contact.springs", "sim.initial", "analysis"}
    if path not in ("sim.dt", "sim.t_end")
)
_JSON_SCALARS = st.one_of(
    st.integers(-10 ** 400, 10 ** 400).map(json.dumps),
    st.floats().map(json.dumps),  # NaN, Infinity and -Infinity among them
    st.sampled_from(["true", "false", "null"]),
    st.text(max_size=5).map(json.dumps),
)
FUZZ_VALUES = st.one_of(
    _JSON_SCALARS,
    st.text(max_size=5),  # not JSON: --set reads it as a string
    st.lists(_JSON_SCALARS, max_size=4).map(lambda items: f"[{','.join(items)}]"),
    st.dictionaries(st.sampled_from(["k", "l_hat"]) | st.text(max_size=3), _JSON_SCALARS, max_size=3).map(
        lambda entries: "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in entries.items()) + "}"),
)


def _assert_documented_exits(name, override):
    """simulate, stability --from-scenario and linearize of the scenario
    with the override (and sim.t_end = 0.01) each end in 0 success, 1 one
    error line or 2 one divergence line; never in a traceback or an
    internal fault (3)."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (["simulate", name, "--out", f"{tmp}/run"], ["stability", "--from-scenario", name],
                     ["linearize", name]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, "--set", override, "--set", "sim.t_end=0.01"])
            lines = err.getvalue().splitlines(keepends=True)
            assert code in (0, 1, 2), err.getvalue()
            if code:
                assert len(lines) == 1 and lines[0].startswith(("error: ", "divergence guard: ")[code - 1])
            else:
                assert lines == []


@settings(max_examples=150, deadline=None)
@given(where=st.sampled_from(FUZZ_PATHS), value=FUZZ_VALUES)
def test_any_override_ends_in_a_documented_exit(where, value):
    name, path = where
    _assert_documented_exits(name, f"{path}={value}")


@pytest.mark.parametrize("value", ["5", '"ab"', "null", "true", "[]", "[1]", "{}"])
@pytest.mark.parametrize("path", ["body", "contact", "contact.springs", "contact.springs.0", "sim.initial",
                                  "analysis"])
def test_any_kind_of_section_ends_in_a_documented_exit(path, value):
    # every JSON kind where an object or a list belongs, drawn by the fuzz
    # test above only at random: each is read as input, none as a fault
    for name in ("table1", "demo3d"):
        _assert_documented_exits(name, f"{path}={value}")


def test_override_steps_into_a_list(tmp_path):
    springs = json.loads(scenario_path("demo3d").read_text())["contact"]["springs"]
    springs[0]["k"] = 5000.0
    springs[1]["l_hat"] = [0.0, 1.0, 0.0]
    assert run("simulate", "demo3d", "--set", "contact.springs.0.k=5000",
               "--set", "contact.springs.1.l_hat=[0,1,0]", "--out", str(tmp_path / "indexed")) == 0
    assert run("simulate", "demo3d", "--set", f"contact.springs={json.dumps(springs)}",
               "--out", str(tmp_path / "whole")) == 0
    for suffix in (".traj.csv", ".events.json"):
        assert (tmp_path / f"indexed{suffix}").read_bytes() == (tmp_path / f"whole{suffix}").read_bytes()
    assert json.loads((tmp_path / "whole.events.json").read_text())["events"]


@pytest.mark.parametrize("path", [
    "contact.springs.9.k", "contact.springs.x.k", "contact.springs.-1.k",
    # an index beyond Python's 4 300-digit int() limit used to exit 3
    pytest.param("contact.springs.1" + "0" * 5000 + ".k", id="contact.springs.1e5000.k"),
])
def test_override_path_outside_a_list_exits_1(tmp_path, capsys, path):
    code = run("simulate", "demo3d", "--set", f"{path}=1", "--out", str(tmp_path / "bad"))
    assert code == 1
    assert capsys.readouterr().err == f"error: override path {path!r} does not lead into the document\n"


def test_boolean_window_and_damping_exit_1(tmp_path, capsys):
    # both used to be accepted: the run went ahead with b_v = 1 and a 1 s window
    code = run("simulate", "table1", "--set", "contact.b_v=true",
               "--set", "analysis.averaging_window=true", "--out", str(tmp_path / "bad"))
    assert code == 1
    assert capsys.readouterr().err == "error: contact.b_v must be a number, got true\n"
    assert not (tmp_path / "bad.traj.csv").exists()


def test_unknown_key_is_named_on_one_line(tmp_path, capsys):
    code = run("simulate", "table1", "--set", 'analysis={"a\\nb": 1}', "--out", str(tmp_path / "x"))
    assert code == 1
    assert capsys.readouterr().err == "error: unknown key(s) in analysis: a\\nb\n"


def test_energy_tolerance_is_not_a_scenario_key(tmp_path, capsys):
    code = run("simulate", "table1.json", "--set", "analysis.energy_tolerance=1e-6",
               "--out", str(tmp_path / "x"))
    assert code == 1
    assert "unknown key(s) in analysis: energy_tolerance" in capsys.readouterr().err


def test_bundled_name_resolution_prefers_local_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bundled = scenario_path("table1.json")
    assert bundled.is_absolute() and bundled.name == "table1.json"
    local = tmp_path / "table1.json"
    local.write_text("{}")
    assert scenario_path("table1.json").resolve() == local.resolve()


def test_a_directory_does_not_shadow_a_bundled_scenario(tmp_path, monkeypatch, capsys):
    # a directory named like a bundled scenario used to win the lookup, and
    # both runs exited 1 with "error: [Errno 21] Is a directory: 'demo3d'"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "demo3d").mkdir()
    assert scenario_path("demo3d") == scenario_path("demo3d.json")
    assert scenario_path("demo3d").is_file()
    assert run("simulate", "demo3d", "--out", "demo3d/run") == 0
    assert (tmp_path / "demo3d" / "run.traj.csv").is_file()
    assert run("stability", "--from-scenario", "demo3d") == 0
    assert capsys.readouterr().err == ""


def test_a_pipe_is_read_as_a_scenario(capsys):
    # as --from-scenario <(cat table1.json) passes it: a path that exists
    # and is not a regular file
    r, w = os.pipe()
    os.write(w, scenario_path("table1").read_bytes())
    os.close(w)
    try:
        assert run("stability", "--from-scenario", f"/dev/fd/{r}", "--json") == 0
    finally:
        os.close(r)
    piped = json.loads(capsys.readouterr().out)
    assert run("stability", "--from-scenario", "table1", "--json") == 0
    bundled = json.loads(capsys.readouterr().out)
    assert piped.pop("scenario") == f"/dev/fd/{r}" and bundled.pop("scenario").endswith("table1.json")
    assert piped == bundled


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
        assert json.loads((tmp_path / "p3.meta.json").read_text())["mode"] == "3d"


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

    @pytest.mark.parametrize("overrides", [
        [],
        ["--mu", "1", "--kappa", "9000", "--n-delays", "2"],
        ["--beta", "45", "--h", "0.02", "--band", "0.1"],
    ])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_from_scenario_supplies_only_defaults(self, capsys, overrides, json_flag):
        # table1: penetration mode (m_a, b_v, k) = (15.6, 0, 3000), h = 16 ms,
        # band 0.02; each flag given overrides its default, and the run
        # prints what the explicit coefficients print (JSON: plus the path)
        body, contact, sim, options = load_scenario(scenario_path("table1.json"))
        explicit = dict(zip(["--mu", "--beta", "--kappa", "--h", "--band"],
                            map(repr, [*penetration_dde_coeffs(body, contact), sim.h,
                                       options["neutrality_band"]])))
        explicit.update(zip(overrides[::2], overrides[1::2]))
        assert run("stability", "--from-scenario", "table1.json", *overrides, *json_flag) == 0
        from_scenario = capsys.readouterr().out
        assert run("stability", *(x for item in explicit.items() for x in item), *json_flag) == 0
        expected = capsys.readouterr().out
        if json_flag:
            from_scenario = json.loads(from_scenario)
            assert from_scenario.pop("scenario") == str(scenario_path("table1.json"))
            expected = json.loads(expected)
        assert from_scenario == expected

    def test_out_writes_json_with_or_without_the_json_flag(self, tmp_path, capsys):
        # --out without --json used to print the text report and write no file
        coefficients = ["--mu", "15.6", "--beta", "50", "--kappa", "3000", "--h", "0.016"]
        for name, json_flag in (("plain.json", []), ("flagged.json", ["--json"])):
            assert run("stability", *coefficients, *json_flag, "--out", str(tmp_path / name)) == 0
            assert capsys.readouterr().out == ""
        written = (tmp_path / "plain.json").read_text()
        assert written == (tmp_path / "flagged.json").read_text()
        assert json.loads(written)["verdict"] == "stable"

    def test_from_scenario_judges_the_penetration_mode(self, capsys):
        # fig7's (m, 2b, 2k) pair, no mode of the linearization, once gave
        # h_c = 0.0486231 s here
        assert run("stability", "--from-scenario", "fig7") == 0
        assert "h_c     = 0.0493085046 s\n" in capsys.readouterr().out

    @pytest.mark.parametrize("n_delays", ["0", "-3"])
    def test_fewer_than_one_delay_exits_1(self, capsys, n_delays):
        # used to list one delay and exit 0
        assert run("stability", "--mu", "15.6", "--beta", "50", "--kappa", "3000",
                   "--n-delays", n_delays) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: n_delays must be >= 1, got {n_delays}\n"

    def test_missing_coefficients_exit_1(self):
        assert run("stability", "--mu", "15.6") == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--mu", "Infinity", "mu must be finite and > 0, got inf"),
        ("--beta", "inf", "beta must be finite and >= 0, got inf"),
    ])
    def test_non_finite_coefficient_exits_1(self, capsys, flag, value, message):
        coefficients = {"--mu": "15.6", "--beta": "50", "--kappa": "3000", flag: value}
        assert run("stability", *(x for item in coefficients.items() for x in item)) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_set_without_a_scenario_exits_1(self, capsys):
        assert run("stability", "--mu", "15.6", "--beta", "50", "--kappa", "3000",
                   "--set", "contact.b_v=5", "--set", "nonsense") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --set") and err.count("\n") == 1

    def test_overflowing_closed_form_exits_1(self, capsys):
        assert run("stability", "--mu", "1", "--beta", "1e200", "--kappa", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: closed form out of floating-point range") and err.count("\n") == 1

    @pytest.mark.parametrize("h", ["nan", "inf"])
    @pytest.mark.parametrize("source", [["--mu", "1", "--beta", "1", "--kappa", "1"],
                                        ["--from-scenario", "table1.json"]])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_non_finite_delay_exits_1(self, capsys, h, source, json_flag):
        assert run("stability", *source, "--h", h, *json_flag) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: h must be finite and >= 0, got {float(h)!r}\n"

    @pytest.mark.parametrize("band", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("source", [["--mu", "1", "--beta", "1", "--kappa", "1"],
                                        ["--from-scenario", "table1.json"]])
    def test_unusable_band_exits_1(self, capsys, band, source):
        assert run("stability", *source, "--h", "0.5", "--band", band) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: band must be finite and >= 0, got {float(band)!r}\n"


def test_internal_fault_exits_3(monkeypatch, capsys):
    # any exception but an input error, a divergence or a closed pipe: one
    # line, no traceback, and never 1, which would read as bad input
    def fault(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr("docksim.stability.analyze", fault)
    assert run("stability", "--mu", "1", "--beta", "1", "--kappa", "1") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: ZeroDivisionError: float division by zero\n"

    # a plain ValueError is a fault too: only a ValidationError (or an
    # OSError) is bad input
    def value_fault(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr("docksim.linear.penetration_dde_coeffs", value_fault)
    assert run("linearize", "table1") == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: ValueError: math domain error\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_non_finite_values(tmp_path, capsys, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        _write_json({"h": value}, str(path))
    with pytest.raises(ValueError):
        _write_json({"h": [1.0, value]}, None)
    assert not path.exists() and capsys.readouterr().out == ""


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

    def test_overflowing_point_is_reported_and_written_as_nan(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("boundary", "--axis", "beta", "--mu", "1", "--kappa", "1",
                   "--grid", "1,1e200", "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert "(2 points, 1 failed)" in captured.out
        assert "x = 1e+200: closed form out of floating-point range" in captured.err
        assert out.read_text().splitlines()[2] == "1e+200,nan,nan,nan"

    def test_missing_fixed_coefficient_exits_1(self, tmp_path):
        assert run("boundary", "--axis", "beta", "--mu", "60",
                   "--grid", "1:2:2", "--out", str(tmp_path / "x.csv")) == 1

    def test_fixed_value_for_the_swept_axis_exits_1(self, tmp_path, capsys):
        # --beta 3 along beta used to be dropped without a word, with exit 0
        out = tmp_path / "x.csv"
        assert run("boundary", "--axis", "beta", "--beta", "3", "--mu", "60", "--kappa", "1000",
                   "--grid", "1", "--out", str(out)) == 1
        assert capsys.readouterr() == ("", "error: sweep along 'beta' takes no fixed beta\n")
        assert not out.exists()

    # these used to end in Python's "could not convert string to float",
    # "invalid literal for int()" or numpy's "Maximum allowed size
    # exceeded", which named no grid
    @pytest.mark.parametrize("grid, message", [
        *((grid, f"grid must be start:stop:count (a whole count) or a comma list of numbers, got {grid!r}\n")
          for grid in ("a:b:3", "0:1:2.5", "1,x")),
        ("0:1:1" + "0" * 27, f"grid count 1{'0' * 27} is too large: "),
        ("1:2", "grid must be start:stop:count, got '1:2'\n"),
        ("0:1:0", "grid count must be >= 1\n"),
    ], ids=["letters", "fractional-count", "list-item", "huge-count", "two-parts", "zero-count"])
    def test_malformed_grid_exits_1_quoting_it(self, tmp_path, capsys, grid, message):
        out = tmp_path / "x.csv"
        assert run("boundary", "--axis", "beta", "--mu", "60", "--kappa", "1000",
                   "--grid", grid, "--out", str(out)) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()


class TestLinearize:
    def test_matrix_dump(self, capsys):
        assert run("linearize", "table1.json") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["m_a"] == pytest.approx(15.6, rel=1e-9)
        assert result["F_x"][1][0] == pytest.approx(-3000.0 / 60.0)
        assert result["F_y"][3][2] == pytest.approx(-3000.0 / 15.6)
        assert result["T"][2] == pytest.approx([1.0, 0.0, -0.3 * np.cos(np.radians(30)), 0.0])

    # a negative stiffness or damping used to be written out with exit 0;
    # nan exited 1 only through the JSON writer's error
    @pytest.mark.parametrize("flag, value", [("--k", "-5"), ("--k", "nan"), ("--b", "-1"), ("--b", "inf")])
    def test_unusable_analysis_pair_exits_1(self, tmp_path, capsys, flag, value):
        out = tmp_path / "lin.json"
        assert run("linearize", "table1", flag, value, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: {flag[2:]} must be finite and >= 0, got {float(value)!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("override, message", [
        # -k/m overflowed to -inf, which exited 1 only through the JSON
        # writer's error
        ("body.m=5e-324", "linearization out of floating-point range at m=5e-324, "
                          "J_x=1.422972972972973, k=3000.0, b=0.0"),
        # m_a underflowed to 0: a ZeroDivisionError, exit 3
        ("body.J_x=5e-324", "m_a must be finite and > 0, got 0.0"),
    ], ids=["overflow", "underflow"])
    def test_model_out_of_float_range_exits_1(self, capsys, override, message):
        assert run("linearize", "table1", "--set", override) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

    @pytest.mark.parametrize("text, message", [
        ("t,q\n0,1\n", "unrecognized trajectory header"),
        # a header and no rows used to end in an IndexError traceback
        ("t,z,v_z,theta,omega,d,d_dot,f,tau\n", "no data rows"),
        # rows narrower than the header exited 3 with an IndexError; wider
        # ones were read with their extra values dropped
        ("t,z,v_z,theta,omega,d,d_dot,f,tau\n0,0,0,1,0\n", "rows hold 5 values, the header names 9"),
        ("t,z,v_z,theta,omega,d,d_dot,f,tau\n" + ",".join(["0"] * 11) + "\n",
         "rows hold 11 values, the header names 9"),
    ], ids=["unknown-header", "header-only", "narrow-rows", "wide-rows"])
    def test_unreadable_trajectory_exits_1(self, tmp_path, capsys, text, message):
        traj = self._write_run(tmp_path, "run")
        bogus = tmp_path / "bogus.traj.csv"
        bogus.write_text(text)
        capsys.readouterr()
        assert run("energy", "--measured", str(traj), "--commanded", str(bogus),
                   "--out", str(tmp_path / "e.csv")) == 1
        assert capsys.readouterr() == ("", f"error: {bogus}: {message}\n")

    @pytest.mark.parametrize("option, value", [
        ("--dt", "0"),
        ("--dt", "-0.004"),
        ("--dt", "nan"),
        ("--dt", "inf"),
        ("--dt", "10"),  # longer than the 0.9 s run: no sample
        # 9e299 samples, which numpy refuses before allocating anything
        # (this used to exit 3 as an internal error)
        ("--dt", "1e-300"),
        ("--tolerance", "nan"),
        ("--tolerance", "-1"),
        ("--tolerance", "inf"),
    ])
    def test_unusable_sample_time_or_tolerance_exits_1(self, tmp_path, capsys, option, value):
        traj = self._write_run(tmp_path, "run", ["contact.b_v=50"])
        capsys.readouterr()
        out = tmp_path / "e.csv"
        assert run("energy", "--measured", str(traj), "--commanded", str(traj),
                   "--out", str(out), option, value) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert option.lstrip("-") in err
        assert not out.exists()

    def test_undecodable_file_exits_1(self, tmp_path, capsys):
        # bytes that are not UTF-8 raise a UnicodeDecodeError, a plain
        # ValueError, where the reader does not catch it
        traj = self._write_run(tmp_path, "run")
        bogus = tmp_path / "bogus.traj.csv"
        bogus.write_bytes(b"t,z,v_z,theta,omega,d,d_dot,f,tau\n\xff\xfe\n")
        capsys.readouterr()
        assert run("energy", "--measured", str(traj), "--commanded", str(bogus),
                   "--out", str(tmp_path / "e.csv")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bogus}: could not convert string") and err.count("\n") == 1
        scenario = tmp_path / "bogus.json"
        scenario.write_bytes(b'{"body": "\xff"}')
        assert run("simulate", str(scenario), "--out", str(tmp_path / "x")) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {scenario}: not valid JSON (") and err.count("\n") == 1

    def test_mismatched_row_counts_exit_1(self, tmp_path):
        traj = self._write_run(tmp_path, "full")
        lines = traj.read_text().splitlines()
        short = tmp_path / "short.traj.csv"
        short.write_text("\n".join(lines[:-10]) + "\n")
        assert run("energy", "--measured", str(traj), "--commanded", str(short),
                   "--out", str(tmp_path / "e.csv")) == 1

    def test_time_column_that_goes_back_exits_1(self, tmp_path, capsys):
        # np.interp used to resample such a file without a word: the run
        # exited 0 with another final dE
        traj = self._write_run(tmp_path, "run", ["contact.b_v=50"])
        lines = traj.read_text().splitlines(keepends=True)
        lines[100] = "1e9," + lines[100].split(",", 1)[1]
        bogus = tmp_path / "bogus.traj.csv"
        bogus.write_text("".join(lines))
        capsys.readouterr()
        out = tmp_path / "e.csv"
        assert run("energy", "--measured", str(bogus), "--commanded", str(traj), "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"error: {bogus}: t must be finite and non-decreasing\n")
        assert not out.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "docksim", "stability",
         "--mu", "15.6", "--beta", "50", "--kappa", "3000"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "h_c" in proc.stdout


def test_closed_stdout_is_not_an_input_error():
    # the reader closes its end of the pipe before docksim writes (as
    # `docksim ... | head` may): no error line, no "Exception ignored" from
    # the interpreter's last flush, exit status 0
    proc = subprocess.Popen(
        [sys.executable, "-m", "docksim", "stability", "--from-scenario", "demo3d", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0 and err == b""


def test_help_exits_zero():
    assert run("--help") == 0


def raising(exc):
    def command():
        raise exc
    return command


@pytest.mark.parametrize("command, code, err", [
    (lambda: 0, 0, ""),
    (raising(SystemExit(0)), 0, ""),
    (raising(ValidationError("b_v must be finite and >= 0, got -5.0")), 1,
     "error: b_v must be finite and >= 0, got -5.0\n"),
    (raising(FileNotFoundError(2, "No such file or directory", "x.json")), 1,
     "error: [Errno 2] No such file or directory: 'x.json'\n"),
    (raising(DivergenceError("state magnitude exceeded divergence bound 1.05e+03", 0.545)), 2,
     "divergence guard: state magnitude exceeded divergence bound 1.05e+03\n"),
    (lambda: 1 / 0, 3, "internal error: ZeroDivisionError: division by zero\n"),
], ids=["ok", "help", "input", "file", "divergence", "fault"])
def test_exit_code_maps_each_outcome_to_one_line(capsys, command, code, err):
    assert exit_code(command) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("args, message", [
    (("simulate", "table1", "--set", "sim.t_end=1000000.0", "--out", "big"),
     "error: t_end/dt = 1e+10 steps is too large: Unable to allocate "),
    (("boundary", "--axis", "beta", "--mu", "60", "--kappa", "1000",
      "--grid", "0:1:10000000000000", "--out", "b.csv"),
     "error: grid count 10000000000000 is too large: Unable to allocate "),
    (("stability", "--mu", "1", "--beta", "1", "--kappa", "1", "--n-delays", "100000000000"),
     "error: n_delays 100000000000 is too large: Unable to allocate "),
], ids=["steps", "grid", "delays"])
def test_count_beyond_the_address_space_exits_1(tmp_path, args, message):
    # a child process limited to 4 GiB of address space, so that numpy's
    # allocation of 447 GiB of rows, 73 TiB of grid or 745 GiB of delay
    # indices fails there whatever the machine has; its MemoryError used to
    # exit 3 as an internal error
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(docksim.__file__))))
    proc = subprocess.run([sys.executable, "-m", "docksim", *args], cwd=tmp_path, env=env,
                          preexec_fn=limit, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
