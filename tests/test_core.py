import math
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from docksim import (
    BodyParams,
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    SimConfig,
    ValidationError,
    nominal_state_2d,
    validate,
)
from docksim.core import _CSV_CHUNK_ROWS, allocate, delay_problem, require, step_count, write_csv

from conftest import depth_and_rate_2d, table1_body, table1_contact


class TestNominalState:
    def test_direct_substitution(self):
        nom = nominal_state_2d(table1_body(), table1_contact())
        assert nom.z == pytest.approx(-0.15, abs=1e-15)
        assert math.degrees(nom.theta) == pytest.approx(60.0, abs=1e-12)
        assert nom.v_z == 0.0
        assert nom.omega == 0.0

    def test_zero_penetration_at_nominal(self):
        body, contact = table1_body(), table1_contact()
        d, d_dot = depth_and_rate_2d(nominal_state_2d(body, contact), body.a)
        assert abs(d) < 1e-12
        assert abs(d_dot) < 1e-12

    def test_steep_cone_limit(self):
        contact = ContactParams(k_v=0.0, b_v=0.0, alpha=math.pi / 2 - 1e-6)
        nom = nominal_state_2d(table1_body(), contact)
        assert nom.z == pytest.approx(-0.3, abs=1e-9)
        assert nom.theta == pytest.approx(0.0, abs=2e-6)

    @pytest.mark.parametrize("alpha", [-0.1, math.pi / 2, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValidationError, match=r"alpha must be in \[0, pi/2\)"):
            nominal_state_2d(table1_body(), ContactParams(k_v=0.0, b_v=0.0, alpha=alpha))

    def test_wall_parallel_probe_has_a_nominal_state(self):
        # alpha = 0: the probe lies along the wall, its tip on it at z = 0
        nom = nominal_state_2d(table1_body(), ContactParams(k_v=0.0, b_v=0.0, alpha=0.0))
        assert nom.z == 0.0 and nom.theta == math.pi / 2
        assert nom.v_z == 0.0 and nom.omega == 0.0

    @given(a=st.floats(0.05, 2.0), alpha=st.floats(0.05, math.pi / 2 - 0.05))
    def test_nominal_cancellation_property(self, a, alpha):
        body = BodyParams(m=10.0, J=np.eye(3), a_B=[0, 0, a])
        contact = ContactParams(k_v=1.0, b_v=0.0, alpha=alpha)
        d, d_dot = depth_and_rate_2d(nominal_state_2d(body, contact), body.a)
        assert abs(d) < 1e-12
        assert abs(d_dot) < 1e-12


def _valid_bundle():
    body = table1_body()
    contact = table1_contact()
    sim = SimConfig(h=0.016, dt=1e-4, t_end=1.0,
                    initial=ChaserState2D(z=-0.14, v_z=-0.02, theta=1.0, omega=0.0))
    return body, contact, sim


class TestValidate:
    def test_accepts_reference_point(self):
        body, contact, sim = validate(*_valid_bundle())
        assert body.m == 60.0 and contact.k_v == 3000.0 and sim.h == 0.016

    def test_rejects_negative_mass(self):
        body, contact, sim = _valid_bundle()
        bad = BodyParams(m=-1.0, J=body.J, a_B=body.a_B)
        with pytest.raises(ValidationError, match="m must be finite and > 0"):
            validate(bad, contact, sim)

    def test_rejects_non_unit_normal(self):
        body, contact, sim = _valid_bundle()
        bad = ContactParams(k_v=1.0, b_v=0.0, alpha=contact.alpha, n_hat=[0.0, 0.0, 0.9])
        with pytest.raises(ValidationError, match="n_hat not unit"):
            validate(body, bad, sim)

    def test_collects_every_violation(self):
        body, contact, sim = _valid_bundle()
        bad_body = BodyParams(m=-1.0, J=-np.eye(3), a_B=[0, 0, 0])
        bad_contact = ContactParams(k_v=-5.0, b_v=-1.0, alpha=3.0)
        with pytest.raises(ValidationError) as err:
            validate(bad_body, bad_contact, sim)
        assert len(err.value.diagnostics) >= 5

    def test_rejects_unknown_activation(self):
        body, contact, sim = _valid_bundle()
        sticky = ContactParams(k_v=1.0, b_v=0.0, alpha=contact.alpha, activation="sticky")
        with pytest.raises(ValidationError, match="activation must be"):
            validate(body, sticky, sim)

    def test_renormalizes_near_unit_vectors(self):
        body, contact, sim = _valid_bundle()
        off = ContactParams(k_v=1.0, b_v=0.0, alpha=contact.alpha,
                            n_hat=[0.0, 0.0, 1.0 + 5e-7])
        _, fixed, _ = validate(body, off, sim)
        assert np.linalg.norm(fixed.n_hat) == pytest.approx(1.0, abs=1e-15)

    def test_idempotent(self):
        body, contact, sim = _valid_bundle()
        once = validate(body, contact, sim)
        twice = validate(*once)
        for a, b in zip(once, twice):
            assert a is b  # nothing to fix, nothing replaced

    def test_rejects_delay_inside_one_step(self):
        body, contact, sim = _valid_bundle()
        bad = SimConfig(h=5e-5, dt=1e-4, t_end=1.0, initial=sim.initial)
        with pytest.raises(ValidationError, match="must be 0 or >= dt"):
            validate(body, contact, bad)

    @pytest.mark.parametrize("t_end", [1.00005, 0.30004, 2.5e-4])
    def test_rejects_t_end_off_the_step_grid(self, t_end):
        body, contact, sim = _valid_bundle()
        bad = SimConfig(h=0.016, dt=1e-4, t_end=t_end, initial=sim.initial)
        with pytest.raises(ValidationError, match="not a whole number of steps"):
            validate(body, contact, bad)

    @pytest.mark.parametrize("t_end", [float("inf"), float("nan")])
    def test_rejects_non_finite_t_end(self, t_end):
        body, contact, sim = _valid_bundle()
        bad = SimConfig(h=0.016, dt=1e-4, t_end=t_end, initial=sim.initial)
        with pytest.raises(ValidationError, match="must be finite"):
            validate(body, contact, bad)

    @pytest.mark.parametrize("t_end, dt", [(1.2, 1e-4), (4.5, 1e-4), (0.5, 1e-4), (2.0, 1e-4),
                                           (0.3, 1e-4), (0.9, 1e-4), (1.2, 5e-5), (0.7, 1e-3)])
    def test_accepts_decimal_t_end_on_the_step_grid(self, t_end, dt):
        # t_end/dt is a whole number up to the rounding of the decimal
        # inputs (1.2/1e-4 = 11999.999999999998)
        body, contact, sim = _valid_bundle()
        ok = SimConfig(h=0.016, dt=dt, t_end=t_end, initial=sim.initial)
        assert validate(body, contact, ok)[2] is ok

    def test_rejects_bad_3d_attitude_column(self):
        body, contact, sim = _valid_bundle()
        state = ChaserState3D(r=[0, 0, -0.14], v=[0, 0, -0.02], d_c3=[0, 0, 2.0], omega=[0, 0, 0])
        bad = SimConfig(h=0.016, dt=1e-4, t_end=1.0, initial=state)
        with pytest.raises(ValidationError, match="d_c3 not unit"):
            validate(body, contact, bad)


def _bundle(body=None, contact=None, sim=None):
    """The valid bundle with the fields in each dict replaced."""
    return tuple(replace(x, **(changes or {})) for x, changes in zip(_valid_bundle(), (body, contact, sim)))


_STATE_3D = dict(r=[0.0, 0.0, -0.14], v=[0.0, 0.0, -0.02], d_c3=[0.0, 0.6, 0.8], omega=[0.0, 0.0, 0.0])


@pytest.mark.parametrize("bundle, message", [
    (_bundle(body=dict(J=[[np.nan, 0, 0], [0, 1, 0], [0, 0, 1]])), "J has non-finite entries"),
    (_bundle(body=dict(J=[[1, 0.5, 0], [0, 1, 0], [0, 0, 1]])), "J must be symmetric"),
    (_bundle(body=dict(a_B=[0.0, 0.0, np.inf])), "a_B has non-finite entries"),
    # |a_B| = inf used to pass, after numpy's overflow warning
    (_bundle(body=dict(a_B=[0.0, 0.0, 1e200])), "probe vector a_B is too long: |a_B| overflows a float"),
    (_bundle(contact=dict(springs=((-5.0, [0.0, 0.6, 0.8]),))),
     "spring k_1 must be finite and >= 0, got -5.0"),
    # each spring is finite, their sum is not
    (_bundle(contact=dict(springs=((1.7e308, [0.0, 0.0, 1.0]), (1.7e308, [0.0, 0.0, 1.0])))),
     "stiffness k_v + sum of spring k_i overflows a float"),
    (_bundle(sim=dict(h=-0.016)), "h must be finite and >= 0, got -0.016"),
    (_bundle(sim=dict(h=np.nan)), "h must be finite and >= 0, got nan"),
    (_bundle(sim=dict(h=np.inf)), "h must be finite and >= 0, got inf"),
    (_bundle(sim=dict(dt=0.0)), "dt must be finite and > 0, got 0.0"),
    (_bundle(sim=dict(dt=-1e-4)), "dt must be finite and > 0, got -0.0001"),
    (_bundle(sim=dict(record_every=0)), "record_every must be >= 1, got 0"),
    (_bundle(sim=dict(initial=ChaserState2D(z=np.nan, v_z=0.0, theta=1.0, omega=0.0))),
     "initial 2D state has non-finite entries"),
    (_bundle(sim=dict(initial=ChaserState3D(**{**_STATE_3D, "omega": [0.0, np.inf, 0.0]}))),
     "initial 3D state has non-finite entries"),
    (_bundle(sim=dict(initial=ChaserState2D(z=-0.14, v_z=0.0, theta=-0.1, omega=0.0))),
     "theta must lie in [0, pi] for valid contact geometry, got -0.1"),
    (_bundle(sim=dict(initial=[-0.14, -0.02, 1.0, 0.0])),
     "initial must be ChaserState2D or ChaserState3D, got list"),
])
def test_validate_reports_each_violation(bundle, message):
    with pytest.raises(ValidationError) as err:
        validate(*bundle)
    assert err.value.diagnostics == [message]


def test_validation_error_takes_one_message_or_a_list():
    # the scenario reader raises it with one message, validate() with a list
    err = ValidationError("contact.b_v must be a number, got true")
    assert err.diagnostics == ["contact.b_v must be a number, got true"]
    assert str(err) == "contact.b_v must be a number, got true"
    assert ValidationError(["m bad", "J bad"]).diagnostics == ["m bad", "J bad"]
    assert isinstance(err, ValueError)


def test_require_raises_every_diagnostic_or_nothing():
    assert require() is None and require(None, None) is None
    with pytest.raises(ValidationError) as err:
        require(None, "m bad", None, "J bad")
    assert err.value.diagnostics == ["m bad", "J bad"]
    assert str(err.value) == "m bad; J bad"


def test_validate_reports_every_violation_in_order():
    bundle = _bundle(body=dict(J=[[1, 0.5, 0], [0, 1, 0], [0, 0, 1]]),
                     contact=dict(springs=((-5.0, [0.0, 0.6, 0.8]),)),
                     sim=dict(h=np.inf, record_every=0,
                              initial=ChaserState2D(z=-0.14, v_z=0.0, theta=4.0, omega=0.0)))
    with pytest.raises(ValidationError) as err:
        validate(*bundle)
    assert err.value.diagnostics == [
        "J must be symmetric",
        "spring k_1 must be finite and >= 0, got -5.0",
        "h must be finite and >= 0, got inf",
        "record_every must be >= 1, got 0",
        "theta must lie in [0, pi] for valid contact geometry, got 4.0",
    ]
    assert str(err.value) == "; ".join(err.value.diagnostics)


def test_validate_renormalizes_a_near_unit_attitude_column():
    near_unit = ChaserState3D(**{**_STATE_3D, "d_c3": [0.0, 0.6, 0.8 + 5e-7]})
    body, contact, sim = _bundle(sim=dict(initial=near_unit))
    _, _, fixed = validate(body, contact, sim)
    assert fixed is not sim and fixed.h == sim.h and fixed.dt == sim.dt
    assert np.linalg.norm(fixed.initial.d_c3) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(fixed.initial.r, sim.initial.r)
    assert validate(body, contact, fixed)[2] is fixed


@pytest.mark.parametrize("h, dt, message", [
    (0.0, 1e-4, None),
    (-0.0, 1e-4, None),
    (1e-4, 1e-4, None),
    (0.0163, 1e-4, None),
    (5e-5, 1e-4, "delay h = 5e-05 must be 0 or >= dt = 0.0001"),
    (-0.016, 1e-4, "h must be finite and >= 0, got -0.016"),
    (math.nan, 1e-4, "h must be finite and >= 0, got nan"),
    (math.inf, 1e-4, "h must be finite and >= 0, got inf"),
    (5e-5, 0.0, None),  # the default dt = 0 checks sign and finiteness only
    # 1e305 / 1e-4 overflows: the integrator's int(h/dt) used to end in an
    # OverflowError traceback
    (1e305, 1e-4, "delay h = 1e+305 is beyond the float range in steps dt = 0.0001"),
    (1e305, 0.0, None),
])
def test_delay_problem(h, dt, message):
    assert delay_problem(h, dt) == message


def test_states_round_trip_through_vectors():
    # the layouts the models index: (z, v_z, theta, omega, y, v_y) and
    # (r, v, d_c3, omega)
    s2 = ChaserState2D(z=-0.1, v_z=0.2, theta=0.3, omega=-0.4, y=0.5, v_y=0.6)
    assert s2.as_vector().tolist() == [-0.1, 0.2, 0.3, -0.4, 0.5, 0.6]
    s3 = ChaserState3D(r=[1, 2, 3], v=[4, 5, 6], d_c3=[0, 0, 1], omega=[7, 8, 9])
    assert s3.as_vector().tolist() == [1, 2, 3, 4, 5, 6, 0, 0, 1, 7, 8, 9]


def test_planar_embedding_matches_geometry():
    s2 = ChaserState2D(z=-0.12, v_z=-0.02, theta=math.radians(60.0), omega=0.1, y=0.01, v_y=0.002)
    s3 = s2.embed_3d()
    assert s3.r[2] == s2.z and s3.v[1] == s2.v_y
    assert s3.d_c3[1] == pytest.approx(math.sin(s2.theta))
    assert s3.omega[0] == s2.omega


@pytest.mark.parametrize("make, message", [
    (lambda: BodyParams(m=1.0, J=np.eye(2), a_B=[0.0, 0.0, 0.3]), "J must be 3x3, got shape (2, 2)"),
    (lambda: BodyParams(m=1.0, J=np.ones(9), a_B=[0.0, 0.0, 0.3]), "J must be 3x3, got shape (9,)"),
    (lambda: ContactParams(k_v=1.0, b_v=0.0, alpha=0.5, n_hat=[0, 1]), "expected length-3 vector, got shape (2,)"),
], ids=["J-2x2", "J-flat", "n_hat-length-2"])
def test_constructor_rejects_a_wrong_shape(make, message):
    with pytest.raises(ValidationError) as raised:
        make()
    assert str(raised.value) == message


def test_value_types_are_frozen():
    body = table1_body()
    with pytest.raises(Exception):
        body.m = 10.0
    with pytest.raises(ValueError):
        body.J[0, 0] = 5.0


class TestStepCount:
    @pytest.mark.parametrize("t_end, dt, n", [(1.2, 1e-4, 12000), (0.3, 1e-4, 3000),
                                              (1e-4, 1e-4, 1), (0.7, 1e-3, 700)])
    def test_whole_number_of_steps(self, t_end, dt, n):
        assert step_count(t_end, dt) == n

    @pytest.mark.parametrize("t_end", [0.30004, 1.00005, 2.5e-4])
    def test_rejects_a_fraction_of_a_step(self, t_end):
        with pytest.raises(ValueError, match="not a whole number of steps"):
            step_count(t_end, 1e-4)

    @pytest.mark.parametrize("t_end", [0.0, -0.3])
    def test_rejects_no_steps(self, t_end):
        with pytest.raises(ValueError, match="at least one step"):
            step_count(t_end, 1e-4)

    @pytest.mark.parametrize("t_end, dt", [(float("inf"), 1e-4), (float("nan"), 1e-4), (1.0, 0.0)])
    def test_rejects_non_finite_ratio(self, t_end, dt):
        with pytest.raises(ValueError, match="not a whole number of steps"):
            step_count(t_end, dt)


@pytest.mark.parametrize("error", [
    ValueError("Maximum allowed dimension exceeded"),
    # what numpy raises for an array the process cannot get; it used to
    # pass through and exit 3 as an internal error
    MemoryError("Unable to allocate 447. GiB for an array with shape (10000000001, 6) and data type float64"),
], ids=["beyond-numpy", "beyond-memory"])
def test_allocate_reports_a_refused_allocation_as_bad_input(error):
    def make(shape):
        raise error

    with pytest.raises(ValidationError) as info:
        allocate("t_end/dt = 1e+10 steps", make, (10000000001, 6))
    assert str(info.value) == f"t_end/dt = 1e+10 steps is too large: {error}"
    assert allocate("three rows", np.zeros, 3).tolist() == [0.0, 0.0, 0.0]


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b", "c", "tag"], [[1.0, -0.0], [[1 / 3, -2.5e-12], [1e10, 0.1]]],
              labels=[["x", "y"]])
    assert path.read_text() == ("a,b,c,tag\n"
                                "1,0.333333333,-2.5e-12,x\n"
                                "0,1e+10,0.1,y\n")


class TestWriteCsvChecks:
    def test_short_label_column_raises(self, tmp_path):
        # zip used to cut the table to the label's one row, without a word
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="^label column 0 has 1 rows, the values have 3$"):
            write_csv(path, ["a", "b", "tag"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], labels=[["x"]])
        assert not path.exists()

    def test_long_label_column_raises(self, tmp_path):
        with pytest.raises(ValueError, match="label column 1 has 3 rows, the values have 2"):
            write_csv(tmp_path / "out.csv", ["a", "s", "t"], [[1.0, 2.0]],
                      labels=[["x", "y"], ["x", "y", "z"]])

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"], []])
    def test_header_of_another_width_raises(self, tmp_path, header):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"^header has {len(header)} names for 2 value and 0 label columns$"):
            write_csv(path, header, [[1.0, 2.0], [4.0, 5.0]])
        assert not path.exists()


def test_write_csv_quiets_a_signaling_nan(tmp_path):
    # 0.0 added to a signaling nan raises numpy's invalid flag; the writer
    # must write nan, not raise, even where that flag is an error
    snan = np.array([0x7FF0000000000001, 0x7FF8000000000000], dtype=np.int64).view(np.float64)
    path = tmp_path / "out.csv"
    with np.errstate(invalid="raise"):
        write_csv(path, ["x", "y"], [snan, [-0.0, 1.5]])
    assert path.read_text() == "x,y\nnan,0\nnan,1.5\n"


def row_at_a_time_csv(path, header, columns, labels=()):
    """Reference for write_csv: the writer it replaced, one str.format call
    and one write per row."""
    block = np.column_stack(columns)
    block += 0.0
    line = ",".join(["{:.9g}"] * block.shape[1] + ["{}"] * len(labels)) + "\n"
    texts = zip(*labels) if labels else repeat(())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row, text in zip(block, texts):
            fh.write(line.format(*row.tolist(), *text))


MAX = np.finfo(float).max
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
               math.inf, -math.inf, math.nan, -math.nan, MAX, -MAX, np.nextafter(MAX, 0.0),
               1e16, -1e16, 1e-16, 9999999995.0, 999999999.5, 0.1, 1e308, 1e-320]


class TestWriteCsvMatchesRowWriter:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.sampled_from([0, 1, 2, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1,
                                 2 * _CSV_CHUNK_ROWS + 7]),
           widths=st.lists(st.sampled_from([None, 1, 3]), min_size=1, max_size=4),
           n_labels=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1),
           drawn=st.lists(st.floats(width=64), max_size=8))
    def test_same_bytes(self, tmp_path_factory, rows, widths, n_labels, seed, drawn):
        # arbitrary float64 bit patterns (subnormals, nan payloads, both
        # infinities), the edge values above and hypothesis's own floats
        rng = np.random.default_rng(seed)
        width = sum(1 if w is None else w for w in widths)
        values = rng.integers(0, 2 ** 64, (rows, width), dtype=np.uint64, endpoint=False).view(float)
        mask = rng.random((rows, width)) < 0.3
        values[mask] = rng.choice(np.array(EDGE_FLOATS + drawn), mask.sum())
        columns, at = [], 0
        for w in widths:  # None: a 1-D column, else a 2-D block of w columns
            columns.append(values[:, at] if w is None else values[:, at:at + w])
            at += 1 if w is None else w
        words = ["stable", "neutral", "unstable", "", "a b", "x,y"]
        labels = [[words[k] for k in rng.integers(0, len(words), rows)] for _ in range(n_labels)]
        header = [f"c{j}" for j in range(width + n_labels)]
        out = tmp_path_factory.mktemp("csv")
        # a random bit pattern may be a signaling nan, which raises numpy's
        # invalid flag in both writers' `+= 0.0`
        with np.errstate(invalid="ignore"):
            write_csv(out / "new.csv", header, columns, labels=labels)
            row_at_a_time_csv(out / "ref.csv", header, columns, labels=labels)
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()
