import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from docksim.core import step_count, write_csv

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
        with pytest.raises(ValidationError, match="m must be positive"):
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


def test_states_round_trip_through_vectors():
    s2 = ChaserState2D(z=-0.1, v_z=0.2, theta=0.3, omega=-0.4, y=0.5, v_y=0.6)
    assert ChaserState2D.from_vector(s2.as_vector()) == s2
    s3 = ChaserState3D(r=[1, 2, 3], v=[4, 5, 6], d_c3=[0, 0, 1], omega=[7, 8, 9])
    back = ChaserState3D.from_vector(s3.as_vector())
    assert np.array_equal(back.r, s3.r) and np.array_equal(back.omega, s3.omega)


def test_planar_embedding_matches_geometry():
    s2 = ChaserState2D(z=-0.12, v_z=-0.02, theta=math.radians(60.0), omega=0.1, y=0.01, v_y=0.002)
    s3 = s2.embed_3d()
    assert s3.r[2] == s2.z and s3.v[1] == s2.v_y
    assert s3.d_c3[1] == pytest.approx(math.sin(s2.theta))
    assert s3.omega[0] == s2.omega


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


def test_write_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b", "c", "tag"], [[1.0, -0.0], [[1 / 3, -2.5e-12], [1e10, 0.1]]],
              labels=[["x", "y"]])
    assert path.read_text() == ("a,b,c,tag\n"
                                "1,0.333333333,-2.5e-12,x\n"
                                "0,1e+10,0.1,y\n")
