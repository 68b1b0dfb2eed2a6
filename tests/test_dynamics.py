import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim import dynamics
from docksim.dynamics import (
    _delayed_rows,
    _lerp_history,
    _lerp_rows,
    extract_events,
    integrate_dde,
    make_rhs_2d,
    make_rhs_3d,
    read_trajectory_csv,
    write_trajectory_csv,
)

from conftest import JX_RECOVERED, approach_config, table1_body, table1_contact


class TestDelayLine:
    """The delayed-history lookup of the integrator, _lerp_history."""

    def test_constant_prehistory(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(_lerp_history(Y, 1, -5.0), [1.0, 2.0])
        assert np.array_equal(_lerp_history(Y, 1, 0.0), [1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])] * 3),
                         min_size=2, max_size=8),
           q=st.lists(st.floats(-3.0, 8.0) | st.integers(-3, 8).map(float), min_size=1, max_size=20))
    def test_block_lerp_matches_lerp_history_bitwise(self, rows, q):
        # the integrator's block lerp and the per-step lookup give the same
        # floats for every index, before row 0, on whole and fractional rows
        Y = np.array(rows)
        latest = len(Y) - 1
        q = np.minimum(q, latest)
        block = _lerp_rows(Y, q)
        for qi, row in zip(q, block):
            assert row.tobytes() == np.array(_lerp_history(Y, latest, float(qi))).tobytes()

    def test_linear_ramp_interpolates_exactly(self):
        Y = np.array([[2.0 * i * 0.1] for i in range(8)])
        # a linear signal is reproduced exactly by linear interpolation
        for t in (0.05, 0.12, 0.33, 0.61):
            assert _lerp_history(Y, 7, t / 0.1)[0] == pytest.approx(2.0 * t, abs=1e-15)


class TestRhs2D:
    def test_ballistic_coast(self, body, contact):
        s = ds.ChaserState2D(z=-0.10, v_z=-0.02, theta=1.0, omega=0.0, y=0.0, v_y=0.01)
        dy = make_rhs_2d(body, contact)(s.as_vector(), s.as_vector())
        assert np.allclose(dy, [-0.02, 0.0, 0.0, 0.0, 0.01, 0.0])

    def test_force_and_torque_substitution(self, body):
        # d = -0.001 at 60 deg: f = 3 N, v_z' = 0.05 m/s^2, omega' = -a f sin(60)/J_x
        contact = table1_contact()
        s = ds.ChaserState2D(z=-0.151, v_z=0.0, theta=math.radians(60), omega=0.0)
        dy = make_rhs_2d(body, contact)(s.as_vector(), s.as_vector())
        assert dy[1] == pytest.approx(3.0 / 60.0, rel=1e-9)
        assert dy[3] == pytest.approx(-0.3 * 3.0 * math.sin(math.radians(60)) / JX_RECOVERED, rel=1e-9)

    @given(st.floats(-0.3, 0.0), st.floats(-0.05, 0.05), st.floats(0.2, 2.0), st.floats(-1, 1))
    def test_wall_parallel_velocity_never_accelerates(self, z, vz, th, om):
        body, contact = table1_body(), table1_contact(b_v=30.0)
        s = ds.ChaserState2D(z=z, v_z=vz, theta=th, omega=om, y=0.3, v_y=0.2)
        assert make_rhs_2d(body, contact)(s.as_vector(), s.as_vector())[5] == 0.0

    def test_spring_set_uses_delayed_attitude(self):
        # a probe-aligned spring projects on the wall normal via cos(theta(t-h))
        body = table1_body()
        contact = ds.ContactParams(k_v=0.0, b_v=0.0, alpha=math.radians(30),
                                   springs=((2000.0, [0.0, 0.0, 1.0]),))
        now = ds.ChaserState2D(z=-0.151, v_z=0.0, theta=math.radians(60), omega=0.0)
        delayed = ds.ChaserState2D(z=-0.151, v_z=0.0, theta=math.radians(65), omega=0.0)
        dy = make_rhs_2d(body, contact)(now.as_vector(), delayed.as_vector())
        d_del = -0.151 + 0.3 * math.cos(math.radians(65))
        assert d_del < 0.0
        k_phi = 2000.0 * math.cos(math.radians(65)) ** 2
        assert dy[1] == pytest.approx(-k_phi * d_del / 60.0, rel=1e-12)


class TestRhs3D:
    def test_gyroscopic_oracle(self):
        body = ds.BodyParams(m=1.0, J=np.diag([1.0, 2.0, 3.0]), a_B=[0, 0, 1])
        contact = ds.ContactParams(k_v=0.0, b_v=0.0, alpha=0.5)
        s = ds.ChaserState3D(r=[0, 0, 1], v=[0, 0, 0], d_c3=[0, 0, 1], omega=[1.0, 1.0, 1.0])
        dy = make_rhs_3d(body, contact)(s.as_vector(), s.as_vector())
        assert np.allclose(dy[9:12], [-1.0, 1.0, -1.0 / 3.0], atol=1e-12)

    def test_zero_force_regime(self):
        body, contact = table1_body(), table1_contact()
        s = ds.ChaserState3D(r=[0, 0, 0.1], v=[0, 0.01, -0.02], d_c3=[0, 0, 1], omega=[0, 0, 0])
        dy = make_rhs_3d(body, contact)(s.as_vector(), s.as_vector())
        assert np.allclose(dy[3:6], 0.0) and np.allclose(dy[9:12], 0.0)

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-0.2, -0.05), vz=st.floats(-0.05, 0.05),
           th=st.floats(0.2, 1.4), om=st.floats(-0.5, 0.5))
    def test_planar_embedding_matches_rhs_2d(self, z, vz, th, om):
        body, contact = table1_body(), table1_contact(b_v=20.0)
        s2 = ds.ChaserState2D(z=z, v_z=vz, theta=th, omega=om)
        d2 = ds.ChaserState2D(z=z - 0.001, v_z=vz, theta=th + 0.01, omega=om)
        dy2 = make_rhs_2d(body, contact)(s2.as_vector(), d2.as_vector())
        dy3 = make_rhs_3d(body, contact)(s2.embed_3d().as_vector(), d2.embed_3d().as_vector())
        assert abs(dy3[5] - dy2[1]) < 1e-12   # v_z'
        assert abs(dy3[9] - dy2[3]) < 1e-12   # omega_x'
        assert abs(dy3[3]) < 1e-12 and abs(dy3[6]) < 1e-12  # stays planar


class TestRhsContract:
    """The integrator passes lists of floats; the RHS also accepts numpy
    rows and must return the same floats for both."""

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-0.2, -0.1), vz=st.floats(-0.05, 0.05), th=st.floats(0.2, 1.4),
           om=st.floats(-0.5, 0.5), lag=st.floats(-0.01, 0.01),
           activation=st.sampled_from(["unilateral", "bilateral"]))
    def test_rhs_2d_list_and_array_agree(self, z, vz, th, om, lag, activation):
        contact = ds.ContactParams(k_v=3000.0, b_v=40.0, alpha=math.radians(30),
                                   springs=((500.0, [0.0, 0.6, 0.8]),), activation=activation)
        rhs = make_rhs_2d(table1_body(), contact)
        y = ds.ChaserState2D(z=z, v_z=vz, theta=th, omega=om, y=0.1, v_y=0.01).as_vector()
        yd = ds.ChaserState2D(z=z + lag, v_z=vz, theta=th - lag, omega=om).as_vector()
        from_lists = rhs(y.tolist(), yd.tolist())
        assert type(from_lists) is tuple and len(from_lists) == 6
        assert all(type(v) is float for v in from_lists)
        assert np.array(rhs(y, yd)).tobytes() == np.array(from_lists).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(z=st.floats(-0.2, -0.1), vz=st.floats(-0.05, 0.05), th=st.floats(0.2, 1.4),
           w=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           lag=st.floats(-0.01, 0.01), activation=st.sampled_from(["unilateral", "bilateral"]))
    def test_rhs_3d_list_and_array_agree(self, z, vz, th, w, lag, activation):
        body = ds.BodyParams(m=60.0, J=[[1.5, 0.1, 0.0], [0.1, 2.0, 0.05], [0.0, 0.05, 2.5]],
                             a_B=[0.01, 0.02, 0.3])
        contact = ds.ContactParams(k_v=3000.0, b_v=40.0, alpha=math.radians(30),
                                   springs=((500.0, [0.0, 0.6, 0.8]),), activation=activation)
        rhs = make_rhs_3d(body, contact)
        s = ds.ChaserState2D(z=z, v_z=vz, theta=th, omega=0.0).embed_3d()
        y = ds.ChaserState3D(r=s.r, v=s.v, d_c3=s.d_c3, omega=w).as_vector()
        yd = y + lag
        from_lists = rhs(y.tolist(), yd.tolist())
        assert type(from_lists) is tuple and len(from_lists) == 12
        assert all(type(v) is float for v in from_lists)
        assert np.array(rhs(y, yd)).tobytes() == np.array(from_lists).tobytes()


class TestStep:
    def test_drift_is_exact(self):
        _, Y = integrate_dde(lambda y, yd: np.array([y[1], 0.0]), np.array([0.0, 0.5]), 0.1, 0.1, 0.0)
        assert Y[1, 0] == pytest.approx(0.05, abs=1e-18)

    def test_harmonic_phase_error(self):
        # undelayed, undamped 1D contact: z'' = -(k/m) z, one full period
        k_over_m = 3000.0 / 60.0
        omega = math.sqrt(k_over_m)
        dt = 1e-4
        rhs = lambda y, yd: np.array([y[1], -k_over_m * y[0]])
        n = int(round(2 * math.pi / omega / dt))
        _, Y = integrate_dde(rhs, np.array([1.0, 0.0]), dt, n * dt, 0.0)
        t_end = n * dt
        phase = math.atan2(-Y[-1, 1] / omega, Y[-1, 0]) - (omega * t_end) % (2 * math.pi)
        phase = (phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(phase) < 1e-6

    def test_attitude_stays_unit_over_many_steps(self):
        # pure rotation, renormalized every step; the norm is pinned to one
        # ulp of 1 after every single step, so the bound cannot drift no
        # matter how long the run is
        rhs = lambda y, yd: np.array([y[1] * 0.7 - y[2] * 0.3,
                                      y[2] * 0.5 - y[0] * 0.7,
                                      y[0] * 0.3 - y[1] * 0.5])
        _, Y = integrate_dde(rhs, np.array([0.0, 0.0, 1.0]), 1e-3, 100_000 * 1e-3, 0.0,
                             unit_slice=slice(0, 3))
        norms = np.linalg.norm(Y, axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_divergence_bound_applies_per_component(self):
        # |y| sums past the bound while every component stays inside it
        drift = lambda y, yd: (0.0, 0.0, 0.0)
        _, Y = integrate_dde(drift, np.array([0.6, -0.6, 0.6]), 0.1, 0.3, 0.0, divergence_bound=1.0)
        assert np.array_equal(Y[-1], [0.6, -0.6, 0.6])
        with pytest.raises(ds.DivergenceError, match="divergence bound"):
            integrate_dde(drift, np.array([0.6, -1.5, 0.6]), 0.1, 0.3, 0.0, divergence_bound=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ds.DivergenceError, match="non-finite"):
            integrate_dde(lambda y, yd: np.array([float("inf")]), np.array([1.0]), 0.1, 0.1, 0.0)


class TestSimulate:
    def test_no_contact_before_arrival(self, body, contact):
        cfg = approach_config(t_end=0.3)  # approach takes 0.5 s
        traj, events = ds.simulate(cfg, body, contact, mode="2d")
        assert events == []
        assert not traj.in_contact.any()
        assert traj.f.max() == 0.0

    def test_approach_is_pure_drift(self, body, contact):
        cfg = approach_config(t_end=0.4)
        traj, _ = ds.simulate(cfg, body, contact, mode="2d")
        # RK4 is exact for constant-velocity drift
        assert traj.states[-1, 0] == pytest.approx(-0.14 - 0.02 * 0.4, abs=1e-12)
        assert traj.states[-1, 2] == pytest.approx(math.radians(60), abs=1e-15)

    def test_divergence_guard_trips(self, body):
        contact = table1_contact(b_v=0.0, activation="bilateral")
        cfg = approach_config(t_end=30.0)
        with pytest.raises(ds.DivergenceError, match="divergence bound"):
            ds.simulate(cfg, body, contact, mode="2d", divergence_factor=1.2)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
    @pytest.mark.parametrize("h", [0.016, 0.02])  # the bundled h/dt of 160 and 200
    def test_block_path_makes_no_scalar_rhs_call(self, body, monkeypatch, mode, activation, h):
        # simulate hands integrate_dde the block form of the model, which
        # advances whole blocks on arrays and never calls the per-step
        # right-hand side closure
        factory_name = "make_rhs_2d" if mode == "2d" else "make_rhs_3d"
        factory = getattr(dynamics, factory_name)
        calls = [0]

        def counting_factory(*args):
            rhs = factory(*args)

            def counted(y, yd):
                calls[0] += 1
                return rhs(y, yd)

            return counted

        monkeypatch.setattr(dynamics, factory_name, counting_factory)
        traj, events = ds.simulate(approach_config(h=h), body,
                                   table1_contact(b_v=50.0, activation=activation), mode=mode)
        assert calls[0] == 0
        assert events and traj.f.max() > 0.0

    def test_record_every_decimates_uniformly(self, body, contact):
        cfg = ds.SimConfig(h=0.016, dt=1e-4, t_end=0.2, initial=approach_config().initial,
                           record_every=10)
        traj, _ = ds.simulate(cfg, body, contact, mode="2d")
        assert len(traj.times) == 201
        assert np.allclose(np.diff(traj.times), 1e-3)

    def test_t_end_off_the_step_grid_is_rejected(self, body, contact):
        # the step-count rule of validate() holds for direct calls as well:
        # 0.30004 s is 3000.4 steps, which used to end silently at 0.3 s
        cfg = approach_config(t_end=0.30004)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            ds.simulate(cfg, body, contact, mode="2d")
        with pytest.raises(ValueError, match="not a whole number of steps"):
            integrate_dde(make_rhs_2d(body, contact), cfg.initial.as_vector(),
                          cfg.dt, cfg.t_end, cfg.h)

    def test_planar_3d_state_runs_in_2d_mode(self, body):
        # a 3D initial state that lies in the plane is projected onto the
        # planar model; the run matches the one started from the 2D state
        contact = table1_contact(b_v=50.0)
        cfg = approach_config(t_end=1.0)
        cfg3 = ds.SimConfig(h=cfg.h, dt=cfg.dt, t_end=cfg.t_end, initial=cfg.initial.embed_3d())
        t2, e2 = ds.simulate(cfg, body, contact, mode="2d")
        t3, e3 = ds.simulate(cfg3, body, contact, mode="2d")
        assert t3.mode == "2d" and t3.states.shape == t2.states.shape
        np.testing.assert_allclose(t3.states, t2.states, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(t3.f, t2.f, rtol=1e-9, atol=1e-12)
        assert len(e3) == len(e2) == 1

    def test_non_planar_3d_state_is_rejected_in_2d_mode(self, body, contact):
        s = approach_config().initial.embed_3d()
        off_plane = ds.ChaserState3D(r=[0.01, s.r[1], s.r[2]], v=s.v, d_c3=s.d_c3, omega=s.omega)
        cfg = ds.SimConfig(h=0.016, dt=1e-4, t_end=0.2, initial=off_plane)
        with pytest.raises(ValueError, match="not planar"):
            ds.simulate(cfg, body, contact, mode="2d")

    def test_planar_3d_matches_2d_run(self, body):
        contact = table1_contact(b_v=50.0)
        cfg = approach_config(t_end=1.0)
        t2, _ = ds.simulate(cfg, body, contact, mode="2d")
        t3, _ = ds.simulate(cfg, body, contact, mode="3d")
        assert np.abs(t3.states[:, 2] - t2.states[:, 0]).max() < 1e-9   # z
        assert np.abs(t3.states[:, 9] - t2.states[:, 3]).max() < 1e-9   # omega_x
        assert np.abs(t3.d - t2.d).max() < 1e-9

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
    def test_recorded_force_is_applied_force(self, body, mode, activation):
        # the f and tau columns must be what the integrator applied: the RHS
        # evaluated on each grid state and its delayed sample. The force is
        # the RHS's own output, so it matches bit for bit; the torque is
        # recovered through J, so it matches to rounding
        contact = table1_contact(b_v=50.0, activation=activation)
        cfg = approach_config(t_end=1.0)
        traj, _ = ds.simulate(cfg, body, contact, mode=mode)
        rhs = (make_rhs_2d if mode == "2d" else make_rhs_3d)(body, contact)
        Y = traj.states
        Yd = _delayed_rows(Y, cfg.h, cfg.dt)
        dY = np.array([rhs(y, yd) for y, yd in zip(Y, Yd)])
        assert np.any(traj.f != 0.0)
        if mode == "2d":
            assert (traj.f / body.m).tobytes() == dY[:, 1].tobytes()
            torque = dY[:, 3] * body.J_x
        else:
            for j in range(3):
                assert ((traj.f / body.m) * contact.n_hat[j]).tobytes() == dY[:, 3 + j].tobytes()
            w = Y[:, 9:12]
            torque = dY[:, 9:12] @ body.J.T - np.cross(w @ body.J.T, w)
        np.testing.assert_allclose(traj.tau, torque, rtol=1e-9, atol=1e-12)

    def test_elastic_zero_delay_restitution(self, body):
        # near-linear elastic regime: slow approach keeps the attitude drift
        # during contact (the only nonlinear effect) negligible
        contact = table1_contact(b_v=0.0)
        cfg = approach_config(h=0.0, t_end=1.0, v0=0.001, clearance=0.00025)
        _, events = ds.simulate(cfg, body, contact, mode="2d", event_window=0.0)
        eps = ds.restitution(events[0]).epsilon
        assert eps == pytest.approx(1.0, abs=1e-3)

    def test_off_grid_delay_interpolates(self, body):
        # h need not be a multiple of dt: the off-grid value must land
        # strictly between its on-grid neighbours
        contact = table1_contact(b_v=50.0)
        eps = {}
        for h in (0.016, 0.0163, 0.017):
            cfg = approach_config(h=h)
            _, events = ds.simulate(cfg, body, contact, mode="2d", event_window=0.004)
            eps[h] = ds.restitution(events[0]).epsilon
        assert eps[0.016] < eps[0.0163] < eps[0.017]

    def test_delay_monotonicity_of_restitution(self, body):
        contact = table1_contact(b_v=50.0)
        eps = []
        for h in (0.0, 0.008, 0.016, 0.024):
            cfg = approach_config(h=h)
            _, events = ds.simulate(cfg, body, contact, mode="2d", event_window=0.004)
            eps.append(ds.restitution(events[0]).epsilon)
        assert all(a < b for a, b in zip(eps, eps[1:]))

    def test_grid_convergence_of_restitution(self, body):
        contact = table1_contact(b_v=50.0)
        eps = {}
        for dt in (1e-4, 5e-5):
            cfg = approach_config(dt=dt)
            _, events = ds.simulate(cfg, body, contact, mode="2d", event_window=0.004)
            eps[dt] = ds.restitution(events[0]).epsilon
        assert abs(eps[1e-4] - eps[5e-5]) / eps[5e-5] < 0.005


class TestExtractEvents:
    def test_interpolated_crossings(self):
        t = np.arange(0.0, 1.0, 0.01)
        d = 0.1 - 0.3 * t            # crosses zero at t = 1/3
        d_dot = np.full_like(t, -0.3)
        events = extract_events(t, d, d_dot, window=0.05)
        assert events == []          # never comes back out: open event dropped
        d2 = np.abs(t - 0.5) - 0.2   # inside (0.3, 0.7)
        dd2 = np.sign(t - 0.5) * 1.0
        (ev,) = extract_events(t, d2, dd2, window=0.05)
        assert ev.t_in == pytest.approx(0.3, abs=1e-9)
        assert ev.t_out == pytest.approx(0.7, abs=1e-9)
        assert ev.v_minus == pytest.approx(-1.0)
        assert ev.v_plus == pytest.approx(1.0)
        assert ev.max_depth == pytest.approx(0.2, abs=0.01)

    def test_window_zero_takes_bracketing_samples(self):
        t = np.arange(0.0, 1.0, 0.1)
        d = np.array([0.2, 0.1, -0.1, -0.2, -0.1, 0.05, 0.1, 0.2, 0.3, 0.4])
        dd = np.linspace(-1.0, 1.0, 10)
        (ev,) = extract_events(t, d, dd, window=0.0)
        assert ev.v_minus == dd[1]
        assert ev.v_plus == dd[5]


def test_trajectory_csv_round_trip(tmp_path, body, contact):
    cfg = approach_config(t_end=0.2)
    traj, _ = ds.simulate(cfg, body, contact, mode="2d")
    path = tmp_path / "run.traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,z,v_z,theta,omega,d,d_dot,f,tau"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj.times), 9)
    assert data[0, 1] == pytest.approx(traj.states[0, 0], rel=1e-8)


@pytest.mark.parametrize("mode", ["2d", "3d"])
def test_trajectory_csv_write_read_write_is_byte_identical(tmp_path, body, mode):
    cfg = approach_config(t_end=0.7)
    traj, _ = ds.simulate(cfg, body, table1_contact(b_v=50.0), mode=mode)
    first, second = tmp_path / "first.traj.csv", tmp_path / "second.traj.csv"
    write_trajectory_csv(traj, first)
    back = read_trajectory_csv(first)
    write_trajectory_csv(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert back.mode == mode and back.states.shape == traj.states.shape
    assert np.array_equal(back.in_contact, back.d < 0.0) and back.in_contact.any()
    if mode == "2d":
        assert not back.states[:, 4:].any()  # (y, v_y) are not in the 2D file


def test_trajectory_csv_unknown_header_is_rejected(tmp_path):
    path = tmp_path / "bad.traj.csv"
    path.write_text("t,x,y\n0,1,2\n")
    with pytest.raises(ValueError, match="unrecognized trajectory header"):
        read_trajectory_csv(path)
