import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim import dynamics
from docksim.cli import load_scenario, scenario_path
from docksim.core import delay_problem
from docksim.dynamics import (
    PlanarModel,
    SpatialModel,
    _lerp_rows,
    extract_events,
    integrate_dde,
    make_rhs_2d,
    make_rhs_3d,
    read_trajectory_csv,
    write_trajectory_csv,
)

from conftest import JX_RECOVERED, approach_config, table1_body, table1_contact
from test_integrator_oracle import numpy_integrate_dde, numpy_lerp_history


class TestDelayLine:
    """The delayed-history lookup of the integrator, _lerp_rows."""

    def test_constant_prehistory(self):
        Y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(_lerp_rows(Y, np.array([-5.0, 0.0]), 2), [[1.0, 2.0], [1.0, 2.0]])

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0])] * 3),
                         min_size=2, max_size=8),
           q=st.lists(st.floats(-3.0, 8.0) | st.integers(-3, 8).map(float), min_size=1, max_size=20))
    def test_block_lerp_matches_scalar_lerp_bitwise(self, rows, q):
        # the integrator's block lerp and the oracle's one-sample lerp give
        # the same floats for every index, before row 0, on whole and
        # fractional rows
        Y = np.array(rows)
        latest = len(Y) - 1
        q = np.minimum(q, latest)
        block = _lerp_rows(Y, q, 3)
        for qi, row in zip(q, block):
            assert row.tobytes() == numpy_lerp_history(Y, latest, float(qi)).tobytes()

    def test_linear_ramp_interpolates_exactly(self):
        Y = np.array([[2.0 * i * 0.1] for i in range(8)])
        # a linear signal is reproduced exactly by linear interpolation
        t = np.array([0.05, 0.12, 0.33, 0.61])
        assert _lerp_rows(Y, t / 0.1, 1)[:, 0] == pytest.approx(2.0 * t, abs=1e-15)


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

    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(["2d", "3d"]),
           activation=st.sampled_from(["unilateral", "bilateral"]),
           zero=st.sampled_from([None, 0.0, -0.0]),
           y=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
           yd=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
           probe=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           normal=st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3),
           th=st.floats(0.1, 1.4))
    def test_scalar_and_block_forms_agree_bitwise(self, mode, activation, zero, y, yd, probe,
                                                  normal, th):
        # model.rhs (per-step loop) and model.wrench (block path) apply the
        # same force, 2D torque and 3D spin input on any delayed sample,
        # also at a depth of exactly +0.0 or -0.0, where only the bilateral
        # law pushes; n_hat is tilted off the z axis
        if zero is not None:
            # probe at the centre of mass, every depth term a zero of that
            # sign: d = zero exactly
            probe = [zero] * 3
            if mode == "2d":
                # the probe length |a_B| is +0.0, so a cos(theta) takes the
                # sign of cos(theta)
                yd[0], yd[2] = zero, (th if math.copysign(1.0, zero) > 0 else math.pi - th)
            else:
                yd[0:3] = [zero] * 3
                yd[6:9] = [abs(c) + 0.1 for c in yd[6:9]]
        body = ds.BodyParams(m=60.0, J=[[1.5, 0.1, 0.0], [0.1, 2.0, 0.05], [0.0, 0.05, 2.5]],
                             a_B=probe)
        n_hat = np.array(normal) / np.linalg.norm(normal)
        contact = ds.ContactParams(k_v=3000.0, b_v=40.0, alpha=math.radians(30), n_hat=n_hat,
                                   springs=((500.0, [0.0, 0.6, 0.8]),), activation=activation)
        spun = []
        spin_rate = dynamics._spin_rate

        def recording_spin_rate(*entries):
            rate = spin_rate(*entries)

            def recorded(*args):
                spun.append(args[6:])
                return rate(*args)

            return recorded

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_spin_rate", recording_spin_rate)
            model = dynamics._MODELS[mode](body, contact)
        dim = 6 if mode == "2d" else 12
        y, yd = y[:dim], yd[:dim]
        if zero is not None:
            d, _ = model.depth(np.array([yd]).T)
            assert d.tobytes() == np.array([zero]).tobytes()
        out = np.array(model.rhs(y, yd))
        w = model.wrench(np.array([yd]).T)
        # one row per sample: (f, tau_x) in 2D, (f, tau_x, tau_y, tau_z) in 3D
        assert w.shape == (1, 2 if mode == "2d" else 4)
        if mode == "2d":
            assert out[1:2].tobytes() == (w[:, 0] / body.m).tobytes()
            assert out[3:4].tobytes() == (w[:, 1] / body.J_x).tobytes()
        else:
            assert out[3:6].tobytes() == np.multiply.outer(model.n_hat, w[:, 0] / body.m)[:, 0].tobytes()
            assert np.array(spun[-1]).tobytes() == w[0, 1:].tobytes()


class TestFirstChange:
    """``_first_change(w, w0)`` on a 3D wrench of rows (f, tau_x, tau_y,
    tau_z): the first row that differs from the row w0 bit for bit."""

    @staticmethod
    def nan(payload):
        return np.array([0x7FF8000000000000 | payload]).view(np.float64)[0]

    def steady(self):
        # a NaN force and signed-zero torques: a float comparison would
        # call every row changed, and miss a flipped zero sign
        w0 = np.array([self.nan(1), 0.0, -0.0, 0.0])
        return np.tile(w0, (7, 1)), w0

    @pytest.mark.parametrize("held", [False, True])  # w0 as a row or as a one-row block
    def test_no_change_gives_len(self, held):
        w, w0 = self.steady()
        assert dynamics._first_change(w, w0[None] if held else w0) == len(w)

    @pytest.mark.parametrize("row", range(7))
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_flipped_zero_sign_of_one_torque_component(self, row, column):
        w, w0 = self.steady()
        w[row, column] = -w0[column]
        assert w[row, column] == w0[column]  # equal as floats
        assert dynamics._first_change(w, w0) == row

    @pytest.mark.parametrize("row", range(7))
    def test_other_nan_payload(self, row):
        w, w0 = self.steady()
        w[row, 0] = self.nan(2)
        assert dynamics._first_change(w, w0) == row


class TestNumpyTrig:
    """The premise of ``PlanarModel.wrench``: numpy's float64 sin and cos
    return the bits of math.sin and math.cos, which the scalar ``rhs``
    calls. Where a platform's numpy computes them otherwise, the 2D golden
    hashes and the block-against-rhs checks fail too; these tests name the
    cause."""

    @staticmethod
    def assert_math_bits(th):
        for vectorized, scalar in ((np.sin, math.sin), (np.cos, math.cos)):
            got = vectorized(th).view(np.int64)
            want = np.array([scalar(x) for x in th.tolist()]).view(np.int64)
            wrong = np.flatnonzero(got != want)
            assert not len(wrong), (f"np.{scalar.__name__} differs from math.{scalar.__name__} "
                                    f"at theta = {th[wrong[:3]].tolist()} ({len(wrong)} of {len(th)})")

    @pytest.mark.parametrize("name", ["table1.json", "fig7.json"])
    def test_thetas_of_the_bundled_planar_runs(self, monkeypatch, name):
        thetas = []
        wrench = PlanarModel.wrench

        def recorded(self, xd):
            thetas.append(xd[2])
            return wrench(self, xd)

        monkeypatch.setattr(PlanarModel, "wrench", recorded)
        body, contact, sim, _ = load_scenario(scenario_path(name))
        ds.simulate(sim, body, contact, mode="2d")
        assert len(thetas) >= 25
        for th in thetas:
            # strided, as wrench reads a row of its delayed samples, and
            # contiguous
            assert not th.flags.c_contiguous
            self.assert_math_bits(th)
            self.assert_math_bits(np.ascontiguousarray(th))

    @settings(max_examples=300, deadline=None)
    @given(th=st.lists(st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=64))
    def test_floats_up_to_1e4(self, th):
        th = np.array(th)
        self.assert_math_bits(th)
        self.assert_math_bits(np.column_stack([th, th])[:, 0])


def free_flight_model():
    """The planar table1 model, whose unilateral contact stays force-free
    while the probe is off the wall (d > 0)."""
    return PlanarModel(table1_body(), table1_contact())


class TestStep:
    def test_drift_is_exact(self):
        # a free flight away from the wall at h = 0: z' = v_z = 0.5
        y0 = ds.ChaserState2D(z=0.0, v_z=0.5, theta=0.0, omega=0.0).as_vector()
        _, Y = integrate_dde(free_flight_model(), y0, 0.1, 0.1, 0.0)
        assert Y[1, 0] == pytest.approx(0.05, abs=1e-18)

    def test_harmonic_phase_error(self):
        # undelayed, undamped 1D contact: d'' = -(k/m) d, one full period.
        # Bilateral, so the spring acts on either side of the wall; at
        # theta = 0 the probe is normal to it and the torque is zero, and
        # J_x = 1e12 pins the attitude besides
        body = ds.BodyParams(m=60.0, J=np.diag([1e12, 1e12, 1e12]), a_B=[0.0, 0.0, 0.3])
        model = PlanarModel(body, table1_contact(activation="bilateral"))
        omega = math.sqrt(3000.0 / 60.0)
        dt = 1e-4
        n = int(round(2 * math.pi / omega / dt))
        y0 = ds.ChaserState2D(z=1.0 - body.a, v_z=0.0, theta=0.0, omega=0.0).as_vector()
        _, Y = integrate_dde(model, y0, dt, n * dt, 0.0)
        t_end = n * dt
        d, d_dot = model.depth(Y[-1])
        phase = math.atan2(-d_dot / omega, d) - (omega * t_end) % (2 * math.pi)
        phase = (phase + math.pi) % (2 * math.pi) - math.pi
        assert abs(phase) < 1e-6

    @pytest.mark.parametrize("h", [0.0, 0.016])  # per-step loop, block path
    def test_attitude_stays_unit_over_many_steps(self, h):
        # a free tumble far from the wall, the attitude column renormalized
        # every step; the norm is pinned to one ulp of 1 after every single
        # step, so the bound cannot drift no matter how long the run is
        body = ds.BodyParams(m=60.0, J=[[1.5, 0.1, -0.05], [0.1, 2.0, 0.08], [-0.05, 0.08, 2.5]],
                             a_B=[0.0, 0.0, 0.3])
        model = SpatialModel(body, table1_contact())
        state = ds.ChaserState3D(r=[0.0, 0.0, 10.0], v=[0.0, 0.0, 0.0], d_c3=[0.0, 0.0, 1.0],
                                 omega=[0.5, -0.3, 0.7])
        _, Y = integrate_dde(model, state.as_vector(), 1e-3, 100_000 * 1e-3, h)
        assert model.applied[:, 0].max() == 0.0
        norms = np.linalg.norm(Y[:, 6:9], axis=1)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    @pytest.mark.parametrize("activation, low, high", [
        # the linear interpolation of the history: order 2
        ("bilateral", 3.8, 4.2),
        # the force jumps by b_v d_dot where the delayed depth crosses zero
        # inside a step: order 1
        ("unilateral", 1.8, 2.4),
    ])
    def test_convergence_order(self, activation, low, high):
        # table1 with b_v = 50 through its first contact: the max-norm
        # error of the state at t = 0.6 s against dt = 5e-6 shrinks by a
        # factor of 2**order per halving of dt (measured 4.000, 4.002,
        # 4.008 and 2.179, 2.003, 2.041)
        body, contact, sim, _ = load_scenario(scenario_path("table1.json"), [
            "contact.b_v=50", f'contact.activation="{activation}"'])
        model = PlanarModel(body, contact)
        y0 = model.initial_vector(sim.initial)

        def final_state(dt):
            return integrate_dde(model, y0, dt, 0.6, sim.h)[1][-1]

        ref = final_state(5e-6)
        errors = [np.abs(final_state(dt) - ref).max() for dt in (8e-4, 4e-4, 2e-4, 1e-4)]
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(low <= r <= high for r in ratios), ratios

    def test_divergence_bound_applies_per_component(self, monkeypatch):
        # with DIVERGENCE_FACTOR = 1 the bound is 1.0, the initial maximum
        # (0.6) being raised to 1: |y| sums past it while every component
        # stays inside it, a probe at rest off the wall
        monkeypatch.setattr(dynamics, "DIVERGENCE_FACTOR", 1.0)
        at_rest = ds.ChaserState2D(z=0.6, v_z=0.0, theta=0.6, omega=0.0, y=-0.6)
        _, Y = integrate_dde(free_flight_model(), at_rest.as_vector(), 0.1, 0.3, 0.0)
        assert np.array_equal(Y[-1], at_rest.as_vector())
        # a free drift along y from -0.57 at -0.5 m/s passes -1.0 between
        # the rows at t = 0.8 and 0.9 s: it stops at the row at 0.9 s
        drift = ds.ChaserState2D(z=0.6, v_z=0.0, theta=0.6, omega=0.0, y=-0.57, v_y=-0.5)
        with pytest.raises(ds.DivergenceError) as raised:
            integrate_dde(free_flight_model(), drift.as_vector(), 0.1, 1.5, 0.0)
        assert str(raised.value) == "state magnitude exceeded divergence bound 1 at t = 0.9 s (instability)"
        assert raised.value.t == 9 * 0.1

    def test_rejects_non_finite(self):
        # a rate so large that the first step's RK4 sum overflows
        y0 = ds.ChaserState2D(z=1.0, v_z=0.0, theta=0.0, omega=0.0, v_y=1e308).as_vector()
        with pytest.raises(ds.DivergenceError, match="non-finite"):
            integrate_dde(free_flight_model(), y0, 0.1, 0.1, 0.0)


def record_lookups(monkeypatch):
    """Make the block path's two history lookups record their calls:
    returns {name: [(args, result), ...]} for ``_stage_samples`` (the
    per-block lookup) and ``_lerp_rows`` (its general path)."""
    calls = {}
    for name in ("_stage_samples", "_lerp_rows"):
        def recorded(*args, _fn=getattr(dynamics, name), _log=calls.setdefault(name, [])):
            out = _fn(*args)
            _log.append((args, out))
            return out

        monkeypatch.setattr(dynamics, name, recorded)
    return calls


def count_scalar_rhs_calls(monkeypatch, mode):
    """Make simulate build models whose scalar form ``rhs`` counts its
    calls; returns the list of models built and the call counter."""
    models, calls = [], [0]

    class Counted(dynamics._MODELS[mode]):
        def __init__(self, *args):
            super().__init__(*args)
            rhs = self.rhs

            def counted(y, yd):
                calls[0] += 1
                return rhs(y, yd)

            self.rhs = counted
            models.append(self)

    monkeypatch.setitem(dynamics._MODELS, mode, Counted)
    return models, calls


def count_wrench_calls(monkeypatch, cls):
    """Count the calls of ``cls.wrench``, one per block or span."""
    calls = [0]
    wrench = cls.wrench

    def counted(self, xd):
        calls[0] += 1
        return wrench(self, xd)

    monkeypatch.setattr(cls, "wrench", counted)
    return calls


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

    def test_direct_call_has_the_divergence_guard_of_simulate(self):
        # integrate_dde owns the bound: called directly on table1's model
        # with b_v = 1e7 it stops where simulate does, with the same message
        body, contact, sim, _ = load_scenario(scenario_path("table1"), ["contact.b_v=1e7"])
        with pytest.raises(ds.DivergenceError) as through_simulate:
            ds.simulate(sim, body, contact, mode="2d")
        with pytest.raises(ds.DivergenceError) as direct:
            integrate_dde(PlanarModel(body, contact), sim.initial.as_vector(), sim.dt, sim.t_end, sim.h)
        assert str(direct.value) == str(through_simulate.value)
        assert direct.value.t == through_simulate.value.t
        assert str(direct.value).startswith("state magnitude exceeded divergence bound 1.05e+03 at t = 0.545 s")

    def test_divergence_guard_trips(self, body, monkeypatch):
        contact = table1_contact(b_v=0.0, activation="bilateral")
        cfg = approach_config(t_end=30.0)
        monkeypatch.setattr(dynamics, "DIVERGENCE_FACTOR", 1.2)
        with pytest.raises(ds.DivergenceError, match="divergence bound"):
            ds.simulate(cfg, body, contact, mode="2d")

    def test_per_step_3d_divergence_ends_in_divergence_error(self, monkeypatch):
        # h = 0 runs the per-step loop; the attitude renormalization
        # overflows before the divergence screen sees the state, and that
        # must end the run in DivergenceError, not in a numpy overflow
        # warning (an error under this suite's warning filter)
        cfg = ds.SimConfig(h=0.0, dt=1e-3, t_end=2.0,
                           initial=ds.ChaserState2D(z=-0.2, v_z=-0.01, theta=1.0, omega=0.0))
        body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0.0, 0.0, 0.3])
        contact = ds.ContactParams(k_v=1e9, b_v=0.0, alpha=0.5, activation="bilateral")
        monkeypatch.setattr(dynamics, "DIVERGENCE_FACTOR", 1e300)
        with pytest.raises(ds.DivergenceError, match="non-finite"):
            ds.simulate(cfg, body, contact, mode="3d")

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
    # h/dt of 1, 1.5, 2 and 5, and the bundled 160 and 200
    @pytest.mark.parametrize("h", [1e-4, 1.5e-4, 2e-4, 5e-4, 0.016, 0.02])
    def test_block_path_makes_no_scalar_rhs_call(self, body, monkeypatch, mode, activation, h):
        # simulate hands integrate_dde one model, which at every delay
        # advances whole blocks on arrays, even blocks of one step, and
        # never calls its scalar form; it records the applied wrench as it
        # goes, so no lookup over all the grid's rows runs afterwards
        models, calls = count_scalar_rhs_calls(monkeypatch, mode)
        looked_up = record_lookups(monkeypatch)
        cfg = approach_config(h=h)
        traj, events = ds.simulate(cfg, body, table1_contact(b_v=50.0, activation=activation), mode=mode)
        assert len(models) == 1 and calls[0] == 0
        assert events and traj.f.max() > 0.0
        rows = round(cfg.t_end / cfg.dt) + 1
        samples = [len(out) for _, out in looked_up["_stage_samples"] + looked_up["_lerp_rows"]]
        assert len(traj.times) == rows and samples and rows not in samples

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_whole_delay_ratio_takes_row_slices(self, monkeypatch, mode):
        # table1's h/dt is a whole 160: every block from row 160 on takes
        # its stage samples as row slices, and only the first block, whose
        # samples reach the pre-history, takes the general lerp; a silent
        # fallback to the lerp fails here
        body, contact, sim, _ = load_scenario(scenario_path("table1"))
        looked_up = record_lookups(monkeypatch)
        ds.simulate(sim, body, contact, mode=mode)
        lag = sim.h / sim.dt
        assert lag == 160.0
        starts = [args[1] for args, _ in looked_up["_stage_samples"]]
        lerped = [args[1] for args, _ in looked_up["_lerp_rows"]]
        assert len(starts) == 25 and starts[0] == 0 and min(starts[1:]) >= lag
        # one lerp, of the first block: its first sample is row -160
        assert len(lerped) == 1 and lerped[0][0] == -lag

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_per_step_path_calls_the_scalar_rhs_of_the_model(self, body, monkeypatch, mode):
        # the counter of the test above sees the calls of the per-step loop,
        # which runs a model only at h = 0: four per step
        models, calls = count_scalar_rhs_calls(monkeypatch, mode)
        cfg = approach_config(h=0.0, t_end=0.1)
        ds.simulate(cfg, body, table1_contact(b_v=50.0), mode=mode)
        assert len(models) == 1 and calls[0] == 4 * 1000

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    def test_free_flight_runs_in_speculative_spans(self, body, monkeypatch, mode):
        # table1 spends about 81% of its 12 000 steps in free flight, where
        # the delayed wrench is steady: in either mode, speculative spans of
        # SPECULATIVE_BLOCKS blocks cover it, so the contact law runs 25
        # times instead of once per block of 160 steps (75 blocks)
        calls = count_wrench_calls(monkeypatch, dynamics._MODELS[mode])
        _, events = ds.simulate(approach_config(), body, table1_contact(b_v=50.0), mode=mode)
        assert events and calls[0] == 25 < math.ceil(12000 / 160)

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("h", [-0.016, math.nan, math.inf, 5e-5])  # 5e-5 is dt/2
    def test_unusable_delay_is_rejected(self, body, contact, mode, h):
        # the delay rule of validate() holds for direct calls as well
        cfg = approach_config(h=h)
        text = delay_problem(h, cfg.dt)
        assert text is not None
        with pytest.raises(ValueError) as raised:
            ds.simulate(cfg, body, contact, mode=mode)
        assert str(raised.value) == text
        model = dynamics._MODELS[mode](body, contact)
        with pytest.raises(ValueError) as raised:
            integrate_dde(model, model.initial_vector(cfg.initial), cfg.dt, cfg.t_end, h)
        assert str(raised.value) == text

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
    @pytest.mark.parametrize("h", [0.0, 5e-4, 0.016])  # h = 0 (per-step loop), h/dt = 5 and 160 (blocks)
    def test_model_runs_as_its_rhs_and_unit_slice(self, body, mode, activation, h):
        # handed the model, integrate_dde gives the rows of the model's
        # scalar form and unit slice stepped one row at a time, bit for bit:
        # the oracle's numpy scheme, which renormalizes the attitude column
        # as the 3D model does
        model = dynamics._MODELS[mode](body, table1_contact(b_v=50.0, activation=activation))
        cfg = approach_config(h=h, t_end=1.0)
        y0 = model.initial_vector(cfg.initial)
        times, Y = integrate_dde(model, y0, cfg.dt, cfg.t_end, h)
        bound = dynamics.DIVERGENCE_FACTOR * max(float(np.abs(y0).max()), 1.0)
        ref_times, ref = numpy_integrate_dde(model.rhs, y0, cfg.dt, cfg.t_end, h,
                                             unit_slice=model.unit_slice, divergence_bound=bound)
        assert times.tobytes() == ref_times.tobytes()
        assert Y.tobytes() == ref.tobytes()
        assert model.applied[:, 0].max() > 0.0

    def test_record_every_decimates_uniformly(self, body, contact):
        cfg = ds.SimConfig(h=0.016, dt=1e-4, t_end=0.2, initial=approach_config().initial,
                           record_every=10)
        traj, _ = ds.simulate(cfg, body, contact, mode="2d")
        assert len(traj.times) == 201
        assert np.allclose(np.diff(traj.times), 1e-3)

    def test_record_every_takes_a_whole_number_only(self, body, contact):
        # 2.9 used to be truncated to 2 for a direct caller, while the CLI
        # rejects it
        initial = approach_config().initial
        cfg = ds.SimConfig(h=0.016, dt=1e-4, t_end=0.2, initial=initial, record_every=2.0)
        assert cfg.record_every == 2 and isinstance(cfg.record_every, int)
        traj, _ = ds.simulate(cfg, body, contact, mode="2d")
        assert len(traj.times) == 1001
        for value in (2.9, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^record_every must be a whole number, got {value!r}$"):
                ds.SimConfig(h=0.016, dt=1e-4, t_end=0.2, initial=initial, record_every=value)

    def test_t_end_off_the_step_grid_is_rejected(self, body, contact):
        # the step-count rule of validate() holds for direct calls as well:
        # 0.30004 s is 3000.4 steps, which used to end silently at 0.3 s
        cfg = approach_config(t_end=0.30004)
        with pytest.raises(ValueError, match="not a whole number of steps"):
            ds.simulate(cfg, body, contact, mode="2d")
        with pytest.raises(ValueError, match="not a whole number of steps"):
            integrate_dde(PlanarModel(body, contact), cfg.initial.as_vector(),
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

    @pytest.mark.parametrize("name, mode", [("table1", "2d"), ("demo3d", "3d")])
    def test_default_mode_is_the_initial_states(self, name, mode):
        # simulate used to run the planar model whatever the initial state:
        # demo3d came back in mode "2d", and a 3D state off the plane raised
        # "cannot run in 2D mode"
        body, contact, sim, _ = load_scenario(scenario_path(name), ["sim.t_end=0.05"])
        traj, events = ds.simulate(sim, body, contact)
        explicit, explicit_events = ds.simulate(sim, body, contact, mode=mode)
        assert traj.mode == mode
        assert np.array_equal(traj.states, explicit.states) and events == explicit_events

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
        Yd = _lerp_rows(Y, np.arange(len(Y)) - cfg.h / cfg.dt, Y.shape[1])
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

    @pytest.mark.parametrize("mode", ["2d", "3d"])
    @pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
    # h = 0 (per-step loop); 1 dt (one-step blocks), 5 dt and 160 dt
    # (blocks, row slices after the first); 3e-4/1e-4 = 2.9999999999999996
    # dt and 163.7 dt (blocks, every one on the lerp)
    @pytest.mark.parametrize("h", [0.0, 5e-4, 0.016, 1e-4, 3e-4, 0.01637])
    def test_recorded_channels_are_the_wrench_of_the_delayed_rows(self, body, mode, activation, h):
        # whichever path ran, f and tau are the model's wrench on the grid
        # sampled one delay back, as a whole-grid lerp gives it, bit for bit
        contact = table1_contact(b_v=50.0, activation=activation)
        cfg = approach_config(h=h, t_end=1.0)
        traj, _ = ds.simulate(cfg, body, contact, mode=mode)
        model = (PlanarModel if mode == "2d" else SpatialModel)(body, contact)
        back = np.arange(len(traj.states)) - cfg.h / cfg.dt
        w = model.wrench(_lerp_rows(traj.states, back, model.columns).T)
        assert np.any(w[:, 0] != 0.0)
        # the wrench rows split into f and tau, which is 1-D in 2D
        assert traj.tau.ndim == (1 if mode == "2d" else 2)
        assert np.column_stack((traj.f, traj.tau)).tobytes() == w.tobytes()

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

    def test_reentry_inside_the_window_ends_the_exit_average(self):
        # two contacts 5 samples apart with a 10-sample window: the exit
        # rate of the first and the entry rate of the second average only
        # the 5 samples between them (d_dot is the sample index)
        t = np.arange(100) * 0.01
        d = np.ones(100)
        d[20:30] = -1.0
        d[35:45] = -1.0
        dd = np.arange(100.0)
        first, second = extract_events(t, d, dd, window=0.1)
        assert first.t_in == pytest.approx(0.195) and first.t_out == pytest.approx(0.295)
        assert first.v_minus == np.mean(dd[10:20])
        assert first.v_plus == np.mean(dd[30:35]) == 32.0
        assert second.v_minus == np.mean(dd[30:35])
        assert second.v_plus == np.mean(dd[45:55])

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples_have_no_event(self, n):
        assert extract_events(np.zeros(n), -np.ones(n), np.zeros(n)) == []

    @pytest.mark.parametrize("window", [math.nan, -0.02, math.inf, 1e300])
    def test_unusable_window_is_rejected(self, window):
        t = np.arange(10) * 0.1
        d = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        if window == 1e300:
            # finite: the average covers every sample outside contact
            (ev,) = extract_events(t, d, t, window=window)
            assert ev.v_minus == np.mean(t[:2]) and ev.v_plus == np.mean(t[4:])
            return
        with pytest.raises(ValueError, match=f"window must be finite and >= 0, got {window!r}"):
            extract_events(t, d, t, window=window)


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


def _rows_2d(*times):
    """A 2D trajectory file whose rows are zeros but for the t column."""
    return ",".join(dynamics.TRAJ_COLUMNS_2D) + "\n" + "".join(f"{t},0,0,1,0,0,0,0,0\n" for t in times)


@pytest.mark.parametrize("text, message", [
    ("t,x,y\n0,1,2\n", "unrecognized trajectory header"),
    (",".join(dynamics.TRAJ_COLUMNS_2D) + "\n", "no data rows"),
    (",".join(dynamics.TRAJ_COLUMNS_3D) + "\n\n\n", "no data rows"),
    # np.interp used to read such a t column without a word
    (_rows_2d(0, 1e9, 0.002), "t must be finite and non-decreasing"),
    (_rows_2d(0, "nan", 0.002), "t must be finite and non-decreasing"),
    (_rows_2d(0, 0.001, "inf"), "t must be finite and non-decreasing"),
], ids=["unknown-header", "2d-header-only", "3d-header-blank-lines", "t-goes-back", "t-nan", "t-inf"])
def test_trajectory_csv_unreadable_file_is_rejected(tmp_path, text, message):
    path = tmp_path / "bad.traj.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"bad.traj.csv: {message}"):
        read_trajectory_csv(path)


def test_trajectory_csv_may_repeat_a_time_stamp(tmp_path):
    # a long run written at 9 significant digits may round two samples to one
    path = tmp_path / "run.traj.csv"
    path.write_text(_rows_2d(0, 1.00000001, 1.00000001, 1.00000002))
    assert read_trajectory_csv(path).times.tolist() == [0.0, 1.00000001, 1.00000001, 1.00000002]
