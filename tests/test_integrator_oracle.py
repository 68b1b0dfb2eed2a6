"""Bitwise oracle for the float-list RK4 loop of ``integrate_dde``.

``numpy_integrate_dde`` below is the earlier numpy-array form of the same
delayed RK4 scheme, kept here only as a reference: every stage is a numpy
expression on the whole state vector. ``integrate_dde`` performs the same
floating-point operations in the same order on Python floats, so the two
must agree bit for bit, and must diverge at the same step with the same
message.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim.dynamics import DivergenceError, integrate_dde, make_rhs_2d, make_rhs_3d


def numpy_integrate_dde(rhs, initial, dt, t_end, h, unit_slice=None, divergence_bound=None):
    """Reference: the delayed RK4 scheme on numpy arrays."""
    y0 = np.asarray(initial, dtype=float)
    n = int(round(t_end / dt))
    if n < 1:
        raise ValueError("t_end must cover at least one step")
    dim = y0.size
    Y = np.empty((n + 1, dim))
    Y[0] = y0
    times = np.arange(n + 1) * dt
    ratio = h / dt
    y = y0.copy()
    for i in range(n):
        if h == 0.0:
            k1 = np.array(rhs(y, y))
            y2 = y + (0.5 * dt) * k1
            k2 = np.array(rhs(y2, y2))
            y3 = y + (0.5 * dt) * k2
            k3 = np.array(rhs(y3, y3))
            y4 = y + dt * k3
            k4 = np.array(rhs(y4, y4))
        else:
            d0 = numpy_lerp_history(Y, i, i - ratio)
            dh = numpy_lerp_history(Y, i, i + 0.5 - ratio)
            d1 = numpy_lerp_history(Y, i, i + 1.0 - ratio)
            k1 = np.array(rhs(y, d0))
            k2 = np.array(rhs(y + (0.5 * dt) * k1, dh))
            k3 = np.array(rhs(y + (0.5 * dt) * k2, dh))
            k4 = np.array(rhs(y + dt * k3, d1))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if unit_slice is not None:
            block = y[unit_slice]
            y[unit_slice] = block / math.sqrt(float(block @ block))
        if not np.all(np.isfinite(y)):
            raise DivergenceError(f"non-finite state at t = {times[i + 1]:.9g} s", float(times[i + 1]))
        if divergence_bound is not None and float(np.abs(y).max()) > divergence_bound:
            raise DivergenceError(
                f"state magnitude exceeded divergence bound {divergence_bound:.3g} "
                f"at t = {times[i + 1]:.9g} s (instability)",
                float(times[i + 1]),
            )
        Y[i + 1] = y
    return times, Y


def numpy_lerp_history(Y, latest, q):
    if q <= 0.0:
        return Y[0]
    i0 = int(q)
    if i0 >= latest:
        return Y[latest]
    w = q - i0
    if w == 0.0:
        return Y[i0]
    return (1.0 - w) * Y[i0] + w * Y[i0 + 1]


def run_both(rhs, y0, dt, t_end, h, unit_slice, bound):
    """Run both integrators; each result is (times, Y) or the DivergenceError."""
    results = []
    for integrate in (integrate_dde, numpy_integrate_dde):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(integrate(rhs, y0, dt, t_end, h, unit_slice=unit_slice,
                                         divergence_bound=bound))
        except DivergenceError as exc:
            results.append(exc)
    return results


def assert_bitwise_equal(new, ref):
    if isinstance(ref, DivergenceError):
        assert isinstance(new, DivergenceError), "reference diverged, float loop did not"
        assert str(new) == str(ref)
        assert new.t == ref.t
        return
    assert not isinstance(new, DivergenceError), f"float loop diverged alone: {new}"
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1].tobytes() == ref[1].tobytes()


unit = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(0.2, 1)).map(
    lambda v: np.asarray(v) / np.linalg.norm(v))
springs = st.lists(st.tuples(st.floats(0.0, 5000.0), unit), max_size=3).map(tuple)


@st.composite
def delays(draw, dt):
    """h = 0, a whole multiple of dt, or a non-multiple >= dt."""
    kind = draw(st.sampled_from(["zero", "multiple", "off-grid"]))
    if kind == "zero":
        return 0.0
    if kind == "multiple":
        return dt * draw(st.integers(1, 40))
    return dt * draw(st.floats(1.0, 40.0).filter(lambda r: r != int(r)))


@st.composite
def cases(draw):
    mode = draw(st.sampled_from(["2d", "3d"]))
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    h = draw(delays(dt))
    m = draw(st.floats(5.0, 200.0))
    J_diag = [draw(st.floats(0.5, 20.0)) for _ in range(3)]
    J = np.diag(J_diag)
    if mode == "3d":
        J[0, 1] = J[1, 0] = draw(st.floats(-0.2, 0.2))
    a = draw(st.floats(0.1, 0.5))
    a_B = [0.0, 0.0, a] if mode == "2d" else a * draw(unit)
    body = ds.BodyParams(m=m, J=J, a_B=a_B)
    stiff = draw(st.booleans())
    contact = ds.ContactParams(
        k_v=draw(st.floats(1e4, 1e7) if stiff else st.floats(0.0, 5000.0)),
        b_v=draw(st.floats(0.0, 200.0)),
        alpha=math.radians(30.0),
        springs=draw(springs),
        n_hat=[0.0, 0.0, 1.0] if mode == "2d" else draw(unit),
        activation=draw(st.sampled_from(["unilateral", "bilateral"])),
    )
    theta = draw(st.floats(0.6, 1.4))
    state = ds.ChaserState2D(
        z=-body.a * math.cos(theta) + draw(st.floats(-0.002, 0.004)),
        v_z=draw(st.floats(-0.2, 0.0)),
        theta=theta,
        omega=draw(st.floats(-0.5, 0.5)),
        y=draw(st.floats(-0.1, 0.1)),
        v_y=draw(st.floats(-0.05, 0.05)),
    )
    if mode == "2d":
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
    else:
        s3 = state.embed_3d()
        tilt = draw(st.floats(-0.05, 0.05))
        d_c3 = np.array([tilt, s3.d_c3[1], s3.d_c3[2]])
        s3 = ds.ChaserState3D(r=s3.r, v=s3.v, d_c3=d_c3 / np.linalg.norm(d_c3),
                              omega=[draw(st.floats(-0.5, 0.5)) for _ in range(3)])
        rhs, y0, unit_slice = make_rhs_3d(body, contact), s3.as_vector(), slice(6, 9)
    steps = draw(st.integers(1, 300))
    bound = draw(st.one_of(st.none(), st.floats(1.0, 50.0)))
    return rhs, y0, dt, steps * dt, h, unit_slice, bound


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_float_loop_matches_numpy_scheme_bitwise(case):
    assert_bitwise_equal(*run_both(*case))


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("bound, message", [(2.0, "divergence bound"), (None, "non-finite")])
def test_divergence_is_reported_identically(mode, bound, message):
    # a bilateral contact far too stiff for the step: the state grows
    # without limit, past the bound or, without one, to overflow
    body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=1e9, b_v=0.0, alpha=0.5, activation="bilateral")
    state = ds.ChaserState2D(z=-0.2, v_z=-0.01, theta=1.0, omega=0.0)
    if mode == "2d":
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
    else:
        rhs, y0, unit_slice = make_rhs_3d(body, contact), state.embed_3d().as_vector(), slice(6, 9)
    new, ref = run_both(rhs, y0, 1e-3, 2.0, 5e-3, unit_slice, bound)
    assert isinstance(ref, DivergenceError) and message in str(ref)
    assert_bitwise_equal(new, ref)


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("h", [0.0, 0.0163])
def test_long_contact_run_matches_numpy_scheme_bitwise(mode, h):
    body = ds.BodyParams(m=60.0, J=np.diag([1.43, 1.43, 1.43]), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=3000.0, b_v=20.0, alpha=math.radians(30.0),
                               springs=((800.0, [0.0, 0.6, 0.8]),))
    state = ds.ChaserState2D(z=-0.14, v_z=-0.02, theta=math.radians(60.0), omega=0.0)
    if mode == "2d":
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
    else:
        rhs, y0, unit_slice = make_rhs_3d(body, contact), state.embed_3d().as_vector(), slice(6, 9)
    new, ref = run_both(rhs, y0, 1e-4, 1.2, h, unit_slice, 1e3)
    assert_bitwise_equal(new, ref)
