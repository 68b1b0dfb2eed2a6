"""Bitwise oracle for both paths of ``integrate_dde``.

``numpy_integrate_dde`` below is the earlier numpy-array form of the same
delayed RK4 scheme, kept here only as a reference: every stage is a numpy
expression on the whole state vector, one step at a time. ``integrate_dde``
performs the same floating-point operations in the same order, on Python
floats in its per-step loop and on arrays in its block path (given a
``PlanarModel`` or ``SpatialModel``), so each must agree with the reference
bit for bit, and must diverge at the same step with the same message.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim.contact import depth_2d
from docksim.dynamics import (
    MIN_BLOCK_RATIO,
    DivergenceError,
    PlanarModel,
    SpatialModel,
    extract_events,
    integrate_dde,
    make_rhs_2d,
    make_rhs_3d,
)


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


def run_both(rhs, y0, dt, t_end, h, unit_slice, bound, model=None):
    """Run both integrators, ``integrate_dde`` with ``model``; each result is
    (times, Y) or the DivergenceError. With a model and h/dt at or above
    the crossover, the block path must not call the right-hand side."""
    calls = [0]

    def counted(y, yd):
        calls[0] += 1
        return rhs(y, yd)

    # the per-step loop lets numpy's overflow warnings through on a
    # diverging run, as it always has; the block path must not
    quiet = np.errstate(over="ignore", invalid="ignore") if model is None else contextlib.nullcontext()
    results = []
    try:
        with quiet:
            results.append(integrate_dde(counted, y0, dt, t_end, h, unit_slice=unit_slice,
                                         divergence_bound=bound, model=model))
    except DivergenceError as exc:
        results.append(exc)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            results.append(numpy_integrate_dde(rhs, y0, dt, t_end, h, unit_slice=unit_slice,
                                               divergence_bound=bound))
    except DivergenceError as exc:
        results.append(exc)
    if model is not None and h / dt >= MIN_BLOCK_RATIO:
        assert calls[0] == 0, "the block path called the right-hand side"
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
signed_zero = st.sampled_from([0.0, -0.0])


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
def cases(draw, blocks=False):
    """A random 2D or 3D run near the wall; with ``blocks``, the model of
    the block path comes last."""
    mode = draw(st.sampled_from(["2d", "3d"]))
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    h = draw(delays(dt))
    m = draw(st.floats(5.0, 200.0))
    J_diag = [draw(st.floats(0.5, 20.0)) for _ in range(3)]
    J = np.diag(J_diag)
    if mode == "3d":
        J[0, 1] = J[1, 0] = draw(st.floats(-0.2, 0.2))
        J[0, 2] = J[2, 0] = draw(st.floats(-0.2, 0.2))
        J[1, 2] = J[2, 1] = draw(st.floats(-0.2, 0.2))
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
        omega=draw(signed_zero | st.floats(-0.5, 0.5)),
        y=draw(st.floats(-0.1, 0.1)),
        v_y=draw(signed_zero | st.floats(-0.05, 0.05)),
    )
    if mode == "2d":
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
    else:
        s3 = state.embed_3d()
        tilt = draw(st.floats(-0.05, 0.05))
        d_c3 = np.array([tilt, s3.d_c3[1], s3.d_c3[2]])
        s3 = ds.ChaserState3D(r=s3.r, v=s3.v, d_c3=d_c3 / np.linalg.norm(d_c3),
                              omega=[draw(signed_zero | st.floats(-0.5, 0.5)) for _ in range(3)])
        rhs, y0, unit_slice = make_rhs_3d(body, contact), s3.as_vector(), slice(6, 9)
    steps = draw(st.integers(1, 300))
    bound = draw(st.one_of(st.none(), st.floats(1.0, 50.0)))
    case = rhs, y0, dt, steps * dt, h, unit_slice, bound
    if blocks:
        case += ((PlanarModel if mode == "2d" else SpatialModel)(body, contact),)
    return case


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_float_loop_matches_numpy_scheme_bitwise(case):
    assert_bitwise_equal(*run_both(*case))


@settings(max_examples=150, deadline=None)
@given(case=cases(blocks=True))
def test_block_path_matches_numpy_scheme_bitwise(case):
    # h/dt from 1 to 40 puts the run on either side of MIN_BLOCK_RATIO;
    # below it integrate_dde keeps the per-step loop
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


def spinning_3d_run(activation):
    """A spinning 3D probe with a full inertia tensor, started near the
    wall: omega on all three axes, three springs, and a tilted normal."""
    body = ds.BodyParams(m=60.0, J=[[1.5, 0.1, -0.05], [0.1, 2.0, 0.08], [-0.05, 0.08, 2.5]],
                         a_B=[0.01, -0.02, 0.3])
    contact = ds.ContactParams(k_v=2000.0, b_v=20.0, alpha=math.radians(30.0),
                               springs=((4000.0, [0.0, 0.0, 1.0]), (1000.0, [1.0, 0.0, 0.0]),
                                        (1000.0, [0.0, 0.6, 0.8])),
                               n_hat=[0.05, -0.03, 1.0] / np.linalg.norm([0.05, -0.03, 1.0]),
                               activation=activation)
    s = ds.ChaserState2D(z=-0.3 * math.cos(1.0) + 0.003, v_z=-0.03, theta=1.0, omega=0.0).embed_3d()
    state = ds.ChaserState3D(r=s.r, v=[0.002, 0.001, -0.03], d_c3=s.d_c3, omega=[0.3, -0.4, 0.5])
    return make_rhs_3d(body, contact), state.as_vector(), SpatialModel(body, contact)


@pytest.mark.parametrize("h", [0.016, 0.0163])  # on and off the dt grid
@pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
@pytest.mark.parametrize("mode", ["2d", "3d"])
def test_long_block_run_matches_numpy_scheme_bitwise(mode, activation, h):
    if mode == "2d":
        body = ds.BodyParams(m=60.0, J=np.diag([1.43, 1.43, 1.43]), a_B=[0.0, 0.0, 0.3])
        contact = ds.ContactParams(k_v=3000.0, b_v=20.0, alpha=math.radians(30.0),
                                   springs=((800.0, [0.0, 0.6, 0.8]),), activation=activation)
        state = ds.ChaserState2D(z=-0.14, v_z=-0.02, theta=math.radians(60.0), omega=0.3, v_y=0.01)
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
        model = PlanarModel(body, contact)
    else:
        rhs, y0, model = spinning_3d_run(activation)
        unit_slice = slice(6, 9)
    new, ref = run_both(rhs, y0, 1e-4, 1.2, h, unit_slice, 1e3, model)
    assert_bitwise_equal(new, ref)
    # the probe reached the wall and was pushed back out
    v_z = ref[1][:, 5 if mode == "3d" else 1]
    assert v_z[0] < 0.0 < v_z.max()


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("bound, message", [(2.0, "divergence bound"), (None, "non-finite")])
def test_divergence_inside_a_block_is_reported_identically(mode, bound, message):
    # as test_divergence_is_reported_identically, with h/dt = 16: the state
    # leaves the bound, or overflows, in the middle of a block
    body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=1e9, b_v=0.0, alpha=0.5, activation="bilateral")
    state = ds.ChaserState2D(z=-0.2, v_z=-0.01, theta=1.0, omega=0.0)
    if mode == "2d":
        rhs, y0, unit_slice = make_rhs_2d(body, contact), state.as_vector(), None
        model = PlanarModel(body, contact)
    else:
        rhs, y0, unit_slice = make_rhs_3d(body, contact), state.embed_3d().as_vector(), slice(6, 9)
        model = SpatialModel(body, contact)
    new, ref = run_both(rhs, y0, 1e-3, 2.0, 0.016, unit_slice, bound, model)
    assert isinstance(ref, DivergenceError) and message in str(ref)
    assert_bitwise_equal(new, ref)
    steps = round(ref.t / 1e-3)
    assert steps % 15 != 0  # not at the end of a block of 15 steps


# --- cases first written for the free-flight fast-forward ---
#
# The block path replaced that fast-forward: a zero delayed force is just a
# value there, so free flight and contact go through the same arrays. The
# cases keep their names and now run the block path of 2D unilateral
# contact against the per-step reference.

SPIN_BODY = ds.BodyParams(m=20.0, J=np.diag([0.2, 0.2, 0.2]), a_B=[0.0, 0.0, 0.3])
SPIN_CONTACT = ds.ContactParams(k_v=3000.0, b_v=2.0, alpha=0.5)


def run_planar(body, contact, state, dt, t_end, h, bound):
    """run_both for a 2D run given the planar model."""
    return run_both(make_rhs_2d(body, contact), state.as_vector(), dt, t_end, h, None, bound,
                    PlanarModel(body, contact))


def contact_events(result, a):
    times, Y = result
    d = depth_2d(Y.T, a, np.cos(Y[:, 2]))
    return extract_events(times, d, Y[:, 1])


@st.composite
def free_flight_cases(draw):
    """2D unilateral runs that start near the wall, often spinning, so that
    free flight, contact and the pass back out all occur."""
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    h = draw(delays(dt).filter(lambda h: h > 0.0))
    J_x = draw(st.floats(0.05, 5.0))
    body = ds.BodyParams(m=draw(st.floats(5.0, 100.0)), J=np.diag([J_x, J_x, J_x]),
                         a_B=[0.0, 0.0, draw(st.floats(0.1, 0.5))])
    contact = ds.ContactParams(k_v=draw(st.floats(100.0, 1e4)), b_v=draw(st.floats(0.0, 100.0)),
                               alpha=0.5)
    theta = draw(st.floats(-3.0, 3.0))
    state = ds.ChaserState2D(
        z=-body.a * math.cos(theta) + draw(st.floats(-0.002, 0.01)),
        v_z=draw(st.floats(-0.1, 0.05)),
        theta=theta,
        omega=draw(signed_zero | st.floats(-5.0, 5.0)),
        v_y=draw(st.floats(-0.05, 0.05)),
    )
    steps = draw(st.integers(1, 1500))
    bound = draw(st.one_of(st.none(), st.floats(1.0, 50.0)))
    return body, contact, state, dt, steps * dt, h, bound


@settings(max_examples=60, deadline=None)
@given(case=free_flight_cases())
def test_fast_forward_matches_numpy_scheme_bitwise(case):
    assert_bitwise_equal(*run_planar(*case))


@pytest.mark.parametrize("h", [0.016, 0.0163])  # on and off the dt grid
def test_fast_forward_across_recontacts_matches_numpy_scheme_bitwise(h):
    # the spinning probe swings in and out of the wall: d = z + a cos(theta)
    # is non-monotonic, with free flight between three contacts
    state = ds.ChaserState2D(z=-0.3 * math.cos(1.0) + 0.005, v_z=-0.05, theta=1.0, omega=1.0)
    new, ref = run_planar(SPIN_BODY, SPIN_CONTACT, state, 1e-3, 3.0, h, 1e3)
    assert_bitwise_equal(new, ref)
    assert len(contact_events(ref, SPIN_BODY.a)) >= 3


@pytest.mark.parametrize("gap", [1e-9, 1e-13, -1e-6])
def test_pass_near_the_wall_matches_numpy_scheme_bitwise(gap):
    # the spinning tip passes theta = pi with a clearance of 1e-9 or 1e-13,
    # or touches the wall for less than the delay
    a = SPIN_BODY.a
    state = ds.ChaserState2D(z=a + gap, v_z=0.0, theta=2.0, omega=2.0)
    new, ref = run_planar(SPIN_BODY, SPIN_CONTACT, state, 1e-3, 3.0, 0.0163, 1e3)
    assert_bitwise_equal(new, ref)
    closest = (ref[1][:, 0] + a * np.cos(ref[1][:, 2])).min()
    assert closest < 1e-6 if gap > 0.0 else closest < 0.0
    assert len(contact_events(ref, a)) == (gap < 0.0)


@pytest.mark.parametrize("theta, omega, v_y", [
    (1.0, 0.0, 0.0),
    (1.0, -0.0, 0.0),
    (1.0, 0.0, -0.0),
    (0.3, -1.0, 0.0),  # theta crosses 0 in free flight: the zero torque term flips sign
    (-0.4, 1.0, 0.0),
])
def test_fast_forward_signed_zeros_match_numpy_scheme_bitwise(theta, omega, v_y):
    state = ds.ChaserState2D(z=-0.3 * math.cos(theta) + 0.005, v_z=-0.02, theta=theta,
                             omega=omega, y=0.01, v_y=v_y)
    new, ref = run_planar(SPIN_BODY, SPIN_CONTACT, state, 1e-3, 2.0, 0.0163, 1e3)
    assert_bitwise_equal(new, ref)
    assert contact_events(ref, SPIN_BODY.a)


@pytest.mark.parametrize("bound", [1.5, 1.2345])
def test_fast_forward_reports_divergence_identically(bound):
    # a free drift away from the wall crosses the bound inside a block
    state = ds.ChaserState2D(z=0.0, v_z=1.0, theta=1.0, omega=0.1)
    new, ref = run_planar(SPIN_BODY, SPIN_CONTACT, state, 1e-3, 2.0, 0.0163, bound)
    assert isinstance(ref, DivergenceError) and "divergence bound" in str(ref)
    assert_bitwise_equal(new, ref)


def test_fast_forward_keeps_a_negative_zero_in_the_loop():
    # (x, x', u, u'): a force-free system whose zero acceleration u'' takes
    # the sign of -x(t-h). The loop turns u' = -0.0 into +0.0 once x(t-h)
    # turns negative. A right-hand side of a direct caller has no model, so
    # integrate_dde steps it one row at a time
    def rhs(y, yd):
        return (y[1], 0.0, y[3], math.copysign(0.0, -yd[0]))

    y0 = np.array([1.0, -1.0, 0.5, -0.0])
    new = integrate_dde(rhs, y0, 1e-3, 2.0, 0.0163)
    ref = numpy_integrate_dde(rhs, y0, 1e-3, 2.0, 0.0163)
    assert math.copysign(1.0, ref[1][-1, 3]) == 1.0
    assert_bitwise_equal(new, ref)
