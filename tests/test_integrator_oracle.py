"""Bitwise oracle for both paths of ``integrate_dde``.

``numpy_integrate_dde`` below is the earlier numpy-array form of the same
delayed RK4 scheme, kept here only as a reference: every stage is a numpy
expression on the whole state vector, one step at a time, on any
right-hand side ``rhs(y, y_delayed)``. ``integrate_dde`` takes a
``PlanarModel`` or ``SpatialModel`` and performs the same floating-point
operations in the same order, on Python floats in its per-step loop (at
h = 0) and on arrays in its block path (at h > 0), so each must agree with
the reference bit for bit, and must diverge at the same step with the same
message. The tests of a caller's own delayed system (the linearized
dynamics) run on the reference alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim import dynamics
from docksim.contact import depth_2d
from docksim.dynamics import (
    SPECULATIVE_BLOCKS,
    DivergenceError,
    PlanarModel,
    SpatialModel,
    _stage_samples,
    extract_events,
    integrate_dde,
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


def run_both(model, y0, dt, t_end, h, factor):
    """Run both integrators; each result is (times, Y) or the
    DivergenceError. ``integrate_dde`` is handed the model, its ``rhs``
    swapped for a counting wrapper, and runs with ``DIVERGENCE_FACTOR`` set
    to ``factor`` (``math.inf`` for no bound short of overflow); the
    reference steps the model's own ``rhs``, renormalizes its
    ``unit_slice`` and is handed the bound derived from ``factor``. At
    h > 0 the block path must not call the right-hand side."""
    bound = factor * max(float(np.abs(y0).max()), 1.0)
    rhs = model.rhs
    calls = [0]

    def counted(y, yd):
        calls[0] += 1
        return rhs(y, yd)

    model.rhs = counted
    results = []
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "DIVERGENCE_FACTOR", factor)
            results.append(integrate_dde(model, y0, dt, t_end, h))
    except DivergenceError as exc:
        results.append(exc)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            results.append(numpy_integrate_dde(rhs, y0, dt, t_end, h, unit_slice=model.unit_slice,
                                               divergence_bound=bound))
    except DivergenceError as exc:
        results.append(exc)
    if h:
        assert calls[0] == 0, "the block path called the right-hand side"
    return results


def assert_bitwise_equal(new, ref):
    if isinstance(ref, DivergenceError):
        assert isinstance(new, DivergenceError), "reference diverged, integrate_dde did not"
        assert str(new) == str(ref)
        assert new.t == ref.t
        return
    assert not isinstance(new, DivergenceError), f"integrate_dde diverged alone: {new}"
    assert new[0].tobytes() == ref[0].tobytes()
    assert new[1].tobytes() == ref[1].tobytes()


# the delays of k x 0.1 ms, written as decimal literals, over dt = 1e-4
# that land just off the whole k: 112 of k = 1..399, such as
# 0.0003/1e-4 = 2.9999999999999996
NEAR_WHOLE_RATIOS = [r for r in (float(f"{k}e-4") / 1e-4 for k in range(1, 400)) if r != int(r)]


@st.composite
def block_lookups(draw):
    """A state history and one block of steps i..j-1 at a delay ratio:
    a whole N in 1..200 or a ratio that is not whole (near-whole ones
    included); the block starts before, at or after row int(ratio) and
    spans int(ratio) steps, SPECULATIVE_BLOCKS of them, or fewer (the last
    block of a run, or a span cut short). The rows hold random values,
    some of them +0.0 and -0.0."""
    kind = draw(st.sampled_from(["whole", "off-grid", "near-whole"]))
    if kind == "whole":
        ratio = float(draw(st.integers(1, 200)))
    elif kind == "off-grid":
        ratio = draw(st.floats(1.0, 200.0).filter(lambda r: r != int(r)))
    else:
        ratio = draw(st.sampled_from(NEAR_WHOLE_RATIOS))
    lag = int(ratio)
    i = draw(st.integers(0, lag - 1) | st.just(lag) | st.integers(lag + 1, 3 * lag))
    j = i + draw(st.sampled_from([lag, SPECULATIVE_BLOCKS * lag]) | st.integers(1, lag))
    width = draw(st.sampled_from([6, 12]))
    columns = draw(st.sampled_from([4, width]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # magnitudes from subnormal, where halving rounds, to 1e300
    Y = rng.standard_normal((j + 1, width)) * 10.0 ** rng.integers(-320, 300, (j + 1, width))
    zeros = rng.random(Y.shape) < 0.2
    Y[zeros] = np.where(rng.random(Y.shape) < 0.5, 0.0, -0.0)[zeros]
    return Y, i, j, ratio, columns


@settings(max_examples=300, deadline=None)
@given(case=block_lookups())
def test_block_lookup_matches_scalar_lerp_bitwise(case):
    # the block path's lookup of a block's stage samples, row slices at a
    # whole ratio from row N on and the general lerp elsewhere, gives the
    # reference's three samples of every step k - ratio, k + 0.5 - ratio
    # and k + 1.0 - ratio; the step's last sample is the next one's first
    Y, i, j, ratio, columns = case
    block = _stage_samples(Y, i, j, ratio, columns)
    assert block.shape == (2 * (j - i) + 1, columns)
    # in a speculative span the pushed rows up to j are the latest
    ref = [numpy_lerp_history(Y, j, q) for k in range(i, j) for q in (k - ratio, k + 0.5 - ratio)]
    ref.append(numpy_lerp_history(Y, j, j - 1 + 1.0 - ratio))
    assert block.tobytes() == np.array(ref)[:, :columns].tobytes()


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
def cases(draw):
    """A random 2D or 3D run near the wall, with its model first (the block
    path at h > 0, the per-step loop at h = 0)."""
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
        model, y0 = PlanarModel(body, contact), state.as_vector()
    else:
        s3 = state.embed_3d()
        tilt = draw(st.floats(-0.05, 0.05))
        d_c3 = np.array([tilt, s3.d_c3[1], s3.d_c3[2]])
        s3 = ds.ChaserState3D(r=s3.r, v=s3.v, d_c3=d_c3 / np.linalg.norm(d_c3),
                              omega=[draw(signed_zero | st.floats(-0.5, 0.5)) for _ in range(3)])
        model, y0 = SpatialModel(body, contact), s3.as_vector()
    steps = draw(st.integers(1, 300))
    factor = draw(st.just(math.inf) | st.floats(1.0, 50.0))
    return model, y0, dt, steps * dt, h, factor


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_block_path_matches_numpy_scheme_bitwise(case):
    # h = 0 runs the model in the per-step loop; h/dt from 1 to 40 runs
    # the block path, with blocks of every length from 1 to 40 steps
    assert_bitwise_equal(*run_both(*case))


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("factor, message", [(2.0, "divergence bound"), (math.inf, "non-finite")])
def test_divergence_is_reported_identically(mode, factor, message):
    # a bilateral contact far too stiff for the step: the state grows
    # without limit, past the bound (twice the initial maximum, 1.0) or,
    # without one, to overflow
    body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=1e9, b_v=0.0, alpha=0.5, activation="bilateral")
    state = ds.ChaserState2D(z=-0.2, v_z=-0.01, theta=1.0, omega=0.0)
    model = (PlanarModel if mode == "2d" else SpatialModel)(body, contact)
    new, ref = run_both(model, model.initial_vector(state), 1e-3, 2.0, 5e-3, factor)
    assert isinstance(ref, DivergenceError) and message in str(ref)
    assert_bitwise_equal(new, ref)


@pytest.mark.parametrize("mode", ["2d", "3d"])
# h = 0 (the per-step loop), h = dt and 2 dt (blocks of one and two steps,
# their stage samples row slices from row h/dt on) and off the dt grid
@pytest.mark.parametrize("h", [0.0, 1e-4, 2e-4, 0.0163])
def test_long_contact_run_matches_numpy_scheme_bitwise(mode, h):
    body = ds.BodyParams(m=60.0, J=np.diag([1.43, 1.43, 1.43]), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=3000.0, b_v=20.0, alpha=math.radians(30.0),
                               springs=((800.0, [0.0, 0.6, 0.8]),))
    state = ds.ChaserState2D(z=-0.14, v_z=-0.02, theta=math.radians(60.0), omega=0.0)
    # the 3D model renormalizes its attitude column: in the per-step loop at
    # h = 0, in the block path at h > 0
    model = (PlanarModel if mode == "2d" else SpatialModel)(body, contact)
    new, ref = run_both(model, model.initial_vector(state), 1e-4, 1.2, h, 1e3)
    assert_bitwise_equal(new, ref)
    # the probe reached the wall, which slowed it
    v_z = ref[1][:, 5 if mode == "3d" else 1]
    assert v_z[0] < v_z.max()


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
    return SpatialModel(body, contact), state.as_vector()


@pytest.mark.parametrize("h", [0.016, 0.0163])  # on and off the dt grid
@pytest.mark.parametrize("activation", ["unilateral", "bilateral"])
@pytest.mark.parametrize("mode, omega", [
    pytest.param("2d", 0.3, id="2d"),
    # theta held still through about 5 000 steps of unilateral free flight:
    # the per-run trig, accepted speculative spans and a span rejected at
    # contact onset all run
    pytest.param("2d", 0.0, id="2d-still"),
    pytest.param("2d", -0.0, id="2d-still-negative-zero"),
    pytest.param("3d", None, id="3d"),
    # the same approach in 3D, the attitude held still: accepted spans and
    # a span rejected at contact onset run through the attitude loop, which
    # stops each accepted span at a bitwise fixed point
    pytest.param("3d", 0.0, id="3d-still"),
    # omega = (-0.0, 0.0, -0.0) and a d_c3 whose x component is -0.0:
    # zeros that equal their flipped signs as floats but not as bits
    pytest.param("3d", -0.0, id="3d-still-negative-zero"),
])
def test_long_block_run_matches_numpy_scheme_bitwise(mode, omega, activation, h):
    if omega is None:
        model, y0 = spinning_3d_run(activation)
    else:
        body = ds.BodyParams(m=60.0, J=np.diag([1.43, 1.43, 1.43]), a_B=[0.0, 0.0, 0.3])
        contact = ds.ContactParams(k_v=3000.0, b_v=20.0, alpha=math.radians(30.0),
                                   springs=((800.0, [0.0, 0.6, 0.8]),), activation=activation)
        state = ds.ChaserState2D(z=-0.14, v_z=-0.02, theta=math.radians(60.0), omega=omega, v_y=0.01)
        model = (PlanarModel if mode == "2d" else SpatialModel)(body, contact)
        y0 = model.initial_vector(state)
        if mode == "3d" and math.copysign(1.0, omega) < 0.0:
            y0[[6, 9, 11]] = -0.0
    new, ref = run_both(model, y0, 1e-4, 1.2, h, 1e3)
    assert_bitwise_equal(new, ref)
    v_z = ref[1][:, 5 if mode == "3d" else 1]
    if omega == 0.0 and activation == "unilateral":
        # the attitude held still until the probe reached the wall, which
        # slowed it
        attitude = ref[1][:, 6:9] if mode == "3d" else ref[1][:, 2:3]
        assert (attitude[:5000] == attitude[0]).all() and v_z[0] < v_z.max()
    else:
        # the probe reached the wall and was pushed back out
        assert v_z[0] < 0.0 < v_z.max()


@pytest.mark.parametrize("mode", ["2d", "3d"])
@pytest.mark.parametrize("factor, message", [(2.0, "divergence bound"), (math.inf, "non-finite")])
def test_divergence_inside_a_block_is_reported_identically(mode, factor, message):
    # as test_divergence_is_reported_identically, with h/dt = 17: the state
    # leaves the bound, or overflows, in the middle of a block
    body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0.0, 0.0, 0.3])
    contact = ds.ContactParams(k_v=1e9, b_v=0.0, alpha=0.5, activation="bilateral")
    state = ds.ChaserState2D(z=-0.2, v_z=-0.01, theta=1.0, omega=0.0)
    model = (PlanarModel if mode == "2d" else SpatialModel)(body, contact)
    new, ref = run_both(model, model.initial_vector(state), 1e-3, 2.0, 0.017, factor)
    assert isinstance(ref, DivergenceError) and message in str(ref)
    assert_bitwise_equal(new, ref)
    steps = round(ref.t / 1e-3)
    assert steps % 17 != 0  # not at the end of a block of 17 steps


# --- cases first written for the free-flight fast-forward ---
#
# The block path replaced that fast-forward: a zero delayed force is just a
# value there, so free flight and contact go through the same arrays. The
# cases keep their names and now run the block path of 2D unilateral
# contact against the per-step reference.

SPIN_BODY = ds.BodyParams(m=20.0, J=np.diag([0.2, 0.2, 0.2]), a_B=[0.0, 0.0, 0.3])
SPIN_CONTACT = ds.ContactParams(k_v=3000.0, b_v=2.0, alpha=0.5)


def run_planar(body, contact, state, dt, t_end, h, factor):
    """run_both for a 2D run given the planar model."""
    return run_both(PlanarModel(body, contact), state.as_vector(), dt, t_end, h, factor)


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
    factor = draw(st.just(math.inf) | st.floats(1.0, 50.0))
    return body, contact, state, dt, steps * dt, h, factor


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


@pytest.mark.parametrize("mode, factor", [
    pytest.param("2d", 1.5, id="1.5"),
    pytest.param("2d", 1.2345, id="1.2345"),
    pytest.param("3d", 1.5, id="3d-1.5"),
    pytest.param("3d", 1.2345, id="3d-1.2345"),
])
def test_fast_forward_reports_divergence_identically(mode, factor):
    # a free drift away from the wall crosses the bound (factor times the
    # initial maximum, 1.0) inside a committed speculative span: the
    # delayed force is zero and the torque steady from the first block of
    # 16 steps on, so spans of SPECULATIVE_BLOCKS blocks start at step 16
    # and commit whole
    state = ds.ChaserState2D(z=0.0, v_z=1.0, theta=1.0, omega=0.1)
    model = (PlanarModel if mode == "2d" else SpatialModel)(SPIN_BODY, SPIN_CONTACT)
    new, ref = run_both(model, model.initial_vector(state), 1e-3, 2.0, 0.0163, factor)
    assert isinstance(ref, DivergenceError) and "divergence bound" in str(ref)
    assert_bitwise_equal(new, ref)
    steps = round(ref.t / 1e-3)
    # past the first block of 16 steps a span started at
    assert steps > 16 and (steps - 16) % (SPECULATIVE_BLOCKS * 16) > 16

