"""Fixed-step integration of the delayed nonlinear contact dynamics.

The equations of motion form a functional ODE: the contact force at time t
is computed from the state sampled at t - h. :func:`integrate_dde` is the
one integration scheme: classical explicit RK4 on a fixed grid, with the
delayed arguments at the stage times resolved by linear interpolation of the
stored state history (:func:`_lerp_history`), which keeps runs reproducible
bit-for-bit for a given (dt, h). Before t = 0 the history is the constant
initial state (runs start out of contact, where the right-hand side is
force-free, so the constant pre-history is exact).

h = 0 is special-cased: the delayed argument is the current stage state and
the scheme is plain RK4 for the undelayed ODE. A delay in (0, dt) is
rejected by validation since the explicit scheme can only look up completed
steps.

The loop runs on Python floats, not numpy arrays: with 6 or 12 components
per state, per-call array overhead would cost more than the arithmetic. The
state and the RK4 stages are lists, the right-hand side takes two float
sequences and returns a tuple of floats, and each accepted step is written
into the preallocated trajectory array, from which the delayed rows are
read back as lists. The 3D attitude column is renormalized on its numpy row
(``block / sqrt(block @ block)``), whose dot product rounds differently
from a plain sum of squares. Every operation is the elementwise one the
numpy-array form of the scheme performed, in the same order, so results
are identical to it bit for bit.

A docking run is mostly free flight around one brief contact, and there
the loop need not step. For a 2D unilateral run :func:`simulate` passes
:func:`free_gap_2d`, and :func:`integrate_dde` fast-forwards each stretch
where the delayed force is provably off at every stage. In such a stretch
the four stage derivatives are equal (the rates do not change and the
accelerations are zero), so every step adds the same increment
``sixth*(((k1 + 2k2) + 2k3) + k4)``. An in-place ``np.cumsum`` writes those
rows; numpy's accumulate is a sequential scan, so it adds exactly as the
loop does and the rows are the same bit for bit. The vectorized gap
(``np.cos``, less a margin for the curvature of the interpolation and for
rounding) only proposes where a stretch ends: the loop resumes
``int(h/dt) - 2`` steps after the first extrapolated row below the margin,
before the delayed gate can close, and its own ``math`` calls decide the
gate. Bilateral contact, 3D runs (whose attitude column is renormalized
every step) and h = 0 keep the exact loop. On ``table1`` the right-hand
side now runs for 19% of the 4 n stage evaluations, and ``integrate_dde``
takes 4.2 µs/step against 17.7 before; on ``fig7`` 7.4 against 17.5 (best
of 5 on a 2-vCPU VM, Python 3.11.7, numpy 2.4.6).

The right-hand sides (:func:`make_rhs_2d`, :func:`make_rhs_3d`) and the
contact channels :func:`simulate` records both evaluate the contact law
through the functions of :mod:`docksim.contact`, so the recorded force is
the applied force.

The trajectory CSV layout (``_TRAJ_LAYOUT``) is defined once, for the writer
:func:`write_trajectory_csv` and the reader :func:`read_trajectory_csv`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .contact import (
    contact_force,
    contact_stiffness,
    depth_2d,
    depth_3d,
    depth_rate_2d,
    depth_rate_3d,
    torque_2d,
    torque_3d,
)
from .core import (
    BodyParams,
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    SimConfig,
    step_count,
    write_csv,
)

# rhs(y, y_delayed) -> y': two float sequences (lists from the integrator,
# numpy rows from callers) in, a tuple of floats out
Rhs = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]
# free_gap(rows) -> one value per row of a block of consecutive grid rows.
# Wherever every row a delayed sample is interpolated from has a value
# >= 0, whatever the rounding of the interpolation, the right-hand side is
# force-free: its derivative holds the state's rates, which it leaves
# unchanged, and zero accelerations, so it has the same values at every
# state of a free-flight line
FreeGap = Callable[[np.ndarray], np.ndarray]
# relative rounding slack of free_gap_2d, about 4500 machine epsilons
GAP_RTOL = 1e-12


class DivergenceError(RuntimeError):
    """Integration aborted: state non-finite or beyond the divergence bound."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


def integrate_dde(
    rhs: Rhs,
    initial: np.ndarray,
    dt: float,
    t_end: float,
    h: float,
    unit_slice: slice | None = None,
    divergence_bound: float | None = None,
    free_gap: FreeGap | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y'(t) = rhs(y(t), y(t-h)) on the fixed grid.

    Returns (times, states) with one row per grid point including t = 0.
    Pre-history is the constant initial state. Not decimated; callers slice.
    t_end must be a whole number of steps (:func:`docksim.core.step_count`).

    ``free_gap`` (see :data:`FreeGap`) lets the loop fast-forward stretches
    where it proves the delayed force is off; the rows are the same bit for
    bit. It is used only for h > 0 without ``unit_slice``.
    """
    y0 = np.asarray(initial, dtype=float)
    n = step_count(t_end, dt)
    dim = y0.size
    Y = np.empty((n + 1, dim))
    Y[0] = y0
    times = np.arange(n + 1) * dt
    ratio = h / dt
    half = 0.5 * dt
    sixth = dt / 6.0
    # sum(|y|) bounds every |y_j|, and a NaN or inf component makes the
    # comparison with the finite limit fail, so one pass screens each step;
    # _check_divergence then decides exactly
    limit = sys.float_info.max if divergence_bound is None else min(divergence_bound, sys.float_info.max)
    # first latest row at which a fast-forward is tried (never: n)
    next_try = 1 if free_gap is not None and h > 0.0 and unit_slice is None else n
    y = Y[0].tolist()
    i = 0
    while i < n:
        if h == 0.0:
            k1 = rhs(y, y)
            y2 = [a + half * b for a, b in zip(y, k1)]
            k2 = rhs(y2, y2)
            y3 = [a + half * b for a, b in zip(y, k2)]
            k3 = rhs(y3, y3)
            y4 = [a + dt * b for a, b in zip(y, k3)]
            k4 = rhs(y4, y4)
        else:
            d0 = _lerp_history(Y, i, i - ratio)
            dh = _lerp_history(Y, i, i + 0.5 - ratio)
            d1 = _lerp_history(Y, i, i + 1.0 - ratio)
            k1 = rhs(y, d0)
            k2 = rhs([a + half * b for a, b in zip(y, k1)], dh)
            k3 = rhs([a + half * b for a, b in zip(y, k2)], dh)
            k4 = rhs([a + dt * b for a, b in zip(y, k3)], d1)
        y = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        i += 1
        row = Y[i]
        row[:] = y
        if unit_slice is not None:
            block = row[unit_slice]
            block /= math.sqrt(float(block @ block))
            y = row.tolist()
        if not sum(map(abs, y)) <= limit:
            _check_divergence(y, float(times[i]), divergence_bound)
        # equal stage derivatives: most likely free flight, worth a try
        if i >= next_try and i < n and k1 == k2 == k3 == k4:
            i, next_try = _fast_forward(Y, i, (k1, k2, k3, k4), sixth, ratio, free_gap,
                                        divergence_bound)
            y = Y[i].tolist()
    return times, Y


def _fast_forward(Y, p, ks, sixth, ratio, free_gap, divergence_bound) -> tuple[int, int]:
    """Fill rows p+1..K of Y with the increment of the step that produced
    row p, and return (K, the first latest row worth the next try); K = p
    when no stretch can be proven.

    What is proven here, in order of cost:

    - row p holds no -0.0. Then no later row does either (x + z is -0.0
      only for x = z = -0.0), so adding an increment whose zero components
      differ in sign from the loop's leaves every row the same;
    - every row the steps from p - 1 on read has ``free_gap >= 0``: the
      delayed force is off at every stage, so each step adds the same
      increment values as the last one (the rates do not change, the
      accelerations are zero);
    - no skipped row trips the divergence guard; the loop resumes before
      the first row that does, and raises there as it would have.

    The rows come from an in-place ``np.cumsum``, a sequential scan that
    adds the increment to the previous row exactly as the loop does.
    """
    n = Y.shape[0] - 1
    if any(x == 0.0 and math.copysign(1.0, x) < 0.0 for x in Y[p].tolist()):
        return p, p + 1
    r = int(ratio)
    # a step k reads rows k - r - 1 .. k + 1 - r; the history window covers
    # what the last step (k = p - 1) read, with one row to spare
    lo = max(0, p - r - 3)
    bad = np.flatnonzero(~(free_gap(Y[lo:p + 1]) >= 0.0))
    if len(bad):
        return p, lo + int(bad[-1]) + r + 4
    seg = Y[p:]
    seg[1:] = [sixth * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(*ks)]
    np.cumsum(seg, axis=0, out=seg)
    # J: first extrapolated row below the gap margin; the steps up to
    # J + r - 3 read rows below J only (one step to spare), so the loop
    # resumes with step K = J + r - 2
    bad = np.flatnonzero(~(free_gap(Y[lo:]) >= 0.0))
    J = lo + int(bad[0]) if len(bad) else n + 1
    K = min(n, J + r - 2)
    if K <= p:
        return p, max(J, p + 1)
    tripped = ~np.isfinite(seg[1:K - p + 1]).all(axis=1)
    if divergence_bound is not None:
        tripped |= np.abs(seg[1:K - p + 1]).max(axis=1) > divergence_bound
    hit = np.flatnonzero(tripped)
    if len(hit):
        K = p + int(hit[0])
    return K, max(J, K + 1)


def _check_divergence(y: list, t: float, divergence_bound: float | None) -> None:
    """Raise DivergenceError if y is non-finite or beyond the bound;
    return if neither (the screen in integrate_dde is conservative)."""
    if not all(map(math.isfinite, y)):
        raise DivergenceError(f"non-finite state at t = {t:.9g} s", t)
    if divergence_bound is not None and max(map(abs, y)) > divergence_bound:
        raise DivergenceError(
            f"state magnitude exceeded divergence bound {divergence_bound:.3g} "
            f"at t = {t:.9g} s (instability)",
            t,
        )


def _lerp_history(Y: np.ndarray, latest: int, q: float) -> list:
    """Row of Y at fractional index q (q <= latest), as a list of floats;
    constant before row 0."""
    if q <= 0.0:
        return Y[0].tolist()
    i0 = int(q)
    if i0 >= latest:
        return Y[latest].tolist()
    w = q - i0
    if w == 0.0:
        return Y[i0].tolist()
    v = 1.0 - w
    a, b = Y[i0:i0 + 2].tolist()
    return [v * x0 + w * x1 for x0, x1 in zip(a, b)]


# --- right-hand sides ---


def make_rhs_2d(params: BodyParams, contact: ContactParams) -> Rhs:
    """Planar RHS closure over state vectors (z, v_z, theta, omega, y, v_y).

    z' = v_z, v_z' = f/m, theta' = omega, omega' = tau/J_x, y' = v_y,
    v_y' = 0, with f and tau computed from the delayed sample. The spring
    set's effective stiffness is re-evaluated from the delayed attitude
    (wall normal in body frame = (0, sin theta, cos theta) at t - h).
    """
    a = params.a
    m = params.m
    J_x = params.J_x
    k_v = contact.k_v
    b_v = contact.b_v
    bilateral = contact.activation == "bilateral"
    springs = [(k, tuple(map(float, l))) for k, l in contact.springs]

    def rhs(y, yd):
        th = yd[2]
        s = math.sin(th)
        c = math.cos(th)
        d = depth_2d(yd, a, c)
        if bilateral or d < 0.0:
            k = contact_stiffness(k_v, springs, 0.0, s, c)
            f = contact_force(k, b_v, d, depth_rate_2d(yd, a, s))
        else:
            f = 0.0
        return (y[1], f / m, y[3], torque_2d(f, a, s) / J_x, y[5], 0.0)

    return rhs


def free_gap_2d(params: BodyParams) -> FreeGap:
    """Planar contact gap for the fast-forward of :func:`integrate_dde`
    under unilateral contact: the depth d = z + a cos(theta) of each row
    (vectorized, with np.cos) less a margin. The margin covers a delayed
    sample between two rows, whose depth the right-hand side computes with
    math.cos on the interpolated row: a (delta theta)^2 / 8 bounds the
    curvature of cos over the largest attitude step in the block, and
    GAP_RTOL (|z| + a (1 + |theta|)) the rounding of both evaluations."""
    a = params.a

    def gap(rows):
        x = rows.T
        th = x[2]
        step = float(np.abs(np.diff(th)).max(initial=0.0))
        margin = 0.125 * a * step * step + GAP_RTOL * (np.abs(x[0]) + a * (1.0 + np.abs(th)))
        return depth_2d(x, a, np.cos(th)) - margin

    return gap


def make_rhs_3d(params: BodyParams, contact: ContactParams) -> Rhs:
    """12-state RHS closure: r' = v, v' = (f/m) n_hat, d_c3' = -omega x d_c3,
    omega' = J^-1((J omega) x omega + tau_B), force and torque from the
    delayed sample."""
    m = params.m
    (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = params.J.tolist()
    (I00, I01, I02), (I10, I11, I12), (I20, I21, I22) = np.linalg.inv(params.J).tolist()
    a_B = tuple(float(x) for x in params.a_B)
    n_hat = n0, n1, n2 = tuple(float(x) for x in contact.n_hat)
    k_v = contact.k_v
    b_v = contact.b_v
    bilateral = contact.activation == "bilateral"
    springs = [(k, tuple(map(float, l))) for k, l in contact.springs]

    def rhs(y, yd):
        c0, c1, c2 = yd[6], yd[7], yd[8]
        d = depth_3d(yd, n_hat, a_B)
        if bilateral or d < 0.0:
            k = contact_stiffness(k_v, springs, c0, c1, c2)
            f = contact_force(k, b_v, d, depth_rate_3d(yd, n_hat, a_B))
        else:
            f = 0.0
        t0, t1, t2 = torque_3d(f, a_B, c0, c1, c2)
        # gyroscopic term (J omega) x omega on the current state
        w0, w1, w2 = y[9], y[10], y[11]
        Jw0 = J00 * w0 + J01 * w1 + J02 * w2
        Jw1 = J10 * w0 + J11 * w1 + J12 * w2
        Jw2 = J20 * w0 + J21 * w1 + J22 * w2
        g0 = Jw1 * w2 - Jw2 * w1 + t0
        g1 = Jw2 * w0 - Jw0 * w2 + t1
        g2 = Jw0 * w1 - Jw1 * w0 + t2
        fm = f / m
        # attitude kinematics -omega x d_c3 = d_c3 x omega (current state)
        return (
            y[3], y[4], y[5],
            fm * n0, fm * n1, fm * n2,
            y[7] * w2 - y[8] * w1,
            y[8] * w0 - y[6] * w2,
            y[6] * w1 - y[7] * w0,
            I00 * g0 + I01 * g1 + I02 * g2,
            I10 * g0 + I11 * g1 + I12 * g2,
            I20 * g0 + I21 * g1 + I22 * g2,
        )

    return rhs


# --- trajectory recording and contact events ---


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: uniformly decimated grid samples plus contact channels.

    ``states`` rows are (z, v_z, theta, omega, y, v_y) in 2D mode or
    (r, v, d_c3, omega) flattened in 3D mode. ``d``/``d_dot`` are the
    penetration depth and rate of the *undelayed* state (the commanded
    geometry); ``f`` is the applied force intensity, which the delay makes
    lag the geometry; ``tau`` is the scalar x-torque in 2D or the body
    torque vector in 3D. ``in_contact`` flags undelayed d < 0.
    """

    mode: str
    times: np.ndarray
    states: np.ndarray
    d: np.ndarray
    d_dot: np.ndarray
    f: np.ndarray
    tau: np.ndarray
    in_contact: np.ndarray


@dataclass(frozen=True)
class ContactEvent:
    """One contact episode segmented by sign changes of the undelayed d.

    v_minus / v_plus are the penetration rates just before entry and just
    after exit (window-averaged; see extract_events). max_depth is the
    largest |d| reached while inside.
    """

    t_in: float
    t_out: float
    v_minus: float
    v_plus: float
    max_depth: float


def extract_events(
    times: np.ndarray,
    d: np.ndarray,
    d_dot: np.ndarray,
    window: float = 0.02,
) -> list[ContactEvent]:
    """Segment contacts by sign changes of d and measure entry/exit rates.

    Entry/exit instants come from linear interpolation of the d sign change
    (no higher-order event localization). With window > 0 the rates are the
    mean of d_dot over that span just before entry / after exit, clipped to
    samples outside contact and to the neighbouring events; window = 0 takes
    the single bracketing sample. Events still open at the end of the run
    are dropped.
    """
    d = np.asarray(d)
    d_dot = np.asarray(d_dot)
    times = np.asarray(times)
    if len(times) < 2:
        return []
    dt = float(times[1] - times[0])
    inside = d < 0.0
    starts = np.flatnonzero(inside[1:] & ~inside[:-1]) + 1
    events: list[ContactEvent] = []
    n_w = max(1, int(round(window / dt))) if window > 0.0 else 1
    prev_exit = 0
    for i_in in starts:
        after = np.flatnonzero(~inside[i_in:])
        if len(after) == 0:
            break  # run ended while still in contact
        i_out = i_in + int(after[0])
        # crossing times by linear interpolation of d
        t_in = times[i_in - 1] + dt * d[i_in - 1] / (d[i_in - 1] - d[i_in])
        t_out = times[i_out - 1] + dt * d[i_out - 1] / (d[i_out - 1] - d[i_out])
        lo = max(prev_exit, i_in - n_w)
        v_minus = float(d_dot[lo:i_in].mean())
        hi = min(len(d), i_out + n_w)
        reenter = np.flatnonzero(inside[i_out:hi])
        if len(reenter):
            hi = i_out + int(reenter[0])
        v_plus = float(d_dot[i_out:hi].mean())
        events.append(
            ContactEvent(
                t_in=float(t_in),
                t_out=float(t_out),
                v_minus=v_minus,
                v_plus=v_plus,
                max_depth=float(-d[i_in:i_out].min()),
            )
        )
        prev_exit = i_out
    return events


def _delayed_rows(Y: np.ndarray, h: float, dt: float) -> np.ndarray:
    """All rows of Y sampled at their own time minus h (vectorized lerp)."""
    if h == 0.0:
        return Y
    n = Y.shape[0] - 1
    q = np.arange(n + 1) - h / dt
    q = np.clip(q, 0.0, n)
    i0 = np.floor(q).astype(int)
    i1 = np.minimum(i0 + 1, n)
    w = (q - i0)[:, None]
    return (1.0 - w) * Y[i0] + w * Y[i1]


def simulate(
    config: SimConfig,
    params: BodyParams,
    contact: ContactParams,
    mode: str = "2d",
    event_window: float = 0.02,
    divergence_factor: float = 1e3,
) -> tuple[Trajectory, list[ContactEvent]]:
    """Run the delayed nonlinear model and return the recorded trajectory
    plus the detected contact events.

    The divergence guard aborts (DivergenceError) when the state magnitude
    exceeds divergence_factor times the initial magnitude, signaling
    instability. Contact events are segmented on the full integration grid
    regardless of the recording decimation.
    """
    if contact.activation not in ("unilateral", "bilateral"):
        raise ValueError(
            f"activation must be 'unilateral' or 'bilateral', got {contact.activation!r}")
    initial = config.initial
    free_gap = None
    if mode == "3d":
        if isinstance(initial, ChaserState2D):
            initial = initial.embed_3d()
        rhs = make_rhs_3d(params, contact)
        y0 = initial.as_vector()
        unit_slice = slice(6, 9)
    elif mode == "2d":
        if isinstance(initial, ChaserState3D):
            initial = _project_planar(initial)
        rhs = make_rhs_2d(params, contact)
        y0 = initial.as_vector()
        unit_slice = None
        if contact.activation == "unilateral":
            free_gap = free_gap_2d(params)
    else:
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")

    bound = divergence_factor * max(float(np.abs(y0).max()), 1.0)
    times, Y = integrate_dde(
        rhs, y0, config.dt, config.t_end, config.h,
        unit_slice=unit_slice, divergence_bound=bound, free_gap=free_gap,
    )

    # Contact channels on the whole grid, by the same contact functions and
    # evaluation order as the right-hand side: d and d_dot of the undelayed
    # state, f and tau of the delayed sample that the integrator applied.
    x, xd = Y.T, _delayed_rows(Y, config.h, config.dt).T
    if mode == "2d":
        a = params.a
        d = depth_2d(x, a, np.cos(x[2]))
        d_dot = depth_rate_2d(x, a, np.sin(x[2]))
        s, c = np.sin(xd[2]), np.cos(xd[2])
        d_del, dd_del = depth_2d(xd, a, c), depth_rate_2d(xd, a, s)
        normal = (0.0, s, c)
    else:
        n_hat, a_B = contact.n_hat, params.a_B
        d, d_dot = depth_3d(x, n_hat, a_B), depth_rate_3d(x, n_hat, a_B)
        d_del, dd_del = depth_3d(xd, n_hat, a_B), depth_rate_3d(xd, n_hat, a_B)
        normal = (xd[6], xd[7], xd[8])
    k = contact_stiffness(contact.k_v, contact.springs, *normal)
    f = contact_force(k, contact.b_v, d_del, dd_del)
    if contact.activation == "unilateral":
        f = np.where(d_del < 0.0, f, 0.0)
    tau = torque_2d(f, a, s) if mode == "2d" else np.column_stack(torque_3d(f, a_B, *normal))

    events = extract_events(times, d, d_dot, window=event_window)
    rec = slice(None, None, config.record_every)
    traj = Trajectory(
        mode=mode,
        times=times[rec],
        states=Y[rec],
        d=d[rec],
        d_dot=d_dot[rec],
        f=f[rec],
        tau=tau[rec],
        in_contact=(d < 0.0)[rec],
    )
    return traj, events


def _project_planar(state: ChaserState3D) -> ChaserState2D:
    v = state.as_vector()
    planar = [v[0], v[3], v[6], v[10], v[11]]
    if max(abs(x) for x in planar) > 1e-12:
        raise ValueError("initial 3D state is not planar; cannot run in 2D mode")
    return ChaserState2D(
        z=float(state.r[2]),
        v_z=float(state.v[2]),
        theta=math.atan2(float(state.d_c3[1]), float(state.d_c3[2])),
        omega=float(state.omega[0]),
        y=float(state.r[1]),
        v_y=float(state.v[1]),
    )


TRAJ_COLUMNS_2D = ["t", "z", "v_z", "theta", "omega", "d", "d_dot", "f", "tau"]
TRAJ_COLUMNS_3D = [
    "t", "r_x", "r_y", "r_z", "v_x", "v_y", "v_z",
    "d_c3_x", "d_c3_y", "d_c3_z", "omega_x", "omega_y", "omega_z",
    "d", "d_dot", "f", "tau_x", "tau_y", "tau_z",
]
# mode -> (header, state columns after t); 2D leaves out (y, v_y)
_TRAJ_LAYOUT = {"2d": (TRAJ_COLUMNS_2D, 4), "3d": (TRAJ_COLUMNS_3D, 12)}


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Deterministic CSV export, 9 significant digits, no metadata rows."""
    header, n = _TRAJ_LAYOUT[traj.mode]
    write_csv(path, header, [traj.times, traj.states[:, :n], traj.d, traj.d_dot, traj.f, traj.tau])


def read_trajectory_csv(path) -> Trajectory:
    """Read a file written by :func:`write_trajectory_csv`; the header
    decides the mode. A 2D file has no (y, v_y) columns, so they read as
    zero, and ``in_contact`` is recomputed as d < 0, as :func:`simulate`
    records it. Raises ValueError on any other header."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for mode, (columns, n) in _TRAJ_LAYOUT.items():
            if header == columns:
                break
        else:
            raise ValueError(f"{path}: unrecognized trajectory header")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    states = data[:, 1:n + 1]
    if mode == "2d":
        states = np.column_stack([states, np.zeros((len(data), 2))])
    d = data[:, n + 1]
    return Trajectory(
        mode=mode, times=data[:, 0], states=states,
        d=d, d_dot=data[:, n + 2], f=data[:, n + 3],
        tau=data[:, n + 4] if mode == "2d" else data[:, n + 4:],
        in_contact=d < 0.0,
    )
