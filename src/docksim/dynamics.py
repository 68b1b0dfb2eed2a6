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

The right-hand sides (:func:`make_rhs_2d`, :func:`make_rhs_3d`) and the
contact channels :func:`simulate` records both evaluate the contact law
through the functions of :mod:`docksim.contact`, so the recorded force is
the applied force.
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
from .core import BodyParams, ChaserState2D, ChaserState3D, ContactParams, SimConfig

# rhs(y, y_delayed) -> y': two float sequences (lists from the integrator,
# numpy rows from callers) in, a tuple of floats out
Rhs = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]


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
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y'(t) = rhs(y(t), y(t-h)) on the fixed grid.

    Returns (times, states) with one row per grid point including t = 0.
    Pre-history is the constant initial state. Not decimated; callers slice.
    """
    y0 = np.asarray(initial, dtype=float)
    n = int(round(t_end / dt))
    if n < 1:
        raise ValueError("t_end must cover at least one step")
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
    y = Y[0].tolist()
    for i in range(n):
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
        row = Y[i + 1]
        row[:] = y
        if unit_slice is not None:
            block = row[unit_slice]
            block /= math.sqrt(float(block @ block))
            y = row.tolist()
        if not sum(map(abs, y)) <= limit:
            _check_divergence(y, float(times[i + 1]), divergence_bound)
    return times, Y


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
    else:
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")

    bound = divergence_factor * max(float(np.abs(y0).max()), 1.0)
    times, Y = integrate_dde(
        rhs, y0, config.dt, config.t_end, config.h,
        unit_slice=unit_slice, divergence_bound=bound,
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


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Deterministic CSV export, 9 significant digits, no metadata rows."""
    with open(path, "w", newline="") as fh:
        if traj.mode == "2d":
            fh.write(",".join(TRAJ_COLUMNS_2D) + "\n")
            cols = np.column_stack([
                traj.times, traj.states[:, 0:4], traj.d, traj.d_dot, traj.f, traj.tau,
            ])
        else:
            fh.write(",".join(TRAJ_COLUMNS_3D) + "\n")
            cols = np.column_stack([
                traj.times, traj.states, traj.d, traj.d_dot, traj.f, traj.tau,
            ])
        cols = cols + 0.0  # squash negative zeros for stable formatting
        for row in cols:
            fh.write(",".join(f"{x:.9g}" for x in row) + "\n")
