"""Fixed-step integration of the delayed nonlinear contact dynamics.

The equations of motion form a functional ODE: the contact force at time t
is computed from the state sampled at t - h. :func:`integrate_dde` is the
one integration scheme: classical explicit RK4 on a fixed grid, with the
delayed arguments at the stage times resolved by linear interpolation of the
stored state history, which keeps runs reproducible bit-for-bit for a given
(dt, h). Before t = 0 the history is the constant initial state (runs start
out of contact, where the right-hand side is force-free, so the constant
pre-history is exact).

h = 0 is special-cased: the delayed argument is the current stage state and
the scheme is plain RK4 for the undelayed ODE. A delay in (0, dt) is
rejected by validation since the explicit scheme can only look up completed
steps.

Two paths run the scheme. The per-step loop calls a right-hand side
``rhs(y, y_delayed)`` (:func:`make_rhs_2d`, :func:`make_rhs_3d` or a
caller's own) on Python floats, and reads the delayed rows with
:func:`_lerp_history`. It serves h = 0, callers without a model, and delays
shorter than ``MIN_BLOCK_RATIO`` steps, where a block is too short to pay
for its numpy calls (the measured crossover is at about 8 to 9 steps in 2D
and in 3D).

The block path serves :func:`simulate`, which passes the block form of its
right-hand side (:class:`PlanarModel`, :class:`SpatialModel`). The force
applied over the next h was sensed h ago, so when the run reaches row i the
delayed samples of steps i .. i + int(h/dt) - 2 lie in rows that are
already final. For such a block, one vectorized lerp (:func:`_lerp_rows`)
gives the three stage samples of every step, one call of the model's
``wrench`` gives their force and torque, and each (position, rate) pair
whose rate derivative is that delayed acceleration -- (z, v_z),
(theta, omega) and (y, v_y) in 2D, (r_j, v_j) in 3D -- advances with the
RK4 increments on arrays and an in-place ``np.cumsum``. So a 2D block runs
no Python loop per step; in 3D the attitude column and omega, whose rates
depend on the current state, step in a loop over 6 floats driven by the
block's torques. A zero force is just a value here, so free flight and
contact take the same path. Each finished block is checked for divergence,
which raises at its first offending row with the per-step message and t.

Both paths give the rows of the earlier numpy-array form of the scheme bit
for bit, because each float operation is the elementwise one of that form,
in the same order: numpy's + - * / on float64 round as Python floats do, the
2D sin and cos come from ``math`` on both paths, numpy's accumulate is a
sequential scan (cumsum adds the increments row after row, as the loop
does, not pairwise), and the 3D attitude column is renormalized with
numpy's dot product, which rounds differently from a plain sum of squares.

``integrate_dde`` on the bundled scenarios, best of 5 on a 2-vCPU VM
(Python 3.11.7, numpy 2.4.6), per-step loop against block path: ``table1``
(2D) 13.4 against 1.2 µs/step, ``fig7`` (2D) 12.2 against 1.0, ``demo3d``
(3D) 34.1 against 9.0.

The contact channels :func:`simulate` records are the model's ``wrench`` on
the delayed rows of the same block lerp (:func:`_delayed_rows`), so the
recorded force is the applied force; the right-hand sides and the models
evaluate the contact law through the functions of :mod:`docksim.contact`.

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
    ValidationError,
    activation_problem,
    step_count,
    write_csv,
)

# rhs(y, y_delayed) -> y': two float sequences (lists from the integrator,
# numpy rows from callers) in, a tuple of floats out
Rhs = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]
# h/dt below which integrate_dde steps one row at a time even when given a
# model: a block of int(h/dt) - 1 steps then pays more for its numpy calls
# than it saves (measured crossover, see the module docstring)
MIN_BLOCK_RATIO = 9


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
    model: PlanarModel | SpatialModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y'(t) = rhs(y(t), y(t-h)) on the fixed grid.

    Returns (times, states) with one row per grid point including t = 0.
    Pre-history is the constant initial state. Not decimated; callers slice.
    t_end must be a whole number of steps (:func:`docksim.core.step_count`).

    ``model`` is the block form of ``rhs`` (:class:`PlanarModel`,
    :class:`SpatialModel`, built from the same parameters). Given one and
    h/dt >= MIN_BLOCK_RATIO, the run advances in blocks of int(h/dt) - 1
    steps and never calls ``rhs``; the rows are the same bit for bit.
    """
    y0 = np.asarray(initial, dtype=float)
    n = step_count(t_end, dt)
    dim = y0.size
    Y = np.empty((n + 1, dim))
    Y[0] = y0
    times = np.arange(n + 1) * dt
    ratio = h / dt
    # sum(|y|) bounds every |y_j|, and a NaN or inf component makes the
    # comparison with the finite limit fail, so one pass screens each step;
    # _check_divergence then decides exactly
    limit = sys.float_info.max if divergence_bound is None else min(divergence_bound, sys.float_info.max)
    if model is not None and h > 0.0 and ratio >= MIN_BLOCK_RATIO:
        _integrate_blocks(model, Y, times, dt, ratio, limit, divergence_bound)
        return times, Y
    half = 0.5 * dt
    sixth = dt / 6.0
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


def _integrate_blocks(model, Y, times, dt, ratio, limit, divergence_bound) -> None:
    """Fill Y block by block. Steps i..j-1 with j - i <= int(h/dt) - 1 read
    delayed samples at fractional rows <= i - 1, so rows <= i, which are
    final: one lerp and one call of the model give every stage sample of
    the block. Each finished block is checked for divergence, which raises
    at its first offending row."""
    n = len(Y) - 1
    span = int(ratio) - 1
    history = Y[:, :model.columns]
    with np.errstate(all="ignore"):
        for i in range(0, n, span):
            j = min(n, i + span)
            # stage samples of step k at rows k - ratio, k + 1/2 - ratio and
            # k + 1 - ratio (the first of step k + 1), interleaved
            k = np.arange(i, j + 1, dtype=float)
            q = np.empty(2 * (j - i) + 1)
            q[0::2] = k - ratio
            q[1::2] = k[:-1] + 0.5 - ratio
            seg = Y[i:j + 1]
            model.advance(seg, _lerp_rows(history, q).T, dt)
            bad = np.flatnonzero(~(np.abs(seg[1:]).max(axis=1) <= limit))
            if len(bad):
                row = i + 1 + int(bad[0])
                _check_divergence(Y[row].tolist(), float(times[row]), divergence_bound)


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


def _lerp_rows(Y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows of Y at the fractional indices q, with the float operations of
    :func:`_lerp_history` for each: row 0 for q <= 0, the exact row when
    q is whole, else (1 - w) x0 + w x1 with its own w. Reads no row past
    ceil(q)."""
    q = np.maximum(q, 0.0)
    i0 = q.astype(np.intp)
    w = q - i0
    rows = Y[i0]
    mixed = np.flatnonzero(w)
    if len(mixed):
        w = w[mixed, None]
        rows[mixed] = (1.0 - w) * rows[mixed] + w * Y[i0[mixed] + 1]
    return rows


def _delayed_rows(Y: np.ndarray, h: float, dt: float) -> np.ndarray:
    """All rows of Y sampled at their own time minus h, as the integrator
    samples them (:func:`_lerp_rows`)."""
    if h == 0.0:
        return Y
    return _lerp_rows(Y, np.arange(len(Y)) - h / dt)


def _advance_pairs(seg: np.ndarray, pos: slice, rate: slice, acc: np.ndarray, dt: float) -> None:
    """RK4 steps of the (position, rate) column pairs of seg = Y[i:j+1]
    whose rate derivative is a delayed acceleration: acc holds one row per
    pair, its values at the 2 (j - i) + 1 interleaved stage samples. The
    stage derivatives are (r, a0), (r + dt/2 a0, ah), (r + dt/2 ah, ah) and
    (r + dt ah, a1), so each increment is the loop's expression on arrays,
    and an in-place cumsum (a sequential scan) adds them row after row as
    the loop does."""
    half = 0.5 * dt
    sixth = dt / 6.0
    a0, ah, a1 = acc[:, :-1:2], acc[:, 1::2], acc[:, 2::2]
    v = np.empty((len(acc), len(seg)))
    v[:, 0] = seg[0, rate]
    v[:, 1:] = sixth * (a0 + 2.0 * ah + 2.0 * ah + a1)
    np.cumsum(v, axis=1, out=v)
    r = v[:, :-1]
    x = np.empty_like(v)
    x[:, 0] = seg[0, pos]
    x[:, 1:] = sixth * (r + 2.0 * (r + half * a0) + 2.0 * (r + half * ah) + (r + dt * ah))
    np.cumsum(x, axis=1, out=x)
    seg[:, rate] = v.T
    seg[:, pos] = x.T


# --- right-hand sides and their block forms ---


def _springs(contact: ContactParams) -> list:
    return [(k, tuple(map(float, l))) for k, l in contact.springs]


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
    springs = _springs(contact)

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


class PlanarModel:
    """Block form of :func:`make_rhs_2d` for :func:`integrate_dde`. Every
    planar derivative is a rate of the current state or a delayed
    acceleration, so the three (position, rate) pairs (z, v_z),
    (theta, omega) and (y, v_y) advance on arrays, with no per-step loop."""

    columns = 4  # the law reads (z, v_z, theta, omega) of a delayed sample

    def __init__(self, params: BodyParams, contact: ContactParams):
        self.a, self.m, self.J_x = params.a, params.m, params.J_x
        self.k_v, self.b_v = contact.k_v, contact.b_v
        self.bilateral = contact.activation == "bilateral"
        self.springs = _springs(contact)

    def wrench(self, xd):
        """Applied force f and x-torque tau at the delayed samples xd
        (columns first), as make_rhs_2d computes them, sin and cos from
        math included."""
        th = xd[2].tolist()
        s = np.array(list(map(math.sin, th)))
        c = np.array(list(map(math.cos, th)))
        d = depth_2d(xd, self.a, c)
        k = contact_stiffness(self.k_v, self.springs, 0.0, s, c)
        f = contact_force(k, self.b_v, d, depth_rate_2d(xd, self.a, s))
        if not self.bilateral:
            f = np.where(d < 0.0, f, 0.0)
        return f, torque_2d(f, self.a, s)

    def advance(self, seg, xd, dt):
        """Steps i..j-1 into seg = Y[i:j+1] from their stage samples xd."""
        f, tau = self.wrench(xd)
        acc = np.zeros((3, len(f)))  # v_y' = 0
        acc[0] = f / self.m
        acc[1] = tau / self.J_x
        _advance_pairs(seg, slice(0, 6, 2), slice(1, 6, 2), acc, dt)


def _spin_rate(params: BodyParams):
    """rate(c0, c1, c2, w0, w1, w2, t0, t1, t2): the derivative of the
    attitude column d_c3 = (c0, c1, c2) and of omega = (w0, w1, w2) under
    the body torque (t0, t1, t2), as a 6-tuple:
    d_c3' = -omega x d_c3, omega' = J^-1((J omega) x omega + tau)."""
    (J00, J01, J02), (J10, J11, J12), (J20, J21, J22) = params.J.tolist()
    (I00, I01, I02), (I10, I11, I12), (I20, I21, I22) = np.linalg.inv(params.J).tolist()

    def rate(c0, c1, c2, w0, w1, w2, t0, t1, t2):
        # gyroscopic term (J omega) x omega
        Jw0 = J00 * w0 + J01 * w1 + J02 * w2
        Jw1 = J10 * w0 + J11 * w1 + J12 * w2
        Jw2 = J20 * w0 + J21 * w1 + J22 * w2
        g0 = Jw1 * w2 - Jw2 * w1 + t0
        g1 = Jw2 * w0 - Jw0 * w2 + t1
        g2 = Jw0 * w1 - Jw1 * w0 + t2
        # attitude kinematics -omega x d_c3 = d_c3 x omega
        return (
            c1 * w2 - c2 * w1,
            c2 * w0 - c0 * w2,
            c0 * w1 - c1 * w0,
            I00 * g0 + I01 * g1 + I02 * g2,
            I10 * g0 + I11 * g1 + I12 * g2,
            I20 * g0 + I21 * g1 + I22 * g2,
        )

    return rate


def make_rhs_3d(params: BodyParams, contact: ContactParams) -> Rhs:
    """12-state RHS closure: r' = v, v' = (f/m) n_hat, d_c3' = -omega x d_c3,
    omega' = J^-1((J omega) x omega + tau_B), force and torque from the
    delayed sample."""
    m = params.m
    a_B = tuple(float(x) for x in params.a_B)
    n_hat = n0, n1, n2 = tuple(float(x) for x in contact.n_hat)
    k_v = contact.k_v
    b_v = contact.b_v
    bilateral = contact.activation == "bilateral"
    springs = _springs(contact)
    spin = _spin_rate(params)

    def rhs(y, yd):
        c0, c1, c2 = yd[6], yd[7], yd[8]
        d = depth_3d(yd, n_hat, a_B)
        if bilateral or d < 0.0:
            k = contact_stiffness(k_v, springs, c0, c1, c2)
            f = contact_force(k, b_v, d, depth_rate_3d(yd, n_hat, a_B))
        else:
            f = 0.0
        fm = f / m
        return (y[3], y[4], y[5], fm * n0, fm * n1, fm * n2,
                *spin(y[6], y[7], y[8], y[9], y[10], y[11], *torque_3d(f, a_B, c0, c1, c2)))

    return rhs


class SpatialModel:
    """Block form of :func:`make_rhs_3d` for :func:`integrate_dde`. The
    pairs (r_j, v_j) advance on arrays; (d_c3, omega), whose rates depend
    on the current state, step in a loop over 6 floats driven by the
    block's delayed torques. d_c3 is divided by the square root of numpy's
    dot product of it with itself, as the per-step loop renormalizes it."""

    columns = 12

    def __init__(self, params: BodyParams, contact: ContactParams):
        self.m = params.m
        self.a_B = tuple(float(x) for x in params.a_B)
        self.n_hat = tuple(float(x) for x in contact.n_hat)
        self.k_v, self.b_v = contact.k_v, contact.b_v
        self.bilateral = contact.activation == "bilateral"
        self.springs = _springs(contact)
        self.spin = _spin_rate(params)

    def wrench(self, xd):
        """Applied force f and body torque (tau_x, tau_y, tau_z) at the
        delayed samples xd (columns first), as make_rhs_3d computes them."""
        c0, c1, c2 = xd[6], xd[7], xd[8]
        d = depth_3d(xd, self.n_hat, self.a_B)
        k = contact_stiffness(self.k_v, self.springs, c0, c1, c2)
        f = contact_force(k, self.b_v, d, depth_rate_3d(xd, self.n_hat, self.a_B))
        if not self.bilateral:
            f = np.where(d < 0.0, f, 0.0)
        return f, torque_3d(f, self.a_B, c0, c1, c2)

    def advance(self, seg, xd, dt):
        """Steps i..j-1 into seg = Y[i:j+1] from their stage samples xd."""
        f, tau = self.wrench(xd)
        _advance_pairs(seg, slice(0, 3), slice(3, 6), np.multiply.outer(self.n_hat, f / self.m), dt)
        spin = self.spin
        tx, ty, tz = (t.tolist() for t in tau)
        half = 0.5 * dt
        sixth = dt / 6.0
        c0, c1, c2, w0, w1, w2 = seg[0, 6:12].tolist()
        col = np.empty(3)
        rows = []
        for i in range(0, len(tx) - 1, 2):
            # stages p, q, r, s of one step from samples i, i + 1, i + 1, i + 2,
            # written out per component
            mx, my, mz = tx[i + 1], ty[i + 1], tz[i + 1]
            p0, p1, p2, p3, p4, p5 = spin(c0, c1, c2, w0, w1, w2, tx[i], ty[i], tz[i])
            q0, q1, q2, q3, q4, q5 = spin(
                c0 + half * p0, c1 + half * p1, c2 + half * p2,
                w0 + half * p3, w1 + half * p4, w2 + half * p5, mx, my, mz)
            r0, r1, r2, r3, r4, r5 = spin(
                c0 + half * q0, c1 + half * q1, c2 + half * q2,
                w0 + half * q3, w1 + half * q4, w2 + half * q5, mx, my, mz)
            s0, s1, s2, s3, s4, s5 = spin(
                c0 + dt * r0, c1 + dt * r1, c2 + dt * r2,
                w0 + dt * r3, w1 + dt * r4, w2 + dt * r5, tx[i + 2], ty[i + 2], tz[i + 2])
            c0 = c0 + sixth * (p0 + 2.0 * q0 + 2.0 * r0 + s0)
            c1 = c1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
            c2 = c2 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
            w0 = w0 + sixth * (p3 + 2.0 * q3 + 2.0 * r3 + s3)
            w1 = w1 + sixth * (p4 + 2.0 * q4 + 2.0 * r4 + s4)
            w2 = w2 + sixth * (p5 + 2.0 * q5 + 2.0 * r5 + s5)
            col[0], col[1], col[2] = c0, c1, c2
            # a zero column gives NaN here and NaN or inf in numpy's
            # x / 0.0: non-finite either way
            norm = math.sqrt(col.dot(col)) or math.nan
            c0 /= norm
            c1 /= norm
            c2 /= norm
            rows.append((c0, c1, c2, w0, w1, w2))
        seg[1:, 6:12] = rows


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
    problem = activation_problem(contact.activation)
    if problem:
        raise ValidationError([problem])
    initial = config.initial
    if mode == "3d":
        if isinstance(initial, ChaserState2D):
            initial = initial.embed_3d()
        rhs, model = make_rhs_3d(params, contact), SpatialModel(params, contact)
        unit_slice = slice(6, 9)
    elif mode == "2d":
        if isinstance(initial, ChaserState3D):
            initial = _project_planar(initial)
        rhs, model = make_rhs_2d(params, contact), PlanarModel(params, contact)
        unit_slice = None
    else:
        raise ValueError(f"mode must be '2d' or '3d', got {mode!r}")
    y0 = initial.as_vector()

    bound = divergence_factor * max(float(np.abs(y0).max()), 1.0)
    times, Y = integrate_dde(
        rhs, y0, config.dt, config.t_end, config.h,
        unit_slice=unit_slice, divergence_bound=bound, model=model,
    )

    # Contact channels on the whole grid: d and d_dot of the undelayed
    # state; f and tau of the delayed sample, by the model's own wrench,
    # so they are what the integrator applied.
    x = Y.T
    if mode == "2d":
        a = params.a
        d = depth_2d(x, a, np.cos(x[2]))
        d_dot = depth_rate_2d(x, a, np.sin(x[2]))
    else:
        d, d_dot = depth_3d(x, model.n_hat, model.a_B), depth_rate_3d(x, model.n_hat, model.a_B)
    f, tau = model.wrench(_delayed_rows(Y[:, :model.columns], config.h, config.dt).T)
    if mode == "3d":
        tau = np.column_stack(tau)

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
