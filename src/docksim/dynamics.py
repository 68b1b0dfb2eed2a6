"""Fixed-step integration of the delayed nonlinear contact dynamics.

The equations of motion form a functional ODE: the contact force at time t
is computed from the state sampled at t - h. :func:`integrate_dde` is the
one integration scheme: explicit RK4 stages on a fixed grid, with the
delayed arguments at the stage times resolved by linear interpolation of the
stored state history, which keeps runs reproducible bit-for-bit for a given
(dt, h). Before t = 0 the history is the constant initial state (runs start
out of contact, where the right-hand side is force-free, so the constant
pre-history is exact).

The scheme is not of order 4 at h > 0. The linear interpolation of the
history is second-order accurate, so a smooth (bilateral) run converges at
order 2: the error shrinks by 4 per halving of dt. A unilateral run with
b_v > 0 converges at order 1 (a factor of 2 per halving), because its force
jumps by b_v times the depth rate where the delayed depth crosses zero,
inside a step. ``tests/test_dynamics.py`` measures both orders on
``table1``.

h = 0 is special-cased: the delayed argument is the current stage state and
the scheme is plain RK4 for the undelayed ODE. A delay that is negative,
not finite or in (0, dt) is rejected (:func:`docksim.core.delay_problem`),
since the explicit scheme can only look up completed steps. The delayed
samples of step k lie at the fractional rows k - h/dt, k + 1/2 - h/dt and
k + 1 - h/dt; the block path builds those of each block's steps i..j-1 as
m/2 - h/dt for m = 2i..2j, whose halves are exact.

Each contact mode is one class, :class:`PlanarModel` (2D) and
:class:`SpatialModel` (3D). It unpacks the body and contact parameters once
and holds everything that depends on the mode: the scalar right-hand side
``model.rhs(y, y_delayed)``, its block form (``wrench`` and ``push``), the
width of its wrench rows, the state vector of an initial state, the
unit-norm columns the integrator renormalizes and the undelayed depth
channels. :func:`simulate` looks the class up by mode and hands the model
to :func:`integrate_dde`, which takes a model only; :func:`make_rhs_2d` and
:func:`make_rhs_3d` return a model's ``rhs``.

A model has one path at h > 0, the block path, with the same protocol for
both modes. The force applied over the next h was sensed h ago, so when the
run reaches row i the delayed samples of steps i .. i + int(h/dt) - 1 lie
at fractional rows <= i, in rows that are already final. For such a block,
one lookup (:func:`_stage_samples`) gives the three stage samples of every
step: at a whole h/dt = N, from row N on, each sample is a row or the
midpoint of two neighbouring rows, built from row slices; otherwise one
vectorized lerp (:func:`_lerp_rows`) gives them. ``model.wrench`` gives
their wrench as one array with one row per sample, (f, tau_x) in 2D and
(f, tau_x, tau_y, tau_z) in 3D, and ``model.push`` steps the block under
it: each (position, rate) pair whose rate derivative is that delayed
acceleration -- (z, v_z), (theta, omega) and (y, v_y) in 2D, (r_j, v_j) in
3D -- advances with the RK4 increments on arrays and an in-place
``np.cumsum``. So a 2D block runs no Python loop per
step; in 3D the attitude column and omega, whose rates depend on the
current state, step in a loop driven by the block's torques, each step
straight-line arithmetic on 6 floats with no call but numpy's dot product
of the renormalization. Under one held wrench row that loop stops at a
step that returns its own 6 floats bit for bit, a fixed point of every
later step, and fills the rest of its rows with them.
A zero force is just a value here, so free flight and contact take the same
path. Each finished block is checked for divergence, which raises at its
first offending row with the per-step message and t.

At h = 0 there is no delay for a block to span, and a per-step loop calls
the model's ``rhs(y, y_delayed)`` four times per step on Python floats,
each stage's delayed argument being the stage itself.

In free flight the delayed wrench is exactly zero, so the run speculates
there. After a block whose wrench rows are all bitwise equal (signed zeros
count, and a row matches only if all its components do; one int64 compare
of the array finds the first row that does not), the next span of
``SPECULATIVE_BLOCKS`` blocks is pushed under that one held row first, then
its own stage samples are looked up in the pushed rows and the wrench is
evaluated there. Step s of a span from row i reads samples 2s, 2s + 1 and
2s + 2, which lie in rows <= i + s; so while every sample matches the held
wrench bit for bit, each pushed row is the row the sequential scheme gives,
and one long in-place cumsum (and, in 3D, one long attitude loop, cut
short at a fixed point) adds as the chained ones do. With the first
mismatch at sample m the first (m - 1) // 2 steps are committed, their
wrench rows recorded and their rows screened for divergence; normal blocks
resume at the first uncommitted step, and a span that commits nothing
falls through to a normal block.

Both paths give the rows of the earlier numpy-array form of the scheme bit
for bit, because each float operation is the elementwise one of that form,
in the same order: numpy's + - * / on float64 round as Python floats do;
numpy's float64 sin and cos, which ``PlanarModel.wrench`` and ``depth``
call, return the bits of ``math.sin`` and ``math.cos``, which ``rhs``
calls (``tests/test_dynamics.py::TestNumpyTrig`` checks this on the
platform at hand); numpy's accumulate is a sequential scan (cumsum adds the
increments row after row, as the loop does, not pairwise); and the 3D
attitude column is renormalized with numpy's dot product, which rounds
differently from a plain sum of squares.

Contact-law (``wrench``) calls per run on the bundled scenarios:
``table1`` 25 and ``fig7`` 50 in either mode, ``demo3d`` 210.
``integrate_dde`` as :func:`simulate` calls it, recording included, best
of 5 runs (median of 20 rounds) on a shared 2-vCPU VM (Python 3.11.7, numpy
2.4.6): about 0.26 to 0.29 µs/step in 2D and 2.9 to 4.5 µs/step in 3D
(``table1`` to ``demo3d``), where the attitude loop takes most of the time
(``BENCH_delayed_rows.json``, from ``scripts/bench_layers.py``).

The contact channels :func:`simulate` records are the force and torque the
integrator applied, which it leaves on the model as ``model.applied``, one
wrench row per grid row, so the contact law is evaluated once per run;
:func:`simulate` splits it into the ``f`` and ``tau`` channels. The block
path keeps the wrench rows of each block's even stage samples, k - h/dt for
its rows k; at h = 0 the model's ``wrench`` runs once, after the per-step
loop, on the rows themselves, which are their own delayed samples there.
The models evaluate the contact law through the functions of
:mod:`docksim.contact`.

The trajectory CSV layout (``_TRAJ_LAYOUT``) is defined once, for the writer
:func:`write_trajectory_csv` and the reader :func:`read_trajectory_csv`.
"""

from __future__ import annotations

import math
import struct
import sys
import warnings
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
    AnyState,
    BodyParams,
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    SimConfig,
    ValidationError,
    activation_problem,
    allocate,
    delay_problem,
    nonnegative_problem,
    require,
    step_count,
    write_csv,
)

# a model's rhs(y, y_delayed) -> y': two float sequences (lists from the
# integrator at h = 0, numpy rows from other callers) in, a tuple of floats
# out
Rhs = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]
# length of a speculative span of free flight, in blocks of int(h/dt)
# steps (measured on planar runs: 4 to 16 all pay, 8 most)
SPECULATIVE_BLOCKS = 8
# integrate_dde's divergence bound, in multiples of the initial state's
# largest component (at least 1)
DIVERGENCE_FACTOR = 1e3
# span [s] over which extract_events averages the entry and exit rates,
# unless given (the scenario key analysis.averaging_window)
DEFAULT_EVENT_WINDOW = 0.02


class DivergenceError(RuntimeError):
    """Integration aborted: state non-finite or beyond the divergence bound."""

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


def integrate_dde(
    model: PlanarModel | SpatialModel,
    initial: np.ndarray,
    dt: float,
    t_end: float,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y'(t) = model.rhs(y(t), y(t-h)) on the fixed grid.

    Returns (times, states) with one row per grid point including t = 0.
    Pre-history is the constant initial state. Not decimated; callers slice.
    t_end must be a whole number of steps (:func:`docksim.core.step_count`),
    and one whose row count numpy cannot allocate is a ValidationError too.

    h must be 0 or a finite delay >= dt (:func:`docksim.core.delay_problem`),
    else ValidationError.

    Every run has the divergence guard: a state that turns non-finite, or
    whose largest component passes DIVERGENCE_FACTOR times the initial
    state's largest component (at least 1), ends the run in
    DivergenceError at the first such row, with its t.

    ``model`` is a :class:`PlanarModel` or :class:`SpatialModel`, which
    brings its scalar ``rhs`` and the ``unit_slice`` of columns
    renormalized after every step. At h > 0 it advances in blocks of
    int(h/dt) steps with its block form (under a steady wrench, in checked
    spans of SPECULATIVE_BLOCKS blocks) and never calls ``rhs``; the rows
    are those of ``rhs`` stepped one row at a time, bit for bit. At h = 0
    ``rhs`` is stepped by plain RK4, one row at a time. The model is left
    with ``model.applied``, the wrench applied at every row, one row
    (f, tau_x) in 2D or (f, tau_x, tau_y, tau_z) in 3D each: its
    ``wrench`` at the rows sampled one delay back. At h > 0 each block
    builds the delayed stage rows of its own steps; no array of them spans
    the run.
    """
    y0 = np.asarray(initial, dtype=float)
    n = step_count(t_end, dt)
    require(delay_problem(h, dt))
    Y = allocate(f"t_end/dt = {n:.9g} steps", np.empty, (n + 1, y0.size))
    Y[0] = y0
    times = np.arange(n + 1) * dt
    # the divergence bound, capped at the largest float: the same decision
    # for every finite state. sum(|y|) of a step, or max |y| of a block,
    # bounds every |y_j|, and a NaN or inf component makes the comparison
    # with the finite bound fail, so one pass screens each step or block;
    # _check_divergence then decides exactly
    bound = min(DIVERGENCE_FACTOR * max(float(np.abs(y0).max()), 1.0), sys.float_info.max)
    if h:
        model.applied = _integrate_blocks(model, Y, h / dt, dt, bound)
        return times, Y
    rhs, unit_slice = model.rhs, model.unit_slice
    half = 0.5 * dt
    sixth = dt / 6.0
    y = Y[0].tolist()
    # h = 0: each stage's delayed argument is the stage state itself. A
    # diverging run overflows in the renormalization before the screen
    # below sees it; it ends in DivergenceError, as in _integrate_blocks
    with np.errstate(all="ignore"):
        for i in range(n):
            k1 = rhs(y, y)
            y2 = [a + half * b for a, b in zip(y, k1)]
            k2 = rhs(y2, y2)
            y3 = [a + half * b for a, b in zip(y, k2)]
            k3 = rhs(y3, y3)
            y4 = [a + dt * b for a, b in zip(y, k3)]
            k4 = rhs(y4, y4)
            y = [a + sixth * (p + 2.0 * q + 2.0 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
            row = Y[i + 1]
            row[:] = y
            if unit_slice is not None:
                block = row[unit_slice]
                block /= math.sqrt(float(block @ block))
                y = row.tolist()
            if not sum(map(abs, y)) <= bound:
                _check_divergence(y, float(times[i + 1]), bound)
    # each row is its own delayed sample
    model.applied = model.wrench(Y[:, :model.columns].T)
    return times, Y


def _integrate_blocks(model, Y, ratio, dt, bound) -> np.ndarray:
    """Fill Y block by block with the model's ``wrench`` and ``push``, and
    return the wrench applied at every row, one row each; ratio = h/dt >= 1.
    The delayed stage samples of step k lie at the fractional rows
    k - ratio, k + 1/2 - ratio and k + 1 - ratio (the first of step
    k + 1), so those of steps i..j-1 are m/2 - ratio for m = 2i..2j,
    built per block (m/2 is exact, so each is the bits of k - ratio or
    (k + 0.5) - ratio). Steps i..j-1 with j - i <= span = int(ratio) read
    delayed samples at fractional rows <= j - ratio <= i, so rows <= i,
    which are final: one lookup (:func:`_stage_samples`) and one
    ``wrench`` call give the wrench at every stage sample of the block,
    one row per sample, and ``push`` steps the block under it. At a whole
    ratio the lookup of a block from row ratio on is two row slices, each
    sample a row or the midpoint of two; the first blocks and every ratio
    that is not whole, near-whole ones included, lerp. The even samples,
    m = 2k for k = i..j, are the delayed samples of rows i..j, so their
    wrench rows are the ones recorded.

    After a block whose wrench rows are all bitwise equal, a span of
    SPECULATIVE_BLOCKS blocks runs on a guess: ``push`` steps the span's
    rows under that one held row, then the span's own stage samples are
    looked up in them and ``wrench`` is evaluated there. Step s reads
    samples 2s, 2s + 1 and 2s + 2, which read rows <= i + s only, so while
    every sample so far equals the held row the pushed rows are the
    sequential ones: with the first mismatch at sample m, the first
    (m - 1) // 2 steps are committed and the rest is recomputed by normal
    blocks from the first uncommitted step. A span that commits nothing
    falls through to a normal block.

    Each finished block, and each committed part of a span, is checked for
    divergence, which raises at its first offending row."""
    n = len(Y) - 1
    span = int(ratio)
    columns = model.columns
    applied = np.empty((n + 1, model.width))
    held = None  # the steady wrench of the last block, one row
    i = 0
    with np.errstate(all="ignore"):
        while i < n:
            if held is None:
                j = min(n, i + span)
                w = model.wrench(_stage_samples(Y, i, j, ratio, columns).T)
                model.push(Y[i:j + 1], w, dt)
                if _first_change(w, w[:1]) == len(w):
                    held = w[:1]
            else:
                j = min(n, i + SPECULATIVE_BLOCKS * span)
                model.push(Y[i:j + 1], held, dt)
                w = model.wrench(_stage_samples(Y, i, j, ratio, columns).T)
                m = _first_change(w, held)
                if m < len(w):
                    held = None
                    j = i + (m - 1) // 2
                    if j <= i:
                        continue
            applied[i:j + 1] = w[:2 * (j - i) + 1:2]
            seg = Y[i + 1:j + 1]
            if not np.abs(seg).max() <= bound:
                bad = np.flatnonzero(~(np.abs(seg).max(axis=1) <= bound))
                row = i + 1 + int(bad[0])
                _check_divergence(Y[row].tolist(), row * dt, bound)
            i = j
    return applied


def _first_change(w: np.ndarray, w0: np.ndarray) -> int:
    """Index of the first row of the wrench w that differs from the one
    row w0 bit for bit (so signed zeros and NaN payloads count), or len(w)
    if none."""
    # each row against the one before it, w0 before the first: the first
    # row unlike its predecessor is the first unlike w0, and the compare is
    # of two equal flat slices (every row against w0 broadcasts a row of 2
    # or 4 values, which costs numpy several times more); a flat index maps
    # back to its row by floor division
    width = w.shape[1]
    x = np.concatenate((w0.reshape(-1), w.reshape(-1))).view(np.int64)
    changed = x[width:] != x[:-width]
    first = int(changed.argmax())
    return first // width if changed[first] else len(w)


def _check_divergence(y: list, t: float, bound: float) -> None:
    """Raise DivergenceError if y is non-finite or beyond the bound;
    return if neither (the screen in integrate_dde is conservative)."""
    if not all(map(math.isfinite, y)):
        raise DivergenceError(f"non-finite state at t = {t:.9g} s", t)
    if max(map(abs, y)) > bound:
        raise DivergenceError(
            f"state magnitude exceeded divergence bound {bound:.3g} "
            f"at t = {t:.9g} s (instability)",
            t,
        )


def _stage_samples(Y: np.ndarray, i: int, j: int, ratio: float, columns: int) -> np.ndarray:
    """The delayed stage samples of steps i..j-1, the first ``columns``
    columns of Y at the fractional rows m/2 - ratio for m = 2i..2j, one
    row per sample. At a whole ratio N = h/dt, with i >= N, each sample is
    a row or the midpoint of two neighbours: m/2 - N is exact, so the lerp
    takes w = 0 at even m and w = 0.5 at odd m, and no sample reaches the
    clamped pre-history. The even samples are then the rows i - N .. j - N
    copied, the odd ones (1 - 0.5) x_k + 0.5 x_(k+1) on two slices, the
    bits of :func:`_lerp_rows`. Every other block, with i < N or a ratio
    that is not whole (a near-whole one, such as 0.0003/1e-4 =
    2.9999999999999996, included), takes :func:`_lerp_rows`."""
    lag = int(ratio)
    if lag != ratio or i < lag:
        return _lerp_rows(Y, np.arange(2 * i, 2 * j + 1) * 0.5 - ratio, columns)
    rows = Y[i - lag:j - lag + 1, :columns]
    # out[k] holds samples 2k and 2k + 1; 1.0 - 0.5 is exactly 0.5, the
    # weight of both neighbours
    out = np.empty((len(rows), 2, columns))
    out[:, 0] = rows
    half = 0.5 * rows
    np.add(half[:-1], half[1:], out=out[:-1, 1])
    return out.reshape(-1, columns)[:-1]


def _lerp_rows(Y: np.ndarray, q: np.ndarray, columns: int) -> np.ndarray:
    """The first ``columns`` columns of the rows of Y at the fractional
    indices q: row 0 for q <= 0 (the constant pre-history), the exact row
    when q is whole, else (1 - w) x0 + w x1 with its own w. Reads no row
    past ceil(q), so q may be the latest final row. Both gathers take
    whole rows of Y, which is contiguous, and then keep the columns: numpy
    gathers contiguous rows faster than strided ones."""
    q = np.maximum(q, 0.0)
    i0 = q.astype(np.intp)
    w = q - i0
    rows = Y.take(i0, axis=0)[:, :columns]
    mixed = np.flatnonzero(w)
    if len(mixed):
        w = w[mixed, None]
        rows[mixed] = (1.0 - w) * rows[mixed] + w * Y.take(i0[mixed] + 1, axis=0)[:, :columns]
    return rows


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


# --- one model per contact mode ---


def _springs(contact: ContactParams) -> list:
    return [(k, tuple(map(float, l))) for k, l in contact.springs]


def make_rhs_2d(params: BodyParams, contact: ContactParams) -> Rhs:
    """The scalar right-hand side of :class:`PlanarModel`."""
    return PlanarModel(params, contact).rhs


class PlanarModel:
    """The planar contact dynamics, on state vectors
    (z, v_z, theta, omega, y, v_y):

    z' = v_z, v_z' = f/m, theta' = omega, omega' = tau/J_x, y' = v_y,
    v_y' = 0, with f and tau computed from the delayed sample. The spring
    set's effective stiffness is re-evaluated from the delayed attitude
    (wall normal in body frame = (0, sin theta, cos theta) at t - h).

    ``rhs(y, yd)`` is the scalar form, a closure over the parameters (no
    attribute lookups per call). In the block form every planar derivative
    is a rate of the current state or a delayed acceleration, so the three
    (position, rate) pairs (z, v_z), (theta, omega) and (y, v_y) advance on
    arrays, with no per-step loop."""

    columns = 4  # the law reads (z, v_z, theta, omega) of a delayed sample
    width = 2  # a wrench row is (f, tau_x)
    unit_slice = None  # no column to renormalize

    def __init__(self, params: BodyParams, contact: ContactParams):
        self.a = a = params.a
        self.m = m = params.m
        self.J_x = J_x = params.J_x
        self.k_v = k_v = contact.k_v
        self.b_v = b_v = contact.b_v
        self.bilateral = bilateral = contact.activation == "bilateral"
        self.springs = springs = _springs(contact)

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

        self.rhs = rhs

    def initial_vector(self, initial: AnyState) -> np.ndarray:
        """State vector of a planar state, or of a 3D state that lies in the
        plane (ValidationError for any other)."""
        if not isinstance(initial, ChaserState3D):
            return initial.as_vector()
        v = initial.as_vector().tolist()
        if max(abs(v[j]) for j in (0, 3, 6, 10, 11)) > 1e-12:
            raise ValidationError("initial 3D state is not planar; cannot run in 2D mode")
        return np.array([v[2], v[5], math.atan2(v[7], v[8]), v[9], v[1], v[4]])

    def depth(self, x):
        """Penetration depth d and rate d_dot of the states x (columns
        first), undelayed."""
        return depth_2d(x, self.a, np.cos(x[2])), depth_rate_2d(x, self.a, np.sin(x[2]))

    def wrench(self, xd):
        """Applied force and x-torque, one row (f, tau_x) per delayed sample
        of xd (columns first), as ``rhs`` computes them: numpy's float64
        sin and cos give math's bits (see the module docstring)."""
        s = np.sin(xd[2])
        c = np.cos(xd[2])
        d = depth_2d(xd, self.a, c)
        k = contact_stiffness(self.k_v, self.springs, 0.0, s, c)
        f = contact_force(k, self.b_v, d, depth_rate_2d(xd, self.a, s))
        if not self.bilateral:
            f = np.where(d < 0.0, f, 0.0)
        return np.column_stack((f, torque_2d(f, self.a, s)))

    def push(self, seg, w, dt):
        """Steps i..j-1 into seg = Y[i:j+1] under the wrench rows w of
        their 2 (j - i) + 1 stage samples, or under one held row."""
        acc = np.zeros((3, 2 * len(seg) - 1))  # v_y' = 0
        acc[0] = w[:, 0] / self.m
        acc[1] = w[:, 1] / self.J_x
        _advance_pairs(seg, slice(0, 6, 2), slice(1, 6, 2), acc, dt)


def _spin_rate(J, J_inv):
    """rate(c0, c1, c2, w0, w1, w2, t0, t1, t2): the derivative of the
    attitude column d_c3 = (c0, c1, c2) and of omega = (w0, w1, w2) under
    the body torque (t0, t1, t2), as a 6-tuple:
    d_c3' = -omega x d_c3, omega' = J^-1((J omega) x omega + tau). J and
    J_inv are the 9 entries of J and of its inverse, row by row."""
    J00, J01, J02, J10, J11, J12, J20, J21, J22 = J
    I00, I01, I02, I10, I11, I12, I20, I21, I22 = J_inv

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
    """The scalar right-hand side of :class:`SpatialModel`."""
    return SpatialModel(params, contact).rhs


class SpatialModel:
    """The 12-state rigid-body contact dynamics, on state vectors
    (r, v, d_c3, omega):

    r' = v, v' = (f/m) n_hat, d_c3' = -omega x d_c3,
    omega' = J^-1((J omega) x omega + tau_B), force and torque from the
    delayed sample.

    ``rhs(y, yd)`` is the scalar form, a closure over the parameters. In
    the block form the pairs (r_j, v_j) advance on arrays; (d_c3, omega),
    whose rates depend on the current state, step in a loop driven by the
    block's delayed torques, each step straight-line float arithmetic on
    the entries of J and J^-1 that the model keeps. d_c3 is divided by the
    square root of numpy's dot product of it with itself, as the per-step
    loop renormalizes it. Under one held wrench row the loop ends at a
    bitwise fixed point (see ``push``)."""

    columns = 12
    width = 4  # a wrench row is (f, tau_x, tau_y, tau_z), the body torque
    unit_slice = slice(6, 9)  # d_c3, renormalized after every step

    def __init__(self, params: BodyParams, contact: ContactParams):
        self.m = m = params.m
        self.a_B = a_B = tuple(float(x) for x in params.a_B)
        self.n_hat = n_hat = n0, n1, n2 = tuple(float(x) for x in contact.n_hat)
        self.k_v = k_v = contact.k_v
        self.b_v = b_v = contact.b_v
        self.bilateral = bilateral = contact.activation == "bilateral"
        self.springs = springs = _springs(contact)
        # the entries of J and of its inverse, row by row
        self.J = tuple(params.J.ravel().tolist())
        self.J_inv = tuple(np.linalg.inv(params.J).ravel().tolist())
        spin = _spin_rate(self.J, self.J_inv)

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

        self.rhs = rhs

    def initial_vector(self, initial: AnyState) -> np.ndarray:
        """State vector of a 3D state, or of a planar one embedded
        (:meth:`docksim.core.ChaserState2D.embed_3d`)."""
        if isinstance(initial, ChaserState2D):
            initial = initial.embed_3d()
        return initial.as_vector()

    def depth(self, x):
        """Penetration depth d and rate d_dot of the states x (columns
        first), undelayed."""
        return depth_3d(x, self.n_hat, self.a_B), depth_rate_3d(x, self.n_hat, self.a_B)

    def wrench(self, xd):
        """Applied force and body torque, one row (f, tau_x, tau_y, tau_z)
        per delayed sample of xd (columns first), as ``rhs`` computes
        them."""
        c0, c1, c2 = xd[6], xd[7], xd[8]
        d = depth_3d(xd, self.n_hat, self.a_B)
        k = contact_stiffness(self.k_v, self.springs, c0, c1, c2)
        f = contact_force(k, self.b_v, d, depth_rate_3d(xd, self.n_hat, self.a_B))
        if not self.bilateral:
            f = np.where(d < 0.0, f, 0.0)
        return np.column_stack((f, *torque_3d(f, self.a_B, c0, c1, c2)))

    def push(self, seg, w, dt):
        """Steps i..j-1 into seg = Y[i:j+1] under the wrench rows w of
        their 2 (j - i) + 1 stage samples, or under one held row.

        A step of (d_c3, omega) is straight-line float arithmetic: the four
        stage rates p, q, r and s are ``_spin_rate``'s expressions written
        out, fed the step's start, middle and end torques. d_c3 is then
        divided by the square root of numpy's dot product of it with
        itself, as the per-step loop renormalizes it: that dot rounds
        differently from a plain sum of squares, so it stays. Under one
        held row a step is a function of its six floats alone, so a step
        that returns them bit for bit (signed zeros and NaN payloads count)
        is a fixed point, and the rest of the block is filled with it."""
        tx, ty, tz = np.broadcast_to(w[:, 1:], (2 * len(seg) - 1, 3)).T.tolist()
        acc = np.broadcast_to(np.multiply.outer(self.n_hat, w[:, 0] / self.m), (3, len(tx)))
        _advance_pairs(seg, slice(0, 3), slice(3, 6), acc, dt)
        J00, J01, J02, J10, J11, J12, J20, J21, J22 = self.J
        I00, I01, I02, I10, I11, I12, I20, I21, I22 = self.J_inv
        half = 0.5 * dt
        sixth = dt / 6.0
        c0, c1, c2, w0, w1, w2 = seg[0, 6:12].tolist()
        held = len(w) == 1
        bits = struct.pack("6d", c0, c1, c2, w0, w1, w2) if held else None
        col = np.empty(3)
        dot = col.dot
        rows = []
        for a0, a1, a2, b0, b1, b2, e0, e1, e2 in zip(tx[:-1:2], ty[:-1:2], tz[:-1:2], tx[1::2], ty[1::2],
                                                      tz[1::2], tx[2::2], ty[2::2], tz[2::2]):
            # p at (c, w) under the start torque a; each stage takes J w,
            # then g = (J w) x w + torque, then c x w, then J^-1 g
            Jw0 = J00 * w0 + J01 * w1 + J02 * w2
            Jw1 = J10 * w0 + J11 * w1 + J12 * w2
            Jw2 = J20 * w0 + J21 * w1 + J22 * w2
            g0 = Jw1 * w2 - Jw2 * w1 + a0
            g1 = Jw2 * w0 - Jw0 * w2 + a1
            g2 = Jw0 * w1 - Jw1 * w0 + a2
            p0 = c1 * w2 - c2 * w1
            p1 = c2 * w0 - c0 * w2
            p2 = c0 * w1 - c1 * w0
            p3 = I00 * g0 + I01 * g1 + I02 * g2
            p4 = I10 * g0 + I11 * g1 + I12 * g2
            p5 = I20 * g0 + I21 * g1 + I22 * g2
            # q at (c, w) + dt/2 p under the middle torque b
            x0 = c0 + half * p0
            x1 = c1 + half * p1
            x2 = c2 + half * p2
            u0 = w0 + half * p3
            u1 = w1 + half * p4
            u2 = w2 + half * p5
            Jw0 = J00 * u0 + J01 * u1 + J02 * u2
            Jw1 = J10 * u0 + J11 * u1 + J12 * u2
            Jw2 = J20 * u0 + J21 * u1 + J22 * u2
            g0 = Jw1 * u2 - Jw2 * u1 + b0
            g1 = Jw2 * u0 - Jw0 * u2 + b1
            g2 = Jw0 * u1 - Jw1 * u0 + b2
            q0 = x1 * u2 - x2 * u1
            q1 = x2 * u0 - x0 * u2
            q2 = x0 * u1 - x1 * u0
            q3 = I00 * g0 + I01 * g1 + I02 * g2
            q4 = I10 * g0 + I11 * g1 + I12 * g2
            q5 = I20 * g0 + I21 * g1 + I22 * g2
            # r at (c, w) + dt/2 q under the middle torque b
            x0 = c0 + half * q0
            x1 = c1 + half * q1
            x2 = c2 + half * q2
            u0 = w0 + half * q3
            u1 = w1 + half * q4
            u2 = w2 + half * q5
            Jw0 = J00 * u0 + J01 * u1 + J02 * u2
            Jw1 = J10 * u0 + J11 * u1 + J12 * u2
            Jw2 = J20 * u0 + J21 * u1 + J22 * u2
            g0 = Jw1 * u2 - Jw2 * u1 + b0
            g1 = Jw2 * u0 - Jw0 * u2 + b1
            g2 = Jw0 * u1 - Jw1 * u0 + b2
            r0 = x1 * u2 - x2 * u1
            r1 = x2 * u0 - x0 * u2
            r2 = x0 * u1 - x1 * u0
            r3 = I00 * g0 + I01 * g1 + I02 * g2
            r4 = I10 * g0 + I11 * g1 + I12 * g2
            r5 = I20 * g0 + I21 * g1 + I22 * g2
            # s at (c, w) + dt r under the end torque e
            x0 = c0 + dt * r0
            x1 = c1 + dt * r1
            x2 = c2 + dt * r2
            u0 = w0 + dt * r3
            u1 = w1 + dt * r4
            u2 = w2 + dt * r5
            Jw0 = J00 * u0 + J01 * u1 + J02 * u2
            Jw1 = J10 * u0 + J11 * u1 + J12 * u2
            Jw2 = J20 * u0 + J21 * u1 + J22 * u2
            g0 = Jw1 * u2 - Jw2 * u1 + e0
            g1 = Jw2 * u0 - Jw0 * u2 + e1
            g2 = Jw0 * u1 - Jw1 * u0 + e2
            s0 = x1 * u2 - x2 * u1
            s1 = x2 * u0 - x0 * u2
            s2 = x0 * u1 - x1 * u0
            s3 = I00 * g0 + I01 * g1 + I02 * g2
            s4 = I10 * g0 + I11 * g1 + I12 * g2
            s5 = I20 * g0 + I21 * g1 + I22 * g2
            c0 = c0 + sixth * (p0 + 2.0 * q0 + 2.0 * r0 + s0)
            c1 = c1 + sixth * (p1 + 2.0 * q1 + 2.0 * r1 + s1)
            c2 = c2 + sixth * (p2 + 2.0 * q2 + 2.0 * r2 + s2)
            w0 = w0 + sixth * (p3 + 2.0 * q3 + 2.0 * r3 + s3)
            w1 = w1 + sixth * (p4 + 2.0 * q4 + 2.0 * r4 + s4)
            w2 = w2 + sixth * (p5 + 2.0 * q5 + 2.0 * r5 + s5)
            col[0], col[1], col[2] = c0, c1, c2
            # a zero column gives NaN here and NaN or inf in numpy's
            # x / 0.0: non-finite either way
            norm = math.sqrt(dot(col)) or math.nan
            c0 /= norm
            c1 /= norm
            c2 /= norm
            rows.append((c0, c1, c2, w0, w1, w2))
            if held:
                last, bits = bits, struct.pack("6d", c0, c1, c2, w0, w1, w2)
                if bits == last:
                    seg[len(rows) + 1:, 6:12] = rows[-1]
                    break
        seg[1:len(rows) + 1, 6:12] = rows


# --- trajectory recording and contact events ---


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: uniformly decimated grid samples plus contact channels.

    ``states`` rows are (z, v_z, theta, omega, y, v_y) in 2D mode or
    (r, v, d_c3, omega) flattened in 3D mode. ``d``/``d_dot`` are the
    penetration depth and rate of the *undelayed* state (the commanded
    geometry); ``f`` is the applied force intensity, which the delay makes
    lag the geometry; ``tau`` is the scalar x-torque in 2D or the body
    torque vector in 3D.
    """

    mode: str
    times: np.ndarray
    states: np.ndarray
    d: np.ndarray
    d_dot: np.ndarray
    f: np.ndarray
    tau: np.ndarray

    @property
    def in_contact(self) -> np.ndarray:
        """Flags of undelayed d < 0."""
        return self.d < 0.0


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
    window: float = DEFAULT_EVENT_WINDOW,
) -> list[ContactEvent]:
    """Segment contacts by sign changes of d and measure entry/exit rates.

    Entry/exit instants come from linear interpolation of the d sign change
    (no higher-order event localization). With window > 0 the rates are the
    mean of d_dot over that span just before entry / after exit, clipped to
    samples outside contact and to the neighbouring events; window = 0 takes
    the single bracketing sample. Events still open at the end of the run
    are dropped. window must be finite and >= 0 (ValidationError).
    """
    require(nonnegative_problem("window", window))
    d = np.asarray(d)
    d_dot = np.asarray(d_dot)
    times = np.asarray(times)
    if len(times) < 2:
        return []
    dt = float(times[1] - times[0])
    inside = d < 0.0
    starts = np.flatnonzero(inside[1:] & ~inside[:-1]) + 1
    events: list[ContactEvent] = []
    # a window longer than the run covers the run
    n_w = max(1, int(round(min(window / dt, len(d))))) if window > 0.0 else 1
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


# mode -> the class of its model
_MODELS = {"2d": PlanarModel, "3d": SpatialModel}


def simulate(
    config: SimConfig,
    params: BodyParams,
    contact: ContactParams,
    mode: str | None = None,
    event_window: float = DEFAULT_EVENT_WINDOW,
) -> tuple[Trajectory, list[ContactEvent]]:
    """Run the delayed nonlinear model of ``mode`` (:class:`PlanarModel`
    for "2d", :class:`SpatialModel` for "3d"; None, the default, for the
    mode of ``config.initial``) and return the recorded trajectory plus the
    detected contact events. An explicit mode embeds a planar initial
    state in 3D, or projects a 3D one that lies in the plane onto 2D.

    The model goes to :func:`integrate_dde` once; its ``applied`` wrench
    becomes the ``f`` and ``tau`` channels, and its divergence guard ends an
    unstable run in DivergenceError.
    Contact events are segmented on the full integration grid regardless
    of the recording decimation.
    """
    if mode is None:
        mode = "3d" if isinstance(config.initial, ChaserState3D) else "2d"
    require(activation_problem(contact.activation),
            None if mode in _MODELS else f"mode must be '2d' or '3d', got {mode!r}")
    model = _MODELS[mode](params, contact)
    y0 = model.initial_vector(config.initial)

    times, Y = integrate_dde(model, y0, config.dt, config.t_end, config.h)

    # Contact channels on the whole grid: d and d_dot of the undelayed
    # state; f and tau as the integrator applied them, split from its
    # wrench rows (tau a scalar per row in 2D).
    d, d_dot = model.depth(Y.T)
    f = model.applied[:, 0]
    tau = model.applied[:, 1] if mode == "2d" else model.applied[:, 1:]

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
    )
    return traj, events


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
    zero. Raises ValidationError on any other header, on a row that
    is not numbers, on a file with no data rows or with rows of another
    width than the header's, and on a t column that is not finite and
    non-decreasing (a repeated stamp is allowed: a long run written at 9
    significant digits may round two samples to one)."""
    # undecodable bytes read as U+FFFD, which no header or number contains
    with open(path, errors="replace") as fh:
        header = fh.readline().strip().split(",")
        for mode, (columns, n) in _TRAJ_LAYOUT.items():
            if header == columns:
                break
        else:
            raise ValidationError(f"{path}: unrecognized trajectory header")
        with warnings.catch_warnings():
            # numpy's warning for a file with no rows; the error below says it
            warnings.simplefilter("ignore", UserWarning)
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValidationError(f"{path}: {exc}") from exc
    if not len(data):
        raise ValidationError(f"{path}: no data rows")
    if data.shape[1] != len(columns):
        raise ValidationError(f"{path}: rows hold {data.shape[1]} values, the header names {len(columns)}")
    if not (np.isfinite(data[:, 0]).all() and (np.diff(data[:, 0]) >= 0.0).all()):
        raise ValidationError(f"{path}: t must be finite and non-decreasing")
    states = data[:, 1:n + 1]
    if mode == "2d":
        states = np.column_stack([states, np.zeros((len(data), 2))])
    return Trajectory(
        mode=mode, times=data[:, 0], states=states,
        d=data[:, n + 1], d_dot=data[:, n + 2], f=data[:, n + 3],
        tau=data[:, n + 4] if mode == "2d" else data[:, n + 4:],
    )
