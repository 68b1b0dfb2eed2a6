"""Stability cues computed from run data: coefficient of restitution and
the passivity ("observed energy") monitor.

The observed energy compares measured mechanical power against commanded
power over six channels (three forces, three torques):

    dE = dt * sum_i [ (f_m.v_m - f_in.v_r) + (tau_m.omega_m - tau_in.omega_r) ]

accumulated sample by sample. Negative observed energy means the loop
dissipates (passive); positive means the loop injects energy (active), which
cues instability. Unlike the restitution cue it needs no before/after
bracketing and works while the contact is still in progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError, allocate, nonnegative_problem, positive_problem, require, sample_count, write_csv
from .dynamics import ContactEvent, Trajectory
from .stability import DEFAULT_NEUTRAL_BAND, classify

DEFAULT_SAMPLE_TIME = 0.004  # [s]
DEFAULT_LOSSLESS_TOL = 1e-6  # [J]

ENERGY_CHANNELS = ("dE_x", "dE_y", "dE_z", "dE_rx", "dE_ry", "dE_rz")


@dataclass(frozen=True)
class RestitutionResult:
    """Coefficient of restitution and its stability reading."""

    epsilon: float
    classification: str  # stable | neutral | unstable


def restitution(event: ContactEvent, band: float = DEFAULT_NEUTRAL_BAND) -> RestitutionResult:
    """epsilon = |v_plus| / |v_minus| for one contact event.

    epsilon < 1 reads stable (energy lost), epsilon > 1 unstable (energy
    injected); a band around 1 reads neutral (:func:`docksim.stability.classify`
    with limit 1), by default the band of :func:`docksim.stability.analyze`
    and of the scenario key ``analysis.neutrality_band``. Raises
    ValidationError when the band is not finite and >= 0, or when the event
    has no impact velocity (v_minus = 0).
    """
    require(nonnegative_problem("band", band),
            "no impact velocity: v_minus is zero" if event.v_minus == 0.0 else None)
    eps = abs(event.v_plus) / abs(event.v_minus)
    return RestitutionResult(epsilon=eps, classification=classify(eps, 1.0, band))


def events_payload(events: Sequence[ContactEvent], band: float) -> list[dict]:
    """JSON-ready list of contact events, each with its restitution reading;
    an event without impact velocity gets epsilon None and the
    classification "no impact velocity". Raises ValidationError when the
    band is not finite and >= 0, with or without events."""
    require(nonnegative_problem("band", band))
    payload = []
    for ev in events:
        entry = {"t_in": ev.t_in, "t_out": ev.t_out, "v_minus": ev.v_minus,
                 "v_plus": ev.v_plus, "max_depth": ev.max_depth}
        if ev.v_minus != 0.0:
            res = restitution(ev, band=band)
            entry.update(epsilon=res.epsilon, classification=res.classification)
        else:
            entry.update(epsilon=None, classification="no impact velocity")
        payload.append(entry)
    return payload


def _channels(name: str, arr) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValidationError(f"{name} must have shape (N, 3), got {a.shape}")
    return a


@dataclass(frozen=True)
class PowerStreams:
    """Sampled signal bundle for the passivity monitor, all on one uniform
    grid, shape (N, 3) each.

    f_m / tau_m     : measured force [N] and torque [N*m]
    v_m / omega_m   : measured linear [m/s] and angular [rad/s] velocity
    f_in / tau_in   : force and torque input to the simulator
    v_r / omega_r   : commanded linear and angular velocity
    """

    f_m: np.ndarray
    v_m: np.ndarray
    f_in: np.ndarray
    v_r: np.ndarray
    tau_m: np.ndarray
    omega_m: np.ndarray
    tau_in: np.ndarray
    omega_r: np.ndarray

    def __post_init__(self):
        lengths = set()
        for name in ("f_m", "v_m", "f_in", "v_r", "tau_m", "omega_m", "tau_in", "omega_r"):
            a = _channels(name, getattr(self, name))
            object.__setattr__(self, name, a)
            lengths.add(a.shape[0])
        if len(lengths) != 1:
            raise ValidationError(f"channel-length mismatch: got lengths {sorted(lengths)}")


@dataclass(frozen=True)
class EnergyRecord:
    """Cumulative observed energy after each sample.

    channels holds the six per-axis cumulative energies (translational x, y,
    z then rotational x, y, z) [J]; total is their sum at every sample.
    classification is the per-sample passivity reading.
    """

    times: np.ndarray
    channels: np.ndarray
    total: np.ndarray
    classification: tuple[str, ...]
    dt: float
    tolerance: float


def observed_energy(
    streams: PowerStreams,
    dt: float = DEFAULT_SAMPLE_TIME,
    tolerance: float = DEFAULT_LOSSLESS_TOL,
) -> EnergyRecord:
    """Accumulate the observed energy over the sampled streams, from zero.

    Classification per sample: lossless while |dE| < tolerance, otherwise
    passive (dE < 0) or active (dE > 0). dt must be finite and > 0, the
    tolerance finite and >= 0 (ValidationError).
    """
    require(positive_problem("dt", dt), nonnegative_problem("tolerance", tolerance))
    inc = dt * np.hstack([
        streams.f_m * streams.v_m - streams.f_in * streams.v_r,
        streams.tau_m * streams.omega_m - streams.tau_in * streams.omega_r,
    ])
    # summed onto a zero row, so a first increment of -0.0 accumulates to 0.0
    channels = np.cumsum(np.vstack([np.zeros((1, 6)), inc]), axis=0)[1:]
    total = channels.sum(axis=1)
    classification = tuple(
        "lossless" if abs(e) < tolerance else ("passive" if e < 0.0 else "active")
        for e in total
    )
    n = inc.shape[0]
    return EnergyRecord(
        times=np.arange(1, n + 1) * dt,
        channels=channels,
        total=total,
        classification=classification,
        dt=float(dt),
        tolerance=float(tolerance),
    )


def resample(t_src: np.ndarray, values: np.ndarray, t_dst: np.ndarray) -> np.ndarray:
    """Linear-interpolation resampling of an (N, k) channel block, column by
    column."""
    return np.column_stack([np.interp(t_dst, t_src, column) for column in np.asarray(values, dtype=float).T])


def streams_from_trajectories(
    measured: Trajectory,
    commanded: Trajectory,
    dt: float = DEFAULT_SAMPLE_TIME,
    n_hat: Sequence[float] = (0.0, 0.0, 1.0),
) -> PowerStreams:
    """Build monitor streams from a measured/commanded trajectory pair.

    Both trajectories are resampled onto a common uniform grid with sample
    time dt, up to the last whole sample of the shorter run
    (:func:`docksim.core.sample_count`). In 2D the force acts along z and
    the torque about x; in 3D the recorded intensity is expanded along
    n_hat and the recorded torque used as-is. dt must be finite, > 0 and
    no longer than that run (ValidationError).

    A 3D trajectory CSV holds only the force intensity ``f``, not the wall
    normal, and ``docksim energy`` passes no n_hat: there the force is
    always taken along (0, 0, 1), so a run whose scenario sets another
    ``contact.n_hat`` gets the wrong power, with no warning. Call this
    function with that scenario's ``n_hat=`` instead.
    """
    require("measured and commanded trajectories must share a mode" if measured.mode != commanded.mode else None,
            positive_problem("dt", dt))
    t_end = min(float(measured.times[-1]), float(commanded.times[-1]))
    samples = sample_count(t_end, dt)
    if samples < 1:
        raise ValidationError(f"dt = {dt!r} s gives no sample in a run of {t_end!r} s")
    t = allocate(f"the sample count {samples:.9g} of dt = {dt!r} s", np.arange, 1, samples + 1) * dt

    def expand(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if traj.mode == "2d":
            zeros = np.zeros_like(traj.f)
            force = np.column_stack([zeros, zeros, traj.f])
            vel = np.column_stack([zeros, traj.states[:, 5], traj.states[:, 1]])
            torque = np.column_stack([traj.tau, zeros, zeros])
            omega = np.column_stack([traj.states[:, 3], zeros, zeros])
        else:
            force = traj.f[:, None] * np.asarray(n_hat, dtype=float)[None, :]
            vel = traj.states[:, 3:6]
            torque = traj.tau
            omega = traj.states[:, 9:12]
        return (
            resample(traj.times, force, t),
            resample(traj.times, vel, t),
            resample(traj.times, torque, t),
            resample(traj.times, omega, t),
        )

    f_m, v_m, tau_m, omega_m = expand(measured)
    f_in, v_r, tau_in, omega_r = expand(commanded)
    return PowerStreams(
        f_m=f_m, v_m=v_m, f_in=f_in, v_r=v_r,
        tau_m=tau_m, omega_m=omega_m, tau_in=tau_in, omega_r=omega_r,
    )


def write_energy_csv(record: EnergyRecord, path) -> None:
    """Deterministic export: t, six channel energies, total, class."""
    write_csv(path, ["t", *ENERGY_CHANNELS, "dE_total", "class"],
              [record.times, record.channels, record.total], labels=[record.classification])
