"""Domain types, unit conventions and parameter validation.

Units are SI throughout: kg, m, s, N, N/m, N*s/m, rad. Angles are radians
internally; degree-valued keys are converted at the scenario-file boundary
(see :mod:`docksim.cli`). Sign convention for contact: the penetration depth
``d`` is negative while the probe tip is past the wall, so the spring force
``-k*d`` is positive (outward along the wall normal) during contact.

All types here are value carriers whose constructors check only the
shape of what they hold, raising :class:`ValidationError`: ``BodyParams``
a 3x3 J, ``ContactParams`` and ``ChaserState3D`` their 3-vectors (through
``_vec``), ``SimConfig`` a whole ``record_every``. :func:`validate` is the
single gate that checks every other invariant (finiteness, signs and
ranges, unit norms, the delay and the step count) and reports all
violations at once. :func:`require` is the one way an input check
raises: it turns the diagnostics of the ``*_problem`` rules into one
:class:`ValidationError`. :func:`step_count` is the one rule for how many
fixed steps a run takes, :func:`delay_problem` the one rule for which
delays a run accepts, :func:`nonnegative_problem` the one rule for a value
that must be finite and >= 0 (a delay, a stiffness, a damping, an averaging
window, a neutrality band, a tolerance), :func:`positive_problem` the one
rule for a value that must be finite and > 0 (a mass, a step, a sample
time), and :func:`write_csv` the one writer of the
9-significant-digit CSV data files, which formats bounded chunks of rows
with one ``%.9g`` format each and checks the header and label columns
against the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Sequence, Union

import numpy as np

# Vectors whose norm is within this distance of 1 are renormalized by
# validate(); anything further off is rejected as a bad input.
UNIT_RENORM_TOL = 1e-6
# Norm already this close to 1 is left untouched, which makes validate()
# exactly idempotent (renormalizing twice would wiggle the last ulp).
UNIT_EXACT_TOL = 1e-12
# t_end/dt may differ from a whole number by this fraction of itself (the
# rounding of decimal inputs such as 1.2/1e-4 = 11999.999999999998).
STEP_COUNT_RTOL = 1e-9
# Rows that write_csv formats with one printf-style call: bounded, so a
# chunk's text stays small, and large enough that the per-call overhead
# vanishes (64 to 1024 rows write a 12 001 x 9 table equally fast).
_CSV_CHUNK_ROWS = 512


class ValidationError(ValueError):
    """An input error, with one diagnostic per violation: raised by
    :func:`require` with every diagnostic of a check, and with a single
    message by the readers and the type constructors."""

    def __init__(self, diagnostics: list[str] | str):
        self.diagnostics = [diagnostics] if isinstance(diagnostics, str) else list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def require(*problems: str | None) -> None:
    """Raise one ValidationError carrying every diagnostic among problems
    that is not None, in order; return when all are None."""
    diags = [p for p in problems if p is not None]
    if diags:
        raise ValidationError(diags)


def _norm(vec: np.ndarray) -> float:
    """|vec|; inf, without numpy's overflow warning, where its square
    overflows (validate rejects such a vector)."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(vec))


def _vec(x, n: int) -> np.ndarray:
    a = np.array(x, dtype=float, copy=True).reshape(-1)
    if a.size != n:
        raise ValidationError(f"expected length-{n} vector, got shape {np.shape(x)}")
    return a


@dataclass(frozen=True)
class BodyParams:
    """Chaser rigid-body parameters.

    m    : mass [kg]
    J    : 3x3 inertia tensor about the chaser center of mass, body frame
           [kg*m^2]; planar paths read the x-axis principal value J[0,0]
    a_B  : probe vector from the center of mass B to the tip P, body frame [m]
    """

    m: float
    J: np.ndarray
    a_B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", float(self.m))
        J = np.array(self.J, dtype=float, copy=True)
        if J.shape != (3, 3):
            raise ValidationError(f"J must be 3x3, got shape {J.shape}")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "a_B", _vec(self.a_B, 3))
        self.J.flags.writeable = False
        self.a_B.flags.writeable = False

    @property
    def J_x(self) -> float:
        """x-axis principal inertia used by the planar model [kg*m^2]."""
        return float(self.J[0, 0])

    @property
    def a(self) -> float:
        """Probe length |a_B| used by the planar model [m]."""
        return _norm(self.a_B)


@dataclass(frozen=True)
class ContactParams:
    """Contact interface parameters.

    k_v        : virtual (software) stiffness [N/m]
    b_v        : virtual damping [N*s/m]
    springs    : compliance-device springs as (k_i [N/m], l_hat_i) pairs;
                 l_hat_i are unit attach directions expressed in the chaser
                 body frame (they are configuration inputs per evaluation)
    n_hat      : outward unit normal of the local tangent plane, nozzle frame
    alpha      : nozzle cone half-angle [rad], 0 < alpha < pi/2
    activation : "unilateral" (force only while penetrated) or "bilateral"
    """

    k_v: float
    b_v: float
    alpha: float
    springs: tuple = ()
    n_hat: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    activation: str = "unilateral"

    def __post_init__(self):
        object.__setattr__(self, "k_v", float(self.k_v))
        object.__setattr__(self, "b_v", float(self.b_v))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "n_hat", _vec(self.n_hat, 3))
        springs = tuple((float(k), _vec(l, 3)) for k, l in self.springs)
        object.__setattr__(self, "springs", springs)
        self.n_hat.flags.writeable = False
        for _, l in springs:
            l.flags.writeable = False


@dataclass(frozen=True)
class ChaserState3D:
    """Reduced 12-state rigid-body state of the chaser.

    r    : position of the center of mass B in the nozzle frame N [m]
    v    : velocity of B in N [m/s]
    d_c3 : third column of the N->B rotation matrix, i.e. the wall normal
           expressed in the body frame [-]; unit up to integrator tolerance
    omega: angular velocity of the body w.r.t. N, body frame [rad/s]
    """

    r: np.ndarray
    v: np.ndarray
    d_c3: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("r", "v", "d_c3", "omega"):
            a = _vec(getattr(self, name), 3)
            object.__setattr__(self, name, a)
            a.flags.writeable = False

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.v, self.d_c3, self.omega])


@dataclass(frozen=True)
class ChaserState2D:
    """Planar chaser state: motion in the (y,z)-plane, rotation about x.

    y, z    : position of B in the nozzle frame [m]
    v_y, v_z: velocity of B [m/s]
    theta   : rotation angle about x bringing frame N onto frame B [rad]
    omega   : angular rate theta-dot [rad/s]
    """

    z: float
    v_z: float
    theta: float
    omega: float
    y: float = 0.0
    v_y: float = 0.0

    def __post_init__(self):
        for name in ("z", "v_z", "theta", "omega", "y", "v_y"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def as_vector(self) -> np.ndarray:
        """Order (z, v_z, theta, omega, y, v_y): the four analysis states
        first, the decoupled wall-parallel pair appended."""
        return np.array([self.z, self.v_z, self.theta, self.omega, self.y, self.v_y])

    def embed_3d(self) -> ChaserState3D:
        """Embed into the 12-state model (plane = N's (y,z), rotation about x)."""
        return ChaserState3D(
            r=[0.0, self.y, self.z],
            v=[0.0, self.v_y, self.v_z],
            d_c3=[0.0, math.sin(self.theta), math.cos(self.theta)],
            omega=[self.omega, 0.0, 0.0],
        )


AnyState = Union[ChaserState2D, ChaserState3D]


@dataclass(frozen=True)
class SimConfig:
    """Simulation run configuration.

    h            : tracking delay [s]; recorded exactly, never rounded to the
                   step grid (the delay line interpolates)
    dt           : integration step [s]
    t_end        : run duration [s]
    initial      : ChaserState2D or ChaserState3D
    record_every : output decimation factor (1 = keep every step); a whole
                   number (2.0 reads as 2, 2.9 raises ValidationError)
    """

    h: float
    dt: float
    t_end: float
    initial: AnyState
    record_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not float(self.record_every).is_integer():
            raise ValidationError(f"record_every must be a whole number, got {self.record_every!r}")
        object.__setattr__(self, "record_every", int(self.record_every))


def nominal_state_2d(params: BodyParams, contact: ContactParams) -> ChaserState2D:
    """Planar state in which the probe tip rests on the wall with zero
    penetration depth and rate: z* = -a*sin(alpha), theta* = pi/2 - alpha,
    zero velocities. alpha = 0 (probe parallel to the wall) has one;
    alpha = pi/2 is the frontal contact and beyond it none.
    """
    alpha = contact.alpha
    if not 0.0 <= alpha < math.pi / 2:
        raise ValidationError([f"alpha must be in [0, pi/2), got {alpha!r}"])
    a = params.a
    return ChaserState2D(
        z=-a * math.sin(alpha),
        v_z=0.0,
        theta=math.pi / 2 - alpha,
        omega=0.0,
    )


def activation_problem(activation) -> str | None:
    """The diagnostic for a contact activation other than "unilateral" or
    "bilateral", else None."""
    if activation in ("unilateral", "bilateral"):
        return None
    return f"activation must be 'unilateral' or 'bilateral', got {activation!r}"


def nonnegative_problem(name: str, x: float) -> str | None:
    """The diagnostic for a value x that is not finite and >= 0, else None."""
    return None if 0.0 <= x < math.inf else f"{name} must be finite and >= 0, got {x!r}"


def positive_problem(name: str, x: float) -> str | None:
    """The diagnostic for a value x that is not finite and > 0, else None."""
    return None if 0.0 < x < math.inf else f"{name} must be finite and > 0, got {x!r}"


def delay_problem(h: float, dt: float = 0.0) -> str | None:
    """The diagnostic for a delay h that a run with steps dt cannot use,
    else None. h must be finite and >= 0, and 0 or >= dt: the explicit
    fixed-step scheme resolves delayed arguments from completed steps only.
    h/dt, the delay in steps, must be finite too. The default dt = 0 checks
    the first part alone."""
    if 0.0 < h < dt:
        return f"delay h = {h!r} must be 0 or >= dt = {dt!r}"
    if dt and math.isfinite(h) and h / dt == math.inf:
        return f"delay h = {h!r} is beyond the float range in steps dt = {dt!r}"
    return nonnegative_problem("h", h)


def step_count(t_end: float, dt: float) -> int:
    """Number of fixed steps dt in t_end: a whole number >= 1 up to a
    relative STEP_COUNT_RTOL, else ValidationError (never silently
    rounded)."""
    steps = t_end / dt if dt > 0.0 else math.nan
    if not (math.isfinite(steps) and abs(steps - round(steps)) <= STEP_COUNT_RTOL * abs(steps)):
        raise ValidationError(f"t_end = {t_end!r} is not a whole number of steps "
                              f"dt = {dt!r} (t_end/dt = {steps:.9g})")
    n = round(steps)
    if n < 1:
        raise ValidationError(f"t_end = {t_end!r} must cover at least one step dt = {dt!r}")
    return n


def sample_count(span: float, dt: float) -> int:
    """Number of whole sample periods dt in span >= 0: span/dt floored,
    except that a quotient within a relative STEP_COUNT_RTOL of a whole
    number counts as that number, as in step_count (0.284/0.004 =
    70.99999999999999 gives 71)."""
    q = span / dt
    n = round(q)
    return n if abs(q - n) <= STEP_COUNT_RTOL * q else math.floor(q)


def allocate(what: str, make, *args):
    """make(*args), a numpy allocation sized by a count from the input;
    numpy's ValueError for a size beyond what its arrays can index, and its
    MemoryError for one the process cannot get, become a ValidationError
    that names ``what``, the count asked for. An allocation that succeeds
    and runs out of memory only as it is filled is not caught here."""
    try:
        return make(*args)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"{what} is too large: {exc}") from None


def write_csv(path, header: Sequence[str], columns: Sequence, labels: Sequence[Sequence[str]] = ()) -> None:
    """Header line, then one row per sample: the ``columns`` side by side
    (2-D blocks keep their columns) at 9 significant digits, negative zeros
    as 0 and every nan, signaling ones included, as nan, followed by the
    text columns ``labels``. A header whose length is
    not the column count, or a label column whose length is not the row
    count, raises ValueError. Rows are formatted ``_CSV_CHUNK_ROWS`` at a
    time with one ``%`` format per chunk, never as a Python copy of the
    whole table."""
    block = np.column_stack(columns)
    # squash negative zeros for stable formatting; a signaling nan turns
    # quiet here, which numpy flags as invalid
    with np.errstate(invalid="ignore"):
        block += 0.0
    rows, width = block.shape
    if len(header) != width + len(labels):
        raise ValueError(f"header has {len(header)} names for {width} value and "
                         f"{len(labels)} label columns")
    for j, col in enumerate(labels):
        if len(col) != rows:
            raise ValueError(f"label column {j} has {len(col)} rows, the values have {rows}")
    # "%.9g" % x and "{:.9g}".format(x) are the same float-to-text conversion
    line = ",".join(["%.9g"] * width + ["%s"] * len(labels)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, rows, _CSV_CHUNK_ROWS):
            cols = block[i:i + _CSV_CHUNK_ROWS].T.tolist()
            cols += [col[i:i + _CSV_CHUNK_ROWS] for col in labels]
            fh.write((line * len(cols[0])) % tuple(chain.from_iterable(zip(*cols))))


def _check_unit(name: str, vec: np.ndarray, diags: list[str | None]) -> np.ndarray:
    """Renormalize a nearly-unit vector; reject anything further off."""
    norm = _norm(vec)
    if abs(norm - 1.0) <= UNIT_EXACT_TOL:
        return vec
    if abs(norm - 1.0) <= UNIT_RENORM_TOL:
        out = vec / norm
        out.flags.writeable = False
        return out
    diags.append(f"{name} not unit (|{name}| = {norm:.9g})")
    return vec


def validate(
    params: BodyParams, contact: ContactParams, sim: SimConfig
) -> tuple[BodyParams, ContactParams, SimConfig]:
    """Check every type invariant and return the (possibly renormalized)
    bundle. Raises ValidationError carrying one diagnostic per violation;
    nothing is ever silently clamped. Idempotent: a bundle that already
    passed comes back unchanged.
    """
    diags = [positive_problem("m", params.m)]
    if not np.all(np.isfinite(params.J)):
        diags.append("J has non-finite entries")
    else:
        if not np.allclose(params.J, params.J.T, rtol=0.0, atol=1e-9 * max(1.0, float(np.abs(params.J).max()))):
            diags.append("J must be symmetric")
        elif np.linalg.eigvalsh(params.J).min() <= 0.0:
            diags.append("J must be positive definite")
    if not np.all(np.isfinite(params.a_B)):
        diags.append("a_B has non-finite entries")
    elif params.a <= 0.0:
        diags.append("probe vector a_B must have positive length")
    elif params.a == math.inf:
        diags.append("probe vector a_B is too long: |a_B| overflows a float")

    diags += [nonnegative_problem("k_v", contact.k_v), nonnegative_problem("b_v", contact.b_v)]
    new_springs = []
    for i, (k_i, l_hat) in enumerate(contact.springs):
        diags.append(nonnegative_problem(f"spring k_{i + 1}", k_i))
        new_springs.append((k_i, _check_unit(f"l_hat_{i + 1}", l_hat, diags)))
    # the sum bounds every stiffness the contact law and the linearization form
    stiffnesses = [contact.k_v, *(k_i for k_i, _ in contact.springs)]
    if all(0.0 <= k < math.inf for k in stiffnesses) and sum(stiffnesses) == math.inf:
        diags.append("stiffness k_v + sum of spring k_i overflows a float")
    n_hat = _check_unit("n_hat", contact.n_hat, diags)
    if not 0.0 < contact.alpha < math.pi / 2:
        diags.append(f"alpha must be in (0, pi/2) rad, got {contact.alpha!r}")
    diags.append(activation_problem(contact.activation))

    dt_problem = positive_problem("dt", sim.dt)
    diags += [delay_problem(sim.h, 0.0 if dt_problem else sim.dt), dt_problem]
    if not math.isfinite(sim.t_end) or not sim.t_end > sim.dt:
        diags.append(f"t_end = {sim.t_end!r} must be finite and exceed dt = {sim.dt!r}")
    elif sim.dt > 0.0:
        try:
            step_count(sim.t_end, sim.dt)
        except ValidationError as exc:
            diags += exc.diagnostics
    if sim.record_every < 1:
        diags.append(f"record_every must be >= 1, got {sim.record_every!r}")

    initial = sim.initial
    if isinstance(initial, ChaserState2D):
        vals = initial.as_vector()
        if not np.all(np.isfinite(vals)):
            diags.append("initial 2D state has non-finite entries")
        elif not 0.0 <= initial.theta <= math.pi:
            diags.append(f"theta must lie in [0, pi] for valid contact geometry, got {initial.theta!r}")
    elif isinstance(initial, ChaserState3D):
        if not np.all(np.isfinite(initial.as_vector())):
            diags.append("initial 3D state has non-finite entries")
        else:
            d_c3 = _check_unit("d_c3", initial.d_c3, diags)
            if d_c3 is not initial.d_c3:
                initial = replace(initial, d_c3=d_c3)
    else:
        diags.append(f"initial must be ChaserState2D or ChaserState3D, got {type(initial).__name__}")

    require(*diags)

    if any(l1 is not l2 for (_, l1), (_, l2) in zip(contact.springs, new_springs)) or n_hat is not contact.n_hat:
        contact = replace(contact, springs=tuple(new_springs), n_hat=n_hat)
    if initial is not sim.initial:
        sim = replace(sim, initial=initial)
    return params, contact, sim
