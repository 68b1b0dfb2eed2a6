"""Pole-location stability analysis of the second-order delay system
mu s^2 + e^(-s h) (beta s + kappa) and stability-region sweeps.

As the delay grows from zero, pairs of characteristic roots cross the
imaginary axis at the crossing frequency

    omega_c = sqrt( beta^2/(2 mu^2) + sqrt( beta^4/(4 mu^4) + kappa^2/mu^2 ) )

which is independent of h, at the delays

    h_n = ( arctan(omega_c beta / kappa) + 2 pi n ) / omega_c,  n = 0, 1, ...

The crossing direction indicator sigma = sqrt(beta^4/(4 mu^4) + kappa^2/mu^2)
is strictly positive here, so every crossing is a switch (a root pair leaving
the open left half-plane): the system is stable exactly for h below the
first critical delay h_c = h_0. Without damping (beta = 0) the critical
delay is 0. For omega_c*beta << kappa the approximation h_c = beta/kappa
holds.

Every h_c reported here is that h_0. :func:`analyze` and
:func:`critical_delays` report it for the coefficients they are given.
:func:`verdict_4th_order` reports it for the penetration mode (m_a, b_v, k)
of a scenario's planar linearization, the one contact mode of the
linearized 4-state model: that model's characteristic function factors
into this mode and the rigid-body pair s^2.

The closed form is written once, as the element-wise :func:`_crossing`:
of one point with Python floats and math's sqrt and atan, or of a whole
grid with numpy float64 values, np.sqrt and math.atan mapped over the
values (:func:`_atan_each`). Every other operation in it (+, *, /, sqrt)
rounds correctly on both, but numpy's arctan need not round as libm's
does; with the arctan mapped, a grid point has the single point's bits by
construction. :func:`analyze` is the one checked entry: it checks the
coefficients, n_delays and the floating-point range, and
:func:`critical_delays` and :func:`verdict_4th_order` read it. Two callers
read :func:`_crossing` unchecked: the boundary sweep
(:func:`stability_boundary`), which solves a whole curve along one
coefficient axis in one numpy pass and solves each point that pass flags
again through :func:`analyze`, and the critical-damping bisection, which
checks only the range at each of its steps. :func:`classify` is the one
stable/neutral/unstable rule, used by the delay verdicts and by the
restitution reading.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import ValidationError, delay_problem, nonnegative_problem, positive_problem, require, write_csv
from .linear import penetration_dde_coeffs

CRITICAL_DAMPING_BRACKET_MAX = 1e6
CRITICAL_DAMPING_HTOL = 1e-9  # [s]
DEFAULT_NEUTRAL_BAND = 0.01


def _atan_each(x: np.ndarray) -> np.ndarray:
    """math.atan over each value of x: numpy's own arctan need not round as
    libm's does."""
    return np.array(list(map(math.atan, x.tolist())))


def _crossing(mu, beta, kappa, sqrt=math.sqrt, atan=math.atan):
    """(omega_c, sigma, arctan(omega_c beta / kappa)), element-wise and
    without checks: of one point with Python floats and math's functions,
    or of a grid with numpy float64 values, np.sqrt and :func:`_atan_each`,
    which round alike, so that each grid point has the single point's bits.
    Squares with x * x, which rounds correctly (libm's x ** 2 need not) and
    reads inf where the square overflows; omega_c leaves (0, inf) where the
    coefficients leave the floating-point range."""
    r = beta / mu
    q = kappa / mu
    b2 = r * r
    sigma = sqrt(0.25 * b2 * b2 + q * q)
    omega = sqrt(0.5 * b2 + sigma)
    return omega, sigma, atan(omega * beta / kappa)


def critical_delays(mu: float, beta: float, kappa: float, n_delays: int = 5) -> tuple[float, list[float]]:
    """First critical delay h_c and the first n_delays crossing delays h_n.

    h_n = (arctan(omega_c beta / kappa) + 2 pi n) / omega_c with the
    principal arctan branch (the argument is >= 0, so h_0 >= 0; negative
    branches would give negative delays and are discarded).
    """
    result = analyze(mu, beta, kappa, n_delays=n_delays)
    return result.h_c, list(result.h_n)


def critical_damping(mu: float, kappa: float, h: float) -> float:
    """Damping beta_c whose critical delay equals h, by bisection on the
    rising branch of h_c(beta).

    The bracket starts near the approximation kappa*h and doubles until
    h_c(beta_max) > h; if beta_max reaches 1e6 first, the delay exceeds the
    maximum stabilizable delay and there is no critical damping below the
    bound. Bad coefficients, and a delay out of the closed form's reach,
    raise ValidationError.
    """
    require(positive_problem("mu", mu), positive_problem("kappa", kappa), positive_problem("h", h))

    def h_c(beta: float) -> float:
        # h_0 with the operations of analyze: (base + 2 pi * 0) / omega
        omega, _, base = _crossing(mu, beta, kappa)
        if not 0.0 < omega < math.inf:
            raise ValidationError(f"critical damping at h = {h!r} leaves the floating-point range "
                                  f"of the closed form (mu={mu!r}, kappa={kappa!r})")
        return (base + 0.0) / omega

    hi = max(kappa * h, 1e-9)
    while h_c(hi) <= h:
        hi *= 2.0
        if hi > CRITICAL_DAMPING_BRACKET_MAX:
            raise ValidationError(
                f"no critical damping below bound {CRITICAL_DAMPING_BRACKET_MAX:.0e}: "
                f"delay h = {h!r} exceeds the maximum stabilizable delay"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h_c(mid) < h:
            lo = mid
        else:
            hi = mid
    beta_c = 0.5 * (lo + hi)
    h_back = h_c(beta_c)
    if abs(h_back - h) > CRITICAL_DAMPING_HTOL:
        raise ArithmeticError(f"critical damping bisection did not converge at h = {h!r}")
    return beta_c


def classify(x: float, limit: float, band: float) -> str:
    """Stability reading of x against its limit: "neutral" within the
    relative band |x - limit| <= band * limit, otherwise "stable" below the
    limit and "unstable" above it (exact equality is numerically
    meaningless, hence the band)."""
    if abs(x - limit) <= band * limit:
        return "neutral"
    return "stable" if x < limit else "unstable"


@dataclass(frozen=True)
class StabilityResult:
    """Pole-location summary for one (mu, beta, kappa) point.

    h_n holds the first few crossing delays (strictly increasing); sigma is
    the crossing indicator. verdict is filled only when a query delay h was
    given, using a relative neutrality band around h_c.
    """

    mu: float
    beta: float
    kappa: float
    omega_c: float
    h_c: float
    h_n: tuple[float, ...]
    sigma: float
    h: Optional[float] = None
    verdict: Optional[str] = None

    def as_dict(self) -> dict:
        """Every field, leaving out h and verdict when no delay was given."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def analyze(
    mu: float,
    beta: float,
    kappa: float,
    h: Optional[float] = None,
    n_delays: int = 5,
    band: float = DEFAULT_NEUTRAL_BAND,
) -> StabilityResult:
    """Full pole-location summary: the crossing frequency omega_c, the
    crossing indicator sigma and the first n_delays crossing delays, with
    the verdict when h is given. A coefficient out of its domain, n_delays
    below 1, a closed form that overflows or is not finite, and then an h or
    band that is not finite and >= 0 (band also without h) raise
    ValidationError."""
    require(positive_problem("mu", mu), positive_problem("kappa", kappa), nonnegative_problem("beta", beta),
            None if n_delays >= 1 else f"n_delays must be >= 1, got {n_delays!r}")
    omega_c, sigma, base = _crossing(mu, beta, kappa)
    if not 0.0 < omega_c < math.inf:
        raise ValidationError(f"closed form out of floating-point range at "
                              f"mu={mu!r}, beta={beta!r}, kappa={kappa!r}")
    h_n = tuple((base + 2.0 * math.pi * n) / omega_c for n in range(n_delays))
    require(nonnegative_problem("band", band), None if h is None else delay_problem(h))
    verdict = None if h is None else classify(h, h_n[0], band)
    return StabilityResult(
        mu=mu, beta=beta, kappa=kappa, omega_c=omega_c, h_c=h_n[0],
        h_n=h_n, sigma=sigma, h=h, verdict=verdict,
    )


class BoundaryPoint(NamedTuple):
    """One solved point of the neutral-stability locus; error is the
    diagnostic string when the point failed (its numbers are then nan)."""

    x: float
    h_critical: float
    omega_c: float
    sigma: float
    error: Optional[str] = None


def stability_boundary(
    axis: str,
    grid: Sequence[float],
    mu: Optional[float] = None,
    beta: Optional[float] = None,
    kappa: Optional[float] = None,
) -> list[BoundaryPoint]:
    """Neutral-stability curve h_c(x) along one parameter axis.

    axis names the swept coefficient; the other two must be fixed, and the
    swept one must not be. The whole curve is solved in one numpy pass of
    :func:`_crossing` over the grid, and the points are returned in grid
    order. The pass flags every point :func:`analyze` would reject: a
    coefficient out of its domain (a non-finite one leaves omega_c at 0, inf
    or nan) or omega_c outside (0, inf). Each flagged point is solved again
    by :func:`analyze`, which rejects it by the same rules on the same
    :func:`_crossing` operations; its diagnostic is recorded on the point,
    and the sweep continues.
    """
    if axis not in ("beta", "kappa", "mu"):
        raise ValidationError(f"axis must be 'beta', 'kappa' or 'mu', got {axis!r}")
    fixed = {"mu": mu, "beta": beta, "kappa": kappa}
    if fixed.pop(axis) is not None:
        raise ValidationError(f"sweep along {axis!r} takes no fixed {axis}")
    if any(v is None for v in fixed.values()):
        raise ValidationError(f"sweep along {axis!r} needs the other two coefficients fixed")
    grid = [float(x) for x in grid]
    if not grid:
        raise ValidationError("grid must hold at least one point")
    # as numpy float64 values, a fixed divisor of 0 reads inf rather than raising
    coeffs = {**{name: np.float64(v) for name, v in fixed.items()}, axis: np.array(grid)}
    with np.errstate(all="ignore"):
        omega, sigma, base = _crossing(**coeffs, sqrt=np.sqrt, atan=_atan_each)
        h_c = (base + 0.0) / omega  # analyze's n = 0 term: beta = -0.0 reads h_c = 0.0, not -0.0
    in_domain = (coeffs["mu"] > 0.0) & (coeffs["kappa"] > 0.0) & (coeffs["beta"] >= 0.0)
    suspect = ~(in_domain & (omega > 0.0) & (omega < math.inf))
    # tuple.__new__ is what BoundaryPoint._make calls, without its length check
    points = list(map(tuple.__new__, repeat(BoundaryPoint),
                      zip(grid, h_c.tolist(), omega.tolist(), sigma.tolist(), repeat(None))))
    for i in np.flatnonzero(suspect).tolist():
        x = grid[i]
        try:
            analyze(**fixed, **{axis: x}, n_delays=1)
        except ValidationError as exc:
            points[i] = BoundaryPoint(x, math.nan, math.nan, math.nan, str(exc))
    return points


def write_boundary_csv(points: Sequence[BoundaryPoint], path) -> None:
    """Deterministic curve export: x_value,h_critical,omega_c,sigma."""
    write_csv(path, ["x_value", "h_critical", "omega_c", "sigma"],
              [[getattr(p, f) for p in points] for f in ("x", "h_critical", "omega_c", "sigma")])


def verdict_4th_order(params, contact, h: float, band: float = DEFAULT_NEUTRAL_BAND) -> StabilityResult:
    """Verdict for the linearized 4-state planar model at delay h: the
    :func:`analyze` result of its penetration mode (m_a, b_v, k), the
    coefficients of :func:`docksim.linear.penetration_dde_coeffs`. The
    model's characteristic function det(sI - A0 - A1 e^(-s h)) is
    s^2 (m_a s^2 + e^(-s h)(b_v s + k)) / m_a, and the rigid-body pair s^2
    never crosses, so h_c is the 4-state model's first critical delay."""
    return analyze(*penetration_dde_coeffs(params, contact), h=h, band=band)
