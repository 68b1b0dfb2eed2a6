"""Linearization of the planar model about the nominal contact state.

The four analysis states are x = (z, v_z, theta, omega). About the nominal
state (z* = -a sin(alpha), v_z* = 0, theta* = pi/2 - alpha, omega* = 0) the
perturbation dynamics are delay-linear with gradient matrix F_x. The
transformation T maps to coordinates y = (z, v_z, d, d_dot) whose dynamics
matrix F_y is block-triangular: the penetration pair (d, d_dot) is
autonomous with reduced mass m_a, so the whole stability question reduces
to a scalar second-order delay equation

    m_a * d''(t) + b * d'(t-h) + k * d(t-h) = 0.

The stiffness/damping pair (k, b) fed to the linearization is the analysis
pair: a time-invariant upper bound on the state-dependent k_phi + k_v and
the virtual damping b_v. By default k uses the largest eigenvalue of the
compliance-device stiffness tensor, which bounds k_phi for every attitude.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .contact import stiffness_tensor
from .core import (
    BodyParams,
    ChaserState2D,
    ContactParams,
    ValidationError,
    nominal_state_2d,
    nonnegative_problem,
    positive_problem,
    require,
)


def reduced_mass(m: float, J_x: float, a: float, alpha: float) -> float:
    """Effective inertia of the penetration mode:
    m_a = m / (1 + m (a cos alpha)^2 / J_x). Equals m for frontal contact
    (cos alpha = 0) and approaches m again as J_x -> infinity."""
    arm = a * math.cos(alpha)
    return m / (1.0 + m * arm * arm / J_x)


def gradient_matrix(m: float, J_x: float, a: float, alpha: float, k: float, b: float) -> np.ndarray:
    """Gradient of the planar right-hand side at the nominal state, for the
    permanently-active (bilateral) contact law."""
    c = math.cos(alpha)
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-k / m, -b / m, k * a * c / m, b * a * c / m],
        [0.0, 0.0, 0.0, 1.0],
        [k * a * c / J_x, b * a * c / J_x, -k * a * a * c * c / J_x, -b * a * a * c * c / J_x],
    ])


def transform_matrix(a: float, alpha: float) -> np.ndarray:
    """Map from x = (z, v_z, theta, omega) to y = (z, v_z, d, d_dot)."""
    ac = a * math.cos(alpha)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, -ac, 0.0],
        [0.0, 1.0, 0.0, -ac],
    ])


def transformed_matrix(m: float, m_a: float, k: float, b: float) -> np.ndarray:
    """Closed form of the transformed dynamics matrix: rows for (z, v_z)
    driven by the contact pair, and the autonomous lower-right block
    [[0, 1], [-k/m_a, -b/m_a]]."""
    return np.array([
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, -k / m, -b / m],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -k / m_a, -b / m_a],
    ])


@dataclass(frozen=True)
class LinearModel2D:
    """Linearized planar contact model.

    F_x     : 4x4 gradient matrix at the nominal state
    T       : 4x4 state transformation to (z, v_z, d, d_dot)
    F_y     : 4x4 transformed dynamics matrix (= T F_x T^-1)
    m_a     : reduced mass of the penetration mode [kg]
    k, b    : analysis stiffness [N/m] and damping [N*s/m] used
    nominal : nominal planar state the model is linearized about
    """

    F_x: np.ndarray
    T: np.ndarray
    F_y: np.ndarray
    m_a: float
    k: float
    b: float
    nominal: ChaserState2D


def default_analysis_stiffness(contact: ContactParams) -> float:
    """k_v plus the attitude-independent upper bound on the compliance
    device's effective stiffness (largest eigenvalue of its stiffness
    tensor, which dominates k_phi = n.K.n for every unit normal)."""
    k = contact.k_v
    if contact.springs:
        k += float(np.linalg.eigvalsh(stiffness_tensor(contact.springs)).max())
    return k


def linearize_2d(
    params: BodyParams,
    contact: ContactParams,
    k: float | None = None,
    b: float | None = None,
) -> LinearModel2D:
    """Build the linear model at the nominal contact state.

    k and b default as in :func:`penetration_dde_coeffs`. Raises
    ValidationError when k or b is not finite and >= 0, when m_a underflows
    to 0 or a matrix entry overflows, at alpha = pi/2, where the
    transformation degenerates (a cos alpha = 0), and, through
    :func:`docksim.core.nominal_state_2d`, at any alpha outside [0, pi/2).
    F_y is the closed form; tests check it against the similarity
    transform T F_x T^-1.
    """
    alpha = contact.alpha
    a = params.a
    if abs(a * math.cos(alpha)) < 1e-12:
        raise ValidationError("alpha = pi/2 (frontal contact): transformation degenerates, "
                              "the system is the plain 1D oscillator in (z, v_z)")
    m_a, b, k = penetration_dde_coeffs(params, contact, k=k, b=b)
    require(nonnegative_problem("k", k), nonnegative_problem("b", b), positive_problem("m_a", m_a))
    m = params.m
    J_x = params.J_x
    F_x = gradient_matrix(m, J_x, a, alpha, k, b)
    T = transform_matrix(a, alpha)
    F_y = transformed_matrix(m, m_a, k, b)
    if not (np.isfinite(F_x).all() and np.isfinite(F_y).all()):
        raise ValidationError(f"linearization out of floating-point range at m={m!r}, "
                              f"J_x={J_x!r}, k={k!r}, b={b!r}")
    nominal = nominal_state_2d(params, contact)
    return LinearModel2D(F_x=F_x, T=T, F_y=F_y, m_a=m_a, k=k, b=b, nominal=nominal)


def penetration_dde_coeffs(
    params: BodyParams,
    contact: ContactParams,
    k: float | None = None,
    b: float | None = None,
) -> tuple[float, float, float]:
    """Coefficient triple (mu, beta, kappa) of the penetration-depth delay
    equation mu d''(t) + beta d'(t-h) + kappa d(t-h) = 0, i.e. (m_a, b, k);
    k defaults to default_analysis_stiffness(contact) and b to b_v."""
    if k is None:
        k = default_analysis_stiffness(contact)
    if b is None:
        b = contact.b_v
    m_a = reduced_mass(params.m, params.J_x, params.a, contact.alpha)
    return (m_a, float(b), float(k))


def characteristic_value(mu: float, beta: float, kappa: float, h: float, s: complex) -> complex:
    """Contact-mode factor of the characteristic quasi-polynomial:
    mu s^2 + e^(-s h) (beta s + kappa). With (mu, beta, kappa) =
    (m_a, b, k), the linearized 4-state model's det(sI - A0 - A1 e^(-s h))
    is this factor times s^2 / m_a, the rigid double integrator."""
    return mu * s * s + cmath.exp(-s * h) * (beta * s + kappa)
