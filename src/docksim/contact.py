"""The contact force law, written once.

The hybrid (physical + virtual) spring-dashpot law is

    f = -(k_phi + k_v) d - b_v d_dot,   k_phi = sum_i k_i (l_hat_i . d_c3)^2,

evaluated on the state sampled at t - h; the delay bookkeeping lives in
:mod:`docksim.dynamics`. Each term is a plain-arithmetic function that
indexes state components (``x[0]``, ``x[6]``, ...), so the same code serves
one state vector inside the right-hand side and a transposed trajectory
(``Y.T``) in post-processing. The activation gate (unilateral: force only
while d < 0) stays with the caller, which tests it before computing the
force.

Sign convention: d < 0 means the probe tip is past the wall, so the spring
force -k*d points outward along the wall normal. In the planar model a
positive force with sin(theta) > 0 creates a negative torque about x.
"""

from __future__ import annotations

import numpy as np


def depth_2d(x, a, cos_theta):
    """Planar penetration depth d = z + a cos(theta) of the state
    x = (z, v_z, theta, omega, ...); cos_theta is cos(x[2])."""
    return x[0] + a * cos_theta


def depth_rate_2d(x, a, sin_theta):
    """Planar depth rate d_dot = v_z - a omega sin(theta); sin_theta is
    sin(x[2])."""
    return x[1] - a * x[3] * sin_theta


def depth_3d(x, n_hat, a_B):
    """Penetration depth d = r.n_hat + a_B.d_c3 of the 12-state
    x = (r, v, d_c3, omega)."""
    n0, n1, n2 = n_hat
    a0, a1, a2 = a_B
    return x[0] * n0 + x[1] * n1 + x[2] * n2 + a0 * x[6] + a1 * x[7] + a2 * x[8]


def depth_rate_3d(x, n_hat, a_B):
    """Depth rate d_dot = v.n_hat + a_B.(d_c3 x omega); d_c3 x omega is the
    attitude-column rate -omega x d_c3."""
    n0, n1, n2 = n_hat
    a0, a1, a2 = a_B
    c0, c1, c2, w0, w1, w2 = x[6], x[7], x[8], x[9], x[10], x[11]
    return (x[3] * n0 + x[4] * n1 + x[5] * n2
            + a0 * (c1 * w2 - c2 * w1) + a1 * (c2 * w0 - c0 * w2) + a2 * (c0 * w1 - c1 * w0))


def contact_stiffness(k_v, springs, c0, c1, c2):
    """Total stiffness k_v + sum_i k_i (l_hat_i . c)^2 along the body-frame
    wall normal c = (c0, c1, c2): the attitude column d_c3 in 3D,
    (0, sin theta, cos theta) in the planar model. springs holds
    (k_i, l_hat_i) pairs in the body frame."""
    k_tot = k_v
    for k_i, (l0, l1, l2) in springs:
        proj = l0 * c0 + l1 * c1 + l2 * c2
        k_tot = k_tot + k_i * proj * proj
    return k_tot


def contact_force(k, b, d, d_dot):
    """Spring-dashpot force intensity f = -k d - b d_dot along the wall
    normal, ungated."""
    return -k * d - b * d_dot


def torque_2d(f, a, sin_theta):
    """Planar contact torque about x: -a f sin(theta)."""
    return -a * f * sin_theta


def torque_3d(f, a_B, c0, c1, c2):
    """Body-frame contact torque f (a_B x d_c3) about the center of mass, as
    a (tau_x, tau_y, tau_z) tuple; d_c3 = (c0, c1, c2) comes from the same
    delayed sample as f."""
    a0, a1, a2 = a_B
    return f * (a1 * c2 - a2 * c1), f * (a2 * c0 - a0 * c2), f * (a0 * c1 - a1 * c0)


def stiffness_tensor(springs) -> np.ndarray:
    """Generalized stiffness tensor of the compliance device,
    K = sum_i k_i * l_hat_i l_hat_i^T (3x3, same frame as the l_hat_i)."""
    K = np.zeros((3, 3))
    for k_i, l_hat in springs:
        l = np.asarray(l_hat, dtype=float)
        K += k_i * np.outer(l, l)
    return K
