import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim import (
    ChaserState2D,
    ChaserState3D,
    ContactParams,
    contact_force,
    contact_stiffness,
    depth_2d,
    depth_3d,
    depth_rate_3d,
    stiffness_tensor,
    torque_2d,
)
from docksim.dynamics import make_rhs_2d, make_rhs_3d

from conftest import approach_config, depth_and_rate_2d, table1_body

N_HAT = np.array([0.0, 0.0, 1.0])
A_B = np.array([0.0, 0.0, 0.3])
M = 60.0
THETA = math.radians(60)

planar_states = st.builds(
    ChaserState2D,
    z=st.floats(-0.3, 0.1),
    v_z=st.floats(-0.1, 0.1),
    theta=st.floats(0.1, math.pi - 0.1),
    omega=st.floats(-1.0, 1.0),
    y=st.floats(-0.1, 0.1),
    v_y=st.floats(-0.1, 0.1),
)


def embed(s: ChaserState2D) -> ChaserState3D:
    return s.embed_3d()


def depth_and_rate_3d(s: ChaserState3D, a_B=A_B, n_hat=N_HAT) -> tuple[float, float]:
    x = s.as_vector()
    return depth_3d(x, n_hat, a_B), depth_rate_3d(x, n_hat, a_B)


def planar_force(contact: ContactParams, z: float, v_z: float = 0.0, theta: float = THETA,
                 omega: float = 0.0) -> float:
    """Force intensity the planar RHS applies for an undelayed sample."""
    y = ChaserState2D(z=z, v_z=v_z, theta=theta, omega=omega).as_vector()
    return make_rhs_2d(table1_body(), contact)(y, y)[1] * M


def unit_body() -> ds.BodyParams:
    # identity inertia and zero rate: omega' is the contact torque itself
    return ds.BodyParams(m=M, J=np.eye(3), a_B=A_B)


def body_torque(contact: ContactParams, state: ChaserState3D) -> np.ndarray:
    y = state.as_vector()
    return make_rhs_3d(unit_body(), contact)(y, y)[9:12]


class TestPenetration:
    def test_cancellation(self):
        state = ChaserState3D(r=[0.0, 0.1, -0.15], v=[0, 0, 0],
                              d_c3=[0.0, math.sin(1.0), math.cos(1.0)], omega=[0, 0, 0])
        a_B = np.array([0.0, 0.0, 0.15 / math.cos(1.0)])
        d, d_dot = depth_and_rate_3d(state, a_B)
        assert d == pytest.approx(0.0, abs=1e-15)
        assert d_dot == 0.0

    def test_explicit_3d_value(self):
        state = ChaserState3D(r=[0, 0, -0.151], v=[0, 0, 0],
                              d_c3=[0.0, math.sin(THETA), math.cos(THETA)],
                              omega=[0, 0, 0])
        d, _ = depth_and_rate_3d(state)
        assert d == pytest.approx(-0.001, abs=1e-15)

    def test_explicit_2d_values(self):
        s = ChaserState2D(z=-0.151, v_z=-0.015, theta=THETA, omega=0.0)
        d, d_dot = depth_and_rate_2d(s, 0.3)
        assert d == pytest.approx(-0.001, abs=1e-15)
        assert d_dot == pytest.approx(-0.015)
        s = ChaserState2D(z=-0.151, v_z=0.0, theta=THETA, omega=0.1)
        _, d_dot = depth_and_rate_2d(s, 0.3)
        assert d_dot == pytest.approx(-0.3 * 0.1 * math.sin(THETA))

    @settings(max_examples=200)
    @given(planar_states)
    def test_3d_reduces_to_2d_on_planar_states(self, s):
        d2, dd2 = depth_and_rate_2d(s, 0.3)
        d3, dd3 = depth_and_rate_3d(embed(s))
        assert abs(d3 - d2) < 1e-12
        assert abs(dd3 - dd2) < 1e-12


class TestSpringDashpot:
    def test_substitution(self):
        c = ContactParams(k_v=3000.0, b_v=0.0, alpha=math.radians(30))
        assert planar_force(c, z=-0.151) == pytest.approx(3.0)

    def test_nominal_zero(self):
        body = table1_body()
        c = ContactParams(k_v=3000.0, b_v=50.0, alpha=math.radians(30), activation="bilateral")
        nom = ds.nominal_state_2d(body, c)
        assert abs(planar_force(c, z=nom.z, theta=nom.theta)) < 1e-12

    def test_mode_semantics_when_separated(self):
        # d = +0.001: no tensile force unilaterally, the full law bilaterally
        uni = ContactParams(k_v=3000.0, b_v=0.0, alpha=math.radians(30))
        bi = ContactParams(k_v=3000.0, b_v=0.0, alpha=math.radians(30), activation="bilateral")
        assert planar_force(uni, z=-0.149) == 0.0
        assert planar_force(bi, z=-0.149) == pytest.approx(-3.0)

    def test_unknown_mode(self, body):
        # an activation outside the two modes must not run under either law
        sticky = ContactParams(k_v=3000.0, b_v=50.0, alpha=math.radians(30), activation="sticky")
        with pytest.raises(ValueError, match="activation"):
            ds.simulate(approach_config(t_end=0.1), body, sticky, mode="2d")

    @given(d=st.floats(-0.01, 0.01), d_dot=st.floats(-0.1, 0.1),
           k=st.floats(0.0, 5000.0), b=st.floats(0.0, 100.0))
    def test_unilateral_gate(self, d, d_dot, k, b):
        c = ContactParams(k_v=k, b_v=b, alpha=math.radians(30))
        z = d - 0.3 * math.cos(THETA)
        d = depth_2d([z], 0.3, math.cos(THETA))  # the depth the RHS sees
        f = planar_force(c, z=z, v_z=d_dot)
        if d >= 0.0:
            assert f == 0.0
        else:
            assert f == pytest.approx(-k * d - b * d_dot, rel=1e-12, abs=1e-15)


unit_vectors = st.builds(
    lambda v: v / np.linalg.norm(v),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3),
)


class TestEffectiveStiffness:
    def test_aligned_spring(self):
        assert contact_stiffness(0.0, [(4000.0, N_HAT)], *N_HAT) == pytest.approx(4000.0)

    def test_orthogonal_spring(self):
        assert contact_stiffness(0.0, [(4000.0, np.array([1.0, 0.0, 0.0]))], *N_HAT) == 0.0

    def test_star_plus_axial_oracle(self):
        # Oracle by explicit direction cosines: star at 120 deg in the xy
        # plane (1000 N/m each), 4000 N/m along the probe z, normal at 45 deg
        # to the probe in the plane of l1:
        #   k_phi = 1000*(1/2) + 2*1000*(1/8) + 4000*(1/2) = 2750
        s3 = math.sqrt(3.0) / 2.0
        springs = [
            (1000.0, np.array([1.0, 0.0, 0.0])),
            (1000.0, np.array([-0.5, s3, 0.0])),
            (1000.0, np.array([-0.5, -s3, 0.0])),
            (4000.0, np.array([0.0, 0.0, 1.0])),
        ]
        n = np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5)])
        assert contact_stiffness(0.0, springs, *n) == pytest.approx(2750.0, rel=1e-12)
        # the stiffness tensor gives the same quadratic form
        assert n @ stiffness_tensor(springs) @ n == pytest.approx(2750.0, rel=1e-12)

    @settings(max_examples=200)
    @given(n=unit_vectors,
           ks=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=5),
           raw=st.data())
    def test_bounds(self, n, ks, raw):
        springs = [(k, raw.draw(unit_vectors)) for k in ks]
        k_phi = contact_stiffness(0.0, springs, *n)
        assert -1e-9 <= k_phi <= sum(ks) * (1.0 + 1e-12)


def normal_spring(k: float):
    """One spring along the planar body-frame wall normal at THETA."""
    return ((k, [0.0, math.sin(THETA), math.cos(THETA)]),)


class TestHybridForce:
    def test_physical_only(self):
        c = ContactParams(k_v=0.0, b_v=0.0, alpha=0.5, springs=normal_spring(1000.0))
        assert planar_force(c, z=-0.152) == pytest.approx(2.0)

    def test_virtual_superposes(self):
        c = ContactParams(k_v=2000.0, b_v=0.0, alpha=0.5, springs=normal_spring(1000.0))
        assert planar_force(c, z=-0.152) == pytest.approx(6.0)

    def test_virtual_damping_only(self):
        # at exactly d = 0 (theta = 0, z = -a) the unilateral gate is off;
        # the force law itself (bilateral) gives the pure damping contribution
        c = ContactParams(k_v=0.0, b_v=50.0, alpha=0.5, activation="bilateral")
        assert planar_force(c, z=-0.3, v_z=-0.02, theta=0.0) == pytest.approx(1.0)
        uni = ContactParams(k_v=0.0, b_v=50.0, alpha=0.5)
        assert planar_force(uni, z=-0.3, v_z=-0.02, theta=0.0) == 0.0

    @given(d=st.floats(-0.01, -1e-6), d_dot=st.floats(-0.1, 0.1),
           k_phi=st.floats(0.0, 5000.0), k_v=st.floats(0.0, 5000.0),
           b_v=st.floats(0.0, 100.0))
    def test_superposition_exact(self, d, d_dot, k_phi, k_v, b_v):
        c = ContactParams(k_v=k_v, b_v=b_v, alpha=0.5, springs=normal_spring(k_phi))
        z = d - 0.3 * math.cos(THETA)
        d = depth_2d([z], 0.3, math.cos(THETA))
        combined = planar_force(c, z=z, v_z=d_dot)
        parts = (contact_force(k_phi, 0.0, d, d_dot)
                 + contact_force(k_v, 0.0, d, d_dot)
                 + contact_force(0.0, b_v, d, d_dot))
        assert combined == pytest.approx(parts, rel=1e-12, abs=1e-12)


class TestWrench:
    def test_zero_force_zero_wrench(self):
        c = ContactParams(k_v=3000.0, b_v=50.0, alpha=0.5)
        separated = ChaserState3D(r=[0, 0, -0.25], v=[0, 0, -0.02], d_c3=[0, 0, 1], omega=[0, 0, 0])
        y = separated.as_vector()
        dy = np.asarray(make_rhs_3d(unit_body(), c)(y, y))
        assert np.all(dy[3:6] == 0.0)
        assert np.all(dy[9:12] == 0.0)

    def test_explicit_cross_product(self):
        c = ContactParams(k_v=3000.0, b_v=0.0, alpha=0.5)
        d_c3 = [0.0, math.sin(THETA), math.cos(THETA)]
        tau = body_torque(c, ChaserState3D(r=[0, 0, -0.151], v=[0, 0, 0], d_c3=d_c3, omega=[0, 0, 0]))
        # 3 N * (0.3 z_hat x d_c3): only the x component survives
        assert tau[0] == pytest.approx(-3.0 * 0.3 * math.sin(THETA))
        assert tau[1] == pytest.approx(0.0, abs=1e-15)
        assert tau[2] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200)
    @given(s=planar_states, k=st.floats(0.0, 15.0), b=st.floats(0.0, 10.0))
    def test_planar_torque_consistency(self, s, k, b):
        # |f| stays below about 16 N, the force range the bound was set for
        c = ContactParams(k_v=k, b_v=b, alpha=0.5, activation="bilateral")
        y = embed(ChaserState2D(z=s.z, v_z=s.v_z, theta=s.theta, omega=0.0)).as_vector()
        dy = make_rhs_3d(unit_body(), c)(y, y)
        f = dy[5] * M
        assert abs(dy[9] - torque_2d(f, 0.3, math.sin(s.theta))) < 1e-12
        assert abs(dy[10]) < 1e-12 and abs(dy[11]) < 1e-12

    def test_negative_torque_convention(self):
        # positive force with sin(theta) > 0 must pull theta down
        c = ContactParams(k_v=3000.0, b_v=0.0, alpha=0.5)
        d_c3 = [0.0, 0.5, math.sqrt(0.75)]
        state = ChaserState3D(r=[0, 0, -0.3 * math.sqrt(0.75) - 0.001], v=[0, 0, 0],
                              d_c3=d_c3, omega=[0, 0, 0])
        assert body_torque(c, state)[0] < 0.0
