import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import docksim as ds
from docksim.dynamics import integrate_dde, make_rhs_2d
from docksim.linear import (
    characteristic_value,
    default_analysis_stiffness,
    gradient_matrix,
    linearize_2d,
    penetration_dde_coeffs,
    reduced_mass,
    transform_matrix,
    transformed_matrix,
)

from conftest import JX_RECOVERED, M_A, table1_body, table1_contact

# desk-scale parameter draws shared by the matrix identities
param_draws = st.tuples(
    st.floats(5.0, 500.0),            # m
    st.floats(0.5, 500.0),            # J_x
    st.floats(0.05, 0.5),             # a
    st.floats(0.05, math.pi / 2 - 0.05),  # alpha
    st.floats(10.0, 1e4),             # k
    st.floats(0.0, 200.0),            # b
)


class TestReducedMass:
    def test_frontal_contact_degenerates_to_translation(self):
        assert reduced_mass(60.0, 1.0, 0.3, math.pi / 2) == pytest.approx(60.0)

    def test_high_inertia_limit(self):
        assert reduced_mass(60.0, 1e12, 0.3, math.radians(30)) == pytest.approx(60.0, rel=1e-9)

    def test_recovers_stated_reduced_mass(self):
        # J_x implied by m_a = 15.6 kg at (m, a, alpha) = (60, 0.3, 30 deg);
        # algebraic inversion gives J_x = 4.05 * 15.6 / 44.4 = 1.423 kg m^2
        assert JX_RECOVERED == pytest.approx(1.423, abs=5e-4)
        assert reduced_mass(60.0, JX_RECOVERED, 0.3, math.radians(30)) == pytest.approx(M_A, rel=1e-12)

    @given(param_draws)
    def test_bounded_by_m(self, draw):
        m, J_x, a, alpha, _, _ = draw
        m_a = reduced_mass(m, J_x, a, alpha)
        assert 0.0 < m_a <= m


class TestLinearize:
    def test_unit_parameter_matrix(self):
        F = gradient_matrix(m=1.0, J_x=1.0, a=1.0, alpha=0.0, k=1.0, b=1.0)
        expected = np.array([
            [0, 1, 0, 0],
            [-1, -1, 1, 1],
            [0, 0, 0, 1],
            [1, 1, -1, -1],
        ], dtype=float)
        assert np.array_equal(F, expected)
        # the full model path accepts alpha = 0 too (wall-parallel probe)
        body = ds.BodyParams(m=1.0, J=np.eye(3), a_B=[0, 0, 1])
        model = linearize_2d(body, ds.ContactParams(k_v=1.0, b_v=1.0, alpha=0.0))
        assert np.array_equal(model.F_x, expected)
        assert model.m_a == pytest.approx(0.5)

    def test_unit_parameter_transformed_row(self):
        m_a = reduced_mass(1.0, 1.0, 1.0, 0.0)
        assert m_a == pytest.approx(0.5)
        F_y = transformed_matrix(1.0, m_a, 1.0, 1.0)
        assert np.allclose(F_y[3], [0, 0, -2.0, -2.0])

    def test_model_at_reference_point(self):
        model = linearize_2d(table1_body(), table1_contact(b_v=50.0))
        assert model.k == 3000.0 and model.b == 50.0
        assert model.m_a == pytest.approx(M_A, rel=1e-12)
        assert model.nominal.z == pytest.approx(-0.15)
        # lower-right block of F_y is the penetration mode
        assert model.F_y[2, 3] == 1.0
        assert model.F_y[3, 2] == pytest.approx(-3000.0 / M_A)
        assert model.F_y[3, 3] == pytest.approx(-50.0 / M_A)

    def test_rejects_degenerate_transformation(self):
        contact = ds.ContactParams(k_v=100.0, b_v=0.0, alpha=math.pi / 2)
        with pytest.raises(ValueError, match="degenerates"):
            linearize_2d(table1_body(), contact)

    def test_gradient_matches_finite_differences(self):
        body, contact = table1_body(), table1_contact(b_v=50.0, activation="bilateral")
        model = linearize_2d(body, contact)
        rhs = make_rhs_2d(body, contact)
        x0 = model.nominal.as_vector()
        fd = np.empty((4, 4))
        delta = 1e-6
        for j in range(4):
            up, dn = x0.copy(), x0.copy()
            up[j] += delta
            dn[j] -= delta
            fd[:, j] = (np.asarray(rhs(up, up)[:4]) - np.asarray(rhs(dn, dn)[:4])) / (2 * delta)
        scale = np.abs(model.F_x).max()
        assert np.abs(fd - model.F_x).max() / scale < 1e-5

    @settings(max_examples=300)
    @given(param_draws)
    def test_similarity_identity(self, draw):
        m, J_x, a, alpha, k, b = draw
        F_x = gradient_matrix(m, J_x, a, alpha, k, b)
        T = transform_matrix(a, alpha)
        F_y = transformed_matrix(m, reduced_mass(m, J_x, a, alpha), k, b)
        assert np.abs(F_y - T @ F_x @ np.linalg.inv(T)).max() < 1e-10 * max(1.0, np.abs(F_y).max())

    @given(param_draws)
    def test_transformed_zero_pattern(self, draw):
        m, J_x, a, alpha, k, b = draw
        F_y = transformed_matrix(m, reduced_mass(m, J_x, a, alpha), k, b)
        zeros = [(0, 0), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
        for i, j in zeros:
            assert F_y[i, j] == 0.0

    def test_default_analysis_stiffness_bounds_every_attitude(self):
        springs = ((4000.0, np.array([0.0, 0.0, 1.0])),
                   (1000.0, np.array([1.0, 0.0, 0.0])),
                   (1000.0, np.array([-0.5, math.sqrt(3) / 2, 0.0])),
                   (1000.0, np.array([-0.5, -math.sqrt(3) / 2, 0.0])))
        contact = ds.ContactParams(k_v=500.0, b_v=0.0, alpha=0.5, springs=springs)
        bound = default_analysis_stiffness(contact)
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert ds.contact_stiffness(500.0, springs, *n) <= bound + 1e-9


class TestPenetrationDdeCoeffs:
    def test_reference_point(self):
        mu, beta, kappa = penetration_dde_coeffs(table1_body(), table1_contact(b_v=50.0))
        assert mu == pytest.approx(M_A, rel=1e-12)
        assert beta == 50.0
        assert kappa == 3000.0

    def test_frontal_case_is_plain_oscillator(self):
        body = table1_body()
        contact = ds.ContactParams(k_v=1000.0, b_v=20.0, alpha=math.pi / 2)
        mu, beta, kappa = penetration_dde_coeffs(body, contact)
        assert mu == pytest.approx(body.m)
        assert (beta, kappa) == (20.0, 1000.0)

    def test_four_state_and_scalar_dde_agree(self):
        # integrate the delayed perturbation system and the standalone
        # penetration equation; the extracted depth must match
        body, contact = table1_body(), table1_contact(b_v=50.0)
        model = linearize_2d(body, contact)
        mu, beta, kappa = penetration_dde_coeffs(body, contact)
        a_c = body.a * math.cos(contact.alpha)
        F_x = model.F_x
        rhs4 = lambda y, yd: np.array([y[1], F_x[1] @ yd, y[3], F_x[3] @ yd])
        x0 = np.array([1e-3, 0.0, 2e-3, 0.0])
        _, Y4 = integrate_dde(rhs4, x0, 1e-4, 0.5, 0.016)
        depth_4state = Y4[:, 0] - a_c * Y4[:, 2]
        rhs2 = lambda y, yd: np.array([y[1], (-kappa * yd[0] - beta * yd[1]) / mu])
        d0 = np.array([x0[0] - a_c * x0[2], x0[1] - a_c * x0[3]])
        _, Y2 = integrate_dde(rhs2, d0, 1e-4, 0.5, 0.016)
        assert np.abs(depth_4state - Y2[:, 0]).max() < 1e-9


class TestCharacteristicValue:
    def test_delay_free_quadratic_root(self):
        mu, beta, kappa = 2.0, 3.0, 5.0
        s = (-beta + cmath.sqrt(complex(beta * beta - 4 * mu * kappa, 0.0))) / (2 * mu)
        assert abs(characteristic_value(mu, beta, kappa, 0.0, s)) < 1e-12

    def test_undamped_imaginary_root(self):
        s = 1j * math.sqrt(3000.0 / M_A)
        assert abs(characteristic_value(M_A, 0.0, 3000.0, 0.0, s)) < 1e-9

    def test_readme_dominant_root(self):
        # Newton from the undelayed, undamped root i*sqrt(kappa/mu) finds the
        # dominant root the README quotes for the beta = 0 Table 1 point
        mu, kappa, h = 15.6, 3000.0, 0.016
        s = 1j * math.sqrt(kappa / mu)
        for _ in range(50):
            slope = 2.0 * mu * s - h * kappa * cmath.exp(-s * h)
            s -= characteristic_value(mu, 0.0, kappa, h, s) / slope
        assert abs(characteristic_value(mu, 0.0, kappa, h, s)) < 1e-9 * kappa
        # the README's figures are rounded to 4 significant digits
        assert s == pytest.approx(1.490 + 13.62j, rel=1e-3)
        assert round(math.exp(math.pi * s.real / s.imag), 2) == 1.41

    def test_vanishes_at_computed_crossing(self):
        mu, beta, kappa = M_A, 50.0, 3000.0
        omega_c = ds.crossing_frequency(mu, beta, kappa)
        h_c, _ = ds.critical_delays(mu, beta, kappa)
        assert abs(characteristic_value(mu, beta, kappa, h_c, 1j * omega_c)) < 1e-8 * kappa
