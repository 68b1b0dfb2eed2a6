import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import docksim as ds
from docksim.cli import load_scenario, scenario_path
from docksim.linear import linearize_2d, penetration_dde_coeffs
from docksim.stability import (
    BoundaryPoint,
    analyze,
    classify,
    critical_damping,
    critical_delays,
    stability_boundary,
    verdict_4th_order,
    write_boundary_csv,
)

from conftest import M_A, table1_body, table1_contact

coeff_draws = st.tuples(
    st.floats(0.5, 500.0),    # mu
    st.floats(0.0, 500.0),    # beta
    st.floats(10.0, 1e5),     # kappa
)


class TestCrossingFrequency:
    def test_undamped_closed_form(self):
        assert analyze(M_A, 0.0, 3000.0).omega_c == pytest.approx(math.sqrt(3000.0 / M_A), rel=1e-14)

    def test_reference_value(self):
        assert analyze(M_A, 50.0, 3000.0).omega_c == pytest.approx(14.053921121235149, rel=1e-12)

    @given(coeff_draws, st.floats(0.1, 100.0))
    def test_scale_invariance(self, draw, c):
        mu, beta, kappa = draw
        w1 = analyze(mu, beta, kappa).omega_c
        w2 = analyze(c * mu, c * beta, c * kappa).omega_c
        assert w2 == pytest.approx(w1, rel=1e-9)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            analyze(0.0, 1.0, 1.0)


class TestCriticalDelays:
    def test_undamped_critical_delay_is_zero(self):
        h_c, h_n = critical_delays(M_A, 0.0, 3000.0, 3)
        assert h_c == 0.0
        w = math.sqrt(3000.0 / M_A)
        assert h_n == pytest.approx([0.0, 2 * math.pi / w, 4 * math.pi / w])

    def test_reference_value(self):
        h_c, _ = critical_delays(M_A, 50.0, 3000.0)
        assert h_c == pytest.approx(0.016371519727089057, rel=1e-12)
        assert 0.016 <= h_c <= 0.017

    def test_heavy_slow_point_matches_approximation(self):
        # the small-ratio approximation h_c = beta / kappa
        assert analyze(63.0, 16.0, 1000.0).h_c == pytest.approx(16.0 / 1000.0, rel=5e-3)

    @given(coeff_draws)
    def test_delays_strictly_increase(self, draw):
        _, h_n = critical_delays(*draw, 6)
        assert all(b > a for a, b in zip(h_n, h_n[1:]))

    @settings(max_examples=300)
    @given(coeff_draws)
    def test_characteristic_residual_at_crossings(self, draw):
        mu, beta, kappa = draw
        w = analyze(mu, beta, kappa).omega_c
        _, h_n = critical_delays(mu, beta, kappa, 3)
        for h in h_n:
            assert abs(ds.characteristic_value(mu, beta, kappa, h, 1j * w)) < 1e-8 * kappa


class TestApproximation:
    """The small-ratio approximation h_c = beta / kappa, valid for
    omega_c beta << kappa."""

    def test_figure_checkpoint(self):
        # beta = 20, kappa = 1000 at mu = 60: plot reads ~20 ms
        assert analyze(60.0, 20.0, 1000.0).h_c == pytest.approx(20.0 / 1000.0, rel=0.02)

    @settings(max_examples=500)
    @given(coeff_draws)
    def test_agreement_in_validity_regime(self, draw):
        mu, beta, kappa = draw
        w = analyze(mu, beta, kappa).omega_c
        if w * beta / kappa >= 0.3 or beta == 0.0:
            return
        h_c = analyze(mu, beta, kappa).h_c
        if h_c == 0.0:
            # beta so small that omega*beta/kappa underflows: both forms are 0
            assert beta / kappa < 1e-300
            return
        assert abs(beta / kappa - h_c) / h_c < 0.05


class TestCrossingDirection:
    """The crossing indicator sigma(omega_c) that analyze returns. Positive:
    the root pair leaves the open left half-plane (switch), so delays
    beyond h_c can never restabilize."""

    def test_undamped(self):
        assert analyze(M_A, 0.0, 3000.0).sigma == pytest.approx(3000.0 / M_A)

    def test_reference_value(self):
        assert analyze(M_A, 50.0, 3000.0).sigma == pytest.approx(192.37627547624527, rel=1e-12)

    @given(coeff_draws)
    def test_always_a_switch(self, draw):
        assert analyze(*draw).sigma > 0.0

    @settings(max_examples=200)
    @given(coeff_draws)
    def test_matches_gain_slope_at_crossing(self, draw):
        # sigma is d/domega(|D|^2 - |N|^2) at omega_c up to the positive
        # factor 4 mu^2 omega_c, which does not affect the sign criterion
        mu, beta, kappa = draw
        w = analyze(mu, beta, kappa).omega_c
        gain = lambda om: (mu * om * om) ** 2 - ((beta * om) ** 2 + kappa * kappa)
        dw = 1e-6 * w
        fd = (gain(w + dw) - gain(w - dw)) / (2 * dw)
        assert fd / (4 * mu * mu * w) == pytest.approx(analyze(mu, beta, kappa).sigma, rel=1e-6)


class TestCriticalDamping:
    def test_reference_point(self):
        # analytically ~48.8 N*s/m at (15.6 kg, 3000 N/m, 16 ms); reference
        # tables for this operating point round it to 50
        beta_c = critical_damping(M_A, 3000.0, 0.016)
        assert beta_c == pytest.approx(48.824671615927, rel=1e-6)
        assert beta_c == pytest.approx(50.0, rel=0.05)

    def test_vanishes_with_delay(self):
        assert critical_damping(M_A, 3000.0, 1e-7) < 0.02

    def test_no_solution_beyond_max_stabilizable_delay(self):
        with pytest.raises(ValueError, match="no critical damping below bound"):
            critical_damping(1.0, 1e5, 10.0)

    def test_monotone_in_h_on_solvable_branch(self):
        betas = [critical_damping(M_A, 3000.0, h) for h in (0.004, 0.008, 0.016, 0.024)]
        assert all(b2 > b1 for b1, b2 in zip(betas, betas[1:]))

    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(1.0, 200.0), kappa=st.floats(50.0, 2e4),
           h=st.floats(1e-4, 0.02))
    def test_mutual_inverse_with_critical_delay(self, mu, kappa, h):
        try:
            beta_c = critical_damping(mu, kappa, h)
        except ValueError:
            assume(False)  # h beyond the maximum stabilizable delay
            return
        h_back, _ = critical_delays(mu, beta_c, kappa)
        assert abs(h_back - h) < 1e-9

    @given(mu=st.floats(1.0, 200.0), beta=st.floats(1.0, 50.0))
    def test_large_stiffness_scaling(self, mu, beta):
        # h_c = O(1/kappa): doubling the stiffness halves the critical delay
        kappa = 5e4
        h1, _ = critical_delays(mu, beta, kappa)
        h2, _ = critical_delays(mu, beta, 2 * kappa)
        assert h2 == pytest.approx(h1 / 2, rel=0.05)


class TestBoundary:
    def test_figure_checkpoint_on_curve(self):
        points = stability_boundary("beta", [20.0], mu=60.0, kappa=1000.0)
        assert points[0].h_critical == pytest.approx(0.020, rel=0.02)

    def test_single_point_grid(self):
        points = stability_boundary("kappa", [1000.0], mu=60.0, beta=50.0)
        assert len(points) == 1 and points[0].error is None

    def test_stiffness_boundary_tracks_beta_over_h(self):
        # kappa_c(h) ~ beta/h in the slow regime
        points = stability_boundary("kappa", np.linspace(500, 4000, 8), mu=60.0, beta=50.0)
        for p in points:
            assert p.h_critical == pytest.approx(50.0 / p.x, rel=0.15)

    def test_stiffer_curves_lie_lower(self):
        grid = list(np.linspace(5.0, 80.0, 10))
        curves = {
            kappa: stability_boundary("beta", grid, mu=60.0, kappa=kappa)
            for kappa in (500.0, 1000.0, 2000.0)
        }
        for lo, hi in ((500.0, 1000.0), (1000.0, 2000.0)):
            for p_soft, p_stiff in zip(curves[lo][1:], curves[hi][1:]):
                assert p_stiff.h_critical < p_soft.h_critical

    @pytest.mark.parametrize("axis", ["beta", "kappa", "mu"])
    def test_fixed_value_for_the_swept_axis_is_rejected(self, axis):
        # used to be dropped without a word
        fixed = {"mu": 60.0, "beta": 50.0, "kappa": 1000.0}
        with pytest.raises(ds.ValidationError, match=f"^sweep along '{axis}' takes no fixed {axis}$"):
            stability_boundary(axis, [1.0], **fixed)

    @pytest.mark.parametrize("axis, grid, message", [
        ("h", [1.0], "axis must be 'beta', 'kappa' or 'mu', got 'h'"),
        ("beta", [], "grid must hold at least one point"),
    ])
    def test_unknown_axis_or_empty_grid_is_rejected(self, axis, grid, message):
        with pytest.raises(ds.ValidationError) as raised:
            stability_boundary(axis, grid, mu=60.0, kappa=1000.0)
        assert str(raised.value) == message

    def test_failed_points_recorded_and_curve_continues(self):
        points = stability_boundary("mu", [-1.0, 10.0], beta=20.0, kappa=1000.0)
        assert points[0].error is not None and math.isnan(points[0].h_critical)
        assert points[1].error is None

    def test_overflowing_closed_form_is_a_failed_point(self):
        # (beta/mu)**2 overflows
        (point,) = stability_boundary("beta", [1e200], mu=1.0, kappa=1.0)
        assert "floating-point range" in point.error and math.isnan(point.h_critical)

    def test_infinite_crossing_frequency_is_a_failed_point(self):
        # kappa/mu is inf, so omega_c = inf, which would read h_c = 0
        (point,) = stability_boundary("kappa", [1e300], mu=1e-10, beta=1.0)
        assert "floating-point range" in point.error and math.isnan(point.omega_c)

    def test_good_points_solve_around_failed_ones(self):
        grid = [20.0, 1e200, -1.0, 40.0, math.nan, 60.0]
        points = stability_boundary("beta", grid, mu=60.0, kappa=1000.0)
        assert [p.x for p in points[::3]] == [20.0, 40.0]
        assert [p.error is None for p in points] == [True, False, False, True, False, True]
        assert points[2].error == "beta must be finite and >= 0, got -1.0"
        for p in (points[0], points[3], points[5]):
            assert p == stability_boundary("beta", [p.x], mu=60.0, kappa=1000.0)[0]

    def test_csv_export(self, tmp_path):
        points = [BoundaryPoint(x=1.0, h_critical=0.01, omega_c=5.0, sigma=2.0)]
        path = tmp_path / "curve.csv"
        write_boundary_csv(points, path)
        assert path.read_text() == "x_value,h_critical,omega_c,sigma\n1,0.01,5,2\n"


def point_bits(p: BoundaryPoint) -> tuple:
    return p.x.hex(), p.h_critical.hex(), p.omega_c.hex(), p.sigma.hex(), p.error


def scalar_point(x: float, mu: float, beta: float, kappa: float) -> tuple:
    """One boundary point from the checked single-point form, bits and error text."""
    try:
        result = analyze(mu, beta, kappa, n_delays=1)
    except ValueError as exc:
        return x.hex(), math.nan.hex(), math.nan.hex(), math.nan.hex(), str(exc)
    return x.hex(), result.h_c.hex(), result.omega_c.hex(), result.sigma.hex(), None


# ordinary coefficients, beta = 0 (both signs), extreme magnitudes whose
# ratios underflow or overflow, and invalid values
coefficients = st.one_of(
    st.floats(1e-3, 1e4),
    st.sampled_from([0.0, -0.0, 1e-300, 1e-160, 1.3e154, 1.4e154, 1e200, 1e300]),
    st.floats(),
)


class TestGridMatchesScalarForm:
    @settings(max_examples=400, deadline=None)
    @given(axis=st.sampled_from(["beta", "kappa", "mu"]),
           grid=st.lists(coefficients, min_size=1, max_size=12),
           fixed=st.tuples(coefficients, coefficients))
    def test_bitwise(self, axis, grid, fixed):
        others = dict(zip([name for name in ("mu", "beta", "kappa") if name != axis], fixed))
        points = stability_boundary(axis, grid, **others)
        assert list(map(point_bits, points)) == [scalar_point(x, **others, **{axis: x}) for x in grid]

    @pytest.mark.parametrize("axis, fixed", [
        ("beta", {"mu": 60.0, "kappa": 1000.0}),
        ("kappa", {"mu": 60.0, "beta": 50.0}),
        ("mu", {"beta": 50.0, "kappa": 1000.0}),
    ])
    def test_bitwise_on_a_dense_grid(self, axis, fixed):
        # both forms square with x * x; a long grid shows any square (or
        # other operation) that the grid form rounds differently, as
        # Python's x ** 2 against numpy's x * x did for a share of inputs
        grid = np.linspace(1.0, 8000.0, 4001).tolist()
        points = stability_boundary(axis, grid, **fixed)
        assert list(map(point_bits, points)) == [scalar_point(x, **fixed, **{axis: x}) for x in grid]


class TestOutOfRange:
    def test_scalar_api_raises_value_error(self):
        with pytest.raises(ValueError, match="floating-point range"):
            analyze(1.0, 1e200, 1.0)
        with pytest.raises(ValueError, match="floating-point range"):
            analyze(1e-10, 1.0, 1e300)

    def test_critical_damping_raises_value_error(self):
        with pytest.raises(ValueError, match="floating-point range"):
            critical_damping(1e-160, 1.0, 0.01)


class TestVerdict4thOrder:
    def test_reference_damping_sweep(self):
        body = table1_body()
        assert verdict_4th_order(body, table1_contact(b_v=45.0), 0.016).verdict == "unstable"
        assert verdict_4th_order(body, table1_contact(b_v=70.0), 0.016).verdict == "stable"

    def test_zero_delay_with_damping_is_stable(self):
        v = verdict_4th_order(table1_body(), table1_contact(b_v=10.0), 0.0)
        assert v.verdict == "stable"

    def test_undamped_any_delay_unstable(self):
        v = verdict_4th_order(table1_body(), table1_contact(b_v=0.0), 0.001)
        assert v.h_c == 0.0 and v.verdict == "unstable"

    @pytest.mark.parametrize("name", ["table1", "fig7", "fig9"])
    def test_linearization_factors_into_penetration_mode_and_rigid_pair(self, name):
        # x' = A0 x + A1 x(t-h): A0 holds the rate rows of F_x, A1 the
        # delayed force rows, so det(sI - A0 - A1 e^(-sh)) is the 4-state
        # model's characteristic function; it is s^2 times the penetration
        # factor over m_a, so the model has no other contact mode
        body, contact, sim, _ = load_scenario(scenario_path(name))
        model = linearize_2d(body, contact)
        A0 = np.zeros((4, 4))
        A0[[0, 2]] = model.F_x[[0, 2]]
        A1 = model.F_x - A0
        rng = np.random.default_rng(17)
        for s in rng.normal(0.0, 20.0, 16) + 1j * rng.normal(0.0, 20.0, 16):
            det = np.linalg.det(s * np.eye(4) - A0 - A1 * np.exp(-s * sim.h))
            factor = s * s * ds.characteristic_value(model.m_a, model.b, model.k, sim.h, s) / model.m_a
            assert abs(det - factor) <= 1e-12 * abs(factor)

    def test_fig7_critical_delay_is_that_of_the_penetration_mode(self):
        # the linearization's rightmost root crosses between h = 0.0492 and
        # 0.0494 s at fig7; the (m, 2b, 2k) pair once judged here gave 0.04862
        body, contact, sim, _ = load_scenario(scenario_path("fig7"))
        v = verdict_4th_order(body, contact, sim.h)
        assert v.h_c == analyze(*penetration_dde_coeffs(body, contact)).h_c
        assert v.h_c == pytest.approx(0.0493085046, rel=1e-9)
        assert v.verdict == "stable"

    def test_neutral_band_is_configurable(self):
        body, contact = table1_body(), table1_contact(b_v=50.0)
        h_c = verdict_4th_order(body, contact, 0.016).h_c
        assert verdict_4th_order(body, contact, h_c * 1.005).verdict == "neutral"
        assert verdict_4th_order(body, contact, h_c * 1.005, band=1e-4).verdict == "unstable"


def test_analyze_bundles_everything():
    res = analyze(M_A, 50.0, 3000.0, h=0.016, n_delays=4)
    assert res.verdict == "stable"
    assert len(res.h_n) == 4
    d = res.as_dict()
    assert d["omega_c"] == res.omega_c and d["verdict"] == "stable"


@pytest.mark.parametrize("n_delays", [0, -3])
def test_fewer_than_one_delay_is_rejected(n_delays):
    # used to be clamped to one delay without a word
    with pytest.raises(ValueError, match=f"n_delays must be >= 1, got {n_delays}"):
        analyze(M_A, 50.0, 3000.0, n_delays=n_delays)
    with pytest.raises(ValueError, match=f"n_delays must be >= 1, got {n_delays}"):
        critical_delays(M_A, 50.0, 3000.0, n_delays)


class TestClassify:
    def test_band_edges_are_neutral(self):
        # h against h_c = 0.5 with a 25% band: the edges 0.375 and 0.625
        # are exact in binary, so the rule is checked at the edge itself
        # (epsilon against 1 is checked through restitution in test_analysis)
        assert classify(0.625, 0.5, 0.25) == "neutral"
        assert classify(0.375, 0.5, 0.25) == "neutral"
        assert classify(np.nextafter(0.625, 1.0), 0.5, 0.25) == "unstable"
        assert classify(np.nextafter(0.375, 0.0), 0.5, 0.25) == "stable"
        assert classify(0.5, 0.5, 0.0) == "neutral"

    @pytest.mark.parametrize("scale", [0.98, 0.99, 1.0, 1.01, 1.02])
    def test_analyze_and_verdict_use_the_rule(self, scale):
        res = analyze(M_A, 50.0, 3000.0)
        h = scale * res.h_c
        assert analyze(M_A, 50.0, 3000.0, h=h).verdict == classify(h, res.h_c, 0.01)
        v = verdict_4th_order(table1_body(), table1_contact(b_v=50.0), h)
        assert v.verdict == classify(h, v.h_c, 0.01)


@pytest.mark.parametrize("band", [math.nan, -0.01, math.inf])
def test_unusable_band_is_rejected(band):
    message = f"band must be finite and >= 0, got {band!r}"
    with pytest.raises(ValueError, match=message):
        analyze(M_A, 50.0, 3000.0, band=band)
    with pytest.raises(ValueError, match=message):
        analyze(M_A, 50.0, 3000.0, h=0.016, band=band)
    with pytest.raises(ValueError, match=message):
        verdict_4th_order(table1_body(), table1_contact(b_v=50.0), 0.016, band=band)


def test_as_dict_leaves_out_missing_delay():
    assert set(analyze(M_A, 50.0, 3000.0).as_dict()) == {
        "mu", "beta", "kappa", "omega_c", "h_c", "h_n", "sigma"}
