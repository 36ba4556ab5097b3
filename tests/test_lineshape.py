import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import TWO_PI
from sqzband.core import DerivedRates
from sqzband.errors import GridError
from sqzband.lineshape import (
    Lorentzian,
    antistokes_spectrum,
    heterodyne_composite,
    lorentzian,
    quadrature_spectrum,
    quadrature_variances,
    sideband_areas,
    sideband_components,
    sideband_ratios,
    squeezing_criterion,
    stokes_spectrum,
)

GAMMA_EFF = TWO_PI * 100.0


def rates_for(s, phi=0.0, n_bar=0.0, anomalous=0.0j):
    return DerivedRates.from_effective(
        GAMMA_EFF, s, phi=phi, omega_m=TWO_PI * 530e3, n_bar=n_bar, anomalous=anomalous
    )


def integral_over_two_pi(fn, half_width) -> float:
    value, _ = quad(fn, -half_width, half_width, limit=400)
    tail_pos, _ = quad(fn, half_width, np.inf, limit=400)
    tail_neg, _ = quad(fn, -np.inf, -half_width, limit=400)
    return (value + tail_pos + tail_neg) / TWO_PI


class TestStokesSpectrum:
    def test_thermal_limit_single_lorentzian(self):
        rates = rates_for(0.0)
        n_bar = 5.8
        grid = np.linspace(-40, 40, 2001) * GAMMA_EFF
        psd = stokes_spectrum(rates, n_bar, grid)
        single = (n_bar + 1) * GAMMA_EFF / (grid**2 + GAMMA_EFF**2 / 4)
        assert np.allclose(psd, single, rtol=1e-12)
        area = integral_over_two_pi(
            lambda d: stokes_spectrum(rates, n_bar, np.array([d]))[0], 50 * GAMMA_EFF
        )
        assert area == pytest.approx(n_bar + 1, rel=1e-6)

    def test_component_areas_at_reference_point(self):
        # analytic term areas w / (2 (1 -/+ s)) at n = 5.8, s = 0.53
        rates = rates_for(0.53)
        narrow, broad = sideband_components(rates, 5.8, stokes=True)
        assert narrow.area_weight == pytest.approx((1 + 5.8 - 0.265) / (2 * 0.47), rel=1e-12)
        assert broad.area_weight == pytest.approx((1 + 5.8 + 0.265) / (2 * 1.53), rel=1e-12)
        assert narrow.area_weight == pytest.approx(6.952, abs=5e-4)
        assert broad.area_weight == pytest.approx(2.309, abs=5e-4)

    def test_peak_value_thermal(self):
        rates = rates_for(0.0)
        peak = stokes_spectrum(rates, 5.8, np.array([0.0]))[0]
        assert peak == pytest.approx(4 * 6.8 / GAMMA_EFF, rel=1e-12)

    def test_even_in_s(self):
        grid = np.linspace(-5, 5, 101) * GAMMA_EFF
        for n_bar in (0.2, 5.8):
            plus = stokes_spectrum(rates_for(0.4), n_bar, grid)
            minus = stokes_spectrum(rates_for(-0.4), n_bar, grid)
            assert np.allclose(plus, minus, rtol=1e-12)


class TestAntistokesSpectrum:
    def test_negative_broad_weight_below_zero_point(self):
        rates = rates_for(0.4)
        narrow, broad = sideband_components(rates, 0.12, stokes=False)
        assert broad.area_weight < 0
        # weight n - s/2 = -0.08 feeds the broad term
        assert (0.12 - 0.2) == pytest.approx(-0.08, rel=1e-12)
        grid = np.linspace(-60, 60, 4001) * GAMMA_EFF
        psd = antistokes_spectrum(rates, 0.12, grid)
        assert np.all(psd >= 0)

    def test_thermal_area(self):
        rates = rates_for(0.0)
        area = integral_over_two_pi(
            lambda d: antistokes_spectrum(rates, 3.3, np.array([d]))[0], 50 * GAMMA_EFF
        )
        assert area == pytest.approx(3.3, rel=1e-6)

    @pytest.mark.parametrize("n_bar,s", [(0.0, 0.0), (0.12, 0.4), (5.8, 0.53), (42.0, 0.9)])
    def test_commutator_area_difference(self, n_bar, s):
        stokes, anti = sideband_areas(rates_for(s), n_bar)
        assert stokes - anti == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_positive_over_domain(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(-30, 30, 501) * GAMMA_EFF
        for _ in range(50):
            s = rng.uniform(0, 0.99)
            n_bar = 10 ** rng.uniform(-3, 2)
            psd = antistokes_spectrum(rates_for(s), n_bar, grid)
            assert np.all(psd >= 0)


class TestQuadratureSpectrum:
    def test_y_is_lorentzian_of_broad_width(self):
        rates = rates_for(0.5, phi=0.7)
        n_bar = 2.0
        grid = np.linspace(-20, 20, 801) * GAMMA_EFF
        psd = quadrature_spectrum(rates, n_bar, -rates.phi / 2, grid)
        expected = GAMMA_EFF * (2 * n_bar + 1) / (4 * (grid**2 + rates.gamma_plus**2 / 4))
        assert np.allclose(psd, expected, rtol=1e-12)

    def test_variances_at_reference_point(self):
        sigma_x2, sigma_y2, sigma0_2 = quadrature_variances(5.8, 0.53)
        assert sigma0_2 == pytest.approx(3.15, rel=1e-12)
        assert sigma_y2 == pytest.approx(2.059, abs=5e-4)
        assert sigma_x2 == pytest.approx(6.702, abs=5e-4)
        # numeric check of the Y integral against the closed form
        rates = rates_for(0.53, phi=0.3)
        val = integral_over_two_pi(
            lambda d: quadrature_spectrum(rates, 5.8, -rates.phi / 2, np.array([d]))[0],
            60 * GAMMA_EFF,
        )
        assert val == pytest.approx(sigma_y2, rel=1e-6)

    def test_isotropic_at_zero_s(self):
        rates = rates_for(0.0)
        grid = np.linspace(-5, 5, 101) * GAMMA_EFF
        base = quadrature_spectrum(rates, 1.3, 0.0, grid)
        for theta in (0.3, 1.0, 2.2):
            assert np.allclose(quadrature_spectrum(rates, 1.3, theta, grid), base, rtol=1e-12)

    def test_uncertainty_product(self):
        for s in (0.0, 0.3, 0.7, 0.95):
            sx, sy, s0 = quadrature_variances(1.7, s)
            assert sx * sy == pytest.approx(s0**2 / (1 - s * s), rel=1e-12)
            assert sx * sy >= s0**2

    def test_squeezed_variance_with_anomalous_correlator_matches_numeric_integral(self):
        # physical rates carry a nonzero noise cross-correlator; the spectrum at
        # other angles is checked against the oracle
        from conftest import sample_stable_rates

        rng = np.random.default_rng(77)
        _, _, rates = sample_stable_rates(rng)
        assert rates.anomalous != 0
        theta = -rates.phi / 2
        numeric = integral_over_two_pi(
            lambda d: quadrature_spectrum(rates, rates.n_bar, theta, np.array([d]))[0],
            80 * rates.gamma_eff,
        )
        _, sigma_y2, _ = quadrature_variances(rates.n_bar, rates.s)
        assert numeric == pytest.approx(sigma_y2, rel=1e-6)

    def test_variance_sum_closed_form(self):
        rates = rates_for(0.6, phi=1.0)
        n_bar = 0.8
        sx, sy, s0 = quadrature_variances(n_bar, 0.6)
        x_int = integral_over_two_pi(
            lambda d: quadrature_spectrum(rates, n_bar, -rates.phi / 2 + math.pi / 2, np.array([d]))[0],
            80 * GAMMA_EFF,
        )
        y_int = integral_over_two_pi(
            lambda d: quadrature_spectrum(rates, n_bar, -rates.phi / 2, np.array([d]))[0],
            80 * GAMMA_EFF,
        )
        assert x_int + y_int == pytest.approx(s0 * 2 / (1 - 0.36), rel=1e-5)
        iso = rates_for(0.0)
        for theta in (0.0, 1.1):
            val = integral_over_two_pi(
                lambda d: quadrature_spectrum(iso, n_bar, theta, np.array([d]))[0],
                80 * GAMMA_EFF,
            )
            assert val == pytest.approx(s0, rel=1e-5)


class TestRatios:
    def test_thermal_reference(self):
        assert sideband_ratios(5.8, 0.0).r0 == pytest.approx(1.1724, abs=1e-4)

    def test_driven_reference(self):
        ratios = sideband_ratios(5.8, 0.53)
        assert ratios.r_plus == pytest.approx(7.065 / 5.535, rel=1e-12)
        assert ratios.r_minus == pytest.approx(6.535 / 6.065, rel=1e-12)
        assert ratios.r_plus == pytest.approx(1.276, abs=5e-4)
        assert ratios.r_minus == pytest.approx(1.0775, abs=5e-4)

    def test_sign_flip_below_zero_point(self):
        assert sideband_ratios(0.12, 0.4).r_plus == pytest.approx(-16.5, rel=1e-6)

    def test_zero_occupancy_reports_infinite(self):
        assert math.isinf(sideband_ratios(0.0, 0.0).r0)

    def test_vanishing_anti_stokes_weight_reports_infinite(self):
        # n = s/2 empties the broad anti-Stokes component, n = -s/2 the narrow one
        assert sideband_ratios(0.2, 0.4).r_plus == math.inf
        assert sideband_ratios(0.2, -0.4).r_minus == math.inf

    def test_equal_at_zero_s(self):
        r = sideband_ratios(3.0, 0.0)
        assert r.r0 == r.r_plus == r.r_minus

    def test_ordering_and_narrow_limit(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            s = rng.uniform(0.01, 0.98)
            n_bar = rng.uniform(s / 2 + 1e-3, 50)
            r = sideband_ratios(n_bar, s)
            assert r.r_plus > r.r0 > r.r_minus >= 1
        near_threshold = sideband_ratios(4.0, 0.999)
        assert near_threshold.r_minus == pytest.approx(1.0, abs=1e-3)


class TestSqueezingCriterion:
    def test_below_zero_point(self):
        squeezed, margin = squeezing_criterion(0.12, 0.4)
        assert squeezed and margin == pytest.approx(0.16, rel=1e-12)

    def test_thermal_dominated(self):
        squeezed, _ = squeezing_criterion(5.8, 0.53)
        assert not squeezed

    def test_vacuum_boundary(self):
        squeezed, margin = squeezing_criterion(0.0, 0.0)
        assert not squeezed and margin == 0.0

    def test_equivalent_to_variance_condition(self):
        for n_bar, s in ((0.1, 0.3), (0.4, 0.9), (0.0, 0.5)):
            _, sigma_y2, _ = quadrature_variances(n_bar, s)
            assert squeezing_criterion(n_bar, s)[0] == (sigma_y2 < 0.25)


class TestHeterodyneComposite:
    def test_sideband_placement(self):
        rates = rates_for(0.3)
        delta_lo = TWO_PI * 11e3
        grid = rates.omega_m + TWO_PI * np.linspace(-12e3, 12e3, 24001)
        components, psd = heterodyne_composite(rates, 5.8, delta_lo, 1.0, 0.0, grid)
        centers = sorted({c.center for c in components})
        assert centers[1] - centers[0] == pytest.approx(2 * delta_lo, rel=1e-12)
        peak_indices = [np.argmax(psd[: len(psd) // 2]), len(psd) // 2 + np.argmax(psd[len(psd) // 2 :])]
        freqs = grid[peak_indices] - rates.omega_m
        assert freqs[0] == pytest.approx(-delta_lo, abs=TWO_PI * 2)
        assert freqs[1] == pytest.approx(delta_lo, abs=TWO_PI * 2)

    def test_zero_calibration_flat_floor(self):
        rates = rates_for(0.3)
        grid = rates.omega_m + TWO_PI * np.linspace(-12e3, 12e3, 301)
        _, psd = heterodyne_composite(rates, 5.8, TWO_PI * 11e3, 0.0, 2.5, grid)
        assert np.allclose(psd, 2.5, rtol=1e-15)

    def test_thermal_area_ratio(self):
        rates = rates_for(0.0)
        delta_lo = TWO_PI * 11e3
        grid = rates.omega_m + TWO_PI * np.arange(-11.5e3, 11.5e3, 0.5)
        components, psd = heterodyne_composite(rates, 5.8, delta_lo, 2.0, 0.1, grid)
        stokes_area = sum(c.area_weight for c in components if c.center > rates.omega_m)
        anti_area = sum(c.area_weight for c in components if c.center < rates.omega_m)
        assert stokes_area / anti_area == pytest.approx(1.1724, abs=1e-4)
        widths = {c.width for c in components}
        assert widths == {rates.gamma_eff}

    def test_narrow_grid_rejected(self):
        rates = rates_for(0.3)
        grid = rates.omega_m + TWO_PI * np.linspace(-5e3, 5e3, 101)
        with pytest.raises(GridError):
            heterodyne_composite(rates, 5.8, TWO_PI * 11e3, 1.0, 0.0, grid)

    @pytest.mark.parametrize("calibration", [-1.0, math.nan])
    def test_calibration_outside_its_domain_rejected(self, calibration):
        rates = rates_for(0.3)
        grid = rates.omega_m + TWO_PI * np.linspace(-12e3, 12e3, 301)
        with pytest.raises(ValueError, match="calibration"):
            heterodyne_composite(rates, 5.8, TWO_PI * 11e3, calibration, 0.0, grid)

    def test_psd_is_floor_plus_calibrated_component_sum(self):
        # bit for bit, with each returned component evaluated by Lorentzian.psd
        rates = rates_for(0.4, n_bar=0.3)
        grid = rates.omega_m + TWO_PI * np.linspace(-12e3, 12e3, 2001)
        components, psd = heterodyne_composite(rates, 0.3, TWO_PI * 11e3, 1.7, 0.4, grid)
        assert [(c.center > rates.omega_m, c.width) for c in components] == [
            (True, rates.gamma_minus), (True, rates.gamma_plus),
            (False, rates.gamma_minus), (False, rates.gamma_plus),
        ]
        expected = 0.4 + 1.7 * sum(c.psd(grid) for c in components)
        assert np.array_equal(psd, expected)


class TestLorentzian:
    def test_unit_area_kernel(self):
        comp = Lorentzian(center=0.0, width=TWO_PI * 10, area_weight=3.7)
        val, _ = quad(lambda d: comp.psd(d), -np.inf, np.inf)
        assert val / TWO_PI == pytest.approx(3.7, rel=1e-9)


class TestLorentzianKernel:
    def test_unit_area_per_hz(self):
        gamma_hz = 7.3
        val, _ = quad(lambda f: lorentzian(f * f, gamma_hz, gamma_hz / TWO_PI), -np.inf, np.inf)
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_writes_into_out(self):
        d2 = np.linspace(0.0, 4.0, 9) ** 2
        buf = np.empty_like(d2)
        got = lorentzian(d2, 2.0, 3.0, out=buf)
        assert got is buf
        assert np.array_equal(buf, 3.0 / (d2 + 1.0))
        assert np.array_equal(lorentzian(d2, 2.0, 3.0), buf)
