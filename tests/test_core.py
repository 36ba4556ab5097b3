import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from conftest import TWO_PI, sample_stable_rates, sample_system
from sqzband import core
from sqzband.core import (
    DerivedRates,
    IntracavityField,
    PumpConfig,
    SystemParams,
    _iterate_resonance,
    derive_all,
    intracavity_amplitudes,
    occupancy,
    optical_damping,
    parametric_rate,
    scattering_rates,
    self_consistent_frequency,
    thermal_occupation,
)
from sqzband.errors import (
    AntiDampingError,
    ParametricInstabilityError,
    SelfConsistencyError,
    SqzbandError,
    StabilityError,
    ZeroPumpError,
)


def make_params(**overrides):
    base = dict(
        kappa_hz=1.9e6,
        kappa_in_hz=0.95e6,
        g0_hz=30.0,
        omega_m_hz=530e3,
        gamma_m_hz=0.083,
        delta_hz=2.0e5,
        n_th=2.75e5,
    )
    base.update(overrides)
    return SystemParams.from_hz(**base)


def field_with(g_hz: float, epsilon_c: float, params, phase_plus: float = 0.0):
    """Field consistent with a prescribed total coupling and power split."""
    g = TWO_PI * g_hz
    total = (g / params.g0) ** 2
    return IntracavityField(
        alpha_minus=math.sqrt(epsilon_c * total),
        alpha_plus=math.sqrt((1 - epsilon_c) * total) * np.exp(1j * phase_plus),
        g=g,
    )


class TestSystemParamsValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"kappa_hz": -1.0},
            {"kappa_in_hz": 2.0e6},  # exceeds kappa
            {"omega_m_hz": 0.0},
            {"gamma_m_hz": 0.0},
            {"n_th": -1.0},
            {"n_th": math.nan},
            {"delta_hz": math.inf},
            {"n_th": None, "temperature_k": math.inf},
        ],
    )
    def test_invalid_parameters_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_params(**overrides)

    def test_n_th_from_temperature(self):
        params = SystemParams.from_hz(
            kappa_hz=1.9e6,
            g0_hz=30.0,
            omega_m_hz=530e3,
            gamma_m_hz=0.083,
            delta_hz=0.0,
            temperature_k=7.0,
        )
        assert params.n_th == pytest.approx(2.75e5, rel=2e-3)
        assert params.kappa_in == pytest.approx(params.kappa / 2, rel=1e-12)

    def test_extra_occupancy_enters_n_bar_and_correlators(self, paper_run_config):
        from sqzband.oracle import NoiseCorrelators

        cfg = paper_run_config
        base = derive_all(cfg.params, cfg.pump)
        bumped_params = replace(cfg.params, n_extra=2.0)
        bumped = derive_all(bumped_params, cfg.pump)
        assert bumped.n_bar == pytest.approx(base.n_bar + 2.0, rel=1e-12)
        corr = NoiseCorrelators.from_params(bumped_params, bumped)
        assert corr.c_bdagb == pytest.approx(bumped.gamma_eff * bumped.n_bar, rel=1e-12)
        assert corr.c_bbdag - corr.c_bdagb == pytest.approx(bumped.gamma_eff, rel=1e-12)


class TestIntracavityAmplitudes:
    def test_resonant_tone_denominator(self):
        # lower tone (at omega_L - Omega_m) resonant with the cavity: Delta = +Omega_m
        params = make_params(delta_hz=530e3)
        pump = PumpConfig(alpha_in_minus=1.0, alpha_in_plus=0.0)
        field = intracavity_amplitudes(params, pump, params.omega_m0)
        expected = 2 * math.sqrt(params.kappa_in) / params.kappa
        assert abs(field.alpha_minus) == pytest.approx(expected, rel=1e-12)
        assert field.epsilon_c == 1.0

    def test_off_resonant_magnitude(self):
        # direct evaluation: sqrt(kappa_in) / sqrt((Delta - Om)^2 + k^2/4)
        params = make_params(delta_hz=0.0)
        pump = PumpConfig(alpha_in_minus=1.0, alpha_in_plus=0.0)
        om = TWO_PI * 530e3
        field = intracavity_amplitudes(params, pump, om)
        expected = math.sqrt(TWO_PI * 0.95e6) / math.hypot(TWO_PI * 530e3, TWO_PI * 0.95e6)
        assert abs(field.alpha_minus) == pytest.approx(expected, rel=1e-12)
        assert abs(field.alpha_minus) == pytest.approx(3.574e-4, rel=1e-3)

    def test_equal_inputs_split_depends_on_detuning(self):
        pump = PumpConfig(alpha_in_minus=1.0, alpha_in_plus=1.0)
        om = TWO_PI * 530e3
        detuned = intracavity_amplitudes(make_params(delta_hz=2e5), pump, om)
        assert detuned.epsilon_c != pytest.approx(0.5, abs=1e-3)
        balanced = intracavity_amplitudes(make_params(delta_hz=0.0), pump, om)
        assert balanced.epsilon_c == pytest.approx(0.5, rel=1e-12)

    def test_zero_pump_rejected(self):
        with pytest.raises(ZeroPumpError):
            intracavity_amplitudes(
                make_params(), PumpConfig(0.0, 0.0), TWO_PI * 530e3
            )


class TestOpticalDamping:
    def test_zero_coupling(self):
        params = make_params(g0_hz=0.0)
        field = IntracavityField(alpha_minus=1.0, alpha_plus=0.0, g=0.0)
        assert optical_damping(params, field, params.omega_m0) == 0.0

    def test_reference_value(self):
        # g/2pi = 2 kHz, eps = 0.9, Delta/2pi = 200 kHz -> Gamma_opt/2pi = 2.591 Hz
        # (independent arithmetic: 7.6e12 * [0.9/D0 - 0.9/Dm + 0.1/Dp - 0.1/D0])
        params = make_params()
        field = field_with(2e3, 0.9, params)
        gamma_opt = optical_damping(params, field, TWO_PI * 530e3)
        assert gamma_opt / TWO_PI == pytest.approx(2.5907, rel=1e-3)

    def test_pure_blue_tone_antidamps(self):
        params = make_params(delta_hz=0.0)
        field = field_with(2e3, 0.0, params)
        assert optical_damping(params, field, TWO_PI * 530e3) < 0


class TestSelfConsistentFrequency:
    def test_zero_coupling_single_iteration(self):
        params = make_params(g0_hz=0.0)
        pump = PumpConfig(alpha_in_minus=1e6, alpha_in_plus=1e5)
        omega, iters = _iterate_resonance(params, pump)
        assert omega == params.omega_m0
        assert iters == 1

    def test_fast_contraction_at_weak_coupling(self, paper_run_config):
        cfg = paper_run_config
        omega, iters = _iterate_resonance(cfg.params, cfg.pump)
        assert iters <= 5
        assert abs(omega - cfg.params.omega_m0) < 1e-3 * cfg.params.omega_m0

    def test_residual_below_tolerance(self, paper_run_config):
        cfg = paper_run_config
        from sqzband.core import _response_sum

        omega = self_consistent_frequency(cfg.params, cfg.pump)
        field = intracavity_amplitudes(cfg.params, cfg.pump, omega)
        residual = cfg.params.omega_m0 + cfg.params.g0**2 * _response_sum(
            cfg.params, field, omega
        ).imag - omega
        assert abs(residual) < 1e-6 * cfg.params.gamma_m

    def test_two_tone_shift_partially_cancels(self):
        # Delta = 0, equal tones: the two shift contributions oppose each other
        params = make_params(delta_hz=0.0)
        two_tone = PumpConfig(alpha_in_minus=1e6, alpha_in_plus=1e6)
        omega_two = self_consistent_frequency(params, two_tone)
        field_two = intracavity_amplitudes(params, two_tone, omega_two)
        # single lower tone rescaled to the same total g
        scale = math.sqrt(
            (abs(field_two.alpha_minus) ** 2 + abs(field_two.alpha_plus) ** 2)
            / abs(intracavity_amplitudes(params, PumpConfig(1.0, 0.0), omega_two).alpha_minus)
            ** 2
        )
        omega_single = self_consistent_frequency(params, PumpConfig(scale, 0.0))
        assert abs(omega_two - params.omega_m0) < abs(omega_single - params.omega_m0)


class TestParametricRate:
    def test_null_at_zero_detuning(self):
        params = make_params(delta_hz=0.0)
        field = field_with(2e3, 0.9, params)
        gamma_par, _ = parametric_rate(params, field, TWO_PI * 530e3)
        assert gamma_par == 0.0

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_null_for_single_tone(self, eps):
        params = make_params()
        field = field_with(2e3, eps, params)
        gamma_par, _ = parametric_rate(params, field, TWO_PI * 530e3)
        assert gamma_par == 0.0

    def test_reference_value(self):
        params = make_params()
        field = field_with(2e3, 0.9, params)
        gamma_par, phi = parametric_rate(params, field, TWO_PI * 530e3)
        assert gamma_par / TWO_PI == pytest.approx(1.0186, rel=1e-3)
        assert phi == pytest.approx(math.pi / 2)  # real amplitudes

    def test_odd_in_detuning_at_fixed_field(self):
        field = field_with(2e3, 0.7, make_params(), phase_plus=0.8)
        om = TWO_PI * 530e3
        for delta_hz in (5e4, 2e5, 7e5):
            plus, _ = parametric_rate(make_params(delta_hz=delta_hz), field, om)
            minus, _ = parametric_rate(make_params(delta_hz=-delta_hz), field, om)
            assert minus == pytest.approx(-plus, rel=1e-12)

    def test_phase_from_amplitude_phases(self):
        params = make_params()
        field = field_with(2e3, 0.9, params, phase_plus=1.1)
        _, phi = parametric_rate(params, field, TWO_PI * 530e3)
        assert phi == pytest.approx(math.pi / 2 + 1.1, rel=1e-12)


class TestScatteringRates:
    def test_reference_values(self):
        params = make_params()
        field = field_with(2e3, 0.9, params)
        a_minus, a_plus = scattering_rates(params, field, TWO_PI * 530e3)
        assert a_minus / TWO_PI == pytest.approx(7.562, rel=1e-3)
        assert a_plus / TWO_PI == pytest.approx(4.972, rel=1e-3)
        gamma_opt = optical_damping(params, field, TWO_PI * 530e3)
        assert a_minus - a_plus == pytest.approx(gamma_opt, rel=1e-12)

    def test_zero_coupling(self):
        params = make_params(g0_hz=0.0)
        field = IntracavityField(alpha_minus=1.0, alpha_plus=0.0, g=0.0)
        assert scattering_rates(params, field, params.omega_m0) == (0.0, 0.0)

    def test_single_red_tone_cools(self):
        # eps = 1, Delta = 0: A- = g^2 k/(k^2/4), A+ = g^2 k/(4 Om^2 + k^2/4)
        params = make_params(delta_hz=0.0)
        field = field_with(2e3, 1.0, params)
        om = TWO_PI * 530e3
        a_minus, a_plus = scattering_rates(params, field, om)
        g2k = field.g**2 * params.kappa
        assert a_minus == pytest.approx(g2k / (params.kappa**2 / 4), rel=1e-12)
        assert a_plus == pytest.approx(g2k / (4 * om**2 + params.kappa**2 / 4), rel=1e-12)
        assert a_minus > a_plus


class TestOccupancy:
    def test_bare_thermal_state(self):
        params = make_params(g0_hz=0.0)
        n_ba, n_bar = occupancy(
            params, gamma_eff=params.gamma_m, a_plus=0.0, gamma_opt=0.0
        )
        assert n_bar == pytest.approx(params.n_th, rel=1e-12)
        assert n_ba is None

    def test_reference_value(self):
        # n = (Gamma_m n_th + A+) / Gamma_eff with the documented numbers
        params = make_params(gamma_m_hz=0.083, n_th=2.75e5)
        n_ba, n_bar = occupancy(
            params,
            gamma_eff=TWO_PI * 259.2,
            a_plus=TWO_PI * 497.2,
            gamma_opt=TWO_PI * 259.1,
        )
        expected = (0.083 * 2.75e5 + 497.2) / 259.2
        assert n_bar == pytest.approx(expected, rel=1e-12)
        assert n_bar == pytest.approx(90.0, abs=0.2)

    def test_ideal_cold_damping(self):
        params = make_params()
        _, n_bar = occupancy(
            params, gamma_eff=TWO_PI * 100.0, a_plus=0.0, gamma_opt=TWO_PI * 99.917
        )
        assert n_bar == pytest.approx(
            params.gamma_m * params.n_th / (TWO_PI * 100.0), rel=1e-12
        )

    def test_antidamping_rejected(self):
        with pytest.raises(AntiDampingError):
            occupancy(make_params(), gamma_eff=-1.0, a_plus=0.0, gamma_opt=0.0)


class TestThermalOccupation:
    def test_constants_equal_scipy(self):
        # the exact SI values, written without scipy, keep scipy.constants' bits
        assert core.hbar == hbar and core.k_B == k_B

    def test_high_temperature_limit(self):
        omega = TWO_PI * 530e3
        n = thermal_occupation(7.0, omega)
        classical = k_B * 7.0 / (hbar * omega)
        assert n == pytest.approx(2.75e5, rel=2e-3)
        assert abs(n - (classical - 0.5)) < 1.0

    def test_ground_state_limit(self):
        assert thermal_occupation(1e-6, TWO_PI * 530e3) == pytest.approx(0.0, abs=1e-9)

    def test_unit_occupancy_at_ln2(self):
        omega = TWO_PI * 1e6
        temperature = hbar * omega / (k_B * math.log(2))
        assert thermal_occupation(temperature, omega) == pytest.approx(1.0, rel=1e-9)


class TestDeriveAll:
    def test_combined_squeezing_parameter(self):
        # g/2pi = 2 kHz, eps_c = 0.9 operating point: s = 1.0186/2.677
        cfg_pump = PumpConfig(alpha_in_minus=1.63575e5, alpha_in_plus=6.4957e4)
        rates = derive_all(make_params(), cfg_pump)
        assert rates.s == pytest.approx(0.381, abs=2e-3)
        assert rates.gamma_eff == pytest.approx(
            rates.gamma_opt + make_params().gamma_m, rel=1e-12
        )

    def test_instability_raised(self, paper_run_config):
        cfg = paper_run_config
        # boosting only the upper tone pushes Gamma_par up and Gamma_eff down
        pump = PumpConfig(cfg.pump.alpha_in_minus, cfg.pump.alpha_in_minus * 0.95)
        with pytest.raises((ParametricInstabilityError, AntiDampingError)):
            derive_all(cfg.params, pump)

    def test_spring_shift_past_zero_frequency_is_typed(self):
        # strong red-detuned drive: the spring-shift iteration walks the
        # resonance down through zero (a bare ValueError from
        # intracavity_amplitudes before it became a typed stability error)
        params = SystemParams(
            kappa=1375747.34, kappa_in=937491.28, g0=303.91, omega_m0=684403.91,
            gamma_m=0.97, delta=-448588.08, n_th=7336.1,
        )
        pump = PumpConfig(-2040004.57 + 95976.25j, -167362.95 - 310188.59j)
        with pytest.raises(SelfConsistencyError):
            derive_all(params, pump)

    @pytest.mark.parametrize(
        "name, value", [("g0", 1e300), ("kappa", 1e300), ("delta", 1e300), ("omega_m0", 1e-300)]
    )
    def test_rates_out_of_floating_point_range_are_typed(self, paper_run_config, name, value):
        # an overflow or a division by an underflowed power is an operating point
        # the model cannot represent, never a bare ArithmeticError
        params = replace(paper_run_config.params, **{name: value})
        with pytest.raises(SqzbandError):
            derive_all(params, paper_run_config.pump)

    @pytest.mark.parametrize(
        "name, value",
        [("gamma_eff", 1e-300), ("gamma_eff", 1e200), ("omega_m", 1e-300), ("n_bar", 1e200)],
    )
    def test_rate_whose_square_leaves_range_rejected(self, name, value):
        kwargs = {"gamma_eff": 100.0, "s": 0.5, name: value}
        with pytest.raises(StabilityError, match="square"):
            DerivedRates.from_effective(**kwargs)

    def test_zero_rates_and_tiny_occupancy_stay_valid(self):
        # from_effective leaves omega_m, gamma_opt and A+- at 0; n_bar only overflows
        rates = DerivedRates.from_effective(100.0, 1e-300, n_bar=1e-300)
        assert (rates.omega_m, rates.gamma_opt, rates.a_minus, rates.a_plus) == (0, 0, 0, 0)

    def test_accepted_draws_unchanged_by_the_range_rules(self):
        # the floating-point range rules reject none of the sampled configurations:
        # the same 1263 of 2000 draws pass (index sum pinned), so rejection
        # samplers keep drawing the same configurations
        rng = np.random.default_rng(2000)
        accepted = []
        for i in range(2000):
            params, pump = sample_system(rng)
            try:
                derive_all(params, pump)
            except SqzbandError:
                continue
            accepted.append(i)
        assert (len(accepted), sum(accepted)) == (1263, 1246844)

    def test_single_tone_gives_zero_s(self, paper_run_config):
        pump = PumpConfig(paper_run_config.pump.alpha_in_minus, 0.0)
        rates = derive_all(paper_run_config.params, pump)
        assert rates.s == 0.0
        assert rates.gamma_plus == rates.gamma_eff == rates.gamma_minus
        assert rates.anomalous == 0.0

    def test_widths_and_cooling_share_follow_what_is_stored(self, paper_run_config):
        # the sideband widths follow s and the cooling share the amplitudes, so a
        # rates object with s replaced needs no widths of its own
        cfg = paper_run_config
        rates = replace(derive_all(cfg.params, cfg.pump), s=0.3)
        assert rates.gamma_plus == rates.gamma_eff * (1 + 0.3)
        assert rates.gamma_minus == rates.gamma_eff * (1 - 0.3)
        field = intracavity_amplitudes(cfg.params, cfg.pump, rates.omega_m)
        p_minus, p_plus = abs(field.alpha_minus) ** 2, abs(field.alpha_plus) ** 2
        assert field.epsilon_c == p_minus / (p_minus + p_plus)

    @pytest.mark.parametrize("s", [1.0, -1.2])
    def test_rates_at_or_above_threshold_cannot_be_built(self, paper_run_config, s):
        # DerivedRates holds the one |s| check, so the oracle and the synthesizer
        # never see rates at or above threshold, also after dataclasses.replace
        rates = derive_all(paper_run_config.params, paper_run_config.pump)
        with pytest.raises(ParametricInstabilityError, match=rf"\|s\| = {abs(s):.4f} >= 1"):
            replace(rates, s=s)

    def test_rate_identity_across_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            _, _, rates = sample_stable_rates(rng)
            assert abs(rates.gamma_opt - (rates.a_minus - rates.a_plus)) <= 1e-10 * max(
                rates.a_minus, rates.a_plus
            )
            assert rates.gamma_plus == pytest.approx(
                rates.gamma_eff * (1 + rates.s), rel=1e-12
            )

    def test_common_phase_invariance(self):
        rng = np.random.default_rng(3)
        params, pump = sample_system(rng)
        base = derive_all(params, pump)
        rotated = derive_all(params, PumpConfig(
            pump.alpha_in_minus * np.exp(1j * 1.234),
            pump.alpha_in_plus * np.exp(1j * 1.234),
        ))
        assert rotated.gamma_opt == pytest.approx(base.gamma_opt, rel=1e-12)
        assert rotated.gamma_par == pytest.approx(base.gamma_par, rel=1e-12)
        assert rotated.s == pytest.approx(base.s, rel=1e-12)
        assert rotated.phi == pytest.approx(base.phi, rel=1e-9)

    def test_real_scale_quadratic(self):
        rng = np.random.default_rng(11)
        params, pump, base = sample_stable_rates(rng)
        scaled = derive_all(params, pump.scaled(0.5))
        assert scaled.gamma_opt == pytest.approx(base.gamma_opt * 0.25, rel=1e-6)
        assert scaled.gamma_par == pytest.approx(base.gamma_par * 0.25, rel=1e-6)
        assert scaled.a_minus == pytest.approx(base.a_minus * 0.25, rel=1e-6)
        expected_s = scaled.gamma_par / (params.gamma_m + scaled.gamma_opt)
        assert scaled.s == pytest.approx(expected_s, rel=1e-12)

    def test_drive_off_variant(self, paper_run_config):
        rates = derive_all(paper_run_config.params, paper_run_config.pump)
        off = rates.without_parametric_drive()
        assert off.s == 0.0 and off.gamma_par == 0.0
        assert off.gamma_eff == rates.gamma_eff
        assert off.a_plus == rates.a_plus
