"""Closed-form line shapes against independent numerical oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from saslock.lineshape import (
    GaussianParams,
    LorentzianParams,
    doppler_fwhm,
    doppler_gaussian,
    lorentzian,
    saturation_broadened_width,
)

# Independent evaluation of the Doppler-width formula with exact SI constants
# (frozen from tests/oracles; see doppler_width_oracle below).
RB87_MASS = 1.443160648e-25
DOPPLER_ORACLE_HZ = 521965514.45460325


def doppler_width_oracle(temperature, mass, nu0):
    kb, c = 1.380649e-23, 299792458.0
    return 2.0 * math.sqrt(2.0 * kb * temperature * math.log(2) / (mass * c * c)) * nu0


class TestLorentzian:
    p = LorentzianParams(nu0=12.0e6, gamma_fwhm=6.0e6)

    def test_peak_is_one(self):
        assert lorentzian(self.p.nu0, self.p) == 1.0

    def test_half_maximum_at_half_width(self):
        assert lorentzian(self.p.nu0 + self.p.gamma_fwhm / 2, self.p) == pytest.approx(0.5)
        assert lorentzian(self.p.nu0 - self.p.gamma_fwhm / 2, self.p) == pytest.approx(0.5)

    def test_one_fifth_at_full_width(self):
        assert lorentzian(self.p.nu0 + self.p.gamma_fwhm, self.p) == pytest.approx(0.2)

    def test_even_in_offset(self):
        for delta in (0.3e6, 1.7e6, 42.0e6):
            assert lorentzian(self.p.nu0 + delta, self.p) == pytest.approx(
                lorentzian(self.p.nu0 - delta, self.p), rel=1e-15
            )

    def test_numerical_fwhm_matches_gamma(self):
        half = brentq(
            lambda x: lorentzian(self.p.nu0 + x, self.p) - 0.5,
            0.0,
            10 * self.p.gamma_fwhm,
            xtol=1e-6,
            rtol=1e-15,
        )
        assert 2 * half == pytest.approx(self.p.gamma_fwhm, rel=1e-9)

    def test_strictly_decreasing_in_offset(self):
        offsets = np.linspace(0, 5 * self.p.gamma_fwhm, 101)
        values = lorentzian(self.p.nu0 + offsets, self.p)
        assert np.all(np.diff(values) < 0)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            LorentzianParams(nu0=0.0, gamma_fwhm=0.0)


class TestDopplerGaussian:
    p = GaussianParams(nu0=0.0, fwhm=522.0e6)

    def test_center_value_closed_form(self):
        unit = GaussianParams(nu0=0.0, fwhm=1.0)
        assert doppler_gaussian(0.0, unit) == pytest.approx(
            2.0 * math.sqrt(math.log(2) / math.pi), rel=1e-12
        )

    def test_half_maximum_at_half_fwhm(self):
        center = doppler_gaussian(self.p.nu0, self.p)
        assert doppler_gaussian(self.p.nu0 + self.p.fwhm / 2, self.p) == pytest.approx(
            center / 2, rel=1e-12
        )

    def test_even_in_offset(self):
        for delta in (1.0e6, 100.0e6, 900.0e6):
            assert doppler_gaussian(self.p.nu0 + delta, self.p) == pytest.approx(
                doppler_gaussian(self.p.nu0 - delta, self.p), rel=1e-15
            )

    def test_unit_area(self):
        area, _ = quad(
            lambda x: doppler_gaussian(x, self.p),
            -10 * self.p.fwhm,
            10 * self.p.fwhm,
            limit=200,
        )
        assert area == pytest.approx(1.0, abs=1e-6)

    def test_numerical_fwhm_matches_parameter(self):
        center = doppler_gaussian(self.p.nu0, self.p)
        half = brentq(
            lambda x: doppler_gaussian(self.p.nu0 + x, self.p) - center / 2,
            0.0,
            5 * self.p.fwhm,
            xtol=1e-4,
            rtol=1e-15,
        )
        assert 2 * half == pytest.approx(self.p.fwhm, rel=1e-9)

    def test_strictly_decreasing_in_offset(self):
        offsets = np.linspace(0, 3 * self.p.fwhm, 101)
        values = doppler_gaussian(self.p.nu0 + offsets, self.p)
        assert np.all(np.diff(values) < 0)


class TestDopplerFwhm:
    def test_matches_independent_oracle(self):
        got = doppler_fwhm(312.65, RB87_MASS, 384.230e12)
        assert abs(got - DOPPLER_ORACLE_HZ) < 1.0e3
        assert abs(got - doppler_width_oracle(312.65, RB87_MASS, 384.230e12)) < 1.0e3
        assert got == pytest.approx(522.0e6, abs=1.0e6)

    def test_sqrt_temperature_scaling(self):
        base = doppler_fwhm(300.0, RB87_MASS, 384.230e12)
        assert doppler_fwhm(1200.0, RB87_MASS, 384.230e12) == pytest.approx(2 * base, rel=1e-12)
        assert doppler_fwhm(1e-9, RB87_MASS, 384.230e12) < 1e-5 * base

    def test_linear_in_center_frequency(self):
        base = doppler_fwhm(300.0, RB87_MASS, 1.0e14)
        assert doppler_fwhm(300.0, RB87_MASS, 3.0e14) == pytest.approx(3 * base, rel=1e-12)

    @pytest.mark.parametrize("temperature,mass,nu0", [
        (0.0, RB87_MASS, 1e14),
        (-1.0, RB87_MASS, 1e14),
        (300.0, 0.0, 1e14),
        (300.0, RB87_MASS, 0.0),
    ])
    def test_rejects_nonpositive_inputs(self, temperature, mass, nu0):
        with pytest.raises(ValueError):
            doppler_fwhm(temperature, mass, nu0)


class TestPhysicalConstants:
    def test_pinned_values(self):
        from saslock.lineshape import BOLTZMANN, SPEED_OF_LIGHT
        assert BOLTZMANN == 1.380649e-23
        assert SPEED_OF_LIGHT == 299792458.0


class TestSaturationBroadening:
    def test_unsaturated_limit(self):
        assert saturation_broadened_width(6.0e6, 0.0) == 6.0e6

    def test_s_three_doubles(self):
        assert saturation_broadened_width(6.0e6, 3.0) == pytest.approx(12.0e6, rel=1e-15)

    def test_s_one_sqrt2(self):
        assert saturation_broadened_width(6.0e6, 1.0) == pytest.approx(8485281.374238571)

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            saturation_broadened_width(6.0e6, -0.1)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            saturation_broadened_width(0.0, 1.0)
