"""Closed-form spectral line shapes.

Two plain-array kernels hold the arithmetic of every profile in the
simulator, each with peak value ``amp`` at ``nu0`` and FWHM ``fwhm``:

* ``lorentzian_kernel``

      amp / (1 + 4 x^2),    x = (nu - nu0) / fwhm

  the natural (and saturation-broadened) response of one velocity class;

* ``gaussian_kernel``

      amp * exp(-4 ln2 ((nu - nu0) / fwhm)^2)

  the thermal velocity distribution of the vapor.

``spectrum`` builds its optical depth and bleaching dips from them. The
public profiles are the kernels at fixed amplitudes: ``lorentzian`` is
peak-normalized (amp = 1) and ``doppler_gaussian`` is area-normalized
(amp = 2 sqrt(ln 2) / (sqrt(pi) dnuD), unit integral). The asymmetry is
intentional: ``spectrum`` does all amplitude scaling of its spectra.
"""

import math
from dataclasses import dataclass

import numpy as np

# The exact 2019 SI values, pinned here rather than taken from scipy so the
# output cannot drift with library updates.
BOLTZMANN = 1.380649e-23      # J/K
SPEED_OF_LIGHT = 299792458.0  # m/s

_TWO_SQRT_LN2 = 2.0 * math.sqrt(math.log(2.0))


@dataclass(frozen=True)
class LorentzianParams:
    """Center detuning nu0 (Hz) and full width at half maximum (Hz)."""

    nu0: float
    gamma_fwhm: float

    def __post_init__(self):
        if not self.gamma_fwhm > 0:
            raise ValueError(f"gamma_fwhm must be > 0, got {self.gamma_fwhm}")


@dataclass(frozen=True)
class GaussianParams:
    """Center detuning nu0 (Hz) and Doppler full width at half maximum (Hz)."""

    nu0: float
    fwhm: float

    def __post_init__(self):
        if not self.fwhm > 0:
            raise ValueError(f"fwhm must be > 0, got {self.fwhm}")


def lorentzian_kernel(nu, nu0, fwhm, amp):
    """Lorentzian of peak amp at nu0 and FWHM fwhm, over an array nu (Hz)."""
    x = (nu - nu0) / fwhm
    return amp / (1.0 + 4.0 * x * x)


def gaussian_kernel(nu, nu0, fwhm, amp):
    """Gaussian of peak amp at nu0 and FWHM fwhm, over an array nu (Hz)."""
    return amp * np.exp(-4.0 * math.log(2.0) * ((nu - nu0) / fwhm) ** 2)


def lorentzian(nu, p: LorentzianParams):
    """Peak-normalized Lorentzian; accepts scalar or array detuning (Hz)."""
    out = lorentzian_kernel(np.asarray(nu, dtype=float), p.nu0, p.gamma_fwhm, 1.0)
    return float(out) if np.isscalar(nu) else out


def doppler_gaussian(nu, p: GaussianParams):
    """Area-normalized Gaussian density per Hz; scalar or array detuning."""
    amp = _TWO_SQRT_LN2 / (math.sqrt(math.pi) * p.fwhm)
    out = gaussian_kernel(np.asarray(nu, dtype=float), p.nu0, p.fwhm, amp)
    return float(out) if np.isscalar(nu) else out


def doppler_fwhm(temperature, mass, nu0_abs):
    """Doppler FWHM (Hz) of a line at absolute frequency nu0_abs.

        dnuD = 2 sqrt(2 kB T ln2 / (m c^2)) * nu0

    temperature in K, mass in kg. Scales as sqrt(T) and linearly in nu0.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    if not mass > 0:
        raise ValueError(f"mass must be > 0, got {mass}")
    if not nu0_abs > 0:
        raise ValueError(f"nu0_abs must be > 0, got {nu0_abs}")
    return (
        2.0
        * math.sqrt(2.0 * BOLTZMANN * temperature * math.log(2.0) / (mass * SPEED_OF_LIGHT**2))
        * nu0_abs
    )


def saturation_broadened_width(gamma_fwhm, s):
    """Power-broadened Lorentzian FWHM: Gamma * sqrt(1 + s), s >= 0."""
    if not gamma_fwhm > 0:
        raise ValueError(f"gamma_fwhm must be > 0, got {gamma_fwhm}")
    if s < 0:
        raise ValueError(f"saturation parameter must be >= 0, got {s}")
    return gamma_fwhm * math.sqrt(1.0 + s)
