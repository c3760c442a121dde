"""Physical constants and unit helpers.

All dynamical code in this package works in natural units (hbar = k_B = 1);
the SI values below are only used by the ballpark calculators that accept
laboratory inputs (masses in kg, temperatures in K, lengths in m).
"""

import numpy as np

#: h / 2 pi in J s and k_B in J / K, from the exact SI values of h and k_B.
HBAR_SI, K_B_SI = 6.62607015e-34 / (2.0 * np.pi), 1.380649e-23

#: Reduced Planck constant in natural units used by the dynamics.
HBAR = 1.0
#: Boltzmann constant in natural units used by the dynamics.
K_B = 1.0


def thermal_de_broglie_wavelength(mass_kg: float, temperature_K: float) -> float:
    """Thermal de Broglie wavelength hbar / sqrt(2 m k_B T), in meters."""
    if mass_kg <= 0 or temperature_K <= 0:
        raise ValueError("mass and temperature must be positive")
    return HBAR_SI / np.sqrt(2.0 * mass_kg * K_B_SI * temperature_K)
