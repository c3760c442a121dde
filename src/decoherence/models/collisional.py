"""Spatial decoherence from environmental scattering.

A heavy free particle entangles with light particles that scatter off it;
the scattered particles carry away which-path information and spatial
coherences decay without dissipation.  The scattering term is diagonal in
position: it multiplies each rho(x, x') by a rate, d rho/dt = K * rho, with
the kernel K of one of two regimes:

* long wavelength -- each collision resolves the separation only partially;
  K = -Lambda (x - x')^2.
* short wavelength -- a single collision resolves the separation fully and
  the decay rate saturates at the total scattering rate: K = -Gamma_tot for
  every x != x' and 0 on the diagonal.

`scattering_kernel` is that one kernel.  The generator carries it as its
elementwise dissipator and the free kinetic term p^2/2M as a grid operator
that is diagonal in momentum.  In the long-wavelength regime, for a state
clear of the grid edges, `lindblad.propagate` takes each record straight
from rho0 by the characteristic-function solution (Unruh & Zurek, PRD 40,
1071, 1989).  Otherwise, and in `collisional_evolve_split_step`, it steps
`lindblad.split_march` on the complex rho: per step one ifft2 to position,
the exact factor exp(K dt), one fft2 back and the exact kinetic phase.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
import scipy.integrate

from ..constants import thermal_de_broglie_wavelength
from ..core import Grid1D, StateVector
from ..lindblad import IntegratorConfig, LindbladGenerator, split_march


@dataclass(frozen=True)
class CollisionalParams:
    """Scattering parameters; Lambda in 1/(time length^2), Gamma_tot in 1/time."""

    Lambda: float = 0.0
    Gamma_tot: float = 0.0
    regime: Literal["long_wavelength", "short_wavelength"] = "long_wavelength"
    mass: float = 1.0

    def __post_init__(self):
        if self.Lambda < 0 or self.Gamma_tot < 0:
            raise ValueError("scattering rates must be nonnegative")
        if self.mass <= 0:
            raise ValueError("mass must be positive")


def scattering_kernel(params: CollisionalParams, grid: Grid1D) -> np.ndarray:
    """The elementwise scattering rates K of d rho(x, x')/dt = K * rho."""
    if params.regime == "long_wavelength":
        return -params.Lambda * np.subtract.outer(grid.x, grid.x) ** 2
    return -params.Gamma_tot * (1.0 - np.eye(grid.n_points))


def collisional_generator(params: CollisionalParams, grid: Grid1D,
                          include_free_dynamics: bool = True) -> LindbladGenerator:
    """Master-equation generator on a position grid."""
    h = grid.kinetic_hamiltonian(params.mass) if include_free_dynamics else None
    return LindbladGenerator(h, kernel=scattering_kernel(params, grid))


def collisional_decoherence_time(Lambda: float, dx: float) -> float:
    """Characteristic time 1 / (Lambda dx^2) for coherence over separation dx."""
    if Lambda <= 0 or dx <= 0:
        raise ValueError("Lambda and dx must be positive")
    return 1.0 / (Lambda * dx * dx)


def collisional_evolve_split_step(params: CollisionalParams, grid: Grid1D,
                                  psi0: StateVector, dt: float, n_steps: int,
                                  record_stride: int = 1,
                                  include_free_dynamics: bool = True,
                                  ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Strang-split evolution of rho(x, x') for either scattering regime.

    Runs lindblad.split_march on the scattering generator: exact kinetic
    phases in the momentum representation, the exact factor exp(K dt) in
    the position representation.  Returns (times, raw state matrices).
    """
    cfg = IntegratorConfig(dt, n_steps * dt, record_stride)
    rho = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    gen = collisional_generator(params, grid, include_free_dynamics)
    return cfg.record_times(), list(split_march(gen, rho, dt, cfg.n_steps, record_stride))


def decoherence_dissipation_ratio(mass_kg: float, temperature_K: float,
                                  dx_m: float) -> float:
    """Ballpark ratio of relaxation to decoherence timescales, (dx / lambda_th)^2.

    SI inputs.  For a gram-scale object at room temperature with a
    centimeter separation this is of order 10^40: decoherence outpaces
    dissipation by forty orders of magnitude.
    """
    if dx_m <= 0:
        raise ValueError("separation must be positive")
    lam = thermal_de_broglie_wavelength(mass_kg, temperature_K)
    return (dx_m / lam) ** 2


# ---------------------------------------------------------------------------
# Scattering-constant quadratures
# ---------------------------------------------------------------------------

def effective_cross_section(amplitude_sq: Callable[[float, float], float],
                            q: float) -> float:
    """sigma_eff(q) = (2 pi / 3) int dcos(theta) (1 - cos(theta)) |f(q, cos)|^2."""
    val, _ = scipy.integrate.quad(
        lambda c: (1.0 - c) * amplitude_sq(q, c), -1.0, 1.0, limit=200)
    return (2.0 * math.pi / 3.0) * val


def scattering_constant(number_density: Callable[[float], float],
                        speed: Callable[[float], float],
                        amplitude_sq: Callable[[float, float], float],
                        q_max: float) -> float:
    """Lambda = int dq rho(q) v(q) q^2 sigma_eff(q), with hbar = 1.

    The momentum-resolved density rho(q), speed v(q), and differential
    cross-section |f(q, cos theta)|^2 are environment inputs that live
    outside this package; published timescale tables draw them from
    tabulated gas and photon data, so only the quadrature is provided here.
    """
    def integrand(q: float) -> float:
        return number_density(q) * speed(q) * q * q * effective_cross_section(amplitude_sq, q)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, _ = scipy.integrate.quad(integrand, 0.0, q_max, limit=200)
    return val


def hard_sphere_amplitude_sq(radius: float) -> Callable[[float, float], float]:
    """Isotropic low-energy hard-sphere |f|^2 = R^2 / 4 (demo default)."""
    return lambda q, cos_theta: radius * radius / 4.0


# ---------------------------------------------------------------------------
# Which-path interference
# ---------------------------------------------------------------------------

def interference_pattern(alpha: complex, beta: complex,
                         psi1: StateVector, psi2: StateVector,
                         env_overlap: complex, dx: float) -> np.ndarray:
    """Detection probability density for a two-path superposition.

    P(x) = |alpha|^2 |psi1|^2 + |beta|^2 |psi2|^2
           + 2 Re{alpha beta* psi1 psi2* <E2|E1>}

    The environment overlap scales the cross term: 1 keeps full fringe
    visibility, 0 leaves the classical sum.  Wave functions are grid
    amplitudes; dx converts to densities integrating to 1.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    if abs(env_overlap) > 1.0 + 1e-12:
        raise ValueError("|env_overlap| cannot exceed 1")
    a1 = psi1.amplitudes / math.sqrt(dx)
    a2 = psi2.amplitudes / math.sqrt(dx)
    p = (abs(alpha) ** 2 * np.abs(a1) ** 2
         + abs(beta) ** 2 * np.abs(a2) ** 2
         + 2.0 * np.real(alpha * np.conj(beta) * a1 * np.conj(a2) * env_overlap))
    if np.min(p) < -1e-12:
        raise ValueError("pattern turned negative; inputs violate normalization")
    return np.clip(p, 0.0, None)
