"""Quantum Brownian motion: a particle position-coupled to a thermal bath.

The weak-coupling master equation for an oscillator of mass M and frequency
Omega bilinearly coupled to an ohmic oscillator bath carries four
coefficients obtained from the bath kernels: a squared-frequency shift, a
momentum-damping rate gamma, a spatial-decoherence strength D, and an
anomalous x-p diffusion strength f.  In the high-temperature, large-cutoff
regime D approaches 2 M gamma0 k_B T (hbar = k_B = 1) and the equation
becomes the familiar high-T limit with its (Delta x / lambda_th)^2
localization rate.

The full equation is not of Lindblad form (the damping and anomalous terms
are not completely positive on their own), so the generator carries them as
structured extra terms.  Its operators are grid operators: x is diagonal in
position, p diagonal in momentum and H = p^2/2M + V(x) the sum of both, so
a generator apply is FFTs and elementwise products, and no dense n x n
operator is built.

The equation is quadratic, so the moments m = (<x>, <p>, <x^2>, <xp+px>,
<p^2>) follow a closed affine flow d m / dt = A m + b (`qbm_moment_matrix`),
and a Gaussian state stays Gaussian.  Each generator carries the (A, b) of
its own coefficients and switches, and `lindblad.propagate` takes the
"gaussian" route from it: every record of a Gaussian packet from its
moments, with no time step, when the packet is a Gaussian within 1e-8 of
its largest entry, its predicted edge densities stay within 1e-6 of their
peaks, and det S >= 1/4 holds at every record time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import Grid1D, GridOperator
from ..lindblad import (
    BornMarkovCoefficients,
    CorrelationKernelSpec,
    ExtraTerm,
    LindbladGenerator,
    born_markov_coefficients,
    moment_flow,
    ohmic,
)


@dataclass(frozen=True)
class QBMParams:
    mass: float
    Omega: float
    gamma0: float
    T: float
    cutoff: float

    def __post_init__(self):
        for name in ("mass", "Omega", "gamma0", "T", "cutoff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def is_high_temperature(self) -> bool:
        """k_B T well above both hbar Omega and hbar Lambda."""
        return self.T >= 10.0 * self.Omega and self.T >= 10.0 * self.cutoff


def qbm_coefficients(params: QBMParams) -> BornMarkovCoefficients:
    """Kernel quadratures for the ohmic bath at the system frequency, with
    the lags integrated over [0, 50 / cutoff]."""
    kernels = CorrelationKernelSpec(ohmic(params.mass, params.gamma0, params.cutoff),
                                    params.T, 50.0 / params.cutoff)
    return born_markov_coefficients(kernels, params.Omega, mass=params.mass)


def _hamiltonian(grid: Grid1D, mass: float, omega_sq: float) -> GridOperator:
    """p^2 / 2M + M omega_sq x^2 / 2, diagonal in momentum plus diagonal in position."""
    return GridOperator(grid.kinetic_hamiltonian(mass).kinetic,
                        0.5 * mass * omega_sq * grid.x ** 2)


def qbm_generator(params: QBMParams, grid: Grid1D,
                  include_anomalous: bool = True,
                  include_dissipation: bool = True,
                  coefficients: BornMarkovCoefficients | None = None,
                  ) -> LindbladGenerator:
    """Weak-coupling oscillator-bath generator on a position grid.

    The decoherence term -D [x, [x, rho]] is carried as the Lindblad pair
    (rate 2D, L = x); damping and the anomalous term (switchable; it is
    usually negligible at high temperature but belongs to the equation) are
    extra terms.  The generator carries its moment flow.
    """
    c = coefficients if coefficients is not None else qbm_coefficients(params)
    gamma = c.gamma if include_dissipation else 0.0
    f = c.f if include_dissipation and include_anomalous else 0.0
    return _oscillator_generator(params.mass, params.Omega ** 2 + c.omega_shift_sq,
                                 gamma, c.D, f, grid)


def caldeira_leggett_generator(params: QBMParams, grid: Grid1D,
                               include_dissipation: bool = True,
                               ) -> LindbladGenerator:
    """High-temperature limit with closed-form coefficients.

    Uses D = 2 M gamma0 k_B T, damping gamma0, frequency shift
    -2 gamma0 Lambda, and drops the anomalous term (negligible for
    Lambda >> Omega).  Warns when the parameters are outside the
    high-temperature regime the closed forms assume.
    """
    if not params.is_high_temperature():
        import warnings
        warnings.warn(
            f"closed-form high-T coefficients used at k_B T = {params.T} "
            f"with Omega = {params.Omega}, cutoff = {params.cutoff}; "
            "the limit assumes k_B T well above both",
            stacklevel=2)
    return _oscillator_generator(
        params.mass, params.Omega ** 2 - 2.0 * params.gamma0 * params.cutoff,
        params.gamma0 if include_dissipation else 0.0,
        2.0 * params.mass * params.gamma0 * params.T, 0.0, grid)


def _oscillator_generator(mass: float, omega_sq: float, gamma: float, D: float,
                          f: float, grid: Grid1D) -> LindbladGenerator:
    """-i [p^2/2M + M omega_sq x^2/2, rho] - D [x, [x, rho]], the damping term
    -i gamma [x, {p, rho}] and the anomalous term -f [x, [p, rho]] when their
    rates are nonzero, carrying the moment flow of exactly these terms."""
    x = grid.position_operator()
    p = grid.momentum_operator()
    extra = []
    if gamma != 0.0:
        extra.append(ExtraTerm("comm_anticomm", x, p, -1j * gamma, label="damping"))
    if f != 0.0:
        extra.append(ExtraTerm("double_comm", x, p, -f, label="anomalous"))
    a, b = qbm_moment_matrix(mass, omega_sq, gamma, D, f)
    return LindbladGenerator(_hamiltonian(grid, mass, omega_sq), [(2.0 * D, x)],
                             extra_terms=extra, moments=(a, b, grid))


# ---------------------------------------------------------------------------
# Moment flow
# ---------------------------------------------------------------------------

def qbm_moment_matrix(mass: float, omega_sq: float, gamma: float, D: float,
                      f: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear flow of (<x>, <p>, <x^2>, <xp+px>, <p^2>) under the equation.

    Returns (A, b) with d m / dt = A m + b.  Derived by taking
    Tr(observable * rhs) term by term; the quadratic Hamiltonian closes the
    hierarchy at second order.
    """
    A = np.zeros((5, 5))
    b = np.zeros(5)
    M = mass
    # unitary part, H = p^2/2M + (M omega_sq/2) x^2
    A[0, 1] = 1.0 / M
    A[1, 0] = -M * omega_sq
    A[2, 3] = 1.0 / M
    A[3, 2] = -2.0 * M * omega_sq
    A[3, 4] = 2.0 / M
    A[4, 3] = -M * omega_sq
    # damping -(i gamma)[x, {p, rho}]
    A[1, 1] += -2.0 * gamma
    A[3, 3] += -2.0 * gamma
    A[4, 4] += -4.0 * gamma
    # decoherence -D [x, [x, rho]]: momentum diffusion
    b[4] += 2.0 * D
    # anomalous -f [x, [p, rho]]
    b[3] += -2.0 * f
    return A, b


def qbm_position_variance(params: QBMParams, times: np.ndarray,
                          initial_moments: np.ndarray,
                          coefficients: BornMarkovCoefficients | None = None,
                          free_particle: bool = False,
                          include_anomalous: bool = True) -> np.ndarray:
    """Var(x)(t) from the second-moment flow, solved exactly by `moment_flow`
    from initial_moments at times[0].  free_particle drops the (shifted)
    potential, the regime in which the late-time variance grows linearly at
    rate D / (2 M^2 gamma^2).
    """
    c = coefficients if coefficients is not None else qbm_coefficients(params)
    omega_sq = 0.0 if free_particle else params.Omega ** 2 + c.omega_shift_sq
    a, b = qbm_moment_matrix(params.mass, omega_sq, c.gamma, c.D,
                             c.f if include_anomalous else 0.0)
    t = np.asarray(times, dtype=float)
    m = moment_flow(a, b, initial_moments, t - t[0])
    return m[:, 2] - m[:, 0] ** 2


def localization_rate(mass: float, gamma0: float, T: float, dx: float) -> float:
    """Spatial decoherence rate D dx^2 = gamma0 (dx / lambda_th)^2 at high T."""
    D = 2.0 * mass * gamma0 * T
    return D * dx * dx
