"""Spin-boson model: a qubit coupled to an oscillator bath via sigma_z.

Without a tunneling term the total Hamiltonian commutes with sigma_z, so
populations are frozen and the model describes decoherence without
dissipation; the coherence decay has an exact integral expression.  With
tunneling Delta_0, the weak-coupling master equation carries a dephasing
strength D, a complex decay coefficient zeta, and a bath-renormalized
(non-Hermitian) effective Hamiltonian proportional to sigma_x.

D and zeta^* are lag integrals of the bath kernels over [0, tc], each
computed as one frequency integral int_0^inf A(w) K(w) dw.  With
S(x) = sin(x tc) / 2x and C(x) = (1 - cos(x tc)) / 2x:

    D          A = J coth(w / 2T)   K = S(w - Delta0) + S(w + Delta0)
    Re zeta^*  A = J coth(w / 2T)   K = C(w + Delta0) - C(w - Delta0)
    -Im zeta^* A = J                K = S(w - Delta0) - S(w + Delta0)
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
from scipy.integrate import quad

from ..core import Operator, SIGMA_X, SIGMA_Y, SIGMA_Z
from ..lindblad import (
    CorrelationKernelSpec,
    ExtraTerm,
    LindbladGenerator,
    QuadratureError,
)


def ohmic_coupling(alpha: float, cutoff: float) -> Callable[[float], float]:
    """Dimensionless ohmic spectral density alpha w Lambda^2/(Lambda^2 + w^2)."""
    return lambda w: alpha * w * cutoff ** 2 / (cutoff ** 2 + w ** 2)


@dataclass(frozen=True)
class SpinBosonParams:
    """Level splitting omega0, tunneling Delta0, bath (J, T, cutoff)."""

    omega0: float
    Delta0: float
    J: Callable[[float], float]
    T: float
    cutoff: float

    def __post_init__(self):
        if self.omega0 < 0 or self.Delta0 < 0:
            raise ValueError("frequencies must be nonnegative")
        if self.T < 0 or self.cutoff <= 0:
            raise ValueError("bath parameters out of range")

    def thermal_correlation_time(self) -> float:
        """tau_B = 2 / k_B T, the scale on which thermal decoherence sets in."""
        if self.T <= 0:
            raise ValueError("thermal correlation time needs T > 0")
        return 2.0 / self.T


def spin_boson_pure_dephasing(params: SpinBosonParams) -> Callable[[float], float]:
    """Exact coherence factor |rho_01(t) / rho_01(0)| for Delta0 = 0.

    The sigma_z populations are untouched; the coherence decays as
    exp(-Gamma(t)) with

        Gamma(t) = 4 int_0^inf dw J(w) coth(w / 2 T) (1 - cos w t) / w^2,

    whose long-time slope reproduces the Markovian rate 4 D with
    D = int_0^inf nu(tau) dtau.  At T = 0 the coth factor is 1; a
    spectral density without an infrared-vanishing J(w)/w^2 tail makes the
    integral diverge and is rejected.
    """
    if params.Delta0 != 0:
        raise ValueError("exact solution requires Delta0 = 0")
    J, T = params.J, params.T
    weight = _bath_kernels(params).noise_weight  # J(w) coth(w / 2T)

    # estimate the low-frequency exponent s of J ~ w^s; the integrand
    # behaves as w^s near zero at T = 0 and as T w^(s-1) at T > 0
    w1, w2 = 1e-8 * params.cutoff, 1e-6 * params.cutoff
    j1, j2 = J(w1), J(w2)
    if j1 > 0 and j2 > 0:
        s = math.log(j2 / j1) / math.log(w2 / w1)
        if (T == 0.0 and s <= -1.0) or (T > 0.0 and s <= 0.0):
            raise QuadratureError(
                f"infrared-divergent dephasing integral: J ~ w^{s:.2f} "
                f"at low frequency with T={T}")

    def gamma_of_t(t: float) -> float:
        if t == 0.0:
            return 0.0

        def integrand(w: float) -> float:
            return weight(w) * (1.0 - math.cos(w * t)) / (w * w)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            # split at the cutoff to keep the oscillatory tail tame
            v1, e1 = quad(integrand, 0.0, params.cutoff, limit=400)
            v2, e2 = quad(integrand, params.cutoff, np.inf, limit=400)
        val = 4.0 * (v1 + v2)
        if not np.isfinite(val):
            raise QuadratureError("dephasing integral diverged")
        return val

    return lambda t: math.exp(-gamma_of_t(t))


def _bath_kernels(params: SpinBosonParams) -> CorrelationKernelSpec:
    """The bath kernels, integrated over [0, tc], tc = 50 / cutoff."""
    return CorrelationKernelSpec(params.J, params.T, 50.0 / params.cutoff)


def spin_boson_born_markov(params: SpinBosonParams) -> LindbladGenerator:
    """Weak-coupling generator for the unbiased (omega0 = 0) model.

    d rho/dt = -i (H' rho - rho H'^dag) - D [sz, [sz, rho]]
               - zeta sz rho sy - zeta^* sy rho sz,

    with H' = (Delta0 / 2 + zeta^*) sx,
    zeta^* = int_0^tc (nu - i eta)(tau) sin(Delta0 tau) dtau and
    D = int_0^tc nu(tau) cos(Delta0 tau) dtau.  For Delta0 = 0 this
    collapses to pure dephasing (zeta = 0).
    """
    if params.omega0 != 0:
        raise ValueError("weak-coupling generator covers the unbiased case omega0 = 0")
    kernels = _bath_kernels(params)
    d0 = params.Delta0
    D, _ = kernels.lag_integral("nu", "cos", d0)
    zeta_conj = 0.0
    if d0 > 0:
        zeta_conj = complex(kernels.lag_integral("nu", "sin", d0)[0],
                            -kernels.lag_integral("eta", "sin", d0)[0])
    zeta = np.conj(zeta_conj)

    if d0 > 0 and D > d0:
        warnings.warn(
            f"dephasing strength D={D:.3g} exceeds the tunneling frequency "
            f"Delta0={d0:.3g}; the weak-coupling equation is unreliable here",
            stacklevel=2)

    h_eff = Operator((0.5 * d0 + zeta_conj) * SIGMA_X.matrix)
    extra = [ExtraTerm("double_comm", SIGMA_Z, SIGMA_Z, -D, label="dephasing")]
    if d0 > 0:
        extra.append(ExtraTerm("sandwich", SIGMA_Z, SIGMA_Y, -zeta, label="decay"))
        extra.append(ExtraTerm("sandwich", SIGMA_Y, SIGMA_Z, -zeta_conj, label="decay*"))
    return LindbladGenerator(h_eff, [], extra_terms=extra)


def spin_boson_dephasing_strength(params: SpinBosonParams) -> float:
    """D = int_0^tc nu(tau) cos(Delta0 tau) dtau for the unbiased model."""
    return _bath_kernels(params).lag_integral("nu", "cos", params.Delta0)[0]


def effective_spin_env_spectral_density(J: Callable[[float], float], T: float,
                                        ) -> Callable[[float], float]:
    """Map a spin bath onto an equivalent oscillator bath.

    J_eff(w, T) = J(w) tanh(w / 2 T); at T -> 0 the spin and oscillator
    baths coincide, at high T the effective coupling is suppressed by
    w / 2 T.
    """
    if T < 0:
        raise ValueError("temperature must be nonnegative")

    def j_eff(w: float) -> float:
        if T == 0.0:
            return J(w)
        return J(w) * math.tanh(w / (2.0 * T))

    return j_eff
