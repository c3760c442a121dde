"""References computed apart from the program under test.

Nothing here imports `decoherence`.  The bath coefficients are the same
physical quantities the program integrates, but taken in the other order:
the program integrates an adaptive quadrature over the correlation time
tau whose integrand is itself a Fourier integral over frequency; here the
tau integral is done in closed form, leaving one integral over frequency
per coefficient,

    int_0^tc dtau cos(w tau) cos(W tau) = Kcc(w)
    int_0^tc dtau sin(w tau) sin(W tau) = Kss(w)
    int_0^tc dtau sin(w tau) cos(W tau) = Ksc(w)
    int_0^tc dtau cos(w tau) sin(W tau) = Kcs(w)

so that, with nu(tau) = int J coth(w/2T) cos(w tau) dw and
eta(tau) = int J sin(w tau) dw,

    int_0^tc nu(tau)  cos(W tau) dtau = int J(w) coth(w/2T) Kcc(w) dw
    int_0^tc nu(tau)  sin(W tau) dtau = int J(w) coth(w/2T) Kcs(w) dw
    int_0^tc eta(tau) sin(W tau) dtau = int J(w) Kss(w) dw
    int_0^tc eta(tau) cos(W tau) dtau = int J(w) Ksc(w) dw.

The finite range [0, w0] is integrated directly; beyond w0 each kernel is
split into smooth parts times sin(w tc) and cos(w tc), which go to QAWF.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
from scipy.integrate import IntegrationWarning, quad

KERNELS = ("cc", "ss", "sc", "cs")


def _half_sin_over(x: float, tc: float) -> float:
    """sin(x tc) / (2 x), finite at x = 0."""
    return 0.5 * tc * float(np.sinc(x * tc / math.pi))


def _half_one_minus_cos_over(x: float, tc: float) -> float:
    """(1 - cos(x tc)) / (2 x), finite at x = 0."""
    y = x * tc
    return 0.5 * tc * math.sin(0.5 * y) * float(np.sinc(y / (2.0 * math.pi)))


def kernel(kind: str, w: float, omega: float, tc: float) -> float:
    """Closed-form tau integral over [0, tc] of the named trigonometric pair."""
    if kind == "cc":
        return _half_sin_over(w - omega, tc) + _half_sin_over(w + omega, tc)
    if kind == "ss":
        return _half_sin_over(w - omega, tc) - _half_sin_over(w + omega, tc)
    if kind == "sc":
        return _half_one_minus_cos_over(w + omega, tc) + _half_one_minus_cos_over(w - omega, tc)
    if kind == "cs":
        return _half_one_minus_cos_over(omega + w, tc) + _half_one_minus_cos_over(omega - w, tc)
    raise ValueError(f"unknown kernel {kind!r}")


def _tail_parts(kind: str, omega: float, tc: float):
    """Kernel for w > omega as A0(w) + As(w) sin(w tc) + Ac(w) cos(w tc)."""
    c, s = math.cos(omega * tc), math.sin(omega * tc)

    def minus(w):  # 1 / (2 (w - omega))
        return 0.5 / (w - omega)

    def plus(w):  # 1 / (2 (w + omega))
        return 0.5 / (w + omega)

    if kind == "cc":
        return None, lambda w: c * (minus(w) + plus(w)), lambda w: s * (plus(w) - minus(w))
    if kind == "ss":
        return None, lambda w: c * (minus(w) - plus(w)), lambda w: -s * (minus(w) + plus(w))
    if kind == "sc":
        return (lambda w: plus(w) + minus(w), lambda w: s * (plus(w) - minus(w)),
                lambda w: -c * (plus(w) + minus(w)))
    # cs: 1/(2(omega - w)) = -minus(w)
    return (lambda w: plus(w) - minus(w), lambda w: s * (plus(w) + minus(w)),
            lambda w: -c * (plus(w) - minus(w)))


def thermal_weight(w: float, T: float) -> float:
    """w coth(w / 2T), finite at w = 0 (coth -> 1 at T = 0)."""
    if T == 0.0:
        return w
    u = w / (2.0 * T)
    if u < 1e-6:
        return 2.0 * T * (1.0 + u * u / 3.0)
    if u > 36.0:
        return w
    return w / math.tanh(u)


def swapped_integral(j_over_w, T: float | None, omega: float, tc: float,
                     kind: str, scale: float) -> tuple[float, float]:
    """int_0^inf J(w) [coth(w/2T)] K_kind(w) dw and its error estimate.

    j_over_w(w) = J(w) / w must be smooth; T = None drops the coth factor
    (the eta kernels); scale is the frequency scale of J (its cutoff).
    """
    if kind not in KERNELS:
        raise ValueError(f"unknown kernel {kind!r}")

    def amp(w: float) -> float:
        return j_over_w(w) * (thermal_weight(w, T) if T is not None else w)

    w0 = 20.0 * max(scale, omega) + 40.0 * math.pi / tc
    points = sorted(p for p in {omega, scale} if 0.0 < p < w0)
    a0, a_sin, a_cos = _tail_parts(kind, omega, tc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda w: amp(w) * kernel(kind, w, omega, tc), 0.0, w0,
                        points=points or None, limit=5000, epsabs=0.0, epsrel=1e-12)
        for part, weight in ((a_sin, "sin"), (a_cos, "cos")):
            v, e = quad(lambda w: amp(w) * part(w), w0, np.inf, weight=weight,
                        wvar=tc, limlst=200, limit=1000)
            val, err = val + v, err + e
        if a0 is not None:
            v, e = quad(lambda w: amp(w) * a0(w), w0, np.inf, limit=1000,
                        epsabs=0.0, epsrel=1e-12)
            val, err = val + v, err + e
    if not math.isfinite(val):
        raise ArithmeticError(f"reference integral {kind} did not converge")
    return val, err


def qbm_reference(mass: float, omega: float, gamma0: float, T: float,
                  cutoff: float, tc: float) -> dict:
    """Oscillator-bath coefficients for the Lorentz-Drude ohmic density.

    J(w) = (2 M gamma0 / pi) w L^2 / (L^2 + w^2) and the weak-coupling
    coefficients of Hu, Paz and Zhang: shift = -(2/M) int eta cos,
    gamma = (1/(M W)) int eta sin, D = int nu cos, f = -(1/(M W)) int nu sin,
    all over [0, tc].  Returns each value and its error estimate.
    """
    pref = 2.0 * mass * gamma0 / math.pi

    def j_over_w(w):
        return pref * cutoff ** 2 / (cutoff ** 2 + w * w)

    nu_cos = swapped_integral(j_over_w, T, omega, tc, "cc", cutoff)
    nu_sin = swapped_integral(j_over_w, T, omega, tc, "cs", cutoff)
    eta_sin = swapped_integral(j_over_w, None, omega, tc, "ss", cutoff)
    eta_cos = swapped_integral(j_over_w, None, omega, tc, "sc", cutoff)
    return {
        "D": (nu_cos[0], nu_cos[1]),
        "f": (-nu_sin[0] / (mass * omega), nu_sin[1] / (mass * omega)),
        "gamma": (eta_sin[0] / (mass * omega), eta_sin[1] / (mass * omega)),
        "omega_shift_sq": (-2.0 * eta_cos[0] / mass, 2.0 * eta_cos[1] / mass),
    }


def lorentz_drude_closed_forms(gamma0: float, omega: float, cutoff: float) -> dict:
    """Long-time damping and squared-frequency shift of the Lorentz-Drude bath.

    gamma = gamma0 L^2 / (L^2 + W^2) and shift = -2 gamma0 L L^2 / (L^2 + W^2),
    the finite-cutoff forms whose L -> infinity limits are the
    Caldeira-Leggett damping gamma0 and shift -2 gamma0 L.
    """
    ld = cutoff ** 2 / (cutoff ** 2 + omega ** 2)
    return {"gamma": gamma0 * ld, "omega_shift_sq": -2.0 * gamma0 * cutoff * ld}


def spin_boson_reference(alpha: float, T: float, cutoff: float, delta0: float,
                         tc: float) -> dict:
    """Dephasing strength and decay coefficient of the unbiased spin-boson model.

    J(w) = alpha w L^2 / (L^2 + w^2); D = int_0^tc nu cos(Delta0 tau) and
    zeta^* = int_0^tc (nu - i eta) sin(Delta0 tau).  At Delta0 = 0 the D
    kernel is sin(w tc) / w.
    """
    def j_over_w(w):
        return alpha * cutoff ** 2 / (cutoff ** 2 + w * w)

    D = swapped_integral(j_over_w, T, delta0, tc, "cc", cutoff)
    out = {"D": D}
    if delta0 > 0:
        zr = swapped_integral(j_over_w, T, delta0, tc, "cs", cutoff)
        zi = swapped_integral(j_over_w, None, delta0, tc, "ss", cutoff)
        out["zeta_conj"] = (complex(zr[0], -zi[0]), zr[1] + zi[1])
    return out


def moment_flow_variance(mass: float, omega_sq: float, gamma: float, D: float,
                         f: float, moments0, times) -> np.ndarray:
    """Var(x)(t) of the quadratic oscillator master equation.

    The equation -i[p^2/2M + M w^2 x^2/2, rho] - i gamma [x, {p, rho}]
    - D [x, [x, rho]] - f [x, [p, rho]] closes on m = (<x>, <p>, <x^2>,
    <xp + px>, <p^2>): d<A>/dt = Tr(A L[rho]) gives a linear flow
    dm/dt = A m + b, solved exactly here with the matrix exponential of the
    affine 6 x 6 system.
    """
    M, k = mass, mass * omega_sq
    A = np.zeros((6, 6))
    A[0, 1] = 1.0 / M                     # d<x>/dt
    A[1, 0], A[1, 1] = -k, -2.0 * gamma   # d<p>/dt
    A[2, 3] = 1.0 / M                     # d<x^2>/dt
    A[3, 2], A[3, 3], A[3, 4] = -2.0 * k, -2.0 * gamma, 2.0 / M
    A[3, 5] = -2.0 * f                    # anomalous diffusion
    A[4, 3], A[4, 4], A[4, 5] = -k, -4.0 * gamma, 2.0 * D
    m0 = np.append(np.asarray(moments0, dtype=float), 1.0)
    t0 = float(times[0])
    out = []
    for t in times:
        m = scipy.linalg.expm(A * (float(t) - t0)) @ m0
        out.append(m[2] - m[0] ** 2)
    return np.array(out)


def fit_exponential_rate(times, values, window=(0.05, 0.9)) -> float:
    """Least-squares slope of -log(value) where value/value[0] is in the window."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    rel = v / v[0]
    keep = (rel >= window[0]) & (rel <= window[1]) & (v > 0)
    if np.count_nonzero(keep) < 3:
        raise ValueError("fewer than 3 points in the fit window")
    slope = np.polyfit(t[keep], np.log(v[keep]), 1)[0]
    return float(-slope)


def zero_crossing_wavelength(p, w) -> float:
    """Twice the mean spacing of the sign changes of w(p), linearly interpolated.

    Only the central region where |w| exceeds 1e-3 of its peak is used, so
    the noise floor of the Gaussian envelope adds no crossings.
    """
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    live = np.nonzero(np.abs(w) > 1e-3 * np.max(np.abs(w)))[0]
    p, w = p[live[0]:live[-1] + 1], w[live[0]:live[-1] + 1]
    idx = np.nonzero(np.sign(w[:-1]) * np.sign(w[1:]) < 0)[0]
    if len(idx) < 2:
        raise ValueError("fewer than two sign changes")
    zeros = p[idx] - w[idx] * (p[idx + 1] - p[idx]) / (w[idx + 1] - w[idx])
    return float(2.0 * np.mean(np.diff(zeros)))
