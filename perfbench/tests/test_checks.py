"""Each correctness check of the benchmark rejects a deliberately wrong output.

These tests live outside the repository's Tier-1 testpaths; run them with

    python3 -m pytest perfbench/tests -q

They feed the checks synthetic outputs built from closed forms, once as
they should be and once perturbed, and never start the program.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def test_decay_rate_off_by_five_percent_is_rejected():
    t = np.linspace(0.0, 8.0, 41)
    assert checks.decay_rate("c", t, np.exp(-0.5 * t), 0.5, 0.01) == []
    assert checks.decay_rate("c", t, np.exp(-0.5 * 1.05 * t), 0.5, 0.01) != []


def test_decay_rate_without_fit_window_is_rejected():
    t = np.linspace(0.0, 1.0, 11)
    assert checks.decay_rate("c", t, np.ones_like(t), 0.5, 0.01) != []


def _densities(scale_last=1.0):
    x = np.linspace(-4.0, 4.0, 81)
    dx = x[1] - x[0]
    rows_t, rows_x, rows_d = [], [], []
    for k, t in enumerate((0.0, 1.0)):
        d = np.exp(-x * x / 2.0)
        d /= np.sum(d) * dx
        if k == 1:
            d *= scale_last
        rows_t += [t] * len(x)
        rows_x += list(x)
        rows_d += list(d)
    return np.array(rows_t), np.array(rows_x), np.array(rows_d)


def test_trace_off_by_1e_6_is_rejected():
    assert checks.densities_normalized("d", *_densities(), 1e-9) == []
    assert checks.densities_normalized("d", *_densities(1.0 + 1e-6), 1e-9) != []


def _cat_wigner(x0=2.0, sigma=0.5, scale=1.0):
    """W of a symmetric two-Gaussian cat, normalized on its grid."""
    x = np.linspace(-8.0, 8.0, 161)
    p = np.linspace(-10.0, 10.0, 401)
    X, P = np.meshgrid(x, p, indexing="ij")
    g = lambda c: np.exp(-(X - c) ** 2 / (2 * sigma ** 2) - 2 * sigma ** 2 * P ** 2)  # noqa: E731
    w = g(x0) + g(-x0) + 2 * np.exp(-X ** 2 / (2 * sigma ** 2) - 2 * sigma ** 2 * P ** 2) \
        * np.cos(2 * x0 * P)
    w /= np.sum(w) * (x[1] - x[0]) * (p[1] - p[0])
    return X.ravel(), P.ravel(), scale * w.ravel()


def test_wigner_normalization_off_is_rejected():
    assert checks.wigner_normalized("w", *_cat_wigner()) == []
    assert checks.wigner_normalized("w", *_cat_wigner(scale=1.001)) != []


def test_ridge_wavelength_of_another_separation_is_rejected():
    assert checks.ridge_wavelength("w", *_cat_wigner(x0=2.0), x0=2.0) == []
    assert checks.ridge_wavelength("w", *_cat_wigner(x0=2.2), x0=2.0) != []


def test_purity_and_entropy_out_of_bounds_are_rejected():
    ok = checks.purity_entropy_bounds("s", [1.0, 0.5, 0.25], [0.0, 1.0, 2.0], dim=4)
    assert ok == []
    assert checks.purity_entropy_bounds("s", [1.0 + 1e-6], [0.0], dim=4) != []
    assert checks.purity_entropy_bounds("s", [0.2], [0.0], dim=4) != []
    assert checks.purity_entropy_bounds("s", [0.5], [-1e-6], dim=4) != []


def test_trajectory_mean_shifted_by_four_standard_errors_is_rejected():
    t = np.linspace(0.0, 1.0, 11)
    want = np.exp(-t)
    se = np.full_like(t, 0.01)
    se[0] = 0.0
    shifted = want.copy()
    shifted[5] += 2.0 * se[5]
    assert checks.trajectory_band("tr", t, shifted, se, want) == []
    shifted[5] = want[5] + 4.0 * se[5]
    assert checks.trajectory_band("tr", t, shifted, se, want) != []


def test_coefficient_off_by_more_than_its_reported_error_is_rejected():
    assert checks.coefficient("D", 100.0 + 0.9, 100.0, 0.0, 1.0) == []
    assert checks.coefficient("D", 100.0 + 1.1, 100.0, 0.0, 1.0) != []


def test_variance_off_the_moment_flow_is_rejected():
    t = np.linspace(0.0, 1.0, 5)
    want = 1.0 + t
    assert checks.series_close("v", t, want * (1 + 1e-7), want, 1e-6) == []
    assert checks.series_close("v", t, want * (1 + 1e-5), want, 1e-6) != []


def test_cavity_time_outside_window_is_rejected():
    assert checks.in_range("t_d", 0.0215, 0.020, 0.024) == []
    assert checks.in_range("t_d", 0.0245, 0.020, 0.024) != []


def test_moment_flow_matches_free_and_damped_closed_forms():
    t = np.linspace(0.0, 2.0, 9)
    # free particle: Var(t) = Var0 + <xp+px>0 t / M + <p^2>0 t^2 / M^2
    var = reference.moment_flow_variance(2.0, 0.0, 0.0, 0.0, 0.0,
                                         (0.0, 0.0, 1.0, 0.2, 0.5), t)
    np.testing.assert_allclose(var, 1.0 + 0.1 * t + 0.125 * t * t, rtol=1e-12)
    # momentum diffusion alone: <p^2> grows as 2 D t, so Var gains 2 D t^3 / (3 M^2)
    var = reference.moment_flow_variance(1.0, 0.0, 0.0, 0.3, 0.0,
                                         (0.0, 0.0, 1.0, 0.0, 0.0), t)
    np.testing.assert_allclose(var, 1.0 + 0.2 * t ** 3, rtol=1e-12)


def test_swapped_integrals_match_lorentz_drude_closed_forms():
    # eta(tau) = M gamma0 L^2 exp(-L tau) for the Lorentz-Drude density,
    # so int_0^inf eta sin(W tau) = M gamma0 L^2 W / (L^2 + W^2)
    M, W, g0, T, L = 1.0, 1.0, 0.1, 2.0, 20.0
    ref = reference.qbm_reference(M, W, g0, T, L, 50.0 / L)
    closed = reference.lorentz_drude_closed_forms(g0, W, L)
    assert ref["gamma"][0] == pytest.approx(closed["gamma"], rel=1e-9)
    assert ref["omega_shift_sq"][0] == pytest.approx(closed["omega_shift_sq"], rel=1e-9)


def test_truncated_kernel_matches_lorentzian_closed_form():
    # J(w) = w L^2/(L^2 + w^2) has eta(tau) = (pi/2) L^2 exp(-L tau), so
    # int_0^tc eta(tau) dtau = (pi/2) L (1 - exp(-L tc)); tc = 1/L keeps
    # the truncation visible
    L = 50.0
    tc = 1.0 / L
    val, _ = reference.swapped_integral(lambda w: L * L / (L * L + w * w), None, 0.0, tc,
                                        "sc", L)
    assert val == pytest.approx(0.5 * math.pi * L * (1.0 - math.exp(-1.0)), rel=1e-9)


def test_thermal_weight_is_continuous_across_its_branches():
    T = 2.0
    for u in (1e-6, 36.0):
        w = 2.0 * T * u
        below = reference.thermal_weight(w * (1 - 1e-9), T)
        above = reference.thermal_weight(w * (1 + 1e-9), T)
        assert below == pytest.approx(above, rel=1e-8)
    assert reference.thermal_weight(0.0, T) == 2.0 * T


def _qbm_point(T, cutoff, gamma_factor):
    params = SimpleNamespace(mass=1.0, Omega=1.0, gamma0=0.1, T=T, cutoff=cutoff,
                             is_high_temperature=lambda: T >= 10 and T >= 10 * cutoff)
    ref = reference.qbm_reference(1.0, 1.0, 0.1, T, cutoff, 50.0 / cutoff)
    closed = reference.lorentz_drude_closed_forms(0.1, 1.0, cutoff)
    c = SimpleNamespace(D=ref["D"][0], f=ref["f"][0], omega_shift_sq=ref["omega_shift_sq"][0],
                        gamma=gamma_factor * closed["gamma"], quadrature_error=1e-8)
    return params, c


def test_bath_damping_is_checked_against_the_closed_form():
    params, c = _qbm_point(2.0, 20.0, 1.0)
    assert workloads.BathCoefficients.check_qbm(params, c) == ([], [])
    # the program's doubled damping is a known fault: the set counts as failed
    params, c = _qbm_point(2.0, 20.0, 2.0)
    problems, faults = workloads.BathCoefficients.check_qbm(params, c)
    assert problems == [] and len(faults) == 1


@pytest.mark.parametrize("gamma_factor", [1.5, -2.0, 0.0, math.nan])
def test_bath_damping_off_by_another_factor_is_incorrect(gamma_factor):
    params, c = _qbm_point(2.0, 20.0, gamma_factor)
    problems, faults = workloads.BathCoefficients.check_qbm(params, c)
    assert faults == [] and any(" gamma " in p for p in problems)


def test_bath_diffusion_off_by_more_than_its_error_is_incorrect():
    params, c = _qbm_point(100.0, 10.0, 1.0)
    c.D += 10 * c.quadrature_error + 1e-6
    problems, faults = workloads.BathCoefficients.check_qbm(params, c)
    assert faults == [] and any(" D " in p for p in problems)
