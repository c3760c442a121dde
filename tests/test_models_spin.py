import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from decoherence.core import SIGMA_Z, bloch_state
from decoherence.lindblad import CorrelationKernelSpec, apply_generator
from decoherence.models import (
    SpinSpinParams,
    effective_spin_env_spectral_density,
    spin_boson_pure_dephasing,
    spin_spin_brute_force_factor,
    spin_spin_coherence_factor,
    spin_spin_gaussian_rate,
)
from decoherence.models.spin_boson import (
    SpinBosonParams,
    ohmic_coupling,
    spin_boson_born_markov,
    spin_boson_dephasing_strength,
)
from decoherence.lindblad import QuadratureError

from conftest import nested_lag_integral, random_density


def make_params(alpha=0.1, T=1.0, cutoff=50.0, delta0=0.0):
    return SpinBosonParams(omega0=0.0, Delta0=delta0,
                           J=ohmic_coupling(alpha, cutoff), T=T, cutoff=cutoff)


class TestPureDephasing:
    def test_no_decay_at_time_zero(self):
        factor = spin_boson_pure_dephasing(make_params())
        assert factor(0.0) == 1.0

    def test_monotone_decay(self):
        p = make_params(alpha=0.2, T=2.0)
        factor = spin_boson_pure_dephasing(p)
        ts = np.linspace(0.0, 5.0 * p.thermal_correlation_time(), 8)
        vals = [factor(t) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_thermal_regime_decay_depth(self):
        # ohmic coupling alpha >= 0.1: coherence at t = 5 tau_B below 1/e
        p = make_params(alpha=0.1, T=1.0)
        factor = spin_boson_pure_dephasing(p)
        assert factor(5.0 * p.thermal_correlation_time()) < np.exp(-1.0)

    def test_long_time_slope_matches_markovian_rate(self):
        # the exact log-coherence slope approaches 4 D with
        # D = int_0^inf nu(tau) dtau
        p = make_params(alpha=0.05, T=2.0, cutoff=100.0)
        factor = spin_boson_pure_dephasing(p)
        d = spin_boson_dephasing_strength(p)
        t1, t2 = 6.0 / p.T * 2.0, 8.0 / p.T * 2.0
        slope = (np.log(factor(t1)) - np.log(factor(t2))) / (t2 - t1)
        assert slope == pytest.approx(4.0 * d, rel=0.05)

    def test_populations_frozen_by_generator(self, rng):
        gen = spin_boson_born_markov(make_params())
        out = apply_generator(gen, random_density(rng, 2))
        assert abs(out[0, 0]) < 1e-12 and abs(out[1, 1]) < 1e-12

    def test_zero_hamiltonian_folds_into_the_kernel(self):
        # at Delta0 = 0 the effective Hamiltonian is zero and -D [sz, [sz, rho]]
        # has two diagonal sides: all of it is the kernel -D (s_i - s_j)^2
        gen = spin_boson_born_markov(make_params())
        d = -gen.extra_terms[0].coeff
        s = np.diag(SIGMA_Z.matrix)
        assert not np.any(gen.hamiltonian.matrix)
        assert_allclose(gen.kernel, -d * np.subtract.outer(s, s) ** 2, rtol=1e-15, atol=0)
        assert gen._g is None and gen._g_prime is None and not gen._products
        assert gen.splits

    def test_tunneling_required_to_vanish(self):
        with pytest.raises(ValueError):
            spin_boson_pure_dephasing(make_params(delta0=0.5))

    def test_infrared_divergence_flagged(self):
        # subohmic J ~ w^(-1/2) with thermal coth has no integrable origin
        p = SpinBosonParams(omega0=0.0, Delta0=0.0,
                            J=lambda w: 0.1 / np.sqrt(w) if w > 0 else 0.0,
                            T=1.0, cutoff=10.0)
        with pytest.raises(QuadratureError):
            spin_boson_pure_dephasing(p)


class TestBornMarkovGenerator:
    def test_no_tunneling_reduces_to_pure_dephasing(self, rng):
        p = make_params(alpha=0.08, T=1.5)
        gen = spin_boson_born_markov(p)
        assert [t.label for t in gen.extra_terms] == ["dephasing"]
        d = spin_boson_dephasing_strength(p)
        rho = random_density(rng, 2)
        out = apply_generator(gen, rho)
        sz = np.diag([1.0, -1.0])
        inner = sz @ rho.matrix - rho.matrix @ sz
        want = -d * (sz @ inner - inner @ sz)
        assert_allclose(out, want, atol=1e-10 * max(1.0, abs(d)))

    def test_dephasing_strength_at_zero_tunneling_is_kernel_area(self):
        # cos(0) = 1 collapses the strength to the plain kernel integral
        p = make_params(alpha=0.06, T=1.0, cutoff=40.0)
        d = spin_boson_dephasing_strength(p)
        kernels = CorrelationKernelSpec(p.J, p.T, 50.0 / p.cutoff)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            area, _ = quad(kernels.nu, 0.0, 50.0 / p.cutoff, limit=300)
        assert d == pytest.approx(area, rel=1e-6)

    def test_full_generator_preserves_trace(self, rng):
        p = make_params(alpha=0.01, T=1.0, cutoff=50.0, delta0=2.0)
        gen = spin_boson_born_markov(p)
        assert len(gen.extra_terms) == 3  # dephasing + two decay sandwiches
        for _ in range(10):
            out = apply_generator(gen, random_density(rng, 2))
            assert abs(np.trace(out)) < 1e-10

    def test_effective_hamiltonian_is_tunneling_plus_shift(self):
        p = make_params(alpha=0.01, T=1.0, cutoff=50.0, delta0=2.0)
        gen = spin_boson_born_markov(p)
        h = gen.hamiltonian.matrix
        # proportional to sigma_x with complex coefficient Delta0/2 + zeta*
        assert abs(h[0, 0]) < 1e-14 and abs(h[1, 1]) < 1e-14
        assert h[0, 1].real == pytest.approx(1.0, rel=0.2)  # Delta0 / 2 dominates

    def test_strong_coupling_warns(self):
        p = make_params(alpha=5.0, T=50.0, cutoff=50.0, delta0=0.05)
        with pytest.warns(UserWarning, match="weak-coupling"):
            spin_boson_born_markov(p)


class TestSwappedOrderCoefficients:
    @pytest.mark.parametrize("delta0", [0.0, 1.0])
    def test_match_the_nested_quadrature(self, delta0):
        # D and zeta^* against the tau quadrature of the kernels, within the
        # error estimates of both orders
        p = make_params(alpha=0.02, T=1.0, cutoff=50.0, delta0=delta0)
        gen = spin_boson_born_markov(p)
        kernels = CorrelationKernelSpec(p.J, p.T, 50.0 / p.cutoff)

        def within_errors(value, kernel, trig):
            nested, nested_err = nested_lag_integral(kernels, kernel, trig, delta0)
            _, swapped_err = kernels.lag_integral(kernel, trig, delta0)
            return abs(value - nested) <= nested_err + swapped_err

        d = spin_boson_dephasing_strength(p)
        assert d == -gen.extra_terms[0].coeff.real
        assert within_errors(d, "nu", "cos")
        zeta_conj = complex(gen.hamiltonian.matrix[0, 1]) - 0.5 * delta0
        assert within_errors(zeta_conj.real, "nu", "sin")
        assert within_errors(-zeta_conj.imag, "eta", "sin")

    @pytest.mark.parametrize("delta0", [0.0, 1.0])
    def test_non_convergent_spectral_density_raises(self, delta0):
        # super-ohmic without a cutoff: the frequency integrals grow without bound
        p = SpinBosonParams(omega0=0.0, Delta0=delta0, J=lambda w: w * w,
                            T=1.0, cutoff=1.0)
        with pytest.raises(QuadratureError):
            spin_boson_born_markov(p)
        with pytest.raises(QuadratureError):
            spin_boson_dephasing_strength(p)


class TestEffectiveSpectralDensity:
    def test_zero_temperature_limit_returns_original(self):
        j = ohmic_coupling(0.3, 10.0)
        j_eff = effective_spin_env_spectral_density(j, T=0.0)
        for w in (0.1, 1.0, 5.0):
            assert j_eff(w) == pytest.approx(j(w))

    def test_high_temperature_suppression(self):
        j = ohmic_coupling(0.3, 10.0)
        T = 100.0
        j_eff = effective_spin_env_spectral_density(j, T)
        for w in (0.05, 0.2):
            assert j_eff(w) == pytest.approx(j(w) * w / (2.0 * T), rel=1e-3)

    def test_tanh_of_one_point(self):
        j = ohmic_coupling(1.0, 100.0)
        T = 3.0
        w = 2.0 * T
        j_eff = effective_spin_env_spectral_density(j, T)
        assert j_eff(w) == pytest.approx(j(w) * np.tanh(1.0), rel=1e-12)
        assert j_eff(w) / j(w) == pytest.approx(0.7616, abs=1e-4)


class TestSpinSpinFactor:
    def test_env_eigenstate_never_decoheres(self):
        params = SpinSpinParams(np.array([0.7]), np.array([1.0 + 0j]),
                                np.array([0.0 + 0j]))
        ts = np.linspace(0, 10, 50)
        z = spin_spin_coherence_factor(params, ts)
        assert_allclose(np.abs(z), 1.0, atol=1e-12)

    def test_single_plus_spin_gives_periodic_cosine(self):
        g = 0.9
        params = SpinSpinParams.plus_states([g])
        ts = np.linspace(0, 12, 100)
        z = spin_spin_coherence_factor(params, ts)
        assert_allclose(z, np.cos(g * ts), atol=1e-12)
        # full recurrence after one period
        assert abs(spin_spin_coherence_factor(params, 2 * np.pi / g)) == \
            pytest.approx(1.0, abs=1e-9)

    def test_zero_couplings_are_inert(self):
        params = SpinSpinParams.plus_states(np.zeros(5))
        z = spin_spin_coherence_factor(params, np.linspace(0, 3, 10))
        assert_allclose(z, 1.0, atol=1e-14)

    def test_magnitude_bounded_by_one(self, rng):
        params = SpinSpinParams(
            rng.uniform(0, 2, 20),
            *_random_amplitudes(rng, 20))
        z = spin_spin_coherence_factor(params, np.linspace(0, 5, 40))
        assert np.all(np.abs(z) <= 1.0 + 1e-12)

    def test_product_form_equals_brute_force(self, rng):
        # exact 2^(N+1) evolution oracle, N up to 10
        for n in (2, 5, 10):
            params = SpinSpinParams(
                rng.uniform(0.1, 1.5, n),
                *_random_amplitudes(rng, n))
            ts = np.linspace(0.0, 4.0, 12)
            fast = spin_spin_coherence_factor(params, ts)
            slow = spin_spin_brute_force_factor(params, ts)
            assert np.max(np.abs(fast - slow)) < 1e-10

    def test_large_bath_gaussian_decay(self, rng):
        # 128 random couplings, all-plus bath: -log|z| fits Gamma^2 t^2
        n = 128
        params = SpinSpinParams.plus_states(rng.uniform(0.0, 1.0, n))
        gamma = spin_spin_gaussian_rate(params)
        ts = np.linspace(1e-3, 3.0 / gamma, 400)
        z = np.abs(spin_spin_coherence_factor(params, ts))
        window = (z >= 0.1) & (z <= 0.9)
        x = ts[window] ** 2
        y = -np.log(z[window])
        coeffs = np.polyfit(x, y, 1)
        pred = np.polyval(coeffs, x)
        r_sq = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert r_sq > 0.95
        assert coeffs[0] == pytest.approx(gamma ** 2, rel=0.2)


def _random_amplitudes(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / norm, b / norm


class TestSpinSpinQubitState:
    def test_coherence_applies_to_bloch_state(self):
        # the physical coherence magnitude is |rho01(0)| |z(t)|
        psi = bloch_state(np.pi / 2, 0.3)
        rho01 = psi.amplitudes[0] * np.conj(psi.amplitudes[1])
        assert abs(rho01) == pytest.approx(0.5)
        params = SpinSpinParams.plus_states([0.4, 0.8])
        z = spin_spin_coherence_factor(params, 1.0)
        assert abs(rho01 * z) <= 0.5
