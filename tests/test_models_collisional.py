import numpy as np
import pytest
from numpy.testing import assert_allclose

from decoherence.core import Grid1D, Operator
from decoherence.lindblad import IntegratorConfig, LindbladGenerator, evolve
from decoherence.models import (
    CollisionalParams,
    collisional_decoherence_time,
    collisional_evolve_split_step,
    collisional_generator,
    decoherence_dissipation_ratio,
    effective_cross_section,
    hard_sphere_amplitude_sq,
    interference_pattern,
    scattering_constant,
)


class TestLongWavelength:
    def test_off_diagonal_ratio_matches_exponential_law(self):
        # H = 0: every pair decays as exp(-Lambda (x - x')^2 t)
        grid = Grid1D(64, -2.0, 2.0)
        params = CollisionalParams(Lambda=1.0)
        psi0 = grid.gaussian_packet(0.0, 1.0)
        gen = collisional_generator(params, grid, include_free_dynamics=False)
        t = 0.25
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=1e-3, t_final=t, record_stride=250))
        ratio = res.final().matrix / psi0.density().matrix
        expected = np.exp(-params.Lambda * np.subtract.outer(grid.x, grid.x) ** 2 * t)
        assert np.max(np.abs(ratio - expected)) < 1e-6

    def test_single_separation_headline_value(self):
        # Lambda = 1, dx = 2, t = 0.25 -> suppression e^-1
        # (33 points over [-2, 2] puts grid points exactly at +/- 1)
        grid = Grid1D(33, -2.0, 2.0)
        gen = collisional_generator(CollisionalParams(Lambda=1.0), grid,
                                    include_free_dynamics=False)
        psi0 = grid.gaussian_packet(0.0, 1.2)
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=1e-3, t_final=0.25, record_stride=250))
        i = int(np.argmin(np.abs(grid.x - 1.0)))
        j = int(np.argmin(np.abs(grid.x + 1.0)))
        assert grid.x[i] == pytest.approx(1.0) and grid.x[j] == pytest.approx(-1.0)
        ratio = abs(res.final().matrix[i, j] / psi0.density().matrix[i, j])
        assert ratio == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_diagonal_is_untouched(self):
        grid = Grid1D(32, -2.0, 2.0)
        gen = collisional_generator(CollisionalParams(Lambda=2.0), grid,
                                    include_free_dynamics=False)
        psi0 = grid.two_packet_cat(1.0, 0.4)
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=1e-3, t_final=0.5, record_stride=500))
        assert_allclose(np.diag(res.final().matrix), np.diag(psi0.density().matrix),
                        atol=1e-10)


def _array_bytes(obj, seen) -> int:
    """Bytes of the distinct numpy arrays reachable from obj."""
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o, seen) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(o, seen) for o in vars(obj).values())
    return 0


class TestShortWavelength:
    def test_flat_rate_decay_independent_of_separation(self):
        grid = Grid1D(24, -1.5, 1.5)
        g_tot = 3.0
        params = CollisionalParams(Gamma_tot=g_tot, regime="short_wavelength")
        gen = collisional_generator(params, grid, include_free_dynamics=False)
        psi0 = grid.gaussian_packet(0.0, 0.8)
        t = 0.4
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=2e-3, t_final=t, record_stride=200))
        rho0 = psi0.density().matrix
        rho_t = res.final().matrix
        off = ~np.eye(grid.n_points, dtype=bool)
        ratios = np.abs(rho_t[off] / rho0[off])
        assert np.max(np.abs(ratios - np.exp(-g_tot * t))) < 1e-6
        assert_allclose(np.diag(rho_t), np.diag(rho0), atol=1e-10)

    def test_generator_memory_is_quadratic(self):
        n = 512
        gen = collisional_generator(
            CollisionalParams(Gamma_tot=1.0, regime="short_wavelength"),
            Grid1D(n, -4.0, 4.0), include_free_dynamics=True)
        # the kernel and the kinetic Hamiltonian: a few n^2 arrays, not n of them
        assert _array_bytes(gen, set()) <= 4 * n * n * 16

    def test_apply_equals_the_projector_sum(self, rng):
        n, g_tot = 16, 1.7
        grid = Grid1D(n, -2.0, 2.0)
        gen = collisional_generator(
            CollisionalParams(Gamma_tot=g_tot, regime="short_wavelength"), grid,
            include_free_dynamics=False)
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # sum_i Gamma_tot (P_i rho P_i - {P_i, rho} / 2), P_i = |x_i><x_i|
        want = np.zeros((n, n), dtype=complex)
        for i in range(n):
            proj = np.zeros((n, n))
            proj[i, i] = 1.0
            want += g_tot * (proj @ rho @ proj - 0.5 * (proj @ rho + rho @ proj))
        assert_allclose(gen.apply(rho), want, rtol=0, atol=1e-13)
        # the same operators given as Lindblad operators fold to the same kernel
        folded = LindbladGenerator(None, [(g_tot, Operator(np.diag(np.eye(n)[i])))
                                          for i in range(n)])
        assert_allclose(folded.kernel, gen.kernel, rtol=0, atol=1e-15)


def _decay_rates(params: CollisionalParams, x: np.ndarray) -> np.ndarray:
    if params.regime == "long_wavelength":
        return params.Lambda * np.subtract.outer(x, x) ** 2
    return params.Gamma_tot * (1.0 - np.eye(x.size))


class TestSplitStep:
    @pytest.mark.parametrize("params", [
        CollisionalParams(Lambda=0.4, mass=2.0),
        CollisionalParams(Gamma_tot=2.0, regime="short_wavelength", mass=2.0),
    ], ids=lambda p: p.regime)
    def test_matches_rk4_with_free_dynamics(self, params):
        # independent-route check: spectral split-step against dense RK4
        grid = Grid1D(48, -6.0, 6.0)
        psi0 = grid.two_packet_cat(1.5, 0.5)
        t, n_steps, dt = 0.5, 500, 1e-3
        times, mats = collisional_evolve_split_step(params, grid, psi0, dt, n_steps)
        gen = collisional_generator(params, grid, include_free_dynamics=True)
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=dt, t_final=t, record_stride=n_steps))
        assert np.max(np.abs(mats[-1] - res.final().matrix)) < 5e-6

    @pytest.mark.parametrize("params", [
        CollisionalParams(Lambda=1.3),
        CollisionalParams(Gamma_tot=1.3, regime="short_wavelength"),
    ], ids=lambda p: p.regime)
    def test_decay_only_mode_is_exact(self, params):
        grid = Grid1D(32, -2.0, 2.0)
        psi0 = grid.gaussian_packet(0.0, 0.9)
        _, mats = collisional_evolve_split_step(params, grid, psi0, 0.05, 10,
                                                include_free_dynamics=False)
        expected = psi0.density().matrix * np.exp(-_decay_rates(params, grid.x) * 0.5)
        assert np.max(np.abs(mats[-1] - expected)) < 1e-12


def reference_split_step(params, grid, psi0, dt, n_steps, record_stride=1,
                         include_free_dynamics=True):
    """The position-representation Strang step the fused step replaced: two
    kinetic half steps U r U^dag per step, each by FFTs and conj-transposes."""
    rho = np.outer(psi0.amplitudes, psi0.amplitudes.conj())
    if params.regime == "long_wavelength":
        kernel = -params.Lambda * np.subtract.outer(grid.x, grid.x) ** 2
    else:
        kernel = -params.Gamma_tot * (1.0 - np.eye(grid.n_points))
    decay = np.exp(kernel * dt)
    half_phase = np.exp(-1j * (grid.k ** 2) / (2.0 * params.mass) * (dt / 2.0))

    def apply_u(r):
        return np.fft.ifft(half_phase[:, None] * np.fft.fft(r, axis=0), axis=0)

    def kinetic_half(r):
        return apply_u(apply_u(r).conj().T).conj().T

    records = [rho]
    for k in range(1, n_steps + 1):
        if include_free_dynamics:
            rho = kinetic_half(rho)
        rho = rho * decay
        if include_free_dynamics:
            rho = kinetic_half(rho)
        if k % record_stride == 0 or k == n_steps:
            records.append(rho)
    return records


class TestFusedSplitStep:
    REGIMES = [CollisionalParams(Lambda=0.05, mass=50.0),
               CollisionalParams(Gamma_tot=0.5, regime="short_wavelength", mass=50.0)]

    @pytest.mark.parametrize("params", REGIMES, ids=lambda p: p.regime)
    def test_equals_the_position_representation_step(self, params):
        grid = Grid1D(64, -8.0, 8.0)
        psi0 = grid.two_packet_cat(2.0, 0.5, k0=0.7)
        args = (params, grid, psi0, 0.01, 103, 25)
        _, mats = collisional_evolve_split_step(*args)
        want = reference_split_step(*args)
        assert len(mats) == len(want) == 6
        for got, ref in zip(mats, want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("params", REGIMES, ids=lambda p: p.regime)
    def test_without_free_dynamics_is_bit_identical(self, params):
        grid = Grid1D(32, -8.0, 8.0)
        psi0 = grid.two_packet_cat(2.0, 0.5)
        args = (params, grid, psi0, 0.01, 40, 7)
        _, mats = collisional_evolve_split_step(*args, include_free_dynamics=False)
        want = reference_split_step(*args, include_free_dynamics=False)
        assert all(np.array_equal(got, ref) for got, ref in zip(mats, want))
        assert len(mats) == len(want)


class TestDecoherenceTime:
    def test_unit_values(self):
        assert collisional_decoherence_time(1.0, 1.0) == 1.0

    def test_doubling_separation_quarters_the_time(self):
        assert collisional_decoherence_time(2.0, 2.0) == \
            pytest.approx(collisional_decoherence_time(2.0, 1.0) / 4.0)

    def test_magnitude_arithmetic(self):
        # Lambda = 1e19 1/(m^2 s) over dx = 10 nm -> millisecond scale
        assert collisional_decoherence_time(1e19, 1e-8) == pytest.approx(1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            collisional_decoherence_time(0.0, 1.0)


class TestDecoherenceDissipationRatio:
    def test_gram_object_at_room_temperature(self):
        # 1 g, 300 K, 1 cm separation: ratio ~ 1e40
        ratio = decoherence_dissipation_ratio(1e-3, 300.0, 1e-2)
        assert 1e39 < ratio < 1e41

    def test_separation_equal_to_thermal_wavelength(self):
        from decoherence.constants import thermal_de_broglie_wavelength
        lam = thermal_de_broglie_wavelength(1e-3, 300.0)
        assert decoherence_dissipation_ratio(1e-3, 300.0, lam) == pytest.approx(1.0)

    def test_linear_scaling_in_mass_and_temperature(self):
        base = decoherence_dissipation_ratio(1e-3, 300.0, 1e-2)
        assert decoherence_dissipation_ratio(2e-3, 300.0, 1e-2) == \
            pytest.approx(2.0 * base, rel=1e-12)
        assert decoherence_dissipation_ratio(1e-3, 600.0, 1e-2) == \
            pytest.approx(2.0 * base, rel=1e-12)


class TestScatteringQuadratures:
    def test_hard_sphere_effective_cross_section(self):
        # (2 pi / 3) * (R^2/4) * int_-1^1 (1 - c) dc = pi R^2 / 3
        r = 2.0
        got = effective_cross_section(hard_sphere_amplitude_sq(r), q=1.0)
        assert got == pytest.approx(np.pi * r * r / 3.0, rel=1e-10)

    def test_scattering_constant_monochromatic_window(self):
        # density and speed constant over q in [0, 1]: Lambda reduces to
        # sigma_eff * integral of q^2 = sigma_eff / 3
        r = 1.0
        sigma = np.pi * r * r / 3.0
        lam = scattering_constant(lambda q: 1.0, lambda q: 1.0,
                                  hard_sphere_amplitude_sq(r), q_max=1.0)
        assert lam == pytest.approx(sigma / 3.0, rel=1e-8)


class TestInterferencePattern:
    def grid_and_packets(self):
        # box wide enough that the fat envelope has fully decayed at the
        # edges; the envelope stays nearly unmodulated over a central fringe
        grid = Grid1D(8192, -40.0, 40.0)
        psi1 = grid.gaussian_packet(0.0, 6.0, k0=+4.0)
        psi2 = grid.gaussian_packet(0.0, 6.0, k0=-4.0)
        return grid, psi1, psi2

    @staticmethod
    def visibility(p):
        return (np.max(p) - np.min(p)) / (np.max(p) + np.min(p))

    def test_full_overlap_gives_full_fringes(self):
        grid, psi1, psi2 = self.grid_and_packets()
        a = 1 / np.sqrt(2)
        p = interference_pattern(a, a, psi1, psi2, 1.0, grid.dx)
        assert np.sum(p) * grid.dx == pytest.approx(1.0, abs=1e-9)
        assert np.min(p) / np.max(p) < 1e-3  # nulls down to sampling limits

    def test_zero_overlap_kills_the_cross_term(self):
        grid, psi1, psi2 = self.grid_and_packets()
        a = 1 / np.sqrt(2)
        p = interference_pattern(a, a, psi1, psi2, 0.0, grid.dx)
        classical = 0.5 * (np.abs(psi1.amplitudes) ** 2
                           + np.abs(psi2.amplitudes) ** 2) / grid.dx
        assert_allclose(p, classical, atol=1e-12)

    def test_half_overlap_halves_the_visibility(self):
        grid, psi1, psi2 = self.grid_and_packets()
        a = 1 / np.sqrt(2)
        # one full fringe period around the envelope peak (|x| <= 0.4 for
        # relative wavenumber 8), where the envelope varies by < 0.3%
        center = np.abs(grid.x) <= 0.4
        v_full = self.visibility(
            interference_pattern(a, a, psi1, psi2, 1.0, grid.dx)[center])
        v_half = self.visibility(
            interference_pattern(a, a, psi1, psi2, 0.5, grid.dx)[center])
        assert v_full == pytest.approx(1.0, abs=0.01)
        assert v_half == pytest.approx(0.5 * v_full, rel=0.02)

    def test_rejects_bad_weights(self):
        grid, psi1, psi2 = self.grid_and_packets()
        with pytest.raises(ValueError):
            interference_pattern(1.0, 1.0, psi1, psi2, 1.0, grid.dx)
        with pytest.raises(ValueError):
            interference_pattern(1 / np.sqrt(2), 1 / np.sqrt(2), psi1, psi2,
                                 1.5, grid.dx)
