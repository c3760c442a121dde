"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.  Run with -s to see the
lines; tolerances are pinned here and nowhere else."""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from decoherence.channels import apply_channel, check_complete_positivity, \
    kraus_from_unitary
from decoherence.core import DensityMatrix, Grid1D, KET_PLUS, partial_trace
from decoherence.lindblad import (
    IntegratorConfig,
    PURE_DEPHASING_RATE_FACTOR,
    evolve,
    pure_dephasing_qubit,
)
from decoherence.measures import wigner
from decoherence.models import (
    CavityCatParams,
    CollisionalParams,
    SpinSpinParams,
    cat_decoherence_time,
    cat_overlap,
    collisional_evolve_split_step,
    collisional_generator,
    decoherence_dissipation_ratio,
    qbm_coefficients,
    spin_spin_brute_force_factor,
    spin_spin_coherence_factor,
    spin_spin_gaussian_rate,
)
from decoherence.models.qbm import QBMParams
from decoherence.protection import (
    apply_phase_error,
    collective_dephasing_operator,
    correct_three_bit,
    dfs_dimension_collective,
    encode_three_bit,
    find_dfs,
)
from decoherence.trajectories import TrajectoryConfig, ensemble_statistics, unravel

from conftest import random_unitary


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_seconds:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description} "
              f"(runtime {elapsed:.2f}s > {budget_seconds}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number:2d}: PASS - {description} [{elapsed:.3f}s]")


def test_criterion_1_decoherence_dissipation_ratio():
    with criterion(1, "relaxation/decoherence ratio ~ 1e40 for 1 g, 300 K, 1 cm",
                   budget_seconds=1e-3):
        ratio = decoherence_dissipation_ratio(1e-3, 300.0, 1e-2)
        assert 1e39 <= ratio <= 1e41


def test_criterion_2_cavity_cat_arithmetic():
    with criterion(2, "cavity-cat overlap < 3e-5 and T_d in [20, 24] ms",
                   budget_seconds=1e-3):
        overlap = cat_overlap(CavityCatParams(10.0, 0.31 * np.pi, 1.0))["overlap"]
        assert overlap < 3e-5
        t_d = cat_decoherence_time(CavityCatParams(3.5, 0.37 * np.pi, 0.13))
        assert 20e-3 <= t_d <= 24e-3


def test_criterion_3_dfs_dimensions():
    with criterion(3, "collective-dephasing subspaces: exact basis at N=4, "
                      "dimensions {2, 20, 70} at N={2, 6, 8}",
                   budget_seconds=5.0):
        res4 = find_dfs([collective_dephasing_operator(4)])
        assert res4.dimension == 6
        expected = {0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100}
        got = set()
        for vec in res4.basis:
            amps = np.abs(vec.amplitudes)
            assert np.max(amps) == pytest.approx(1.0, abs=1e-10)  # up to phase
            got.add(int(np.argmax(amps)))
        assert got == expected
        for n, want in ((2, 2), (6, 20), (8, 70)):
            res = find_dfs([collective_dephasing_operator(n)])
            assert res.dimension == want == dfs_dimension_collective(n)


def test_criterion_4_collisional_long_wavelength():
    with criterion(4, "scattering decay law exact at every grid pair; "
                      "cat's off-diagonal peak dies while diagonals persist",
                   budget_seconds=30.0):
        # (a) pure decay at 256 points: every pair follows the gaussian law
        grid = Grid1D(256, -2.0, 2.0)
        lam, t = 1.0, 0.25
        psi0 = grid.gaussian_packet(0.0, 1.0)
        gen = collisional_generator(CollisionalParams(Lambda=lam), grid,
                                    include_free_dynamics=False)
        res = evolve(gen, psi0.density(),
                     IntegratorConfig(dt=1e-3, t_final=t, record_stride=250))
        ratio = res.final().matrix / psi0.density().matrix
        law = np.exp(-lam * np.subtract.outer(grid.x, grid.x) ** 2 * t)
        assert np.max(np.abs(ratio - law)) < 1e-6

        # (b) free dynamics on: two-packet cat at 256 points
        grid_b = Grid1D(256, -8.0, 8.0)
        params = CollisionalParams(Lambda=0.05, mass=50.0)
        x0 = 2.0
        psi_cat = grid_b.two_packet_cat(x0, 0.5)
        dx_sep = 2.0 * x0
        t_end = 5.0 / (params.Lambda * dx_sep ** 2)
        n_steps = 625
        _, mats = collisional_evolve_split_step(params, grid_b, psi_cat,
                                                t_end / n_steps, n_steps,
                                                record_stride=n_steps)
        sep = np.abs(np.subtract.outer(grid_b.x, grid_b.x))
        off_region = sep > 1.5 * x0
        rho0, rho_t = mats[0], mats[-1]
        off_before = np.max(np.abs(rho0)[off_region])
        off_after = np.max(np.abs(rho_t)[off_region])
        diag_after = np.max(np.abs(np.diag(rho_t)))
        diag_before = np.max(np.abs(np.diag(rho0)))
        assert off_after / diag_after < 0.05
        assert off_before / diag_before > 0.9  # the cat started coherent
        assert diag_after > 0.5 * diag_before  # diagonal peaks persist


def test_criterion_5_pure_dephasing_rate():
    with criterion(5, "qubit dephasing: fitted rate = 4 D within 1%, "
                      "populations frozen, factor documented",
                   budget_seconds=1.0):
        d_strength = 0.25
        gen = pure_dephasing_qubit(d_strength)
        rate_literal = PURE_DEPHASING_RATE_FACTOR * d_strength
        t_final = 3.0 / rate_literal
        res = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(dt=t_final / 3000, t_final=t_final,
                                      record_stride=100))
        coh = np.array([abs(s.matrix[0, 1]) for s in res.states])
        slope = np.polyfit(res.times, np.log(coh), 1)[0]
        assert -slope == pytest.approx(rate_literal, rel=0.01)
        # the literal double commutator decays coherence at 4 D, a factor
        # PURE_DEPHASING_RATE_FACTOR = 4 above the strength D itself
        assert PURE_DEPHASING_RATE_FACTOR == 4.0
        assert -slope / d_strength == pytest.approx(4.0, rel=0.01)
        pops = np.array([np.real(np.diag(s.matrix)) for s in res.states])
        assert np.max(np.abs(pops - pops[0])) < 1e-8


def test_criterion_6_caldeira_leggett_limit():
    with criterion(6, "kernel quadrature reproduces D = 2 M gamma0 k_B T "
                      "within 2% in the high-T, large-cutoff regime",
                   budget_seconds=10.0):
        params = QBMParams(mass=1.0, Omega=1.0, gamma0=0.1, T=1e6, cutoff=1e3)
        assert params.T / params.cutoff >= 1e3 and params.cutoff / params.Omega >= 1e3
        c = qbm_coefficients(params)
        want = 2.0 * params.mass * params.gamma0 * params.T
        assert c.D == pytest.approx(want, rel=0.02)


def test_criterion_7_spin_spin_gaussian_decay():
    with criterion(7, "bath of 128 spins: Gaussian interference decay "
                      "(R^2 > 0.95); product form equals brute force to 1e-10",
                   budget_seconds=60.0):
        rng = np.random.default_rng(2718)
        params = SpinSpinParams.plus_states(rng.uniform(0.0, 1.0, 128))
        gamma = spin_spin_gaussian_rate(params)
        ts = np.linspace(1e-3, 3.0 / gamma, 600)
        z = np.abs(spin_spin_coherence_factor(params, ts))
        window = (z >= 0.1) & (z <= 0.9)
        x, y = ts[window] ** 2, -np.log(z[window])
        coeffs = np.polyfit(x, y, 1)
        pred = np.polyval(coeffs, x)
        r_sq = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2)
        assert r_sq > 0.95

        for n in (3, 6, 10):
            small = SpinSpinParams(
                rng.uniform(0.1, 1.2, n),
                *_normalized_amplitudes(rng, n))
            tt = np.linspace(0.0, 5.0, 16)
            assert np.max(np.abs(spin_spin_coherence_factor(small, tt)
                                 - spin_spin_brute_force_factor(small, tt))) < 1e-10


def _normalized_amplitudes(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / norm, b / norm


def test_criterion_8_trajectory_convergence():
    with criterion(8, "2000-trajectory mean matches the master equation "
                      "within 3 standard errors; error halves when the "
                      "count quadruples",
                   budget_seconds=120.0):
        gen = pure_dephasing_qubit(0.25)
        from decoherence.core import SIGMA_X
        det = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=100))
        exact = np.array([np.real(np.trace(s.matrix @ SIGMA_X.matrix))
                          for s in det.states])

        cfg = TrajectoryConfig(2000, dt=1e-3, t_final=1.0, seed=97,
                               record_stride=100)
        stats = ensemble_statistics(unravel(gen, KET_PLUS.density(), cfg), SIGMA_X)
        devs = np.abs(stats["mean"] - exact)[1:]
        bands = 3.0 * stats["stderr"][1:]
        assert np.all(devs <= bands)

        def rms(n):
            c = TrajectoryConfig(n, dt=1e-3, t_final=1.0, seed=98,
                                 record_stride=100)
            s = ensemble_statistics(unravel(gen, KET_PLUS.density(), c), SIGMA_X)
            return float(np.sqrt(np.mean((s["mean"][1:] - exact[1:]) ** 2)))

        ratio = rms(500) / rms(2000)
        assert 1.0 <= ratio <= 4.0


def test_criterion_9_channel_oracle_equivalence():
    with criterion(9, "unitary-dilation channels equal evolve-then-trace on "
                      "100 random instances; transposition flagged non-CP",
                   budget_seconds=10.0):
        rng = np.random.default_rng(1618)
        from conftest import random_density
        for _ in range(100):
            u = random_unitary(rng, 4)
            rho_s = random_density(rng, 2)
            rho_e = random_density(rng, 2)
            ch = kraus_from_unitary(u, rho_e, dims=(2, 2))
            via_channel = apply_channel(ch, rho_s)
            joint = u.matrix @ np.kron(rho_s.matrix, rho_e.matrix) \
                @ u.matrix.conj().T
            via_trace = partial_trace(DensityMatrix(joint), (2, 2), keep=0)
            assert np.max(np.abs(via_channel.matrix - via_trace.matrix)) < 1e-10

        transpose = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                transpose[j * 2 + i, i * 2 + j] = 1.0
        verdict = check_complete_positivity(transpose)
        assert not verdict["cp"]
        assert verdict["min_choi_eigenvalue"] == pytest.approx(-0.5, abs=1e-10)


def test_criterion_10_three_bit_code():
    with criterion(10, "three-qubit phase code: perfect recovery for every "
                       "single error over 50 random logical states; double "
                       "errors flagged",
                   budget_seconds=5.0):
        rng = np.random.default_rng(31415)
        for _ in range(50):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            for errors in ((), (1,), (2,), (3,)):
                cs = encode_three_bit(a, b)
                for q in errors:
                    cs = apply_phase_error(cs, q)
                report = correct_three_bit(cs)
                assert report.fidelity == pytest.approx(1.0, abs=1e-10)
                assert report.recovered_ok
            double = apply_phase_error(
                apply_phase_error(encode_three_bit(a, b), 1), 2)
            verdict = correct_three_bit(double)
            assert not verdict.within_code_guarantee


def test_criterion_11_wigner_properties():
    with criterion(11, "Wigner normalization and marginals within 1e-4; "
                       "cat ridge wavelength = 2 pi / separation within 5%",
                   budget_seconds=30.0):
        grid = Grid1D(256, -10.0, 10.0)
        x0, sigma = 2.0, 0.5
        rho = grid.two_packet_cat(x0, sigma).density()
        field = wigner(rho, grid, marginal_tol=1e-4)  # raises beyond 1e-4
        assert field.normalization() == pytest.approx(1.0, abs=1e-4)
        pos_want = np.real(np.diag(rho.matrix)) / grid.dx
        assert np.max(np.abs(field.position_marginal() - pos_want)) < 1e-4

        mid = int(np.argmin(np.abs(field.x)))
        ridge = field.values[mid, :]
        dp = field.p[1] - field.p[0]
        spec = np.abs(np.fft.rfft(ridge))
        freqs = np.fft.rfftfreq(ridge.size, d=dp)
        peak = freqs[1 + int(np.argmax(spec[1:]))]
        wavelength = 1.0 / peak
        assert wavelength == pytest.approx(2.0 * np.pi / (2.0 * x0), rel=0.05)
