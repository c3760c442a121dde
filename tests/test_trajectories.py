import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from decoherence.core import KET_0, KET_PLUS, Operator, SIGMA_X, SIGMA_Z
from decoherence.lindblad import (
    ExtraTerm,
    IntegratorConfig,
    LindbladGenerator,
    PURE_DEPHASING_RATE_FACTOR,
    PositivityLossError,
    evolve,
    pure_dephasing_qubit,
    record_steps,
)
from decoherence.trajectories import (
    TrajectoryConfig,
    _gaussian_increments,
    _measurement,
    ensemble_statistics,
    export_ensemble_csv,
    export_ensemble_summary_json,
    unravel,
)

from conftest import random_density

DEPHASING = pure_dephasing_qubit(0.25)
RATE = PURE_DEPHASING_RATE_FACTOR * 0.25


class TestUnravelBasics:
    def test_zero_generator_keeps_every_trajectory_constant(self, rng):
        gen = LindbladGenerator(Operator(np.zeros((2, 2))), [(0.0, SIGMA_Z)])
        rho0 = random_density(rng, 2)
        ens = unravel(gen, rho0, TrajectoryConfig(8, dt=1e-2, t_final=0.5, seed=3))
        for j in range(8):
            for k in range(ens.times.size):
                assert_allclose(ens.conditioned_states[j, k], rho0.matrix,
                                atol=1e-12)

    def test_trace_preserved_along_trajectories(self):
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(16, dt=1e-3, t_final=0.5, seed=5))
        traces = np.trace(ens.conditioned_states, axis1=2, axis2=3)
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_single_step_trace_change_is_roundoff(self):
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(64, dt=1e-3, t_final=1e-3, seed=9))
        traces = np.trace(ens.conditioned_states[:, -1], axis1=1, axis2=2)
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_purity_preserved_per_step_in_expectation(self):
        # the exact diffusive dynamics with Hermitian operators keep pure
        # states pure; in the Euler-Maruyama discretization this shows up as
        # an exactly zero expected purity change per step (the fluctuation
        # 2 kappa Var(L) (dW^2 - dt) is mean-free), verified on one step
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(4096, dt=1e-3, t_final=1e-3, seed=13))
        batch = ens.conditioned_states[:, -1]
        purities = np.real(np.einsum("nij,nji->n", batch, batch))
        assert abs(np.mean(purities) - 1.0) < 1e-4

    def test_purity_error_vanishes_with_the_step(self):
        # accumulated purity fluctuations shrink like sqrt(dt)
        def max_dev(dt):
            ens = unravel(DEPHASING, KET_PLUS.density(),
                          TrajectoryConfig(32, dt=dt, t_final=0.5, seed=7,
                                           record_stride=max(1, int(0.05 / dt))))
            batch = ens.conditioned_states
            pur = np.real(np.einsum("nkij,nkji->nk", batch, batch))
            return float(np.max(np.abs(pur - 1.0)))

        coarse, fine = max_dev(1e-3), max_dev(1e-4)
        assert fine < coarse
        assert fine < 5e-2

    def test_non_hermitian_operator_rejected(self):
        lower = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        gen = LindbladGenerator(None, [(0.5, lower)])
        with pytest.raises(ValueError):
            unravel(gen, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.1, seed=1))

    def test_time_grid_takes_the_integrators_whole_step_rule(self):
        with pytest.raises(ValueError, match=r"t_final = 1.0 must be a whole number, at "
                                             r"least 1, of steps dt = 0.3"):
            TrajectoryConfig(4, 0.3, 1.0, 1)
        cfg = TrajectoryConfig(4, 1e-3, 0.3, seed=1, record_stride=100)
        assert cfg.n_steps == 300
        ens = unravel(DEPHASING, KET_PLUS.density(), cfg)
        assert ens.times.tobytes() == IntegratorConfig(1e-3, 0.3, 100).record_times().tobytes()

    def test_oversized_step_raises_instability(self):
        from decoherence.trajectories import StepInstabilityError
        stiff = LindbladGenerator(None, [(50.0, SIGMA_X)])
        # the message names the record time k * dt, not the step index k
        with pytest.raises(StepInstabilityError, match=r"at t=8; reduce dt"):
            unravel(stiff, KET_0.density(),
                    TrajectoryConfig(4, dt=2.0, t_final=40.0, seed=1,
                                     record_stride=1))

    def test_negative_ensemble_mean_names_its_time_and_dt(self):
        # sigma_z dephasing at rate 10 and dt = 0.25: each Euler step takes
        # rho01 to (1 - 2 * 10 * 0.25) rho01 = -4 rho01, the mean off the cone
        gen = LindbladGenerator(None, [(10.0, SIGMA_Z)])
        with pytest.raises(PositivityLossError,
                           match=r"ensemble mean: density matrix has negative eigenvalue "
                                 r".* at t=0\.25; reduce dt"):
            unravel(gen, KET_PLUS.density(), TrajectoryConfig(4, dt=0.25, t_final=1.0, seed=1))

    def test_extra_terms_rejected(self):
        gen = LindbladGenerator(None, [(0.5, SIGMA_Z)],
                                extra_terms=[ExtraTerm("double_comm", SIGMA_Z,
                                                       SIGMA_Z, -0.1)])
        with pytest.raises(ValueError):
            unravel(gen, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.1, seed=1))

    def test_kernel_passed_in_directly_rejected(self):
        # the kernel of sigma_z dephasing, but with no operator to unravel
        gen = LindbladGenerator(None, kernel=[[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="pure Lindblad"):
            unravel(gen, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.1, seed=1))


class TestDeterminism:
    def test_identical_seeds_reproduce_bit_identical_ensembles(self):
        cfg = TrajectoryConfig(12, dt=1e-3, t_final=0.3, seed=1234)
        a = unravel(DEPHASING, KET_PLUS.density(), cfg)
        b = unravel(DEPHASING, KET_PLUS.density(), cfg)
        assert np.array_equal(a.conditioned_states, b.conditioned_states)

    def test_zero_hamiltonian_gives_the_ensemble_of_no_hamiltonian(self):
        cfg = TrajectoryConfig(12, dt=1e-3, t_final=0.3, seed=1234)
        zero = LindbladGenerator(Operator(np.zeros((2, 2))), [(0.5, SIGMA_Z)])
        none = LindbladGenerator(None, [(0.5, SIGMA_Z)])
        a = unravel(zero, KET_PLUS.density(), cfg)
        b = unravel(none, KET_PLUS.density(), cfg)
        assert np.array_equal(a.conditioned_states, b.conditioned_states)

    def test_trajectories_share_one_seeded_generator(self):
        # trajectory j draws what the ensemble's seeded generator, jumped j
        # times, draws
        base = np.random.Philox(key=1234)
        dw = _gaussian_increments(1234, 2000, 50, 2, 1e-3)
        for j in (3, 0, 2, 1, 1999):
            u = np.random.Generator(base.jumped(j)).random((50, 2))
            assert np.array_equal(dw[..., j], ndtri(u) * math.sqrt(1e-3))

    def test_different_seeds_differ(self):
        a = unravel(DEPHASING, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.3, seed=1))
        b = unravel(DEPHASING, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.3, seed=2))
        assert not np.array_equal(a.conditioned_states, b.conditioned_states)


def matmul_unravel(gen, rho0, cfg):
    """Reference Euler-Maruyama loop, one trajectory at a time, with every
    measurement term in matmul form L rho + rho L^dag."""
    recorded = set(record_steps(cfg.n_steps, cfg.record_stride))
    states = []
    increments = _gaussian_increments(cfg.seed, cfg.n_trajectories, cfg.n_steps,
                                      len(gen.lindblad_ops), cfg.dt)
    for j in range(cfg.n_trajectories):
        dw = increments[..., j]
        rho = rho0.matrix.copy()
        path = [rho]
        for k in range(cfg.n_steps):
            new = rho + cfg.dt * gen.apply(rho)
            for mu, (rate, op) in enumerate(gen.lindblad_ops):
                l = op.matrix
                w = l @ rho + rho @ l.conj().T
                w = w - np.trace(w) * rho
                new = new + math.sqrt(rate) * dw[k, mu] * w
            rho = new
            if k + 1 in recorded:
                path.append(rho)
        states.append(path)
    return np.array(states)


class TestMeasurementKernel:
    """L rho + rho L^dag is placed by the generator's rule: a diagonal L's is
    the kernel d_i + d_j^* times rho, any other L's is G rho + rho G'."""

    CFG = TrajectoryConfig(6, dt=1e-3, t_final=0.2, seed=77, record_stride=40)

    def test_sigma_z_dephasing_is_bit_identical_to_matmuls(self):
        ens = unravel(DEPHASING, KET_PLUS.density(), self.CFG)
        assert np.array_equal(ens.conditioned_states,
                              matmul_unravel(DEPHASING, KET_PLUS.density(), self.CFG))

    def test_real_diagonal_operator_in_three_dimensions(self, rng):
        d = np.array([0.3, -1.1, 0.7])
        gen = LindbladGenerator(None, [(0.5, Operator(np.diag(d)))])
        measurement = _measurement(gen.lindblad_ops[0][1])
        assert np.array_equal(measurement.kernel, np.add.outer(d, d))
        assert measurement._g is None and measurement._g_prime is None
        assert not measurement._products
        rho0 = random_density(rng, 3)
        ens = unravel(gen, rho0, self.CFG)
        assert_allclose(ens.conditioned_states, matmul_unravel(gen, rho0, self.CFG),
                        rtol=0, atol=1e-14)

    def test_diagonal_and_non_diagonal_operators_together(self, rng):
        gen = LindbladGenerator(None, [(0.4, SIGMA_Z), (0.3, SIGMA_X)])
        z, x = (_measurement(op) for _, op in gen.lindblad_ops)
        assert z.kernel is not None and z._g is None and z._g_prime is None
        assert x.kernel is None and not x._products  # sigma_x keeps its matmuls
        assert np.array_equal(x._g, SIGMA_X.matrix)
        assert np.array_equal(x._g_prime, SIGMA_X.matrix)
        rho0 = random_density(rng, 2)
        ens = unravel(gen, rho0, self.CFG)
        assert_allclose(ens.conditioned_states, matmul_unravel(gen, rho0, self.CFG),
                        rtol=0, atol=1e-14)


class TestEnsembleConvergence:
    def test_mean_tracks_deterministic_solution(self):
        cfg = TrajectoryConfig(400, dt=1e-3, t_final=1.0, seed=42,
                               record_stride=100)
        ens = unravel(DEPHASING, KET_PLUS.density(), cfg)
        stats = ensemble_statistics(ens, SIGMA_X)
        det = evolve(DEPHASING, KET_PLUS.density(),
                     IntegratorConfig(dt=1e-3, t_final=1.0, record_stride=100))
        exact = np.array([np.real(np.trace(s.matrix @ SIGMA_X.matrix))
                          for s in det.states])
        devs = np.abs(stats["mean"] - exact)
        bands = 3.0 * np.maximum(stats["stderr"], 1e-12)
        # t = 0 has zero variance; skip it
        assert np.all(devs[1:] <= bands[1:])

    def test_sigma_x_envelope_decays_exponentially(self):
        cfg = TrajectoryConfig(600, dt=5e-4, t_final=1.2, seed=21,
                               record_stride=240)
        ens = unravel(DEPHASING, KET_PLUS.density(), cfg)
        stats = ensemble_statistics(ens, SIGMA_X)
        envelope = np.exp(-RATE * stats["times"])
        devs = np.abs(stats["mean"] - envelope)
        assert np.all(devs[1:] <= 3.0 * stats["stderr"][1:])

    def test_rms_error_scales_like_inverse_sqrt_n(self):
        det = evolve(DEPHASING, KET_PLUS.density(),
                     IntegratorConfig(dt=1e-3, t_final=0.8, record_stride=160))
        exact = np.array([np.real(np.trace(s.matrix @ SIGMA_X.matrix))
                          for s in det.states])

        def rms(n):
            cfg = TrajectoryConfig(n, dt=1e-3, t_final=0.8, seed=1001,
                                   record_stride=160)
            stats = ensemble_statistics(unravel(DEPHASING, KET_PLUS.density(), cfg),
                                        SIGMA_X)
            return float(np.sqrt(np.mean((stats["mean"][1:] - exact[1:]) ** 2)))

        r250, r1000, r4000 = rms(250), rms(1000), rms(4000)
        # quadrupling the count should halve the error, within a factor 2
        assert 1.0 <= r250 / r1000 <= 4.0
        assert 1.0 <= r1000 / r4000 <= 4.0


class TestStatisticsAndExport:
    def test_identity_observable_has_zero_spread(self):
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(8, dt=1e-3, t_final=0.2, seed=3))
        stats = ensemble_statistics(ens, Operator.identity(2))
        assert_allclose(stats["mean"], 1.0, atol=1e-9)
        assert np.max(stats["stderr"]) < 1e-9

    def test_single_trajectory_stderr_is_undefined(self):
        # small step keeps the lone conditioned state inside the validation
        # clamp; the point here is only the degenerate-statistics error
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(1, dt=1e-4, t_final=0.05, seed=3))
        with pytest.raises(ValueError):
            ensemble_statistics(ens, SIGMA_X)

    def test_observable_of_the_wrong_dimension(self, tmp_path):
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(3, dt=1e-2, t_final=0.1, seed=3))
        obs = Operator.identity(3)
        with pytest.raises(ValueError, match="observable dimension mismatch"):
            ensemble_statistics(ens, obs)
        with pytest.raises(ValueError, match="observable dimension mismatch"):
            export_ensemble_csv(ens, obs, tmp_path / "ens.csv")

    def test_csv_and_json_exports(self, tmp_path):
        ens = unravel(DEPHASING, KET_PLUS.density(),
                      TrajectoryConfig(3, dt=1e-2, t_final=0.1, seed=3,
                                       record_stride=5))
        csv_path = tmp_path / "ens.csv"
        json_path = tmp_path / "ens.json"
        export_ensemble_csv(ens, SIGMA_X, csv_path)
        export_ensemble_summary_json(ens, SIGMA_X, json_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "trajectory_id,t,value"
        assert len(lines) == 1 + 3 * ens.times.size
        import json
        payload = json.loads(json_path.read_text())
        assert payload["n_trajectories"] == 3
        assert len(payload["mean"]) == ens.times.size
