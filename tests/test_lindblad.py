import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from decoherence.core import (
    DensityMatrix,
    FockSpace,
    KET_0,
    KET_PLUS,
    Operator,
    SIGMA_X,
    SIGMA_Z,
)
from decoherence.lindblad import (
    CorrelationKernelSpec,
    IntegratorConfig,
    LindbladGenerator,
    PURE_DEPHASING_RATE_FACTOR,
    PositivityLossError,
    QuadratureError,
    apply_generator,
    born_markov_coefficients,
    caldeira_leggett_lindblad_operator,
    convergence_check,
    evolve,
    lindblad_repair_caldeira_leggett,
    ohmic,
    ohmic_spectral_density,
    pure_dephasing_qubit,
)
from decoherence.measures import purity

from conftest import nested_lag_integral, random_density, random_hermitian


class TestApplyGenerator:
    def test_trivial_generator_is_zero(self, rng):
        gen = LindbladGenerator(Operator(np.zeros((2, 2))))
        out = apply_generator(gen, random_density(rng, 2))
        assert np.max(np.abs(out)) == 0.0

    def test_pure_dephasing_matches_symbolic_double_commutator(self, rng):
        # literal expansion: [sz, [sz, rho]] = 2 rho - 2 sz rho sz, whose
        # off-diagonal part is 4 rho_01 -- the effective rate is 4 D
        D = 0.37
        gen = pure_dephasing_qubit(D)
        rho = random_density(rng, 2)
        out = apply_generator(gen, rho)
        sz = SIGMA_Z.matrix
        literal = -D * (2.0 * rho.matrix - 2.0 * sz @ rho.matrix @ sz)
        assert_allclose(out, literal, atol=1e-14)
        assert out[0, 1] == pytest.approx(
            -PURE_DEPHASING_RATE_FACTOR * D * rho.matrix[0, 1], abs=1e-14)

    def test_pure_dephasing_leaves_populations_alone(self, rng):
        gen = pure_dephasing_qubit(1.1)
        out = apply_generator(gen, random_density(rng, 2))
        assert abs(out[0, 0]) < 1e-14 and abs(out[1, 1]) < 1e-14

    def test_traceless_on_random_states(self, rng):
        gen = LindbladGenerator(random_hermitian(rng, 3),
                                [(0.5, random_hermitian(rng, 3)),
                                 (0.2, random_hermitian(rng, 3))])
        for _ in range(10):
            out = apply_generator(gen, random_density(rng, 3))
            assert abs(np.trace(out)) < 1e-12

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LindbladGenerator(None, [(-0.1, SIGMA_Z)])

    def test_diagonal_fast_path_matches_dense(self, rng):
        d = np.diag(rng.normal(size=5).astype(complex))
        gen_diag = LindbladGenerator(None, [(0.8, Operator(d))])
        dense = d + np.zeros_like(d)
        dense[0, 1] = 0.0  # force the generic path via a non-diagonal copy
        rho = random_density(rng, 5)
        out = apply_generator(gen_diag, rho)
        l = d
        want = 0.8 * (l @ rho.matrix @ l.conj().T
                      - 0.5 * (l.conj().T @ l @ rho.matrix
                               + rho.matrix @ l.conj().T @ l))
        assert_allclose(out, want, atol=1e-13)


class TestFirstStandardForm:
    def test_diagonalization_matches_direct_construction(self, rng):
        basis = [SIGMA_X, SIGMA_Z]
        v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        kappas = np.array([0.6, 0.1])
        gamma = v @ np.diag(kappas) @ v.conj().T
        gen = LindbladGenerator.from_first_standard_form(None, gamma, basis)
        rho = random_density(rng, 2)
        got = apply_generator(gen, rho)
        want = np.zeros_like(got)
        for a in range(2):
            for b in range(2):
                fa, fb = basis[a].matrix, basis[b].matrix
                want += gamma[a, b] * (fa @ rho.matrix @ fb.conj().T
                                       - 0.5 * (fb.conj().T @ fa @ rho.matrix
                                                + rho.matrix @ fb.conj().T @ fa))
        assert_allclose(got, want, atol=1e-12)

    def test_negative_coefficient_matrix_rejected(self):
        gamma = np.diag([0.5, -0.2])
        with pytest.raises(ValueError):
            LindbladGenerator.from_first_standard_form(None, gamma, [SIGMA_X, SIGMA_Z])


class TestIntegratorConfig:
    @pytest.mark.parametrize("dt, t_final, ratio", [
        (0.3, 1.0, "3.33333333333"),  # would end at t = 0.9
        (0.002, 0.001, "0.5"),  # less than one step
        (1e-3, float("inf"), "inf"),
    ], ids=["would_end_at_0.9", "below_one_step", "infinite"])
    def test_t_final_must_be_a_whole_number_of_steps(self, dt, t_final, ratio):
        with pytest.raises(ValueError, match=rf"t_final = {t_final!r} must be a whole number, "
                                             rf"at least 1, of steps dt = {dt!r}: "
                                             rf"t_final / dt = {ratio}$"):
            IntegratorConfig(dt, t_final)

    def test_round_off_in_the_step_count_is_absorbed(self):
        assert IntegratorConfig(1e-3, 0.3).n_steps == 300
        # 0.7 / 0.1 is 6.999999999999999 in floating point
        cfg = IntegratorConfig(0.1, 0.7, 3)
        assert cfg.n_steps == 7
        assert_allclose(cfg.record_times(), [0.0, 0.3, 0.6, 0.7], rtol=1e-15)


class TestEvolve:
    def test_closed_system_rabi_phase(self):
        omega = 2.0
        gen = LindbladGenerator(Operator(0.5 * omega * SIGMA_Z.matrix))
        res = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(dt=1e-3, t_final=2.0, record_stride=100))
        for t, state in zip(res.times, res.states):
            assert purity(state) == pytest.approx(1.0, abs=1e-8)
            sx = float(np.real(np.trace(state.matrix @ SIGMA_X.matrix)))
            assert sx == pytest.approx(np.cos(omega * t), abs=1e-6)

    def test_dephasing_decay_matches_analytic_exponential(self):
        D = 0.25
        rate = PURE_DEPHASING_RATE_FACTOR * D
        gen = pure_dephasing_qubit(D)
        # cover Gamma t up to 5
        t_final = 5.0 / rate
        res = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(dt=t_final / 5000, t_final=t_final,
                                      record_stride=250))
        for t, state in zip(res.times, res.states):
            got = abs(state.matrix[0, 1])
            assert got == pytest.approx(0.5 * np.exp(-rate * t), rel=1e-4)

    def test_matches_superoperator_exponential_oracle(self, rng):
        gen = LindbladGenerator(random_hermitian(rng, 2),
                                [(0.4, random_hermitian(rng, 2))])
        rho0 = random_density(rng, 2)
        t = 0.7
        s = gen.superoperator()
        expected = (scipy.linalg.expm(s * t) @ rho0.matrix.reshape(-1)).reshape(2, 2)
        res = evolve(gen, rho0, IntegratorConfig(dt=1e-3, t_final=t, record_stride=700))
        assert np.max(np.abs(res.final().matrix - expected)) < 1e-6

    def test_semigroup_composition(self, rng):
        gen = LindbladGenerator(random_hermitian(rng, 2),
                                [(0.3, random_hermitian(rng, 2))])
        rho0 = random_density(rng, 2)
        t1, t2 = 0.4, 0.6
        tol = convergence_check(gen, rho0,
                                IntegratorConfig(dt=1e-3, t_final=t1 + t2,
                                                 record_stride=1000))
        one_shot = evolve(gen, rho0,
                          IntegratorConfig(dt=1e-3, t_final=t1 + t2,
                                           record_stride=1000)).final()
        first = evolve(gen, rho0,
                       IntegratorConfig(dt=1e-3, t_final=t1, record_stride=400)).final()
        second = evolve(gen, first,
                        IntegratorConfig(dt=1e-3, t_final=t2, record_stride=600)).final()
        dev = np.max(np.abs(one_shot.matrix - second.matrix))
        assert dev <= max(2.0 * tol, 1e-12)

    def test_unital_generator_never_gains_purity(self, rng):
        gen = LindbladGenerator(None, [(0.5, random_hermitian(rng, 3))])
        for _ in range(5):
            rho0 = random_density(rng, 3)
            res = evolve(gen, rho0, IntegratorConfig(dt=5e-3, t_final=1.0,
                                                     record_stride=20))
            purities = [purity(s) for s in res.states]
            assert all(b <= a + 1e-9 for a, b in zip(purities, purities[1:]))

    def test_pointer_state_stays_fixed(self, rng):
        # [L, rho] = 0 and [H, rho] = 0 freeze the state
        gen = LindbladGenerator(Operator(0.7 * SIGMA_Z.matrix), [(0.9, SIGMA_Z)])
        rho0 = DensityMatrix(np.diag([0.8, 0.2]).astype(complex))
        res = evolve(gen, rho0, IntegratorConfig(dt=1e-3, t_final=2.0,
                                                 record_stride=500))
        for state in res.states:
            assert np.max(np.abs(state.matrix - rho0.matrix)) < 1e-8

    def test_hermiticity_and_trace_drift_bounds(self, rng):
        gen = LindbladGenerator(random_hermitian(rng, 4),
                                [(0.2, random_hermitian(rng, 4))])
        res = evolve(gen, random_density(rng, 4),
                     IntegratorConfig(dt=2e-3, t_final=1.0, record_stride=50))
        for state in res.states:
            m = state.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-8
            assert abs(np.trace(m) - 1.0) < 1e-7

    def test_instability_detected(self):
        # absurdly large step on a stiff generator must trip the guard
        # (|0> is not a fixed point of sigma_x dephasing, so the blow-up
        # actually shows up in the state)
        gen = LindbladGenerator(None, [(50.0, SIGMA_X)])
        with pytest.raises(PositivityLossError):
            evolve(gen, KET_0.density(),
                   IntegratorConfig(dt=0.5, t_final=5.0, record_stride=1))


class TestOhmicSpectralDensity:
    def test_zero_frequency(self):
        assert ohmic_spectral_density(0.0, 1.0, 0.5, 10.0) == 0.0

    def test_value_at_cutoff(self):
        m, g0, lam = 2.0, 0.3, 5.0
        want = (2 * m * g0 / np.pi) * lam / 2
        assert ohmic_spectral_density(lam, m, g0, lam) == pytest.approx(want)

    def test_linear_regime_below_cutoff(self):
        m, g0, lam = 1.0, 0.2, 100.0
        slope = 2 * m * g0 / np.pi
        for w in (0.1, 0.5, 1.0):
            assert ohmic_spectral_density(w, m, g0, lam) == pytest.approx(
                slope * w, rel=1e-2)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            ohmic_spectral_density(-1.0, 1.0, 1.0, 1.0)


class TestKernels:
    def test_dissipation_kernel_closed_form(self):
        # ohmic with Lorentz rolloff: eta(tau) = M gamma0 Lambda^2 e^(-Lambda tau)
        m, g0, lam = 1.0, 0.2, 50.0
        spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=10.0,
                                     cutoff_time=50.0 / lam)
        for tau in (0.01, 0.05, 0.1):
            want = m * g0 * lam ** 2 * np.exp(-lam * tau)
            assert spec.eta(tau) == pytest.approx(want, rel=1e-6)

    def test_eta_vanishes_at_zero_lag(self):
        spec = CorrelationKernelSpec(ohmic(1.0, 0.1, 10.0), T=1.0,
                                     cutoff_time=5.0)
        assert spec.eta(0.0) == 0.0

    def test_noise_kernel_high_temperature_closed_form(self):
        # coth -> 2T/w turns nu into 2 T int J/w cos = 2 M gamma0 T Lambda e^-Lambda tau
        m, g0, lam, T = 1.0, 0.2, 10.0, 1e4
        spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=T,
                                     cutoff_time=50.0 / lam)
        for tau in (0.05, 0.2):
            want = 2.0 * m * g0 * T * lam * np.exp(-lam * tau)
            assert spec.nu(tau) == pytest.approx(want, rel=1e-3)

    def test_kernel_parities(self):
        # nu is even and eta odd under tau -> -tau, inherited from the
        # cos/sin transforms; evaluate both transforms at the reflected lag
        # with the same Fourier-weighted quadrature
        import warnings

        import scipy.integrate
        from scipy.integrate import quad

        m, g0, lam = 1.0, 0.3, 20.0
        T = 5.0
        spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=T, cutoff_time=2.0)
        tau = 0.07

        def coth(x):
            return 1.0 / np.tanh(x)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            nu_neg, _ = quad(lambda w: ohmic(m, g0, lam)(w) * coth(w / (2 * T)),
                             0, np.inf, weight="cos", wvar=-tau, limit=400)
            eta_neg, _ = quad(ohmic(m, g0, lam), 0, np.inf,
                              weight="sin", wvar=-tau, limit=400)
        assert nu_neg == pytest.approx(spec.nu(tau), rel=1e-9)
        assert eta_neg == pytest.approx(-spec.eta(tau), rel=1e-9)


class TestBornMarkovCoefficients:
    def test_zero_kernels_give_zero_coefficients(self):
        from decoherence.lindblad import CorrelationKernelSpec
        spec = CorrelationKernelSpec(J=lambda w: 0.0, T=1.0, cutoff_time=1.0)
        c = born_markov_coefficients(spec, omega=1.0, mass=1.0)
        assert c.omega_shift_sq == 0.0 and c.gamma == 0.0
        assert c.D == 0.0 and c.f == 0.0

    def test_high_temperature_decoherence_coefficient(self):
        # k_B T / cutoff = 1e3 and cutoff / Omega = 1e3: D -> 2 M gamma0 k_B T
        m, g0, lam, T, omega = 1.0, 0.1, 1e3, 1e6, 1.0
        spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=T,
                                     cutoff_time=50.0 / lam)
        c = born_markov_coefficients(spec, omega=omega, mass=m)
        assert c.D == pytest.approx(2.0 * m * g0 * T, rel=0.02)

    def test_quadrature_error_estimate_returned(self):
        m, g0, lam, T = 1.0, 0.2, 100.0, 10.0
        spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=T,
                                     cutoff_time=50.0 / lam)
        c = born_markov_coefficients(spec, omega=1.0, mass=m)
        assert np.isfinite(c.quadrature_error)
        assert c.quadrature_error < 1e-4 * max(abs(c.D), 1.0)

    def test_gamma_is_temperature_independent(self):
        # eta carries no temperature, so gamma cannot either
        m, g0, lam, omega = 1.0, 0.2, 100.0, 1.0
        gammas = []
        for T in (1.0, 100.0):
            spec = CorrelationKernelSpec(ohmic(m, g0, lam), T=T,
                                         cutoff_time=50.0 / lam)
            gammas.append(born_markov_coefficients(spec, omega=omega, mass=m).gamma)
        assert gammas[0] == pytest.approx(gammas[1], rel=1e-9)
        # eta = M gamma0 Lambda^2 e^(-Lambda tau) integrates in closed form to
        # the weak-coupling damping rate gamma0 Lambda^2 / (Lambda^2 + Omega^2)
        want = g0 * lam ** 2 / (lam ** 2 + omega ** 2)
        assert gammas[0] == pytest.approx(want, rel=1e-6)


class TestSwappedOrderCoefficients:
    @pytest.mark.parametrize("omega", [0.5, 1.0])
    @pytest.mark.parametrize("lam", [5.0, 20.0])
    @pytest.mark.parametrize("T", [2.0, 100.0])
    def test_matches_the_nested_quadrature(self, T, lam, omega):
        # one frequency integral per coefficient against the tau quadrature of
        # the kernels, within the error estimates that both report
        m = 1.0
        spec = CorrelationKernelSpec(ohmic(m, 0.1, lam), T=T,
                                     cutoff_time=50.0 / lam)
        c = born_markov_coefficients(spec, omega=omega, mass=m)
        for name, kernel, trig, scale in [("D", "nu", "cos", 1.0),
                                          ("f", "nu", "sin", -1.0 / (m * omega)),
                                          ("gamma", "eta", "sin", 1.0 / (m * omega)),
                                          ("omega_shift_sq", "eta", "cos", -2.0 / m)]:
            val, err = nested_lag_integral(spec, kernel, trig, omega)
            assert abs(getattr(c, name) - scale * val) <= \
                abs(scale) * err + c.quadrature_error, name

    def test_non_convergent_spectral_density_raises(self):
        # super-ohmic without a cutoff: the frequency integrals grow without bound
        spec = CorrelationKernelSpec(lambda w: w * w, T=1.0, cutoff_time=1.0)
        with pytest.raises(QuadratureError):
            born_markov_coefficients(spec, omega=1.0)

    def test_log_divergent_noise_tail_raises(self):
        # ohmic without a cutoff: the non-oscillating tail of nu sin falls like
        # 1/w, so its integral grows like log w though QUADPACK reports success
        spec = CorrelationKernelSpec(lambda w: w, T=1.0, cutoff_time=1.0)
        with pytest.raises(QuadratureError):
            spec.lag_integral("nu", "sin", 1.0)


class TestGenericBornMarkovBuilder:
    def test_zero_correlation_leaves_only_the_unitary_part(self, rng):
        from decoherence.lindblad import born_markov_generator
        h = random_hermitian(rng, 2)
        gen = born_markov_generator(h, [SIGMA_Z], [lambda t: SIGMA_Z.matrix],
                                    lambda a, b, t: 0.0, cutoff_time=1.0,
                                    n_quadrature=101)
        rho = random_density(rng, 2)
        want = -1j * (h.matrix @ rho.matrix - rho.matrix @ h.matrix)
        assert_allclose(apply_generator(gen, rho), want, atol=1e-14)

    def test_reproduces_the_two_level_bath_equation(self, rng):
        # structural oracle: feed the builder the sigma_z coupling of the
        # tunneling qubit (trajectory rotating in the (sz, sy) plane,
        # correlation nu - i eta) and compare against the regrouped
        # D / zeta / effective-Hamiltonian form assembled from the very
        # same correlation samples.  Using identical Simpson sums on both
        # sides isolates the commutator algebra from quadrature error.
        import scipy.integrate as si

        from decoherence.lindblad import ExtraTerm, born_markov_generator
        from decoherence.models.spin_boson import ohmic_coupling

        delta0, alpha, T, lam = 1.3, 0.02, 400.0, 40.0
        tc = 50.0 / lam
        kernels = CorrelationKernelSpec(ohmic_coupling(alpha, lam), T, tc)
        n_q = 801
        taus = np.linspace(0.0, tc, n_q)
        nu_s = np.array([kernels.nu(t) for t in taus])
        eta_s = np.array([kernels.eta(t) for t in taus])

        def corr(a, b, tau):
            k = int(round(tau / tc * (n_q - 1)))
            return nu_s[k] - 1j * eta_s[k]

        sy = np.array([[0, -1j], [1j, 0]])
        sz = SIGMA_Z

        def s_traj(tau):
            return np.cos(delta0 * tau) * sz.matrix - np.sin(delta0 * tau) * sy

        h = Operator(0.5 * delta0 * SIGMA_X.matrix)
        gen = born_markov_generator(h, [sz], [s_traj], corr,
                                    cutoff_time=tc, n_quadrature=n_q)

        # reference: D and zeta from the same samples, assembled as
        # -D [sz,[sz,.]] - zeta sz . sy - zeta* sy . sz with the
        # bath-shifted non-Hermitian Hamiltonian (Delta0/2 + zeta*) sx
        d_val = si.simpson(nu_s * np.cos(delta0 * taus), x=taus)
        zeta_conj = si.simpson((nu_s - 1j * eta_s) * np.sin(delta0 * taus), x=taus)
        zeta = np.conj(zeta_conj)
        h_eff = Operator((0.5 * delta0 + zeta_conj) * SIGMA_X.matrix)
        reference = LindbladGenerator(
            h_eff, [],
            extra_terms=[
                ExtraTerm("double_comm", sz, sz, -d_val),
                ExtraTerm("sandwich", sz, Operator(sy), -zeta),
                ExtraTerm("sandwich", Operator(sy), sz, -zeta_conj),
            ])

        for _ in range(5):
            rho = random_density(rng, 2)
            got = apply_generator(gen, rho)
            want = apply_generator(reference, rho)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-10 * scale

    def test_builder_preserves_trace(self, rng):
        from decoherence.lindblad import born_markov_generator
        gen = born_markov_generator(
            random_hermitian(rng, 3),
            [random_hermitian(rng, 3)],
            [lambda t: np.eye(3) * np.cos(t)],
            lambda a, b, t: np.exp(-t) * (1.0 + 0.5j), cutoff_time=5.0,
            n_quadrature=201)
        for _ in range(5):
            out = apply_generator(gen, random_density(rng, 3))
            assert abs(np.trace(out)) < 1e-12

    def test_identity_sides_go_to_g_and_g_prime(self, rng):
        from decoherence.lindblad import born_markov_generator
        gen = born_markov_generator(
            None, [random_hermitian(rng, 4)], [lambda t: np.eye(4) * np.cos(t)],
            lambda a, b, t: np.exp(-t) * (1.0 + 0.5j), cutoff_time=5.0, n_quadrature=201)
        # -(S B) rho I and -I rho (C S) join G and G': two products are left
        assert len(gen._products) == 2
        rho = random_density(rng, 4).matrix
        want = sum(t.coeff * t.a.matrix @ rho @ t.b.matrix for t in gen.extra_terms)
        assert_allclose(gen.apply(rho), want, rtol=0, atol=1e-13)


class TestCaldeiraLeggettRepair:
    def setup_ops(self, n=16):
        space = FockSpace(n)
        a = space.annihilation().matrix
        x = Operator((a + a.conj().T) / np.sqrt(2.0))
        p = Operator(1j * (a.conj().T - a) / np.sqrt(2.0))
        return x, p

    def test_repair_equals_high_t_terms_plus_momentum_correction(self, rng):
        # algebraic identity, valid for arbitrary x and p matrices:
        # gamma0 D[L] = -i gamma0 [x, {p, rho}] - 2 M gamma0 T [x, [x, rho]]
        #               - gamma0/(8 M T) [p, [p, rho]] + (i gamma0 / 2)[{x,p}, rho]
        m, g0, T = 1.3, 0.21, 7.0
        x, p = self.setup_ops()
        gen = lindblad_repair_caldeira_leggett(m, g0, T, x, p)
        rho = random_density(rng, x.dim)
        got = apply_generator(gen, rho)

        xm, pm, rm = x.matrix, p.matrix, rho.matrix
        damping = -1j * g0 * (xm @ (pm @ rm + rm @ pm) - (pm @ rm + rm @ pm) @ xm)
        dec = -2.0 * m * g0 * T * (xm @ (xm @ rm - rm @ xm) - (xm @ rm - rm @ xm) @ xm)
        correction = -g0 / (8.0 * m * T) * (pm @ (pm @ rm - rm @ pm)
                                            - (pm @ rm - rm @ pm) @ pm)
        want = damping + dec + correction
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    def test_generator_is_completely_positive_by_construction(self):
        # single Lindblad operator with positive rate: the one-by-one
        # coefficient matrix is trivially positive
        x, p = self.setup_ops()
        L = caldeira_leggett_lindblad_operator(1.0, 5.0, x, p)
        gen = LindbladGenerator(None, [(0.3, L)])
        assert gen.lindblad_ops[0][0] > 0

    def test_momentum_correction_negligible_at_high_temperature(self, rng):
        # T = 1e3 in units of the oscillator quantum makes the added term
        # tiny relative to the decoherence term
        m, g0, T = 1.0, 0.1, 1e3
        x, p = self.setup_ops()
        rho = random_density(rng, x.dim, rank=3)
        xm, pm, rm = x.matrix, p.matrix, rho.matrix
        dec = 2.0 * m * g0 * T * (xm @ (xm @ rm - rm @ xm) - (xm @ rm - rm @ xm) @ xm)
        corr = g0 / (8.0 * m * T) * (pm @ (pm @ rm - rm @ pm)
                                     - (pm @ rm - rm @ pm) @ pm)
        ratio = np.linalg.norm(corr) / np.linalg.norm(dec)
        assert ratio < 1e-3

    def test_rejects_nonpositive_temperature(self):
        x, p = self.setup_ops(4)
        with pytest.raises(ValueError):
            caldeira_leggett_lindblad_operator(1.0, 0.0, x, p)
