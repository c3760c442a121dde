import numpy as np
import pytest
import scipy.fft
import scipy.integrate
import scipy.linalg
from numpy.testing import assert_allclose

from decoherence.core import FockSpace, Grid1D, GridOperator, Operator
from decoherence.lindblad import (
    BornMarkovCoefficients,
    ExtraTerm,
    IntegratorConfig,
    LindbladGenerator,
    PositivityLossError,
    apply_generator,
    evolve,
    gaussian,
    grid_moments,
    propagate,
)
from decoherence.models import (
    CollisionalParams,
    QBMParams,
    caldeira_leggett_generator,
    collisional_generator,
    qbm_coefficients,
    qbm_generator,
    qbm_moment_matrix,
    qbm_position_variance,
)
from decoherence.models.qbm import localization_rate

from conftest import random_density

HIGH_T = QBMParams(mass=1.0, Omega=1.0, gamma0=0.1, T=1e6, cutoff=1e3)


@pytest.fixture(scope="module")
def high_t_coefficients():
    return qbm_coefficients(HIGH_T)


def fock_xp(n=24):
    space = FockSpace(n)
    a = space.annihilation().matrix
    x = Operator((a + a.conj().T) / np.sqrt(2.0))
    p = Operator(1j * (a.conj().T - a) / np.sqrt(2.0))
    return x, p


def build_fock_generator(mass, omega_sq, gamma, D, f, n=24):
    """Oscillator-basis generator with explicit coefficients (test double)."""
    x, p = fock_xp(n)
    h = Operator(p.matrix @ p.matrix / (2.0 * mass)
                 + 0.5 * mass * omega_sq * x.matrix @ x.matrix)
    extra = [ExtraTerm("comm_anticomm", x, p, -1j * gamma, label="damping"),
             ExtraTerm("double_comm", x, p, -f, label="anomalous")]
    return LindbladGenerator(h, [(2.0 * D, x)], extra_terms=extra), x, p


class TestCoefficients:
    def test_high_temperature_limit_of_d(self, high_t_coefficients):
        want = 2.0 * HIGH_T.mass * HIGH_T.gamma0 * HIGH_T.T
        assert high_t_coefficients.D == pytest.approx(want, rel=0.02)

    def test_frequency_shift_is_negative_and_cutoff_dominated(self, high_t_coefficients):
        # -(2/M) int eta cos(Omega t) ~ -2 gamma0 Lambda for Lambda >> Omega
        want = -2.0 * HIGH_T.gamma0 * HIGH_T.cutoff
        assert high_t_coefficients.omega_shift_sq == pytest.approx(want, rel=0.01)

    def test_damping_is_the_lorentz_drude_closed_form(self, high_t_coefficients):
        # (1/M Omega) int eta sin(Omega t) with eta = M gamma0 Lambda^2 e^(-Lambda t)
        lam, omega = HIGH_T.cutoff, HIGH_T.Omega
        want = HIGH_T.gamma0 * lam ** 2 / (lam ** 2 + omega ** 2)
        assert high_t_coefficients.gamma == pytest.approx(want, rel=1e-6)

    def test_high_temperature_flag(self):
        assert HIGH_T.is_high_temperature()
        assert not QBMParams(1.0, 1.0, 0.1, 5.0, 1e3).is_high_temperature()


class TestGeneratorStructure:
    def test_grid_generator_terms(self, high_t_coefficients):
        grid = Grid1D(16, -3.0, 3.0)
        gen = qbm_generator(HIGH_T, grid, coefficients=high_t_coefficients)
        labels = sorted(t.label for t in gen.extra_terms)
        assert labels == ["anomalous", "damping"]
        assert gen.lindblad_ops[0][0] == pytest.approx(
            2.0 * high_t_coefficients.D)

    def test_anomalous_term_switchable(self, high_t_coefficients):
        grid = Grid1D(16, -3.0, 3.0)
        gen = qbm_generator(HIGH_T, grid, include_anomalous=False,
                            coefficients=high_t_coefficients)
        assert [t.label for t in gen.extra_terms] == ["damping"]

    def test_dissipator_alone_conserves_position_populations(self, rng,
                                                             high_t_coefficients):
        # with damping and the anomalous term off, the remaining dissipator
        # is diagonal in position and cannot move the diagonal
        grid = Grid1D(12, -2.0, 2.0)
        gen = qbm_generator(HIGH_T, grid, include_dissipation=False,
                            coefficients=high_t_coefficients)
        h_only = LindbladGenerator(gen.hamiltonian)
        rho = random_density(rng, 12)
        dissipator = apply_generator(gen, rho) - apply_generator(h_only, rho)
        scale = np.max(np.abs(dissipator))
        assert np.max(np.abs(np.diag(dissipator))) < 1e-13 * scale

    def test_caldeira_leggett_uses_closed_form_coefficients(self):
        grid = Grid1D(16, -3.0, 3.0)
        gen = caldeira_leggett_generator(HIGH_T, grid)
        want = 2.0 * HIGH_T.mass * HIGH_T.gamma0 * HIGH_T.T
        assert gen.lindblad_ops[0][0] == pytest.approx(2.0 * want)

    def test_caldeira_leggett_warns_outside_the_high_t_regime(self):
        import pytest as _pytest
        grid = Grid1D(16, -3.0, 3.0)
        cold = QBMParams(mass=1.0, Omega=1.0, gamma0=0.1, T=2.0, cutoff=1e3)
        with _pytest.warns(UserWarning, match="high-T"):
            caldeira_leggett_generator(cold, grid)


def dense_twin(gen: LindbladGenerator) -> LindbladGenerator:
    """The same generator with every operator replaced by its dense matrix."""
    def dense(op):
        return Operator(op.matrix)

    h = None if gen.hamiltonian is None else dense(gen.hamiltonian)
    return LindbladGenerator(
        h, [(rate, dense(op)) for rate, op in gen.lindblad_ops],
        extra_terms=[ExtraTerm(t.kind, dense(t.a), dense(t.b), t.coeff, t.label)
                     for t in gen.extra_terms],
        kernel=gen.kernel if gen.bare_kernel else None)


def grid_generators(n):
    grid = Grid1D(n, -6.0, 6.0)
    params = QBMParams(mass=1.3, Omega=0.8, gamma0=0.1, T=5.0, cutoff=5.0)
    c = qbm_coefficients(params)
    gens = {f"qbm_anomalous_{a}_dissipation_{d}":
            qbm_generator(params, grid, include_anomalous=a, include_dissipation=d,
                          coefficients=c)
            for a in (True, False) for d in (True, False)}
    with pytest.warns(UserWarning, match="high-T"):
        for d in (True, False):
            gens[f"caldeira_leggett_dissipation_{d}"] = caldeira_leggett_generator(
                params, grid, include_dissipation=d)
    gens["collisional"] = collisional_generator(CollisionalParams(Lambda=0.3, mass=2.0), grid)
    return gens


class TestStructuredApply:
    @pytest.mark.parametrize("n", [16, 96])
    def test_equals_the_dense_generator(self, rng, n):
        stack = np.stack([random_density(rng, n, rank=3).matrix for _ in range(3)])
        stack[2] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for name, gen in grid_generators(n).items():
            twin = dense_twin(gen)
            for rho in (stack[0], stack[2], stack):
                got, want = gen.apply(rho), twin.apply(rho)
                err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert err < 1e-12, (name, rho.shape, err)

    def test_builds_without_dense_fourier_matrices(self, monkeypatch):
        def no_dft(*args, **kwargs):
            raise AssertionError("dense DFT matrix built")

        monkeypatch.setattr(scipy.linalg, "dft", no_dft)
        n = 1024
        grid = Grid1D(n, -8.0, 8.0)
        gens = [qbm_generator(QBMParams(1.0, 1.0, 0.1, 5.0, 5.0), grid),
                caldeira_leggett_generator(HIGH_T, grid)]
        for gen in gens:
            # the elementwise kernel is the one n x n array; no operator
            # holds a dense matrix, before or after an apply
            ops = [gen.hamiltonian, gen.lindblad_ops[0][1]]
            ops += [op for t in gen.extra_terms for op in (t.a, t.b)]
            assert gen.kernel.shape == (n, n)
            rho = np.zeros((n, n), dtype=complex)
            rho[n // 2, n // 2] = 1.0
            assert np.isfinite(gen.apply(rho)).all()
            assert all(op._matrix is None for op in ops)


class TestMomentumApply:
    """The momentum rule of LindbladGenerator.apply on what it folds and
    what it leaves to the operators."""

    GRID = Grid1D(16, -3.0, 3.0)

    def test_qbm_apply_is_one_fft2_and_one_ifft2(self, rng, monkeypatch):
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        gen = grid_generators(24)["qbm_anomalous_True_dissipation_True"]
        for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                     "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
            counted(np.fft, name)
            counted(scipy.fft, name)
        gen.apply(random_density(rng, 24).matrix)
        assert sorted(calls) == ["scipy.fft.fft2", "scipy.fft.ifft2"]

    def test_complex_kinetic_energy_keeps_h_rho_minus_rho_h_dag(self, rng):
        g = self.GRID
        ham = GridOperator(g.k ** 2 / 2.0 - 0.3j * g.k ** 2 + 0.2 * g.k, 0.5 * g.x ** 2)
        hm = ham.matrix
        rho = random_density(rng, 16).matrix
        assert_allclose(LindbladGenerator(ham).apply(rho),
                        -1j * (hm @ rho - rho @ hm.conj().T), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("term", [
        ExtraTerm("sandwich", GRID.position_operator(), GRID.momentum_operator(), 0.2 - 0.1j),
        ExtraTerm("comm_anticomm", GridOperator(GRID.k, GRID.x), GRID.momentum_operator(),
                  -0.1j),
        ExtraTerm("double_comm", GRID.position_operator(), GridOperator(GRID.k, GRID.x), -0.3),
    ], ids=["sandwich", "a_with_kinetic_part", "b_with_potential_part"])
    def test_terms_that_do_not_fold_equal_the_dense_generator(self, rng, term):
        g = self.GRID
        gen = LindbladGenerator(g.kinetic_hamiltonian(1.0), [(0.4, g.position_operator())],
                                extra_terms=[term])
        # the term does not fold: the momentum stack holds E(k) alone
        assert len(gen._momentum) == 1 and gen._products
        rho = random_density(rng, 16).matrix
        assert_allclose(gen.apply(rho), dense_twin(gen).apply(rho), rtol=0, atol=1e-12)

    def test_stack_equals_per_matrix_applies(self, rng):
        gen = grid_generators(16)["qbm_anomalous_True_dissipation_True"]
        stack = np.stack([random_density(rng, 16).matrix for _ in range(3)])
        got = gen.apply(stack)
        for rho, g in zip(stack, got):
            assert_allclose(g, gen.apply(rho), rtol=0, atol=1e-14)


class TestMomentFlow:
    def test_moment_matrix_matches_generator_on_random_states(self, rng):
        # oracle for the moment-closure derivation: Tr(A L[rho]) must equal
        # the matrix flow row for A in {x, p, x^2, xp+px, p^2}; the Fock
        # commutator [x, p] = i is exact on low-lying states
        mass, omega_sq, gamma, D, f = 1.4, 0.8, 0.23, 0.9, 0.17
        gen, x, p = build_fock_generator(mass, omega_sq, gamma, D, f, n=30)
        A, b = qbm_moment_matrix(mass, omega_sq, gamma, D, f)
        xm, pm = x.matrix, p.matrix
        obs = [xm, pm, xm @ xm, xm @ pm + pm @ xm, pm @ pm]
        rho = random_density(rng, 30, rank=3)
        # keep support away from the truncation edge
        proj = np.zeros((30, 30))
        proj[:10, :10] = np.eye(10)
        m = proj @ rho.matrix @ proj
        m = m / np.trace(m)
        rhs = gen.apply(m)
        moments = np.array([np.trace(o @ m).real for o in obs])
        got = np.array([np.trace(o @ rhs).real for o in obs])
        want = A @ moments + b
        assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_late_time_variance_growth_rate(self, high_t_coefficients):
        # free particle, anomalous term off: Var(x) grows at D / (2 M^2 gamma^2)
        c = high_t_coefficients
        gamma = c.gamma
        t_end = 20.0 / gamma
        times = np.linspace(0.0, t_end, 400)
        # minimum-uncertainty packet at rest: Var(x) = 1/2, Var(p) = 1/2
        m0 = np.array([0.0, 0.0, 0.5, 0.0, 0.5])
        var = qbm_position_variance(HIGH_T, times, m0, coefficients=c,
                                    free_particle=True, include_anomalous=False)
        late = times > 10.0 / gamma
        slope = np.polyfit(times[late], var[late], 1)[0]
        want = c.D / (2.0 * HIGH_T.mass ** 2 * gamma ** 2)
        assert slope == pytest.approx(want, rel=0.05)

    def test_variance_equals_an_integrated_moment_flow(self):
        # every term on: a shifted oscillator, damping, diffusion, anomalous
        params = QBMParams(mass=1.3, Omega=0.8, gamma0=0.1, T=5.0, cutoff=5.0)
        c = BornMarkovCoefficients(omega_shift_sq=-0.3, gamma=0.12, D=0.9, f=0.07,
                                   quadrature_error=0.0)
        times = np.linspace(0.5, 30.0, 60)
        m0 = np.array([0.4, -0.2, 0.66, 0.1, 0.55])
        A, b = qbm_moment_matrix(params.mass, params.Omega ** 2 + c.omega_shift_sq,
                                 c.gamma, c.D, c.f)
        sol = scipy.integrate.solve_ivp(lambda t, m: A @ m + b, (times[0], times[-1]), m0,
                                        t_eval=times, rtol=1e-12, atol=1e-14)
        assert sol.success
        want = sol.y[2] - sol.y[0] ** 2
        got = qbm_position_variance(params, times, m0, coefficients=c)
        assert_allclose(got, want, rtol=1e-7, atol=0)

    def test_localization_rate_matches_decoherence_coefficient(self,
                                                               high_t_coefficients):
        # D dx^2 at high temperature equals gamma0 (dx / lambda_th)^2 with
        # lambda_th = 1 / sqrt(2 m k_B T) in natural units
        dx = 0.3
        lam_th = 1.0 / np.sqrt(2.0 * HIGH_T.mass * HIGH_T.T)
        want = HIGH_T.gamma0 * (dx / lam_th) ** 2
        assert localization_rate(HIGH_T.mass, HIGH_T.gamma0, HIGH_T.T, dx) == \
            pytest.approx(want, rel=1e-12)
        assert high_t_coefficients.D * dx ** 2 == pytest.approx(want, rel=0.02)


class TestGaussianRoute:
    """Records of a Gaussian packet taken from its moments under the moment
    flow (A, b) that the generator carries, with no time step."""

    def test_grid_moments_of_a_packet(self):
        grid = Grid1D(96, -6.0, 6.0)
        x0, sigma, k0 = 0.4, 0.7, 0.6
        m = grid_moments(grid.gaussian_packet(x0, sigma, k0).density().matrix, grid.x)
        want = [x0, k0, x0 ** 2 + sigma ** 2, 2.0 * x0 * k0, k0 ** 2 + 0.25 / sigma ** 2]
        assert_allclose(m, want, rtol=1e-12, atol=1e-12)

    def test_moment_flow_is_the_generators_own(self):
        # d m / dt of gen.apply(rho), read on the grid, against A m + b, for
        # every switch of the terms that builds a generator
        gens = grid_generators(96)
        assert gens.pop("collisional").moments is None
        rho = Grid1D(96, -6.0, 6.0).gaussian_packet(0.4, 0.7, 0.6).density().matrix
        for name, gen in gens.items():
            a, b, x = gen.moments
            got = grid_moments(gen.apply(rho), x)
            want = a @ grid_moments(rho, x) + b
            assert_allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want)),
                            err_msg=name)

    def test_records_are_rk4_at_a_quarter_step(self):
        # the qbm_packet benchmark scenario
        grid = Grid1D(96, -8.0, 8.0)
        gen = qbm_generator(QBMParams(1.0, 1.0, 0.1, 5.0, 5.0), grid)
        rho0 = grid.gaussian_packet(0.5, 1.0).density()
        res = propagate(gen, rho0, IntegratorConfig(0.01, 1.0, 5))
        rk4 = evolve(gen, rho0, IntegratorConfig(0.0025, 1.0, 20))
        assert res.evolver == "gaussian"
        for got, want in zip(res.matrices, rk4.matrices):
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(got))
            assert np.array_equal(got, got.conj().T)
            assert np.linalg.eigvalsh(got)[0] >= -1e-12

    @pytest.mark.parametrize("params, state, t_final", [
        # each fails one condition: a cat is no Gaussian (off by 0.7 of its peak)
        (QBMParams(1.0, 1.0, 0.1, 5.0, 5.0), ("two_packet_cat", 0.8, 0.4), 0.1),
        # a packet whose spread reaches 2.4e-4 of its peak at the edges by t = 1
        (QBMParams(1.0, 1.0, 0.1, 5.0, 5.0), ("gaussian_packet", 0.3, 0.8, 0.5), 1.0),
        # a cold bath's damping squeezes det S to 0.245 within t = 0.1
        (QBMParams(1.0, 1.0, 0.1, 0.05, 5.0), ("gaussian_packet", 0.0, 0.3), 0.1),
    ], ids=["cat", "past_the_edge", "below_robertson_schroedinger"])
    def test_what_it_declines_keeps_rk4(self, params, state, t_final):
        grid = Grid1D(48, -6.0, 6.0)
        gen = qbm_generator(params, grid)
        rho0 = getattr(grid, state[0])(*state[1:]).density()
        cfg = IntegratorConfig(0.01, t_final, 5)
        assert gaussian(gen, rho0.matrix, cfg.record_times()) is None

        def outcome(run):
            try:
                res = run(gen, rho0, cfg)
            except PositivityLossError as exc:
                return str(exc)
            return res.evolver, np.array(res.matrices)

        got, want = outcome(propagate), outcome(evolve)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[0] == want[0] == "rk4" and np.array_equal(got[1], want[1])


class TestGridEvolution:
    def test_coherence_decays_faster_than_populations_spread(self):
        # short CL evolution of a small cat: off-diagonal peak collapses
        # while the diagonal stays near its initial profile
        from decoherence.lindblad import IntegratorConfig, evolve
        params = QBMParams(mass=5.0, Omega=0.5, gamma0=0.01, T=200.0, cutoff=50.0)
        grid = Grid1D(64, -4.0, 4.0)
        psi0 = grid.two_packet_cat(1.2, 0.35)
        # T/cutoff = 4 is deliberately marginal (keeps the run short), so
        # the regime warning is expected
        with pytest.warns(UserWarning, match="high-T"):
            gen = caldeira_leggett_generator(params, grid)
        rho0 = psi0.density()
        d = 2.0 * params.mass * params.gamma0 * params.T  # decoherence strength
        t_final = 4.0 / (d * (2 * 1.2) ** 2)  # four units of the cat's decay
        res = evolve(gen, rho0, IntegratorConfig(dt=t_final / 400, t_final=t_final,
                                                 record_stride=400))
        # look at the cat's off-diagonal peak near (x, x') = (x0, -x0)
        sep = np.abs(np.subtract.outer(grid.x, grid.x))
        off = sep > 2.0
        before = np.max(np.abs(rho0.matrix)[off])
        after = np.max(np.abs(res.final().matrix)[off])
        assert after < 0.1 * before
        # diagonal barely moves over this short time
        assert np.max(np.abs(np.diag(res.final().matrix) - np.diag(rho0.matrix))) \
            < 0.05 * np.max(np.abs(np.diag(rho0.matrix)))
