"""The shared evolution engine: one generator right-hand side, one record
schedule and one validation pass for evolve, the split step and unravel,
and the one chooser, propagate, that picks the step from the generator."""

import csv
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from numpy.testing import assert_allclose
from scipy.sparse.linalg import expm_multiply

from decoherence.core import (KET_PLUS, DensityMatrix, Grid1D, GridOperator, Operator, SIGMA_X,
                              SIGMA_Z)
from decoherence.lindblad import (
    BornMarkovCoefficients,
    ExtraTerm,
    IntegratorConfig,
    LindbladGenerator,
    PositivityLossError,
    _march,
    characteristic,
    evolve,
    propagate,
    pure_dephasing_qubit,
    record_steps,
    split_march,
)
from decoherence.measures import von_neumann_entropy
from decoherence.models import (
    CollisionalParams,
    QBMParams,
    collisional_evolve_split_step,
    collisional_generator,
    qbm_generator,
)
from decoherence.scenario import parse_config, run_scenario
from decoherence.trajectories import TrajectoryConfig, unravel

from conftest import random_density, random_hermitian

ROOT = Path(__file__).resolve().parent.parent


def full_generator(rng, dim=3):
    """A non-Hermitian H, a diagonal L, a non-diagonal L, one extra term of each
    kind, a double commutator of two diagonal operators and a sandwich with an
    identity side."""
    diag = Operator(np.diag(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    lower = Operator(np.diag(np.ones(dim - 1), k=1))
    a, b = random_hermitian(rng, dim), random_hermitian(rng, dim)
    extra = [ExtraTerm("double_comm", a, b, -0.3),
             ExtraTerm("comm_anticomm", a, b, -0.2j),
             ExtraTerm("sandwich", a, b, 0.1 + 0.05j),
             ExtraTerm("double_comm", diag, Operator(np.diag(rng.normal(size=dim))), -0.25),
             ExtraTerm("sandwich", Operator.identity(dim), b, 0.15 - 0.1j)]
    ham = random_hermitian(rng, dim) - 0.4j * random_hermitian(rng, dim)
    return LindbladGenerator(ham, [(0.7, diag), (0.4, lower)], extra_terms=extra)


def written_out(gen, rho):
    """-i (H rho - rho H^dag) + the dissipator + the extra terms, nested as written."""
    h = gen.hamiltonian.matrix
    out = -1j * (h @ rho - rho @ h.conj().T) + dissipator(gen.lindblad_ops, rho)
    for t in gen.extra_terms:
        a, b = t.a.matrix, t.b.matrix
        if t.kind == "sandwich":
            out += t.coeff * a @ rho @ b
            continue
        inner = b @ rho - rho @ b if t.kind == "double_comm" else b @ rho + rho @ b
        out += t.coeff * (a @ inner - inner @ a)
    return out


class TestApplyOnStacks:
    def test_stack_equals_per_matrix_apply(self, rng):
        gen = full_generator(rng)
        # the diagonal L and the diagonal double commutator fold into the
        # kernel, the identity-sided sandwich into G'; the other L is one
        # product, besides the 2 + 2 + 1 of the dense extra terms
        assert gen.kernel is not None and len(gen._products) == 1 + 2 + 2 + 1
        stack = np.stack([random_density(rng, 3).matrix for _ in range(6)])
        got = gen.apply(stack)
        for i in range(6):
            assert_allclose(got[i], gen.apply(stack[i]), rtol=0, atol=1e-14)

    def test_any_number_of_leading_axes(self, rng):
        gen = full_generator(rng)
        stack = np.stack([random_density(rng, 3).matrix
                          for _ in range(6)]).reshape(2, 3, 3, 3)
        got = gen.apply(stack)
        assert got.shape == stack.shape
        assert_allclose(got[1, 2], gen.apply(stack[1, 2]), rtol=0, atol=1e-14)


class TestStandardForm:
    def test_apply_equals_the_written_out_equation(self, rng):
        gen = full_generator(rng)
        assert not gen.hamiltonian.is_hermitian()
        rho = random_density(rng, 3).matrix
        stack = np.stack([random_density(rng, 3).matrix
                          for _ in range(6)]).reshape(2, 3, 3, 3)
        for m in (rho, stack):
            assert_allclose(gen.apply(m), written_out(gen, m), rtol=0, atol=1e-13)

    def test_unknown_term_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown term kind"):
            ExtraTerm("triple_comm", SIGMA_Z, SIGMA_Z, 1.0)


class TestKernel:
    def test_passed_kernel_adds_to_the_folded_one(self, rng):
        diag = Operator(np.diag(rng.normal(size=3) + 1j * rng.normal(size=3)))
        k = rng.uniform(size=(3, 3))
        k = -(k + k.T) * (1.0 - np.eye(3))
        rho = random_density(rng, 3).matrix
        gen = LindbladGenerator(None, [(0.7, diag)], kernel=k)
        want = LindbladGenerator(None, [(0.7, diag)]).apply(rho) + k * rho
        assert_allclose(gen.apply(rho), want, rtol=0, atol=1e-14)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            LindbladGenerator(None, kernel=np.zeros((2, 3)))


def dissipator(ops, rho):
    """sum kappa (L rho L^dag - {L^dag L, rho} / 2), written out."""
    out = np.zeros_like(rho)
    for rate, l in ops:
        l = l.matrix
        ldl = l.conj().T @ l
        out += rate * (l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
    return out


class TestDiagonalHamiltonian:
    @pytest.mark.parametrize("h", [
        np.zeros(3),
        np.array([0.3, -1.2, 2.0]),
        np.array([0.3 - 0.5j, -1.2 + 0.1j, 2.0]),
    ], ids=["zero", "real", "non_hermitian"])
    def test_dense_diagonal_h_folds_into_the_kernel(self, rng, h):
        ops = [(0.7, Operator(np.diag(rng.normal(size=3) + 1j * rng.normal(size=3)))),
               (0.4, Operator(np.diag(np.ones(2), k=1)))]
        ham = Operator(np.diag(h))
        gen = LindbladGenerator(ham, ops)
        # H adds nothing to G: only the non-diagonal L's no-jump part is there
        l = ops[1][1].matrix
        assert_allclose(gen._g, -0.2 * l.conj().T @ l, rtol=0, atol=1e-15)
        assert gen.hamiltonian is ham
        rho = random_density(rng, 3).matrix
        stack = np.stack([random_density(rng, 3).matrix for _ in range(4)])
        hm = ham.matrix
        for m in (rho, stack):
            want = -1j * (hm @ m - m @ hm.conj().T) + dissipator(ops, m)
            assert_allclose(gen.apply(m), want, rtol=0, atol=1e-14)

    def test_complex_potential_keeps_h_rho_minus_rho_h_dag(self, rng):
        grid = Grid1D(16, -2.0, 2.0)
        ham = GridOperator(grid.k ** 2 / 2.0, 0.5 * grid.x ** 2 - 0.2j * grid.x ** 2)
        gen = LindbladGenerator(ham)
        # V(x) folds into the kernel, E(k) into the momentum kernel
        assert gen._g is None and gen.kinetic_kernel is not None
        rho = random_density(rng, 16).matrix
        hm = ham.matrix
        assert_allclose(gen.apply(rho), -1j * (hm @ rho - rho @ hm.conj().T),
                        rtol=0, atol=1e-12)


def complex_split_march(gen, rho0, dt, n_steps, record_stride):
    """The split step on the complex rho: two complex 2-D FFTs per step."""
    e = gen.hamiltonian.kinetic
    e_col = e[-np.arange(e.size)]
    phase = np.exp(-1j * dt * np.subtract.outer(e, e_col.conj()))
    half = np.exp(-0.5j * dt * e)[:, None] * np.exp(0.5j * dt * e_col.conj())
    decay = 1.0 if gen.kernel is None else np.exp(gen.kernel * dt)
    march = _march(scipy.fft.fft2(rho0) * half,
                   lambda s: scipy.fft.fft2(scipy.fft.ifft2(s) * decay) * phase,
                   n_steps, record_stride)
    next(march)
    yield rho0
    for s in march:
        yield scipy.fft.ifft2(s / half)


class TestSplitMarch:
    GRID = Grid1D(16, -2.0, 2.0)
    SKEW = np.subtract.outer(GRID.x, GRID.x)  # x_i - x_j, not conjugate symmetric

    def rho0(self):
        return self.GRID.gaussian_packet(0.0, 0.6).density().matrix

    @pytest.mark.parametrize("gen", [
        LindbladGenerator(GRID.kinetic_hamiltonian(1.0),
                          extra_terms=[ExtraTerm("comm_anticomm", GRID.position_operator(),
                                                 GRID.momentum_operator(), -0.1j)]),
        LindbladGenerator(GRID.kinetic_hamiltonian(1.0),
                          [(0.3, Operator(np.diag(np.ones(15), k=1)))]),
        LindbladGenerator(Operator(GRID.kinetic_hamiltonian(1.0).matrix),
                          [(0.3, GRID.position_operator())]),
        LindbladGenerator(GRID.kinetic_hamiltonian(1.0), kernel=-0.5 * SKEW ** 2 + 0.3 * SKEW),
    ], ids=["extra_term", "non_diagonal_lindblad", "dense_hamiltonian",
            "non_hermitian_kernel"])
    def test_rejects_what_it_cannot_split(self, gen):
        assert not gen.splits
        with pytest.raises(ValueError, match="split step"):
            next(split_march(gen, self.rho0(), 0.01, 4, 1))

    def test_non_hermitian_kernel_fails_positivity_through_propagate(self):
        gen = LindbladGenerator(self.GRID.kinetic_hamiltonian(1.0),
                                kernel=-0.5 * self.SKEW ** 2 + 0.3 * self.SKEW)
        rho0 = self.GRID.gaussian_packet(0.0, 0.6).density()
        with pytest.raises(PositivityLossError):
            propagate(gen, rho0, IntegratorConfig(1e-2, 0.5, 10))

    def test_rejects_a_non_hermitian_state(self):
        gen = collisional_generator(CollisionalParams(Lambda=0.5), self.GRID)
        rho0 = self.rho0().copy()
        rho0[0, 1] += 1e-3
        with pytest.raises(ValueError, match="Hermitian rho0"):
            next(split_march(gen, rho0, 0.01, 4, 1))

    @pytest.mark.parametrize("n", [16, 15], ids=["even_n", "odd_n"])
    @pytest.mark.parametrize("odd_part", [0.0, 0.7], ids=["even_e", "non_even_e"])
    @pytest.mark.parametrize("potential", [None, 0.5, 0.5 - 0.2j],
                             ids=["no_v", "real_v", "complex_v"])
    @pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_kernel", "kernel"])
    def test_matches_the_complex_step(self, rng, n, odd_part, potential, rate):
        grid = Grid1D(n, -2.0, 2.0)
        v = None if potential is None else potential * grid.x ** 2
        ham = GridOperator(grid.k ** 2 / 2.0 + odd_part * grid.k, v)
        ops = [(rate, grid.position_operator())] if rate else []
        gen = LindbladGenerator(ham, ops)
        assert gen.splits and (gen.kernel is None) == (v is None and not rate)
        rho0 = random_density(rng, n).matrix
        got = list(split_march(gen, rho0, 0.05, 12, 5))
        want = list(complex_split_march(gen, rho0, 0.05, 12, 5))
        assert len(got) == len(want) == len(record_steps(12, 5))  # steps 0, 5, 10, 12
        for r, w in zip(got, want):
            assert_allclose(r, w, rtol=0, atol=1e-13)
            assert np.array_equal(r, r.conj().T)

    def test_one_complex_transform_each_way_per_step(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(scipy.fft, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper
        for name in ("fft2", "ifft2", "fftn", "ifftn", "fft", "ifft",
                     "rfft2", "irfft2", "rfftn", "irfftn", "rfft", "irfft"):
            monkeypatch.setattr(scipy.fft, name, counted(name))
        gen = collisional_generator(CollisionalParams(Lambda=0.5), self.GRID)
        # the start and the one record add one transform each way
        list(split_march(gen, self.rho0(), 0.01, 10, 10))
        assert sorted(calls) == ["fft2"] * 11 + ["ifft2"] * 11

    def test_dense_diagonal_hamiltonian_is_split_exactly(self, rng):
        # a dense diagonal H folds into the kernel, so the step is exp(K dt)
        ham = Operator(np.diag([0.3, -1.2, 2.0, 0.5]))
        gen = LindbladGenerator(ham, [(0.4, Operator(np.diag([1.0, 0.0, -1.0, 2.0])))])
        rho0 = random_density(rng, 4).matrix
        mats = split_march(gen, rho0, 0.01, 50, 10)
        s = gen.superoperator()
        for t, got in zip(IntegratorConfig(0.01, 0.5, 10).record_times(), mats, strict=True):
            want = (scipy.linalg.expm(s * t) @ rho0.reshape(-1)).reshape(4, 4)
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_potential_matches_rk4(self):
        # H = p^2/2 + x^2/2 with a diagonal Lindblad operator: the potential
        # is folded into the kernel as -i (V_i - V_j)
        grid = Grid1D(48, -6.0, 6.0)
        h = Operator(grid.kinetic_hamiltonian(1.0).matrix + np.diag(0.5 * grid.x ** 2))
        h_grid = GridOperator(grid.k ** 2 / 2.0, 0.5 * grid.x ** 2)
        x = grid.position_operator()
        rho0 = grid.two_packet_cat(1.0, 0.5).density()
        mats = split_march(LindbladGenerator(h_grid, [(0.4, x)]), rho0.matrix, 1e-3, 300, 100)
        res = evolve(LindbladGenerator(h, [(0.4, x)]), rho0,
                     IntegratorConfig(dt=1e-3, t_final=0.3, record_stride=100))
        assert len(res.states) == 4
        for got, want in zip(mats, res.states, strict=True):
            assert np.max(np.abs(got - want.matrix)) < 5e-6


class TestRecordSchedule:
    # 33 steps at stride 7: every 7th step plus the last, off the stride
    DT, T_FINAL, STRIDE = 0.01, 0.33, 7
    WANT = np.array([0, 7, 14, 21, 28, 33], dtype=float) * DT

    def test_schedule(self):
        assert record_steps(33, 7) == [0, 7, 14, 21, 28, 33]
        assert record_steps(4, 1) == [0, 1, 2, 3, 4]
        assert record_steps(4, 9) == [0, 4]

    def test_schedule_is_arithmetic(self):
        for n in range(61):
            for stride in range(1, 14):
                scan = [k for k in range(n + 1) if k % stride == 0 or k == n]
                assert record_steps(n, stride) == scan
        # no scan over the steps: a trillion steps list their 11 records at once
        assert record_steps(10 ** 12, 10 ** 11) == [k * 10 ** 11 for k in range(11)]

    def test_evolve(self):
        gen = LindbladGenerator(None, [(0.5, SIGMA_Z)])
        res = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(self.DT, self.T_FINAL, self.STRIDE))
        assert np.array_equal(res.times, self.WANT)
        assert len(res.states) == self.WANT.size

    def test_unravel(self):
        gen = LindbladGenerator(None, [(0.5, SIGMA_Z)])
        ens = unravel(gen, KET_PLUS.density(),
                      TrajectoryConfig(3, self.DT, self.T_FINAL, seed=1,
                                       record_stride=self.STRIDE))
        assert np.array_equal(ens.times, self.WANT)
        assert ens.conditioned_states.shape[1] == self.WANT.size

    def test_split_step(self):
        grid = Grid1D(16, -2.0, 2.0)
        times, mats = collisional_evolve_split_step(
            CollisionalParams(Lambda=0.5), grid, grid.gaussian_packet(0.0, 0.6),
            self.DT, 33, record_stride=self.STRIDE)
        assert np.array_equal(times, self.WANT)
        assert len(mats) == self.WANT.size

    def test_march_yields_one_state_per_record(self):
        # the state counts the steps taken before each record
        got = list(_march(0, lambda count: count + 1, 33, self.STRIDE))
        assert got == [0, 7, 14, 21, 28, 33]

    def test_split_march_yields_one_matrix_per_record(self):
        # the momentum-space step and the kernel-only step
        grid = Grid1D(16, -2.0, 2.0)
        for gen, rho0 in ((collisional_generator(CollisionalParams(Lambda=0.5), grid),
                           grid.gaussian_packet(0.0, 0.6).density().matrix),
                          (pure_dephasing_qubit(0.5), KET_PLUS.density().matrix)):
            mats = list(split_march(gen, rho0, self.DT, 33, self.STRIDE))
            assert len(mats) == self.WANT.size and mats[0] is rho0

    @pytest.mark.parametrize("evolver", ["split_step", "exact", "rk4"])
    def test_a_failing_record_names_its_time(self, evolver):
        # d rho / dt = -c rho drifts the trace by c t: 7e-8 at the first
        # record, t = 0.07, within TRACE_DRIFT_TOL, and 1.4e-7 at the second
        one = Operator.identity(2)
        leak = [ExtraTerm("sandwich", one, one, -1e-6)]
        gen = LindbladGenerator(None if evolver == "split_step" else SIGMA_X,
                                extra_terms=leak)
        assert gen.splits == (evolver == "split_step")
        run = evolve if evolver == "rk4" else propagate
        with pytest.raises(PositivityLossError, match=r"trace drifted by .* at t=0\.14;"):
            run(gen, KET_PLUS.density(), IntegratorConfig(self.DT, self.T_FINAL, self.STRIDE))

    @pytest.mark.parametrize("model, params, state", [
        ("spin_spin", "n_spins = 4\ncoupling_scale = 1.0",
         "kind = qubit_bloch\ntheta = 1.5707963267948966"),
        ("cavity_cat", "damping_time = 0.13", "kind = cat\nalpha = 2.0\nchi = 1.0"),
        ("custom_lindblad", "dim = 2\nhamiltonian = 0, 0, 0, 0\n"
                            "lindblad_1 = 1, 0, 0, -1\nrate_1 = 0.5",
         "kind = qubit_bloch\ntheta = 1.5707963267948966"),
    ])
    def test_scenario_runners(self, tmp_path, model, params, state):
        cfg = parse_config(f"""
[scenario]
name = sched
model = {model}

[params]
{params}

[initial_state]
{state}

[integrator]
dt = {self.DT}
t_final = {self.T_FINAL}
record_stride = {self.STRIDE}

[outputs]
quantities = coherence_magnitude{", mutual_information" if model == "spin_spin" else ""}
""")
        run_scenario(cfg, out_dir=tmp_path)
        with open(tmp_path / "sched_timeseries.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert np.array_equal([float(row["t"]) for row in rows], self.WANT)
        if model == "spin_spin":
            assert all(float(row["mutual_information"]) >= 0.0 for row in rows)


@pytest.fixture
def eig_calls(monkeypatch):
    """The names of the numpy.linalg eigensolvers called, in order."""
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestSingleValidationPass:
    def test_one_eigendecomposition_per_recorded_state(self, rng, eig_calls):
        # a mixed qubit state and a pure grid state, whose round-off
        # negative eigenvalues take the clamp path
        grid = Grid1D(16, -2.0, 2.0)
        cases = [
            (LindbladGenerator(random_hermitian(rng, 2), [(0.3, SIGMA_Z)]),
             random_density(rng, 2), IntegratorConfig(1e-2, 0.5, 5)),
            (collisional_generator(CollisionalParams(Lambda=0.5), grid),
             grid.gaussian_packet(0.0, 0.6).density(), IntegratorConfig(1e-3, 0.02, 4)),
        ]
        for gen, rho0, cfg in cases:
            eig_calls.clear()
            res = evolve(gen, rho0, cfg)
            # the initial state is validated when it is built, not again
            assert eig_calls == ["eigh"] * (len(res.states) - 1)

    def test_certified_step_decomposes_once_per_run(self, rng, eig_calls):
        grid = Grid1D(16, -2.0, 2.0)
        cases = [
            (collisional_generator(CollisionalParams(Lambda=0.5), grid),
             grid.gaussian_packet(0.0, 0.6).density(), "split_step"),
            (LindbladGenerator(random_hermitian(rng, 2), [(0.3, SIGMA_Z)]),
             random_density(rng, 2), "exact"),
        ]
        for gen, rho0, evolver in cases:
            eig_calls.clear()
            res = propagate(gen, rho0, IntegratorConfig(1e-3, 0.02, 4))
            # the certificate; each record then has its trace checked only
            assert res.evolver == evolver and eig_calls == ["eigvalsh"]

    def test_characteristic_route_decomposes_nothing(self, eig_calls):
        grid = Grid1D(48, -6.0, 6.0)
        gen = collisional_generator(CollisionalParams(Lambda=0.5), grid)
        res = propagate(gen, grid.two_packet_cat(1.5, 0.5).density(),
                        IntegratorConfig(0.05, 1.0, 4))
        assert res.evolver == "characteristic" and eig_calls == []
        for m in res.matrices:
            assert np.array_equal(m, m.conj().T)
            assert np.linalg.eigvalsh(m)[0] >= -1e-12

    def test_rk4_entropy_takes_the_validation_spectrum(self, tmp_path, monkeypatch, eig_calls):
        # RK4 records of the qbm_packet generator, tabulated as a scenario does
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        from decoherence import scenario
        cfg = parse_config(workloads.Scenarios(ROOT, 1, tmp_path).generated()["qbm_packet"])
        grid = Grid1D(cfg.grid["n_points"], cfg.grid["x_min"], cfg.grid["x_max"])
        gen = scenario._generator(cfg, grid)
        rho0 = grid.gaussian_packet(0.5, 1.0).density()
        eig_calls.clear()
        res = evolve(gen, rho0, IntegratorConfig(0.01, 0.1, 5))
        scenario._tabulate(res.states, ("entropy",))
        # one eigh per record after the first; eigvalsh only for the pure rho0
        assert eig_calls == ["eigh", "eigh", "eigvalsh"]

    def test_state_keeps_its_clamped_spectrum(self):
        # eigenvalues -5e-10 and 1 + 5e-10: clamped to (0, 1) and renormalized
        rho = DensityMatrix(np.diag([1.0 + 5e-10, -5e-10]))
        assert np.array_equal(rho.eigenvalues, [0.0, 1.0])
        assert von_neumann_entropy(rho) == 0.0


class TestRecordContract:
    """Every evolver and runner hands its records over as DensityMatrix: an
    uncertified record is validated by one eigh, a certified one by none."""

    @staticmethod
    def routes(rng):
        """(generator, rho0, config) of each route propagate can take."""
        small, wide = Grid1D(16, -2.0, 2.0), Grid1D(48, -6.0, 6.0)
        scattering = CollisionalParams(Lambda=0.5)
        bath = BornMarkovCoefficients(omega_shift_sq=-0.5, gamma=0.1, D=0.9, f=-0.2,
                                      quadrature_error=0.0)
        return {
            "characteristic": (collisional_generator(scattering, wide),
                               wide.two_packet_cat(1.5, 0.5).density(),
                               IntegratorConfig(0.05, 1.0, 4)),
            "gaussian": (qbm_generator(QBMParams(1.0, 1.0, 0.1, 5.0, 5.0), wide,
                                       coefficients=bath),
                         wide.gaussian_packet(0.3, 0.8, 0.5).density(),
                         IntegratorConfig(0.05, 0.5, 2)),
            "split_step": (collisional_generator(scattering, small),
                           small.gaussian_packet(0.0, 0.6).density(),
                           IntegratorConfig(1e-3, 0.02, 4)),
            "exact": (LindbladGenerator(random_hermitian(rng, 2), [(0.3, SIGMA_Z)]),
                      random_density(rng, 2), IntegratorConfig(1e-3, 0.02, 4)),
            "rk4": (LindbladGenerator(random_hermitian(rng, 17),
                                      [(0.3, Operator(np.diag(np.ones(16), k=1)))]),
                    random_density(rng, 17), IntegratorConfig(1e-3, 0.02, 5)),
        }

    @pytest.mark.parametrize("evolver", ["characteristic", "gaussian", "split_step", "exact",
                                         "rk4"])
    def test_every_route_records_density_matrices(self, rng, eig_calls, evolver):
        gen, rho0, cfg = self.routes(rng)[evolver]
        eig_calls.clear()
        res = propagate(gen, rho0, cfg)
        states = res.states  # read before counting: nothing is validated late
        assert res.evolver == evolver and len(states) == len(res.times)
        assert states[0] is rho0
        for i, state in enumerate(states):
            assert isinstance(state, DensityMatrix)
            assert res.matrices[i] is state.matrix
            assert not state.matrix.flags.writeable
        certified = evolver != "rk4"
        assert eig_calls.count("eigh") == (0 if certified else len(states) - 1)
        for state in states[1:]:
            assert (state.eigenvalues is None) == certified

    @pytest.mark.parametrize("evolver", ["characteristic", "gaussian", "split_step", "exact",
                                         "rk4"])
    def test_every_route_records_on_the_schedule(self, rng, evolver):
        gen, rho0, cfg = self.routes(rng)[evolver]
        # a stride that does not divide the step count: the last record is off it
        cfg = dataclasses.replace(cfg, record_stride=3)
        assert cfg.n_steps % 3
        res = propagate(gen, rho0, cfg)
        assert res.evolver == evolver
        assert np.array_equal(res.times, cfg.record_times())
        assert len(res.states) == len(res.times)

    @pytest.mark.parametrize("model, params, state", [
        ("spin_spin", "n_spins = 4\ncoupling_scale = 1.0",
         "kind = qubit_bloch\ntheta = 1.2\nphi = 0.3"),
        ("cavity_cat", "damping_time = 0.13", "kind = cat\nalpha = 2.0\nchi = 1.0"),
    ])
    def test_qubit_runners_record_certified_states(self, tmp_path, monkeypatch, eig_calls,
                                                  model, params, state):
        from decoherence import scenario
        seen = []

        def tabulate(records, quantities):
            seen.append(records)
            return tabulated(records, quantities)

        tabulated = scenario._tabulate
        monkeypatch.setattr(scenario, "_tabulate", tabulate)
        cfg = parse_config(f"""
[scenario]
name = records
model = {model}

[params]
{params}

[initial_state]
{state}

[integrator]
dt = 0.01
t_final = 0.2

[outputs]
quantities = coherence_magnitude, purity, entropy
""")
        run_scenario(cfg, out_dir=tmp_path)
        (records,) = seen
        assert len(records) == 21 and "eigh" not in eig_calls
        for r in records:
            assert isinstance(r, DensityMatrix) and r.eigenvalues is None
            assert np.array_equal(r.matrix, r.matrix.conj().T)
            assert np.trace(r.matrix) == pytest.approx(1.0, abs=1e-15)
            assert abs(r.matrix[0, 1]) <= np.sqrt(np.prod(np.diag(r.matrix).real))


class TestCharacteristic:
    """Free motion under K = -Lambda (x - x')^2: every record straight from rho0."""

    @staticmethod
    def shipped():
        cfg = parse_config((ROOT / "scenarios" / "two_packet_collisional.cfg").read_text())
        p, g, st = cfg.params, cfg.grid, cfg.initial_state
        grid = Grid1D(g["n_points"], g["x_min"], g["x_max"])
        gen = collisional_generator(CollisionalParams(Lambda=p["lambda"], mass=p["mass"]), grid)
        return (gen, grid.two_packet_cat(st["x0"], st["sigma"]).density(),
                IntegratorConfig(**cfg.integrator))

    def test_matches_the_exponential_oracle(self):
        grid = Grid1D(48, -6.0, 6.0)
        gen = collisional_generator(CollisionalParams(Lambda=0.5, mass=1.0), grid)
        rho0 = grid.gaussian_packet(0.0, 0.5).density()
        res = propagate(gen, rho0, IntegratorConfig(0.5, 0.5))
        assert res.evolver == "characteristic"
        # expm(L t) rho0 by its action, not the 2304^2 matrix; the split step
        # at dt = 0.01 is 6e-7 away
        want = expm_multiply(gen.superoperator() * 0.5, rho0.matrix.reshape(-1))
        assert np.max(np.abs(res.matrices[-1] - want.reshape(48, 48))) < 1e-10

    def test_shipped_file_is_the_small_step_limit_of_the_split_step(self):
        gen, rho0, cfg = self.shipped()
        res = propagate(gen, rho0, cfg)
        assert res.evolver == "characteristic"
        for refine, tol in ((1, 1e-10), (10, 1e-11)):
            march = split_march(gen, rho0.matrix, cfg.dt / refine, refine * cfg.n_steps,
                                refine * cfg.record_stride)
            for got, want in zip(res.matrices, march, strict=True):
                assert np.max(np.abs(got - want)) < tol

    @pytest.mark.parametrize("case", ["position_edge", "momentum_edge", "short_wavelength",
                                      "potential", "anti_scattering"])
    def test_anything_else_keeps_the_split_step(self, case):
        grid = Grid1D(48, -6.0, 6.0)
        kernel = collisional_generator(CollisionalParams(Lambda=0.5), grid).kernel
        h, rho0 = grid.kinetic_hamiltonian(1.0), grid.gaussian_packet(0.0, 0.5).density()
        if case == "position_edge":  # the 16-point state of the split-step tests
            grid = Grid1D(16, -2.0, 2.0)
            kernel = collisional_generator(CollisionalParams(Lambda=0.5), grid).kernel
            h, rho0 = grid.kinetic_hamiltonian(1.0), grid.gaussian_packet(0.0, 0.6).density()
        elif case == "momentum_edge":  # a width of under one point
            rho0 = grid.gaussian_packet(0.0, 0.1).density()
        elif case == "short_wavelength":
            kernel = -0.5 * (1.0 - np.eye(48))
        elif case == "potential":
            h = GridOperator(h.kinetic, 0.1 * grid.x ** 2)
        else:
            kernel = -kernel
        gen = LindbladGenerator(h, kernel=kernel)
        cfg = IntegratorConfig(1e-2, 0.02)
        assert gen.splits and characteristic(gen, rho0.matrix, cfg.record_times()) is None
        if case != "anti_scattering":  # which loses positivity at once
            assert propagate(gen, rho0, cfg).evolver == "split_step"


class TestPropagate:
    """propagate picks split step, exact propagator or RK4 from the generator."""

    @staticmethod
    def oracle(gen, rho0, t):
        s = gen.superoperator()
        return (scipy.linalg.expm(s * t) @ rho0.matrix.reshape(-1)).reshape(rho0.dim, -1)

    def test_split_step_matches_the_exponential_oracle(self):
        grid = Grid1D(16, -2.0, 2.0)
        gen = collisional_generator(CollisionalParams(Lambda=0.5), grid)
        rho0 = grid.gaussian_packet(0.0, 0.6).density()
        res = propagate(gen, rho0, IntegratorConfig(1e-2, 0.5, 10))
        assert res.evolver == "split_step"
        for t, got in zip(res.times, res.matrices):
            # Strang splitting of the kinetic term: an O(dt^2) error
            assert np.max(np.abs(got - self.oracle(gen, rho0, t))) < 1e-5

    def test_exact_step_matches_the_oracle_and_rk4(self, rng):
        diag = Operator(np.diag(rng.normal(size=3) + 1j * rng.normal(size=3)))
        gen = LindbladGenerator(random_hermitian(rng, 3),
                                [(0.7, diag), (0.4, Operator(np.diag(np.ones(2), k=1)))])
        rho0 = random_density(rng, 3)
        cfg = IntegratorConfig(1e-2, 0.5, 10)
        res, rk4 = propagate(gen, rho0, cfg), evolve(gen, rho0, cfg)
        assert res.evolver == "exact"
        for t, got, want in zip(res.times, res.matrices, rk4.states):
            assert_allclose(got, self.oracle(gen, rho0, t), rtol=0, atol=1e-13)
            assert_allclose(got, want.matrix, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("dim, evolver", [(16, "exact"), (17, "rk4")])
    def test_rk4_above_the_exact_size(self, rng, monkeypatch, dim, evolver):
        gen = LindbladGenerator(random_hermitian(rng, dim),
                                [(0.3, Operator(np.diag(np.ones(dim - 1), k=1)))])
        rho0 = random_density(rng, dim)
        cfg = IntegratorConfig(1e-3, 0.02, 5)
        rk4 = evolve(gen, rho0, cfg)
        if dim > 16:
            def refuse(self):
                raise AssertionError("superoperator built above the exact size")
            monkeypatch.setattr(LindbladGenerator, "superoperator", refuse)
        res = propagate(gen, rho0, cfg)
        assert res.evolver == evolver
        for got, want in zip(res.states, rk4.states):
            assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-10)

    def test_non_positive_split_factor_raises(self):
        # exp(K dt) of K = [[0, 1], [1, 0]] has the eigenvalue 1 - e^dt < 0
        gen = LindbladGenerator(None, kernel=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PositivityLossError, match="negative eigenvalue"):
            propagate(gen, KET_PLUS.density(), IntegratorConfig(1e-2, 1.0))

    def test_only_rk4_blames_its_stability_limit(self):
        # anti-dephasing beyond the sigma_z dephasing: not completely
        # positive, with dt * max|K| = 4 past RK4's limit
        gen = LindbladGenerator(None, [(20.0, SIGMA_Z)],
                                extra_terms=[ExtraTerm("double_comm", SIGMA_Z, SIGMA_Z, 20.0)])
        cfg = IntegratorConfig(0.1, 1.0)
        with pytest.raises(PositivityLossError, match="RK4's stability limit"):
            evolve(gen, KET_PLUS.density(), cfg)
        with pytest.raises(PositivityLossError) as exc:
            propagate(gen, KET_PLUS.density(), cfg)
        assert "negative eigenvalue" in str(exc.value)
        assert "stability limit" not in str(exc.value)

    @pytest.mark.parametrize("name, evolver", [
        ("two_packet_collisional", "characteristic"),
        ("dephasing_qubit", "split_step"),
        ("sw_twin", "split_step"),
        ("qbm_packet", "gaussian"),
        ("traj_qubit", "split_step"),
    ])
    def test_benchmark_scenarios_record_their_evolver(self, tmp_path, monkeypatch,
                                                      name, evolver):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads
        texts = workloads.Scenarios(ROOT, 1, tmp_path).generated()
        text = texts.get(name) or (ROOT / "scenarios" / f"{name}.cfg").read_text()
        cfg = parse_config(text)
        # the choice depends on the generator alone: four steps decide it
        cfg.integrator = {"dt": cfg.integrator["dt"], "t_final": 4 * cfg.integrator["dt"],
                          "record_stride": 1}
        cfg.outputs = {**cfg.outputs, "fit": "none", "wigner_times": ()}
        summary = run_scenario(cfg, out_dir=tmp_path)
        assert summary["model_info"]["evolver"] == evolver


class TestSameRejectionOnBothPaths:
    def test_non_hermitian_hamiltonian(self):
        gen = LindbladGenerator(Operator([[0, 0.05], [0, 0]]), [(0.5, SIGMA_Z)])
        with pytest.raises(PositivityLossError):
            evolve(gen, KET_PLUS.density(), IntegratorConfig(1e-3, 1.0, 100))
        # its exact step is completely positive, but does not keep the trace
        with pytest.raises(PositivityLossError, match="trace drifted"):
            propagate(gen, KET_PLUS.density(), IntegratorConfig(1e-3, 1.0, 100))
        with pytest.raises(ValueError, match="Hermitian Hamiltonian"):
            unravel(gen, KET_PLUS.density(),
                    TrajectoryConfig(4, dt=1e-3, t_final=0.1, seed=1))

    def test_state_of_the_wrong_dimension(self):
        gen = pure_dephasing_qubit(0.1)
        for rho0 in (DensityMatrix([[1.0]]), DensityMatrix.maximally_mixed(3)):
            for evolver in (evolve, propagate):
                with pytest.raises(ValueError, match="state dimension does not match"):
                    evolver(gen, rho0, IntegratorConfig(1e-3, 0.01))
            with pytest.raises(ValueError, match="state dimension does not match"):
                unravel(gen, rho0, TrajectoryConfig(4, dt=1e-3, t_final=0.01, seed=1))


def _load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """numpy.linalg plus every decoherence module and class namespace."""
    spaces = {"numpy.linalg": vars(np.linalg)}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "decoherence" or name.startswith("decoherence.")):
            continue
        spaces[name] = vars(mod)
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                spaces[f"{name}.{attr}"] = vars(value)
    return spaces


def _snapshot() -> dict:
    return {(space, attr): value for space, ns in _namespaces().items()
            for attr, value in ns.items()}


class TestBenchmarkHooks:
    def test_instrument_patches_its_hooks_and_restores_them(self):
        """The benchmark's tracer wraps these entry points by name; a
        renamed or removed one fails here rather than in a traced run."""
        tracing = _load_tracing()
        before = _snapshot()
        with tracing.instrument(tracing.Tracer()):
            during = _snapshot()
        after = _snapshot()

        patched = {key for key, value in during.items() if before.get(key) is not value}
        for hook in [("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
                     ("decoherence.core.DensityMatrix", "__init__"),
                     ("decoherence.lindblad", "evolve"),
                     ("decoherence.lindblad.LindbladGenerator", "apply"),
                     ("decoherence.lindblad", "quad"),
                     ("decoherence.lindblad", "born_markov_coefficients"),
                     ("decoherence.models.collisional", "collisional_evolve_split_step"),
                     ("decoherence.models.spin_boson", "quad"),
                     ("decoherence.models.spin_boson", "spin_boson_dephasing_strength"),
                     ("decoherence.trajectories", "unravel"),
                     ("decoherence.trajectories", "ensemble_statistics"),
                     ("decoherence.scenario", "run_scenario"),
                     ("decoherence.scenario", "_write_csv"),
                     ("decoherence.scenario", "json"),
                     ("decoherence.measures.WignerField", "to_csv")]:
            assert hook in patched
        assert after.keys() == before.keys()
        assert [key for key in before if after[key] is not before[key]] == []
