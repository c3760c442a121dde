import numpy as np
import pytest

from decoherence.core import (
    DensityMatrix,
    Grid1D,
    KET_MINUS,
    KET_PLUS,
    Operator,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    bloch_state,
)
from decoherence.lindblad import IntegratorConfig, evolve, pure_dephasing_qubit
from decoherence.measures import (
    _momentum_marginal_error,
    pointer_commutator_residual,
    predictability_sieve,
    purity,
    quantum_mutual_information,
    von_neumann_entropy,
    wigner,
)

from conftest import random_density, random_state


class TestPurityEntropy:
    def test_pure_state_extremes(self, rng):
        rho = random_state(rng, 4).density()
        assert purity(rho) == pytest.approx(1.0)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_extremes(self):
        rho = DensityMatrix.maximally_mixed(8)
        assert purity(rho) == pytest.approx(1.0 / 8.0)
        assert von_neumann_entropy(rho) == pytest.approx(3.0)

    def test_two_level_mixture_values(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert purity(rho) == pytest.approx(0.625)
        want = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-12)
        assert von_neumann_entropy(rho) == pytest.approx(0.8113, abs=1e-4)

    def test_opposite_monotonicity_under_dephasing(self):
        gen = pure_dephasing_qubit(0.4)
        res = evolve(gen, KET_PLUS.density(),
                     IntegratorConfig(dt=1e-3, t_final=1.5, record_stride=100))
        purities = [purity(s) for s in res.states]
        entropies = [von_neumann_entropy(s) for s in res.states]
        assert all(b <= a + 1e-10 for a, b in zip(purities, purities[1:]))
        assert all(b >= a - 1e-10 for a, b in zip(entropies, entropies[1:]))


class TestMutualInformation:
    def test_product_state_carries_none(self, rng):
        joint = DensityMatrix(np.kron(random_density(rng, 2).matrix,
                                      random_density(rng, 3).matrix))
        assert quantum_mutual_information(joint, (2, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_carries_two_bits(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2)).density()
        assert quantum_mutual_information(bell, (2, 2)) == pytest.approx(2.0, abs=1e-10)

    def test_perfectly_correlated_branches_give_two_bits(self):
        # balanced superposition recorded by orthogonal environment states
        psi = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])) / np.sqrt(2)
        rho = StateVector(psi).density()
        assert quantum_mutual_information(rho, (2, 2)) == pytest.approx(2.0, abs=1e-10)

    def test_bounds_on_random_states(self, rng):
        for _ in range(10):
            rho = random_density(rng, 6, rank=2)
            mi = quantum_mutual_information(rho, (2, 3))
            assert mi > -1e-9
            assert mi <= 2.0 * min(1.0, np.log2(3)) + 1e-9


class TestWigner:
    def gaussian_rho(self, grid, x0=0.0, sigma=0.7, k0=0.0):
        return grid.gaussian_packet(x0, sigma, k0).density()

    def test_ground_state_gaussian_is_nonnegative(self):
        grid = Grid1D(128, -8.0, 8.0)
        field = wigner(self.gaussian_rho(grid), grid)
        assert field.normalization() == pytest.approx(1.0, abs=1e-9)
        assert np.min(field.values) > -1e-12

    def test_marginals_match(self):
        grid = Grid1D(128, -8.0, 8.0)
        rho = self.gaussian_rho(grid, x0=1.0, sigma=0.5, k0=2.0)
        field = wigner(rho, grid)
        pos = field.position_marginal()
        want = np.real(np.diag(rho.matrix)) / grid.dx
        assert np.max(np.abs(pos - want)) < 1e-4
        assert field.normalization() == pytest.approx(1.0, abs=1e-4)

    def test_cat_state_ridge_wavelength(self):
        # midpoint oscillation wavelength 2 pi / separation
        grid = Grid1D(256, -10.0, 10.0)
        x0, sigma = 2.0, 0.5
        rho = grid.two_packet_cat(x0, sigma).density()
        field = wigner(rho, grid)
        mid = int(np.argmin(np.abs(field.x)))
        ridge = field.values[mid, :]
        # wavelength from the dominant nonzero frequency of the ridge
        dp = field.p[1] - field.p[0]
        spec = np.abs(np.fft.rfft(ridge))
        freqs = np.fft.rfftfreq(ridge.size, d=dp)
        peak = freqs[1 + int(np.argmax(spec[1:]))]
        wavelength = 1.0 / peak
        assert wavelength == pytest.approx(2.0 * np.pi / (2.0 * x0), rel=0.05)

    def test_incoherent_mixture_has_no_ridge(self):
        grid = Grid1D(256, -10.0, 10.0)
        x0, sigma = 2.0, 0.5
        cat = grid.two_packet_cat(x0, sigma).density()
        a = grid.gaussian_packet(+x0, sigma).density().matrix
        b = grid.gaussian_packet(-x0, sigma).density().matrix
        mix = DensityMatrix(0.5 * (a + b))
        f_cat = wigner(cat, grid)
        f_mix = wigner(mix, grid)
        mid = int(np.argmin(np.abs(f_cat.x)))
        peak = np.max(np.abs(f_cat.values))
        assert np.max(np.abs(f_cat.values[mid, :])) > 0.3 * peak
        assert np.max(np.abs(f_mix.values[mid, :])) < 0.05 * np.max(np.abs(f_mix.values))

    def test_aliasing_detected_via_marginal_mismatch(self):
        # a packet boosted near the grid's momentum limit cannot be
        # represented on the halved reciprocal lattice: the momentum
        # marginal disagrees and the transform refuses
        grid = Grid1D(16, -8.0, 8.0)
        rho = grid.gaussian_packet(0.0, 1.2, k0=2.5).density()
        with pytest.raises(ValueError, match="aliasing"):
            wigner(rho, grid)

    def test_momentum_marginal_error_equals_the_dense_dft_reference(self):
        # the reference is the dense product diag(F m F^dag) the FFT replaced
        grid = Grid1D(64, -8.0, 8.0)
        m = grid.gaussian_packet(1.0, 0.7, k0=1.5).density().matrix
        field = wigner(m, grid)
        f = np.fft.fft(np.eye(64), axis=0)
        mom = np.real(np.diag(f @ m @ f.conj().T)) * grid.dx / (2.0 * np.pi)
        order = np.argsort(grid.k)
        want_interp = np.interp(grid.k[order], -field.p[::-1],
                                field.momentum_marginal()[::-1])
        want = np.max(np.abs(want_interp - mom[order])) / np.max(mom[order])
        assert _momentum_marginal_error(field, m, grid) == pytest.approx(want, rel=1e-9)

    def test_csv_export_round_trips(self, tmp_path):
        grid = Grid1D(16, -2.0, 2.0)
        field = wigner(self.gaussian_rho(grid, sigma=0.5), grid)
        path = tmp_path / "w.csv"
        field.to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert rows[0] == "x,p,w"
        assert len(rows) == 1 + field.values.size
        x, p, w = (float(v) for v in rows[1].split(","))
        assert x == field.x[0] and p == field.p[0]
        assert w == field.values[0, 0]


class TestPointerResidual:
    def test_commuting_pair_certifies_pointer_observable(self):
        assert pointer_commutator_residual(SIGMA_Z, SIGMA_Z) == 0.0

    def test_conjugate_pair_value(self):
        # [sx, sz] = -2 i sy has Frobenius norm 2 sqrt(2)
        assert pointer_commutator_residual(SIGMA_X, SIGMA_Z) == \
            pytest.approx(2.0 * np.sqrt(2.0))

    def test_projector_onto_common_eigenvector_commutes_with_family(self, rng):
        # a commuting family shares eigenvectors; the projector onto one of
        # them has zero residual with every member
        d = rng.normal(size=4)
        basis = np.linalg.qr(rng.normal(size=(4, 4))
                             + 1j * rng.normal(size=(4, 4)))[0]
        family = [Operator(basis @ np.diag(rng.permutation(d)) @ basis.conj().T)
                  for _ in range(3)]
        proj = Operator(np.outer(basis[:, 1], basis[:, 1].conj()))
        for s in family:
            assert pointer_commutator_residual(proj, s) < 1e-12


class TestPredictabilitySieve:
    def test_dephasing_pointer_states_score_perfectly(self):
        gen = pure_dephasing_qubit(0.5)
        candidates = [KET_PLUS, StateVector([1, 0]), StateVector([0, 1]), KET_MINUS]
        report = predictability_sieve(gen, candidates, horizon=1.0, dt=1e-2)
        assert report.scores[1] == pytest.approx(1.0, abs=1e-8)
        assert report.scores[2] == pytest.approx(1.0, abs=1e-8)
        # computational states outrank the superpositions
        assert set(report.ranking[:2]) == {1, 2}
        assert report.scores[0] < 1.0 and report.scores[3] < 1.0

    def test_zero_generator_preserves_input_order(self):
        gen = pure_dephasing_qubit(0.0)
        candidates = [bloch_state(0.3, 0.1), bloch_state(1.0, 2.0),
                      bloch_state(2.0, 0.5)]
        report = predictability_sieve(gen, candidates, horizon=0.5, dt=1e-2)
        assert report.ranking == (0, 1, 2)
        assert all(s == pytest.approx(1.0, abs=1e-9) for s in report.scores)

    def test_entropy_score_agrees_with_purity_ranking(self):
        gen = pure_dephasing_qubit(0.5)
        candidates = [KET_PLUS, StateVector([1, 0])]
        by_purity = predictability_sieve(gen, candidates, 1.0, dt=1e-2)
        by_entropy = predictability_sieve(gen, candidates, 1.0, dt=1e-2,
                                          score="entropy")
        assert by_purity.ranking == by_entropy.ranking

    def test_sieve_winners_match_zero_residual_pointer_basis(self):
        # the top-ranked states are eigenstates of the monitored operator
        gen = pure_dephasing_qubit(0.7)
        mesh = [bloch_state(t, p) for t in np.linspace(0.0, np.pi, 5)
                for p in (0.0, np.pi / 2)]
        report = predictability_sieve(gen, mesh, horizon=1.0, dt=1e-2)
        best = report.best()
        rho = best.density().matrix
        residual = np.abs(rho[0, 1])
        assert residual < 1e-8  # sigma_z eigenstate up to phase
