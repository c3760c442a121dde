import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from decoherence.core import (
    DensityMatrix,
    FockSpace,
    Grid1D,
    GridOperator,
    KET_0,
    KET_PLUS,
    Operator,
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    coherent_state,
    default_fock_cutoff,
    eigh,
    expectation,
    partial_trace,
    tensor,
    tensor_state,
)

from conftest import random_density, random_hermitian, random_state


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_hermiticity_predicate(self):
        assert SIGMA_X.is_hermitian()
        assert not Operator([[0, 1], [0, 0]]).is_hermitian()

    def test_immutable(self):
        with pytest.raises(ValueError):
            SIGMA_X.matrix[0, 0] = 5.0


class TestTensor:
    def test_identity_case(self):
        i4 = tensor(Operator.identity(2), Operator.identity(2))
        assert_allclose(i4.matrix, np.eye(4))

    def test_sigma_z_pair_is_diagonal(self):
        zz = tensor(SIGMA_Z, SIGMA_Z)
        assert_allclose(zz.matrix, np.diag([1, -1, -1, 1]).astype(complex))

    def test_factor_product_equals_joint_product(self):
        # (sx (x) I)(I (x) sx) = sx (x) sx by direct multiplication
        lhs = tensor(SIGMA_X, Operator.identity(2)) @ tensor(Operator.identity(2), SIGMA_X)
        assert_allclose(lhs.matrix, tensor(SIGMA_X, SIGMA_X).matrix, atol=1e-14)

    def test_associative(self, rng):
        a, b, c = (random_hermitian(rng, d) for d in (2, 3, 2))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.max(np.abs(left.matrix - right.matrix)) < 1e-12


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        red = partial_trace(bell.density(), (2, 2), keep=0)
        assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix))
        assert_allclose(partial_trace(joint, (2, 3), 0).matrix, rho_a.matrix, atol=1e-12)
        assert_allclose(partial_trace(joint, (2, 3), 1).matrix, rho_b.matrix, atol=1e-12)

    def test_orthogonal_environment_kills_coherence(self):
        # alpha |0>|E1> + beta |1>|E2> with <E2|E1> = 0 reduces to the
        # diagonal populations
        alpha, beta = 0.6, 0.8
        psi = alpha * np.kron([1, 0], [1, 0]) + beta * np.kron([0, 1], [0, 1])
        red = partial_trace(StateVector(psi).density(), (2, 2), keep=0)
        assert_allclose(red.matrix, np.diag([alpha ** 2, beta ** 2]).astype(complex),
                        atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density(rng, 6), (2, 2), 0)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_trace_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 6, rank=3)
        red = partial_trace(rho, (2, 3), keep=rng.integers(0, 2))
        assert abs(np.trace(red.matrix) - 1.0) < 1e-10
        assert np.linalg.eigvalsh(red.matrix)[0] > -1e-10


class TestExpectation:
    def test_computational_state(self):
        assert expectation(KET_0.density(), SIGMA_Z) == pytest.approx(1.0)

    def test_maximally_mixed_has_no_polarization(self):
        assert expectation(DensityMatrix.maximally_mixed(2), SIGMA_X) == pytest.approx(0.0)

    def test_local_observable_matches_reduced_state(self, rng):
        # <O (x) I> on the joint state equals <O> on the partial trace
        rho = random_density(rng, 8, rank=2)
        obs = random_hermitian(rng, 2)
        full = expectation(rho, tensor(obs, Operator.identity(4)))
        red = expectation(partial_trace(rho, (2, 4), 0), obs)
        assert full == pytest.approx(red, abs=1e-10)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(ValueError):
            expectation(random_density(rng, 2), Operator([[0, 1], [0, 0]]))


class TestEigh:
    def test_pauli_z_spectrum(self):
        w, _ = eigh(SIGMA_Z)
        assert_allclose(w, [-1.0, 1.0])

    def test_pauli_x_eigenvectors(self):
        w, v = eigh(SIGMA_X)
        plus = v[:, 1]
        plus = plus / plus[0]
        assert_allclose(plus, [1.0, 1.0], atol=1e-12)

    def test_reconstruction(self, rng):
        a = random_hermitian(rng, 6)
        w, v = eigh(a)
        assert np.max(np.abs((v * w) @ v.conj().T - a.matrix)) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigh(Operator([[0, 1], [0, 0]]))


class TestDensityMatrix:
    def test_pure_state_is_projector(self, rng):
        rho = random_state(rng, 5).density()
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) < 1e-10

    def test_small_negative_eigenvalues_clamped(self):
        m = np.diag([1.0 + 5e-10, -5e-10]).astype(complex)
        rho = DensityMatrix(m)
        assert np.linalg.eigvalsh(rho.matrix)[0] >= 0.0
        assert np.trace(rho.matrix) == pytest.approx(1.0)

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_pure_state_projector_needs_no_eigendecomposition(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition of a pure state")

        psi = Grid1D(64, -4.0, 4.0).two_packet_cat(1.5, 0.4, k0=0.7)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        for state in (psi, random_state(rng, 5), KET_PLUS):
            rho = state.density()
            a = state.amplitudes
            assert_allclose(rho.matrix, np.outer(a, a.conj()), rtol=0, atol=1e-15)
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)
            assert not rho.matrix.flags.writeable and rho.dim == state.dim

    def test_pure_state_projector_keeps_the_trace_check(self):
        # within StateVector's 1e-8 norm tolerance, beyond DensityMatrix's 1e-9 trace
        off = StateVector(np.array([1.0 + 5e-9, 0.0]))
        with pytest.raises(ValueError, match="trace"):
            off.density()
        with pytest.raises(ValueError):
            DensityMatrix(np.outer(off.amplitudes, off.amplitudes.conj()))
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 1.0])).density()

    def test_certified_state_holds_its_matrix_as_given(self):
        m = np.array([[0.75, 0.25 + 0.1j], [0.25 - 0.1j, 0.25]])
        rho = DensityMatrix.certified(m)
        assert rho.matrix is m and not m.flags.writeable
        assert rho.dim == 2 and rho.eigenvalues is None


class TestCoherentStates:
    def test_vacuum(self):
        psi = coherent_state(0.0, FockSpace(4))
        assert_allclose(psi.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_mean_photon_number(self):
        space = FockSpace(default_fock_cutoff(2.0))
        psi = coherent_state(2.0, space)
        n = expectation(psi.density(), space.number_operator())
        assert n == pytest.approx(4.0, rel=1e-7)

    def test_overlap_law(self):
        # |<alpha|beta>|^2 = exp(-|alpha - beta|^2); alpha=1, beta=-1 -> e^-4
        space = FockSpace(default_fock_cutoff(1.5))
        a = coherent_state(1.0, space)
        b = coherent_state(-1.0, space)
        assert abs(a.overlap(b)) ** 2 == pytest.approx(np.exp(-4.0), rel=1e-6)

    def test_overlap_law_generic(self, rng):
        for _ in range(4):
            al = complex(rng.normal(), rng.normal())
            be = complex(rng.normal(), rng.normal())
            space = FockSpace(default_fock_cutoff(max(abs(al), abs(be)) + 1))
            ov = abs(coherent_state(al, space).overlap(coherent_state(be, space))) ** 2
            assert ov == pytest.approx(np.exp(-abs(al - be) ** 2), abs=1e-8)

    def test_truncation_loss_rejected(self):
        with pytest.raises(ValueError):
            coherent_state(3.0, FockSpace(4))


class TestGrid:
    def test_spacing(self):
        g = Grid1D(9, -2.0, 2.0)
        assert g.dx == pytest.approx(0.5)
        assert len(g.x) == 9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Grid1D(4, 0.0, 1.0)

    def test_gaussian_packet_normalized_and_centered(self):
        g = Grid1D(128, -8.0, 8.0)
        psi = g.gaussian_packet(1.0, 0.5)
        dens = np.abs(psi.amplitudes) ** 2
        assert dens.sum() == pytest.approx(1.0)
        assert g.x[np.argmax(dens)] == pytest.approx(1.0, abs=g.dx)

    def test_kinetic_energy_of_boosted_packet(self):
        # <p^2/2m> ~ k0^2/2m + 1/(8 m sigma^2) for a Gaussian packet
        g = Grid1D(256, -10.0, 10.0)
        m, k0, sigma = 2.0, 1.5, 1.0
        psi = g.gaussian_packet(0.0, sigma, k0)
        h = g.kinetic_hamiltonian(m)
        got = expectation(psi.density(), h)
        want = k0 ** 2 / (2 * m) + 1.0 / (8 * m * sigma ** 2)
        assert got == pytest.approx(want, rel=1e-3)

    def test_momentum_operator_on_plane_wave_packet(self):
        g = Grid1D(256, -10.0, 10.0)
        psi = g.gaussian_packet(0.0, 1.0, 2.0)
        p = g.momentum_operator()
        assert expectation(psi.density(), p) == pytest.approx(2.0, rel=1e-6)


class TestGridOperator:
    GRID = Grid1D(12, -3.0, 3.0)

    def explicit(self, kinetic, potential):
        """F^dag diag(E) F + diag(V) with the DFT matrix written out."""
        n = self.GRID.n_points
        j = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
        return f.conj().T @ np.diag(kinetic) @ f + np.diag(potential)

    def test_matrix_equals_the_dense_products(self):
        g = self.GRID
        e, v = g.k ** 2 / 3.0 + 0.2j * g.k, np.cos(g.x) - 0.1j
        op = GridOperator(e, v)
        want = self.explicit(e, v)
        assert_allclose(op.matrix, want, rtol=0, atol=1e-13)
        assert_allclose(op.dag().matrix, want.conj().T, rtol=0, atol=1e-13)

    def test_grid_operators_carry_their_diagonals(self):
        g = self.GRID
        assert_allclose(g.position_operator().potential, g.x)
        assert_allclose(g.momentum_operator().kinetic, g.k)
        assert_allclose(g.kinetic_hamiltonian(2.0).kinetic, g.k ** 2 / 4.0)
        assert_allclose(g.momentum_operator().matrix,
                        self.explicit(g.k, np.zeros(12)), rtol=0, atol=1e-13)
        assert g.kinetic_hamiltonian(2.0).is_hermitian()
        assert not GridOperator(potential=g.x + 1e-3j).is_hermitian()

    def test_rejects_empty_and_mismatched_parts(self):
        with pytest.raises(ValueError, match="kinetic or a potential"):
            GridOperator()
        with pytest.raises(ValueError, match="differ"):
            GridOperator(np.ones(8), np.ones(9))


def test_tensor_state_matches_kron():
    joint = tensor_state(KET_PLUS, KET_0)
    assert_allclose(joint.amplitudes,
                    np.kron(KET_PLUS.amplitudes, KET_0.amplitudes))


def test_si_constants_are_the_exact_values():
    import scipy.constants

    from decoherence.constants import HBAR_SI, K_B_SI
    assert HBAR_SI == scipy.constants.hbar
    assert K_B_SI == scipy.constants.k
