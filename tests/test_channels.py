import numpy as np
import pytest
from numpy.testing import assert_allclose

from decoherence.channels import (
    CompletenessError,
    KrausChannel,
    apply_channel,
    check_complete_positivity,
    check_convex_linearity,
    choi_matrix,
    indirect_measurement,
    kraus_from_unitary,
    unread_average,
)
from decoherence.core import (
    DensityMatrix,
    KET_0,
    KET_PLUS,
    Operator,
    SIGMA_Z,
    partial_trace,
)

from conftest import random_density, random_unitary

CNOT = Operator(np.array([[1, 0, 0, 0],
                          [0, 1, 0, 0],
                          [0, 0, 0, 1],
                          [0, 0, 1, 0]], dtype=complex))


def dephasing_channel(p: float) -> KrausChannel:
    return KrausChannel([Operator(np.sqrt(1 - p) * np.eye(2)),
                         Operator(np.sqrt(p) * SIGMA_Z.matrix)])


class TestKrausChannel:
    def test_identity_channel_is_noop(self, rng):
        ch = KrausChannel([Operator.identity(3)])
        rho = random_density(rng, 3)
        assert_allclose(apply_channel(ch, rho).matrix, rho.matrix, atol=1e-14)

    def test_dephasing_damps_coherence_by_hand_expansion(self):
        # W0 rho W0^dag + W1 rho W1^dag gives rho01 -> (1 - 2p) rho01
        rho = DensityMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = apply_channel(dephasing_channel(0.25), rho)
        assert out.matrix[0, 1] == pytest.approx(0.25)
        assert out.matrix[0, 0] == pytest.approx(0.5)

    def test_incomplete_family_rejected(self):
        with pytest.raises(CompletenessError) as err:
            KrausChannel([Operator(0.5 * np.eye(2))])
        assert err.value.deficit_norm == pytest.approx(0.75)

    def test_trace_preserved_on_random_states(self, rng):
        ch = dephasing_channel(0.3)
        for _ in range(20):
            out = apply_channel(ch, random_density(rng, 2))
            assert abs(np.trace(out.matrix) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-9


class TestKrausFromUnitary:
    def test_identity_unitary(self, rng):
        rho_s = random_density(rng, 2)
        ch = kraus_from_unitary(Operator.identity(4), DensityMatrix.maximally_mixed(2),
                                dims=(2, 2))
        assert_allclose(apply_channel(ch, rho_s).matrix, rho_s.matrix, atol=1e-12)

    def test_cnot_with_ground_environment_fully_dephases(self):
        # system controls the environment: W_j = <j|U|0> are the projectors
        ch = kraus_from_unitary(CNOT, KET_0.density(), dims=(2, 2))
        mats = sorted([np.round(op.matrix.real, 12).tolist() for op in ch.operators
                       if np.max(np.abs(op.matrix)) > 1e-12])
        assert mats == [[[0.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 0.0]]]
        rho = KET_PLUS.density()
        out = apply_channel(ch, rho)
        assert_allclose(out.matrix, np.diag([0.5, 0.5]).astype(complex), atol=1e-12)

    def test_matches_evolve_then_trace_oracle(self, rng):
        for _ in range(10):
            u = random_unitary(rng, 4)
            rho_s = random_density(rng, 2)
            rho_e = random_density(rng, 2)
            ch = kraus_from_unitary(u, rho_e, dims=(2, 2))
            via_channel = apply_channel(ch, rho_s)
            joint = u.matrix @ np.kron(rho_s.matrix, rho_e.matrix) @ u.matrix.conj().T
            via_trace = partial_trace(DensityMatrix(joint), (2, 2), keep=0)
            assert np.max(np.abs(via_channel.matrix - via_trace.matrix)) < 1e-10

    def test_operator_count_bound(self, rng):
        ch = kraus_from_unitary(random_unitary(rng, 6), random_density(rng, 3),
                                dims=(2, 3))
        assert len(ch) <= 9

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(ValueError):
            kraus_from_unitary(Operator(np.eye(4) * 0.9),
                               DensityMatrix.maximally_mixed(2), dims=(2, 2))


class TestCompletePositivity:
    def test_transposition_map_is_not_cp(self):
        # superoperator of the transpose on row-major vec: swaps indices
        d = 2
        s = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                s[j * d + i, i * d + j] = 1.0
        res = check_complete_positivity(s)
        assert not res["cp"]
        assert res["min_choi_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)

    def test_map_that_breaks_hermiticity_is_not_cp(self):
        # rho -> (1 + 0.5i) rho: the Hermitian part of its Choi matrix is
        # positive semidefinite, the matrix itself is not Hermitian
        res = check_complete_positivity((1.0 + 0.5j) * np.eye(4))
        assert not res["cp"]
        assert res["min_choi_eigenvalue"] > -1e-12

    def test_unitary_conjugation_is_cp(self, rng):
        u = random_unitary(rng, 3).matrix
        s = np.kron(u, u.conj())
        res = check_complete_positivity(s)
        assert res["cp"]
        assert res["min_choi_eigenvalue"] > -1e-12

    def test_dephasing_channel_choi_spectrum(self):
        p = 0.3
        s = dephasing_channel(p).superoperator()
        w = np.linalg.eigvalsh(choi_matrix(s))
        nonzero = w[np.abs(w) > 1e-12]
        assert_allclose(sorted(nonzero), [p, 1 - p], atol=1e-12)
        assert check_complete_positivity(s)["cp"]

    def test_choi_matrix_equals_its_blockwise_definition(self, rng):
        for d in (2, 3, 4):
            s = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
            # block (i, j) is the map applied to |i><j|
            ref = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    eij = np.zeros((d, d), dtype=complex)
                    eij[i, j] = 1.0
                    ref[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                        (s @ eij.reshape(-1)).reshape(d, d)
            assert np.array_equal(choi_matrix(s), ref / d)


class TestConvexLinearity:
    def test_channel_maps_are_convex_linear(self, rng):
        ch = dephasing_channel(0.4)

        def amap(m):
            return sum(op.matrix @ m @ op.matrix.conj().T for op in ch.operators)

        dev = check_convex_linearity(amap, random_density(rng, 2),
                                     random_density(rng, 2), 0.3)
        assert dev < 1e-12

    def test_identical_states_give_zero(self, rng):
        rho = random_density(rng, 2)
        dev = check_convex_linearity(lambda m: m, rho, rho, 0.5)
        assert dev == 0.0

    def test_random_channel_sweep(self, rng):
        for _ in range(100):
            u = random_unitary(rng, 4)
            ch = kraus_from_unitary(u, random_density(rng, 2), dims=(2, 2))

            def amap(m, ch=ch):
                return sum(op.matrix @ m @ op.matrix.conj().T for op in ch.operators)

            lam = float(rng.uniform(0.1, 0.9))
            dev = check_convex_linearity(amap, random_density(rng, 2),
                                         random_density(rng, 2), lam)
            assert dev < 1e-10

    def test_lambda_bounds(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ValueError):
            check_convex_linearity(lambda m: m, rho, rho, 1.0)


class TestMeasurementOperatorSet:
    def test_operators_from_a_dilation_are_complete(self, rng):
        from decoherence.channels import MeasurementOperatorSet
        u = random_unitary(rng, 4).matrix.reshape(2, 2, 2, 2)
        # M_{alpha,k} = sqrt(p_k) <alpha| U |E_k> for a pure environment
        grouped = {}
        for alpha in range(2):
            e_alpha = np.eye(2)[alpha]
            block = np.einsum("b,sbta,a->st", e_alpha.conj(), u, np.eye(2)[0])
            grouped[alpha] = [Operator(block)]
        ms = MeasurementOperatorSet(grouped, dim=2)
        assert set(ms.grouped) == {0, 1}

    def test_incomplete_set_rejected(self):
        from decoherence.channels import CompletenessError, MeasurementOperatorSet
        with pytest.raises(CompletenessError):
            MeasurementOperatorSet({0: [Operator(0.5 * np.eye(2))]}, dim=2)


class TestIndirectMeasurement:
    def comp_projectors(self):
        return [Operator(np.diag([1.0, 0.0]).astype(complex)),
                Operator(np.diag([0.0, 1.0]).astype(complex))]

    def test_trivial_unitary_leaves_system_alone(self, rng):
        rho_s = random_density(rng, 2)
        rho_e = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        outcomes = indirect_measurement(Operator.identity(4), rho_s, rho_e,
                                        self.comp_projectors())
        probs = sorted(o.probability for o in outcomes)
        assert probs == pytest.approx([0.3, 0.7])
        for o in outcomes:
            assert_allclose(o.conditional_state.matrix, rho_s.matrix, atol=1e-12)

    def test_cnot_probe_reads_out_the_superposition(self):
        outcomes = indirect_measurement(CNOT, KET_PLUS.density(), KET_0.density(),
                                        self.comp_projectors())
        assert len(outcomes) == 2
        for o in outcomes:
            assert o.probability == pytest.approx(0.5)
            target = np.zeros((2, 2), dtype=complex)
            target[o.outcome, o.outcome] = 1.0
            assert_allclose(o.conditional_state.matrix, target, atol=1e-12)

    def test_unread_average_equals_channel_action(self, rng):
        for _ in range(5):
            u = random_unitary(rng, 4)
            rho_s = random_density(rng, 2)
            rho_e = random_density(rng, 2)
            outcomes = indirect_measurement(u, rho_s, rho_e, self.comp_projectors())
            avg = unread_average(outcomes)
            ch = kraus_from_unitary(u, rho_e, dims=(2, 2))
            direct = apply_channel(ch, rho_s)
            assert np.max(np.abs(avg.matrix - direct.matrix)) < 1e-10

    def test_unread_average_reproduces_decohered_state(self):
        # perfect readout of |+> in the computational basis leaves the
        # diagonal mixture: measurement-and-forget equals decoherence
        outcomes = indirect_measurement(CNOT, KET_PLUS.density(), KET_0.density(),
                                        self.comp_projectors())
        avg = unread_average(outcomes)
        assert_allclose(avg.matrix, np.diag([0.5, 0.5]).astype(complex), atol=1e-12)

    def test_incomplete_projectors_rejected(self, rng):
        with pytest.raises(ValueError):
            indirect_measurement(Operator.identity(4), random_density(rng, 2),
                                 random_density(rng, 2),
                                 [Operator(np.diag([1.0, 0.0]).astype(complex))])
