"""Decoherence avoidance and correction.

Two strategies: find subspaces the environment cannot resolve
(decoherence-free subspaces, where every monitored operator acts as one
scalar), and undo phase errors after the fact with redundant encoding plus
ancilla syndrome extraction (the three-qubit phase code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .core import DensityMatrix, Operator, StateVector, tensor_state
from .measures import quantum_mutual_information

DEGENERACY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Decoherence-free subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DFSResult:
    """A common degenerate eigenspace of every monitored system operator."""

    dimension: int
    basis: tuple[StateVector, ...]
    common_eigenvalues: tuple[float, ...]  # one eigenvalue per operator

    def projector(self) -> np.ndarray:
        if self.dimension == 0:
            raise ValueError("empty subspace has no projector")
        v = np.column_stack([s.amplitudes for s in self.basis])
        return v @ v.conj().T


def _eigenspaces(matrix: np.ndarray, tol: float) -> list[tuple[float, np.ndarray]]:
    """Cluster the spectrum into (eigenvalue, orthonormal basis) blocks."""
    w, v = np.linalg.eigh(matrix)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    blocks = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or (w[i] - w[i - 1]) > tol * scale:
            blocks.append((float(np.mean(w[start:i])), v[:, start:i]))
            start = i
    return blocks


def _canonical_basis(v: np.ndarray) -> np.ndarray:
    """Sparsest orthonormal basis of span(v) via pivoted QR of the projector.

    When the subspace is spanned by computational-basis states this returns
    exactly those states (up to phase), which keeps reported bases stable
    and human-readable.
    """
    proj = v @ v.conj().T
    k = v.shape[1]
    q, _, _ = scipy.linalg.qr(proj, pivoting=True)
    basis = q[:, :k].copy()
    # fix phases: largest-magnitude entry of each column made real positive
    for j in range(k):
        idx = int(np.argmax(np.abs(basis[:, j])))
        ph = basis[idx, j] / abs(basis[idx, j])
        basis[:, j] = basis[:, j] / ph
        basis[np.abs(basis[:, j]) < 1e-14, j] = 0.0
    return basis


def find_dfs(system_ops: Sequence[Operator]) -> DFSResult:
    """Largest subspace on which every operator acts as a scalar.

    Intersects eigenspaces iteratively: diagonalize the first operator,
    then restrict each subsequent operator to each surviving block and
    rediagonalize.  Blocks must stay at least two-dimensional to count (a
    one-dimensional common eigenspace is a single pointer state, not a
    subspace that can carry a protected qubit); dimension 0 is returned
    when none survives.

    Eigenvalue clustering uses a relative gap of DEGENERACY_TOL.
    Near-degenerate spectra are clustered accordingly; the result reports
    the clustered eigenvalues as found, with no claim that approximately
    degenerate blocks enjoy exact protection.
    """
    if not system_ops:
        raise ValueError("need at least one system operator")
    dim = system_ops[0].dim
    for op in system_ops:
        if not op.is_hermitian(1e-8):
            raise ValueError("monitored operators must be Hermitian")
        if op.dim != dim:
            raise ValueError("operators must share one dimension")

    # each candidate: (eigenvalue tuple, basis columns in the full space)
    candidates: list[tuple[tuple[float, ...], np.ndarray]] = \
        [((), np.eye(dim, dtype=complex))]
    for op in system_ops:
        refined = []
        for eigs, v in candidates:
            restricted = v.conj().T @ op.matrix @ v
            restricted = 0.5 * (restricted + restricted.conj().T)
            for lam, block in _eigenspaces(restricted, DEGENERACY_TOL):
                if block.shape[1] >= 2:
                    refined.append((eigs + (lam,), v @ block))
        candidates = refined
        if not candidates:
            break

    if not candidates:
        return DFSResult(0, (), ())
    # deterministic choice: largest dimension, then lowest eigenvalue tuple
    candidates.sort(key=lambda c: (-c[1].shape[1], c[0]))
    eigs, v = candidates[0]
    basis_m = _canonical_basis(v)
    basis = tuple(StateVector(basis_m[:, j], normalize=True)
                  for j in range(basis_m.shape[1]))
    return DFSResult(basis_m.shape[1], basis, eigs)


def dfs_dimension_collective(n_qubits: int) -> int:
    """Dimension binom(N, N/2) of the zero-eigenvalue sector of sum_i sz_i.

    Only even N has a nonempty balanced sector.  For large N the dimension
    approaches 2^N / sqrt(pi N / 2), i.e. log2(dim) -> N - log2(pi N/2) / 2,
    so nearly the whole Hilbert space becomes protected under perfectly
    collective monitoring.
    """
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    if n_qubits % 2 != 0:
        raise ValueError("odd qubit number has no balanced (zero-eigenvalue) sector")
    return math.comb(n_qubits, n_qubits // 2)


def collective_dephasing_operator(n_qubits: int) -> Operator:
    """Total spin-z operator sum_i sigma_z^(i) on N qubits."""
    ops = single_qubit_z_operators(n_qubits)
    return sum(ops[1:], ops[0])


def single_qubit_z_operators(n_qubits: int) -> list[Operator]:
    """Independent monitoring set {sigma_z^(1), ..., sigma_z^(N)}."""
    ops = []
    dim = 2 ** n_qubits
    for i in range(n_qubits):
        bit = (np.arange(dim) >> (n_qubits - 1 - i)) & 1
        ops.append(Operator(np.diag((1.0 - 2.0 * bit).astype(complex))))
    return ops


def dfs_entanglement_probe(system_ops: Sequence[Operator], state: StateVector,
                           t: float = 1.0, seed: int = 0) -> float:
    """Mutual information after evolving under a random monitoring coupling.

    Builds H = sum_alpha S_alpha (x) E_alpha with random Hermitian E_alpha
    on an environment of dimension max(2, number of operators + 1),
    evolves |state>|0> for time t exactly, and returns I(S:E) of the result.
    States inside a decoherence-free subspace stay product (I ~ 0) because
    every S_alpha only multiplies them by its scalar.
    """
    rng = np.random.default_rng(seed)
    d_s = system_ops[0].dim
    d_e = max(2, len(system_ops) + 1)
    h = np.zeros((d_s * d_e, d_s * d_e), dtype=complex)
    for op in system_ops:
        e = rng.normal(size=(d_e, d_e)) + 1j * rng.normal(size=(d_e, d_e))
        e = 0.5 * (e + e.conj().T)
        h += np.kron(op.matrix, e)
    w, v = np.linalg.eigh(h)
    env0 = np.zeros(d_e, dtype=complex)
    env0[0] = 1.0
    psi0 = np.kron(state.amplitudes, env0)
    psi_t = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
    rho = DensityMatrix(np.outer(psi_t, psi_t.conj()))
    return quantum_mutual_information(rho, (d_s, d_e))


# ---------------------------------------------------------------------------
# Three-qubit phase code
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CodeState:
    """A logical qubit spread over three physical qubits.

    `physical_state` is the protected state a|+++> + b|--->, produced by the
    standard circuit: redundant copying a|000> + b|111> followed by a
    Hadamard on each qubit.  A phase flip in this frame acts as a bit flip
    in the |+/-> basis and is therefore detectable by the two phase-parity
    checks, which is what makes recovery possible; the bare repetition state
    a|000> + b|111> (exposed by `repetition_stage`) leaves all three phase
    flips acting identically on the code space and carries no syndrome.

    `applied_errors` records which qubits were flipped since encoding; it is
    simulator metadata used to assess recovery, never consulted by the
    correction procedure itself.
    """

    logical_amplitudes: tuple[complex, complex]
    physical_state: StateVector
    applied_errors: tuple[int, ...] = ()


def _hadamard3() -> np.ndarray:
    return np.kron(np.kron(_H, _H), _H)


def repetition_stage(a: complex, b: complex) -> StateVector:
    """Intermediate redundant copy a|000> + b|111> (before the basis change)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = a
    amps[0b111] = b
    return StateVector(amps)


def encode_three_bit(a: complex, b: complex) -> CodeState:
    """Encode a|0> + b|1> into the phase-flip code a|+++> + b|--->."""
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-9:
        raise ValueError("logical amplitudes must be normalized")
    protected = StateVector(_hadamard3() @ repetition_stage(a, b).amplitudes)
    return CodeState((complex(a), complex(b)), protected)


def _single_qubit_on_three(gate: np.ndarray, qubit_index: int) -> np.ndarray:
    ops = [np.eye(2, dtype=complex)] * 3
    ops[qubit_index - 1] = gate
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def apply_phase_error(cs: CodeState, qubit_index: int) -> CodeState:
    """Phase flip (sigma_z) on one physical qubit, indices 1..3.

    Under independent dephasing of N qubits, only weight-one phase flips
    need to be considered to first order, so N operators exhaust the
    single-error set.
    """
    if qubit_index not in (1, 2, 3):
        raise ValueError("qubit index must be 1, 2, or 3")
    u = _single_qubit_on_three(_Z, qubit_index)
    new_state = StateVector(u @ cs.physical_state.amplitudes)
    return replace(cs, physical_state=new_state,
                   applied_errors=cs.applied_errors + (qubit_index,))


def entangling_phase_error(psi: StateVector, env0: StateVector,
                           env1: StateVector) -> StateVector:
    """Entangle a single qubit with an environment: a|0>|e0> + b|1>|e1>."""
    if psi.dim != 2:
        raise ValueError("single-qubit input expected")
    a, b = psi.amplitudes
    out = a * tensor_state(StateVector([1, 0]), env0).amplitudes \
        + b * tensor_state(StateVector([0, 1]), env1).amplitudes
    return StateVector(out, normalize=False)


def phase_error_decomposition(psi: StateVector, env0: StateVector,
                              env1: StateVector) -> StateVector:
    """The same entangled state assembled from identity and sigma_z parts.

    With e_I = (e0 + e1)/2 and e_z = (e0 - e1)/2,
    a|0>|e0> + b|1>|e1| = I|psi>|e_I> + (sigma_z|psi>)|e_z>: entangling
    decoherence of a qubit reduces entirely to phase-flip errors.
    """
    e_i = 0.5 * (env0.amplitudes + env1.amplitudes)
    e_z = 0.5 * (env0.amplitudes - env1.amplitudes)
    identity_part = np.kron(psi.amplitudes, e_i)
    z_part = np.kron(_Z @ psi.amplitudes, e_z)
    return StateVector(identity_part + z_part, normalize=False)


#: Syndrome (s1, s2) -> qubit to counter-flip (0 = no correction).  s = 0
#: means the corresponding phase-parity check (qubits 1-2, qubits 2-3)
#: found even parity.
_SYNDROME_TABLE = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}


@dataclass(frozen=True)
class CorrectionReport:
    recovered: CodeState
    syndrome: tuple[int, int]
    countertransformation: str
    fidelity: float
    recovered_ok: bool
    within_code_guarantee: bool


def _syndrome_circuit_state(state: StateVector) -> np.ndarray:
    """Attach two |0> ancillas and run the phase-parity checks.

    Each check measures a two-qubit parity in the |+/-> basis: Hadamard the
    ancilla, apply ancilla-controlled X on the two data qubits, Hadamard
    again.  Qubit order: (data1, data2, data3, anc1, anc2).
    """
    psi = np.kron(state.amplitudes, np.array([1, 0, 0, 0], dtype=complex))

    def hadamard_on(vec: np.ndarray, wire: int) -> np.ndarray:
        t = vec.reshape([2] * 5)
        t = np.tensordot(_H, t, axes=([1], [wire]))
        return np.moveaxis(t, 0, wire).reshape(-1)

    def controlled_x_pair(vec: np.ndarray, control: int,
                          targets: tuple[int, int]) -> np.ndarray:
        t = vec.reshape([2] * 5).copy()
        idx = [slice(None)] * 5
        idx[control] = 1
        sub = t[tuple(idx)]
        for tgt in targets:
            ax = tgt if tgt < control else tgt - 1
            sub = np.flip(sub, axis=ax)
        t[tuple(idx)] = sub
        return t.reshape(-1)

    psi = hadamard_on(psi, 3)
    psi = controlled_x_pair(psi, 3, (0, 1))
    psi = hadamard_on(psi, 3)
    psi = hadamard_on(psi, 4)
    psi = controlled_x_pair(psi, 4, (1, 2))
    psi = hadamard_on(psi, 4)
    return psi


def correct_three_bit(cs: CodeState) -> CorrectionReport:
    """Extract the syndrome with ancillas and undo the indicated phase flip.

    The ancilla readout reveals which parity checks flipped -- never the
    logical amplitudes -- so recovery needs no knowledge of the encoded
    state.  Zero or one phase flips are corrected exactly.  Two flips alias
    onto the third qubit's syndrome; the attempted correction then leaves a
    logical error behind, reported through the fidelity and the
    `within_code_guarantee` flag.
    """
    psi5 = _syndrome_circuit_state(cs.physical_state)
    t = psi5.reshape([2] * 5)
    probs = np.sum(np.abs(t) ** 2, axis=(0, 1, 2))
    flat = int(np.argmax(probs))
    if probs.reshape(-1)[flat] < 1.0 - 1e-9:
        raise ValueError("state is outside the code space: syndrome is not deterministic")
    s1, s2 = flat >> 1, flat & 1
    # project onto the observed ancilla outcome and drop the ancillas
    data = t[:, :, :, s1, s2].reshape(-1)
    data = data / np.linalg.norm(data)

    target = _SYNDROME_TABLE[(s1, s2)]
    if target == 0:
        counter = "identity"
        corrected = data
    else:
        counter = f"sigma_z on qubit {target}"
        corrected = _single_qubit_on_three(_Z, target) @ data

    recovered = CodeState(cs.logical_amplitudes, StateVector(corrected),
                          applied_errors=())
    a, b = cs.logical_amplitudes
    original = encode_three_bit(a, b).physical_state.amplitudes
    fidelity = float(abs(np.vdot(original, corrected)) ** 2)
    # qubits flipped an odd number of times constitute the net error
    net_weight = sum(cs.applied_errors.count(q) % 2 for q in (1, 2, 3))
    return CorrectionReport(
        recovered, (s1, s2), counter, fidelity,
        recovered_ok=fidelity >= 1.0 - 1e-10,
        within_code_guarantee=net_weight <= 1,
    )


def decode_three_bit(cs: CodeState) -> StateVector:
    """Invert the encoding circuit and return the logical qubit state.

    Traces nothing out: valid only when the physical state lies in the code
    space (possibly after correction).
    """
    rep = _hadamard3() @ cs.physical_state.amplitudes
    a, b = rep[0b000], rep[0b111]
    residual = np.linalg.norm(rep) ** 2 - (abs(a) ** 2 + abs(b) ** 2)
    if residual > 1e-9:
        raise ValueError("state is outside the code space; correct it first")
    return StateVector([a, b], normalize=True)
