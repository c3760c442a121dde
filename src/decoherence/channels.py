"""Kraus-operator dynamical maps and their validity certificates.

A channel is a finite family {W_k} acting as rho -> sum_k W_k rho W_k^dag.
We enforce the trace-preserving completeness sum_k W_k^dag W_k = I.  Some
references state the condition with the products in the opposite order
(sum_k W_k W_k^dag = I); the two coincide for the Hermitian Kraus families
used throughout this package, but only the former guarantees Tr(rho) = 1
after the map, so that is the direction checked here.

Superoperators are represented as dim^2 x dim^2 matrices acting on
row-major-vectorized operators: vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DensityMatrix, Operator, partial_trace_matrix

COMPLETENESS_TOL = 1e-9
#: Choi-positivity threshold for the complete-positivity certificate.
CP_EIGENVALUE_TOL = 1e-8


class CompletenessError(ValueError):
    """Raised when a Kraus family fails sum_k W_k^dag W_k = I."""

    def __init__(self, deficit_norm: float):
        self.deficit_norm = deficit_norm
        super().__init__(
            f"Kraus completeness violated: |sum W^dag W - I| = {deficit_norm:.3e}")


class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators.

    Completeness is checked once at construction (apply is the hot path);
    `completeness_deficit` re-measures it on demand.  The operator count for
    a dim-dimensional system never needs to exceed dim^2.
    """

    def __init__(self, operators: Sequence[Operator],
                 labels: Sequence[tuple[int, int]] | None = None):
        if len(operators) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = operators[0].dim
        for op in operators:
            if op.dim != dim:
                raise ValueError("all Kraus operators must share one dimension")
        self.operators = tuple(operators)
        self.labels = tuple(labels) if labels is not None else None
        self.dim = dim
        deficit = self.completeness_deficit()
        if deficit > COMPLETENESS_TOL:
            raise CompletenessError(deficit)

    def completeness_deficit(self) -> float:
        s = sum(op.matrix.conj().T @ op.matrix for op in self.operators)
        return float(np.max(np.abs(s - np.eye(self.dim))))

    def superoperator(self) -> np.ndarray:
        """dim^2 x dim^2 matrix of the map on row-major-vectorized operators."""
        return sum(np.kron(op.matrix, op.matrix.conj())
                   for op in self.operators)

    def __len__(self):
        return len(self.operators)

    def __repr__(self):
        return f"KrausChannel(dim={self.dim}, n_ops={len(self.operators)})"


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_k W_k rho W_k^dag."""
    if rho.dim != channel.dim:
        raise ValueError("state dimension does not match the channel")
    out = np.zeros_like(rho.matrix)
    for op in channel.operators:
        out = out + op.matrix @ rho.matrix @ op.matrix.conj().T
    return DensityMatrix(out)


def kraus_from_unitary(U: Operator, rho_E: DensityMatrix,
                       dims: tuple[int, int]) -> KrausChannel:
    """Kraus family of the reduced system dynamics under a joint unitary.

    For a system-environment unitary U on dims = (dS, dE) and an environment
    state with spectral decomposition rho_E = sum_i p_i |E_i><E_i|, the
    operators are W_{ij} = sqrt(p_i) <E_j| U |E_i>, so that applying the
    channel equals evolving rho_S (x) rho_E and tracing out the environment.
    Environment eigenstates with p_i at or below 1e-12 are dropped.
    """
    dS, dE = dims
    if U.dim != dS * dE:
        raise ValueError(f"unitary dim {U.dim} != dS*dE = {dS * dE}")
    if not U.is_unitary(tol=1e-9):
        raise ValueError("U is not unitary")
    if rho_E.dim != dE:
        raise ValueError("environment state dimension mismatch")
    p, vecs = np.linalg.eigh(rho_E.matrix)
    u = U.matrix.reshape(dS, dE, dS, dE)
    ops: list[Operator] = []
    labels: list[tuple[int, int]] = []
    for i in range(dE):
        if p[i] <= 1e-12:
            continue
        e_i = vecs[:, i]
        for j in range(dE):
            e_j = vecs[:, j]
            # <E_j| U |E_i> acts on the system factor alone
            block = np.einsum("b,sbta,a->st", e_j.conj(), u, e_i)
            ops.append(Operator(np.sqrt(p[i]) * block))
            labels.append((i, j))
    return KrausChannel(ops, labels=labels)


def choi_matrix(superop: np.ndarray) -> np.ndarray:
    """Choi matrix C = sum_ij |i><j| (x) V(|i><j|), normalized by 1/dim."""
    d2 = superop.shape[0]
    dim = int(round(np.sqrt(d2)))
    if dim * dim != d2 or superop.shape != (d2, d2):
        raise ValueError("superoperator must be dim^2 x dim^2")
    # block (i, j) of C is V(|i><j|), column i dim + j of the superoperator
    c = np.asarray(superop, dtype=complex).reshape(dim, dim, dim, dim).transpose(2, 0, 3, 1)
    return c.reshape(d2, d2) / dim


def check_complete_positivity(superop: np.ndarray) -> dict:
    """Certify complete positivity from a Hermitian Choi matrix's minimum eigenvalue."""
    c = choi_matrix(superop)
    herm = float(np.max(np.abs(c - c.conj().T)))
    wmin = float(np.linalg.eigvalsh(0.5 * (c + c.conj().T))[0])
    return {"cp": herm <= CP_EIGENVALUE_TOL and wmin >= -CP_EIGENVALUE_TOL,
            "min_choi_eigenvalue": wmin}


def check_convex_linearity(apply_map: Callable[[np.ndarray], np.ndarray],
                           rho1: DensityMatrix, rho2: DensityMatrix,
                           lam: float) -> float:
    """Max-entry deviation of V(lam rho1 + (1-lam) rho2) from the convex mix."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie strictly between 0 and 1")
    mixed = lam * rho1.matrix + (1.0 - lam) * rho2.matrix
    lhs = apply_map(mixed)
    rhs = lam * apply_map(rho1.matrix) + (1.0 - lam) * apply_map(rho2.matrix)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class MeasurementOutcome:
    outcome: int
    probability: float
    conditional_state: DensityMatrix


class MeasurementOperatorSet:
    """Operators M_{alpha,k} of an indirect measurement, grouped by outcome.

    Completeness is enforced in the trace-preserving direction
    sum M^dag M = I, the same order convention used for Kraus families.
    """

    def __init__(self, grouped: dict[int, list[Operator]], dim: int):
        self.grouped = {k: tuple(v) for k, v in grouped.items()}
        self.dim = dim
        s = np.zeros((dim, dim), dtype=complex)
        for ops in self.grouped.values():
            for m in ops:
                s = s + m.matrix.conj().T @ m.matrix
        deficit = float(np.max(np.abs(s - np.eye(dim))))
        if deficit > COMPLETENESS_TOL:
            raise CompletenessError(deficit)


def indirect_measurement(U: Operator, rho_S: DensityMatrix, rho_E: DensityMatrix,
                         projectors: Sequence[Operator]) -> list[MeasurementOutcome]:
    """Probe the system by evolving with the environment and reading it out.

    Evolves rho_S (x) rho_E under U, then projectively measures the
    environment with the given orthogonal, complete projector set.  Returns
    outcome probabilities and conditional system states; the
    probability-weighted average of the conditional states reproduces the
    unread (traced-out) channel action.
    """
    dS, dE = rho_S.dim, rho_E.dim
    if U.dim != dS * dE:
        raise ValueError("unitary dimension mismatch")
    psum = np.zeros((dE, dE), dtype=complex)
    for p in projectors:
        if p.dim != dE:
            raise ValueError("projector dimension mismatch")
        if np.max(np.abs(p.matrix @ p.matrix - p.matrix)) > COMPLETENESS_TOL:
            raise ValueError("projectors must be idempotent")
        psum = psum + p.matrix
    if np.max(np.abs(psum - np.eye(dE))) > COMPLETENESS_TOL:
        raise ValueError("projector set is not complete on the environment")

    joint = U.matrix @ np.kron(rho_S.matrix, rho_E.matrix) @ U.matrix.conj().T
    outcomes = []
    for alpha, p in enumerate(projectors):
        proj = np.kron(np.eye(dS), p.matrix)
        selected = proj @ joint @ proj
        prob = float(np.real(np.trace(selected)))
        if prob < COMPLETENESS_TOL:
            continue
        cond = partial_trace_matrix(selected, (dS, dE), keep=0) / prob
        outcomes.append(MeasurementOutcome(alpha, prob, DensityMatrix(cond)))
    total = sum(o.probability for o in outcomes)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"outcome probabilities sum to {total}, not 1")
    return outcomes


def unread_average(outcomes: Sequence[MeasurementOutcome]) -> DensityMatrix:
    """Probability-weighted mixture over measurement outcomes."""
    acc = sum(o.probability * o.conditional_state.matrix for o in outcomes)
    return DensityMatrix(acc)
