"""Quantifiers of decoherence.

Purity and von Neumann entropy track how mixed a reduced state has become;
the Wigner function visualizes position-space coherence as oscillatory
interference ridges; quantum mutual information measures total
system-environment correlation; the commutator residual and predictability
sieve identify pointer observables and robust states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import DensityMatrix, Grid1D, Operator, StateVector, partial_trace, write_csv
from .lindblad import IntegratorConfig, LindbladGenerator, evolve, momentum_representation

#: Eigenvalues below this floor are treated as absent from the mixture.
ENTROPY_EIGENVALUE_FLOOR = 1e-12


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2 = sum |rho_ij|^2 of a Hermitian rho: 1 for pure states, 1/dim
    for the maximally mixed state."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda in bits, from the spectrum the state's
    validation kept, or from its matrix for a certified state."""
    w = np.linalg.eigvalsh(rho.matrix) if rho.eigenvalues is None else rho.eigenvalues
    w = w[w > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(w * np.log2(w)))


def quantum_mutual_information(rho_SE: DensityMatrix,
                               dims: tuple[int, int]) -> float:
    """I(S:E) = S(rho_S) + S(rho_E) - S(rho_SE) in bits.

    The entropy that would be generated by severing all correlations
    between the two factors; nonnegative up to numerical tolerance.
    """
    dA, dB = dims
    if dA * dB != rho_SE.dim:
        raise ValueError("dims incompatible with the joint state")
    s_a = von_neumann_entropy(partial_trace(rho_SE, dims, keep=0))
    s_b = von_neumann_entropy(partial_trace(rho_SE, dims, keep=1))
    s_ab = von_neumann_entropy(rho_SE)
    return s_a + s_b - s_ab


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WignerField:
    """W(x, p) sampled on a position grid and its reciprocal momentum grid."""

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray  # shape (n_x, n_p), real

    def normalization(self) -> float:
        dx = self.x[1] - self.x[0]
        dp = self.p[1] - self.p[0]
        return float(np.sum(self.values) * dx * dp)

    def position_marginal(self) -> np.ndarray:
        dp = self.p[1] - self.p[0]
        return np.sum(self.values, axis=1) * dp

    def momentum_marginal(self) -> np.ndarray:
        dx = self.x[1] - self.x[0]
        return np.sum(self.values, axis=0) * dx

    def to_csv(self, path) -> None:
        """Rows of (x, p, W), x outer and p inner."""
        write_csv(path, ["x", "p", "w"], [np.repeat(self.x, len(self.p)),
                                          np.tile(self.p, len(self.x)), self.values.ravel()])


def wigner(rho: DensityMatrix | np.ndarray, grid: Grid1D,
           marginal_tol: float = 1e-4) -> WignerField:
    """Wigner transform of a position-representation density matrix.

    W(x, p) = (1 / 2 pi) int dy e^{i p y} rho(x + y/2, x - y/2), hbar = 1.

    The y integral is evaluated as a DFT over the anti-diagonals of the
    sampled matrix (offsets y = 2 j dx, which need no interpolation).  The
    momentum grid is the reciprocal lattice of that offset spacing.  The
    marginals are validated against the matrix's diagonal and its Fourier
    transform; a mismatch signals grid aliasing.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    n = grid.n_points
    if m.shape != (n, n):
        raise ValueError("density matrix does not match the grid")
    dx = grid.dx
    # continuum density rho(x, x') = matrix / dx so that sum(diag) * dx = 1
    dens = m / dx
    n_fft = 2 * n
    # anti-diagonal samples g[i, j] = rho(x_i + j dx, x_i - j dx), j signed;
    # both endpoints must stay on the grid, so |j| <= min(i, n - 1 - i)
    g = np.zeros((n, n_fft), dtype=complex)
    for j in range(-(n - 1), n):
        lo, hi = abs(j), n - abs(j)
        if lo >= hi:
            continue
        idx = np.arange(lo, hi)
        g[idx, j % n_fft] = dens[idx + j, idx - j]
    # W(x_i, p_k) = (1/2pi) * sum_j g[i, j] e^{i p_k 2 j dx} * (2 dx)
    w = np.fft.ifft(g, axis=1) * n_fft  # sum_j g e^{+2pi i j k / n_fft}
    p = 2.0 * np.pi * np.fft.fftfreq(n_fft, d=2.0 * dx)
    w = np.real(w) * (2.0 * dx) / (2.0 * np.pi)
    order = np.argsort(p)
    field = WignerField(x=grid.x.copy(), p=p[order], values=w[:, order])

    norm = field.normalization()
    pos_err = float(np.max(np.abs(field.position_marginal() - np.real(np.diag(dens)))))
    mom_err = _momentum_marginal_error(field, m, grid)
    scale = float(np.max(np.abs(np.diag(dens)))) + 1e-300
    if abs(norm - 1.0) > marginal_tol or pos_err / scale > marginal_tol \
            or mom_err > marginal_tol:
        raise ValueError(
            f"Wigner marginals off (norm err {abs(norm - 1.0):.2e}, position "
            f"err {pos_err:.2e}, momentum err {mom_err:.2e}); grid aliasing "
            "suspected - refine or widen the grid")
    return field


def _momentum_marginal_error(field: WignerField, m: np.ndarray,
                             grid: Grid1D) -> float:
    """Compare the W momentum marginal with the FFT momentum distribution.

    The e^{+ipy} kernel convention makes the marginal at p equal the
    distribution of wavenumber k = -p, so the reference is mirrored.
    """
    mom = momentum_representation(m).diagonal().real * grid.n_points * grid.dx / (2.0 * np.pi)
    k = grid.k
    order = np.argsort(k)
    k_sorted, mom_sorted = k[order], mom[order]
    # W marginal as a function of k = -p (ascending)
    marg = field.momentum_marginal()
    k_of_w = -field.p[::-1]
    marg_of_k = marg[::-1]
    interp = np.interp(k_sorted, k_of_w, marg_of_k)
    scale = float(np.max(mom_sorted)) + 1e-300
    return float(np.max(np.abs(interp - mom_sorted)) / scale)


# ---------------------------------------------------------------------------
# Pointer states and the predictability sieve
# ---------------------------------------------------------------------------

def pointer_commutator_residual(observable: Operator,
                                interaction_system_part: Operator) -> float:
    """Frobenius norm of [O, S].

    Zero certifies that O is a pointer observable when the interaction
    dominates the dynamics: the monitored quantity commutes with it.
    """
    if not observable.is_hermitian() or not interaction_system_part.is_hermitian():
        raise ValueError("both operators must be Hermitian")
    c = observable.matrix @ interaction_system_part.matrix \
        - interaction_system_part.matrix @ observable.matrix
    return float(np.linalg.norm(c))


@dataclass(frozen=True)
class SieveReport:
    """Candidates ranked by robustness (retained purity or entropy gain)."""

    candidates: tuple[StateVector, ...]
    scores: tuple[float, ...]
    ranking: tuple[int, ...]
    score_kind: str

    def best(self) -> StateVector:
        return self.candidates[self.ranking[0]]


def predictability_sieve(gen: LindbladGenerator,
                         candidates: Sequence[StateVector],
                         horizon: float,
                         dt: float | None = None,
                         score: Literal["purity", "entropy"] = "purity",
                         ) -> SieveReport:
    """Rank candidate pure states by how little they decohere.

    Each candidate is evolved to the horizon and scored by the purity of the
    result (default) or by negated entropy.  Ranking is descending; ties
    keep the candidate order.
    """
    if not candidates:
        raise ValueError("need at least one candidate state")
    step = dt if dt is not None else horizon / 200.0
    cfg = IntegratorConfig(dt=step, t_final=horizon,
                           record_stride=max(1, int(round(horizon / step))))
    scores = []
    for cand in candidates:
        final = evolve(gen, cand.density(), cfg).final()
        if score == "purity":
            scores.append(purity(final))
        else:
            scores.append(-von_neumann_entropy(final))
    # scores within 1e-12 count as tied so that round-off cannot reorder
    # physically identical candidates; ties keep the input order
    order = sorted(range(len(scores)), key=lambda i: (-round(scores[i], 12), i))
    return SieveReport(tuple(candidates), tuple(scores), tuple(order), score)
