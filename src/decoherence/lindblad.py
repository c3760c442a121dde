"""Markovian master equations and a deterministic fixed-step integrator.

A generator assembles

    d rho / dt = -(i/hbar)(H rho - rho H^dag)
                 + sum_mu kappa_mu (L rho L^dag - {L^dag L, rho}/2)
                 + extra commutator-structured terms,

with hbar = 1.  The Lindblad part covers completely positive semigroups
(diagonal form, or diagonalized from a first-standard-form coefficient
matrix).  The extra terms admit the non-Lindblad pieces of microscopically
derived equations: double commutators c [A,[B,rho]], commutator-
anticommutator terms c [A,{B,rho}], and paired sandwich terms c A rho B.
A non-Hermitian H is propagated as H rho - rho H^dag, which the sandwich
terms of the weak-coupling two-level equation rely on to conserve trace.

Every such equation is a sum of pieces c A rho B, which the generator
places once, at construction: into an elementwise kernel when both sides
are diagonal, into the no-jump part G rho + rho G' when one side is the
identity, among the products A rho B otherwise.

`propagate` takes exp(L t) rho0 straight from rho0 for free motion under a
quadratic scattering kernel, or from rho0's moments for a Gaussian rho0 under
a generator that carries its moment flow, else steps it by the split step,
the exact propagator of a small generator or `evolve`, classical fixed-step
4th-order, whose error `convergence_check` estimates by halving dt.  Each route hands
over one matrix per entry of `IntegratorConfig.record_times()`; the stepping ones run `_march`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Literal, Sequence

import numpy as np
import scipy.fft
import scipy.integrate
from scipy.integrate import quad

from .channels import CP_EIGENVALUE_TOL, check_complete_positivity
from .core import DensityMatrix, Grid1D, GridOperator, Operator

TRACE_DRIFT_TOL = 1e-7
POSITIVITY_DRIFT_TOL = 1e-7
#: RK4 is stable for dt * lambda in [-2.785, 0] on the negative real axis
RK4_STABILITY_LIMIT = 2.785
#: largest dim stepped by its exact propagator: 16^4 complex entries, 1 MiB
EXACT_MAX_DIM = 16
#: largest predicted edge density of a Gaussian record, relative to its peak
GAUSSIAN_EDGE_TOL = 1e-6


# ---------------------------------------------------------------------------
# Generator terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtraTerm:
    """One non-Lindblad term of a master equation.

    kind 'double_comm':    coeff * [A, [B, rho]]
    kind 'comm_anticomm':  coeff * [A, {B, rho}]
    kind 'sandwich':       coeff * A rho B
    """

    kind: Literal["double_comm", "comm_anticomm", "sandwich"]
    a: Operator
    b: Operator
    coeff: complex
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("double_comm", "comm_anticomm", "sandwich"):
            raise ValueError(f"unknown term kind {self.kind}")


def _add(total: np.ndarray | None, part: np.ndarray) -> np.ndarray:
    return part if total is None else total + part


def _side(op: Operator) -> np.ndarray:
    """op as a side of a product A rho B: its diagonal if it is diagonal in
    position (a GridOperator's V(x), or a dense diagonal matrix), else its matrix."""
    if isinstance(op, GridOperator) and op.kinetic is None:
        return op.potential
    m = op.matrix
    d = np.diag(m)
    return d if np.max(np.abs(m - np.diag(d))) == 0.0 else m


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The side a b of two sides: diagonal only if both are."""
    if a.ndim == 1:
        return a * b if b.ndim == 1 else a[:, None] * b
    return a * b if b.ndim == 1 else a @ b


class LindbladGenerator:
    """Hamiltonian plus weighted Lindblad operators plus optional extra terms.

    Every term expands into pieces c A rho B whose sides are diagonal in
    position (vectors) or dense matrices: H gives (-i, H, 1) and (i, 1,
    H^dag); (kappa, L) gives (kappa, L, L^dag), (-kappa/2, L^dag L, 1) and
    (-kappa/2, 1, L^dag L); c [a, {b, rho}] and c [a, [b, rho]] give
    (c, a b, 1), (+-c, a, b), (-c, b, a) and (-+c, 1, b a); a sandwich
    c a rho b gives (c, a, b).  One rule places each piece: two diagonal
    sides add c a_i b_j to the elementwise kernel K, a side of all ones adds
    c times the other side to G or G', anything else is a product A rho B.

    What is diagonal in momentum is taken out first; it acts elementwise on
    fft2(rho), whose column q carries FFT mode -q.  A GridOperator H's E(k)
    is the momentum kernel M = -i (E_k - E_{-q}^*), and c [a, {b, rho}] or
    c [a, [b, rho]] with a diagonal in position and b in momentum is
    (a_i - a_j) o F^-1(C o fft2(rho)), C = c (b_k +- b_{-q}), one C per
    distinct a.  All of it keeps H rho - rho H^dag for a non-Hermitian H.
    An apply is K o rho, G rho + rho G', one fft2 and one ifft2 of the
    stack [M, C, ...] o fft2(rho), and the products.  A model whose kernel
    has no small operator form passes it as `kernel`; it adds to the
    folded one.  A quadratic generator on a grid passes its moment flow as
    `moments`, (A, b, grid): d m / dt = A m + b for m = (<x>, <p>, <x^2>,
    <xp + px>, <p^2>) on the Grid1D grid, which `gaussian` reads.
    """

    def __init__(self, hamiltonian: Operator | None,
                 lindblad_ops: Sequence[tuple[float, Operator]] = (),
                 extra_terms: Sequence[ExtraTerm] = (),
                 kernel: np.ndarray | None = None,
                 moments: tuple[np.ndarray, np.ndarray, Grid1D] | None = None):
        dims = set()
        if hamiltonian is not None:
            dims.add(hamiltonian.dim)
        for rate, op in lindblad_ops:
            if rate < 0:
                raise ValueError(f"Lindblad rate must be nonnegative, got {rate}")
            dims.add(op.dim)
        for t in extra_terms:
            dims.add(t.a.dim)
            dims.add(t.b.dim)
        if kernel is not None:
            kernel = np.array(kernel, ndmin=2)
            dims.update(kernel.shape)  # a non-square kernel mixes dimensions
        if len(dims) > 1:
            raise ValueError(f"mixed operator dimensions {dims}")
        if not dims:
            raise ValueError("generator needs at least one operator")
        self.dim = dims.pop()
        self.hamiltonian = hamiltonian
        self.lindblad_ops = tuple((float(r), op) for r, op in lindblad_ops)
        self.extra_terms = tuple(extra_terms)
        #: part of the kernel was passed in, with no operators behind it
        self.bare_kernel = kernel is not None
        #: (A, b, grid) of the moment flow, or None
        self.moments = moments
        one = np.ones(self.dim)
        pieces = []  # (c, A, B) of each c A rho B
        for rate, op in self.lindblad_ops:
            l = _side(op)
            l_dag = l.conj().T  # .T leaves a diagonal as it is
            no_jump = _times(l_dag, l)
            pieces += [(rate, l, l_dag), (-0.5 * rate, no_jump, one), (-0.5 * rate, one, no_jump)]
        modes = -np.arange(self.dim)  # column q of fft2 carries FFT mode -q
        e = hamiltonian.kinetic if isinstance(hamiltonian, GridOperator) else None
        #: -i (E_k - E_{-q}^*) of a GridOperator H, acting on fft2(rho), or None
        self.kinetic_kernel = None if e is None else -1j * np.subtract.outer(e, e[modes].conj())
        h = hamiltonian.potential if e is not None else (
            None if hamiltonian is None else _side(hamiltonian))
        if h is not None:
            pieces += [(-1j, h, one), (1j, one, h.conj().T)]
        # [C, a_i - a_j] per position-diagonal a of the extra terms that fold
        cross: dict[bytes, list] = {}
        for t in self.extra_terms:
            c, sign, a = t.coeff, 1.0 if t.kind == "comm_anticomm" else -1.0, _side(t.a)
            kinetic = isinstance(t.b, GridOperator) and t.b.potential is None
            if t.kind != "sandwich" and kinetic and a.ndim == 1:
                b = t.b.kinetic
                if a.tobytes() not in cross:
                    cross[a.tobytes()] = [0.0, np.subtract.outer(a, a)]
                cross[a.tobytes()][0] += c * np.add.outer(b, sign * b[modes])
                continue
            b = _side(t.b)
            if t.kind == "sandwich":
                pieces.append((c, a, b))
            else:  # c [a, b rho +- rho b] = c (a b rho +- a rho b - b rho a -+ rho b a)
                pieces += [(c, _times(a, b), one), (sign * c, a, b), (-c, b, a),
                           (-sign * c, one, _times(b, a))]
        k, g, g_prime = kernel, None, None
        #: (A, B) of each two-sided product A rho B
        self._products = []
        for c, a, b in pieces:
            if a.ndim == b.ndim == 1:
                k = _add(k, np.multiply.outer(c * a, b))
            elif b.ndim == 1 and np.all(b == 1):
                g = _add(g, c * a)
            elif a.ndim == 1 and np.all(a == 1):
                g_prime = _add(g_prime, c * b)
            else:
                self._products.append((c * np.diag(a) if a.ndim == 1 else c * a,
                                       np.diag(b) if b.ndim == 1 else b))
        self.kernel = k
        #: G and G' of G rho + rho G', each or None
        self._g, self._g_prime = g, g_prime
        #: (momentum kernel, position factor or None) of each slice of the stack
        self._momentum = ([] if e is None else [(self.kinetic_kernel, None)]) + list(cross.values())
        #: E(k) plus a Hermitian elementwise kernel, which split_march steps exactly
        self.splits = g is None and g_prime is None and not self._products and not cross and (
            k is None or np.max(np.abs(k - k.conj().T)) <= CP_EIGENVALUE_TOL)

    @classmethod
    def from_first_standard_form(cls, hamiltonian: Operator | None,
                                 gamma: np.ndarray, basis: Sequence[Operator],
                                 ) -> "LindbladGenerator":
        """Diagonalize a first-standard-form coefficient matrix.

        gamma must be Hermitian with eigenvalues >= -1e-8; eigenvalues in
        [-1e-8, 0) are clamped to zero.  The resulting Lindblad operators are
        the eigenvector-weighted combinations of the basis operators.
        """
        g = np.asarray(gamma, dtype=complex)
        n = len(basis)
        if g.shape != (n, n):
            raise ValueError("coefficient matrix shape does not match basis size")
        if np.max(np.abs(g - g.conj().T)) > 1e-10:
            raise ValueError("coefficient matrix must be Hermitian")
        w, v = np.linalg.eigh(g)
        if w[0] < -1e-8:
            raise ValueError(
                f"coefficient matrix has negative eigenvalue {w[0]}; "
                "not a valid semigroup generator")
        ops = []
        for mu in range(n):
            rate = max(float(w[mu]), 0.0)
            if rate == 0.0:
                continue
            l = sum(v[alpha, mu] * basis[alpha].matrix for alpha in range(n))
            ops.append((rate, Operator(l)))
        return cls(hamiltonian, ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Right-hand side of the master equation for raw state matrices.

        rho may be one (dim, dim) matrix or a stack (..., dim, dim); every
        term, the elementwise kernel included, acts on the last two axes.
        """
        out = (np.zeros_like(rho, dtype=complex) if self.kernel is None
               else np.multiply(self.kernel, rho, dtype=complex))
        if self._g is not None:
            out += self._g @ rho
        if self._g_prime is not None:
            out += rho @ self._g_prime
        if self._momentum:
            rho_k = scipy.fft.fft2(rho)
            stack = np.empty((len(self._momentum),) + rho_k.shape, dtype=complex)
            for s, (g, _) in zip(stack, self._momentum):
                np.multiply(g, rho_k, out=s)
            for s, (_, f) in zip(scipy.fft.ifft2(stack, overwrite_x=True), self._momentum):
                if f is not None:
                    s *= f
                out += s
        for a, b in self._products:
            out += a @ rho @ b
        return out

    def superoperator(self) -> np.ndarray:
        """Dense dim^2 x dim^2 matrix of the generator on row-major vec(rho)."""
        d = self.dim
        s = np.empty((d * d, d * d), dtype=complex)
        for i in range(d):
            basis = np.zeros((d, d, d), dtype=complex)
            basis[:, i] = np.eye(d)  # basis[j] = |i><j|, column i d + j
            s[:, i * d:(i + 1) * d] = self.apply(basis).reshape(d, d * d).T
        return s


def apply_generator(gen: LindbladGenerator, rho: DensityMatrix) -> np.ndarray:
    """Master-equation time derivative of a density matrix."""
    if rho.dim != gen.dim:
        raise ValueError("state dimension does not match the generator")
    return gen.apply(np.array(rho.matrix))


# ---------------------------------------------------------------------------
# Fixed-step integration
# ---------------------------------------------------------------------------

def record_steps(n_steps: int, record_stride: int) -> list[int]:
    """The record schedule: step 0, every record_stride-th step, the last step."""
    steps = list(range(0, n_steps + 1, record_stride))
    return steps + [n_steps] if n_steps % record_stride else steps


def _march(state: np.ndarray, step: Callable[[np.ndarray], np.ndarray],
           n_steps: int, record_stride: int) -> Iterator[np.ndarray]:
    """The stepping loop: yield the state at every scheduled record, the first as given;
    step(state) takes one step and returns a new object, as records are kept as yielded."""
    done = 0
    for target in record_steps(n_steps, record_stride):
        for _ in range(target - done):
            state = step(state)
        done = target
        yield state


def split_march(gen: LindbladGenerator, rho0: np.ndarray, dt: float, n_steps: int,
                record_stride: int) -> Iterator[np.ndarray]:
    """Strang-split stepping of H = E(k) + V(x) plus a Hermitian elementwise kernel K.

    The generator folds the potential into its kernel as -i(V_i - V_j^*).  A
    step is the exact factor exp(K dt) on rho and the exact phase exp(M dt)
    of the generator's momentum kernel M on fft2(rho).  The state stays in
    momentum with half a phase pending, so half steps fuse: a step is one
    ifft2, the factor, one fft2 and the phase.
    Yields the state at every scheduled record, as _march does: rho0, then
    exactly Hermitian matrices.  A generator that does not split
    (`LindbladGenerator.splits`) or a non-Hermitian rho0 raises ValueError.
    """
    if not gen.splits:
        raise ValueError("the split step needs H = E(k) + V(x) and a Hermitian kernel, "
                         "without G, products or momentum cross terms")
    if np.max(np.abs(rho0 - rho0.conj().T)) > CP_EIGENVALUE_TOL:
        raise ValueError("the split step needs a Hermitian rho0")
    decay = np.exp(dt * (0.0 if gen.kernel is None else gen.kernel))
    if gen.kinetic_kernel is None:
        yield from _march(rho0, lambda r: r * decay, n_steps, record_stride)
        return

    phase, half = np.exp(dt * gen.kinetic_kernel), np.exp(0.5 * dt * gen.kinetic_kernel)

    def step(s: np.ndarray) -> np.ndarray:
        r = scipy.fft.ifft2(s)
        r *= decay
        s = scipy.fft.fft2(r, overwrite_x=True)
        s *= phase
        return s

    def record(s: np.ndarray) -> np.ndarray:
        r = scipy.fft.ifft2(s / half)
        return 0.5 * (r + r.conj().T)

    march = _march(scipy.fft.fft2(rho0) * half, step, n_steps, record_stride)
    # periodic boundaries: packets must stay clear of the grid edges
    yield from itertools.chain([rho0], map(record, itertools.islice(march, 1, None)))


def momentum_representation(rho: np.ndarray) -> np.ndarray:
    """rho in the FFT's momentum modes: F rho F^dag / n, F the DFT with rows e^{-i k x}."""
    return scipy.fft.fft(scipy.fft.ifft(rho, axis=1), axis=0)


def characteristic(gen: LindbladGenerator, rho0: np.ndarray, times: np.ndarray
                   ) -> Iterator[np.ndarray] | None:
    """rho0, then rho_t at each later entry of times, straight from rho0 for free motion
    E = eps a^2 on the signed modes a and the kernel K = -lam (i - j)^2, lam >= 0, or None.

    With c the Fourier coefficients of rho0, l = a - b and s = i - j, both
    without wrap: rho_t[i, i - s] = sum_l g e^{2 pi i l i / n} sum_b c_{b+l,b}
    e^{-i eps ((b+l)^2 - b^2) t} e^{2 pi i b s / n}, g = exp(-lam (s^2 t - s l w
    t^2 + l^2 w^2 t^3 / 3)), w = eps n / pi.  So rho0's first and last rows and
    columns, in position and in momentum, must be below CP_EIGENVALUE_TOL times
    its largest entry, else None.  g is the characteristic function of a Gaussian
    mixture of momentum kicks and translations: every record is completely positive.
    """
    e = None if gen.kinetic_kernel is None else gen.hamiltonian.kinetic
    if not gen.splits or e is None or gen.kernel is None or gen.dim < 2:
        return None
    n, k, a = gen.dim, gen.kernel, np.fft.fftfreq(gen.dim, 1.0 / gen.dim)  # a in FFT order
    rows, cols = np.indices((n, n))
    eps, lam = e.real[1], -k.real[1, 0]
    c = momentum_representation(rho0)  # c_ab / n
    # (departure, scale): E and K off their forms, rho0's edges in x and in k
    off = [(e - eps * a ** 2, e), (k + lam * (rows - cols) ** 2, k)] + [
        (m[i], m) for m in (rho0, np.fft.fftshift(c)) for i in (np.s_[[0, -1]], np.s_[:, [0, -1]])]
    if lam < 0 or any(np.max(np.abs(d)) > CP_EIGENVALUE_TOL * np.max(np.abs(m)) for d, m in off):
        return None
    # c_{b+l, b} goes to row l mod 2n and column b mod n
    onto = (np.subtract.outer(a, a).astype(int) % (2 * n)) * n + cols
    diagonals = np.zeros((2 * n, n), dtype=complex)
    ell, s, w = ((np.arange(2 * n) + n) % (2 * n) - n)[:, None], np.arange(n), eps * n / np.pi
    gather = np.where(rows >= cols, rows * n + rows - cols, cols * n + cols - rows)  # z[i, i - j]

    def record(t: float) -> np.ndarray:
        u = np.exp(-1j * t * e.real)
        diagonals.flat[onto] = u[:, None] * c * u.conj()
        f = scipy.fft.ifft(diagonals, axis=1)
        f *= np.exp(-lam * t * (s ** 2 - s * ell * w * t + (ell * w * t) ** 2 / 3))
        rho = scipy.fft.ifft(f[:n] + f[n:], axis=0, norm="forward").take(gather)
        np.conjugate(rho, out=rho, where=cols > rows)
        np.fill_diagonal(rho, rho.diagonal().real)
        return rho
    return itertools.chain([rho0], map(record, times[1:]))


def moment_flow(a: np.ndarray, b: np.ndarray, m0: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """m(t) of the affine flow d m / dt = A m + b from m(0) = m0, one row per
    time: (m, 1) moves by the matrix exponential of [[A, b], [0, 0]] t."""
    from scipy.linalg import expm
    flow = np.zeros((len(b) + 1,) * 2)
    flow[:-1, :-1], flow[:-1, -1] = a, b
    m0 = np.append(np.asarray(m0, dtype=float), 1.0)
    return np.array([(expm(flow * t) @ m0)[:-1] for t in times])


def grid_moments(rho: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Tr(O rho) for O = x, p, x^2, xp + px, p^2 of a Hermitian rho on a
    grid, with p the grid's spectral momentum."""
    x, k = grid.x, grid.k
    pos, mom = rho.diagonal().real, momentum_representation(rho).diagonal().real
    p_rho = scipy.fft.ifft(k[:, None] * scipy.fft.fft(rho, axis=0), axis=0)
    return np.array([x @ pos, k @ mom, x ** 2 @ pos, 2.0 * (x @ p_rho.diagonal()).real,
                     k ** 2 @ mom])


def gaussian(gen: LindbladGenerator, rho0: np.ndarray, times: np.ndarray
             ) -> Iterator[np.ndarray] | None:
    """The records at times of a Gaussian rho0 under a generator that carries
    its moment flow (A, b, grid), from rho0's moments; None for any other case.

    A quadratic master equation keeps a Gaussian state Gaussian, its mean
    (X, P) and covariance S moving by the flow of m = (<x>, <p>, <x^2>,
    <xp + px>, <p^2>) (Hu, Paz & Zhang, PRD 45, 2843, 1992).  With r = (x + x')
    / 2 and s = x - x' the record is exp[-(r - X)^2 / 2 S_xx - det S s^2 / 2 S_xx
    + i (S_xp / S_xx (r - X) + P) s] over its trace.  It needs the Gaussian of
    rho0's moments to equal rho0 within CP_EIGENVALUE_TOL times its largest
    entry, the predicted densities at the grid edges, in x and at k = +-pi/dx,
    within GAUSSIAN_EDGE_TOL of their peaks at every time, and det S >= 1/4
    at every time after the first.  Then each record is a continuum state
    sampled on the grid, a positive semidefinite matrix.  The first record
    is the Gaussian rebuilt from rho0.
    """
    if gen.moments is None or len(rho0) != gen.dim:
        return None
    a, b, grid = gen.moments
    m = moment_flow(a, b, grid_moments(rho0, grid), times)
    mean_x, mean_p = m[:, 0], m[:, 1]
    s_xx, s_pp = m[:, 2] - mean_x ** 2, m[:, 4] - mean_p ** 2
    s_xp = 0.5 * m[:, 3] - mean_x * mean_p
    det = s_xx * s_pp - s_xp ** 2
    if not (np.all(s_xx > 0.0) and np.all(s_pp > 0.0) and np.all(det[1:] >= 0.25)):
        return None
    # squared distance of the mean to the nearer edge, in x and in k, over the variance
    x, k_edge = grid.x, np.pi / grid.dx
    gap_x = np.maximum(np.minimum(mean_x - x[0], x[-1] - mean_x), 0.0) ** 2 / s_xx
    gap_k = np.maximum(k_edge - np.abs(mean_p), 0.0) ** 2 / s_pp
    if not np.all(np.exp(-0.5 * np.minimum(gap_x, gap_k)) <= GAUSSIAN_EDGE_TOL):
        return None
    r, s = 0.5 * np.add.outer(x, x), np.subtract.outer(x, x)

    def record(i: int) -> np.ndarray:
        u = r - mean_x[i]
        rho = np.exp(-(u * u + det[i] * s * s) / (2.0 * s_xx[i])
                     + 1j * (s_xp[i] / s_xx[i] * u + mean_p[i]) * s)
        rho /= rho.trace().real
        return rho

    first = record(0)
    if not np.max(np.abs(first - rho0)) <= CP_EIGENVALUE_TOL * np.max(np.abs(rho0)):
        return None
    return itertools.chain([first], map(record, range(1, len(times))))


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_final: float
    record_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        ratio = self.t_final / self.dt
        whole = round(ratio) if math.isfinite(ratio) else 0
        if whole < 1 or abs(ratio - whole) > 1e-9 * ratio:
            raise ValueError(f"t_final = {float(self.t_final)!r} must be a whole number, "
                             f"at least 1, of steps dt = {float(self.dt)!r}: "
                             f"t_final / dt = {ratio:.12g}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        # the whole-step rule leaves round() only round-off to absorb
        return int(round(self.t_final / self.dt))

    def record_times(self) -> np.ndarray:
        """The time of each record: the one place a step index becomes a time."""
        return np.array(record_steps(self.n_steps, self.record_stride), dtype=float) * self.dt


@dataclass
class EvolutionResult:
    """Records of one run, each a DensityMatrix validated once as the run went."""

    times: np.ndarray
    states: list[DensityMatrix]
    evolver: str

    @property
    def matrices(self) -> list[np.ndarray]:
        return [s.matrix for s in self.states]

    def final(self) -> DensityMatrix:
        return self.states[-1]


class PositivityLossError(RuntimeError):
    """State positivity drifted past tolerance: dt too large or generator invalid."""


def _rk4_step(gen: LindbladGenerator, rho: np.ndarray, dt: float) -> np.ndarray:
    k1 = gen.apply(rho)
    k2 = gen.apply(rho + 0.5 * dt * k1)
    k3 = gen.apply(rho + 0.5 * dt * k2)
    k4 = gen.apply(rho + dt * k3)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _positivity_hint(gen: LindbladGenerator, dt: float, evolver: str) -> str:
    """What to try when gen's states lose positivity under steps of dt.

    A kernel rate beyond RK4's stability interval, |dt K| > 2.785 on the
    real axis, makes an RK4 step itself blow up, whatever the generator;
    the other evolvers step exactly.
    """
    stiffness = 0.0 if gen.kernel is None else dt * float(np.max(np.abs(gen.kernel)))
    if evolver == "rk4" and stiffness > RK4_STABILITY_LIMIT:
        return (f"reduce dt: dt * max|K| = {stiffness:.3g} exceeds RK4's "
                f"stability limit {RK4_STABILITY_LIMIT}")
    if any(t.label == "damping" for t in gen.extra_terms):
        return ("the damping term gamma [x, {p, rho}] is not completely positive; "
                "lindblad_repair_caldeira_leggett is the completely positive form")
    return "reduce dt or check the generator" if evolver == "rk4" else "check the generator"


def _validated(rho: np.ndarray, t: float, hint: str, certified: bool) -> DensityMatrix:
    """rho as a DensityMatrix with its trace checked and, unless its step is
    certified completely positive, one eigendecomposition for positivity."""
    tr_err = abs(np.trace(rho) - 1.0)
    if not np.isfinite(tr_err) or tr_err > TRACE_DRIFT_TOL:
        raise PositivityLossError(f"trace drifted by {tr_err:.3e} at t={t:.6g}; {hint}")
    if certified:
        return DensityMatrix.certified(rho)
    try:
        return DensityMatrix(rho, tol=1e-6, clamp=POSITIVITY_DRIFT_TOL)
    except ValueError as exc:
        raise PositivityLossError(f"{exc} at t={t:.6g}; {hint}") from exc


def _record(gen: LindbladGenerator, rho0: DensityMatrix, cfg: IntegratorConfig,
            evolver: str, records: Iterator[np.ndarray],
            certified: bool) -> EvolutionResult:
    """One matrix per cfg.record_times(): the first stands for rho0, the rest are validated."""
    if rho0.dim != gen.dim:
        raise ValueError("state dimension does not match the generator")
    hint, times = _positivity_hint(gen, cfg.dt, evolver), cfg.record_times()
    states = [rho0] + [_validated(rho, t, hint, certified) for t, rho in
                       zip(times[1:], itertools.islice(records, 1, None), strict=True)]
    return EvolutionResult(times, states, evolver)


def evolve(gen: LindbladGenerator, rho0: DensityMatrix,
           cfg: IntegratorConfig) -> EvolutionResult:
    """Integrate the master equation by RK4, recording every record_stride-th step.

    Each recorded state is validated once: its trace, then one
    eigendecomposition for positivity and the clamp of round-off negatives.
    Violations raise PositivityLossError.  Tests check `propagate` against it.
    """
    march = _march(np.array(rho0.matrix), lambda r: _rk4_step(gen, r, cfg.dt),
                   cfg.n_steps, cfg.record_stride)
    return _record(gen, rho0, cfg, "rk4", march, certified=False)


def propagate(gen: LindbladGenerator, rho0: DensityMatrix,
              cfg: IntegratorConfig) -> EvolutionResult:
    """Record rho0's evolution by the exact route the generator's structure allows, else RK4.

    Free motion E = eps a^2 with no potential, K = -lam (i - j)^2 with lam >= 0
    and a rho0 clear of the grid edges, in position and in momentum, take
    `characteristic` ("characteristic"), each record straight from rho0.
    A generator that carries its moment flow (qbm, caldeira_leggett) and a
    Gaussian rho0 take `gaussian` ("gaussian"), each record from rho0's
    moments, when three conditions hold: the Gaussian of those moments is
    rho0, the predicted edge densities stay within GAUSSIAN_EDGE_TOL of the
    peak, and det S >= 1/4 at every record time.  Any other E(k) plus an
    elementwise kernel, or rho0 at the edges, takes `split_march`
    ("split_step"), any other generator of dim <= EXACT_MAX_DIM its
    propagator P = expm(L dt) ("exact"), a larger one `evolve` ("rk4").
    The characteristic and Gaussian records are completely positive by
    construction, a step is certified once per run by a positive
    semidefinite Schur factor exp(K dt) or by check_complete_positivity(P);
    certified records have only their trace checked.
    """
    for evolver, closed_form in (("characteristic", characteristic), ("gaussian", gaussian)):
        records = closed_form(gen, rho0.matrix, cfg.record_times())
        if records is not None:
            return _record(gen, rho0, cfg, evolver, records, True)
    if gen.splits:
        f = None if gen.kernel is None else np.exp(gen.kernel * cfg.dt)
        cp = f is None or np.linalg.eigvalsh(f)[0] >= -CP_EIGENVALUE_TOL
        march = split_march(gen, rho0.matrix, cfg.dt, cfg.n_steps, cfg.record_stride)
        return _record(gen, rho0, cfg, "split_step", march, cp)
    if gen.dim > EXACT_MAX_DIM:
        return evolve(gen, rho0, cfg)
    from scipy.linalg import expm
    p = expm(gen.superoperator() * cfg.dt)
    march = _march(rho0.matrix, lambda r: (p @ r.reshape(-1)).reshape(r.shape),
                   cfg.n_steps, cfg.record_stride)
    return _record(gen, rho0, cfg, "exact", march, check_complete_positivity(p)["cp"])


def convergence_check(gen: LindbladGenerator, rho0: DensityMatrix,
                      cfg: IntegratorConfig) -> float:
    """Max-entry change of the final state when dt is halved."""
    coarse = evolve(gen, rho0, cfg).final()
    fine_cfg = IntegratorConfig(cfg.dt / 2.0, cfg.t_final,
                                record_stride=2 * cfg.record_stride)
    fine = evolve(gen, rho0, fine_cfg).final()
    return float(np.max(np.abs(coarse.matrix - fine.matrix)))


# ---------------------------------------------------------------------------
# Spectral densities, environment kernels, and weak-coupling coefficients
# ---------------------------------------------------------------------------

def ohmic_spectral_density(omega: float, mass: float, gamma0: float,
                           cutoff: float) -> float:
    """Ohmic spectral density with Lorentz-Drude rolloff.

    J(w) = (2 M gamma0 / pi) w Lambda^2 / (Lambda^2 + w^2); linear in w well
    below the cutoff and falling off as 1/w above it.
    """
    if omega < 0:
        raise ValueError("frequency must be nonnegative")
    return (2.0 * mass * gamma0 / math.pi) * omega * cutoff ** 2 / (cutoff ** 2 + omega ** 2)


def ohmic(mass: float, gamma0: float, cutoff: float) -> Callable[[float], float]:
    return lambda w: ohmic_spectral_density(w, mass, gamma0, cutoff)


def _coth(x: float) -> float:
    # series switch keeps the w -> 0 limit of J(w) coth(w/2T) finite
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    if x > 36.0:
        return 1.0
    return 1.0 / math.tanh(x)


class QuadratureError(RuntimeError):
    """An environment integral failed to converge; increase the cutoff."""


def _sin_over(x: float, tc: float) -> float:
    """sin(x tc) / (2 x), finite at x = 0."""
    return 0.5 * tc if x == 0.0 else 0.5 * math.sin(x * tc) / x


def _versin_over(x: float, tc: float) -> float:
    """(1 - cos(x tc)) / (2 x), finite at x = 0 and free of cancellation."""
    return 0.0 if x == 0.0 else math.sin(0.5 * x * tc) ** 2 / x


def _lag_kernel(kind: str, w: float, omega: float, tc: float) -> float:
    """K(w) = int_0^tc b(w tau) s(omega tau) dtau, kind = b s in {c, s}^2."""
    below, above = w - omega, w + omega
    if kind == "cc":
        return _sin_over(below, tc) + _sin_over(above, tc)
    if kind == "ss":
        return _sin_over(below, tc) - _sin_over(above, tc)
    if kind == "sc":
        return _versin_over(above, tc) + _versin_over(below, tc)
    return _versin_over(above, tc) - _versin_over(below, tc)  # "cs"


def _lag_kernel_tail(kind: str, omega: float, tc: float):
    """K(w) beyond w = omega as sum over (weight, p, q) of
    (p w + q) / (w^2 - omega^2) times weight(w tc), weight None meaning 1."""
    c, s = math.cos(omega * tc), math.sin(omega * tc)
    return {
        "cc": (("sin", c, 0.0), ("cos", 0.0, -s * omega)),
        "ss": (("sin", 0.0, c * omega), ("cos", -s, 0.0)),
        "sc": ((None, 1.0, 0.0), ("sin", 0.0, -s * omega), ("cos", -c, 0.0)),
        "cs": ((None, 0.0, -omega), ("sin", s, 0.0), ("cos", 0.0, c * omega)),
    }[kind]


@dataclass(frozen=True)
class CorrelationKernelSpec:
    """A stationary environment: spectral density J at temperature T.

    Its noise and dissipation kernels

        nu(tau)  = int_0^inf J(w) coth(w / 2 T) cos(w tau) dw
        eta(tau) = int_0^inf J(w) sin(w tau) dw

    enter the weak-coupling coefficients through their integrals over
    the lag tau in [0, cutoff_time].  T = 0 is taken as the coth -> 1 limit.
    """

    J: Callable[[float], float]
    T: float
    cutoff_time: float

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("temperature must be nonnegative")

    def noise_weight(self, w: float) -> float:
        """J(w) coth(w / 2 T), the spectral weight of nu."""
        if self.T == 0:
            return self.J(w)
        # w = 0 is a 0 * inf limit point for ohmic densities; nudging into
        # the smallest normal range evaluates the limit correctly
        w = max(w, 1e-300)
        return self.J(w) * _coth(w / (2.0 * self.T))

    def nu(self, tau: float) -> float:
        """The noise kernel at one lag, by Fourier-weighted quadrature."""
        if tau == 0.0:
            tau = 1e-12 * self.cutoff_time
        with warnings.catch_warnings():
            # slow tail convergence of the Fourier extrapolation is benign
            # here; divergence still surfaces as a non-finite value
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, _ = quad(self.noise_weight, 0.0, np.inf, weight="cos", wvar=tau,
                          limit=400, limlst=200)
        if not np.isfinite(val):
            raise QuadratureError(f"noise kernel diverged at tau={tau}")
        return val

    def eta(self, tau: float) -> float:
        """The dissipation kernel at one lag, by Fourier-weighted quadrature."""
        if tau == 0.0:
            return 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, _ = quad(self.J, 0.0, np.inf, weight="sin", wvar=tau,
                          limit=400, limlst=200)
        if not np.isfinite(val):
            raise QuadratureError(f"dissipation kernel diverged at tau={tau}")
        return val

    def lag_integral(self, kernel: Literal["nu", "eta"], trig: Literal["cos", "sin"],
                     omega: float) -> tuple[float, float]:
        """int_0^tc kernel(tau) trig(omega tau) dtau and its error estimate.

        The tau integral is done in closed form, which leaves one integral
        over frequency, int_0^inf A(w) K(w) dw with A = J coth(w / 2T) for
        nu and A = J for eta.  Writing S(x) = sin(x tc) / 2x and
        C(x) = (1 - cos(x tc)) / 2x, the kernels are

            nu cos:  K = S(w - omega) + S(w + omega)
            nu sin:  K = C(w + omega) - C(w - omega)
            eta sin: K = S(w - omega) - S(w + omega)
            eta cos: K = C(w + omega) + C(w - omega).

        [0, w0] is integrated adaptively with a break point at omega; beyond
        w0 each kernel splits into smooth parts times sin(w tc) and
        cos(w tc), which go to Fourier-weighted quadrature.  A sum that is
        not finite, whose error estimate exceeds 1% of it, or whose tail fails
        to converge, grows, or falls no faster than 1/w, raises QuadratureError.
        Every part is integrated to a relative tolerance of 1e-8.
        """
        if kernel not in ("nu", "eta") or trig not in ("cos", "sin"):
            raise ValueError(f"unknown lag integral {kernel} {trig}")
        tc, rtol = self.cutoff_time, 1e-8
        # nu is a cosine transform of its weight, eta a sine transform
        kind = ("c" if kernel == "nu" else "s") + trig[0]
        amp = self.noise_weight if kernel == "nu" else self.J
        w0 = 2.0 * omega + 40.0 * math.pi / tc
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, err = quad(lambda w: amp(w) * _lag_kernel(kind, w, omega, tc),
                            0.0, w0, points=[omega] if omega > 0 else None,
                            epsabs=0.0, epsrel=rtol, limit=1000)
        # the tail's tolerance comes from val, and a nan one crashes QUADPACK's QAWF
        if not np.isfinite(val):
            raise QuadratureError(f"{kernel} {trig} integral over [0, {w0:.6g}] is not "
                                  f"finite ({val}); the bath parameters overflow")
        diverged = False
        for weight, p, q in _lag_kernel_tail(kind, omega, tc):
            if p == 0.0 and q == 0.0:
                continue

            def part(w, p=p, q=q):
                return amp(w) * (p * w + q) / (w * w - omega * omega)

            # QUADPACK's infinite-range rule reports success on a log-divergent
            # tail: w part(w) must fall at least tenfold from 1e3 w0 to 1e6 w0
            if weight is None and not abs(part(1e6 * w0)) <= 1e-4 * abs(part(1e3 * w0)):
                diverged = True
                continue

            # QAWF takes an absolute tolerance only: rtol of the sum so far.
            # full_output appends a message when QUADPACK fails; the Fourier
            # extrapolation also "sums" a growing tail, so its last cycle
            # must not outweigh its first
            v, e, info, *failed = quad(part, w0, np.inf, weight=weight, wvar=tc,
                                       epsabs=rtol * abs(val) or rtol, epsrel=rtol,
                                       limit=1000, limlst=200, full_output=1)
            cycles = info.get("rslst")
            diverged = diverged or bool(failed) or (
                cycles is not None and abs(cycles[info["lst"] - 1]) > abs(cycles[0]))
            val, err = val + v, err + e
        if diverged or not np.isfinite(val) or (val != 0.0 and err > 1e-2 * abs(val)):
            raise QuadratureError(
                f"{kernel} {trig} integral did not converge (value {val}, error {err}); "
                "the spectral density must fall off at high frequency")
        return val, err


@dataclass(frozen=True)
class BornMarkovCoefficients:
    """Weak-coupling coefficients of the oscillator master equation.

    omega_shift_sq renormalizes the squared frequency; gamma damps momentum;
    D multiplies the position double commutator (spatial decoherence); f
    multiplies the anomalous x-p double commutator.
    """

    omega_shift_sq: float
    gamma: float
    D: float
    f: float
    quadrature_error: float


def born_markov_coefficients(kernels: CorrelationKernelSpec, omega: float,
                             mass: float = 1.0) -> BornMarkovCoefficients:
    """Integrate the kernels against the system frequency.

    omega_shift_sq = -(2/M)   int_0^tc eta(tau) cos(omega tau) dtau
    gamma          = (1/M w)  int_0^tc eta(tau) sin(omega tau) dtau
    D              =          int_0^tc nu(tau)  cos(omega tau) dtau
    f              = -(1/M w) int_0^tc nu(tau)  sin(omega tau) dtau

    Each is one frequency integral (CorrelationKernelSpec.lag_integral),
    e.g. D = int_0^inf J(w) coth(w / 2T) K(w) dw with
    K(w) = sin((w - omega) tc) / 2(w - omega) + sin((w + omega) tc) / 2(w + omega);
    quadrature_error is the sum of their error estimates.

    gamma is the rate in the damping term -i gamma [x, {p, rho}]; for the
    ohmic Lorentz-Drude density it is gamma0 Lambda^2 / (Lambda^2 + w^2).
    """
    eta_cos, eta_sin, nu_cos, nu_sin = (
        kernels.lag_integral(kernel, trig, omega)
        for kernel, trig in (("eta", "cos"), ("eta", "sin"), ("nu", "cos"), ("nu", "sin")))
    return BornMarkovCoefficients(
        omega_shift_sq=-2.0 / mass * eta_cos[0],
        gamma=eta_sin[0] / (mass * omega),
        D=nu_cos[0],
        f=-nu_sin[0] / (mass * omega),
        quadrature_error=eta_cos[1] + eta_sin[1] + nu_cos[1] + nu_sin[1],
    )


def born_markov_generator(hamiltonian: Operator | None,
                          system_ops: Sequence[Operator],
                          interaction_picture_ops: Sequence[Callable[[float], np.ndarray]],
                          correlation: Callable[[int, int, float], complex],
                          cutoff_time: float,
                          n_quadrature: int = 1001) -> LindbladGenerator:
    """Assemble a weak-coupling generator from correlation functions.

    For a monitoring interaction sum_alpha S_alpha (x) E_alpha the equation
    reads (hbar = 1)

        d rho/dt = -i [H, rho]
                   - sum_alpha ([S_alpha, B_alpha rho] + [rho C_alpha, S_alpha]),

    with the dressed operators

        B_alpha = int_0^tc sum_beta  corr(alpha, beta, tau)  S_beta(-tau) dtau
        C_alpha = int_0^tc sum_beta  corr(beta, alpha, -tau) S_beta(-tau) dtau.

    The caller supplies the interaction-picture trajectories tau ->
    S_beta(-tau) (these are model-specific: free evolution under the system
    Hamiltonian) and the environment correlation corr(alpha, beta, tau),
    for which stationarity gives corr(beta, alpha, -tau) =
    conj(corr(alpha, beta, tau)); that identity is used here.  The tau
    integrals run to cutoff_time on a Simpson grid of n_quadrature points
    (correlations must have decayed by then).  Each commutator is carried
    as a pair of sandwich terms, which keeps the generator exactly
    trace-preserving: -(S B) rho I joins G and -I rho (C S) joins G', so
    each system operator leaves the two products B rho S and S rho C.
    Note the result is generally not of completely positive form.
    """
    if len(system_ops) != len(interaction_picture_ops):
        raise ValueError("one trajectory per system operator required")
    if n_quadrature < 5 or n_quadrature % 2 == 0:
        raise ValueError("n_quadrature must be odd and >= 5")
    taus = np.linspace(0.0, cutoff_time, n_quadrature)
    dim = system_ops[0].dim
    n_ops = len(system_ops)
    # sample the trajectories once: traj[beta, k] = S_beta(-tau_k)
    traj = np.empty((n_ops, n_quadrature, dim, dim), dtype=complex)
    for beta, s_traj in enumerate(interaction_picture_ops):
        for k, tau in enumerate(taus):
            traj[beta, k] = np.asarray(s_traj(tau), dtype=complex)

    extra: list[ExtraTerm] = []
    ident = Operator.identity(dim)
    for alpha, s_op in enumerate(system_ops):
        b_integrand = np.zeros((n_quadrature, dim, dim), dtype=complex)
        c_integrand = np.zeros((n_quadrature, dim, dim), dtype=complex)
        for beta in range(n_ops):
            corr = np.array([correlation(alpha, beta, tau) for tau in taus])
            b_integrand += corr[:, None, None] * traj[beta]
            c_integrand += np.conj(corr)[:, None, None] * traj[beta]
        b_mat = scipy.integrate.simpson(b_integrand, x=taus, axis=0)
        c_mat = scipy.integrate.simpson(c_integrand, x=taus, axis=0)
        s = s_op.matrix
        # -[S, B rho] = -(S B) rho I + B rho S
        extra.append(ExtraTerm("sandwich", Operator(s @ b_mat), ident, -1.0,
                               label=f"bm_left_{alpha}"))
        extra.append(ExtraTerm("sandwich", Operator(b_mat), s_op, +1.0,
                               label=f"bm_left_{alpha}*"))
        # -[rho C, S] = -I rho (C S) + S rho C
        extra.append(ExtraTerm("sandwich", ident, Operator(c_mat @ s), -1.0,
                               label=f"bm_right_{alpha}"))
        extra.append(ExtraTerm("sandwich", s_op, Operator(c_mat), +1.0,
                               label=f"bm_right_{alpha}*"))
    return LindbladGenerator(hamiltonian, [], extra_terms=extra)


def caldeira_leggett_lindblad_operator(mass: float, T: float,
                                       x: Operator, p: Operator) -> Operator:
    """Single Lindblad operator of the minimally repaired high-T equation.

    L = sqrt(4 M k_B T) x + i sqrt(1 / (4 M k_B T)) p   (hbar = k_B = 1).
    With rate gamma0 this reproduces the high-temperature dissipator up to a
    small [p, [p, rho]] correction and a Hamiltonian {x,p}/2 shift, restoring
    complete positivity.
    """
    if T <= 0:
        raise ValueError("temperature must be positive")
    a = math.sqrt(4.0 * mass * T)
    b = math.sqrt(1.0 / (4.0 * mass * T))
    return Operator(a * x.matrix + 1j * b * p.matrix)


def lindblad_repair_caldeira_leggett(mass: float, gamma0: float, T: float,
                                     x: Operator, p: Operator,
                                     hamiltonian: Operator | None = None,
                                     ) -> LindbladGenerator:
    """Completely positive repair of the high-temperature limit.

    The generator carries the single Lindblad operator above at rate gamma0
    plus the Hamiltonian shift gamma0 {x, p} / 2 that the rewriting induces.
    """
    L = caldeira_leggett_lindblad_operator(mass, T, x, p)
    h_shift = 0.5 * gamma0 * (x.matrix @ p.matrix + p.matrix @ x.matrix)
    h = h_shift if hamiltonian is None else hamiltonian.matrix + h_shift
    return LindbladGenerator(Operator(h), [(gamma0, L)])


def pure_dephasing_qubit(D: float) -> LindbladGenerator:
    """Qubit monitored in the sigma_z basis.

    Implements the literal double commutator -D [sz, [sz, rho]] as the
    Lindblad pair (rate 2D, L = sigma_z).  Expanding it elementwise, the
    off-diagonal matrix elements decay at the effective rate 4D (the double
    commutator contributes 4 rho_01, not rho_01; texts that quote the decay
    rate as D are using a convention that differs by this factor of 4 from
    the literal operator expression).
    """
    from .core import SIGMA_Z
    if D < 0:
        raise ValueError("dephasing strength must be nonnegative")
    return LindbladGenerator(None, [(2.0 * D, SIGMA_Z)])


#: Off-diagonal decay rate per unit dephasing strength for the literal
#: double-commutator convention.
PURE_DEPHASING_RATE_FACTOR = 4.0
