"""Dense complex linear-algebra substrate.

Operators, state vectors, and density matrices are thin immutable wrappers
around dense complex numpy arrays, plus the handful of constructions the
rest of the package is built on: tensor products, partial traces, spectral
decompositions, coherent/Fock states, uniform position grids and CSV tables.

Everything is dense and aimed at desk scale (dimensions up to a few
thousand), except operators on a position grid: a `GridOperator` carries
its diagonals in momentum and in position, which a master-equation
generator applies elementwise to rho and to fft2(rho).  Arrays are frozen
after construction so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Default tolerance for Hermiticity / unit-trace / positivity checks.
DEFAULT_TOL = 1e-9

#: Eigenvalues in [-DEFAULT_TOL, 0) are treated as integrator round-off and
#: clamped to zero (with renormalization) when validating density matrices.
EIGENVALUE_CLAMP = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


class Operator:
    """A dense complex square matrix on a finite-dimensional Hilbert space."""

    __slots__ = ("_matrix", "dim")

    def __init__(self, matrix):
        m = _freeze(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be >= 1")
        self._matrix = m
        self.dim = m.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @classmethod
    def identity(cls, dim: int) -> "Operator":
        return cls(np.eye(dim))

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T)

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        d = self.matrix @ self.matrix.conj().T - np.eye(self.dim)
        return float(np.max(np.abs(d))) <= tol

    # Arithmetic returns plain Operators; scalars multiply elementwise.
    def __add__(self, other):
        return Operator(self.matrix + _as_matrix(other, self.dim))

    def __sub__(self, other):
        return Operator(self.matrix - _as_matrix(other, self.dim))

    def __mul__(self, scalar):
        return Operator(self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Operator(-self.matrix)

    def __matmul__(self, other):
        if isinstance(other, StateVector):
            return StateVector(self.matrix @ other.amplitudes, normalize=False)
        return Operator(self.matrix @ _as_matrix(other, self.dim))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _as_matrix(x, dim: int) -> np.ndarray:
    if isinstance(x, Operator):
        m = x.matrix
    elif isinstance(x, DensityMatrix):
        m = x.matrix
    else:
        m = np.asarray(x, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: expected {(dim, dim)}, got {m.shape}")
    return m


class StateVector:
    """A normalized pure state."""

    __slots__ = ("amplitudes", "dim")

    def __init__(self, amplitudes, normalize: bool = False):
        a = np.array(amplitudes, dtype=complex).reshape(-1)
        if a.size < 1:
            raise ValueError("state vector must have dimension >= 1")
        n = np.linalg.norm(a)
        if normalize:
            if n == 0:
                raise ValueError("cannot normalize the zero vector")
            a = a / n
        elif abs(n - 1.0) > 1e-8:
            raise ValueError(f"state vector norm {n} deviates from 1 beyond 1e-8")
        a.setflags(write=False)
        self.amplitudes = a
        self.dim = a.size

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return cls(a)

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        """|a><a|: positive by construction, so only the trace is checked."""
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        tr = np.trace(m)
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        return DensityMatrix.certified(0.5 * (m + m.conj().T))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(np.kron(self.amplitudes, other.amplitudes), normalize=False)

    def __repr__(self):
        return f"StateVector(dim={self.dim})"


class DensityMatrix:
    """A Hermitian, trace-one, positive-semidefinite operator.

    Small negative eigenvalues in [-clamp, 0), as produced by integrator
    drift, are clamped to zero and the spectrum is renormalized.  Anything
    more negative raises.  `eigenvalues` keeps the spectrum that check
    found, after the clamp (None for a state built by `certified`).
    """

    __slots__ = ("matrix", "dim", "eigenvalues")

    def __init__(self, matrix, tol: float = DEFAULT_TOL, clamp: float = EIGENVALUE_CLAMP):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > tol:
            raise ValueError(f"density matrix not Hermitian: max |rho - rho^dag| = {herm}")
        tr = np.trace(m)
        if abs(tr - 1.0) > max(tol, 1e-12):
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        m = 0.5 * (m + m.conj().T)
        # one eigendecomposition serves both the positivity test and the clamp
        w, v = np.linalg.eigh(m)
        wmin = float(w[0])
        if wmin < -clamp:
            raise ValueError(f"density matrix has negative eigenvalue {wmin}")
        if wmin < 0.0:
            # clamp round-off negatives and renormalize
            w = np.clip(w, 0.0, None)
            w = w / np.sum(w)
            m = (v * w) @ v.conj().T
        w.setflags(write=False)
        self.matrix, self.eigenvalues = _freeze(m), w
        self.dim = m.shape[0]

    @classmethod
    def certified(cls, m: np.ndarray) -> "DensityMatrix":
        """m, a complex matrix its maker vouches is a state, held as given:
        not copied, symmetrised or decomposed, only made read-only."""
        m.setflags(write=False)
        rho = object.__new__(cls)
        rho.matrix, rho.dim, rho.eigenvalues = m, m.shape[0], None
        return rho

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


# ---------------------------------------------------------------------------
# Pauli and qubit conveniences
# ---------------------------------------------------------------------------

SIGMA_X = Operator([[0, 1], [1, 0]])
SIGMA_Y = Operator([[0, -1j], [1j, 0]])
SIGMA_Z = Operator([[1, 0], [0, -1]])
IDENTITY_2 = Operator.identity(2)

KET_0 = StateVector.basis(2, 0)
KET_1 = StateVector.basis(2, 1)
KET_PLUS = StateVector(np.array([1, 1]) / np.sqrt(2))
KET_MINUS = StateVector(np.array([1, -1]) / np.sqrt(2))


def bloch_state(theta: float, phi: float) -> StateVector:
    """Qubit state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    return StateVector([math.cos(theta / 2.0),
                        complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)])


# ---------------------------------------------------------------------------
# Tensor products and partial trace
# ---------------------------------------------------------------------------

def tensor(a: Operator, b: Operator, *rest: Operator) -> Operator:
    """Kronecker product of two or more operators."""
    m = np.kron(a.matrix, b.matrix)
    for op in rest:
        m = np.kron(m, op.matrix)
    return Operator(m)


def tensor_state(a: StateVector, b: StateVector, *rest: StateVector) -> StateVector:
    v = np.kron(a.amplitudes, b.amplitudes)
    for s in rest:
        v = np.kron(v, s.amplitudes)
    return StateVector(v, normalize=False)


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    dims = (dA, dB) with dA * dB == rho.dim; keep = 0 retains subsystem A,
    keep = 1 retains subsystem B.
    """
    dA, dB = dims
    if dA * dB != rho.dim:
        raise ValueError(f"dims {dims} incompatible with density matrix of dim {rho.dim}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (subsystem A) or 1 (subsystem B)")
    return DensityMatrix(partial_trace_matrix(rho.matrix, dims, keep))


def partial_trace_matrix(m: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Partial trace on a raw matrix (no density-matrix validation)."""
    dA, dB = dims
    r = np.asarray(m).reshape(dA, dB, dA, dB)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def expectation(rho: DensityMatrix, obs: Operator) -> float:
    """Tr(rho O) for a Hermitian observable."""
    if not obs.is_hermitian(1e-8):
        raise ValueError("observable must be Hermitian")
    if obs.dim != rho.dim:
        raise ValueError("dimension mismatch between state and observable")
    val = complex(np.trace(rho.matrix @ obs.matrix))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation value has imaginary part {val.imag}")
    return float(val.real)


def eigh(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns (eigenvalues ascending, eigenvectors as columns).
    """
    if not op.is_hermitian():
        raise ValueError("eigh requires a Hermitian operator")
    w, v = np.linalg.eigh(op.matrix)
    return w, v


# ---------------------------------------------------------------------------
# Fock space and coherent states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FockSpace:
    """Photon-number basis truncated at occupation n_max - 1 (dimension n_max)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def dim(self) -> int:
        return self.n_max

    def annihilation(self) -> Operator:
        n = np.arange(1, self.n_max)
        return Operator(np.diag(np.sqrt(n), k=1))

    def number_operator(self) -> Operator:
        return Operator(np.diag(np.arange(self.n_max, dtype=float)))


def default_fock_cutoff(alpha: complex) -> int:
    """Truncation keeping coherent-state norm loss below ~1e-8 for nbar <= 30."""
    a = abs(alpha)
    return int(math.ceil(a * a + 6.0 * a + 10.0))


def coherent_state(alpha: complex, space: FockSpace | None = None) -> StateVector:
    """Coherent state with amplitudes e^{-|a|^2/2} a^n / sqrt(n!), renormalized.

    Raises if the truncated norm falls short of 1 by more than 1e-8.
    """
    if space is None:
        space = FockSpace(default_fock_cutoff(alpha))
    # recurrence amps[k+1] = amps[k] * alpha / sqrt(k+1) avoids overflow in n!
    amps = np.zeros(space.n_max, dtype=complex)
    term = complex(np.exp(-0.5 * abs(alpha) ** 2))
    for k in range(space.n_max):
        amps[k] = term
        term = term * alpha / math.sqrt(k + 1)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if norm_sq < 1.0 - 1e-8:
        raise ValueError(
            f"Fock truncation n_max={space.n_max} loses {1.0 - norm_sq:.3e} of the norm "
            f"for |alpha|={abs(alpha):.3f}; increase n_max")
    return StateVector(amps / math.sqrt(norm_sq))


# ---------------------------------------------------------------------------
# Position grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid1D:
    """Uniform position grid on [x_min, x_max] with n_points samples."""

    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError("grid needs at least 8 points")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def k(self) -> np.ndarray:
        """Angular wavenumbers of the FFT modes (hbar = 1 momenta)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)

    def position_operator(self) -> "GridOperator":
        return GridOperator(potential=self.x)

    def momentum_operator(self) -> "GridOperator":
        """Spectral momentum operator F^dag diag(k) F."""
        return GridOperator(kinetic=self.k)

    def kinetic_hamiltonian(self, mass: float) -> "GridOperator":
        """Spectral kinetic operator p^2 / 2m."""
        return GridOperator(kinetic=self.k ** 2 / (2.0 * mass))

    def gaussian_packet(self, x0: float, sigma: float, k0: float = 0.0) -> StateVector:
        """Normalized Gaussian wave packet centered at x0 with momentum k0."""
        psi = np.exp(-((self.x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * self.x)
        psi = psi / (np.linalg.norm(psi))
        return StateVector(psi)

    def two_packet_cat(self, x0: float, sigma: float, k0: float = 0.0) -> StateVector:
        """Symmetric superposition of packets at +/- x0."""
        a = np.exp(-((self.x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * self.x)
        b = np.exp(-((self.x + x0) ** 2) / (4.0 * sigma ** 2) - 1j * k0 * self.x)
        psi = a + b
        return StateVector(psi / np.linalg.norm(psi))


class GridOperator(Operator):
    """E(k) + V(x) on a uniform position grid.

    `kinetic` is diagonal in momentum: E at the FFT modes of the grid, in
    the order of Grid1D.k.  `potential` is diagonal in position: V at the
    grid points.  Either may be None.  Its dense `matrix`, F^-1 diag(E) F
    + diag(V), is built by one FFT pair on the identity, only when asked for.
    """

    __slots__ = ("kinetic", "potential")

    def __init__(self, kinetic=None, potential=None):
        parts = [None if v is None else np.array(v).reshape(-1) for v in (kinetic, potential)]
        sizes = {v.size for v in parts if v is not None}
        if not sizes:
            raise ValueError("grid operator needs a kinetic or a potential part")
        if len(sizes) > 1:
            raise ValueError(f"kinetic and potential sizes differ: {sizes}")
        for v in parts:
            if v is not None:
                v.setflags(write=False)
        self.kinetic, self.potential = parts
        self.dim = sizes.pop()
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            eye = np.eye(self.dim)
            if self.kinetic is None:
                m = self.potential[:, None] * eye
            else:
                m = np.fft.ifft(self.kinetic[:, None] * np.fft.fft(eye, axis=0), axis=0)
                if self.potential is not None:
                    m += self.potential[:, None] * eye
            self._matrix = _freeze(m)
        return self._matrix

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        return all(v is None or 2.0 * float(np.max(np.abs(v.imag))) <= tol
                   for v in (self.kinetic, self.potential))


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------

#: Rows `write_csv` formats per write; bounds its string buffers.
CSV_CHUNK_ROWS = 4096


def _formatted(column: np.ndarray) -> list[str]:
    """repr of each value of a column, formatting each distinct value once.

    Floats are keyed by their bit pattern: comparing them as numbers would
    merge -0.0 with 0.0 (and never match a nan).
    """
    if column.dtype.kind not in "fiub":
        return list(map(repr, column.tolist()))
    keys = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, index = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype) if column.dtype.kind == "f" else distinct
    text = np.array(list(map(repr, values.tolist())), dtype=object)
    return text[index].tolist()


def write_csv(path, header, columns) -> None:
    """Write equal-length columns as a CSV table under a header row.

    Each value is written as repr of its Python value (shortest round-trip
    for floats), fields are joined by "," and every row ends in "\r\n", as
    the csv module writes them, so fixed inputs give byte-identical files.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            fields = [_formatted(c[lo:lo + CSV_CHUNK_ROWS]) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
