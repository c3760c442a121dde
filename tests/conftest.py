import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from decoherence.core import DensityMatrix, Operator, StateVector


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_state(rng, dim: int) -> StateVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


def random_density(rng, dim: int, rank: int | None = None) -> DensityMatrix:
    r = rank if rank is not None else dim
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_hermitian(rng, dim: int) -> Operator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(0.5 * (a + a.conj().T))


def random_unitary(rng, dim: int) -> Operator:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


def nested_lag_integral(spec, kernel: str, trig: str, omega: float) -> tuple[float, float]:
    """int_0^tc kernel(tau) trig(omega tau) dtau in the nested order: an
    adaptive quadrature over tau whose every node evaluates spec.nu or
    spec.eta, itself a Fourier quadrature over frequency.  Returns the value
    and the outer quadrature's error estimate."""
    k = spec.nu if kernel == "nu" else spec.eta
    g = math.cos if trig == "cos" else math.sin
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(lambda t: k(t) * g(omega * t), 0.0,
                                    spec.cutoff_time, epsrel=1e-8, limit=400)
