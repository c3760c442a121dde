"""Diffusive stochastic unraveling of Lindblad dynamics.

Each trajectory integrates

    d rho = L[rho] dt + sum_mu sqrt(kappa_mu) W[L_mu] rho dW_mu,
    W[L] rho = L rho + rho L^dag - rho Tr{L rho + rho L^dag},

with independent Wiener increments dW ~ Normal(0, dt), Ito convention,
Euler-Maruyama stepping.  The W functional is traceless by construction,
so the trace is conserved step by step; with Hermitian Lindblad operators
pure states stay (numerically almost) pure along each trajectory, while
the trajectory average converges to the deterministic master-equation
solution at the usual 1/sqrt(N) Monte Carlo rate.

The measurement term L rho + rho L^dag of each L is the generator of the
two sandwich terms L rho 1 and 1 rho L^dag, placed by the generator's own
rule: the elementwise kernel d_i + d_j^* for a diagonal L, G rho + rho G'
otherwise.

Reproducibility: trajectory j draws its increments from an independent
counter-based stream (Philox keyed by the ensemble seed, jumped j times),
with Gaussians produced by the inverse CDF applied to that stream's
uniforms.  All trajectories step together as one (n, dim, dim) batch, so
results are a deterministic function of (seed, config, generator) with a
fixed summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .core import DensityMatrix, Operator, write_csv
from .lindblad import ExtraTerm, IntegratorConfig, LindbladGenerator, PositivityLossError, _march

TRACE_DRIFT_LIMIT = 1e-4
#: Hermiticity tolerance for the Hamiltonian and the Lindblad operators.
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class TrajectoryConfig:
    n_trajectories: int
    dt: float
    t_final: float
    seed: int
    record_stride: int = 1
    #: the time grid, checked by the integrator's own whole-step rule
    integrator: IntegratorConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        object.__setattr__(self, "integrator",
                           IntegratorConfig(self.dt, self.t_final, self.record_stride))

    @property
    def n_steps(self) -> int:
        return self.integrator.n_steps


@dataclass
class TrajectoryEnsemble:
    times: np.ndarray
    #: shape (n_trajectories, n_recorded, dim, dim)
    conditioned_states: np.ndarray
    ensemble_mean: list[DensityMatrix]

    @property
    def n_trajectories(self) -> int:
        return self.conditioned_states.shape[0]


class StepInstabilityError(RuntimeError):
    """Per-trajectory trace drift exceeded tolerance; dt is too large."""


def _gaussian_increments(seed: int, n_trajectories: int, n_steps: int,
                         n_ops: int, dt: float) -> np.ndarray:
    """Wiener increments (n_steps, n_ops, n_trajectories), trajectory j's from its
    own substream: Philox(key=seed) jumped j times, one bit generator set to counter j."""
    bits = np.random.Philox(key=seed)
    stream, state = np.random.Generator(bits), bits.state  # an empty buffer
    u = np.empty((n_steps, n_ops, n_trajectories))
    for j in range(n_trajectories):
        state["state"]["counter"] = [0, 0, j, 0]
        bits.state = state
        u[..., j] = stream.random((n_steps, n_ops))
    # inverse-CDF transform pins the mapping from uniforms to Gaussians
    return ndtri(u) * math.sqrt(dt)


def _measurement(op: Operator) -> LindbladGenerator:
    """L rho + rho L^dag as the generator of the sandwich terms L rho 1 and 1 rho L^dag."""
    eye = Operator.identity(op.dim)
    return LindbladGenerator(None, extra_terms=[ExtraTerm("sandwich", op, eye, 1.0),
                                                ExtraTerm("sandwich", eye, op.dag(), 1.0)])


def unravel(gen: LindbladGenerator, rho0: DensityMatrix,
            cfg: TrajectoryConfig) -> TrajectoryEnsemble:
    """Integrate an ensemble of diffusive trajectories.

    Requires a Hermitian Hamiltonian and Hermitian Lindblad operators (the
    measurement-unraveling setting); generators with extra non-Lindblad
    terms, or with a kernel passed in without operators, are rejected.
    The drift is the generator's own right-hand side, applied to the whole
    (n, dim, dim) batch of conditioned states.
    """
    if gen.extra_terms or gen.bare_kernel:
        raise ValueError("unraveling covers pure Lindblad generators only")
    if gen.hamiltonian is not None and not gen.hamiltonian.is_hermitian(HERMITIAN_TOL):
        raise ValueError("unraveling requires a Hermitian Hamiltonian")
    for rate, op in gen.lindblad_ops:
        if not op.is_hermitian(HERMITIAN_TOL):
            raise ValueError("unraveling requires Hermitian Lindblad operators")
    if rho0.dim != gen.dim:
        raise ValueError("state dimension does not match the generator")

    n_steps, times = cfg.n_steps, cfg.integrator.record_times()
    noise_ops = [(math.sqrt(rate), _measurement(op)) for rate, op in gen.lindblad_ops]
    n, dim = cfg.n_trajectories, gen.dim
    batch0 = np.broadcast_to(rho0.matrix, (n, dim, dim)).copy()
    states = np.empty((n, len(times), dim, dim), dtype=complex)
    increments = iter(_gaussian_increments(cfg.seed, n, n_steps, len(noise_ops), cfg.dt))

    def euler_maruyama(rho: np.ndarray) -> np.ndarray:
        new = rho + cfg.dt * gen.apply(rho)
        for (sr, measurement), dw in zip(noise_ops, next(increments)):
            w = measurement.apply(rho)
            w -= np.einsum("nii->n", w)[:, None, None] * rho
            new += sr * dw[:, None, None] * w
        return new

    for pos, rho in enumerate(_march(batch0, euler_maruyama, n_steps, cfg.record_stride)):
        tr_err = np.max(np.abs(np.einsum("nii->n", rho) - 1.0))
        # the update is traceless by construction, so a drifting or
        # non-finite trace means the state itself blew up
        if not np.isfinite(tr_err) or tr_err > TRACE_DRIFT_LIMIT \
                or not np.all(np.isfinite(rho)):
            raise StepInstabilityError(
                f"trace drifted by {tr_err:.2e} at t={times[pos]:.6g}; reduce dt")
        states[:, pos] = rho

    # fixed reduction order: ascending trajectory index.  Euler-Maruyama
    # conditioned states fluctuate O(sqrt(dt)) around the positive cone, so
    # the mean is validated with a correspondingly loose clamp; anything
    # beyond the percent level still signals a broken run.
    ensemble_mean = []
    for t, m in zip(times, np.mean(states, axis=0)):
        try:
            ensemble_mean.append(DensityMatrix(0.5 * (m + m.conj().T), tol=1e-2, clamp=1e-2))
        except ValueError as exc:
            raise PositivityLossError(f"ensemble mean: {exc} at t={t:.6g}; reduce dt") from exc
    return TrajectoryEnsemble(times, states, ensemble_mean)


def _observable_values(ens: TrajectoryEnsemble, obs: Operator) -> np.ndarray:
    """<obs> per trajectory and recorded time, shape (n_trajectories, n_recorded)."""
    if obs.dim != ens.conditioned_states.shape[-1]:
        raise ValueError("observable dimension mismatch")
    return np.real(np.einsum("ntij,ji->nt", ens.conditioned_states, obs.matrix))


def ensemble_statistics(ens: TrajectoryEnsemble, obs: Operator) -> dict:
    """Per-time mean and standard error of <obs> across trajectories."""
    vals = _observable_values(ens, obs)
    n = vals.shape[0]
    if n < 2:
        raise ValueError("standard error undefined for a single trajectory")
    mean = np.mean(vals, axis=0)
    stderr = np.std(vals, axis=0, ddof=1) / math.sqrt(n)
    return {"times": ens.times, "mean": mean, "stderr": stderr}


def export_ensemble_csv(ens: TrajectoryEnsemble, obs: Operator, path) -> None:
    """Rows (trajectory_id, t, value) of <obs> along each trajectory."""
    vals = _observable_values(ens, obs)
    n, n_rec = vals.shape
    write_csv(path, ["trajectory_id", "t", "value"],
              [np.repeat(np.arange(n), n_rec), np.tile(ens.times, n), vals.ravel()])


def export_ensemble_summary_json(ens: TrajectoryEnsemble, obs: Operator, path) -> None:
    """JSON summary with per-time mean and standard error."""
    import json
    stats = ensemble_statistics(ens, obs)
    payload = {
        "n_trajectories": int(ens.n_trajectories),
        "times": [float(t) for t in stats["times"]],
        "mean": [float(v) for v in stats["mean"]],
        "stderr": [float(v) for v in stats["stderr"]],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
