"""The two benchmark workloads: their inputs, operations and checks.

`scenarios` runs, in one pass, the split-step scattering scenario, the
grid RK4 scenarios and the qubit/trajectory scenarios.
`bath_coefficients` runs the weak-coupling coefficient quadratures.  An
operation is one scenario run (through
`decoherence.scenario.run_scenario`, the call `decoherence run` makes,
writing all its files) or one set of bath coefficients.  A pass runs every
operation of a workload once, in order.  Generated scenario files depend
on the seed only through values that do not change the amount of work, so
every seed costs the same.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import reference

# Trajectory ensembles keep the fixed seed of acceptance criterion 8: the
# 3-standard-error band is a statistical check that a small share of seeds
# fails by chance, and a benchmark check must not fail by chance.
TRAJECTORY_SEED = 97

SW_TWIN_CFG = """\
; Short-wavelength twin of the shipped two-packet cat: the same state and
; box, decohered by position projectors at the total scattering rate.
[scenario]
name = sw_twin
model = collisional
seed = {seed}

[params]
gamma_tot = {gamma_tot}
regime = short_wavelength
mass = 50.0
free_dynamics = true

[initial_state]
kind = two_packet_cat
x0 = 2.0
sigma = 0.5

[integrator]
dt = 0.05
t_final = 7.0
record_stride = 5

[outputs]
quantities = coherence_magnitude, purity, entropy, position_density
fit = exponential

[grid]
n_points = 96
x_min = -8.0
x_max = 8.0
"""

QBM_PACKET_CFG = """\
; Gaussian packet in an ohmic oscillator bath; its position variance
; follows the closed second-moment flow of the same equation.
[scenario]
name = qbm_packet
model = qbm
seed = {seed}

[params]
mass = 1.0
omega = 1.0
gamma0 = 0.1
temperature = 5.0
cutoff = 5.0
anomalous = true

[initial_state]
kind = gaussian_packet
x0 = 0.5
sigma = 1.0
k0 = 0.0

[integrator]
dt = 0.01
t_final = 1.0
record_stride = 5

[outputs]
quantities = coherence_magnitude, purity, entropy, position_density
fit = none

[grid]
n_points = 96
x_min = -8.0
x_max = 8.0
"""

TRAJ_QUBIT_CFG = """\
; Qubit dephased by L = sigma_z at rate 0.5 (H = 0), unraveled into 2000
; diffusive trajectories; <sigma_x> decays as exp(-2 * 0.5 * t).
[scenario]
name = traj_qubit
model = custom_lindblad
seed = {seed}

[params]
dim = 2
hamiltonian = 0, 0, 0, 0
lindblad_1 = 1, 0, 0, -1
rate_1 = 0.5

[initial_state]
kind = qubit_bloch
theta = 1.5707963267948966
phi = 0.0

[integrator]
dt = 0.001
t_final = 1.0
record_stride = 100

[outputs]
quantities = coherence_magnitude, purity
fit = exponential

[trajectories]
n_trajectories = 2000
seed = {trajectory_seed}
"""

# Relative agreement of the grid variance with the continuum moment flow;
# the README gives the measured error and the reasoning.
QBM_VARIANCE_REL_TOL = 1e-6

# (mass, Omega, gamma0, T, cutoff); the first is acceptance criterion 6.
QBM_POINTS = (
    (1.0, 1.0, 0.1, 1e6, 1e3),
    (1.0, 1.0, 0.1, 100.0, 10.0),
    (1.0, 1.0, 0.1, 2.0, 20.0),
)
# (alpha, T, cutoff, Delta0) with D well below Delta0 (weak coupling)
SPIN_BOSON_POINT = (0.02, 1.0, 50.0, 1.0)


@dataclass
class Op:
    """One operation: run() returns its output, check(output) returns
    (problems, known_faults) and fingerprint(output) identifies identical
    outputs so that a repeated output is not checked twice."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[str]]]
    fingerprint: Callable[[object], str]


def read_table(path: Path) -> dict[str, np.ndarray]:
    """A CSV with a header row, as one float array per column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


class Workload:
    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.configs: dict[str, str] = {}  # generated .cfg texts by name

    def parse(self) -> None:
        """Read and parse the workload's configurations (part of set-up)."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


class Scenarios(Workload):
    """The split-step, grid RK4 and qubit/trajectory scenarios in one pass."""

    shipped = ("two_packet_collisional", "dephasing_qubit", "cavity_cat")

    def generated(self) -> dict[str, str]:
        gamma_tot = round(self.rng.uniform(0.45, 0.55), 4)
        return {"sw_twin": SW_TWIN_CFG.format(seed=self.seed, gamma_tot=gamma_tot),
                "qbm_packet": QBM_PACKET_CFG.format(seed=self.seed),
                "traj_qubit": TRAJ_QUBIT_CFG.format(seed=self.seed,
                                                    trajectory_seed=TRAJECTORY_SEED)}

    def parse(self) -> None:
        from decoherence.scenario import parse_config
        self.cfgs = {}
        for name in self.shipped:
            cfg = parse_config((self.root / "scenarios" / f"{name}.cfg").read_text())
            cfg.seed = self.seed  # as `decoherence run --seed` does
            self.cfgs[name] = cfg
        self.configs = self.generated()
        for name, text in self.configs.items():
            self.cfgs[name] = parse_config(text)

    def ops(self) -> list[Op]:
        return [Op(name, self._runner(name), self._checker(name), self._fingerprint)
                for name in self.cfgs]

    def _runner(self, name):
        from decoherence import scenario
        cfg, out = self.cfgs[name], self.out_dir
        return lambda: scenario.run_scenario(cfg, out)

    def _checker(self, name):
        check = getattr(self, "check_" + name)
        return lambda summary: (check(self.cfgs[name], summary), [])

    def _files(self, summary) -> list[Path]:
        names = []
        for entry in summary["files"].values():
            names += [e["file"] for e in entry] if isinstance(entry, list) else [entry]
        names.append(f"{summary['scenario']}_summary.json")
        return [self.out_dir / n for n in names]

    def _fingerprint(self, summary) -> str:
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode())
        for path in self._files(summary):
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def table(self, summary, key: str) -> dict[str, np.ndarray]:
        return read_table(self.out_dir / summary["files"][key])

    def program_fit(self, name: str, summary, times, coherence) -> list[str]:
        """The summary's fitted rate is the rate of the series it wrote."""
        fit = summary["fits"].get("coherence_magnitude", {})
        if "rate" not in fit:
            return [f"{name}: no fitted rate in the summary ({fit})"]
        return checks.within_rel(f"{name} summary rate", fit["rate"],
                                 reference.fit_exponential_rate(times, coherence), 1e-6)

    def check_two_packet_collisional(self, cfg, summary) -> list[str]:
        name = cfg.name
        ts = self.table(summary, "timeseries")
        dens = self.table(summary, "position_density")
        x0 = cfg.initial_state["x0"]
        problems = checks.densities_normalized(name, dens["t"], dens["x"],
                                               dens["density"], 1e-9)
        problems += checks.decay_rate(name, ts["t"], ts["coherence_magnitude"],
                                      cfg.params["lambda"] * (2.0 * x0) ** 2, 0.05)
        problems += self.program_fit(name, summary, ts["t"], ts["coherence_magnitude"])
        snaps = summary["files"].get("wigner_snapshots", [])
        if not any(s["time"] == 0.0 for s in snaps):
            problems.append(f"{name}: no Wigner snapshot at t = 0")
        for snap in snaps:
            w = read_table(self.out_dir / snap["file"])
            label = f"{name} Wigner t={snap['time']}"
            problems += checks.wigner_normalized(label, w["x"], w["p"], w["w"])
            if snap["time"] == 0.0:
                problems += checks.ridge_wavelength(label, w["x"], w["p"], w["w"], x0)
        return problems

    def _grid_common(self, cfg, summary) -> tuple[list[str], dict, dict]:
        ts = self.table(summary, "timeseries")
        dens = self.table(summary, "position_density")
        problems = checks.purity_entropy_bounds(cfg.name, ts["purity"], ts["entropy"],
                                                cfg.grid["n_points"])
        problems += checks.densities_normalized(cfg.name, dens["t"], dens["x"],
                                                dens["density"], 1e-9)
        return problems, ts, dens

    def check_sw_twin(self, cfg, summary) -> list[str]:
        problems, ts, _ = self._grid_common(cfg, summary)
        problems += checks.decay_rate(cfg.name, ts["t"], ts["coherence_magnitude"],
                                      cfg.params["gamma_tot"], 0.01)
        problems += self.program_fit(cfg.name, summary, ts["t"], ts["coherence_magnitude"])
        return problems

    def check_qbm_packet(self, cfg, summary) -> list[str]:
        from decoherence.models import qbm
        problems, _, dens = self._grid_common(cfg, summary)
        p, st = cfg.params, cfg.initial_state
        # the coefficients the generator was built with: this check is of the
        # grid evolution; the coefficients are checked in bath_coefficients
        c = qbm.qbm_coefficients(qbm.QBMParams(
            mass=p["mass"], Omega=p["omega"], gamma0=p["gamma0"],
            T=p["temperature"], cutoff=p["cutoff"]))
        dx = float(dens["x"][1] - dens["x"][0])
        times = np.unique(dens["t"])
        mean_x, var_x = [], []
        for t in times:
            sel = dens["t"] == t
            x, rho = dens["x"][sel], dens["density"][sel] * dx
            m1 = float(np.sum(x * rho))
            mean_x.append(m1)
            var_x.append(float(np.sum(x * x * rho)) - m1 * m1)
        k0, sigma = st["k0"], st["sigma"]
        moments0 = (mean_x[0], k0, var_x[0] + mean_x[0] ** 2,
                    2.0 * mean_x[0] * k0, k0 * k0 + 1.0 / (4.0 * sigma * sigma))
        want = reference.moment_flow_variance(
            p["mass"], p["omega"] ** 2 + c.omega_shift_sq, c.gamma, c.D,
            c.f if p["anomalous"] else 0.0, moments0, times)
        problems += checks.series_close(f"{cfg.name} position variance", times,
                                        np.array(var_x), want, QBM_VARIANCE_REL_TOL)
        return problems

    def check_dephasing_qubit(self, cfg, summary) -> list[str]:
        p = cfg.params
        ts = self.table(summary, "timeseries")
        d_prog = summary["model_info"]["dephasing_strength"]
        d_ref, _ = reference.spin_boson_reference(
            p["alpha"], p["temperature"], p["cutoff"], p["delta0"], 50.0 / p["cutoff"])["D"]
        problems = checks.within_rel("dephasing_qubit D", d_prog, d_ref, 1e-6)
        problems += checks.decay_rate(cfg.name, ts["t"], ts["coherence_magnitude"],
                                      4.0 * d_prog, 0.01)
        problems += self.program_fit(cfg.name, summary, ts["t"], ts["coherence_magnitude"])
        return problems

    def check_cavity_cat(self, cfg, summary) -> list[str]:
        t_d = summary["model_info"]["decoherence_time"]
        st = cfg.initial_state
        d_sq = 4.0 * abs(st["alpha"]) ** 2 * math.sin(st["chi"]) ** 2
        problems = checks.in_range("cavity_cat decoherence time", t_d, 20e-3, 24e-3)
        problems += checks.within_rel("cavity_cat decoherence time", t_d,
                                      2.0 * cfg.params["damping_time"] / d_sq, 1e-12)
        return problems

    def check_traj_qubit(self, cfg, summary) -> list[str]:
        rate = 2.0 * cfg.params["rate_1"]
        ts = self.table(summary, "timeseries")
        tr = self.table(summary, "trajectories")
        problems = checks.decay_rate(cfg.name, ts["t"], ts["coherence_magnitude"], rate, 0.01)
        problems += checks.trajectory_band(cfg.name, tr["t"], tr["mean_sx"], tr["stderr_sx"],
                                           np.exp(-rate * tr["t"]))
        return problems


class BathCoefficients(Workload):
    def parse(self) -> None:
        from decoherence.models import qbm, spin_boson
        self.qbm_params = [qbm.QBMParams(*pt) for pt in QBM_POINTS]
        alpha, T, cutoff, delta0 = SPIN_BOSON_POINT
        self.sb_params = spin_boson.SpinBosonParams(
            omega0=0.0, Delta0=delta0, J=spin_boson.ohmic_coupling(alpha, cutoff),
            T=T, cutoff=cutoff)

    def ops(self) -> list[Op]:
        from decoherence.models import qbm, spin_boson
        out = []
        for params in self.qbm_params:
            out.append(Op(f"qbm T={params.T:g} cutoff={params.cutoff:g}",
                          lambda params=params: qbm.qbm_coefficients(params),
                          lambda c, params=params: self.check_qbm(params, c), repr))
        out.append(Op("spin_boson_born_markov",
                      lambda: spin_boson.spin_boson_born_markov(self.sb_params),
                      self.check_spin_boson, self._sb_fingerprint))
        return out

    @staticmethod
    def check_qbm(params, c) -> tuple[list[str], list[str]]:
        label = f"qbm T={params.T:g} cutoff={params.cutoff:g}"
        ref = reference.qbm_reference(params.mass, params.Omega, params.gamma0,
                                      params.T, params.cutoff, 50.0 / params.cutoff)
        closed = reference.lorentz_drude_closed_forms(params.gamma0, params.Omega,
                                                      params.cutoff)
        problems = []
        for key in ("D", "f", "omega_shift_sq"):
            value, err = ref[key]
            problems += checks.coefficient(f"{label} {key}", getattr(c, key), value, err,
                                           c.quadrature_error)
        problems += checks.within_rel(f"{label} omega_shift_sq", c.omega_shift_sq,
                                      closed["omega_shift_sq"], 1e-6)

        def gamma_problems(gamma: float) -> list[str]:
            value, err = ref["gamma"]
            return (checks.coefficient(f"{label} gamma", gamma, value, err,
                                       c.quadrature_error)
                    + checks.within_rel(f"{label} gamma", gamma, closed["gamma"], 1e-6))

        # Known fault: born_markov_coefficients returns twice the damping
        # (its gamma carries 2/(M W) where the equation has 1/(M W)).  A set
        # whose gamma is exactly twice the references counts as failed, not
        # as incorrect; any other mismatch is incorrect.
        faults = []
        found = gamma_problems(c.gamma)
        if found and not gamma_problems(0.5 * c.gamma):
            faults.append(f"{label} gamma = {c.gamma!r} is twice the weak-coupling "
                          f"damping {closed['gamma']!r}")
        else:
            problems += found
        if params.is_high_temperature():
            problems += checks.within_rel(f"{label} D", c.D,
                                          2.0 * params.mass * params.gamma0 * params.T, 0.02)
        return problems, faults

    def check_spin_boson(self, gen) -> tuple[list[str], list[str]]:
        alpha, T, cutoff, delta0 = SPIN_BOSON_POINT
        ref = reference.spin_boson_reference(alpha, T, cutoff, delta0, 50.0 / cutoff)
        terms = {t.label: complex(t.coeff) for t in gen.extra_terms}
        zeta_conj = complex(gen.hamiltonian.matrix[0, 1]) - 0.5 * delta0
        problems = checks.within_rel("spin_boson D", -terms["dephasing"].real,
                                     ref["D"][0], 1e-6)
        want = ref["zeta_conj"][0]
        if not abs(zeta_conj - want) <= 1e-6 * abs(want):
            problems.append(f"spin_boson zeta* = {zeta_conj!r}, want {want!r}")
        if not (abs(terms["decay*"] + zeta_conj) <= 1e-12 * abs(zeta_conj)
                and abs(terms["decay"] + zeta_conj.conjugate()) <= 1e-12 * abs(zeta_conj)):
            problems.append(f"spin_boson decay terms {terms} disagree with "
                            f"zeta* = {zeta_conj!r} from the Hamiltonian")
        return problems, []

    @staticmethod
    def _sb_fingerprint(gen) -> str:
        return repr((gen.hamiltonian.matrix.tobytes(),
                     [(t.label, complex(t.coeff)) for t in gen.extra_terms]))


def make(name: str, root: Path, seed: int, out_dir: Path) -> Workload:
    classes = {"scenarios": Scenarios, "bath_coefficients": BathCoefficients}
    return classes[name](root, seed, out_dir)
