"""Declarative scenario execution.

A scenario is an INI-style .cfg file (sections of key = value pairs) that
names a model, its parameters, an initial state, integrator settings, and
requested outputs.  `run_scenario` builds the model, runs the evolution,
and emits RFC-4180 CSV time series plus a JSON summary with fitted decay
rates.  Unknown sections or keys are rejected up front; fixed seeds make
runs byte-identical.
"""

from __future__ import annotations

import configparser
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import measures
from .core import SIGMA_X, DensityMatrix, Grid1D, Operator, bloch_state
from .core import write_csv as _write_csv
from .lindblad import (
    IntegratorConfig,
    LindbladGenerator,
    PositivityLossError,
    QuadratureError,
    propagate,
)
from .models import (
    CavityCatParams,
    CollisionalParams,
    QBMParams,
    SpinSpinParams,
    caldeira_leggett_generator,
    cat_decoherence_time,
    cat_overlap,
    collisional_generator,
    qbm_generator,
    spin_spin_coherence_factor,
)
from .models.spin_boson import SpinBosonParams, ohmic_coupling, spin_boson_born_markov
from .trajectories import HERMITIAN_TOL, TrajectoryConfig, ensemble_statistics, unravel

SCHEMA_VERSION = 1

MODEL_NAMES = ("collisional", "qbm", "caldeira_leggett", "spin_boson",
               "spin_spin", "cavity_cat", "custom_lindblad")

OUTPUT_QUANTITIES = ("purity", "entropy", "coherence_magnitude",
                     "wigner_snapshots", "position_density",
                     "mutual_information")


class ConfigError(ValueError):
    """Scenario file failed validation."""


class NumericalFailure(RuntimeError):
    """Model construction or integration failed numerically."""


# ---------------------------------------------------------------------------
# Parameter schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSpec:
    type: str  # int | float | complex | str | floatlist | bool
    required: bool = False
    default: object = None
    minimum: float | None = None
    exclusive_min: bool = False
    choices: tuple[str, ...] | None = None
    help: str = ""


def _positive(help_text: str, required: bool = True, default=None) -> ParamSpec:
    return ParamSpec("float", required=required, default=default,
                     minimum=0.0, exclusive_min=True, help=help_text)


MODEL_SCHEMAS: dict[str, dict] = {
    "collisional": {
        "description": "spatial decoherence from environmental scattering",
        "reference": "scattering master equation, long/short wavelength regimes",
        "needs_grid": True,
        "states": ("gaussian_packet", "two_packet_cat"),
        "params": {
            "lambda": ParamSpec("float", default=0.0, minimum=0.0,
                                help="long-wavelength scattering constant (1/(time length^2))"),
            "gamma_tot": ParamSpec("float", default=0.0, minimum=0.0,
                                   help="short-wavelength total scattering rate (1/time)"),
            "regime": ParamSpec("str", default="long_wavelength",
                                choices=("long_wavelength", "short_wavelength")),
            "mass": _positive("particle mass", required=False, default=1.0),
            "free_dynamics": ParamSpec("bool", default=True,
                                       help="include the kinetic term p^2/2M"),
        },
    },
    "qbm": {
        "description": "oscillator in an ohmic oscillator bath (weak coupling)",
        "reference": "position-coupled thermal bath with kernel-derived coefficients",
        "needs_grid": True,
        "states": ("gaussian_packet", "two_packet_cat"),
        "params": {
            "mass": _positive("oscillator mass"),
            "omega": _positive("oscillator frequency"),
            "gamma0": _positive("bath coupling rate"),
            "temperature": _positive("bath temperature"),
            "cutoff": _positive("bath frequency cutoff"),
            "anomalous": ParamSpec("bool", default=True,
                                   help="keep the anomalous x-p diffusion term"),
        },
    },
    "caldeira_leggett": {
        "description": "high-temperature limit of the oscillator-bath model",
        "reference": "high-T ohmic limit with closed-form coefficients",
        "needs_grid": True,
        "states": ("gaussian_packet", "two_packet_cat"),
        "params": {
            "mass": _positive("oscillator mass"),
            "omega": _positive("oscillator frequency"),
            "gamma0": _positive("bath coupling rate"),
            "temperature": _positive("bath temperature"),
            "cutoff": _positive("bath frequency cutoff"),
            "dissipation": ParamSpec("bool", default=True,
                                     help="keep the momentum-damping term"),
        },
    },
    "spin_boson": {
        "description": "qubit dephased (and decaying, with tunneling) in a bosonic bath",
        "reference": "sigma_z-coupled oscillator bath, weak-coupling equation",
        "needs_grid": False,
        "states": ("qubit_bloch",),
        "params": {
            "alpha": _positive("dimensionless ohmic coupling strength"),
            "temperature": _positive("bath temperature"),
            "cutoff": _positive("bath frequency cutoff"),
            "delta0": ParamSpec("float", default=0.0, minimum=0.0,
                                help="tunneling frequency"),
        },
    },
    "spin_spin": {
        "description": "qubit monitored by a static bath of environment spins",
        "reference": "bilinear sigma_z coupling to N bath spins, exact factor",
        "needs_grid": False,
        "states": ("qubit_bloch",),
        "params": {
            "n_spins": ParamSpec("int", required=True, minimum=1,
                                 help="number of environment spins"),
            "coupling_scale": _positive("couplings drawn uniformly from [0, scale]"),
        },
    },
    "cavity_cat": {
        "description": "superposition of coherent cavity fields (closed forms)",
        "reference": "dispersive atom-field cat states, overlap and lifetime",
        "needs_grid": False,
        "states": ("cat",),
        "params": {
            "damping_time": _positive("cavity energy damping time T_r"),
        },
    },
    "custom_lindblad": {
        "description": "user-supplied Hamiltonian and Lindblad operators",
        "reference": "direct dissipator input",
        "needs_grid": False,
        "states": ("qubit_bloch",),
        "params": {
            "dim": ParamSpec("int", required=True, minimum=2),
            "hamiltonian": ParamSpec("complexlist", required=True,
                                     help="row-major entries, dim*dim values"),
            "lindblad_1": ParamSpec("complexlist", required=False),
            "rate_1": ParamSpec("float", required=False, minimum=0.0),
            "lindblad_2": ParamSpec("complexlist", required=False),
            "rate_2": ParamSpec("float", required=False, minimum=0.0),
            "lindblad_3": ParamSpec("complexlist", required=False),
            "rate_3": ParamSpec("float", required=False, minimum=0.0),
        },
    },
}

STATE_SCHEMAS: dict[str, dict[str, ParamSpec]] = {
    "gaussian_packet": {
        "x0": ParamSpec("float", default=0.0),
        "sigma": _positive("packet width"),
        "k0": ParamSpec("float", default=0.0),
    },
    "two_packet_cat": {
        "x0": _positive("packet displacement (packets at +/- x0)"),
        "sigma": _positive("packet width"),
    },
    "qubit_bloch": {
        "theta": ParamSpec("float", required=True),
        "phi": ParamSpec("float", default=0.0),
    },
    "cat": {
        "alpha": ParamSpec("complex", required=True),
        "chi": ParamSpec("float", required=True),
    },
}

INTEGRATOR_SCHEMA = {
    "dt": _positive("time step"),
    "t_final": _positive("final time"),
    "record_stride": ParamSpec("int", default=1, minimum=1),
}

OUTPUTS_SCHEMA = {
    "quantities": ParamSpec("strlist", required=True),
    "fit": ParamSpec("str", default="none",
                     choices=("none", "exponential", "gaussian")),
    "wigner_times": ParamSpec("floatlist", default=()),
}

GRID_SCHEMA = {
    "n_points": ParamSpec("int", required=True, minimum=8),
    "x_min": ParamSpec("float", required=True),
    "x_max": ParamSpec("float", required=True),
}

TRAJECTORIES_SCHEMA = {
    "n_trajectories": ParamSpec("int", required=True, minimum=2),
    "seed": ParamSpec("int", required=False, minimum=0),
}

SCENARIO_SCHEMA = {
    "name": ParamSpec("str", required=True),
    "model": ParamSpec("str", required=True, choices=MODEL_NAMES),
    "seed": ParamSpec("int", default=0, minimum=0),
}


@dataclass
class ScenarioConfig:
    name: str
    model: str
    seed: int
    params: dict
    initial_state: dict
    integrator: dict
    outputs: dict
    grid: dict | None = None
    trajectories: dict | None = None


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def _coerce(key: str, raw: str, spec: ParamSpec):
    raw = raw.strip()
    try:
        if spec.type == "int":
            val = int(raw)
        elif spec.type == "float":
            val = float(raw)
        elif spec.type == "complex":
            val = complex(raw.replace(" ", ""))
        elif spec.type == "bool":
            if raw.lower() in ("true", "yes", "1", "on"):
                val = True
            elif raw.lower() in ("false", "no", "0", "off"):
                val = False
            else:
                raise ValueError(f"not a boolean: {raw}")
        elif spec.type == "str":
            val = raw
        elif spec.type == "floatlist":
            val = tuple(float(x) for x in raw.split(",") if x.strip()) if raw else ()
        elif spec.type == "complexlist":
            val = tuple(complex(x.replace(" ", "")) for x in raw.split(",") if x.strip())
        elif spec.type == "strlist":
            val = tuple(x.strip() for x in raw.split(",") if x.strip())
        else:
            raise AssertionError(f"unknown spec type {spec.type}")
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {spec.type}") from exc
    if spec.type in ("float", "complex", "floatlist", "complexlist") \
            and not np.all(np.isfinite(val)):
        raise ConfigError(f"key '{key}': {raw!r} is not finite")
    if spec.choices is not None and val not in spec.choices:
        raise ConfigError(f"key '{key}': {val!r} not one of {spec.choices}")
    if spec.minimum is not None and isinstance(val, (int, float)):
        if spec.exclusive_min and not val > spec.minimum:
            raise ConfigError(f"key '{key}': must be > {spec.minimum}")
        if not spec.exclusive_min and not val >= spec.minimum:
            raise ConfigError(f"key '{key}': must be >= {spec.minimum}")
    return val


def _validate_section(name: str, raw: dict, schema: dict[str, ParamSpec]) -> dict:
    out = {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
    for key, spec in schema.items():
        if key in raw:
            out[key] = _coerce(key, raw[key], spec)
        elif spec.required:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
        elif spec.default is not None or spec.type in ("floatlist", "strlist"):
            out[key] = spec.default if spec.default is not None else ()
    return out


def parse_config(text: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    known = {"scenario", "params", "initial_state", "integrator", "outputs",
             "grid", "trajectories"}
    for sec in cp.sections():
        if sec not in known:
            raise ConfigError(f"unknown section [{sec}]")
    for required in ("scenario", "initial_state", "integrator", "outputs"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    scen = _validate_section("scenario", dict(cp["scenario"]), SCENARIO_SCHEMA)
    model = scen["model"]
    mschema = MODEL_SCHEMAS[model]
    params = _validate_section("params", dict(cp["params"]) if "params" in cp else {},
                               mschema["params"])

    state_raw = dict(cp["initial_state"])
    kind = state_raw.pop("kind", None)
    if kind is None:
        raise ConfigError("initial_state needs a 'kind'")
    if kind not in STATE_SCHEMAS:
        raise ConfigError(f"unknown initial state kind '{kind}'")
    if kind not in mschema["states"]:
        raise ConfigError(
            f"state kind '{kind}' unsupported for model '{model}' "
            f"(use one of {mschema['states']})")
    state = {"kind": kind,
             **_validate_section("initial_state", state_raw, STATE_SCHEMAS[kind])}
    if kind == "cat":
        # catness D^2 for D = 2 |alpha| sin chi; float products overflow to inf
        # where abs() and ** raise
        d = 2.0 * math.hypot(state["alpha"].real, state["alpha"].imag) * math.sin(state["chi"])
        if d * d == 0.0:
            raise ConfigError("cat state has zero catness (alpha = 0 or sin chi = 0): its "
                              "components coincide and no decoherence time is defined")
        if d * d == math.inf:
            raise ConfigError("cat state catness 4 |alpha|^2 sin^2 chi is not finite")

    integ = _validate_section("integrator", dict(cp["integrator"]), INTEGRATOR_SCHEMA)
    try:
        IntegratorConfig(**integ)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outputs = _validate_section("outputs", dict(cp["outputs"]), OUTPUTS_SCHEMA)
    for q in outputs["quantities"]:
        if q not in OUTPUT_QUANTITIES:
            raise ConfigError(f"unknown output quantity '{q}'")
    if "wigner_snapshots" in outputs["quantities"] and not mschema["needs_grid"]:
        raise ConfigError("wigner_snapshots needs a position-grid model")
    if "position_density" in outputs["quantities"] and not mschema["needs_grid"]:
        raise ConfigError("position_density needs a position-grid model")
    if "mutual_information" in outputs["quantities"] and model != "spin_spin":
        raise ConfigError("mutual_information is available for the spin_spin model")
    for t in outputs["wigner_times"]:
        if not 0.0 <= t <= integ["t_final"]:
            raise ConfigError(f"wigner_times: {t!r} lies outside [0, t_final] "
                              f"with t_final = {integ['t_final']!r}")

    grid = None
    if mschema["needs_grid"]:
        if "grid" not in cp:
            raise ConfigError(f"model '{model}' needs a [grid] section")
        grid = _validate_section("grid", dict(cp["grid"]), GRID_SCHEMA)
        if not grid["x_max"] > grid["x_min"]:
            raise ConfigError("grid needs x_max > x_min")
        _packet_on_grid(state, grid, "wigner_snapshots" in outputs["quantities"])
    elif "grid" in cp:
        raise ConfigError(f"model '{model}' takes no [grid] section")

    traj = None
    if "trajectories" in cp:
        # spin_boson's weak-coupling generator always carries non-Lindblad
        # terms, which have no diffusive unraveling
        if model != "custom_lindblad":
            raise ConfigError("trajectory unraveling supports the "
                              "custom_lindblad model only")
        traj = _validate_section("trajectories", dict(cp["trajectories"]),
                                 TRAJECTORIES_SCHEMA)

    if model == "custom_lindblad":
        dim = params["dim"]
        if len(params["hamiltonian"]) != dim * dim:
            raise ConfigError("hamiltonian needs dim*dim entries")
        for i in (1, 2, 3):
            op = params.get(f"lindblad_{i}")
            rate = params.get(f"rate_{i}")
            if (op is None) != (rate is None):
                raise ConfigError(f"lindblad_{i} and rate_{i} must appear together")
            if op is not None and len(op) != dim * dim:
                raise ConfigError(f"lindblad_{i} needs dim*dim entries")
        if state["kind"] == "qubit_bloch" and dim != 2:
            raise ConfigError("qubit_bloch initial state needs dim = 2")
        h, ops = _custom_operators(params)
        if not h.is_hermitian(HERMITIAN_TOL):
            raise ConfigError("hamiltonian must be Hermitian")
        if traj is not None and not all(l.is_hermitian(HERMITIAN_TOL) for _, l in ops):
            raise ConfigError("trajectory unraveling needs Hermitian lindblad_i operators")

    return ScenarioConfig(
        name=scen["name"], model=model, seed=scen["seed"], params=params,
        initial_state=state, integrator=integ, outputs=outputs,
        grid=grid, trajectories=traj,
    )


def _packet_on_grid(state: dict, grid: dict, wigner: bool) -> None:
    """Reject a packet that reaches the edges of the periodic grid, in
    position (x0 +- 6 sigma) or in momentum (|k0| + 3 / sigma against pi / dx,
    or against the Wigner transform's pi / (2 dx) when it takes snapshots)."""
    x0, sigma, k0 = state["x0"], state["sigma"], state.get("k0", 0.0)
    lo = (-x0 if state["kind"] == "two_packet_cat" else x0) - 6.0 * sigma
    if lo < grid["x_min"] or x0 + 6.0 * sigma > grid["x_max"]:
        raise ConfigError(f"packet x0 = {x0!r}, sigma = {sigma!r} reaches "
                          f"[{lo:.6g}, {x0 + 6.0 * sigma:.6g}] at 6 sigma, outside the "
                          f"grid [{grid['x_min']!r}, {grid['x_max']!r}]")
    dx = Grid1D(grid["n_points"], grid["x_min"], grid["x_max"]).dx
    k_max, bound = ((math.pi / (2.0 * dx), "the Wigner range pi / (2 dx)") if wigner
                    else (math.pi / dx, "the grid's pi / dx"))
    if abs(k0) + 3.0 / sigma > k_max:
        raise ConfigError(f"packet k0 = {k0!r}, sigma = {sigma!r} reaches |k0| + 3 / sigma "
                          f"= {abs(k0) + 3.0 / sigma:.6g}, past {bound} = {k_max:.6g}")


def _custom_operators(params: dict) -> tuple[Operator, list[tuple[float, Operator]]]:
    """Hamiltonian and (rate, Lindblad operator) pairs of a custom_lindblad model."""
    dim = params["dim"]

    def operator(key: str) -> Operator:
        return Operator(np.array(params[key], dtype=complex).reshape(dim, dim))

    ops = [(params[f"rate_{i}"], operator(f"lindblad_{i}")) for i in (1, 2, 3)
           if params.get(f"lindblad_{i}") is not None]
    return operator("hamiltonian"), ops


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(_format_value(x) for x in v)
    if isinstance(v, complex):
        return repr(v).strip("()")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical .cfg text; parse(serialize(parse(x))) == parse(x)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {"name": cfg.name, "model": cfg.model,
                      "seed": str(cfg.seed)}
    if cfg.params:
        cp["params"] = {k: _format_value(v) for k, v in cfg.params.items()}
    cp["initial_state"] = {k: _format_value(v) for k, v in cfg.initial_state.items()}
    cp["integrator"] = {k: _format_value(v) for k, v in cfg.integrator.items()}
    cp["outputs"] = {k: _format_value(v) for k, v in cfg.outputs.items()}
    if cfg.grid is not None:
        cp["grid"] = {k: _format_value(v) for k, v in cfg.grid.items()}
    if cfg.trajectories is not None:
        cp["trajectories"] = {k: _format_value(v) for k, v in cfg.trajectories.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Decay-rate fits
# ---------------------------------------------------------------------------

def fit_decay(times: np.ndarray, values: np.ndarray, kind: str) -> dict:
    """Linear log-space regression of a decaying magnitude.

    exponential: log c = log c0 - rate * t     on c/c0 in [0.05, 0.9]
    gaussian:    log c = log c0 - rate_sq * t^2

    The window [0.05, 0.9] avoids the short-time transient and the noise floor.
    Returns the fitted rate, the RMS log-residual, and the window size.
    """
    v0 = values[0]
    if v0 <= 0:
        return {"kind": kind, "error": "initial value not positive"}
    rel = values / v0
    mask = (rel >= 0.05) & (rel <= 0.9) & (values > 0)
    if np.count_nonzero(mask) < 3:
        return {"kind": kind, "error": "too few points in the fit window"}
    t = times[mask]
    logc = np.log(values[mask])
    x = t * t if kind == "gaussian" else t
    coeffs = np.polyfit(x, logc, 1)
    pred = np.polyval(coeffs, x)
    resid = float(np.sqrt(np.mean((logc - pred) ** 2)))
    ss_tot = float(np.sum((logc - np.mean(logc)) ** 2))
    ss_res = float(np.sum((logc - pred) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    out = {"kind": kind, "residual_rms": resid, "n_points": int(np.count_nonzero(mask)),
           "r_squared": r_sq}
    if kind == "gaussian":
        out["rate_sq"] = float(-coeffs[0])
    else:
        out["rate"] = float(-coeffs[0])
    return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _coherence_peak_index(m0: np.ndarray, grid: Grid1D,
                          threshold: float) -> tuple[int, int]:
    """Location of the initial off-diagonal peak beyond the given separation.

    Tracking a fixed matrix element keeps the decay curve attached to one
    separation; a running maximum would drift toward slower-decaying,
    smaller-separation pairs as the peak dies.
    """
    sep = np.abs(np.subtract.outer(grid.x, grid.x))
    masked = np.where(sep > threshold, np.abs(m0), -1.0)
    flat = int(np.argmax(masked))
    return flat // grid.n_points, flat % grid.n_points


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path = ".") -> dict:
    """Execute a parsed scenario; returns the summary dict after writing files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = cfg.name
    quantities = cfg.outputs["quantities"]
    summary: dict = {
        "schema_version": SCHEMA_VERSION,
        "scenario": name,
        "model": cfg.model,
        "seed": cfg.seed,
        "files": {},
        "fits": {},
        "model_info": {},
    }

    try:
        if cfg.model == "cavity_cat":
            times, records, columns = _run_cavity(cfg, summary)
        elif cfg.model == "spin_spin":
            times, records, columns = _run_spin_spin(cfg, summary)
        else:
            times, records, columns = _run_master_equation(cfg, summary, out_dir)
        series = {**_tabulate(records, quantities), **columns}
    except (ConfigError, NumericalFailure):
        raise
    except (PositivityLossError, QuadratureError, ArithmeticError,
            np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        raise NumericalFailure(str(exc)) from exc

    # requested quantities first, then derived companions (rho01 parts etc.)
    table_quantities = [q for q in quantities if q in series]
    table_quantities += [q for q in series if q not in table_quantities]
    if table_quantities:
        path = out_dir / f"{name}_timeseries.csv"
        _write_csv(path, ["t"] + table_quantities,
                   [times] + [series[q] for q in table_quantities])
        summary["files"]["timeseries"] = path.name

    fit_kind = cfg.outputs["fit"]
    if fit_kind != "none" and "coherence_magnitude" in series:
        summary["fits"]["coherence_magnitude"] = fit_decay(
            np.asarray(times), np.asarray(series["coherence_magnitude"]), fit_kind)

    summary_path = out_dir / f"{name}_summary.json"
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def _generator(cfg: ScenarioConfig, grid: Grid1D | None) -> LindbladGenerator:
    """The master-equation generator of a collisional, qbm, caldeira_leggett,
    spin_boson or custom_lindblad scenario."""
    p = cfg.params
    if cfg.model == "collisional":
        params = CollisionalParams(Lambda=p["lambda"], Gamma_tot=p["gamma_tot"],
                                   regime=p["regime"], mass=p["mass"])
        return collisional_generator(params, grid, include_free_dynamics=p["free_dynamics"])
    if cfg.model == "spin_boson":
        return spin_boson_born_markov(SpinBosonParams(
            omega0=0.0, Delta0=p["delta0"], J=ohmic_coupling(p["alpha"], p["cutoff"]),
            T=p["temperature"], cutoff=p["cutoff"]))
    if cfg.model == "custom_lindblad":
        return LindbladGenerator(*_custom_operators(p))
    qp = QBMParams(mass=p["mass"], Omega=p["omega"], gamma0=p["gamma0"],
                   T=p["temperature"], cutoff=p["cutoff"])
    if cfg.model == "qbm":
        return qbm_generator(qp, grid, include_anomalous=p["anomalous"])
    return caldeira_leggett_generator(qp, grid, include_dissipation=p["dissipation"])


def _tabulate(records: list[DensityMatrix], quantities) -> dict:
    """The requested columns that every model computes from its records rho(t):
    purity, entropy in bits and, for a qubit in a joint pure state with its
    bath, I(S:E) = S(rho_S) + S(rho_E) - S(rho_SE) = 2 S(rho_S)."""
    series = {}
    if "purity" in quantities:
        series["purity"] = np.array([measures.purity(r) for r in records])
    if "entropy" in quantities or "mutual_information" in quantities:
        entropy = np.array([measures.von_neumann_entropy(r) for r in records])
        if "entropy" in quantities:
            series["entropy"] = entropy
        if "mutual_information" in quantities:
            series["mutual_information"] = 2.0 * entropy
    return series


def _qubit_records(p0: float, p1: float, rho01: np.ndarray) -> list[DensityMatrix]:
    """Records [[p0, rho01], [rho01*, p1]] of a qubit whose populations stay
    fixed while its coherence rho01(t) changes.  Certified: the callers'
    p0 + p1 = 1 and |rho01| <= sqrt(p0 p1) make each one a state."""
    records = np.empty((len(rho01), 2, 2), dtype=complex)
    records[:, 0, 0], records[:, 1, 1] = p0, p1
    records[:, 0, 1], records[:, 1, 0] = rho01, np.conj(rho01)
    return [DensityMatrix.certified(m) for m in records]


def _run_master_equation(cfg: ScenarioConfig, summary: dict, out_dir: Path) -> tuple:
    """Evolve a master-equation model: its record times, its records and its
    own columns.

    Grid models (collisional, qbm, caldeira_leggett) start from a packet
    state and add position densities and Wigner snapshots; qubit models
    (spin_boson, custom_lindblad) start from a Bloch state and add the
    trajectory ensemble.  `lindblad.propagate` picks the evolver from the
    generator's structure and `model_info["evolver"]` names it.
    """
    integ = IntegratorConfig(**cfg.integrator)
    quantities = cfg.outputs["quantities"]
    st = cfg.initial_state
    grid = None
    if cfg.grid is not None:
        grid = Grid1D(cfg.grid["n_points"], cfg.grid["x_min"], cfg.grid["x_max"])
        psi0 = (grid.gaussian_packet(st["x0"], st["sigma"], st["k0"])
                if st["kind"] == "gaussian_packet"
                else grid.two_packet_cat(st["x0"], st["sigma"]))
    else:
        psi0 = bloch_state(st["theta"], st["phi"])

    try:
        gen = _generator(cfg, grid)
    except (ArithmeticError, QuadratureError) as exc:
        raise NumericalFailure(f"bath coefficients: {exc}") from exc
    rho0 = psi0.density()
    try:
        res = propagate(gen, rho0, integ)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        raise NumericalFailure(f"propagate: {exc}") from exc
    times, mats = res.times, res.matrices
    summary["model_info"]["evolver"] = res.evolver
    if cfg.model == "spin_boson":
        dephasing = next(t for t in gen.extra_terms if t.label == "dephasing")
        summary["model_info"]["dephasing_strength"] = float(-np.real(dephasing.coeff))

    series = {}
    if "coherence_magnitude" in quantities and grid is not None:
        # beyond the packets' separation, or two widths of a single packet
        threshold = st["x0"] if st["kind"] == "two_packet_cat" else 2.0 * st["sigma"]
        i0, j0 = _coherence_peak_index(mats[0], grid, threshold)
        series["coherence_magnitude"] = [float(np.abs(m[i0, j0])) for m in mats]
    elif "coherence_magnitude" in quantities:
        series["coherence_magnitude"] = [float(np.max(np.abs(
            m - np.diag(np.diag(m))))) for m in mats]
        series["re_rho01"] = [float(np.real(m[0, 1])) for m in mats]
        series["im_rho01"] = [float(np.imag(m[0, 1])) for m in mats]

    if "position_density" in quantities:
        path = out_dir / f"{cfg.name}_position_density.csv"
        dens = np.concatenate([np.real(np.diag(m)) for m in mats]) / grid.dx
        _write_csv(path, ["t", "x", "density"],
                   [np.repeat(times, grid.n_points), np.tile(grid.x, len(mats)), dens])
        summary["files"]["position_density"] = path.name
    if "wigner_snapshots" in quantities:
        snap_times = cfg.outputs["wigner_times"] or (times[0], times[-1])
        files = []
        for k, target in enumerate(snap_times):
            idx = int(np.argmin(np.abs(times - target)))
            try:
                field = measures.wigner(mats[idx], grid)
            except ValueError as exc:
                raise ValueError(f"{exc} at t={times[idx]:.6g}") from exc
            path = out_dir / f"{cfg.name}_wigner_t{k}.csv"
            field.to_csv(path)
            files.append({"file": path.name, "time": float(times[idx])})
        summary["files"]["wigner_snapshots"] = files
    if cfg.trajectories is not None:
        # the unraveling of the same master equation, recorded at the same times
        tj = cfg.trajectories
        seed = tj.get("seed") if tj.get("seed") is not None else cfg.seed
        tcfg = TrajectoryConfig(tj["n_trajectories"], integ.dt, integ.t_final, seed,
                                integ.record_stride)
        try:
            stats = ensemble_statistics(unravel(gen, rho0, tcfg), SIGMA_X)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            raise NumericalFailure(f"trajectories: {exc}") from exc
        path = out_dir / f"{cfg.name}_trajectories.csv"
        _write_csv(path, ["t", "mean_sx", "stderr_sx"],
                   [stats["times"], stats["mean"], stats["stderr"]])
        summary["files"]["trajectories"] = path.name
    return times, res.states, series


def _run_spin_spin(cfg: ScenarioConfig, summary: dict) -> tuple:
    """The qubit's record times, its records rho_01(t) = a0 a1* z(t) from the
    bath's decoherence factor z, and its coherence column."""
    p = cfg.params
    st = cfg.initial_state
    rng = np.random.default_rng(cfg.seed)
    couplings = rng.uniform(0.0, p["coupling_scale"], size=p["n_spins"])
    times = IntegratorConfig(**cfg.integrator).record_times()
    z = spin_spin_coherence_factor(SpinSpinParams.plus_states(couplings), times)
    a0, a1 = bloch_state(st["theta"], st["phi"]).amplitudes
    rho01 = a0 * np.conj(a1) * z
    series = {}
    if "coherence_magnitude" in cfg.outputs["quantities"]:
        series["coherence_magnitude"] = np.abs(rho01)
    summary["model_info"]["gaussian_rate_estimate"] = float(
        np.sqrt(0.5 * np.sum(couplings ** 2)))
    return times, _qubit_records(abs(a0) ** 2, abs(a1) ** 2, rho01), series


def _run_cavity(cfg: ScenarioConfig, summary: dict) -> tuple:
    """The cat's record times, its records: an equal-weight two-component
    superposition whose cross term decays as c = exp(-t / T_d), and its
    visibility c and two-atom correlation c / 2."""
    p = cfg.params
    st = cfg.initial_state
    params = CavityCatParams(nbar=abs(st["alpha"]) ** 2, chi=st["chi"], Tr=p["damping_time"])
    ov = cat_overlap(params)
    t_d = cat_decoherence_time(params)
    times = IntegratorConfig(**cfg.integrator).record_times()
    coh = np.exp(-times / t_d)
    summary["model_info"].update({
        "catness": ov["catness"],
        "overlap": ov["overlap"],
        "overlap_sq": ov["overlap_sq"],
        "decoherence_time": t_d,
        "two_atom_eta_initial": 0.5,
    })
    series = {}
    if "coherence_magnitude" in cfg.outputs["quantities"]:
        series["coherence_magnitude"] = coh
        series["two_atom_eta"] = 0.5 * coh
    return times, _qubit_records(0.5, 0.5, 0.5 * coh), series


# ---------------------------------------------------------------------------
# Model listing
# ---------------------------------------------------------------------------

def list_models() -> str:
    """Stable, machine-parsable catalog of models and parameter schemas."""
    lines = []
    for model in MODEL_NAMES:
        schema = MODEL_SCHEMAS[model]
        lines.append(f"model {model}")
        lines.append(f"  description: {schema['description']}")
        lines.append(f"  reference: {schema['reference']}")
        lines.append(f"  grid: {'required' if schema['needs_grid'] else 'none'}")
        lines.append(f"  states: {', '.join(schema['states'])}")
        for key, spec in schema["params"].items():
            bits = [f"  param {key} type={spec.type}"]
            if spec.required:
                bits.append("required")
            elif spec.default is not None:
                bits.append(f"default={_format_value(spec.default)}")
            if spec.minimum is not None:
                bits.append((">" if spec.exclusive_min else ">=") + str(spec.minimum))
            if spec.choices:
                bits.append("choices=" + "|".join(spec.choices))
            if spec.help:
                bits.append(f"help={spec.help}")
            lines.append(" ".join(bits))
        lines.append("")
    return "\n".join(lines)
