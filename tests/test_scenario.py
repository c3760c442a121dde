import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import decoherence
from decoherence import measures, scenario
from decoherence.cli import main as cli_main
from decoherence.core import DensityMatrix, bloch_state
from decoherence.measures import quantum_mutual_information
from decoherence.models import SpinSpinParams
from decoherence.scenario import (
    ConfigError,
    MODEL_SCHEMAS,
    fit_decay,
    list_models,
    parse_config,
    run_scenario,
    serialize_config,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL_QUBIT = """
[scenario]
name = mini
model = spin_boson
seed = 1

[params]
alpha = 0.02
temperature = 1.0
cutoff = 50.0

[initial_state]
kind = qubit_bloch
theta = 1.5707963267948966

[integrator]
dt = 0.002
t_final = 2.0
record_stride = 50

[outputs]
quantities = coherence_magnitude, purity
fit = exponential
"""


SPIN_SPIN_MI = """
[scenario]
name = ss
model = spin_spin
seed = 5

[params]
n_spins = 6
coupling_scale = 1.0

[initial_state]
kind = qubit_bloch
theta = 1.5707963267948966

[integrator]
dt = 0.05
t_final = 2.0
record_stride = 4

[outputs]
quantities = coherence_magnitude, mutual_information
fit = gaussian
"""


def _columns(path: Path) -> dict[str, np.ndarray]:
    rows = np.genfromtxt(path, delimiter=",", names=True)
    return {name: rows[name] for name in rows.dtype.names}


def _entropy_bits(lams: np.ndarray) -> np.ndarray:
    """-sum lambda log2 lambda over axis 0, counting eigenvalues above 1e-12."""
    kept = np.where(lams > 1e-12, lams, 1.0)
    return -np.sum(kept * np.log2(kept), axis=0)


def _joint_state_mutual_information(params: SpinSpinParams, theta: float, phi: float,
                                    times: np.ndarray) -> np.ndarray:
    """I(S:E) from the 2^(n+1)-dimensional joint pure state of the qubit and
    its static spin bath, evolved by the diagonal sigma_z sigma_z coupling."""
    n = params.n_spins
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)[::-1][None, :]) & 1
    e_diag = (1.0 - 2.0 * bits) @ params.couplings
    env = np.ones(1, dtype=complex)
    for i in range(n):
        env = np.kron(env, np.array([params.alphas[i], params.betas[i]]))
    a0, a1 = bloch_state(theta, phi).amplitudes
    out = []
    for t in times:
        joint = np.concatenate([a0 * np.exp(-0.5j * e_diag * t) * env,
                                a1 * np.exp(+0.5j * e_diag * t) * env])
        rho = DensityMatrix(np.outer(joint, joint.conj()))
        out.append(quantum_mutual_information(rho, (2, 2 ** n)))
    return np.array(out)


class TestParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL_QUBIT)
        assert cfg.model == "spin_boson"
        assert cfg.params["alpha"] == 0.02
        assert cfg.params["delta0"] == 0.0  # default filled in
        assert cfg.initial_state["kind"] == "qubit_bloch"

    def test_unknown_key_rejected(self):
        bad = MINIMAL_QUBIT.replace("alpha = 0.02", "alpha = 0.02\nbogus = 1")
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(MINIMAL_QUBIT + "\n[mystery]\nx = 1\n")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL_QUBIT.replace("model = spin_boson",
                                               "model = warp_drive"))

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(MINIMAL_QUBIT.replace("alpha = 0.02", "alpha = -1"))

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="theta"):
            parse_config(MINIMAL_QUBIT.replace("theta = 1.5707963267948966", ""))

    def test_state_kind_must_match_model(self):
        bad = MINIMAL_QUBIT.replace("kind = qubit_bloch\ntheta = 1.5707963267948966",
                                    "kind = cat\nalpha = 2.0\nchi = 0.3")
        with pytest.raises(ConfigError, match="unsupported"):
            parse_config(bad)

    def test_grid_required_for_position_models(self):
        text = MINIMAL_QUBIT.replace("model = spin_boson", "model = collisional") \
            .replace("kind = qubit_bloch\ntheta = 1.5707963267948966",
                     "kind = gaussian_packet\nsigma = 0.5") \
            .replace("alpha = 0.02\ntemperature = 1.0\ncutoff = 50.0",
                     "lambda = 1.0")
        with pytest.raises(ConfigError, match="grid"):
            parse_config(text)

    @pytest.mark.parametrize("t", ["-0.01", "0.2"])
    def test_wigner_time_outside_the_run_rejected(self, t):
        parse_config(GRID_SNAPSHOTS)  # 0.0 and t_final itself are inside
        with pytest.raises(ConfigError, match=f"{t} lies outside .*t_final = 0.1"):
            parse_config(GRID_SNAPSHOTS.replace("0.0, 0.1", f"0.0, {t}"))

    def test_shipped_scenarios_validate(self):
        for path in sorted(SCENARIO_DIR.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            assert cfg.name

    def test_round_trip_is_idempotent(self):
        for path in sorted(SCENARIO_DIR.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            text1 = serialize_config(cfg)
            cfg2 = parse_config(text1)
            assert cfg2 == cfg
            assert serialize_config(cfg2) == text1


class TestFits:
    def test_exponential_fit_recovers_rate(self):
        t = np.linspace(0, 5, 200)
        rate = 0.8
        fit = fit_decay(t, np.exp(-rate * t), "exponential")
        assert fit["rate"] == pytest.approx(rate, rel=1e-6)
        assert fit["residual_rms"] < 1e-10

    def test_gaussian_fit_recovers_rate_squared(self):
        t = np.linspace(0, 3, 200)
        g_sq = 0.5
        fit = fit_decay(t, np.exp(-g_sq * t * t), "gaussian")
        assert fit["rate_sq"] == pytest.approx(g_sq, rel=1e-6)

    def test_window_excludes_floor_noise(self):
        t = np.linspace(0, 40, 400)
        values = np.exp(-t) + 1e-3  # noise floor
        fit = fit_decay(t, values, "exponential")
        assert fit["rate"] == pytest.approx(1.0, rel=0.02)


class TestRunScenario:
    def test_dephasing_qubit_outputs_and_fit(self, tmp_path):
        cfg = parse_config((SCENARIO_DIR / "dephasing_qubit.cfg").read_text())
        summary = run_scenario(cfg, out_dir=tmp_path)
        ts_path = tmp_path / "dephasing_qubit_timeseries.csv"
        assert ts_path.exists()
        header = ts_path.read_text().splitlines()[0].split(",")
        for col in ("t", "re_rho01", "im_rho01", "purity", "entropy",
                    "coherence_magnitude"):
            assert col in header
        # fitted decay rate within 1% of the literal analytic rate 4 D
        d = summary["model_info"]["dephasing_strength"]
        fit = summary["fits"]["coherence_magnitude"]
        assert fit["rate"] == pytest.approx(4.0 * d, rel=0.01)
        assert (tmp_path / "dephasing_qubit_summary.json").exists()

    def test_two_packet_collisional_snapshots(self, tmp_path):
        cfg = parse_config((SCENARIO_DIR / "two_packet_collisional.cfg").read_text())
        summary = run_scenario(cfg, out_dir=tmp_path)
        snaps = summary["files"]["wigner_snapshots"]
        assert len(snaps) == 3
        for snap in snaps:
            assert (tmp_path / snap["file"]).exists()
        # interference ridge between the packets damps away: compare the
        # central-row oscillation amplitude of first and last snapshots
        first = _wigner_mid_amplitude(tmp_path / snaps[0]["file"])
        last = _wigner_mid_amplitude(tmp_path / snaps[-1]["file"])
        assert last < 0.1 * first
        # the fitted decay rate matches Lambda (dx)^2 with dx = 2 x0
        fit = summary["fits"]["coherence_magnitude"]
        want = 0.05 * (2 * 2.0) ** 2
        assert fit["rate"] == pytest.approx(want, rel=0.05)

    def test_short_wavelength_runs_the_split_step(self, tmp_path):
        text = """
[scenario]
name = sw
model = collisional

[params]
gamma_tot = 2.0
regime = short_wavelength
free_dynamics = false

[initial_state]
kind = two_packet_cat
x0 = 1.5
sigma = 0.4

[integrator]
dt = 0.01
t_final = 0.5
record_stride = 5

[outputs]
quantities = coherence_magnitude
fit = exponential

[grid]
n_points = 32
x_min = -4.0
x_max = 4.0
"""
        summary = run_scenario(parse_config(text), out_dir=tmp_path)
        assert summary["model_info"]["evolver"] == "split_step"
        # every off-diagonal element decays at the flat rate Gamma_tot
        assert summary["fits"]["coherence_magnitude"]["rate"] == pytest.approx(2.0, rel=1e-9)

    def test_cavity_scenario_summary_values(self, tmp_path):
        cfg = parse_config((SCENARIO_DIR / "cavity_cat.cfg").read_text())
        summary = run_scenario(cfg, out_dir=tmp_path)
        info = summary["model_info"]
        assert 20e-3 <= info["decoherence_time"] <= 24e-3
        fit = summary["fits"]["coherence_magnitude"]
        assert fit["rate"] == pytest.approx(1.0 / info["decoherence_time"], rel=1e-6)

    def test_cavity_purity_and_entropy_are_the_two_level_closed_forms(self, tmp_path):
        # rho = [[1, c], [c, 1]] / 2 with c = exp(-t / T_d): eigenvalues (1 +- c) / 2
        cfg = parse_config((SCENARIO_DIR / "cavity_cat.cfg").read_text())
        summary = run_scenario(cfg, out_dir=tmp_path)
        ts = _columns(tmp_path / "cavity_cat_timeseries.csv")
        c = np.exp(-ts["t"] / summary["model_info"]["decoherence_time"])
        assert np.max(np.abs(ts["purity"] - 0.5 * (1.0 + c * c))) <= 1e-15
        want = _entropy_bits(np.stack([0.5 * (1.0 + c), 0.5 * (1.0 - c)]))
        assert np.max(np.abs(ts["entropy"] - want)) <= 1e-15

    @pytest.mark.parametrize("n_spins, seed", [(4, 11), (6, 12), (8, 13)])
    def test_spin_spin_mutual_information_matches_the_joint_state(self, tmp_path,
                                                                  n_spins, seed):
        theta, phi = 1.2, 0.3
        text = (SPIN_SPIN_MI.replace("n_spins = 6", f"n_spins = {n_spins}")
                .replace("seed = 5", f"seed = {seed}")
                .replace("theta = 1.5707963267948966", f"theta = {theta}\nphi = {phi}")
                .replace("t_final = 2.0\nrecord_stride = 4",
                         "t_final = 1.0\nrecord_stride = 2"))
        cfg = parse_config(text)
        run_scenario(cfg, out_dir=tmp_path)
        ts = _columns(tmp_path / "ss_timeseries.csv")
        # the runner's couplings: uniform on [0, coupling_scale] from the seed
        couplings = np.random.default_rng(seed).uniform(0.0, 1.0, size=n_spins)
        want = _joint_state_mutual_information(SpinSpinParams.plus_states(couplings),
                                               theta, phi, ts["t"])
        assert len(ts["t"]) == 11
        assert np.max(np.abs(ts["mutual_information"] - want)) <= 1e-12
        assert want[-1] > 0.5

    def test_empty_outputs_summary_only(self, tmp_path):
        text = MINIMAL_QUBIT.replace(
            "quantities = coherence_magnitude, purity", "quantities =").replace(
            "fit = exponential", "fit = none")
        cfg = parse_config(text)
        summary = run_scenario(cfg, out_dir=tmp_path)
        assert summary["files"].get("timeseries") is None
        assert (tmp_path / "mini_summary.json").exists()

    def test_spin_spin_mutual_information_series(self, tmp_path):
        cfg = parse_config(SPIN_SPIN_MI)
        summary = run_scenario(cfg, out_dir=tmp_path)
        rows = (tmp_path / "ss_timeseries.csv").read_text().splitlines()
        header = rows[0].split(",")
        mi_col = header.index("mutual_information")
        coh_col = header.index("coherence_magnitude")
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert float(first[mi_col]) == pytest.approx(0.0, abs=1e-9)
        assert float(last[mi_col]) > 0.5
        assert float(last[coh_col]) < float(first[coh_col])
        assert "rate_sq" in summary["fits"]["coherence_magnitude"]

    def test_custom_lindblad_model(self, tmp_path):
        text = """
[scenario]
name = custom
model = custom_lindblad
seed = 0

[params]
dim = 2
hamiltonian = 0, 0, 0, 0
lindblad_1 = 1, 0, 0, -1
rate_1 = 0.5

[initial_state]
kind = qubit_bloch
theta = 1.5707963267948966

[integrator]
dt = 0.002
t_final = 2.0
record_stride = 100

[outputs]
quantities = coherence_magnitude
fit = exponential
"""
        cfg = parse_config(text)
        summary = run_scenario(cfg, out_dir=tmp_path)
        # sigma_z at rate 0.5 dephases |rho01| at rate 2 * 0.5 = 1
        assert summary["fits"]["coherence_magnitude"]["rate"] == \
            pytest.approx(1.0, rel=0.01)

    def test_fixed_seed_runs_are_byte_identical(self, tmp_path):
        cfg_text = (SCENARIO_DIR / "dephasing_qubit.cfg").read_text()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_scenario(parse_config(cfg_text), out_dir=out1)
        run_scenario(parse_config(cfg_text), out_dir=out2)
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()


CUSTOM_TRAJECTORIES = """
[scenario]
name = traj
model = custom_lindblad
seed = 3

[params]
dim = 2
hamiltonian = 0, 0, 0, 0
lindblad_1 = 1, 0, 0, -1
rate_1 = 0.5

[initial_state]
kind = qubit_bloch
theta = 1.5707963267948966

[integrator]
dt = 0.01
t_final = 0.5
record_stride = 10

[outputs]
quantities = coherence_magnitude

[trajectories]
n_trajectories = 16
"""

GRID_SNAPSHOTS = """
[scenario]
name = snaps
model = collisional

[params]
lambda = 0.5
free_dynamics = false

[initial_state]
kind = gaussian_packet
sigma = 0.5

[integrator]
dt = 0.01
t_final = 0.1
record_stride = 5

[outputs]
quantities = wigner_snapshots
wigner_times = 0.0, 0.1

[grid]
n_points = 64
x_min = -6.0
x_max = 6.0
"""


def _run_cli_subprocess(*args: str) -> subprocess.CompletedProcess:
    """`python -m decoherence.cli *args` in a child that imports the package
    under test, also when only pytest's pythonpath puts it on sys.path."""
    src = str(Path(decoherence.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "decoherence.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


class TestTrajectoriesScenario:
    def test_writes_trajectories_and_reruns_byte_identical(self, tmp_path):
        path = tmp_path / "traj.cfg"
        path.write_text(CUSTOM_TRAJECTORIES)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["run", str(path), "--out", str(out1)]) == 0
        assert cli_main(["run", str(path), "--out", str(out2)]) == 0
        rows = (out1 / "traj_trajectories.csv").read_text().splitlines()
        assert rows[0] == "t,mean_sx,stderr_sx"
        assert len(rows) == 1 + 6  # t = 0, 0.1, ..., 0.5
        names = sorted(f.name for f in out1.iterdir())
        assert names == sorted(f.name for f in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_trajectories_record_on_the_integrator_grid(self, tmp_path, capsys):
        # the trajectories step on the integrator's dt: a finer trajectory
        # step is written as its folded twin, the integrator's dt halved and
        # its record stride doubled
        path = tmp_path / "traj.cfg"
        path.write_text(CUSTOM_TRAJECTORIES + "dt = 0.005\n")
        assert cli_main(["validate", str(path)]) == 2
        assert "unknown key 'dt' in section [trajectories]" in capsys.readouterr().err
        path.write_text(CUSTOM_TRAJECTORIES.replace("dt = 0.01", "dt = 0.005")
                        .replace("record_stride = 10", "record_stride = 20"))
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0

        def t_column(name):
            rows = (tmp_path / name).read_text().splitlines()
            return [row.split(",")[0] for row in rows]

        want = t_column("traj_timeseries.csv")
        assert len(want) == 1 + 6  # t = 0, 0.1, ..., 0.5
        assert t_column("traj_trajectories.csv") == want


def _wigner_mid_amplitude(path: Path) -> float:
    rows = np.genfromtxt(path, delimiter=",", names=True)
    x = rows["x"]
    mid = np.abs(x) < 0.2
    return float(np.max(np.abs(rows["w"][mid])))


class TestListModels:
    def test_lists_all_seven_models(self):
        text = list_models()
        entries = [l for l in text.splitlines() if l.startswith("model ")]
        assert len(entries) == 7

    def test_every_entry_names_a_reference_topic(self):
        text = list_models()
        blocks = text.split("model ")[1:]
        for block in blocks:
            assert "reference:" in block

    def test_schema_round_trip_every_listed_parameter_is_accepted(self):
        # build a minimal scenario for each model exercising every listed
        # parameter; validation must accept them all
        fillers = {
            "collisional": ("lambda = 0.5\ngamma_tot = 0.0\nregime = long_wavelength"
                            "\nmass = 1.0\nfree_dynamics = true",
                            "kind = gaussian_packet\nsigma = 0.5",
                            "[grid]\nn_points = 32\nx_min = -4\nx_max = 4"),
            "qbm": ("mass = 1\nomega = 1\ngamma0 = 0.1\ntemperature = 100\n"
                    "cutoff = 10\nanomalous = false",
                    "kind = gaussian_packet\nsigma = 0.5",
                    "[grid]\nn_points = 32\nx_min = -4\nx_max = 4"),
            "caldeira_leggett": ("mass = 1\nomega = 1\ngamma0 = 0.1\n"
                                 "temperature = 100\ncutoff = 10\ndissipation = true",
                                 "kind = gaussian_packet\nsigma = 0.5",
                                 "[grid]\nn_points = 32\nx_min = -4\nx_max = 4"),
            "spin_boson": ("alpha = 0.1\ntemperature = 1\ncutoff = 50\ndelta0 = 0",
                           "kind = qubit_bloch\ntheta = 1.0", ""),
            "spin_spin": ("n_spins = 4\ncoupling_scale = 1.0",
                          "kind = qubit_bloch\ntheta = 1.0", ""),
            "cavity_cat": ("damping_time = 0.13",
                           "kind = cat\nalpha = 2.0\nchi = 1.0", ""),
            "custom_lindblad": ("dim = 2\nhamiltonian = 0,0,0,0\n"
                                "lindblad_1 = 1,0,0,-1\nrate_1 = 0.1",
                                "kind = qubit_bloch\ntheta = 1.0", ""),
        }
        for model, (params, state, grid) in fillers.items():
            text = f"""
[scenario]
name = probe
model = {model}
seed = 0

[params]
{params}

[initial_state]
{state}

[integrator]
dt = 0.01
t_final = 0.1

[outputs]
quantities = coherence_magnitude
{grid}
"""
            cfg = parse_config(text)
            assert cfg.model == model
            declared = set(MODEL_SCHEMAS[model]["params"])
            assert set(cfg.params) <= declared


class TestCLI:
    def test_models_command(self, capsys):
        assert cli_main(["models"]) == 0
        out = capsys.readouterr().out
        assert "model spin_boson" in out

    def test_validate_ok(self, capsys):
        rc = cli_main(["validate", str(SCENARIO_DIR / "dephasing_qubit.cfg")])
        assert rc == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(MINIMAL_QUBIT + "\n[mystery]\nx = 1\n")
        assert cli_main(["validate", str(bad)]) == 2

    def test_missing_file_exits_2(self):
        assert cli_main(["validate", "/nonexistent/nope.cfg"]) == 2

    @pytest.mark.parametrize("text", [
        MINIMAL_QUBIT.replace("seed = 1", "seed = -1"),
        CUSTOM_TRAJECTORIES + "seed = -1\n",
    ], ids=["scenario_seed", "trajectories_seed"])
    def test_negative_seed_fails_validation(self, tmp_path, capsys, text):
        path = tmp_path / "neg.cfg"
        path.write_text(text)
        assert cli_main(["validate", str(path)]) == 2
        assert "key 'seed': must be >= 0" in capsys.readouterr().err

    def test_negative_seed_option_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", str(SCENARIO_DIR / "dephasing_qubit.cfg"),
                       "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_mutual_information_of_128_spins_validates_and_runs(self, tmp_path):
        # I(S:E) = 2 S(rho_S) needs no joint state, so the bath size is not capped
        path = tmp_path / "ss128.cfg"
        path.write_text(SPIN_SPIN_MI.replace("n_spins = 6", "n_spins = 128").replace(
            "coherence_magnitude, mutual_information",
            "coherence_magnitude, entropy, mutual_information"))
        assert cli_main(["validate", str(path)]) == 0
        start = time.perf_counter()
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 1.0
        ts = _columns(tmp_path / "ss_timeseries.csv")
        assert np.array_equal(ts["mutual_information"], 2.0 * ts["entropy"])
        # an equatorial qubit's eigenvalues are (1 +- 2 |rho01|) / 2
        r = 2.0 * ts["coherence_magnitude"]
        want = _entropy_bits(np.stack([0.5 * (1.0 + r), 0.5 * (1.0 - r)]))
        assert np.max(np.abs(ts["entropy"] - want)) <= 1e-12
        assert ts["mutual_information"][-1] > 1.9

    def test_run_writes_outputs(self, tmp_path, capsys):
        rc = cli_main(["run", str(SCENARIO_DIR / "dephasing_qubit.cfg"),
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "dephasing_qubit_summary.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "dephasing_qubit"

    @pytest.mark.parametrize("state", ["alpha = 2.0\nchi = 0.0", "alpha = 0.0\nchi = 0.3"],
                             ids=["sin_chi_zero", "alpha_zero"])
    def test_zero_catness_exits_2(self, tmp_path, capsys, state):
        # a cat whose components coincide has no decoherence time
        text = f"""
[scenario]
name = nocat
model = cavity_cat
seed = 0

[params]
damping_time = 0.13

[initial_state]
kind = cat
{state}

[integrator]
dt = 0.001
t_final = 0.05

[outputs]
quantities = coherence_magnitude
"""
        path = tmp_path / "nocat.cfg"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert "zero catness" in capsys.readouterr().err

    def test_oscillator_bath_positivity_loss_names_the_damping_term(self, tmp_path, capsys):
        # the damping term gamma [x, {p, rho}] is not completely positive: a
        # cat in the weak-coupling equation loses positivity within 10 steps
        path = tmp_path / "qbm_cat.cfg"
        path.write_text("""
[scenario]
name = qbm_cat
model = qbm

[params]
mass = 1.0
omega = 1.0
gamma0 = 0.1
temperature = 5.0
cutoff = 10.0

[initial_state]
kind = two_packet_cat
x0 = 2.0
sigma = 0.5

[integrator]
dt = 0.0005
t_final = 0.05
record_stride = 10

[outputs]
quantities = purity

[grid]
n_points = 64
x_min = -8.0
x_max = 8.0
""")
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "negative eigenvalue" in err and "t=0.005;" in err
        assert "gamma [x, {p, rho}]" in err and "lindblad_repair_caldeira_leggett" in err

    def test_rk4_instability_asks_for_a_smaller_step(self, tmp_path, capsys):
        # the kernel rate 2D (x_i - x_j)^2 / 2 reaches about 2 560, so dt = 0.01
        # is far outside RK4's stability interval: the step, not the damping
        # term, is at fault.  A cat, since a packet takes the Gaussian route
        path = tmp_path / "cl_stiff.cfg"
        path.write_text("""
[scenario]
name = cl_stiff
model = caldeira_leggett

[params]
mass = 1.0
omega = 1.0
gamma0 = 0.1
temperature = 50.0
cutoff = 5.0

[initial_state]
kind = two_packet_cat
x0 = 2.0
sigma = 0.5

[integrator]
dt = 0.01
t_final = 0.1

[outputs]
quantities = purity

[grid]
n_points = 64
x_min = -8.0
x_max = 8.0
""")
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "reduce dt" in err and "dt * max|K| = 25.6" in err
        assert "not completely positive" not in err
        # the message names the stage that failed
        assert err.startswith("numerical failure: propagate: density matrix has negative")

    def test_trajectory_failure_names_its_stage(self, tmp_path, capsys):
        # Euler drift under H alone leaves the ensemble mean off the positive
        # cone; the master equation itself runs
        path = tmp_path / "unitary.cfg"
        path.write_text("""
[scenario]
name = unitary
model = custom_lindblad

[params]
dim = 2
hamiltonian = 1, 4, 4, -1

[initial_state]
kind = qubit_bloch
theta = 1.0

[integrator]
dt = 0.0167
t_final = 1.002

[outputs]
quantities = coherence_magnitude

[trajectories]
n_trajectories = 20
""")
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: trajectories: ensemble mean: density matrix "
                              "has negative eigenvalue")
        assert "at t=0.3006; reduce dt" in err

    @pytest.mark.parametrize("out", ["blocker", "blocker/results"],
                             ids=["regular_file", "under_regular_file"])
    def test_unwritable_output_directory_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "blocker").write_text("")
        rc = cli_main(["run", str(SCENARIO_DIR / "dephasing_qubit.cfg"),
                       "--out", str(tmp_path / out)])
        assert rc == 2
        assert "error: cannot write outputs:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        # a non-Hermitian Hamiltonian
        (CUSTOM_TRAJECTORIES.replace("hamiltonian = 0, 0, 0, 0",
                                     "hamiltonian = 0, 0.05, 0, 0")
         .split("[trajectories]")[0], "hamiltonian must be Hermitian"),
        # spin_boson's generator always carries non-Lindblad terms
        (MINIMAL_QUBIT + "\n[trajectories]\nn_trajectories = 10\n", "custom_lindblad model only"),
        # a non-Hermitian Lindblad operator cannot be unraveled
        (CUSTOM_TRAJECTORIES.replace("lindblad_1 = 1, 0, 0, -1", "lindblad_1 = 0, 1, 0, 0"),
         "Hermitian lindblad_i"),
        # fewer than one step
        (MINIMAL_QUBIT.replace("t_final = 2.0", "t_final = 0.001"),
         "t_final = 0.001 must be a whole number, at least 1, of steps dt = 0.002"),
        # a Wigner snapshot after the last record
        (GRID_SNAPSHOTS.replace("wigner_times = 0.0, 0.1", "wigner_times = 0.0, 0.2"),
         "wigner_times: 0.2 lies outside"),
        # 1.0 is not a whole number of 0.3 steps: the last record would be t = 0.9
        ((SCENARIO_DIR / "dephasing_qubit.cfg").read_text()
         .replace("dt = 0.002", "dt = 0.3").replace("t_final = 6.0", "t_final = 1.0"),
         "t_final = 1.0 must be a whole number, at least 1, of steps dt = 0.3"),
        # the packet at 7.5 + 6 * 0.5 wraps round the periodic grid edge at 8
        ((SCENARIO_DIR / "two_packet_collisional.cfg").read_text()
         .replace("x0 = 2.0", "x0 = 7.5"),
         "x0 = 7.5, sigma = 0.5 reaches [-10.5, 10.5] at 6 sigma, outside the grid [-8.0, 8.0]"),
        # 12 + 3 / 0.5 past the 64-point grid's pi / dx = 16.49
        (GRID_SNAPSHOTS.replace("sigma = 0.5", "sigma = 0.5\nk0 = 12.0")
         .replace("quantities = wigner_snapshots", "quantities = purity"),
         "|k0| + 3 / sigma = 18, past the grid's pi / dx = 16.4934"),
        # 10 + 3 / 0.5 fits pi / dx but not the momenta pi / (2 dx) of a snapshot
        (GRID_SNAPSHOTS.replace("sigma = 0.5", "sigma = 0.5\nk0 = 10.0"),
         "|k0| + 3 / sigma = 16, past the Wigner range pi / (2 dx) = 8.24668"),
        # non-finite numbers, also inside a list
        (MINIMAL_QUBIT.replace("theta = 1.5707963267948966", "theta = nan"),
         "key 'theta': 'nan' is not finite"),
        (GRID_SNAPSHOTS.replace("wigner_times = 0.0, 0.1", "wigner_times = 0.0, inf"),
         "key 'wigner_times': '0.0, inf' is not finite"),
        # 4 |alpha|^2 sin^2 chi overflows a float
        ((SCENARIO_DIR / "cavity_cat.cfg").read_text()
         .replace("alpha = 1.8708286933869707", "alpha = 1e200"),
         "catness 4 |alpha|^2 sin^2 chi is not finite"),
        # one trajectory has no ensemble statistics
        (CUSTOM_TRAJECTORIES.replace("n_trajectories = 16", "n_trajectories = 1"),
         "key 'n_trajectories': must be >= 2"),
        # each scattering regime uses one of the two rates
        ((SCENARIO_DIR / "two_packet_collisional.cfg").read_text()
         .replace("lambda = 0.05", "lambda = 0.05\ngamma_tot = 5.0"),
         "key 'gamma_tot': the long_wavelength regime does not use it"),
        ((SCENARIO_DIR / "two_packet_collisional.cfg").read_text()
         .replace("regime = long_wavelength", "regime = short_wavelength"),
         "key 'lambda': the short_wavelength regime does not use it"),
        # a fit has no coherence column to fit
        ((SCENARIO_DIR / "dephasing_qubit.cfg").read_text()
         .replace("quantities = coherence_magnitude, purity, entropy",
                  "quantities = purity, entropy"),
         "fit = exponential needs coherence_magnitude in quantities"),
    ], ids=["non_hermitian_h", "spin_boson_trajectories",
            "non_hermitian_l_trajectories", "t_final_below_dt",
            "wigner_time_past_t_final", "t_final_not_whole_steps",
            "packet_past_grid_edge", "packet_past_grid_momentum",
            "packet_past_wigner_range", "non_finite_float", "non_finite_list_entry",
            "catness_past_float_range", "one_trajectory", "long_wavelength_gamma_tot",
            "short_wavelength_lambda", "fit_without_coherence"])
    def test_input_errors_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_aliased_wigner_snapshot_names_its_time(self, tmp_path, capsys):
        # the packet starts inside the Wigner transform's momentum range
        # pi / (2 dx), and strong scattering spreads its momenta past it
        path = tmp_path / "aliased.cfg"
        path.write_text(GRID_SNAPSHOTS.replace("lambda = 0.5", "lambda = 20.0")
                        .replace("wigner_times = 0.0, 0.1", "wigner_times = 0.1"))
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Wigner at t=0.1: Wigner marginals off")

    def test_failed_snapshot_writes_no_earlier_table(self, tmp_path, capsys):
        # the density and the t=0 snapshot are computed before the t=0.1
        # snapshot fails, and neither is written
        path = tmp_path / "aliased.cfg"
        path.write_text(GRID_SNAPSHOTS.replace("lambda = 0.5", "lambda = 20.0")
                        .replace("quantities = wigner_snapshots",
                                 "quantities = position_density, wigner_snapshots"))
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: Wigner at t=0.1: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aliased.cfg"]

    @pytest.mark.parametrize("error", [ArithmeticError, ValueError, RuntimeError])
    @pytest.mark.parametrize("module, callee, text, stage", [
        (scenario, "bloch_state", MINIMAL_QUBIT, "initial state"),
        (scenario, "_generator", MINIMAL_QUBIT, "bath coefficients"),
        (scenario, "propagate", MINIMAL_QUBIT, "propagate"),
        (measures, "wigner", GRID_SNAPSHOTS, "Wigner at t=0"),
        (scenario, "unravel", CUSTOM_TRAJECTORIES, "trajectories"),
        (scenario, "_run_cavity", (SCENARIO_DIR / "cavity_cat.cfg").read_text(), "cavity_cat"),
        (scenario, "_run_spin_spin", SPIN_SPIN_MI, "spin_spin"),
        (scenario, "_tabulate", MINIMAL_QUBIT, "tabulate"),
        (scenario, "fit_decay", MINIMAL_QUBIT, "fit"),
    ], ids=["initial_state", "bath_coefficients", "propagate", "wigner", "trajectories",
            "cavity_cat", "spin_spin", "tabulate", "fit"])
    def test_every_stage_names_itself(self, tmp_path, capsys, monkeypatch,
                                      module, callee, text, stage, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(module, callee, fail)
        path = tmp_path / "stage.cfg"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"numerical failure: {stage}: injected\n"
        assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("text, message", [
        # the two components coincide to 1e-320: T_d = Tr / (2 nbar (1 - cos chi)) = inf
        ((SCENARIO_DIR / "cavity_cat.cfg").read_text()
         .replace("alpha = 1.8708286933869707", "alpha = 1e-160"),
         "model_info.decoherence_time = inf is not finite"),
        # sum g_i^2 overflows in the Gaussian rate estimate
        (SPIN_SPIN_MI.replace("n_spins = 6", "n_spins = 8")
         .replace("coupling_scale = 1.0", "coupling_scale = 1e200"),
         "model_info.gaussian_rate_estimate = inf is not finite"),
    ], ids=["cat_of_vanishing_catness", "overflowing_couplings"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_summary_exits_3(self, tmp_path, capsys, text, message):
        # the summary must stay strict JSON, which has no Infinity
        path = tmp_path / "inf.cfg"
        path.write_text(text)
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"numerical failure: summary: {message}\n"
        assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("old, new, message", [
        ("cutoff = 50.0", "cutoff = 1e200", "out of range"),  # OverflowError
        ("temperature = 1.0", "temperature = 1e308", "division by zero"),
    ], ids=["overflow", "zero_division"])
    def test_arithmetic_failures_exit_3(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "bath.cfg"
        path.write_text((SCENARIO_DIR / "dephasing_qubit.cfg").read_text().replace(old, new))
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        # the message names the stage that failed
        assert "numerical failure: bath coefficients: " in err and message in err

    def test_overflowing_bath_quadrature_exits_3(self, tmp_path):
        # the nan [0, w0] part of a lag integral once reached QUADPACK's QAWF
        # as its tolerance and crashed the interpreter: run it in a child
        path = tmp_path / "bath.cfg"
        path.write_text((SCENARIO_DIR / "dephasing_qubit.cfg").read_text()
                        .replace("alpha = 0.02", "alpha = 1e308"))
        proc = _run_cli_subprocess("run", str(path), "--out", str(tmp_path))
        assert proc.returncode == 3
        assert "integral over [0, 125.664] is not finite" in proc.stderr

    def test_non_hermitian_lindblad_operator_runs_without_trajectories(self, tmp_path):
        # amplitude damping is a valid master equation; only its diffusive
        # unraveling needs a Hermitian operator
        path = tmp_path / "decay.cfg"
        path.write_text(CUSTOM_TRAJECTORIES.replace("lindblad_1 = 1, 0, 0, -1",
                                                    "lindblad_1 = 0, 1, 0, 0")
                        .split("[trajectories]")[0])
        assert cli_main(["run", str(path), "--out", str(tmp_path)]) == 0

    def test_entry_point_runs_as_subprocess(self, tmp_path):
        proc = _run_cli_subprocess("models")
        assert proc.returncode == 0
        assert "model collisional" in proc.stdout
