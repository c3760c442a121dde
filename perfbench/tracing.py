"""Per-layer spans and counts, recorded around the program's public entry points.

`instrument` replaces functions and methods of the `decoherence` modules
with wrappers for the duration of a `with` block; the program's files are
not touched.  Each wrapper records a span (id, name, start, end, parent id)
in memory, adds its duration to the span name's total and its duration
minus its children's to the name's self time, and may add counts taken
from the call's arguments or result.  Spans assume one thread, which the
benchmark fixes with DECOHERENCE_NUM_THREADS=1.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.enabled = False
        self._next_id = 0
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, on_call=None, on_return=None, caller_prefix=None):
        """A traced stand-in for fn.

        on_call(args, kwargs) and on_return(result, args, kwargs) add counts;
        with caller_prefix, only calls from modules whose name starts with
        it are recorded.
        """
        def traced(*args, **kwargs):
            if not self.enabled or (caller_prefix is not None and not sys._getframe(1)
                                    .f_globals.get("__name__", "").startswith(caller_prefix)):
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            if on_call is not None:
                on_call(self.counts, args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.spans.append((sid, name, start, end,
                                   parent[0] if parent is not None else None))
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
            if on_return is not None:
                on_return(self.counts, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, extra: dict) -> None:
        """Write the recorded spans, per-name totals and counts as JSON."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        payload = {
            **extra,
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [[sid, name, start - t0, end - t0, parent]
                      for sid, name, start, end, parent in self.spans],
            "layers": {name: {"calls": self.calls[name], "total_s": self.total[name],
                              "self_s": self.self_time[name]} for name in sorted(self.calls)},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class Patches:
    """Attribute replacements, undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Replace every module-level reference to original in the package.

        Modules that imported a function by name hold their own reference,
        so each decoherence module's namespace is searched.
        """
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "decoherence"
                                   or mod_name.startswith("decoherence.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def _array_bytes(obj, seen: set, depth: int = 0) -> int:
    """Bytes of the distinct numpy arrays reachable from obj's attributes."""
    if depth > 4:
        return 0
    if isinstance(obj, np.ndarray):
        base = obj if obj.base is None else obj.base
        if id(base) in seen or not isinstance(base, np.ndarray):
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(o, seen, depth + 1) for o in obj)
    if isinstance(obj, (str, bytes, int, float, complex, bool)) or obj is None:
        return 0
    fields = list(getattr(obj, "__dict__", {}).values())
    for cls in type(obj).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if hasattr(obj, slot):
                fields.append(getattr(obj, slot))
    return sum(_array_bytes(o, seen, depth + 1) for o in fields)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _evolve_steps(counts, result, args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["lindblad.steps"] += int(round(cfg.t_final / cfg.dt))


def _generator_bytes(counts, result, args, kwargs):
    counts["models.generator_bytes"] += _array_bytes(result, set())


def _split_steps(counts, args, kwargs):
    counts["models.split_steps"] += _arg(args, kwargs, 4, "n_steps")


def _unravel_counts(counts, result, args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    counts["trajectories.steps"] += cfg.n_trajectories * cfg.n_steps
    counts["trajectories.ensemble_bytes"] += result.conditioned_states.nbytes


class _TracedJson:
    """Stands in for the json module inside decoherence.scenario."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def instrument(tracer: Tracer) -> Patches:
    """Wrap the entry points of each measured layer; use as a context manager."""
    import numpy.linalg as la

    from decoherence import core, lindblad, measures, scenario, trajectories
    from decoherence.models import collisional, qbm, spin_boson

    p = Patches()
    w = tracer.wrap
    # core: every eigendecomposition the package asks numpy for
    for fname in ("eigvalsh", "eigh"):
        p.set(la, fname, w("core.eig", getattr(la, fname), caller_prefix="decoherence"))
    p.set(core.DensityMatrix, "__init__", w("core.density_matrix", core.DensityMatrix.__init__))
    # lindblad: generator apply and the RK4 integrator
    p.set(lindblad.LindbladGenerator, "apply",
          w("lindblad.apply", lindblad.LindbladGenerator.apply))
    p.everywhere(lindblad.evolve, w("lindblad.evolve", lindblad.evolve,
                                    on_return=_evolve_steps))
    # lindblad: bath quadratures
    for mod in (lindblad, spin_boson):
        p.set(mod, "quad", w("lindblad.quad", mod.quad))
    for fn in (lindblad.born_markov_coefficients, spin_boson.spin_boson_born_markov,
               spin_boson.spin_boson_dephasing_strength):
        p.everywhere(fn, w("lindblad.coefficients", fn))
    # models: generator construction and the split-step propagator
    for fn in (collisional.collisional_generator, qbm.qbm_generator,
               qbm.caldeira_leggett_generator):
        p.everywhere(fn, w("models.build", fn, on_return=_generator_bytes))
    p.everywhere(collisional.collisional_evolve_split_step,
                 w("models.split_step", collisional.collisional_evolve_split_step,
                   on_call=_split_steps))
    # measures
    p.everywhere(measures.wigner, w("measures.wigner", measures.wigner))
    p.everywhere(measures.von_neumann_entropy,
                 w("measures.entropy", measures.von_neumann_entropy))
    # trajectories
    p.everywhere(trajectories.unravel, w("trajectories.unravel", trajectories.unravel,
                                         on_return=_unravel_counts))
    p.everywhere(trajectories.ensemble_statistics,
                 w("trajectories.stats", trajectories.ensemble_statistics))
    # scenario: the runner and everything it writes
    p.everywhere(scenario.run_scenario, w("scenario.run", scenario.run_scenario))
    p.set(scenario, "_write_csv", w("scenario.write", scenario._write_csv))
    p.set(measures.WignerField, "to_csv", w("scenario.write", measures.WignerField.to_csv))
    p.set(scenario, "json", _TracedJson(scenario.json,
                                        w("scenario.write", scenario.json.dump)))
    return p


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-pass layer metrics from the tracer's totals since its last reset."""
    c, tot, own, n = tracer.calls, tracer.total, tracer.self_time, tracer.counts
    unravel_s = tot["trajectories.unravel"]
    return {
        "core.eig_calls": c["core.eig"],
        "core.eig_s": tot["core.eig"],
        "core.density_matrix_calls": c["core.density_matrix"],
        "core.density_matrix_s": tot["core.density_matrix"],
        "lindblad.apply_calls": c["lindblad.apply"],
        "lindblad.apply_s": tot["lindblad.apply"],
        "lindblad.steps": n["lindblad.steps"],
        "lindblad.evolve_self_s": own["lindblad.evolve"],
        "lindblad.quad_calls": c["lindblad.quad"],
        "lindblad.coefficients_s": tot["lindblad.coefficients"],
        "models.build_s": own["models.build"],
        "models.generator_mb": n["models.generator_bytes"] / 2 ** 20,
        "models.split_step_s": tot["models.split_step"],
        "models.split_steps": n["models.split_steps"],
        "measures.wigner_calls": c["measures.wigner"],
        "measures.wigner_s": tot["measures.wigner"],
        "measures.entropy_calls": c["measures.entropy"],
        "measures.entropy_s": tot["measures.entropy"],
        "trajectories.unravel_s": unravel_s,
        "trajectories.traj_steps_per_s":
            n["trajectories.steps"] / unravel_s if unravel_s > 0 else 0.0,
        "trajectories.stats_s": tot["trajectories.stats"],
        "trajectories.ensemble_mb": n["trajectories.ensemble_bytes"] / 2 ** 20,
        "scenario.write_s": tot["scenario.write"],
        "scenario.run_self_s": own["scenario.run"],
    }
