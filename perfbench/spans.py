"""Per-module spans recorded from outside the library.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every module attribute that refers to them: the defining module,
each ``from .x import f`` name in the other qhermite modules, the package
namespace and the ``verify.SUITES`` table.  Calls made through any of those
names then open a span.  Nothing in ``src/`` is edited; ``uninstall``
restores the original bindings.

A span's self time is its duration minus the durations of the spans it
opened.  Spans are aggregated in memory as they close: calls and self time
per function, plus the few argument-derived counters the ratio metrics
need.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

#: the layers are the modules; these are their traced public functions
TRACED = {
    "qcore": ("as_qparam", "q_number", "q_pochhammer", "e_q", "e_q_tilde", "e_q_gaussian",
              "e_q_reciprocal", "jackson_integral"),
    "polyfam": ("recurrence_coeff", "eval_orthonormal", "eval_orthonormal_sequence",
                "rogers_theta_rule", "gram_matrix", "rogers_trig_eval", "discrete1_eval",
                "discrete1_polynomial", "discrete2_eval_series", "phi_2_1"),
    "oscillator": ("build_operator", "commutator_residual", "spectrum", "hamiltonian_form_ratio",
                   "qdiff_residual_rogers", "qdiff_residual_discrete2"),
    "coherent": ("bg_expansion", "eigen_residual", "overlap", "closed_form_rogers_cs",
                 "closed_form_discrete2_cs", "resolution_moment_profile",
                 "moment_recurrence_check", "radius_estimate"),
    "transform": ("gft_apply", "gft_matrix", "poisson_kernel"),
    "verify": ("suite_qcore", "suite_jackson", "suite_moments", "suite_gram", "suite_crosseval",
               "suite_commutator", "suite_spectrum", "suite_qdiff", "suite_coherent",
               "suite_overlap", "suite_radius", "suite_gft"),
    "cli": ("build_parser", "run", "emit"),
}

#: functions whose distinct argument tuples are counted per op
DISTINCT = ("polyfam.recurrence_coeff", "polyfam.rogers_theta_rule")

#: spans under which a theta-rule build counts as a quadrature refinement step
QUADRATURE_PARENTS = ("polyfam.gram_matrix", "transform.gft_apply")

#: ratio metrics derived from the counters: (name, unit, better)
RATIOS = (
    ("polyfam.rogers_theta_rule.distinct_frac", "frac", "higher"),
    ("polyfam.recurrence_coeff.distinct_frac", "frac", "higher"),
    ("polyfam.quadrature_builds_per_result", "builds/result", "lower"),
    ("polyfam.eval_orthonormal_sequence.elements", "elements/op", "lower"),
    ("polyfam.eval_orthonormal_sequence.bytes_computed", "B/op", "lower"),
    ("polyfam.eval_orthonormal_sequence.elements_per_s", "1/s", "higher"),
    ("oscillator.build_operator.entries_per_s", "1/s", "higher"),
    ("tracing_overhead_frac", "frac", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for module, names in TRACED.items():
        for fn in names:
            specs.append((f"{module}.{fn}.calls", "calls/op", "lower"))
            specs.append((f"{module}.{fn}.self_s", "s/op", "lower"))
    for module in TRACED:
        specs.append((f"{module}.calls", "calls/op", "lower"))
        specs.append((f"{module}.self_s", "s/op", "lower"))
    specs.extend(RATIOS)
    return specs


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.distinct_calls = Counter()  # distinct argument tuples, summed per op
        self.quadrature_builds = 0       # theta-rule builds under QUADRATURE_PARENTS
        self.quadrature_results = 0      # gft_apply calls + Rogers gram_matrix calls
        self.eos_elements = 0            # sum of (nmax + 1) * |x| over sequence evaluations
        self.operator_entries = 0        # sum of dim^2 over operator builds
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._seen: dict[str, set] = {key: set() for key in DISTINCT}
        self._restore: list[tuple[dict, str, object]] = []
        self._active = [True]

    # -- per-op bookkeeping ---------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's own gates) open no span."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def end_op(self) -> None:
        """Close the current op: fold its distinct-argument sets into counts."""
        for key, seen in self._seen.items():
            self.distinct_calls[key] += len(seen)
            seen.clear()

    # -- wrapping -------------------------------------------------------------

    def _on_call(self, key: str, args: tuple, kwargs: dict) -> None:
        if key in self._seen:
            self._seen[key].add((args, tuple(sorted(kwargs.items()))))
        if key == "polyfam.rogers_theta_rule":
            if any(frame[0] in QUADRATURE_PARENTS for frame in self._stack):
                self.quadrature_builds += 1
        elif key == "transform.gft_apply":
            self.quadrature_results += 1
        elif key == "polyfam.gram_matrix":
            family = args[0] if args else kwargs["family"]
            if family.kind.value == "rogers":
                self.quadrature_results += 1
        elif key == "polyfam.eval_orthonormal_sequence":
            nmax = args[1] if len(args) > 1 else kwargs["nmax"]
            x = args[2] if len(args) > 2 else kwargs["x"]
            self.eos_elements += (nmax + 1) * int(np.size(x))
        elif key == "oscillator.build_operator":
            dim = args[3] if len(args) > 3 else kwargs["dim"]
            self.operator_entries += dim * dim

    def _wrap(self, key: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        hooked = key in DISTINCT + QUADRATURE_PARENTS + (
            "polyfam.eval_orthonormal_sequence", "oscillator.build_operator")
        on_call = self._on_call
        active = self._active

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if hooked:
                on_call(key, args, kwargs)
            frame = [key, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[key] += 1
                self_s[key] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        """Wrap every TRACED function and rebind every name that refers to it:
        module attributes and the entries of module-level dicts (verify.SUITES)."""
        wrappers: dict[int, object] = {}
        originals: dict[int, str] = {}
        for module, names in TRACED.items():
            mod = importlib.import_module(f"qhermite.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(f"{module}.{fn_name}")
                    continue
                wrappers[id(fn)] = self._wrap(f"{module}.{fn_name}", fn)
                originals[id(fn)] = f"{module}.{fn_name}"
        modules = [m for name, m in sys.modules.items() if name == "qhermite" or name.startswith("qhermite.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._restore.append((vars(mod), attr, value))
                elif isinstance(value, dict):
                    self._restore.extend((value, k, v) for k, v in value.items() if id(v) in wrappers)
        for table, key, value in self._restore:
            table[key] = wrappers[id(value)]
        # self-check: a traced function still reachable from a module or
        # from a container at module level would run without spans
        left = []
        for mod in modules:
            for attr, value in vars(mod).items():
                items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
                left += [f"{mod.__name__}.{attr} -> {originals[id(v)]}"
                         for v in [value, *items] if id(v) in originals]
        if left:
            self.uninstall()
            raise RuntimeError("tracer left untraced bindings: " + ", ".join(left))

    def uninstall(self) -> None:
        for table, key, value in reversed(self._restore):
            table[key] = value
        self._restore.clear()

    # -- report ---------------------------------------------------------------

    def metrics(self, ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-op values of every metric in ``metric_specs()``."""
        out: dict[str, float] = {}
        for module, names in TRACED.items():
            for fn in names:
                key = f"{module}.{fn}"
                out[f"{key}.calls"] = self.calls[key] / ops
                out[f"{key}.self_s"] = self.self_s[key] / ops
        for module, names in TRACED.items():
            keys = [f"{module}.{fn}" for fn in names]
            out[f"{module}.calls"] = sum(self.calls[k] for k in keys) / ops
            out[f"{module}.self_s"] = sum(self.self_s[k] for k in keys) / ops
        for key in DISTINCT:
            out[f"{key}.distinct_frac"] = _ratio(self.distinct_calls[key], self.calls[key])
        out["polyfam.quadrature_builds_per_result"] = _ratio(self.quadrature_builds, self.quadrature_results)
        out["polyfam.eval_orthonormal_sequence.elements"] = self.eos_elements / ops
        out["polyfam.eval_orthonormal_sequence.bytes_computed"] = 8.0 * self.eos_elements / ops
        out["polyfam.eval_orthonormal_sequence.elements_per_s"] = _ratio(
            self.eos_elements, self.self_s["polyfam.eval_orthonormal_sequence"])
        out["oscillator.build_operator.entries_per_s"] = _ratio(
            self.operator_entries, self.self_s["oscillator.build_operator"])
        out["tracing_overhead_frac"] = overhead_frac
        return out

    def counts(self) -> dict:
        """Everything that must repeat exactly for a given seed."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "distinct_calls": dict(sorted(self.distinct_calls.items())),
            "quadrature_builds": self.quadrature_builds,
            "quadrature_results": self.quadrature_results,
            "eos_elements": self.eos_elements,
            "operator_entries": self.operator_entries,
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
