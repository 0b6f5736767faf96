"""Span tracing of spincorr's layers from outside the package.

``Tracer`` wraps every public function of the seven layer modules and
installs each wrapper on every module attribute that binds the original
(``chsh.joint`` as well as ``closed_form.joint``, ``oracle.slash`` as well as
``dirac.slash``, and the package-level re-exports).  ``FourVector``
constructions are counted through ``FourVector.__post_init__``.  Spans are
kept in memory as tuples and aggregated or written out after the run;
``restore`` puts every original back.  The package source is not modified.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dirac", "kinematics", "closed_form", "oracle", "chsh", "verification", "cli")

# Span tuple fields.
SPAN_FIELDS = ("id", "parent", "trace", "layer", "name", "start_ns", "end_ns", "shape", "error")
ID, PARENT, TRACE, LAYER, NAME, START, END, SHAPE, ERROR = range(len(SPAN_FIELDS))

ORACLE_POINT_FUNCTIONS = {
    "amplitude_polarized": "oracle.amplitude_us",
    "spin_average_oracle": "oracle.spin_average_us",
    "quad_unpolarized_complex": "oracle.trace_us",
}
VERIFICATION_STAGES = {
    "anchor_reports": "verification.anchors_s",
    "identity_checks": "verification.identities_s",
    "fit_checks": "verification.fits_s",
    "cross_checks": "verification.cross_checks_s",
}
UNITS = {
    "chsh.search_calls": "count",
    "chsh.search_self_s": "s",
    "chsh.objective_evals": "count",
    "chsh.s_value_calls": "count",
    "chsh.grid_bytes_computed": "B",
    "closed_form.calls": "count",
    "closed_form.scalar_calls": "count",
    "closed_form.elements": "count",
    "closed_form.self_s": "s",
    "closed_form.ns_per_element": "ns",
    "oracle.points": "count",
    "oracle.amplitude_us": "us",
    "oracle.spin_average_us": "us",
    "oracle.trace_us": "us",
    "oracle.fit_calls": "count",
    "oracle.fit_errors": "count",
    "oracle.self_s": "s",
    "kinematics.calls": "count",
    "kinematics.self_s": "s",
    "dirac.calls": "count",
    "dirac.fourvectors": "count",
    "dirac.self_s": "s",
    "verification.anchors_s": "s",
    "verification.identities_s": "s",
    "verification.fits_s": "s",
    "verification.cross_checks_s": "s",
    "cli.import_scipy_s": "s",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "ratio",
}
FLOAT64_BYTES = 8
SEARCH_PART_ARRAYS = 2   # part_a and part_b, each n^3, in chsh._coarse_minimum


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.fourvectors = 0
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import spincorr  # noqa: F401  (loads every layer module)
        from spincorr.dirac import FourVector

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"spincorr.{layer}"]
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "spincorr" and not module_name.startswith("spincorr."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])

        original_post_init = FourVector.__post_init__

        def counted_post_init(vector):
            self.fourvectors += 1
            original_post_init(vector)

        self._patch(FourVector, "__post_init__", counted_post_init)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (span_id, parent, self.trace_id, layer, name, start, end,
                     getattr(result, "shape", ()), error)
                )

        return traced

    # -- output -------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write all spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["shape"] = list(record["shape"])
                handle.write(json.dumps(record) + "\n")


def _has_ancestor(span, by_id: dict, name: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor[NAME] == name:
            return True
        parent = ancestor[PARENT]
    return False


def layer_metrics(spans, fourvectors: int, passes: int) -> dict[str, float]:
    """Per-layer metrics from traced spans, each divided by the number of passes.

    A layer's self time is the duration of its spans minus the time covered by
    their direct child spans (calls are strictly nested: one thread).  A
    layer's ``calls`` counts calls into it from another layer or from the
    benchmark, not calls inside it.
    """
    by_id = {span[ID]: span for span in spans}
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[PARENT] is not None:
            child_ns[span[PARENT]] += span[END] - span[START]

    self_ns: dict[str, int] = defaultdict(int)
    entries: dict[str, int] = defaultdict(int)
    by_name: dict[str, list] = defaultdict(list)
    search_self_ns = objective_evals = grid_bytes = 0
    cf_scalar = cf_elements = 0
    for span in spans:
        layer, name = span[LAYER], span[NAME]
        own = span[END] - span[START] - child_ns[span[ID]]
        self_ns[layer] += own
        by_name[name].append(span)
        parent = by_id.get(span[PARENT])
        if parent is None or parent[LAYER] != layer:
            entries[layer] += 1
            if layer == "closed_form":
                elements = 1
                for size in span[SHAPE]:
                    elements *= size
                cf_elements += elements
                cf_scalar += span[SHAPE] == ()
        if name == "search_violation":
            search_self_ns += own
        elif layer == "closed_form" and name == "joint" and _has_ancestor(span, by_id, "search_violation"):
            shape = span[SHAPE]
            if shape == ():
                objective_evals += 1
            elif len(shape) == 2 and shape[0] == shape[1]:
                grid_bytes += SEARCH_PART_ARRAYS * shape[0] ** 3 * FLOAT64_BYTES

    def mean_us(name: str) -> float:
        durations = [s[END] - s[START] for s in by_name[name]]
        return sum(durations) / len(durations) / 1e3 if durations else 0.0

    def total_s(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name]) / 1e9 / passes

    fits = by_name["fit_polarized"] + by_name["fit_unpolarized"]
    metrics = {
        "chsh.search_calls": len(by_name["search_violation"]) / passes,
        "chsh.search_self_s": search_self_ns / 1e9 / passes,
        "chsh.objective_evals": objective_evals / passes,
        "chsh.s_value_calls": len(by_name["s_value"]) / passes,
        "chsh.grid_bytes_computed": grid_bytes / passes,
        "closed_form.calls": entries["closed_form"] / passes,
        "closed_form.scalar_calls": cf_scalar / passes,
        "closed_form.elements": cf_elements / passes,
        "closed_form.self_s": self_ns["closed_form"] / 1e9 / passes,
        "closed_form.ns_per_element": self_ns["closed_form"] / cf_elements if cf_elements else 0.0,
        "oracle.points": sum(len(by_name[n]) for n in ORACLE_POINT_FUNCTIONS) / passes,
    }
    metrics.update({metric: mean_us(fn) for fn, metric in ORACLE_POINT_FUNCTIONS.items()})
    metrics.update({
        "oracle.fit_calls": len(fits) / passes,
        "oracle.fit_errors": sum(s[ERROR] == "FitError" for s in fits) / passes,
        "oracle.self_s": self_ns["oracle"] / 1e9 / passes,
        "kinematics.calls": entries["kinematics"] / passes,
        "kinematics.self_s": self_ns["kinematics"] / 1e9 / passes,
        "dirac.calls": entries["dirac"] / passes,
        "dirac.fourvectors": fourvectors / passes,
        "dirac.self_s": self_ns["dirac"] / 1e9 / passes,
    })
    metrics.update({metric: total_s(fn) for fn, metric in VERIFICATION_STAGES.items()})
    return metrics
