"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` wraps the
public functions and methods of each bromell module at the names the
pipeline looks them up under, so nothing under `src/` changes. Every span
keeps its name, start, end, parent span and operation id in memory; they are
written out once, when the run ends.

A wrapped name (or its whole module) that no longer exists is listed in
`Recorder.absent`; every per-layer metric read from its spans is then left
out of the result instead of reading as 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


def _spec_n_pts(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"n_pts": spec.n_pts}


def _trapezoid_n(args, kwargs):
    return {"N": kwargs.get("N", args[4] if len(args) > 4 else None)}


# span name -> (defining module, attribute path, layer, attribute extractor)
TARGETS = {
    "compute_grid": ("bromell.pseudospectra", "compute_grid", "pseudospectra.grid", _spec_n_pts),
    "SigmaMinEvaluator.__call__": (
        "bromell.pseudospectra", "SigmaMinEvaluator.__call__", "pseudospectra.grid", None),
    "level_curve": ("bromell.pseudospectra", "level_curve", "pseudospectra.curves", None),
    "critical_curve": ("bromell.pseudospectra", "critical_curve", "pseudospectra.curves", None),
    "grid_to_csv": ("bromell.pseudospectra", "grid_to_csv", "pseudospectra.export", None),
    "curve_to_csv": ("bromell.pseudospectra", "curve_to_csv", "pseudospectra.export", None),
    "eigenvalues": ("bromell.numerics", "eigenvalues", "numerics.eigenvalues", None),
    "ShiftedSystem.__init__": ("bromell.numerics", "ShiftedSystem.__init__", "numerics.lu", None),
    "ShiftedSystem.solve": ("bromell.numerics", "ShiftedSystem.solve", "numerics.lu", None),
    "trapezoid_sum": ("bromell.solver", "trapezoid_sum", "solver.quadrature", _trapezoid_n),
    "NodeCache.node": ("bromell.solver", "NodeCache.node", "solver.quadrature", None),
    "default_z_r": ("bromell.solver", "default_z_r", "solver.z_r_default", None),
    "estimate_k_ell": ("bromell.solver", "estimate_k_ell", "solver.truncation_bound", None),
    "build_inner_ellipse": (
        "bromell.contour", "build_inner_ellipse", "contour.inner_ellipse", None),
    "optimize_a": ("bromell.contour", "optimize_a", "contour.optimize_a", None),
    "truncation_fixed_point": (
        "bromell.contour", "truncation_fixed_point", "contour.truncation", None),
    "feasibility_check": ("bromell.contour", "feasibility_check", "contour.feasibility", None),
    "canonical_cd_problem": ("bromell.problems", "canonical_cd_problem", "problems.build", None),
    "black_scholes_problem": ("bromell.problems", "black_scholes_problem", "problems.build", None),
}

LAYERS = tuple(dict.fromkeys(target[2] for target in TARGETS.values()))


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root span
    op: str
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self, origin: float):
        self.origin = origin
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, 0.0, 0.0, parent, self.op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if extract is not None:
                try:
                    attrs = extract(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    attrs = None  # signature changed: keep the span, drop its attributes
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target at its definition and at each module that imported it."""
        for name, (module_name, path, _layer, extract) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, extract)
            if owner_name:  # a method: patch the class, which every caller shares
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "bromell" or mod_name.startswith("bromell."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "parent": s.parent,
                    "op": s.op,
                    "attrs": s.attrs,
                }) + "\n")


def layer_of(name: str) -> str | None:
    target = TARGETS.get(name)
    return None if target is None else target[2]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _in_layer(layer: str) -> tuple[str, ...]:
    return tuple(name for name, target in TARGETS.items() if target[2] == layer)


# Reported by a traced run, in this order: metric -> (unit, spans it is read
# from). A `<layer>_s` is the layer's self time in one operation and a count
# is per operation, both medians over the run's operations. The per-call
# σ_min cost and evals_per_node cover the whole run, set-up included, so the
# plan that bs-ladder builds in set-up is still measured; so does
# problems.build_s, the median time of one problem build. Counts without
# spans come from the program's own counters and the item checks.
PER_LAYER = {
    "pseudospectra.grid_s": ("s", _in_layer("pseudospectra.grid")),
    "pseudospectra.sigma_evals": ("count", ("SigmaMinEvaluator.__call__",)),
    "pseudospectra.sigma_eval_ms": ("ms", ("SigmaMinEvaluator.__call__",)),
    "pseudospectra.evals_per_node": ("ratio", ("SigmaMinEvaluator.__call__", "compute_grid")),
    "pseudospectra.curves_s": ("s", _in_layer("pseudospectra.curves")),
    "pseudospectra.export_s": ("s", _in_layer("pseudospectra.export")),
    "numerics.eigenvalues_s": ("s", _in_layer("numerics.eigenvalues")),
    "numerics.lu_count": ("count", ("ShiftedSystem.__init__",)),
    "numerics.lu_s": ("s", _in_layer("numerics.lu")),
    "solver.quadrature_s": ("s", _in_layer("solver.quadrature")),
    "solver.node_solves": ("count", ()),
    "solver.node_reuses": ("count", ()),
    "solver.reuse_ratio": ("ratio", ()),
    "solver.n_final": ("count", ()),
    "solver.z_r_default_s": ("s", _in_layer("solver.z_r_default")),
    "solver.truncation_bound_s": ("s", _in_layer("solver.truncation_bound")),
    "solver.false_claims": ("count", ()),
    "contour.inner_ellipse_s": ("s", _in_layer("contour.inner_ellipse")),
    "contour.optimize_a_s": ("s", _in_layer("contour.optimize_a")),
    "contour.truncation_s": ("s", _in_layer("contour.truncation")),
    "contour.truncation_iters": ("count", ()),
    "contour.feasibility_s": ("s", _in_layer("contour.feasibility")),
    "problems.build_s": ("s", _in_layer("problems.build")),
    "cli.bytes_written": ("bytes", ()),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rec: Recorder, results) -> tuple[dict, dict, list[str]]:
    """PER_LAYER values; per layer the calls and self seconds per operation;
    and the metrics left out because a span they are read from is absent."""
    selfs = self_times(rec.spans)
    op_index = {f"op-{i}": i for i in range(len(results))}
    calls = [Counter() for _ in results]
    layer_self = [defaultdict(float) for _ in results]
    durations = defaultdict(list)  # whole run, references excluded
    grid_nodes = 0
    for s, self_s in zip(rec.spans, selfs):
        if s.op == "references":
            continue
        durations[s.name].append(s.duration)
        if s.name == "compute_grid" and s.attrs and s.attrs.get("n_pts"):
            grid_nodes += s.attrs["n_pts"] ** 2
        i = op_index.get(s.op)
        if i is None:
            continue
        calls[i][s.name] += 1
        layer = layer_of(s.name)
        if layer is not None:
            layer_self[i][layer] += self_s

    def per_op(fn):
        return _median([fn(i) for i in range(len(results))])

    def counter(key):
        return per_op(lambda i: results[i].counters.get(key, 0))

    def layer_s(layer):
        return per_op(lambda i: layer_self[i][layer])

    evals = durations["SigmaMinEvaluator.__call__"]
    solves = sum(r.counters.get("node_solves", 0) for r in results)
    reuses = sum(r.counters.get("node_reuses", 0) for r in results)
    values = {
        "pseudospectra.sigma_evals": per_op(lambda i: calls[i]["SigmaMinEvaluator.__call__"]),
        "pseudospectra.sigma_eval_ms": 1e3 * sum(evals) / len(evals) if evals else 0.0,
        "pseudospectra.evals_per_node": len(evals) / grid_nodes if grid_nodes else 0.0,
        "numerics.lu_count": per_op(lambda i: calls[i]["ShiftedSystem.__init__"]),
        "solver.node_solves": counter("node_solves"),
        "solver.node_reuses": counter("node_reuses"),
        "solver.reuse_ratio": reuses / (solves + reuses) if solves + reuses else 0.0,
        "solver.n_final": counter("n_final"),
        "solver.false_claims": counter("false_claims"),
        "contour.truncation_iters": counter("truncation_iters"),
        "problems.build_s": _median(
            durations["canonical_cd_problem"] + durations["black_scholes_problem"]
        ),
        "cli.bytes_written": counter("bytes_written"),
    }
    absent = set(rec.absent)
    metrics, left_out = {}, []
    for name, (_unit, sources) in PER_LAYER.items():
        if absent.intersection(sources):
            left_out.append(name)
        elif name in values:
            metrics[name] = values[name]
        else:  # "<layer>_s"
            metrics[name] = layer_s(name[: -len("_s")])
    table = {
        layer: (
            per_op(lambda i: sum(n for name, n in calls[i].items() if layer_of(name) == layer)),
            layer_s(layer),
        )
        for layer in LAYERS
    }
    table["all layers"] = (
        per_op(lambda i: sum(n for name, n in calls[i].items() if layer_of(name) is not None)),
        per_op(lambda i: sum(layer_self[i].values())),
    )
    return metrics, table, left_out
