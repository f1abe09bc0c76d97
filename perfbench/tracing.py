"""Spans and counters around levysot's public functions, from outside src/.

``install`` replaces each traced function or method with a wrapper in every
loaded levysot module that holds a reference to it (``from .x import f``
makes copies of the name), and returns a callable that puts the originals
back. A wrapper records a span: name, start, end, parent span and op id.
Hot leaf functions, called tens of thousands of times per op, are folded
into per-name totals instead of one span per call; their time still
counts as child time of the enclosing span, so self times stay exact.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.op_id: Any = None
        self.spans: List[Tuple] = []  # (id, name, start, end, parent id, op id)
        self.inclusive: Dict[str, float] = defaultdict(float)  # outermost spans only
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_counters: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[list] = []  # [name, start, child time, span id]
        self._depth: Dict[str, int] = defaultdict(int)
        self._next_id = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value
        self.op_counters[self.op_id][name] += value

    def wrap(self, name: str, fn: Callable, hot: bool = False, on_result: Callable = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def _enter(self, name: str, hot: bool) -> list:
        span_id = None
        if not hot:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, span_id = frame
        self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.inclusive[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    def table(self) -> List[dict]:
        return [
            {"name": n, "calls": self.calls[n], "inclusive_s": self.inclusive[n],
             "self_s": self.self_s[n]}
            for n in sorted(self.calls)
        ]


# ---------------------------------------------------------------------------
# what is traced


def _on_dual(tr: Tracer, args, kwargs, res) -> None:
    hist = res.history
    best = -float("inf")
    improving = 0
    for v in hist:
        if v > best:
            improving += 1
            best = v
    tr.count("transport.dual_ascents")
    tr.count("transport.hjb_solves", len(hist))
    tr.count("transport.improving_solves", improving)
    tr.count("transport.dual_converged", bool(res.converged))


def _on_write(tr: Tracer, args, kwargs, res) -> None:
    tr.count("cli.bytes_written", os.path.getsize(args[0]))


def _on_simulate(tr: Tracer, args, kwargs, res) -> None:
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    tr.count("montecarlo.path_steps", cfg.n_paths * cfg.n_steps)


def _on_probe(tr: Tracer, args, kwargs, res) -> None:
    tr.count("limits.probes")
    tr.count("limits.conclusive", res.limit_in_set != "inconclusive")


def _counting(name: str) -> Callable:
    return lambda tr, args, kwargs, res: tr.count(name)


# (span name, module, attribute or "Class.method", hot, on_result)
TARGETS = [
    *[("cli.write", "levysot.cli", f, False, _on_write) for f in ("write_csv", "write_json")],
    ("cli.value_surface", "levysot.cli", "solve_hjb", False, None),
    *[("serialize.parse", "levysot.serialize", f, False, None) for f in (
        "load_json", "instance_from_dict", "family_from_dict",
        "sequence_from_dict", "triplet_from_dict", "param_map_from_exprs",
    )],
    ("transport.primal", "levysot.transport", "solve_primal_deterministic", False, None),
    ("transport.dual", "levysot.transport", "dual_ascent", False, _on_dual),
    ("transport.cost_eval", "levysot.transport", "CostFunction.__call__", True,
     _counting("transport.cost_evals")),
    ("transport.mc_validate", "levysot.transport", "evaluate_cost_mc", False, None),
    ("montecarlo.simulate", "levysot.montecarlo", "simulate_paths", False, _on_simulate),
    *[("montecarlo.stats", "levysot.montecarlo", f, False, None) for f in (
        "marginal_ks", "marginal_cdf", "cf_distance", "empirical_cf",
    )],
    ("limits.probe", "levysot.limits", "closedness_probe", False, _on_probe),
    ("limits.project", "levysot.limits", "project_to_family", False,
     _counting("limits.project_calls")),
    ("limits.profile", "levysot.limits", "exponent_limit_profile", False, None),
    ("triplets.family_at", "levysot.triplets", "ThetaFamily.at", True,
     _counting("triplets.family_at_calls")),
    ("triplets.levy_exponent", "levysot.triplets", "levy_exponent", True,
     _counting("triplets.levy_exponent_calls")),
    ("triplets.features", "levysot.triplets", "measure_features", True, None),
    ("measures.quad", "levysot.measures", "DensityPiece.quad", True,
     _counting("measures.quad_calls")),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    owners = {module: importlib.import_module(module) for _, module, *_ in TARGETS}
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "levysot" and m]
    undo: List[Tuple[Any, str, Any]] = []
    for name, module, attr, hot, on_result in TARGETS:
        owner = owners[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            setattr(cls, meth, tracer.wrap(name, orig, hot, on_result))
            continue
        orig = getattr(owner, attr)
        wrapper = tracer.wrap(name, orig, hot, on_result)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def restore() -> None:
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return restore


def layer_metrics(tr: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics: run totals over the traced ops."""
    inc, c = tr.inclusive, tr.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "cli.write_s": (inc["cli.write"], "s"),
        "cli.bytes_written": (c["cli.bytes_written"], "bytes"),
        "cli.value_surface_s": (inc["cli.value_surface"], "s"),
        "serialize.parse_s": (inc["serialize.parse"], "s"),
        "transport.primal_s": (inc["transport.primal"], "s"),
        "transport.dual_s": (inc["transport.dual"], "s"),
        "transport.hjb_solves": (c["transport.hjb_solves"], "count"),
        "transport.dual_s_per_solve": (
            ratio(inc["transport.dual"], c["transport.hjb_solves"]), "s"),
        "transport.improving_solve_ratio": (
            ratio(c["transport.improving_solves"], c["transport.hjb_solves"]), "ratio"),
        "transport.dual_converged_ratio": (
            ratio(c["transport.dual_converged"], c["transport.dual_ascents"]), "ratio"),
        "transport.cost_evals": (c["transport.cost_evals"], "count"),
        "transport.cost_eval_s": (inc["transport.cost_eval"], "s"),
        "transport.mc_validate_s": (inc["transport.mc_validate"], "s"),
        "montecarlo.simulate_s": (inc["montecarlo.simulate"], "s"),
        "montecarlo.path_steps": (c["montecarlo.path_steps"], "count"),
        "montecarlo.ns_per_path_step": (
            1e9 * ratio(inc["montecarlo.simulate"], c["montecarlo.path_steps"]), "ns"),
        "montecarlo.stats_s": (inc["montecarlo.stats"], "s"),
        "limits.probe_s": (inc["limits.probe"], "s"),
        "limits.project_s": (inc["limits.project"], "s"),
        "limits.project_calls": (c["limits.project_calls"], "count"),
        "limits.profile_s": (inc["limits.profile"], "s"),
        "limits.conclusive_ratio": (ratio(c["limits.conclusive"], c["limits.probes"]), "ratio"),
        "triplets.family_at_calls": (c["triplets.family_at_calls"], "count"),
        "triplets.family_at_s": (inc["triplets.family_at"], "s"),
        "triplets.levy_exponent_calls": (c["triplets.levy_exponent_calls"], "count"),
        "triplets.features_s": (inc["triplets.features"], "s"),
        "measures.quad_calls": (c["measures.quad_calls"], "count"),
        "measures.quad_s": (inc["measures.quad"], "s"),
    }
