"""Spans around calls into simact's public functions, recorded from outside.

`Installation` wraps every traced function and rebinds the wrapper at every
simact module (and class) that holds the original, because several modules
import kernels by name.  Each call appends one span to the tracer:
[name, start, end, parent index, job id, time covered by child spans, extra].
Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import sys
import time
from math import lcm


def _coarse_resolution(t, r, depth, *_):
    return lcm(t.n, r.n, 2**depth)


def _key_patterns(t1, t2, *_):
    return sum(len(t.masses) << t.window.size() for t in (t1, t2))


def _unions(matrix, *_):
    return 1 << len(matrix)


_INTERVAL_OPS = ("normalize", "interval", "wrapped_interval", "length", "contains_point",
                 "intersect", "union", "symdiff", "complement", "translate")
_ADAPTATION_METHODS = ("__post_init__", "__call__", "inverse_value", "inverse", "compose",
                       "sup_dist_to_identity", "preimage_interval")
_SERIALIZE_FUNCS = ("read_json_file", "load_measure", "dump_measure", "load_adaptation", "dump_adaptation",
                    "load_permutation", "dump_permutation", "load_dyadic", "dump_dyadic", "load_action",
                    "dump_action", "load_table", "dump_table", "dump_witness")

# (span name, module, attribute, optional Class owning it, extra(args) recorded on the span)
TARGETS = (
    [
        ("transform.coarse_dist", "simact.transform", "coarse_dist", None, _coarse_resolution),
        ("transform.refine", "simact.transform", "refine", "IntervalPermutation", None),
        ("transform.compose", "simact.transform", "compose", "IntervalPermutation", None),
        ("transform.power", "simact.transform", "power", "IntervalPermutation", None),
        ("action.action_dist", "simact.action", "action_dist", None, None),
        ("action.evaluate", "simact.action", "evaluate", "LatticeAction", None),
        ("action.conjugate", "simact.action", "conjugate", None, None),
        ("action.wrp_conjugacy_search", "simact.action", "wrp_conjugacy_search", None, None),
        ("sim.sim_dist", "simact.sim", "sim_dist", None, _key_patterns),
        ("sim.convolve_sim", "simact.sim", "convolve_sim", None, None),
        ("sim.fixed_mass_report", "simact.sim", "fixed_mass_report", None, None),
        ("sim.pair_matrix", "simact.sim", "pair_matrix", None, None),
        ("sim.CylinderTable.init", "simact.sim", "__init__", "CylinderTable", None),
        ("sim.greedy_graph_witness", "simact.sim", "greedy_graph_witness", None, None),
        ("sim.graph_witness_exact", "simact.sim", "graph_witness_exact", None, _unions),
    ]
    + [(f"equivalence.{f}", "simact.equivalence", f, None, None)
       for f in ("action_to_sim", "realize_sim_as_action", "embed_action", "recover_action", "factor_defect")]
    + [(f"intervals.{f}", "simact.intervals", f, None, None) for f in _INTERVAL_OPS]
    + [(f"measure.Adaptation.{f}", "simact.measure", f, "Adaptation", None) for f in _ADAPTATION_METHODS]
    + [(f"serialize.{f}", "simact.serialize", f, None, None) for f in _SERIALIZE_FUNCS]
    + [(f"rationals.{f}", "simact.rationals", f, None, None)
       for f in ("parse_rational", "format_rational", "exact_decimal")]
    + [("cli.main", "simact.cli", "main", None, None)]
)


class Tracer:
    """Spans kept in memory for one pass over the jobs."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn, extra):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.job, 0.0, extra(*args) if extra else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - span[1]

        return traced

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tself\n")
            for name, start, end, parent, job, child, _extra in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{job}\t{end - start - child!r}\n")


def _simact_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "simact" or name.startswith("simact.")]


class Installation:
    """The wrappers of one tracer, bound everywhere the originals were."""

    def __init__(self, tracer: Tracer):
        # keyed by id; holding the originals keeps their ids from being reused
        self.originals: dict[int, object] = {}
        self.rebound: list[tuple[object, str, object]] = []
        modules = _simact_modules()
        for name, module, attr, cls, extra in TARGETS:
            owner = getattr(sys.modules[module], cls) if cls else sys.modules[module]
            original = vars(owner)[attr]
            wrapped = tracer.wrap(name, original, extra)
            self.originals[id(original)] = original
            if cls:
                self._rebind(owner, attr, original, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self.rebound.append((owner, attr, original))

    def unwrapped_bindings(self) -> list[str]:
        """Every simact module or class attribute still bound to an original."""
        found = []
        for m in _simact_modules():
            for key, value in vars(m).items():
                if id(value) in self.originals:
                    found.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and value.__module__.startswith("simact"):
                    found += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items() if id(v) in self.originals]
        return found

    def restore(self):
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


def counts(tracer: Tracer) -> dict:
    """Everything in a pass that must repeat exactly when the same jobs rerun."""
    out: dict = {}
    for name, _s, _e, _p, _j, _c, extra in tracer.spans:
        out[name] = out.get(name, 0) + 1
        if name == "transform.coarse_dist":
            out["transform.resolution_max"] = max(out.get("transform.resolution_max", 0), extra)
        elif extra:
            out[name + ".extra"] = out.get(name + ".extra", 0) + extra
    return out


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    special = {
        "transform.resolution_max": "cells",
        "sim.greedy_hit_ratio": "ratio",
        "action.wrp.heights_tried": "heights/search",
        "trace.overhead_jobs_per_gauge": "1/gauge",
    }
    return special.get(name) or {"calls": "calls/job", "self_s": "s/job"}.get(name.rsplit(".", 1)[1], "count/job")


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, per job (resolution_max and greedy_hit_ratio excepted)."""
    spans = tracer.spans
    c = counts(tracer)
    self_s: dict[str, float] = {}
    interval_calls = 0
    for name, start, end, parent, _job, child, _extra in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        # set operations call each other; count only the calls made from outside
        if name.startswith("intervals.") and (parent < 0 or not spans[parent][0].startswith("intervals.")):
            interval_calls += 1
    wrp_calls = c.get("action.wrp_conjugacy_search", 0)
    heights = sum(1 for s in spans if s[0] == "action.conjugate" and s[3] >= 0 and spans[s[3]][0] == "action.wrp_conjugacy_search")
    greedy = c.get("sim.greedy_graph_witness", 0)

    out = {
        "transform.coarse_dist.calls": c.get("transform.coarse_dist", 0) / jobs,
        "transform.coarse_dist.self_s": self_s.get("transform.coarse_dist", 0.0) / jobs,
        "transform.resolution_max": c.get("transform.resolution_max", 0),
    }
    for f in ("refine", "compose", "power"):
        out[f"transform.{f}.self_s"] = self_s.get(f"transform.{f}", 0.0) / jobs
    for f in ("action_dist", "evaluate", "conjugate", "wrp_conjugacy_search"):
        out[f"action.{f}.self_s"] = self_s.get(f"action.{f}", 0.0) / jobs
    out["action.action_dist.calls"] = c.get("action.action_dist", 0) / jobs
    out["action.wrp.heights_tried"] = heights / wrp_calls if wrp_calls else 0.0
    out["sim.sim_dist.calls"] = c.get("sim.sim_dist", 0) / jobs
    out["sim.sim_dist.self_s"] = self_s.get("sim.sim_dist", 0.0) / jobs
    out["sim.sim_dist.key_patterns"] = c.get("sim.sim_dist.extra", 0) / jobs
    for f in ("convolve_sim", "fixed_mass_report", "pair_matrix"):
        out[f"sim.{f}.self_s"] = self_s.get(f"sim.{f}", 0.0) / jobs
    for f in ("CylinderTable.init", "greedy_graph_witness", "graph_witness_exact"):
        out[f"sim.{f}.calls"] = c.get(f"sim.{f}", 0) / jobs
        out[f"sim.{f}.self_s"] = self_s.get(f"sim.{f}", 0.0) / jobs
    out["sim.graph_witness_exact.unions"] = c.get("sim.graph_witness_exact.extra", 0) / jobs
    out["sim.greedy_hit_ratio"] = 1 - c.get("sim.graph_witness_exact", 0) / greedy if greedy else 0.0
    for f in ("action_to_sim", "realize_sim_as_action", "embed_action", "recover_action", "factor_defect"):
        out[f"equivalence.{f}.calls"] = c.get(f"equivalence.{f}", 0) / jobs
        out[f"equivalence.{f}.self_s"] = self_s.get(f"equivalence.{f}", 0.0) / jobs
    out["intervals.calls"] = interval_calls / jobs
    for layer in ("intervals", "measure", "serialize", "rationals", "cli"):
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + ".")) / jobs
    return out
