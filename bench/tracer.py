"""Spans and counters around calls into each `distmaxsat` layer.

The tracer patches public functions and methods from outside the program.  A
function is replaced under every name that holds it in a loaded `distmaxsat`
module, so a use site bound by `from .cardinality import encode_totalizer`
is wrapped as well as the definition.  Methods are patched on their class.

Spans are kept in memory as (id, parent, name, start, end, solve) and written
out once at the end.  Counters read only public attributes of the objects
passing through (`Engine.conflicts`, `Engine.restarts`, `Engine.num_vars`,
`Engine.clauses`, returned encodings, traces and messages).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("engine", "cardinality", "sequential", "lookahead", "bounds",
          "orchestration", "transport", "formula", "cli")


class Tracer:
    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.sites: list[str] = []
        self.solve = None  # id shared by every span of one solve
        self.engines: list = []  # engines built during the current solve
        self.gp_masters: list = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def wrap(self, name, fn, after=None, before=None):
        """`fn` recording a span, then calling `after(result, before(...),
        seconds, *args)`; without span recording only the hooks run."""
        if not self.record_spans:
            @functools.wraps(fn)
            def plain(*args, **kwargs):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, None, 0.0, *args, **kwargs)
                return result
            return plain

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, self.solve))
            if after is not None:
                after(result, pre, end - start, *args, **kwargs)
            return result
        return traced

    def patch_function(self, module, attr, name, after=None, before=None):
        """Wrap `module.attr` under every loaded `distmaxsat` name bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after, before)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "distmaxsat" or mod_name.startswith("distmaxsat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    self.sites.append(f"{mod_name}.{key}")

    def patch_method(self, cls, attr, name, after=None, before=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after, before))
        self.sites.append(f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # ------------------------------------------------------------- install

    def install_registry(self) -> None:
        """Only record which engines and gp masters each solve builds."""
        from distmaxsat import engine, orchestration

        self.patch_method(engine.Engine, "__init__", "engine.init",
                          after=lambda _r, _p, _d, eng, *a, **k: self.engines.append(eng))
        self.patch_function(orchestration, "GpMaster", "orchestration.GpMaster",
                            after=lambda master, *_a, **_k: self.gp_masters.append(master))

    def install(self) -> None:
        """Wrap every layer; call after `install_registry`."""
        from distmaxsat import cardinality, engine, formula, lookahead, orchestration, sequential, transport
        from distmaxsat.bounds import BoundSet
        from distmaxsat.engine import Unsat

        c, s = self.counters, self.samples

        # engine
        def solve_before(eng, *_a, **_k):
            c["engine.solve.calls"] += 1
            c["engine.vars_at_solve.max"] = max(c["engine.vars_at_solve.max"], eng.num_vars)
            c["engine.clauses_at_solve.max"] = max(c["engine.clauses_at_solve.max"], len(eng.clauses))
            parent = self.parent_name()
            if parent in ("sequential.linear_su", "sequential.msu3"):
                c["sequential.sat_calls"] += 1
            return eng.conflicts, eng.restarts, parent

        def solve_after(result, pre, dur, eng, *_a, **_k):
            c["engine.solve.s"] += dur
            c["engine.conflicts"] += eng.conflicts - pre[0]
            c["engine.restarts"] += eng.restarts - pre[1]
            if pre[2] == "sequential.msu3" and isinstance(result, Unsat):
                c["sequential.msu3.cores"] += 1

        def propagate_after(_r, _p, dur, *_a, **_k):
            c["engine.propagate_under.calls"] += 1
            c["engine.propagate_under.s"] += dur

        self.patch_method(engine.Engine, "solve", "engine.solve", solve_after, solve_before)
        self.patch_method(engine.Engine, "propagate_under", "engine.propagate_under", propagate_after)
        self.patch_method(engine.Engine, "analyze_and_learn", "engine.analyze_and_learn")

        # cardinality
        def encode_after(enc, _p, dur, *_a, **_k):
            c["cardinality.encode.calls"] += 1
            c["cardinality.encode.s"] += dur
            c["cardinality.aux_vars"] += len(enc.aux_vars)
            c["cardinality.clauses"] += len(enc.clauses)

        self.patch_function(cardinality, "encode_totalizer", "cardinality.encode_totalizer", encode_after)

        # sequential
        def seq_after(_r, _p, _d, *_a, **_k):
            c["sequential.solves"] += 1

        self.patch_function(sequential, "linear_su", "sequential.linear_su", seq_after)
        self.patch_function(sequential, "msu3", "sequential.msu3", seq_after)

        # lookahead
        def generate_after(result, _p, dur, *_a, **_k):
            c["lookahead.generate.calls"] += 1
            c["lookahead.generate.s"] += dur
            c["lookahead.nodes"] += sum(1 for op, _ in result.trace if op == "grow")
            c["lookahead.conflicts"] += sum(1 for op, _ in result.trace if op == "conflict")
            c["lookahead.paths"] += len(result.paths)

        def timed(key):
            def after(_r, _p, dur, *_a, **_k):
                c[key] += dur
            return after

        self.patch_method(lookahead.PathGenerator, "generate", "lookahead.generate", generate_after)
        self.patch_function(lookahead, "choose_variable", "lookahead.choose_variable",
                            timed("lookahead.choose_variable.s"))
        self.patch_function(lookahead, "polarity_counts", "lookahead.polarity_counts",
                            timed("lookahead.polarity_counts.s"))

        # bounds: raise_lower delegates to apply_unsat, so count outer calls only
        def bound_after(updated, _p, _d, *_a, **_k):
            if not (self.parent_name() or "").startswith("bounds."):
                c["bounds.calls"] += 1
                c["bounds.updates"] += bool(updated)

        for op in ("apply_sat", "apply_unsat", "raise_lower"):
            self.patch_method(BoundSet, op, f"bounds.{op}", bound_after)

        # orchestration
        def master_after(_r, _p, dur, *_a, **_k):
            s["master_msg"].append(dur)

        def worker_before(node, msg, *_a, **_k):
            return msg.kind

        def worker_after(_r, kind, dur, node, *_a, **_k):
            if kind in ("assign_bound", "assign_path") or (kind == "hello" and node.role == "sss_msu3"):
                c["orchestration.worker_task.count"] += 1
            if kind == "abort":
                c["orchestration.aborts"] += 1
            s["worker_busy"].append([str(self.solve), f"{os.getpid()}:{node.wid}", dur])

        self.patch_method(orchestration.MasterBase, "on_message", "orchestration.master_on_message",
                          master_after)
        self.patch_method(orchestration.WorkerNode, "on_message", "orchestration.worker_on_message",
                          worker_after, worker_before)
        self.patch_function(orchestration, "initial_upper_bound", "orchestration.initial_upper_bound",
                            timed("orchestration.initial_ub.s"))
        self.patch_function(orchestration, "run_sim", "orchestration.run_sim")

        # transport
        def encode_msg_after(data, _p, dur, msg, *_a, **_k):
            c["transport.messages"] += 1
            c["transport.bytes"] += len(data)
            c["transport.encode.s"] += dur
            if msg.kind == "assign_path" and msg.payload["task"] >= 0:
                c["lookahead.paths_dispatched"] += 1

        def poll_after(msg, _p, _d, *_a, **_k):
            c["transport.socket.polls"] += 1
            c["transport.socket.empty_polls"] += msg is None

        self.patch_function(transport, "encode_message", "transport.encode_message", encode_msg_after)
        self.patch_function(transport, "decode_message", "transport.decode_message",
                            timed("transport.decode.s"))
        self.patch_method(transport.SimBus, "deliver_next", "transport.deliver_next",
                          lambda *_a, **_k: c.__setitem__("transport.sim_deliveries",
                                                          c["transport.sim_deliveries"] + 1))
        self.patch_method(transport.LineChannel, "poll", "transport.poll", poll_after)

        # formula
        def parse_after(_f, _p, dur, text, *_a, **_k):
            c["formula.parse.s"] += dur
            c["formula.parse.bytes"] += len(text.encode("utf-8"))

        def cost_after(_r, _p, dur, *_a, **_k):
            c["formula.cost.calls"] += 1
            c["formula.cost.s"] += dur

        self.patch_function(formula, "parse_wcnf", "formula.parse_wcnf", parse_after)
        self.patch_function(formula, "cost", "formula.cost", cost_after)
        self.patch_function(formula, "relax", "formula.relax")

    # ---------------------------------------------------------- bookkeeping

    def end_solve(self) -> int:
        """Close the current solve: gp early stops, and the conflicts counted
        by every engine it built (the determinism fingerprint)."""
        for master in self.gp_masters:
            self.counters["orchestration.gp_solves"] += 1
            self.counters["orchestration.gp_early_stops"] += bool(master.terminated_early)
        conflicts = sum(e.conflicts for e in self.engines)
        self.engines.clear()
        self.gp_masters.clear()
        return conflicts

    def dump(self, path: str) -> None:
        """Write counters, samples and spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "counters": self.counters, "samples": self.samples,
                       "sites": self.sites, "spans": self.spans}, fh)


def merge(dumps) -> tuple[dict, dict, list]:
    """Combine dumps from several processes: counters named `*.max` take the
    maximum, other counters add, samples and spans concatenate.  Span ids are
    made unique by prefixing the process id."""
    counters: dict[str, float] = defaultdict(float)
    samples: dict[str, list] = defaultdict(list)
    spans: list = []
    for d in dumps:
        for k, v in d["counters"].items():
            counters[k] = max(counters[k], v) if k.endswith(".max") else counters[k] + v
        for k, v in d["samples"].items():
            samples[k].extend(v)
        pid = d.get("pid", 0)
        for sid, parent, name, start, end, solve in d["spans"]:
            spans.append((f"{pid}:{sid}", None if parent is None else f"{pid}:{parent}",
                          name, start, end, solve))
    return counters, samples, spans


def self_times(spans) -> dict[str, float]:
    """Per layer: span durations minus the time their direct children cover."""
    child_time: dict = defaultdict(float)
    for _sid, parent, _name, start, end, _solve in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for sid, _parent, name, start, end, _solve in spans:
        layer = name.split(".", 1)[0]
        if layer in out:
            out[layer] += (end - start) - child_time[sid]
    return out
