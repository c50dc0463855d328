"""Spans around the library's layers, recorded from outside the library.

``instrument`` rebinds the module-level names through which the layers call
each other (for example ``bfoml.tableau_increasing.find_clash``) to timing
wrappers; no file of the library changes.  Every wrapped call is a span with
a name, a start, an end, its parent span and the op id.  Self time is a
span's duration minus the time its direct child spans cover, computed as the
spans close.

Calls that happen once or a few times per op (decide, normalize, extract,
check, parse, enumerate_sat) are kept as individual span records for the ops
the caller marks, and written out at the end.  Calls that happen per tableau
node or per oracle frame are kept only as per-name totals (calls, time, self
time), because one record per call would hold millions of records for a
single run.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.op: int | None = None  # spans are recorded only inside an op
        self.keep = False  # whether this op's kept spans are stored as records
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records: list[tuple[int, float, float, int, int]] = []
        self._stack: list[list] = []
        self._open: Counter = Counter()  # open spans per name, to find outermost ones
        self.calls: Counter = Counter()
        self.time: Counter = Counter()  # outermost spans only, so recursion counts once
        self.self_time: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.op_time: Counter = Counter()

    def begin_op(self, op_id: int, keep: bool) -> None:
        self.op = op_id
        self.keep = keep
        self.op_calls = Counter()
        self.op_time = Counter()

    def end_op(self) -> None:
        self.op = None

    def count(self, name: str) -> None:
        if self.op is not None:
            self.calls[name] += 1
            self.op_calls[name] += 1

    def span(self, name: str, fn, keep: bool = False, count_result=None):
        """Wrap fn so each call inside an op records a span called name."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][2] if stack else -1
            # [time covered by child spans, own record index, nearest kept record]
            frame = [0.0, -1, parent]
            if keep and tracer.keep:
                frame[1] = frame[2] = len(tracer.records)
                tracer.records.append(None)
            stack.append(frame)
            tracer._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                tracer._close(name, start, end, frame, parent)
            if count_result is not None:
                tracer.count(count_result(result))
            return result

        return wrapper

    def _close(self, name, start, end, frame, parent) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.calls[name] += 1
        self.op_calls[name] += 1
        self.self_time[name] += duration - frame[0]
        if self._open[name] == 0:
            self.time[name] += duration
            self.op_time[name] += duration
        if frame[1] >= 0:
            name_id = self._ids.setdefault(name, len(self.names))
            if name_id == len(self.names):
                self.names.append(name)
            self.records[frame[1]] = (name_id, start, end, parent, self.op)

    def write(self, path: str) -> None:
        """Write the kept span records and the per-name totals as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [[self.names[n], s, e, p, o] for n, s, e, p, o in self.records],
                "totals": {name: {"calls": self.calls[name], "ms": self.time[name] * 1e3,
                                  "self_ms": self.self_time[name] * 1e3}
                           for name in sorted(self.calls)},
            }, handle)


def _rebind(module, attr: str, name: str, tracer: Tracer, **options) -> None:
    setattr(module, attr, tracer.span(name, getattr(module, attr), **options))


def instrument(tracer: Tracer, ops_module) -> None:
    """Rebind the layer entry points of bfoml and the calls the ops make."""
    from bfoml import enumeration, kripke, tableau_common, tableau_constant, tableau_increasing

    for attr, name in (("parse", "parser.parse"), ("parse_fo", "fo.parse"),
                       ("translate_sentence", "fo.translate"),
                       ("classify", "formulas.classify"),
                       ("decide_increasing", "tableau_increasing.decide"),
                       ("decide_constant_eb", "tableau_constant.decide"),
                       ("enumerate_sat", "enumeration.enumerate_sat")):
        _rebind(ops_module, attr, name, tracer, keep=True)
    kripke.KripkeModel.dumps = tracer.span("kripke.dumps", kripke.KripkeModel.dumps, keep=True)

    def rule(app) -> str:
        return "rule." + (app.rule if app is not None else "leaf")

    procedures = ((tableau_increasing, "tableau_increasing", "expand", "extract_model"),
                  (tableau_constant, "tableau_constant", "expand_constant",
                   "extract_constant_model"))
    for module, layer, expand, extract in procedures:
        _rebind(module, expand, f"{layer}.expand", tracer,
                count_result=lambda app, layer=layer: f"{layer}.{rule(app)}")
        _rebind(module, extract, f"{layer}.extract", tracer, keep=True)
        module._Search.solve = tracer.span(f"{layer}.solve", module._Search.solve)
        for attr in ("to_nnf", "cleanse"):
            _rebind(module, attr, f"formulas.{attr}", tracer, keep=True)
        _rebind(module, "check", "kripke.check", tracer, keep=True)
        for attr in ("canonical_gamma", "find_clash"):
            _rebind(module, attr, f"tableau_common.{attr}", tracer)
        for attr in ("assert_free_vars_tracked", "assert_vars_only_free",
                     "assert_measure_decreases"):
            _rebind(module, attr, "tableau_common.invariants", tracer)
        _rebind(module, "substitute", "formulas.substitute", tracer)
    _rebind(tableau_common, "formula_key", "formulas.formula_key", tracer)
    _rebind(kripke, "validate", "kripke.validate", tracer, keep=True)
    for attr in ("to_nnf", "cleanse"):
        _rebind(enumeration, attr, f"formulas.{attr}", tracer, keep=True)
    _rebind(enumeration, "check", "kripke.check", tracer, keep=True)
    for attr, name in (("_reachable_from_root", "reachable"), ("_is_canonical", "is_canonical"),
                       ("_try_frame", "try_frame"), ("_ground", "ground"),
                       ("_sat_assignment", "sat_search")):
        _rebind(enumeration, attr, f"enumeration.{name}", tracer)
