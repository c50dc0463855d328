#!/usr/bin/env python3
"""The bfoml benchmark: one workload, one seed, one closed-loop client.

Usage, from the repository root::

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all     # every workload, one after another

One single-threaded process calls the library in a closed loop: each op is
one call on one generated input, and the next op starts when the previous one
has returned and its output has been checked.  The seed determines every
input; the library receives only the generated inputs.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same ops twice, untraced and then with spans
around every layer, and reports the per-layer metrics, the tracing overhead
and the outcome digest.  The last line of standard output is one JSON
object; the lines before it are the same numbers for people to read.  A
wrong verdict, model or serialization makes the exit code nonzero.  See
bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

WORKLOADS = ("tableau-deep", "corpus", "oracle")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_REPEATS = 9
# Cycles generated during set-up; later cycles are generated on demand,
# with that time left out of the timed loop.
SETUP_CYCLES = {"tableau-deep": 8, "corpus": 10, "oracle": 2}
# The outcome digest and the per-layer counts cover the first cycles only,
# so they repeat exactly for a seed however long a run lasts.
DIGEST_CYCLES = {"tableau-deep": 2, "corpus": 5, "oracle": 1}
# Fixed per workload, so that a faster program does not move the tail to a
# higher percentile; each sits inside one cluster of the workload's op mix.
TAIL_PERCENTILE = {"tableau-deep": 80.0, "corpus": 99.9, "oracle": 80.0}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in turn, in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}); keep {HELD_OUT_SEED} "
                             "for the final check of a claimed gain")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smaller inputs, for a smoke test of the harness")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(workload: str, seed: int, quick: bool):
    """Import the library and generate the first cycles; return the timings.

    Repeated SETUP_REPEATS times with the package dropped from sys.modules in
    between, so that the reported set-up time is a median.
    """
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), BENCH]
    totals, generation = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m.split(".")[0] in ("bfoml", "golden", "workloads")]:
            del sys.modules[name]
        start = perf_counter()
        ops = importlib.import_module("workloads")
        generated = perf_counter()
        stream = ops.Stream(workload, seed, quick)
        cycles = [stream.cycle() for _ in range(SETUP_CYCLES[workload])]
        end = perf_counter()
        totals.append(end - start)
        generation.append(end - generated)
    return ops, stream, cycles, statistics.median(totals), statistics.median(generation)


class Pass:
    """One closed-loop pass over the op stream, with per-op records."""

    def __init__(self):
        self.latencies = array("d")
        self.outcomes: list[tuple] = []  # kept only when the ops are replayed
        self.budget_outs = 0
        self.wrong: list[str] = []
        self.loop_s = 0.0
        self.cycles = 0

    @property
    def failed(self) -> int:
        return self.budget_outs + len(self.wrong)


def run_pass(ops, stream, cycles, seconds, min_cycles, max_cycles=None,
             layers: "LayerState | None" = None, replay: bool = False) -> Pass:
    """Run whole cycles until the loop time reaches `seconds` (and at least
    min_cycles have run), or exactly max_cycles when given.  Generating inputs
    and checking outputs is left out of the loop time.

    Without `replay` or `layers`, used inputs and outcomes are dropped, so
    that the peak memory does not grow with the number of ops run."""
    keep = replay or layers is not None
    from bfoml.errors import ResourceLimitError
    tracer = layers.tracer if layers else None
    run = tracer.span("op", ops.run, keep=True) if tracer else ops.run
    out = Pass()
    start = perf_counter()
    excluded = 0.0
    while True:
        if max_cycles is not None:
            if out.cycles >= max_cycles:
                break
        elif out.cycles >= min_cycles and perf_counter() - start - excluded >= seconds:
            break
        if out.cycles == len(cycles):
            t = perf_counter()
            cycles.append(stream.cycle())
            excluded += perf_counter() - t
        for op in cycles[out.cycles]:
            op_id = len(out.latencies)
            if tracer:
                tracer.begin_op(op_id, keep=op_id < layers.prefix_ops)
            t0 = perf_counter()
            result = error = None
            try:
                result = run(op)
            except ResourceLimitError:
                error = "budget"
            except Exception:  # any other exception is a failed op, reported below
                error = traceback.format_exc(limit=3)
            t1 = perf_counter()
            if tracer:
                tracer.end_op()
            out.latencies.append(t1 - t0)
            if error == "budget":
                out.budget_outs += 1
                outcome = (op.kind, "budget")
            elif error:
                out.wrong.append(f"{op.kind}: exception\n{error}")
                outcome = (op.kind, "error")
            else:
                try:
                    ops.verify(op, result)
                except ops.WrongResult as exc:
                    out.wrong.append(str(exc))
                outcome = ops.outcome(op, result) if keep else None
            result = None
            if keep:
                out.outcomes.append(outcome)
            if layers:
                layers.collect(op_id, outcome)
            excluded += perf_counter() - t1
        if not keep:
            cycles[out.cycles] = None
        out.cycles += 1
    out.loop_s = perf_counter() - start - excluded
    return out


class LayerState:
    """The tracer plus the per-op figures that per-layer metrics need.

    Counts are summed over the first prefix_ops ops only, so that they, and
    the outcome digest built from them, repeat exactly for a seed.
    """

    DIGEST_COUNTS = ("enumeration.reachable", "enumeration.is_canonical",
                     "enumeration.try_frame")

    def __init__(self, tracer, prefix_ops: int):
        self.tracer = tracer
        self.prefix_ops = prefix_ops
        self.prefix_calls: dict[str, int] = {}
        self.digest_rows: list[tuple] = []
        procs = ("tableau_increasing", "tableau_constant")
        self.nodes = dict.fromkeys(procs, 0)
        self.prefix_nodes = dict.fromkeys(procs, 0)
        self.prefix_worlds = dict.fromkeys(procs, 0)
        self.max_depth = dict.fromkeys(procs, 0)
        self.check_in_decide = 0.0
        self.decide_on_sat = 0.0
        self.inconclusive = 0

    def collect(self, op_id: int, outcome: tuple) -> None:
        tracer = self.tracer
        in_prefix = op_id < self.prefix_ops
        if in_prefix:
            for name, n in tracer.op_calls.items():
                self.prefix_calls[name] = self.prefix_calls.get(name, 0) + n
            self.inconclusive += outcome[1] == "budget"
            counts = sorted((k, v) for k, v in tracer.op_calls.items()
                            if k in self.DIGEST_COUNTS or ".rule." in k)
            self.digest_rows.append((outcome, tuple(counts)))
        decisions = outcome[1] if isinstance(outcome[1], tuple) else ()
        for proc, verdict, nodes, depth, worlds in decisions:
            self.nodes[proc] += nodes
            if in_prefix:
                self.prefix_nodes[proc] += nodes
                self.prefix_worlds[proc] += worlds
                self.max_depth[proc] = max(self.max_depth[proc], depth)
        if any(d[1] == "SAT" for d in decisions):
            self.check_in_decide += tracer.op_time["kripke.check"]
            self.decide_on_sat += (tracer.op_time["tableau_increasing.decide"]
                                   + tracer.op_time["tableau_constant.decide"])


def tail(latencies, wanted):
    """(percentile, latency, samples beyond) at the wanted percentile, or at
    the highest one that leaves ten samples beyond it if that is lower."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(wanted / 100 * n), n - 10))
    return 100 * rank / n, ordered[rank - 1], n - rank


def end_to_end(result: Pass, setup_s: float, workload: str):
    n = len(result.latencies)
    p, tail_s, beyond = tail(result.latencies, TAIL_PERCENTILE[workload])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
        ("op_p50_ms", statistics.median(result.latencies) * 1e3, "ms", f"{n:,} ops"),
        ("op_tail_ms", tail_s * 1e3, "ms", f"p{p:.4g}, {beyond:,} samples beyond, {n:,} ops"),
        ("ops_per_s", n / result.loop_s, "1/s", f"{n:,} ops in {result.loop_s:.3f} s"),
        ("fail_share", result.failed / n, "ratio", f"{result.failed:,}/{n:,}"),
        ("peak_rss_mb", rss_mb, "MB", "getrusage ru_maxrss"),
    ]


def per_layer(state: LayerState, traced: Pass, untraced: Pass, generate_s: float):
    tracer = state.tracer
    m = len(traced.latencies)

    def ms(*names):  # mean ms per op over the traced ops
        return sum(tracer.time[n] for n in names) * 1e3 / m

    def self_ms(*names):
        return sum(tracer.self_time[n] for n in names) * 1e3 / m

    def calls(name):  # exact count over the digest prefix
        return state.prefix_calls.get(name, 0)

    def ratio(num, den, fmt="{:,}"):
        return (num / den if den else 0.0), f"{fmt.format(num)}/{fmt.format(den)}"

    out = [
        ("parser.parse_ms", ms("parser.parse"), "ms", None),
        ("parser.calls", calls("parser.parse"), "count", None),
        ("fo.translate_ms", ms("fo.parse", "fo.translate"), "ms", None),
        ("formulas.normalize_ms", ms("formulas.to_nnf", "formulas.cleanse",
                                     "formulas.classify"), "ms", None),
        ("formulas.formula_key_ms", ms("formulas.formula_key"), "ms", None),
        ("formulas.formula_key.calls", calls("formulas.formula_key"), "count", None),
        ("formulas.substitute_ms", ms("formulas.substitute"), "ms", None),
        ("tableau_common.canonical_gamma_ms", ms("tableau_common.canonical_gamma"), "ms", None),
        ("tableau_common.find_clash_ms", ms("tableau_common.find_clash"), "ms", None),
        ("tableau_common.invariants_ms", ms("tableau_common.invariants"), "ms", None),
    ]
    search = ("tableau_increasing.solve", "tableau_constant.solve")
    share, base = ratio(ms("tableau_common.invariants"), ms(*search), "{:.3f} ms")
    with_sort = ratio(ms("tableau_common.invariants", "tableau_common.canonical_gamma"),
                      ms(*search))[0]
    out.append(("tableau_common.invariants_share", share, "ratio",
                f"of search time: {base}; with canonical_gamma {with_sort:.3f}"))
    for proc in ("tableau_increasing", "tableau_constant"):
        out.append((f"{proc}.nodes", state.prefix_nodes[proc], "count", None))
        for rule in ("and", "or", "br", "end"):
            out.append((f"{proc}.rule.{rule}", calls(f"{proc}.rule.{rule}"), "count", None))
        out.append((f"{proc}.max_depth", state.max_depth[proc], "count", None))
        search_ms = tracer.time[f"{proc}.solve"] * 1e3
        us, base = ratio(search_ms * 1e3, state.nodes[proc], "{:,.0f}")
        out.append((f"{proc}.us_per_node", us, "us", f"search us/nodes, traced: {base}"))
        out.append((f"{proc}.search_self_ms", self_ms(f"{proc}.solve", f"{proc}.expand"),
                    "ms", None))
        out.append((f"{proc}.extract_ms", ms(f"{proc}.extract"), "ms", None))
        out.append((f"{proc}.model_worlds", state.prefix_worlds[proc], "count", None))
    share, base = ratio(state.check_in_decide * 1e3, state.decide_on_sat * 1e3, "{:.3f} ms")
    out += [
        ("kripke.check_ms", ms("kripke.check"), "ms", None),
        ("kripke.check.calls", calls("kripke.check"), "count", None),
        ("kripke.validate_ms", ms("kripke.validate"), "ms", None),
        ("kripke.dumps_ms", ms("kripke.dumps"), "ms", None),
        ("kripke.verify_share", share, "ratio", "check in decide on SAT ops: " + base),
        ("enumeration.edge_masks", calls("enumeration.reachable"), "count", None),
        ("enumeration.frames_checked", calls("enumeration.is_canonical"), "count", None),
        ("enumeration.frames_grounded", calls("enumeration.try_frame"), "count", None),
    ]
    share, base = ratio(calls("enumeration.try_frame"), calls("enumeration.is_canonical"))
    out += [
        ("enumeration.canonical_ratio", share, "ratio", "grounded/checked: " + base),
        ("enumeration.frame_gen_self_ms", self_ms("enumeration.enumerate_sat"), "ms", None),
        ("enumeration.is_canonical_ms", ms("enumeration.is_canonical"), "ms", None),
        ("enumeration.reachable_ms", ms("enumeration.reachable"), "ms", None),
        ("enumeration.ground_ms", ms("enumeration.ground"), "ms", None),
        ("enumeration.sat_search_ms", ms("enumeration.sat_search"), "ms", None),
        ("enumeration.inconclusive", state.inconclusive, "count", None),
        ("fuzz.generate_ms", generate_s * 1e3, "ms", "per set-up, median"),
    ]
    overhead, base = ratio(traced.loop_s, untraced.loop_s, "{:.3f} s")
    out.append(("trace.overhead_share", overhead - 1, "ratio", "traced/untraced - 1: " + base))
    return out


def report(lines, notes, args, attempted, failed, correct):
    print(f"bfoml benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' quick' if args.quick else ''}")
    print(f"machine: {platform.system()} {platform.machine()}, nproc={os.cpu_count()}, "
          f"Python {platform.python_version()}")
    for name, value, unit, note in lines:
        shown = f"{value:,}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit:<6}" + (f"  ({note})" if note else ""))
    for note in notes:
        print(note)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in lines
               if name != "fail_share"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args) -> int:
    """Run every workload in a child process; nonzero if any run is."""
    status = 0
    for workload in WORKLOADS:
        child = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        status = status or subprocess.run(child, check=False).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        ops, stream, cycles, setup_s, generate_s = set_up(args.workload, args.seed, args.quick)
    except ImportError as exc:
        print(f"error: cannot load bfoml and tests/golden.py under {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    digest_cycles = 1 if args.quick else DIGEST_CYCLES[args.workload]
    notes = []
    if not args.trace:
        result = run_pass(ops, stream, cycles, args.seconds, digest_cycles)
        lines = end_to_end(result, setup_s, args.workload)
    else:
        import tracing
        untraced = run_pass(ops, stream, cycles, args.seconds / 2, digest_cycles,
                            replay=True)
        tracer = tracing.Tracer()
        tracing.instrument(tracer, ops)
        layers = LayerState(tracer, sum(len(c) for c in cycles[:digest_cycles]))
        result = run_pass(ops, stream, cycles, 0, 0, max_cycles=untraced.cycles,
                          layers=layers)
        lines = per_layer(layers, result, untraced, generate_s)
        result.wrong[:0] = untraced.wrong
        if result.outcomes != untraced.outcomes:
            result.wrong.append("traced and untraced passes disagree on an outcome")
        spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(spans)
        rows = repr(layers.digest_rows).encode()
        notes = [f"outcome digest {hashlib.sha256(rows).hexdigest()[:16]} (verdicts, nodes, "
                 f"rule and frame counts of the first {layers.prefix_ops:,} ops)",
                 f"counts cover those ops; times are ms per op over {len(result.latencies):,} "
                 f"traced ops; spans written to {os.path.relpath(spans, ROOT)}"]
    for message in result.wrong[:5]:
        print(f"WRONG: {message}", file=sys.stderr)
    report(lines, notes, args, len(result.latencies), result.failed, not result.wrong)
    return 1 if result.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
