"""Spans and counters around the calls into each layer of nonloose.

``Tracer.install()`` rebinds every traced name in each module where its
callers look it up (``nonloose.surgery.det_exact``, ``nonloose.linalg.
smith_normal_form``, ``nonloose.certify.bennequin_rational``, ``nonloose.
diagram.FrontWord``, ...), so calls the library makes to itself are caught
as well as the benchmark's own; ``uninstall()`` puts the originals back.  A
name the program no longer has is skipped, and its metrics read 0.

A span is an ``(op, id, parent, name, start_ns, end_ns)`` tuple; spans stay in
memory until ``dump()`` writes them out when the run ends.  The two
Bennequin checks run tens of thousands of times per search, so they are
counted, not spanned.  Sizes of results (bit lengths, certificate counts)
are measured after each operation, outside every span.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from importlib import import_module
from time import perf_counter_ns


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _matrix_bits(rows) -> int:
    return max((_bits(x) for row in rows for x in row), default=0)


def _snf_bits(args, result) -> tuple[str, int]:
    return "linalg.snf_max_bits", max(_matrix_bits(result.u), _matrix_bits(result.v))


def _inverse_bits(args, result) -> tuple[str, int]:
    return "linalg.inverse_max_bits", _matrix_bits(result)


def _output_bits(args, result) -> tuple[str, int]:
    return "surgery.output_max_bits", max(_bits(result.tb_q), _bits(result.rot_q), _bits(result.order_r))


# measured as the largest value of a round; every other measurement is summed
MAXIMA = ("linalg.snf_max_bits", "linalg.inverse_max_bits", "surgery.output_max_bits")

# (span name, defining module, attribute, modules whose global is rebound,
#  "span" or "count", measurement of (args, result) taken after the op)
TRACED = [
    ("linalg.det_exact", "linalg", "det_exact", ("linalg", "surgery"), "span", None),
    ("linalg.invert_exact", "linalg", "invert_exact", ("linalg", "surgery"), "span", _inverse_bits),
    ("linalg.homological_order", "linalg", "homological_order", ("linalg", "surgery"), "span", None),
    ("linalg.smith_normal_form", "linalg", "smith_normal_form", ("linalg", "surgery"), "span", _snf_bits),
    ("surgery.diagram_from_json", "surgery", "diagram_from_json", ("surgery",), "span", None),
    ("surgery.rational_invariants", "surgery", "rational_invariants", ("surgery",), "span", _output_bits),
    ("surgery.dual_invariants", "surgery", "dual_invariants", ("surgery", "certify"), "span", None),
    ("certify.tension_upper_bound", "certify", "tension_upper_bound", ("certify",), "span",
     lambda a, r: ("certify.witnesses", r is not None)),
    ("certify.tension_less_than_depth_search", "certify", "tension_less_than_depth_search", ("certify",), "span",
     lambda a, r: ("certify.tension_less_than_depth_search.certificates", len(r))),
    ("certify.unknot_verdict", "certify", "unknot_verdict", ("certify",), "span", None),
    ("certify.bennequin_null", "certify", "bennequin_null", ("certify",), "count", None),
    ("certify.bennequin_rational", "certify", "bennequin_rational", ("certify",), "count", None),
    ("knotdata.negative_torus_record", "knotdata", "negative_torus_record", ("knotdata", "certify"), "count", None),
    ("diagram.parse_front", "diagram", "parse_front", ("diagram",), "span",
     lambda a, r: ("diagram.input_events", len(r))),
    ("diagram.FrontWord", "diagram", "FrontWord", ("diagram",), "span", None),
    ("diagram._trace", "diagram", "_trace", ("diagram",), "span",
     lambda a, r: ("diagram.events_traced", len(a[0]))),
    ("diagram.resolve_orientation", "diagram", "resolve_orientation", ("diagram",), "span", None),
    ("diagram.stabilize_front", "diagram", "stabilize_front", ("diagram",), "span", None),
    ("diagram.detect_syntactic_destabilization", "diagram", "detect_syntactic_destabilization", ("diagram",), "span", None),
    ("diagram.destabilize_front", "diagram", "destabilize_front", ("diagram",), "span", None),
    ("cli.main", "cli", "main", ("cli",), "span", None),
]

# The per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("linalg.det_exact.calls", "count", "lower"),
    ("linalg.det_exact.busy_ms", "ms", "lower"),
    ("linalg.invert_exact.calls", "count", "lower"),
    ("linalg.invert_exact.busy_ms", "ms", "lower"),
    ("linalg.homological_order.calls", "count", "lower"),
    ("linalg.homological_order.busy_ms", "ms", "lower"),
    ("linalg.homological_order.self_ms", "ms", "lower"),
    ("linalg.smith_normal_form.calls", "count", "lower"),
    ("linalg.smith_normal_form.busy_ms", "ms", "lower"),
    ("linalg.snf_max_bits", "bits", "lower"),
    ("linalg.inverse_max_bits", "bits", "lower"),
    ("surgery.rational_invariants.calls", "count", "lower"),
    ("surgery.rational_invariants.busy_ms", "ms", "lower"),
    ("surgery.rational_invariants.self_ms", "ms", "lower"),
    ("surgery.dual_invariants.calls", "count", "lower"),
    ("surgery.dual_invariants.busy_ms", "ms", "lower"),
    ("surgery.diagram_from_json.busy_ms", "ms", "lower"),
    ("surgery.output_max_bits", "bits", "lower"),
    ("certify.tension_upper_bound.calls", "count", "lower"),
    ("certify.tension_upper_bound.busy_ms", "ms", "lower"),
    ("certify.candidates", "count", "lower"),
    ("certify.witness_yield", "ratio", "higher"),
    ("certify.tension_less_than_depth_search.calls", "count", "lower"),
    ("certify.tension_less_than_depth_search.busy_ms", "ms", "lower"),
    ("certify.tension_less_than_depth_search.certificates", "count", "higher"),
    ("knotdata.negative_torus_record.calls", "count", "lower"),
    ("diagram.parse_front.calls", "count", "lower"),
    ("diagram.parse_front.busy_ms", "ms", "lower"),
    ("diagram.resolve_orientation.calls", "count", "lower"),
    ("diagram.resolve_orientation.busy_ms", "ms", "lower"),
    ("diagram.stabilize_front.calls", "count", "lower"),
    ("diagram.stabilize_front.busy_ms", "ms", "lower"),
    ("diagram.detect_syntactic_destabilization.calls", "count", "lower"),
    ("diagram.detect_syntactic_destabilization.busy_ms", "ms", "lower"),
    ("diagram.FrontWord.constructions", "count", "lower"),
    ("diagram.events_traced", "count", "lower"),
    ("diagram.trace_per_event", "ratio", "lower"),
    ("cli.main.busy_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """Records one round of operations at a time; ``end_round`` files it."""

    def __init__(self) -> None:
        self.op = 0
        self.rounds: list[tuple[list, Counter, dict]] = []
        self._spans: list[tuple] = []
        self._sums: Counter = Counter()
        self._maxima: dict[str, int] = {}
        self._pending: list[tuple] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._saved: list[tuple] = []

    def _span(self, name, fn, hook):
        spans, stack, ids, pending = self._spans, self._stack, self._ids, self._pending

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((self.op, sid, parent, name, t0, t1))
            if hook is not None:
                pending.append((hook, args, result))
            return result

        return traced

    def _count(self, name, fn):
        sums = self._sums

        def counted(*args, **kwargs):
            sums[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for name, home, attr, callers, kind, hook in TRACED:
            original = getattr(import_module(f"nonloose.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self._count(name, original) if kind == "count" else self._span(name, original, hook)
            for caller in callers:
                module = import_module(f"nonloose.{caller}")
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def end_op(self) -> None:
        """Measure the results of the operation that just ended, outside its spans."""
        for hook, args, result in self._pending:
            key, value = hook(args, result)
            if key in MAXIMA:
                self._maxima[key] = max(self._maxima.get(key, 0), value)
            else:
                self._sums[key] += value
        self._pending.clear()

    def end_round(self) -> None:
        self.rounds.append((list(self._spans), Counter(self._sums), dict(self._maxima)))
        self._spans.clear()
        self._sums.clear()
        self._maxima.clear()

    def dump(self, path) -> int:
        """Write every span as one JSON line, times relative to the first span."""
        base = min((s[4] for spans, _, _ in self.rounds for s in spans), default=0)
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for r, (spans, _, _) in enumerate(self.rounds):
                for op, sid, parent, name, t0, t1 in spans:
                    fh.write(json.dumps({"round": r, "op": op, "id": sid, "parent": parent,
                                         "name": name, "start_ns": t0 - base, "end_ns": t1 - base}) + "\n")
                    n += 1
        return n


def round_metrics(spans: list[tuple], sums: Counter, maxima: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    busy time counts only the outermost span of a name; self time is a span's
    duration minus that of its direct children.
    """
    name_of = {s[1]: s[3] for s in spans}
    parent_of = {s[1]: s[2] for s in spans}
    children: Counter = Counter()
    for s in spans:
        children[s[2]] += s[5] - s[4]
    calls: Counter = Counter()
    busy: Counter = Counter()
    own: Counter = Counter()
    for _, sid, parent, name, t0, t1 in spans:
        calls[name] += 1
        own[name] += t1 - t0 - children[sid]
        while parent and name_of[parent] != name:
            parent = parent_of[parent]
        if not parent:
            busy[name] += t1 - t0
    ms = 1e-6
    candidates = sums["certify.bennequin_null"] + sums["certify.bennequin_rational"]
    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[layer] + sums[layer]
        elif stat == "busy_ms":
            out[metric] = busy[layer] * ms
        elif stat == "self_ms":
            out[metric] = own[layer] * ms
    out["diagram.FrontWord.constructions"] = calls["diagram.FrontWord"]
    out["diagram.events_traced"] = sums["diagram.events_traced"]
    out["diagram.trace_per_event"] = (
        sums["diagram.events_traced"] / sums["diagram.input_events"] if sums["diagram.input_events"] else 0
    )
    out["certify.candidates"] = candidates
    out["certify.witness_yield"] = sums["certify.witnesses"] / candidates if candidates else 0
    out["certify.tension_less_than_depth_search.certificates"] = sums[
        "certify.tension_less_than_depth_search.certificates"
    ]
    for key in MAXIMA:
        out[key] = maxima.get(key, 0)
    return out
