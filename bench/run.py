"""Benchmark of nonloose: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload surgery --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``; the
``cli`` workload starts ``python -m nonloose.cli`` processes one after
another.  Progress goes to stderr, a detailed record to
``.bench_out/result-<workload>-<seed>-<trace>.json``, and the last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).

Statistics.  The host's speed changes by up to 2x over seconds and drifts
over minutes, so plain times do not repeat.  Every operation of the
workload's fixed, seeded input set is timed once per round, and rounds
repeat until the time is up.  Alongside the operations, each round times a
reference that the program cannot change: a fixed pure-Python probe for
in-process work, a bare ``python -c pass`` for fresh processes (an
in-process probe does not track how fast a new process starts).  A time is
scaled by REF / (the median of the reference times within WINDOW of it),
that is, expressed in milliseconds of a host on which the reference takes
REF, and an operation's time is the median of its scaled times over the
rounds.
Latency percentiles are over the operations' times; ``ops_per_s`` is the
number of operations divided by their sum.  Inputs that fail by a known
fault are checked and counted but not timed.  ``setup_s`` is the median, over
(bare start, fresh import) pairs taken one after each round, of
BARE_REF_MS * import / bare.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_ROUNDS = 3
SETUP_PAIRS = 11
START_PAIRS = 7  # for cli.import_ms and cli.interpreter_ms in the traced run
# (reference milliseconds, time between references, half-width of the window
# of references that scales a time)
PROBE_REF_MS, PROBE_EVERY_NS, PROBE_WINDOW_NS = 2.0, 50_000_000, 500_000_000
BARE_REF_MS, BARE_EVERY_NS, BARE_WINDOW_NS = 80.0, 1_000_000_000, 2_000_000_000


def probe() -> int:
    """Fixed pure-Python work of the kinds the program does: small-int and
    Fraction arithmetic, tuples, lists and dicts."""
    acc, seen, rows = Fraction(0), {}, []
    for i in range(1, 800):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        seen[i & 127] = (i, i * i % 11)
        rows.append((i, -i))
    return acc.numerator + len(seen) + len(rows)


def time_probe() -> float:
    """Milliseconds for one probe."""
    t0 = time.perf_counter_ns()
    probe()
    return (time.perf_counter_ns() - t0) / 1e6


def fresh_interpreter(code: str, env: dict) -> float:
    """Milliseconds from spawning ``python -c code`` until it has exited."""
    t0 = time.perf_counter_ns()
    subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    return (time.perf_counter_ns() - t0) / 1e6


def start_pair(code: str, env: dict) -> tuple[float, float]:
    """Milliseconds of a bare interpreter start and of one running ``code``."""
    return fresh_interpreter("pass", env), fresh_interpreter(code, env)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("surgery", "certify", "fronts", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_round(ops, tracer, first_op: int, reference: Callable[[], float], every_ns: int, window_ns: int):
    """Time each operation once and check its result after the clock stops.

    The reference is timed at the start and after any operation that ends
    ``every_ns`` or more after the last reference.  Returns each operation's
    nanoseconds divided by the median reference within ``window_ns`` of its
    end (the nearest one if none is that close), and the failures.
    """
    ends, times, failures = [], [], []
    marks, levels = [time.perf_counter_ns()], [reference()]
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter_ns()
        try:
            result = op.call()
        except Exception as exc:  # a raising operation is a failed one
            result = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_op()
        ends.append(t1)
        times.append(t1 - t0)
        problem = op.check(result)
        if problem is not None:
            failures.append((i, problem))
        if t1 - marks[-1] >= every_ns:
            marks.append(time.perf_counter_ns())
            levels.append(reference())
    relative = []
    for end, t in zip(ends, times):
        lo, hi = bisect.bisect_left(marks, end - window_ns), bisect.bisect_right(marks, end + window_ns)
        near = levels[lo:hi] or [levels[min(bisect.bisect_left(marks, end), len(levels) - 1)]]
        relative.append(t / 1e6 / statistics.median(near))
    return relative, failures, statistics.median(levels)


def scaled(rounds: list[tuple[list[float], float]], ref_ms: float, ops) -> list[float]:
    """Each operation's median over the rounds of its scaled milliseconds."""
    return [statistics.median(rel[i] for rel, _ in rounds) * ref_ms for i in ops]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "nonloose" / "__init__.py").is_file():
        print(f"bench: no nonloose package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    t_setup = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = (workload.in_process or workload.ops) if args.trace else workload.ops
    env = workloads.child_env()
    if workload.in_process is not None and not args.trace:  # fresh processes
        reference, ref_ms = (lambda: fresh_interpreter("pass", env)), BARE_REF_MS
        every_ns, window_ns = BARE_EVERY_NS, BARE_WINDOW_NS
    else:
        reference, ref_ms = time_probe, PROBE_REF_MS
        every_ns, window_ns = PROBE_EVERY_NS, PROBE_WINDOW_NS
    import_code = f"import {workload.setup_module}"
    fresh_interpreter(import_code, env)  # compiles bytecode once, untimed
    print(f"bench: {args.workload} seed {args.seed}: {len(ops)} operations per round, "
          f"built in {time.perf_counter() - t_setup:.1f} s", file=sys.stderr)

    tracer = tracing.Tracer() if args.trace else None
    gc.collect()
    gc.freeze()  # keep the benchmark's own objects out of the program's collections
    min_rounds = 2 * MIN_ROUNDS if args.trace else MIN_ROUNDS
    plain: list[tuple[list[float], float]] = []
    traced: list[tuple[list[float], float]] = []
    setup: list[tuple[float, float]] = []
    failures: list[tuple[int, int, str]] = []
    durations: list[float] = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        r = len(plain) + len(traced)
        in_trace = tracer is not None and r % 2 == 1
        t0 = time.perf_counter()
        if in_trace:
            tracer.install()
        try:
            times, wrong, level = time_round(ops, tracer if in_trace else None, r * len(ops), reference, every_ns, window_ns)
        finally:
            if in_trace:
                tracer.uninstall()
                tracer.end_round()
        (traced if in_trace else plain).append((times, level))
        failures += [(r, i, msg) for i, msg in wrong]
        if len(setup) < SETUP_PAIRS:
            setup.append(start_pair(import_code, env))
        durations.append(time.perf_counter() - t0)
        if r + 1 >= min_rounds and time.perf_counter() + statistics.median(durations) > deadline:
            break
    while len(setup) < SETUP_PAIRS:
        setup.append(start_pair(import_code, env))
    rounds = len(plain) + len(traced)
    attempted = rounds * len(ops)
    unexpected = [f for f in failures if ops[f[1]].known_fault is None]
    failed_ops = sorted({i for _, i, _ in failures})
    for i in failed_ops:
        print(f"bench: FAILED {ops[i].label}: {next(m for _, j, m in failures if j == i)}", file=sys.stderr)

    # inputs that fail by a known fault are checked but not timed, so fixing
    # the fault leaves the timed set as it was
    timed = [i for i, op in enumerate(ops) if op.known_fault is None]
    if args.trace:
        metrics = layer_metrics(tracing, tracer, plain, traced, timed, env, ref_ms)
        spans = tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = end_to_end(args.workload, scaled(plain, ref_ms, timed), setup)
        spans = 0
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "operations_per_round": len(ops), "spans": spans,
        "measured_s": time.perf_counter() - start,
        "reference_ms": {"ref": ref_ms, "plain_rounds": [lv for _, lv in plain], "traced_rounds": [lv for _, lv in traced]},
        "start_pairs_ms": setup,
        "failures": [{"round": r, "op": ops[i].label, "problem": msg} for r, i, msg in failures],
        "scaled_ms": {f"{op.label} #{i}": v for (i, op), v in zip(enumerate(ops), scaled(plain, ref_ms, range(len(ops))))},
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"bench: {rounds} rounds, {attempted} operations, {len(failures)} failed, "
          f"{record['measured_s']:.1f} s measured", file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def end_to_end(workload: str, times_ms: list[float], setup: list[tuple[float, float]]) -> dict:
    if workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(times_ms) / (sum(times_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(times_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(BARE_REF_MS * t / bare for bare, t in setup) / 1e3, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def layer_metrics(tracing, tracer, plain, traced, timed, env, ref_ms: float) -> dict:
    """Counts from the first traced round; times as the median traced round."""
    per_round = [tracing.round_metrics(*r) for r in tracer.rounds]
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    counts = {k for k, u in units.items() if u in ("count", "bits", "ratio")}
    for later in per_round[1:]:
        moved = {k for k in counts if later.get(k) != per_round[0].get(k)}
        if moved:
            print(f"bench: counts differ between traced rounds: {sorted(moved)}", file=sys.stderr)
    out = {}
    for name, unit in units.items():
        if name in per_round[0]:
            if name in counts:
                out[name] = (per_round[0][name], unit)
            else:
                values = [m[name] * ref_ms / level for m, (_, level) in zip(per_round, traced)]
                out[name] = (statistics.median(values), unit)
    pairs = [start_pair("import nonloose.cli", env) for _ in range(START_PAIRS)]
    out["cli.interpreter_ms"] = (statistics.median(bare for bare, _ in pairs), "ms")
    out["cli.import_ms"] = (statistics.median(BARE_REF_MS * (t / bare - 1) for bare, t in pairs), "ms")
    overhead = sum(scaled(traced, ref_ms, timed)) / sum(scaled(plain, ref_ms, timed)) - 1
    out["trace.overhead_pct"] = (100 * overhead, "%")
    return out


if __name__ == "__main__":
    sys.exit(main())
