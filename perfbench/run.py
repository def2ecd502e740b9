"""Benchmark nearcolor on one workload and print every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload solve-connected --seed 1 --seconds 36 --trace 0

Load shape: one client, one process, no threads, closed loop.  Each
operation starts only after the previous one returned and was checked.  A
pass runs the workload's operation list once; the run repeats whole passes
for --seconds (and for at least MIN_PASSES passes).  Every output is
compared with perfbench/golden/; a wrong output counts as failed.

--trace 0 reports the end-to-end metrics.  Before every pass the workload is
set up afresh and the set-up is timed; the pass then runs on that set-up.
The host's speed swings by up to 2x over seconds to minutes, so every
timing is scaled to a host of fixed speed.  Fixed pure-Python work (the
probe: a loop and a small search) is timed before each set-up, after it,
and between operations at least every PROBE_EVERY_S.  A time t taken
between probes p1 and p2 is reported as t * PROBE_REF_S / mean(p1, p2).
--trace 1 alternates untraced and traced passes and reports per-layer
metrics, each per pass, plus the tracing overhead; its spans are written
to perfbench/.work/ when it ends.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import LAYERS, Tracer, span_totals

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3  # set-ups per run, of which setup_s is the median
PROBE_REF_S = 0.00125  # about the probe's best time on the 2-vCPU host the benchmark was defined on
PROBE_EVERY_S = 0.1
HARD_STOP_S = 150.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.solve.ms": "ms", "solver.solve.calls": "count",
    "solver.count_optimal.ms": "ms", "solver.count_optimal.optima": "count",
    "solver.count_walk.ms": "ms",
    "solver.optimal_colorings.ms": "ms", "solver.optimal_colorings.yielded": "count",
    "solver.enumerate_oracle.ms": "ms", "solver.enumerate_oracle.assignments": "count",
    "solver.enumerate_oracle.hit_ratio": "ratio",
    "solver.greedy_heuristic.ms": "ms",
    "io.parse_graph.ms": "ms", "io.parse_graph.lines": "count",
    "graph.build.ms": "ms",
    "graph.chromatic_number.ms": "ms", "graph.chromatic_number.calls": "count",
    "families.union_bound.ms": "ms", "families.join_bound.ms": "ms",
    "families.corona_formula.ms": "ms",
    "verify.family_suite.ms": "ms", "verify.poly_suite.ms": "ms", "verify.bounds_suite.ms": "ms",
    "verify.rows": "count", "verify.mismatch": "count", "verify.known_mismatch": "count",
    "cli.subprocess.ms": "ms", "cli.main.ms": "ms", "cli.startup.ms": "ms",
    "cli.nonzero_exits": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "trace.overhead_ms": "ms", "trace.spans": "count",
}


@dataclass
class Tally:
    """Operations attempted and failed over the whole run, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)


# The probe's graph: vertex v's neighbours below v.  Fixed, so the probe's work never changes.
PROBE_EARLIER = tuple(tuple(u for u in range(v) if (3 * u + 5 * v) % 7 < 3) for v in range(8))


def _probe_walk(colors: list[int], v: int, bad: int):
    """Yield every 3-colouring of the probe graph with at most one bad edge, by a
    generator-driven depth-first search."""
    if v == len(colors):
        yield bad
        return
    for c in range(3):
        nb = bad
        for u in PROBE_EARLIER[v]:
            if colors[u] == c:
                nb += 1
        if nb <= 1:
            colors[v] = c
            yield from _probe_walk(colors, v + 1, nb)


def _probe_once() -> None:
    """An arithmetic loop, then the probe walk: the two kinds of work the solver does."""
    total = 0
    for i in range(10_000):
        total += i * i % 7
    sum(_probe_walk([0] * len(PROBE_EARLIER), 0, 0))


def probe() -> float:
    """The best of three timings of _probe_once: the host's speed just now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_once()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """A time taken between probes `before` and `after`, at the reference host's speed."""
    return seconds * PROBE_REF_S * 2 / (before + after)


@dataclass
class Pass:
    latencies: list[float]  # seconds per operation, call only (checks excluded)
    nonzero_exits: int = 0
    scaled: list[float] = field(default_factory=list)  # latencies at PROBE_REF_S (probed passes)

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_pass(ops: list[workloads.Op], mode: str, tally: Tally | None, tracer: Tracer | None = None,
             probed: bool = False) -> Pass:
    """Run every op once.  mode: 'call' (default), 'inproc' (cli.main) or 'ref' (unchecked).

    probed: probe the host's speed between operations and fill in Pass.scaled.
    """
    result = Pass([])
    probes = [probe()] if probed else []
    last_probe = time.perf_counter()
    before: list[int] = []  # per operation, the index of the last probe before it
    for op in ops:
        if probed and time.perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.perf_counter()
        before.append(len(probes) - 1)
        fn = {"call": op.call, "inproc": op.inproc, "ref": op.ref}[mode]
        if tracer is not None:
            tracer.op += 1  # spans of one operation share this id
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing call is a failed operation; the run goes on
            out, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        result.latencies.append(time.perf_counter() - t0)
        if isinstance(out, tuple) and out[0] != 0:
            result.nonzero_exits += 1
        if tally is None:
            continue
        if problem is None:
            try:
                problem = op.check(out)
            except Exception as exc:  # unreadable output is a wrong output
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        tally.attempted += 1
        if problem is not None:
            tally.failed += 1
            if len(tally.messages) < 5:
                tally.messages.append(f"{op.label}: {problem}")
    if probed:
        probes.append(probe())
        result.scaled = [scale(t, probes[i], probes[i + 1]) for t, i in zip(result.latencies, before)]
    return result


def repeat_cycles(seconds: float, min_cycles: int, cycle) -> None:
    """Call cycle() until the next one would end after `seconds` and min_cycles are done."""
    start = time.perf_counter()
    cycles = 0
    while True:
        cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return
        if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            return


def weighted_quantile(values: list[float], weights: list[float], q: float) -> float:
    """The smallest value at which the weight of it and all smaller values reaches q of the total."""
    pairs = sorted(zip(values, weights))
    goal, reached = q * sum(weights), 0.0
    for value, weight in pairs:
        reached += weight
        if reached >= goal:
            return value
    return pairs[-1][0]


def end_to_end(name: str, seed: int, tiny: bool, seconds: float, tally: Tally) -> dict[str, float]:
    setup_times: list[float] = []  # at PROBE_REF_S
    latencies: list[float] = []  # every operation of every pass, at PROBE_REF_S
    weights: list[float] = []

    def cycle() -> None:
        p1 = probe()
        t0 = time.perf_counter()
        wl = workloads.setup(name, ROOT, seed, tiny)
        elapsed = time.perf_counter() - t0
        setup_times.append(scale(elapsed, p1, probe()))
        gc.collect()
        latencies.extend(run_pass(wl.ops, "call", tally, probed=True).scaled)
        weights.extend(op.weight for op in wl.ops)

    repeat_cycles(seconds, MIN_PASSES, cycle)
    print(f"{len(setup_times)} passes, {len(latencies)} operations; times scaled to a probe "
          f"of {PROBE_REF_S * 1000:g} ms; setup_s is the median of {len(setup_times)} set-ups")
    latencies_ms = [x * 1000 for x in latencies]
    who = resource.RUSAGE_CHILDREN if name == "cli-adjudicate" else resource.RUSAGE_SELF
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(weights) / sum(w * x for w, x in zip(weights, latencies)),
        "latency_p50_ms": weighted_quantile(latencies_ms, weights, 0.5),
        "latency_p90_ms": weighted_quantile(latencies_ms, weights, 0.9),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(wl: workloads.Workload, seconds: float, tally: Tally, seed: int) -> dict[str, float]:
    targets = dict(wl.modules, bench=wl.calls)
    targets["nearcolor.verify.SUITES"] = wl.modules["nearcolor.verify"].SUITES
    tracer = Tracer(targets)
    cli = wl.name == "cli-adjudicate"
    plain_mode = "inproc" if cli else "call"
    plain: list[Pass] = []
    traced: list[Pass] = []
    subproc: list[Pass] = []
    refs: list[Pass] = []
    per_pass: list[dict[str, float]] = []

    def cycle() -> None:
        if cli:
            subproc.append(run_pass(wl.ops, "call", tally))
        plain.append(run_pass(wl.ops, plain_mode, tally))
        first, before = len(tracer.spans), tracer.counts.copy()
        tracer.install()
        try:
            traced.append(run_pass(wl.ops, plain_mode, tally, tracer))
        finally:
            tracer.uninstall()
        if any(op.ref for op in wl.ops):
            refs.append(run_pass([op for op in wl.ops if op.ref], "ref", None))
        inclusive, self_time = span_totals(tracer.spans[first:])
        values = {f"{name}.ms": s * 1000 for name, s in inclusive.items()}
        values.update({f"{layer}.self_ms": s * 1000 for layer, s in self_time.items()})
        values.update(tracer.counts - before)
        values["trace.spans"] = len(tracer.spans) - first
        per_pass.append(values)

    repeat_cycles(seconds, 1, cycle)
    tracer.dump(workloads.WORK_DIR / f"trace-{wl.name}-seed{seed}.json")

    def med(key: str) -> float:
        return statistics.median(v.get(key, 0) for v in per_pass)

    out = {name: med(name) for name in PER_LAYER}
    assignments = med("solver.enumerate_oracle.assignments")
    out["solver.enumerate_oracle.hit_ratio"] = (
        med("solver.enumerate_oracle.optima") / assignments if assignments else 0.0)
    if refs:
        out["solver.count_walk.ms"] = med("solver.count_optimal.ms") - \
            statistics.median(p.busy for p in refs) * 1000
    out["trace.overhead_ms"] = (statistics.median(p.busy for p in traced)
                                - statistics.median(p.busy for p in plain)) * 1000
    out["cli.nonzero_exits"] = statistics.median(p.nonzero_exits for p in traced)
    if cli:
        out["cli.subprocess.ms"] = statistics.median(p.busy for p in subproc) * 1000
        out["cli.main.ms"] = statistics.median(p.busy for p in plain) * 1000
        out["cli.startup.ms"] = out["cli.subprocess.ms"] - out["cli.main.ms"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="short instance lists (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nearcolor" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'nearcolor'}", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        wl = workloads.setup(args.workload, ROOT, args.seed, args.tiny)
        gc.collect()
        metrics = per_layer(wl, args.seconds, tally, args.seed)
        units = PER_LAYER
    else:
        metrics = end_to_end(args.workload, args.seed, args.tiny, args.seconds, tally)
        units = END_TO_END

    print(f"workload {args.workload}, seed {args.seed}, {tally.attempted} operations, "
          f"closed loop, 1 client, trace {args.trace}")
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"{'error_rate':<36} {tally.failed / max(tally.attempted, 1):>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, value in metrics.items():
        print(f"{name:<36} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
