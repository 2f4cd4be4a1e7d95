"""One workload in one fresh single-threaded process.

Run by ``run.py``; prints one JSON object as its last stdout line.  Modes:

- ``--setup-only``: import, generate the instances, warm up, report the
  monotonic clock and exit (``run.py`` times set-up from outside);
- default: the closed timed loop with tracing off, then verification;
- ``--trace``: untraced passes, the same number of traced passes, a
  ``tracemalloc`` pass of its own, then the per-layer metrics.

A timed call is a CLI verb run through ``weaksep.cli.run(argv)`` with stdout
captured into a buffer (or, for necklace domains, the library route).  Whole
passes over the call list run until ``--seconds`` have elapsed, so every run
measures the same mix of calls.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weaksep  # noqa: E402

if not Path(weaksep.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"weaksep was imported from {weaksep.__file__}, not from this checkout")

from weaksep import cli, mutations  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from verify import Verifier, self_check  # noqa: E402


class _Capture:
    """Stands in for sys.stdout; the CLI writes its report bytes to ``buffer``."""

    def __init__(self) -> None:
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


def invoke(call: workloads.Call) -> tuple[int, bytes]:
    """Run one call; an exception becomes exit code -1 so the loop keeps going."""
    try:
        if call.argv is None:
            return 0, workloads.run_library_call(call)
        sink = _Capture()
        with redirect_stdout(sink):
            code = cli.run(call.argv)
        return code, sink.buffer.getvalue()
    except Exception:
        return -1, traceback.format_exc().encode()


@dataclass(slots=True)
class Attempt:
    """One timed call: its output, its interval, and its latency at reference speed."""

    idx: int
    code: int
    out: bytes
    start: float
    end: float
    busy: float
    latency: float = 0.0


def run_passes(calls, probe: SpeedProbe, seconds: float = 0.0, passes: int | None = None, tracer=None):
    """Whole passes until ``seconds`` elapse, or exactly ``passes`` of them.

    The probe is sampled before every call and on its timer during calls; the
    time its timer handler takes is not counted in the call's latency.
    """
    attempts: list[Attempt] = []
    done = 0
    begin = perf_counter()
    while True:
        for idx, call in enumerate(calls):
            probe.sample()
            handled = probe.in_handler
            start = perf_counter()
            with tracer.root(len(attempts), "call") if tracer else nullcontext():
                code, out = invoke(call)
            end = perf_counter()
            attempts.append(Attempt(idx, code, out, start, end, end - start - (probe.in_handler - handled)))
        done += 1
        if done == passes or (passes is None and perf_counter() - begin >= seconds):
            break
    probe.sample()
    for a in attempts:
        a.latency = a.busy / probe.slowdown(a.start, a.end)
    return done, attempts


def verify(calls, attempts, tracer: Tracer | None = None):
    """Check every attempt; returns failures, the verifier and one output per call."""
    verifier = Verifier()
    verdicts: dict[tuple[int, int, bytes], str | None] = {}
    failures = []
    for a in attempts:
        key = (a.idx, a.code, a.out)
        if key not in verdicts:
            with tracer.root(a.idx, "verify") if tracer else nullcontext():
                verdicts[key] = verifier.check(calls[a.idx], a.code, a.out)
        if verdicts[key] is not None:
            failures.append((a.idx, verdicts[key]))
    by_call = {a.idx: (a.code, a.out) for a in attempts}
    return failures, verifier, by_call


def report_failures(calls, failures) -> None:
    for idx, reason in failures[:10]:
        call = calls[idx]
        what = " ".join(call.argv) if call.argv else f"{call.kind} {call.data.get('perm')}"
        sys.stderr.write(f"FAILED {what}: {reason}\n")


def nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def checked_run(calls, attempts, tracer=None):
    failures, verifier, by_call = verify(calls, attempts, tracer)
    report_failures(calls, failures)
    tried, rejected = self_check(verifier, calls, by_call)
    sys.stderr.write(f"verifier self-check: {rejected} of {tried} corrupted verdicts rejected\n")
    return failures, tried == rejected and tried > 0


def timed(calls, seconds: float) -> dict:
    first_call = time.monotonic()
    with SpeedProbe() as probe:
        passes, attempts = run_passes(calls, probe, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, self_ok = checked_run(calls, attempts)
    attempted, failed = len(attempts), len(failures)
    latencies = [a.latency for a in attempts]
    metrics = {
        "verdicts_per_s": ((attempted - failed) / sum(latencies), "1/s"),
        "call_p50_ms": (nearest_rank(latencies, 0.5) * 1000, "ms"),
        "call_p90_ms": (nearest_rank(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    busy = sum(a.busy for a in attempts)
    sys.stderr.write(
        f"{passes} passes of {len(calls)} calls: {busy:.2f} s busy, host slowdown {busy / sum(latencies):.3f}; "
        f"{attempted} latency samples; failed_frac {failed / attempted} ({failed}/{attempted})\n"
    )
    return {
        "correct": failed == 0 and self_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "first_call": first_call,
    }


def bytes_per_node(calls) -> float:
    """Peak traced allocation of the first complementary n = 8 search, per node it stored."""
    call = next(
        c for c in calls if c.kind == "mutdist" and c.data["i"].n == 8 and c.data["i"].mask ^ c.data["j"].mask == 255
    )
    tracemalloc.start()
    try:
        result = mutations.mutation_distance(call.data["i"], call.data["j"], big=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ratio(peak, result.nodes_explored)


def layer_metrics(tracer: Tracer, passes: int, attempts, calls) -> dict:
    """Per-layer figures per pass, from spans scaled to reference speed."""
    spans = tracer.spans
    run = [s for s in spans if s.phase == "call"]

    def named(*names):
        return [s for s in run if s.name in names]

    def self_sum(*names):
        return sum(s.self_time * s.scale for s in named(*names)) / passes

    def count_sum(*names):
        return sum(s.count or 0 for s in named(*names)) / passes

    def dur_sum(*names):
        return sum(s.duration * s.scale for s in named(*names)) / passes

    def layer_self(layer):
        return sum(s.self_time * s.scale for s in run if s.layer == layer) / passes

    bk_s = self_sum("cliques.purity_report", "cliques.enumerate_maximal_cliques")
    cliques_found = count_sum("cliques.purity_report", "cliques.enumerate_maximal_cliques")
    bb_s = self_sum("cliques.max_clique_size")
    verify_bk_s = sum(
        s.self_time * s.scale for s in spans if s.phase == "verify" and s.name == "cliques.purity_report"
    )
    graph_s = self_sum("cliques.build_compat_graph")
    build_s = self_sum("domains.build_domain_AIJ")
    seed_s = sum(
        s.duration * s.scale
        for s in run
        if s.layer == "cliques" and s.parent >= 0 and spans[s.parent].name == "mutations.mutation_distance"
    ) / passes
    nodes = count_sum("mutations.mutation_distance")
    effects = named("octahedron.move_projection_effect")
    cli_runs = named("cli.run")
    budget_nodes = [
        json.loads(a.out)["nodes_explored"] for a in attempts if calls[a.idx].kind == "budget" and a.code == 3
    ]
    metrics = {
        "cliques.bk_s": (bk_s, "s"),
        "cliques.maximal_cliques": (cliques_found, "count"),
        "cliques.cliques_per_s": (ratio(cliques_found, bk_s), "1/s"),
        "cliques.bb_s": (bb_s, "s"),
        "cliques.bb_call_p90_ms": (
            nearest_rank([s.duration * s.scale for s in named("cliques.max_clique_size")], 0.9) * 1000,
            "ms",
        ),
        "cliques.bb_over_bk": (ratio(bb_s * passes, verify_bk_s), "ratio"),
        "cliques.graph_s": (graph_s, "s"),
        "ground.pair_tests_per_s": (ratio(count_sum("cliques.build_compat_graph"), graph_s), "1/s"),
        "domains.build_s": (build_s, "s"),
        "domains.candidates_per_s": (ratio(count_sum("domains.build_domain_AIJ"), build_s), "1/s"),
        "necklaces.domain_s": (self_sum("necklaces.domain_in_for_necklace"), "s"),
        "mutations.seed_s": (seed_s, "s"),
        "mutations.bfs_s": (self_sum("mutations.mutation_distance"), "s"),
        "mutations.nodes_explored": (nodes, "count"),
        "mutations.nodes_per_s": (ratio(nodes, dur_sum("mutations.mutation_distance")), "1/s"),
        "mutations.explore_nodes_per_s": (
            ratio(count_sum("mutations.explore_mutation_graph"), dur_sum("mutations.explore_mutation_graph")),
            "1/s",
        ),
        "mutations.budget_overshoot": (ratio(budget_nodes[0], workloads.BUDGET) if budget_nodes else 0.0, "ratio"),
        "octahedron.projection_s": (layer_self("octahedron"), "s"),
        "octahedron.effects_per_s": (ratio(len(effects), sum(s.duration * s.scale for s in effects)), "1/s"),
        "cli.overhead_ms": (ratio(sum(s.self_time * s.scale for s in cli_runs), len(cli_runs)) * 1000, "ms"),
    }
    for layer in ("bench", "cli", "domains", "necklaces", "cliques", "mutations", "octahedron"):
        metrics[f"{layer}.self_s"] = (layer_self(layer), "s")
    return metrics


def traced(calls, seconds: float, workload: str, seed: int) -> dict:
    """Untraced passes for half the time, the same number traced, then a memory pass."""
    with SpeedProbe() as probe:
        passes, plain = run_passes(calls, probe, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        with SpeedProbe() as probe:
            _, attempts = run_passes(calls, probe, passes=passes, tracer=tracer)
            failures, self_ok = checked_run(calls, plain + attempts, tracer)
            probe.sample()
    finally:
        tracer.uninstall()
    tracer.scale_roots(lambda root: 1 / probe.slowdown(root.start, root.end))
    metrics = layer_metrics(tracer, passes, attempts, calls)
    plain_s = sum(a.latency for a in plain)
    traced_s = sum(a.latency for a in attempts)
    accounted = sum(s.self_time * s.scale for s in tracer.spans if s.phase == "call")
    metrics["trace.overhead_frac"] = (ratio(traced_s - plain_s, plain_s), "ratio")
    metrics["trace.self_over_untraced"] = (ratio(accounted, plain_s), "ratio")
    metrics["host.slowdown"] = (ratio(sum(a.busy for a in plain), plain_s), "ratio")
    metrics["mutations.bytes_per_node"] = (bytes_per_node(calls) if workload == "moves" else 0.0, "B/node")
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-seed{seed}.jsonl")
    sys.stderr.write(f"{passes} untraced and {passes} traced passes; {len(tracer.spans)} spans\n")
    return {
        "correct": not failures and self_ok,
        "attempted": len(plain) + len(attempts),
        "failed": len(failures),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    calls = workloads.build(args.workload, args.seed)
    for argv in workloads.WARMUP[args.workload]:
        invoke(workloads.Call("warmup", argv))
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return
    if args.trace:
        result = traced(calls, args.seconds, args.workload, args.seed)
    else:
        result = timed(calls, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
