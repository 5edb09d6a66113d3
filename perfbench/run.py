"""Repository benchmark: one workload per process, one JSON line of results.

Usage, from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 12 --trace 0

``--workload`` is ``adhoc``, ``monitor`` or ``low_motion`` (see
``perfbench/README.md``).  ``--seed`` makes the workload's inputs;
``--seconds`` is how long the measured stretch lasts (whole rounds, so it
may run slightly over).  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics of an untraced run; with ``--trace 1`` it
carries the per-layer metrics of a traced run, and the spans are written as
Chrome trace-event JSON under ``.perfbench/``.  The benchmark imports the
package from ``src/`` of the checkout it runs in and exits with code 2
without a result when there is none.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3

#: the tail percentile of each workload, which keeps at least ten samples
#: beyond it at the workload's minimum sample count (see README.md)
TAIL_PERCENTILE = {"adhoc": 90, "monitor": 90, "low_motion": 85}


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def end_to_end(workload: str, out, verdict, setups: list[float]) -> dict:
    def metric(value: float, unit: str) -> dict:
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "latency_p50_ms": metric(statistics.median(out.latencies_ms), "ms"),
        "latency_tail_ms": metric(
            percentile(out.latencies_ms, TAIL_PERCENTILE[workload]), "ms"
        ),
        "frames_per_s": metric(statistics.median(out.segment_fps), "frames/s"),
        "sim_ms_per_frame": metric(out.sim_ms_per_frame(), "sim_ms/frame"),
        "recall": metric(verdict.recall, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(out, traced, tracer, detector_name: str) -> dict:
    layers = tracer.layers()
    frames = traced.frames

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "count": 0, "total_ns": 0, "self_ns": 0})

    def ms_per_frame(*names: str, key: str = "self_ns") -> float:
        return sum(layer(name)[key] for name in names) / 1e6 / frames

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    renders = layer("video.render")["calls"]
    frame_calls = layer("video.frame")["calls"]
    detector_calls = traced.calls.get(detector_name, 0)
    detector_components = {detector_name}
    metrics = {
        "video.render_ms": (ms_per_frame("video.frame", key="total_ns"), "ms/frame"),
        "video.renders": (renders / frames, "1/frame"),
        "video.cache_hit_ratio": (ratio(frame_calls - renders, frame_calls), "ratio"),
        "detection.backbone_ms": (ms_per_frame("detection.backbone"), "ms/frame"),
        "detection.backbone_frames_per_frame": (
            layer("detection.backbone")["count"] / frames, "1/frame",
        ),
        "filters.predict_ms": (ms_per_frame("filters.predict"), "ms/frame"),
        "filters.frames_per_call": (
            ratio(layer("filters.predict")["count"], layer("filters.predict")["calls"]),
            "frames/call",
        ),
        "query.planner.check_ms": (ms_per_frame("query.planner.check"), "ms/frame"),
        "query.planner.check_calls": (
            layer("query.planner.check")["calls"] / frames, "1/frame",
        ),
        "query.planner.pass_ratio": (traced.layer["pass_ratio"], "ratio"),
        "detection.detector_calls_per_frame": (detector_calls / frames, "1/frame"),
        "detection.detector_ms": (ms_per_frame("detection.detector"), "ms/frame"),
        "detection.match_yield": (
            ratio(traced.layer["matches"], detector_calls), "matches/call",
        ),
        "query.evaluation.ms": (ms_per_frame("query.evaluation"), "ms/frame"),
        "query.evaluation.calls": (layer("query.evaluation")["calls"] / frames, "1/frame"),
        "query.parser.ms": (ms_per_frame("query.parser"), "ms/frame"),
        "analysis.lint_ms": (ms_per_frame("analysis.lint"), "ms/frame"),
        "query.planner.plan_ms": (ms_per_frame("query.planner.plan"), "ms/frame"),
        "aggregates.estimate_ms": (ms_per_frame("aggregates.estimate"), "ms/frame"),
        "aggregates.samples": (layer("aggregates.estimate")["count"] / frames, "1/frame"),
        "query.temporal.signature_ms": (
            ms_per_frame("query.temporal.signature"), "ms/frame",
        ),
        "query.temporal.computed_ratio": (
            traced.layer.get("computed_ratio", 0.0), "ratio",
        ),
        "query.temporal.verified_frames": (
            traced.layer.get("verified_per_frame", 0.0), "1/frame",
        ),
        "service.queue_wait_ms": (
            # every frame of a chunk waits as long as its chunk
            tracer.frame_weighted_ns("service.queue_wait") / 1e6 / frames, "ms/frame",
        ),
        "service.feed_blocked_ms": (
            ms_per_frame("service.feed_blocked", key="total_ns"), "ms/frame",
        ),
        "service.queue_high_water": (
            float(traced.layer.get("queue_high_water", 0)), "chunks",
        ),
        "service.emit_ms": (ms_per_frame("service.emit"), "ms/frame"),
        "query.session.self_ms": (ms_per_frame("query.session"), "ms/frame"),
        "cost.sim_detector_ms_per_frame": (
            traced.sim_ms_per_frame(detector_components), "sim_ms/frame",
        ),
        "cost.sim_filter_ms_per_frame": (
            traced.sim_ms_per_frame(set(traced.calls) - detector_components),
            "sim_ms/frame",
        ),
        "trace.coverage": (tracer.busy_ns() / 1e9 / traced.wall_s, "ratio"),
        "trace.overhead": (
            (traced.wall_s / traced.frames) / (out.wall_s / out.frames), "ratio",
        ),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=SETUPS,
                        help="set-ups per untraced run; setup_s is their median")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.detection import ReferenceDetector
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    setups = []
    for _ in range(args.setups if args.trace == 0 else 1):
        workload = WORKLOADS[args.workload](args.seed)
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)

    if args.trace == 0:
        out = workload.measure(seconds=args.seconds)
        verdict = workload.check(out)
        attempted, failed = out.attempted, out.failed + verdict.failed
        metrics = end_to_end(args.workload, out, verdict, setups)
    else:
        from tracing import Tracer, install_layer_spans

        workload.measure(rounds=1)  # warm-up, so both stretches below run warm
        out = workload.measure(seconds=args.seconds / 2.0)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = workload.measure(rounds=out.rounds)
        finally:
            tracer.restore()
        verdict = workload.check(out)
        traced_verdict = workload.check(traced)
        verdict.problems.extend(traced_verdict.problems)
        verdict.failed += traced_verdict.failed
        attempted = out.attempted + traced.attempted
        failed = out.failed + traced.failed + verdict.failed
        metrics = per_layer(out, traced, tracer, ReferenceDetector.name)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        print(f"perfbench: spans written to {trace_path}", file=sys.stderr)

    for problem in verdict.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
