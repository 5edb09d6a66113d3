"""Reference figure for a known accuracy fault of approximate temporal mode.

Usage, from the repository root::

    python3 perfbench/approx_recall.py

Prints the recall of ``TemporalConfig(exact=False)`` against the reference
evaluator, next to exact mode, on two still-camera streams:

* the 240-frame stream of ``benchmarks/bench_temporal_delta.py`` (parked
  objects plus one car event over frames 80-160, camera seed 23) with that
  benchmark's filters, planner settings and ``TEMPORAL`` settings, for the
  query ``COUNT(person) >= 1``, under that benchmark's detector seed (900)
  and under seed 1245, the first seed from 900 on whose detector misses the
  parked person in frame 0;
* the ``low_motion`` workload's stream, with its filters and queries.

It is not an end-to-end metric: the ``low_motion`` workload measures exact
mode, whose answers are verified frame by frame.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def recall_line(label, executor, queries, cascades, stream, indices, specs, temporal, oracle):
    result = executor.execute_many(
        queries, stream, cascades, frame_indices=indices, temporal=temporal
    )
    found = reference = 0
    for spec, query_result in zip(specs, result):
        truth = set(oracle.matches(spec.reference, indices))
        found += len(truth & set(query_result.matched_frames))
        reference += len(truth)
    stats = result.shared.temporal
    print(
        f"{label}: {found} of {reference} reference frames returned, recall "
        f"{found / reference:.3f}; {stats.frames_computed} of {stats.frames_total} "
        f"frames computed, {stats.frames_skipped} never rendered"
    )


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from reference import ReferenceOracle
    from repro.detection import ReferenceDetector
    from repro.experiments.context import ExperimentConfig, get_context
    from repro.query import PlannerConfig, QueryPlanner, StreamingQueryExecutor, TemporalConfig
    import workloads

    # bench_temporal_delta.py: BENCH_CONFIG filters, its stream and settings.
    context = get_context(
        "jackson",
        ExperimentConfig(
            train_size=300, val_size=60, test_size=160, max_train_frames=250, test_stride=2
        ),
    )
    stream = workloads.low_motion_stream(
        240, [("car", 44.0, 23.0, "black", 80, 160, 210, 140)], seed=23, renderer_seed=23
    )
    spec = workloads.QuerySpec(
        "person", "WHERE COUNT(person) >= 1", (("count", "person", ">=", 1),)
    )
    query = workloads.parse(spec, stream)
    cascade = QueryPlanner(
        context.filters, PlannerConfig(count_tolerance=1, location_dilation=1)
    ).plan(query)
    settings = dict(delta_threshold=30.0, max_stride=16, keyframe_interval=24)
    for detector_seed in (900, 1245):
        oracle = ReferenceOracle(
            detector_seed, ("car", "person"), stream.ground_truth,
            stream.frame_width, stream.frame_height,
        )
        for exact in (True, False):
            recall_line(
                f"bench_temporal_delta stream, detector seed {detector_seed}, exact={exact}",
                StreamingQueryExecutor(
                    ReferenceDetector(class_names=("car", "person"), seed=detector_seed)
                ),
                [query], [cascade], stream, range(len(stream)), [spec],
                TemporalConfig(exact=exact, **settings), oracle,
            )

    low_motion = workloads.LowMotion(seed=1)
    low_motion.setup()
    oracle = ReferenceOracle(
        workloads.DETECTOR_SEED, low_motion.dataset.class_names,
        low_motion.stream.ground_truth,
        low_motion.stream.frame_width, low_motion.stream.frame_height,
    )
    for exact in (True, False):
        recall_line(
            f"low_motion stream, exact={exact}",
            StreamingQueryExecutor(
                ReferenceDetector(
                    class_names=low_motion.dataset.class_names, seed=workloads.DETECTOR_SEED
                )
            ),
            low_motion.queries, low_motion.cascades, low_motion.stream,
            low_motion.scanned, low_motion.specs,
            dataclasses.replace(workloads.TEMPORAL, exact=exact), oracle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
