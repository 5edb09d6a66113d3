"""The three benchmark workloads: ``adhoc``, ``monitor`` and ``low_motion``.

Each workload is built in :meth:`setup` (dataset synthesis, filter
training, input streams, standing-query plans) and then measured in whole
*rounds*: a round is a fixed list of operations that depends on the seed
only, so every run attempts the same operations in the same proportions
however long it lasts, and the deterministic metrics (``sim_ms_per_frame``,
``recall``) read the same for any number of rounds.

Video content is fixed by ``CONTENT_SEED``; ``--seed`` sets the order of
the operations in a round (``adhoc`` clips and requests, ``low_motion``
queries) and the slice of the looped stream that ``monitor`` feeds.  A few
hundred frames hold only a handful of scenes, so letting the seed draw fresh
scenes moved the content-bound metrics by 10-30% from seed to seed, and even
a 0-3 frame shift of the ``low_motion`` scan moved its detector calls by up
to 12%;
with fixed content ``sim_ms_per_frame`` and ``recall`` repeat exactly on
``adhoc`` and ``low_motion`` and within 2% on ``monitor``, which keeps their
bounds tight enough to catch a change in the cascade's cost.
The workloads call only public entry points: ``parse_query``,
``QueryPlanner.plan``, ``StreamingQueryExecutor.execute`` / ``execute_many``
/ ``execute_aggregate`` and ``QueryService``.  Every output is checked
against :mod:`reference`, which evaluates the queries on the reference
detector's output without going through the engine.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import repro.query
from reference import ReferenceOracle
from repro.aggregates import AggregateQuerySpec, HoppingWindow
from repro.aggregates.controls import class_count_control
from repro.cost import SimulatedClock
from repro.detection import ReferenceDetector
from repro.filters import FilterTrainer
from repro.query import PlannerConfig, QueryPlanner, StreamingQueryExecutor, TemporalConfig
from repro.service import CallbackEmitter, QueryService, StreamConfig
from repro.spatial.geometry import Point
from repro.video import build_jackson
from repro.video.datasets import JACKSON_PROFILE
from repro.video.motion import ParkedMotion
from repro.video.objects import TrackedObject, default_class_registry
from repro.video.renderer import FrameRenderer, RendererConfig
from repro.video.scene import Scene, SceneConfig
from repro.video.stream import VideoStream, build_stream_from_profile

# -- shared set-up -----------------------------------------------------------
#: seed of the fixed camera (renderer background) and of filter training;
#: every stream below is rendered from this camera so the filters see the
#: background they were trained on
CAMERA_SEED = 7
DETECTOR_SEED = 11
CONTENT_SEED = 2020
TRAINING = dict(train_size=90, val_size=20, test_size=20)
MAX_TRAIN_FRAMES = 80
BACKGROUND_FRAMES = 20
#: count tolerance 0 lets count checks reject frames; at tolerance 1 a
#: ``COUNT >= 1`` check can never reject and the detector sees every frame
PLANNER = PlannerConfig(count_tolerance=0, location_dilation=1)

HEAD = (
    "SELECT cameraID, frameID FROM (PROCESS inputVideo "
    "PRODUCE cameraID, frameID, vehBox1 USING VehDetector) "
)


@dataclass(frozen=True)
class QuerySpec:
    """One query: its text for the engine, its conditions for the reference."""

    name: str
    clause: str
    reference: tuple
    aggregate: bool = False

    @property
    def text(self) -> str:
        return HEAD + self.clause


def train_filters():
    dataset = build_jackson(seed=CAMERA_SEED, **TRAINING)
    filters = FilterTrainer(
        dataset=dataset,
        max_train_frames=MAX_TRAIN_FRAMES,
        background_frames=BACKGROUND_FRAMES,
        seed=CAMERA_SEED,
    ).train_all()
    return dataset, filters


def parse(spec: QuerySpec, stream: VideoStream):
    # Looked up on the package at call time, so the traced run's wrapper applies.
    return repro.query.parse_query(
        spec.text,
        name=spec.name,
        frame_width=stream.frame_width,
        frame_height=stream.frame_height,
    )


def latency_map(filters, detector) -> dict[str, float]:
    latencies = {f.name: f.latency_ms for f in filters.values()}
    latencies[detector.name] = detector.latency_ms
    return latencies


@dataclass
class Measurement:
    """What one measured stretch of rounds produced."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    frames: int = 0
    wall_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    segment_fps: list[float] = field(default_factory=list)
    #: component -> charged calls, and component -> simulated ms per call
    calls: dict[str, int] = field(default_factory=dict)
    latency_ms: dict[str, float] = field(default_factory=dict)
    #: per-layer inputs that come from results rather than spans
    layer: dict[str, float] = field(default_factory=dict)
    #: workload-specific outputs kept for the checks
    outputs: dict = field(default_factory=dict)

    def sim_ms_per_frame(self, components=None) -> float:
        # calls / frames is the same rational number for any whole number of
        # identical rounds, so the quotient repeats to the last digit.
        return sum(
            (calls / self.frames) * self.latency_ms[name]
            for name, calls in sorted(self.calls.items())
            if components is None or name in components
        )


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    #: operations that completed with a wrong answer
    failed: int = 0
    true_positives: int = 0
    reference_positives: int = 0

    @property
    def recall(self) -> float:
        if self.reference_positives == 0:
            return 0.0
        return self.true_positives / self.reference_positives

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def pool(self, returned, reference, label: str) -> None:
        """Check ``returned`` against the reference and pool it into recall."""
        returned, reference = set(returned), set(reference)
        extra = sorted(returned - reference)
        self.expect(not extra, f"{label}: frames {extra[:5]} do not satisfy the query")
        self.true_positives += len(returned & reference)
        self.reference_positives += len(reference)


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)


# -- adhoc -------------------------------------------------------------------
CLIP_FRAMES = 48  # longer than the 32-frame frame cache
CLIP_POOL = 9
BATCH_SIZE = 16
AGGREGATE_SAMPLES = 32
#: sampling seed of every aggregate request.  On one clip of the pool it
#: draws a sample whose control-corrected values are all equal, so the
#: reported control-variate standard error is 0 while the estimate misses the
#: true mean: that request fails the estimate check in every round (a fault
#: of ``control_variate_estimate``, see CHANGES.md); the other eight pass.
AGGREGATE_SEED = 34
ADHOC_MIN_ROUNDS = 2

ADHOC_QUERIES = (
    QuerySpec("count", "WHERE COUNT(car) >= 2", (("count", "car", ">=", 2),)),
    QuerySpec(
        "count_eq",
        "WHERE COUNT(car) = 1 AND COUNT(person) = 1",
        (("count", "car", "=", 1), ("count", "person", "=", 1)),
    ),
    QuerySpec("left_of", "WHERE ORDER(car, person) = RIGHT", (("left_of", "car", "person"),)),
    QuerySpec("right_of", "WHERE ORDER(car, person) = LEFT", (("right_of", "car", "person"),)),
    QuerySpec(
        "inside",
        "WHERE INSIDE(car, LOWER_LEFT) >= 1",
        (("inside", "car", "lower_left", ">=", 1),),
    ),
    QuerySpec(
        "window",
        "WINDOW HOPPING (SIZE 24, ADVANCE BY 12) WHERE COUNT(person) >= 1",
        (("count", "person", ">=", 1),),
    ),
    QuerySpec(
        "aggregate",
        f"WINDOW HOPPING (SIZE {CLIP_FRAMES}, ADVANCE BY {CLIP_FRAMES}) WHERE COUNT(*) >= 1",
        (),
        aggregate=True,
    ),
)


def _object_count(detections) -> float:
    return float(detections.count)


class Adhoc:
    """Closed loop, one client: one query at a time, text to result."""

    name = "adhoc"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.dataset, self.filters = train_filters()
        self.planner = QueryPlanner(self.filters, PLANNER)
        rng = np.random.default_rng([self.seed, 1])
        self.clips = [
            build_stream_from_profile(
                JACKSON_PROFILE,
                num_frames=CLIP_FRAMES,
                seed=CONTENT_SEED + int(position),
                name=f"clip{position}",
                renderer_seed=CAMERA_SEED,
            )
            for position in rng.permutation(CLIP_POOL)
        ]
        self.orders = [
            [int(q) for q in rng.permutation(len(ADHOC_QUERIES))] for _ in self.clips
        ]

    def measure(self, seconds: float | None = None, rounds: int | None = None) -> Measurement:
        detector = ReferenceDetector(class_names=self.dataset.class_names, seed=DETECTOR_SEED)
        clock = SimulatedClock()
        executor = StreamingQueryExecutor(detector, clock=clock)
        out = Measurement(latency_ms=latency_map(self.filters, detector))
        out.outputs = {"results": {}}
        scanned = passed = matches = 0
        started = time.perf_counter()
        while True:
            for clip_no, clip in enumerate(self.clips):
                block_start = time.perf_counter()
                for query_no in self.orders[clip_no]:
                    spec = ADHOC_QUERIES[query_no]
                    out.attempted += 1
                    request_start = time.perf_counter()
                    try:
                        query = parse(spec, clip)
                        cascade = self.planner.plan(query, strict=True)
                        if spec.aggregate:
                            result = executor.execute_aggregate(
                                AggregateQuerySpec(
                                    name=spec.name,
                                    exact_value=_object_count,
                                    control_values=[class_count_control()],
                                    window=query.window,
                                ),
                                clip,
                                cascade,
                                sample_size=AGGREGATE_SAMPLES,
                                seed=AGGREGATE_SEED,
                            )
                        else:
                            result = executor.execute(
                                query, clip, cascade, batch_size=BATCH_SIZE
                            )
                    except Exception:
                        out.failed += 1
                        _report_failure(f"adhoc request {spec.name} on {clip.name}")
                        continue
                    out.latencies_ms.append((time.perf_counter() - request_start) * 1000.0)
                    out.frames += len(clip)
                    if not spec.aggregate:
                        scanned += result.stats.frames_scanned
                        passed += result.stats.frames_passed_filters
                        matches += result.num_matches
                    out.outputs["results"].setdefault((clip_no, query_no), []).append(result)
                out.segment_fps.append(
                    len(clip) * len(ADHOC_QUERIES) / (time.perf_counter() - block_start)
                )
            out.rounds += 1
            if rounds is not None:
                if out.rounds >= rounds:
                    break
            elif out.rounds >= ADHOC_MIN_ROUNDS and time.perf_counter() - started >= seconds:
                break
        out.wall_s = time.perf_counter() - started
        out.calls = dict(clock.breakdown.per_component_calls)
        out.layer = {
            "pass_ratio": passed / scanned if scanned else 0.0,
            "matches": matches,
        }
        return out

    def check(self, out: Measurement) -> Verdict:
        verdict = Verdict()
        oracles = [
            ReferenceOracle(
                DETECTOR_SEED, self.dataset.class_names, clip.ground_truth,
                clip.frame_width, clip.frame_height,
            )
            for clip in self.clips
        ]
        for (clip_no, query_no), results in sorted(out.outputs["results"].items()):
            spec = ADHOC_QUERIES[query_no]
            oracle = oracles[clip_no]
            label = f"adhoc {spec.name} on {self.clips[clip_no].name}"
            first = results[0]
            if spec.aggregate:
                # An estimate outside four of its own standard errors of the
                # true window mean is a wrong answer: the request failed.
                misses = []
                for window in first.windows:
                    values = [
                        oracle.total_count(index)
                        for index in range(window.bounds.start, window.bounds.stop)
                    ]
                    truth = float(np.mean(values))
                    for report in window.reports:
                        estimate = report.control_variate
                        if abs(estimate.mean - truth) > 4.0 * estimate.std_error:
                            misses.append(
                                f"estimate {estimate.mean:.4f} +- {estimate.std_error:.4f} "
                                f"misses the true mean {truth:.4f}"
                            )
                if misses:
                    verdict.failed += len(results)
                    print(f"perfbench: {label} failed in every round: {misses[0]}",
                          file=sys.stderr)
                same = all(
                    [(r.control_variate.mean, r.control_variate.std_error)
                     for r in res.all_reports]
                    == [(r.control_variate.mean, r.control_variate.std_error)
                        for r in first.all_reports]
                    for res in results
                )
            else:
                reference = oracle.matches(spec.reference, range(len(self.clips[clip_no])))
                verdict.pool(first.matched_frames, reference, label)
                if first.windows is not None:
                    for window in first.windows:
                        expected = tuple(
                            f for f in first.matched_frames
                            if window.bounds.start <= f < window.bounds.stop
                        )
                        verdict.expect(
                            window.matched_frames == expected,
                            f"{label}: window {window.bounds} disagrees with the matches",
                        )
                same = all(res.matched_frames == first.matched_frames for res in results)
            verdict.expect(same, f"{label}: repeated requests gave different answers")
        return verdict


# -- monitor -----------------------------------------------------------------
LOOP_FRAMES = 768
#: the loop is a seeded LOOP_FRAMES slice of a LOOP_FRAMES + LOOP_SLACK pool
LOOP_SLACK = 8
CHUNK_SIZE = 16
QUEUE_CHUNKS = 4
FEED_BATCH = 16
MONITOR_SEGMENT = 128
MONITOR_MIN_PASSES = 3

MONITOR_QUERIES = (
    QuerySpec(
        "cars2",
        "WINDOW HOPPING (SIZE 64, ADVANCE BY 32) WHERE COUNT(car) >= 2",
        (("count", "car", ">=", 2),),
    ),
    QuerySpec(
        "car_and_person",
        "WINDOW HOPPING (SIZE 48, ADVANCE BY 48) WHERE COUNT(car) = 1 AND COUNT(person) = 1",
        (("count", "car", "=", 1), ("count", "person", "=", 1)),
    ),
    QuerySpec(
        "car_left_of_person",
        "WINDOW HOPPING (SIZE 64, ADVANCE BY 64) WHERE ORDER(car, person) = RIGHT",
        (("left_of", "car", "person"),),
    ),
    QuerySpec(
        "car_right_of_person",
        "WINDOW HOPPING (SIZE 96, ADVANCE BY 48) WHERE ORDER(car, person) = LEFT",
        (("right_of", "car", "person"),),
    ),
    QuerySpec(
        "person",
        "WINDOW HOPPING (SIZE 32, ADVANCE BY 32) WHERE COUNT(person) >= 1",
        (("count", "person", ">=", 1),),
    ),
    QuerySpec(
        "persons2",
        "WINDOW HOPPING (SIZE 64, ADVANCE BY 32) WHERE COUNT(person) >= 2",
        (("count", "person", ">=", 2),),
    ),
    QuerySpec(
        "cars2_person",
        "WINDOW HOPPING (SIZE 48, ADVANCE BY 24) WHERE COUNT(car) >= 2 AND COUNT(person) >= 1",
        (("count", "car", ">=", 2), ("count", "person", ">=", 1)),
    ),
    QuerySpec(
        "cars2_lower_left",
        "WINDOW HOPPING (SIZE 96, ADVANCE BY 96) "
        "WHERE COUNT(car) >= 2 AND INSIDE(car, LOWER_LEFT) >= 1",
        (("count", "car", ">=", 2), ("inside", "car", "lower_left", ">=", 1)),
    ),
)


class Monitor:
    """Eight windowed standing queries on one live stream in ``QueryService``."""

    name = "monitor"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.dataset, self.filters = train_filters()
        planner = QueryPlanner(self.filters, PLANNER)
        pool = build_stream_from_profile(
            JACKSON_PROFILE,
            num_frames=LOOP_FRAMES + LOOP_SLACK,
            seed=CONTENT_SEED,
            name="live",
            renderer_seed=CAMERA_SEED,
        )
        self.first = int(np.random.default_rng([self.seed, 2]).integers(LOOP_SLACK + 1))
        self.base = pool
        # Frames arrive decoded: the service never renders.
        self.frames = [pool.frame(self.first + k) for k in range(LOOP_FRAMES)]
        self.queries = [parse(spec, self.base) for spec in MONITOR_QUERIES]
        self.cascades = [planner.plan(query, strict=True) for query in self.queries]

    def measure(self, seconds: float | None = None, rounds: int | None = None) -> Measurement:
        detector = ReferenceDetector(class_names=self.dataset.class_names, seed=DETECTOR_SEED)
        out = Measurement(latency_ms=latency_map(self.filters, detector))
        windows: list[list[tuple]] = [[] for _ in self.queries]
        emitted: list[list[int]] = [[] for _ in self.queries]

        def recorder(position: int):
            def record(emission) -> None:
                if emission.kind == "window":
                    windows[position].append((emission.window, time.perf_counter()))
                elif emission.kind == "matches":
                    emitted[position].extend(emission.matched_frames)

            return record

        service = QueryService()
        service.attach_stream(
            "live",
            detector,
            StreamConfig(chunk_size=CHUNK_SIZE, queue_chunks=QUEUE_CHUNKS, policy="block"),
        )
        handles = [
            service.register(
                "live", query, cascade, emitter=CallbackEmitter(recorder(position))
            )
            for position, (query, cascade) in enumerate(zip(self.queries, self.cascades))
        ]
        fed_at: list[float] = []
        service.start()
        try:
            started = segment_start = time.perf_counter()
            offset = 0
            while True:
                for start in range(0, LOOP_FRAMES, FEED_BATCH):
                    batch = [
                        dataclasses.replace(self.frames[k], index=offset + k)
                        for k in range(start, start + FEED_BATCH)
                    ]
                    fed_at.append(time.perf_counter())
                    service.feed("live", batch)
                    fed = offset + start + FEED_BATCH
                    if fed % MONITOR_SEGMENT == 0:
                        now = time.perf_counter()
                        out.segment_fps.append(MONITOR_SEGMENT / (now - segment_start))
                        segment_start = now
                offset += LOOP_FRAMES
                out.rounds += 1
                if rounds is not None:
                    if out.rounds >= rounds:
                        break
                elif (
                    out.rounds >= MONITOR_MIN_PASSES
                    and time.perf_counter() - started >= seconds
                ):
                    break
            feeding_done = time.perf_counter()
            service.stop(drain=True)
            out.wall_s = time.perf_counter() - started
            stats = service.stats().streams["live"]
            shared = service.shared_cost_report("live").shared
        finally:
            results = service.close()
        out.frames = offset
        out.calls = dict(shared.per_component_calls)
        for position, entries in enumerate(windows):
            for window, emitted_at in entries:
                last = window.bounds.stop - 1
                if emitted_at <= feeding_done and last < offset:
                    out.latencies_ms.append(
                        (emitted_at - fed_at[last // FEED_BATCH]) * 1000.0
                    )
        detector_calls = out.calls.get(detector.name, 0)
        out.layer = {
            "pass_ratio": detector_calls / out.frames,
            "matches": sum(len(results[h].matched_frames) for h in handles),
            "queue_high_water": stats.queue_high_water,
        }
        out.outputs = {
            "windows": [[w for w, _ in entries] for entries in windows],
            "emitted": emitted,
            "results": [results[h] for h in handles],
            "stats": stats,
        }
        expected = self._expected_windows(out.frames)
        out.attempted = sum(len(bounds) for bounds in expected)
        out.failed = sum(
            len(set(bounds) - {w.bounds for w in got})
            for bounds, got in zip(expected, out.outputs["windows"])
        )
        return out

    def _expected_windows(self, frames: int):
        return [
            list(
                HoppingWindow(size=q.window.size, advance=q.window.advance).windows_over(
                    frames, include_partial=True
                )
            )
            for q in self.queries
        ]

    def check(self, out: Measurement) -> Verdict:
        verdict = Verdict()
        stats = out.outputs["stats"]
        verdict.expect(stats.dropped_chunks == 0, f"monitor: {stats.dropped_chunks} chunks dropped")
        verdict.expect(
            stats.chunks_processed == stats.chunks_ingested,
            f"monitor: {stats.chunks_ingested} chunks ingested, {stats.chunks_processed} processed",
        )
        verdict.expect(
            stats.queue_high_water <= QUEUE_CHUNKS,
            f"monitor: queue reached {stats.queue_high_water} > {QUEUE_CHUNKS} chunks",
        )
        oracle = ReferenceOracle(
            DETECTOR_SEED,
            self.dataset.class_names,
            lambda index: self.base.ground_truth(self.first + index % LOOP_FRAMES),
            self.base.frame_width,
            self.base.frame_height,
        )
        expected = self._expected_windows(out.frames)
        for spec, bounds, got, emitted, result in zip(
            MONITOR_QUERIES, expected, out.outputs["windows"],
            out.outputs["emitted"], out.outputs["results"],
        ):
            label = f"monitor {spec.name}"
            verdict.expect(
                [w.bounds for w in got] == bounds,
                f"{label}: {len(got)} windows emitted, {len(bounds)} expected once each",
            )
            matched = result.matched_frames
            verdict.expect(
                tuple(emitted) == matched,
                f"{label}: emitted matches differ from the final result",
            )
            for window in got:
                inside = tuple(
                    f for f in matched if window.bounds.start <= f < window.bounds.stop
                )
                verdict.expect(
                    window.matched_frames == inside,
                    f"{label}: window {window.bounds} disagrees with the final result",
                )
            beyond_first_pass = [f for f in matched if f >= LOOP_FRAMES]
            wrong = [f for f in beyond_first_pass if not oracle.holds(spec.reference, f)]
            verdict.expect(not wrong, f"{label}: frames {wrong[:5]} do not satisfy the query")
            # Recall over the first pass only: the detector's per-index noise
            # differs on later passes, the first pass is the same in every run.
            verdict.pool(
                [f for f in matched if f < LOOP_FRAMES],
                oracle.matches(spec.reference, range(LOOP_FRAMES)),
                label,
            )
        return verdict


# -- low_motion --------------------------------------------------------------
LOW_MOTION_FRAMES = 768
LOW_MOTION_EVENTS = 4
SEGMENT_FRAMES = 32
LOW_MOTION_MIN_ROUNDS = 3
#: the exact-mode configuration of bench_temporal_delta.py: shading flicker
#: moves block means by up to ~20 levels, event boundaries by ~50
TEMPORAL = TemporalConfig(delta_threshold=30.0, max_stride=16, keyframe_interval=24)

#: parked objects present for the whole stream: (class, w, h, colour, x, y)
PARKED = (
    ("car", 46.0, 24.0, "blue", 120, 200),
    ("car", 42.0, 22.0, "white", 310, 260),
    ("person", 14.0, 38.0, "red", 220, 390),
)

LOW_MOTION_QUERIES = (
    QuerySpec("event", "WHERE COUNT(car) >= 3", (("count", "car", ">=", 3),)),
    QuerySpec("visitor", "WHERE COUNT(person) >= 2", (("count", "person", ">=", 2),)),
    QuerySpec("person", "WHERE COUNT(person) >= 1", (("count", "person", ">=", 1),)),
)


def low_motion_stream(
    num_frames: int, events, seed: int, renderer_seed: int
) -> VideoStream:
    """A still camera: the parked objects plus ``events``.

    Each event is ``(class, w, h, colour, start, stop, x, y)``: an object that
    appears at ``start``, stays parked at ``(x, y)`` and leaves at ``stop``.
    Pixels change only at event boundaries (plus sensor noise and shading
    flicker), the regime the temporal layer is built for.
    """
    registry = default_class_registry()
    config = SceneConfig(
        frame_width=448,
        frame_height=448,
        num_frames=num_frames,
        mean_count=3.0,
        std_count=0.0,
        count_autocorrelation=0.9,
        class_mix=JACKSON_PROFILE.classes,
        max_count=4 + len(events),
        seed=seed,
    )
    tracks = [
        TrackedObject(
            track_id, registry[cls], w, h, colour, 0, num_frames, ParkedMotion(Point(x, y))
        )
        for track_id, (cls, w, h, colour, x, y) in enumerate(PARKED)
    ]
    for cls, w, h, colour, start, stop, x, y in events:
        tracks.append(
            TrackedObject(
                len(tracks), registry[cls], w, h, colour, start, stop,
                ParkedMotion(Point(x, y)),
            )
        )
    active = [
        [track.track_id for track in tracks if track.alive_at(index)]
        for index in range(num_frames)
    ]
    scene = Scene(config=config, tracks=tracks, active_tracks_per_frame=active)
    renderer = FrameRenderer(RendererConfig(output_size=112, seed=renderer_seed))
    return VideoStream(scene=scene, renderer=renderer, name="low-motion")


def seeded_events(seed: int, num_frames: int, count: int):
    """One event per equal slot of the stream, at a seeded time and place."""
    rng = np.random.default_rng([seed, 3])
    slot = num_frames // count
    events = []
    for position in range(count):
        length = int(rng.integers(slot // 4, slot // 2))
        start = position * slot + int(rng.integers(8, slot - length - 8))
        if position % 2 == 0:
            shape = ("car", 44.0, 23.0, "black")
        else:
            shape = ("person", 14.0, 38.0, "green")
        x, y = (int(v) for v in rng.integers(60, 388, 2))
        events.append((*shape, start, start + length, x, y))
    return events


class LowMotion:
    """Temporal exact-mode scans of a still camera, one segment per request."""

    name = "low_motion"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.dataset, self.filters = train_filters()
        planner = QueryPlanner(self.filters, PLANNER)
        self.stream = low_motion_stream(
            LOW_MOTION_FRAMES,
            seeded_events(CONTENT_SEED, LOW_MOTION_FRAMES, LOW_MOTION_EVENTS),
            seed=CONTENT_SEED,
            renderer_seed=CAMERA_SEED,
        )
        self.scanned = range(LOW_MOTION_FRAMES)
        order = np.random.default_rng([self.seed, 3]).permutation(len(LOW_MOTION_QUERIES))
        self.specs = [LOW_MOTION_QUERIES[position] for position in order]
        self.queries = [parse(spec, self.stream) for spec in self.specs]
        self.cascades = [planner.plan(query, strict=True) for query in self.queries]
        self.segments = [
            range(start, start + SEGMENT_FRAMES)
            for start in range(0, LOW_MOTION_FRAMES, SEGMENT_FRAMES)
        ]

    def measure(self, seconds: float | None = None, rounds: int | None = None) -> Measurement:
        detector = ReferenceDetector(class_names=self.dataset.class_names, seed=DETECTOR_SEED)
        clock = SimulatedClock()
        executor = StreamingQueryExecutor(detector, clock=clock)
        out = Measurement(latency_ms=latency_map(self.filters, detector))
        computed = verified = matches = 0
        per_round: list[list[list[int]]] = []
        started = time.perf_counter()
        while True:
            found: list[list[int]] = [[] for _ in self.queries]
            for segment in self.segments:
                out.attempted += 1
                request_start = time.perf_counter()
                try:
                    result = executor.execute_many(
                        self.queries, self.stream, self.cascades,
                        frame_indices=segment, temporal=TEMPORAL,
                    )
                except Exception:
                    out.failed += 1
                    _report_failure(f"low_motion segment {segment.start}")
                    continue
                elapsed = time.perf_counter() - request_start
                out.latencies_ms.append(elapsed * 1000.0)
                out.segment_fps.append(len(segment) / elapsed)
                out.frames += len(segment)
                computed += result.shared.temporal.frames_computed
                verified += result.shared.temporal.verified_frames
                for position, query_result in enumerate(result):
                    found[position].extend(query_result.matched_frames)
                    matches += query_result.num_matches
            per_round.append(found)
            out.rounds += 1
            if rounds is not None:
                if out.rounds >= rounds:
                    break
            elif out.rounds >= LOW_MOTION_MIN_ROUNDS and time.perf_counter() - started >= seconds:
                break
        out.wall_s = time.perf_counter() - started
        out.calls = dict(clock.breakdown.per_component_calls)
        out.layer = {
            "matches": matches,
            "computed_ratio": computed / out.frames,
            "verified_per_frame": verified / out.frames,
        }
        out.outputs = {"rounds": per_round}
        return out

    def baseline(self):
        """The same queries without the temporal layer, for the parity check."""
        detector = ReferenceDetector(class_names=self.dataset.class_names, seed=DETECTOR_SEED)
        return StreamingQueryExecutor(detector).execute_many(
            self.queries, self.stream, self.cascades,
            frame_indices=self.scanned, batch_size=BATCH_SIZE,
        )

    def check(self, out: Measurement) -> Verdict:
        verdict = Verdict()
        baseline = self.baseline()
        out.layer["pass_ratio"] = baseline.shared.detector_invocations / len(self.scanned)
        oracle = ReferenceOracle(
            DETECTOR_SEED, self.dataset.class_names, self.stream.ground_truth,
            self.stream.frame_width, self.stream.frame_height,
        )
        first = out.outputs["rounds"][0]
        for position, spec in enumerate(self.specs):
            label = f"low_motion {spec.name}"
            for found in out.outputs["rounds"]:
                verdict.expect(
                    tuple(found[position]) == baseline[position].matched_frames,
                    f"{label}: exact temporal matches differ from the non-temporal scan",
                )
            verdict.pool(
                first[position],
                oracle.matches(spec.reference, self.scanned),
                label,
            )
        return verdict


WORKLOADS = {cls.name: cls for cls in (Adhoc, Monitor, LowMotion)}
