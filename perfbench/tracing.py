"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the package from the outside — class
methods and module attributes are swapped for timing wrappers while the
traced run lasts and restored afterwards — so the code under ``src/`` is
measured unchanged.  Each call records one span: name, start, end, parent
(the innermost traced call on the same thread) and a small count the call
reports (frames in a batch, whether a check passed, ...).  Spans stay in
per-thread lists until the run ends; :meth:`Tracer.layers` derives each
layer's self time (its duration minus that of its direct children) and
:meth:`Tracer.chrome_trace` exports the spans as Chrome trace-event JSON,
which opens in Perfetto or ``chrome://tracing``.

Two span names are waits rather than work and are kept out of
``trace.coverage``: ``service.feed_blocked`` (a producer blocked in
``IngestionQueue.put``) and ``service.queue_wait`` (a chunk sitting in the
queue between ``put`` and ``get``).
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable

WAIT_SPANS = ("service.feed_blocked", "service.queue_wait")

#: pseudo thread on which queue residency spans are drawn
QUEUE_TRACK = "ingestion-queue"


def _one(*_args) -> int:
    return 1


class Tracer:
    """Records spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[tuple[object, list]] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._enqueued: dict[int, int] = {}

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            with self._lock:
                self._threads.append((threading.current_thread().name, local.spans))
        return local

    def _record_external(self, track: object, name: str, start: int, end: int, count: int) -> None:
        with self._lock:
            for key, spans in self._threads:
                if key == track:
                    break
            else:
                spans = []
                self._threads.append((track, spans))
            spans.append([name, start, end, -1, count])

    def wrap(self, fn: Callable, name: str, count: Callable = _one) -> Callable:
        """``fn`` timed as span ``name``; ``count(args, result)`` sizes the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            spans, stack = state.spans, state.stack
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            record[4] = count(args, result)
            return result

        return traced

    def patch(self, owner: object, attribute: str, name: str, count: Callable = _one) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, count))

    def patch_queue(self, queue_class: type) -> None:
        """Time ``put`` as producer blocking and put→get as queue residency."""
        tracer = self
        original_put = queue_class.__dict__["put"]
        original_get = queue_class.__dict__["get"]

        def put(queue, chunk, timeout=None):
            accepted = original_put(queue, chunk, timeout)
            if accepted:
                tracer._enqueued[id(chunk)] = time.perf_counter_ns()
            return accepted

        def get(queue, timeout=None):
            chunk = original_get(queue, timeout)
            if chunk is not None:
                started = tracer._enqueued.pop(id(chunk), None)
                if started is not None:
                    tracer._record_external(
                        QUEUE_TRACK, "service.queue_wait", started,
                        time.perf_counter_ns(), len(chunk),
                    )
            return chunk

        self._restore.append((queue_class, "put", original_put))
        self._restore.append((queue_class, "get", original_get))
        queue_class.put = self.wrap(put, "service.feed_blocked", lambda args, _r: len(args[1]))
        queue_class.get = get

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- views -----------------------------------------------------------
    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, summed ``count``, ``total_ns`` and ``self_ns``."""
        out: dict[str, dict[str, float]] = {}
        for _track, spans in self._threads:
            child_ns = [0] * len(spans)
            for name, start, end, parent, _count in spans:
                if parent >= 0:
                    child_ns[parent] += end - start
            for position, (name, start, end, _parent, count) in enumerate(spans):
                entry = out.setdefault(
                    name, {"calls": 0, "count": 0, "total_ns": 0, "self_ns": 0}
                )
                entry["calls"] += 1
                entry["count"] += count
                entry["total_ns"] += end - start
                entry["self_ns"] += end - start - child_ns[position]
        return out

    def frame_weighted_ns(self, name: str) -> int:
        """Sum over spans ``name`` of duration times count."""
        return sum(
            (end - start) * count
            for _track, spans in self._threads
            for span_name, start, end, _parent, count in spans
            if span_name == name
        )

    def busy_ns(self) -> int:
        """Summed length of top-level work spans (waits excluded), over threads."""
        busy = 0
        for _track, spans in self._threads:
            for name, start, end, parent, _count in spans:
                if parent < 0 and name not in WAIT_SPANS:
                    busy += end - start
        return busy

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (complete ``X`` events)."""
        origin = min(
            (spans[0][1] for _track, spans in self._threads if spans), default=0
        )
        events = []
        for tid, (track, spans) in enumerate(self._threads, start=1):
            events.append(
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                 "args": {"name": str(track)}}
            )
            for name, start, end, _parent, count in spans:
                events.append(
                    {
                        "name": name,
                        "cat": name.split(".")[0],
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": (start - origin) / 1000.0,
                        "dur": (end - start) / 1000.0,
                        "args": {"count": count},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every public entry point the per-layer metrics are read from."""
    import repro.analysis
    import repro.query
    import repro.query.executor
    import repro.query.session
    import repro.query.temporal
    import repro.service.service
    from repro.aggregates.monitor import AggregateMonitor
    from repro.detection import ReferenceDetector
    from repro.detection.backbone import FeatureBackbone
    from repro.filters.branch import LinearBranchFilter, PooledCountFilter
    from repro.query.executor import StreamingQueryExecutor
    from repro.query.planner import CascadeStep, QueryPlanner
    from repro.query.session import ScanSession
    from repro.service.ingest import IngestionQueue
    from repro.video.renderer import FrameRenderer
    from repro.video.stream import VideoStream

    def frames_in(args, _result) -> int:
        return len(args[1])

    def true_result(_args, result) -> int:
        return 1 if result else 0

    tracer.patch(VideoStream, "frame", "video.frame")
    tracer.patch(FrameRenderer, "render", "video.render")
    tracer.patch(FeatureBackbone, "extract", "detection.backbone")
    tracer.patch(FeatureBackbone, "extract_batch", "detection.backbone", frames_in)
    for filter_class in (LinearBranchFilter, PooledCountFilter):
        tracer.patch(filter_class, "predict", "filters.predict")
        tracer.patch(filter_class, "predict_batch", "filters.predict", frames_in)
    tracer.patch(CascadeStep, "passes", "query.planner.check", true_result)
    tracer.patch(ReferenceDetector, "detect", "detection.detector")
    for module in (repro.query.executor, repro.query.session):
        tracer.patch(
            module, "evaluate_predicates_on_detections", "query.evaluation", true_result
        )
    tracer.patch(repro.query, "parse_query", "query.parser")
    tracer.patch(QueryPlanner, "plan", "query.planner.plan")
    # The planner imports the linters from the package at call time.
    tracer.patch(repro.analysis, "lint_query", "analysis.lint")
    tracer.patch(repro.analysis, "lint_plan", "analysis.lint")
    tracer.patch(repro.query.temporal, "frame_signature", "query.temporal.signature")
    tracer.patch(
        AggregateMonitor, "estimate", "aggregates.estimate",
        lambda _args, report: report.num_samples,
    )
    tracer.patch(repro.service.service, "deliver", "service.emit")
    tracer.patch(ScanSession, "push_chunk", "query.session", frames_in)
    for method in ("execute", "execute_many", "execute_aggregate"):
        tracer.patch(StreamingQueryExecutor, method, "query.session")
    tracer.patch_queue(IngestionQueue)
