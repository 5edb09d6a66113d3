"""Reference answers computed apart from the query engine.

The benchmark never trusts the engine to grade itself.  Each query the
workloads issue is written twice: once as query text for ``parse_query`` and
once as a list of plain condition tuples that this module evaluates directly
on the reference detector's output for every frame.  Nothing here goes
through the parser, the planner, the AST or ``repro.query.evaluation``:

* ``("count", cls, op, n)`` — the number of detections of ``cls`` (``None``
  for every class) compared with ``n``;
* ``("left_of", a, b)`` / ``("right_of", a, b)`` — some detection of class
  ``a`` has its box centre strictly left (right) of the centre of some other
  detection of class ``b``, the definition of
  ``repro.spatial.relations.evaluate_direction``;
* ``("inside", cls, quadrant, op, n)`` — the number of detections of ``cls``
  whose box centre lies in the screen quadrant, compared with ``n``.

``ReferenceDetector.detect`` is deterministic per frame index and reads only
the frame's ground truth, so a reference pass needs no rendered pixels.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from repro.detection import ReferenceDetector
from repro.video.stream import Frame

_OPS: dict[str, Callable[[int, int], bool]] = {
    "=": operator.eq,
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
}


def _centre(box) -> tuple[float, float]:
    return (box.x_min + box.x_max) / 2.0, (box.y_min + box.y_max) / 2.0


def _in_quadrant(x: float, y: float, quadrant: str, width: float, height: float) -> bool:
    # Interior midlines belong to the right/lower quadrants; the frame's own
    # right and bottom edges belong to the quadrants that touch them.
    left = 0.0 <= x < width / 2.0
    right = width / 2.0 <= x <= width
    upper = 0.0 <= y < height / 2.0
    lower = height / 2.0 <= y <= height
    return {
        "upper_left": left and upper,
        "upper_right": right and upper,
        "lower_left": left and lower,
        "lower_right": right and lower,
    }[quadrant]


def holds(conditions: Sequence[tuple], detections, width: float, height: float) -> bool:
    """Whether every condition holds on one frame's detections."""
    boxes: dict[str, list] = {}
    for detection in detections.detections:
        boxes.setdefault(detection.class_name, []).append(detection.box)
    for condition in conditions:
        kind = condition[0]
        if kind == "count":
            _, cls, op, value = condition
            count = (
                len(detections.detections) if cls is None else len(boxes.get(cls, ()))
            )
            if not _OPS[op](count, value):
                return False
        elif kind in ("left_of", "right_of"):
            _, subject, reference = condition
            sign = 1.0 if kind == "left_of" else -1.0
            if not any(
                a is not b and sign * (_centre(b)[0] - _centre(a)[0]) > 0.0
                for a in boxes.get(subject, ())
                for b in boxes.get(reference, ())
            ):
                return False
        elif kind == "inside":
            _, cls, quadrant, op, value = condition
            inside = sum(
                1
                for box in boxes.get(cls, ())
                if _in_quadrant(*_centre(box), quadrant, width, height)
            )
            if not _OPS[op](inside, value):
                return False
        else:
            raise ValueError(f"unknown reference condition {condition!r}")
    return True


class ReferenceOracle:
    """Per-frame reference detections of one stream, computed once per index.

    ``ground_truth_of(index)`` supplies the frame's ground truth (a looped
    stream maps its running index back onto the base stream).  Detections
    are cached, so checking many queries over one stream costs one
    ``detect`` per frame.
    """

    def __init__(
        self,
        detector_seed: int,
        class_names: Sequence[str],
        ground_truth_of: Callable[[int], object],
        width: float,
        height: float,
    ) -> None:
        self._detector = ReferenceDetector(class_names=tuple(class_names), seed=detector_seed)
        self._ground_truth_of = ground_truth_of
        self._width = width
        self._height = height
        self._cache: dict[int, object] = {}

    def detections(self, index: int):
        found = self._cache.get(index)
        if found is None:
            frame = Frame(index=index, image=None, ground_truth=self._ground_truth_of(index))
            found = self._detector.detect(frame)
            self._cache[index] = found
        return found

    def holds(self, conditions: Sequence[tuple], index: int) -> bool:
        return holds(conditions, self.detections(index), self._width, self._height)

    def matches(self, conditions: Sequence[tuple], indices: Sequence[int]) -> list[int]:
        return [index for index in indices if self.holds(conditions, index)]

    def total_count(self, index: int) -> int:
        return len(self.detections(index).detections)
