"""Arithmetic on real-valued open intervals.

All scoring downstream reduces to sums of the interval IoU computed
here, in plain double precision with no comparison epsilon.
Degenerate intervals are rejected at construction instead (length below
``MIN_LENGTH`` seconds).
"""

from dataclasses import dataclass

import numpy as np

# Validation threshold for degenerate intervals, in seconds.
MIN_LENGTH = 1e-9


@dataclass(frozen=True)
class OpenInterval:
    """An open interval (start, end) with start strictly before end."""

    start: float
    end: float

    def __post_init__(self):
        if not self.end - self.start >= MIN_LENGTH:
            raise ValueError(
                f"degenerate interval ({self.start}, {self.end}): "
                f"length must be at least {MIN_LENGTH}"
            )


def iou(i1: OpenInterval, i2: OpenInterval) -> float:
    """Intersection over union; 1 iff the intervals are equal, 0 iff disjoint.

    Open intervals that merely touch at an endpoint do not intersect.
    """
    inter = max(min(i1.end, i2.end) - max(i1.start, i2.start), 0.0)
    return inter / ((i1.end - i1.start) + (i2.end - i2.start) - inter)


def iou_matrix(s1, e1, s2, e2, out=None) -> np.ndarray:
    """IoU of every interval (s1, e1) with every interval (s2, e2), written
    into ``out`` if given.

    The same arithmetic, in the same order, as ``iou``, so each entry
    equals the scalar result bit for bit. Besides ``out`` it holds one
    temporary of the result's size at a time.
    """
    inter = np.minimum(e1[:, None], e2, out=out)
    inter -= np.maximum(s1[:, None], s2)
    np.clip(inter, 0.0, None, out=inter)
    union = (e1 - s1)[:, None] + (e2 - s2)
    union -= inter
    return np.divide(inter, union, out=inter)
