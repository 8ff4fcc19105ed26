import numpy as np
import pytest

from structiou.intervals import OpenInterval, iou, iou_matrix


def _overlap_and_union(a, b):
    """Overlap and union length recovered from ``iou``: with r = I / (L - I)
    and L the summed lengths, I = r L / (1 + r) and L - I = L / (1 + r)."""
    r = iou(a, b)
    total = (a.end - a.start) + (b.end - b.start)
    return r * total / (1 + r), total / (1 + r)


def test_intersection_examples():
    assert _overlap_and_union(OpenInterval(0, 1), OpenInterval(1, 2))[0] == 0
    assert _overlap_and_union(
        OpenInterval(0, 2), OpenInterval(1, 3)
    )[0] == pytest.approx(1)
    assert _overlap_and_union(
        OpenInterval(2.56, 2.72), OpenInterval(2.51, 2.70)
    )[0] == pytest.approx(0.14)


def test_union_examples():
    a, b = OpenInterval(0, 1), OpenInterval(0, 1)
    assert _overlap_and_union(a, b)[1] == 1
    assert _overlap_and_union(OpenInterval(0, 1), OpenInterval(2, 3))[1] == 2
    # 0.16 + 0.19 - 0.14
    assert _overlap_and_union(
        OpenInterval(2.56, 2.72), OpenInterval(2.51, 2.70)
    )[1] == pytest.approx(0.21)


def test_iou_examples():
    assert iou(OpenInterval(0, 2), OpenInterval(1, 3)) == pytest.approx(1 / 3)
    assert iou(OpenInterval(5, 9), OpenInterval(5, 9)) == 1.0
    # overlap 0.14 over union 0.16 + 0.19 - 0.14
    assert iou(
        OpenInterval(2.56, 2.72), OpenInterval(2.51, 2.70)
    ) == pytest.approx(0.14 / 0.21)
    assert iou(OpenInterval(0, 1), OpenInterval(2, 3)) == 0.0
    assert iou(OpenInterval(0, 1), OpenInterval(1, 2)) == 0.0  # touching
    # nested: the inner interval's length over the outer one's
    assert iou(OpenInterval(1.5, 4.0), OpenInterval(0, 10)) == 0.25


def test_degenerate_interval_rejected():
    with pytest.raises(ValueError):
        OpenInterval(1.0, 1.0)
    with pytest.raises(ValueError):
        OpenInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        OpenInterval(0.0, 1e-12)


def test_random_properties():
    rng = np.random.default_rng(42)
    for _ in range(500):
        pts = np.sort(rng.uniform(-5, 5, size=4))
        pts[1:] = np.maximum(pts[1:], pts[:-1] + 1e-3)
        a = OpenInterval(pts[0], pts[rng.integers(1, 4)])
        c0 = rng.integers(0, 3)
        b = OpenInterval(pts[c0], pts[rng.integers(c0 + 1, 4)])
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, a) == 1.0
        # overlap at most the shorter length, union at least the longer
        la, lb = a.end - a.start, b.end - b.start
        assert iou(a, b) <= min(la, lb) / max(la, lb) + 1e-12


def test_touching_intervals_disjoint():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y, z = np.sort(rng.uniform(0, 10, size=3))
        y = max(y, x + 1e-3)
        z = max(z, y + 1e-3)
        a, b = OpenInterval(x, y), OpenInterval(y, z)
        assert iou(a, b) == 0.0


def test_iou_matrix_equals_scalar_iou():
    rng = np.random.default_rng(3)
    pts = np.sort(rng.uniform(-5, 5, size=12))
    spans = [(pts[i], pts[j]) for i in range(12) for j in range(i + 1, 12, 3)]
    spans += [(0.0, 1.0), (1.0, 2.0), (0.0, 2.0), (0.5, 1.5), (7.0, 8.0)]
    s, e = np.array(spans).T
    got = iou_matrix(s, e, s, e)
    for i, a in enumerate(spans):
        for j, b in enumerate(spans):
            # bitwise: the solver's weights and the scalar reference agree
            assert got[i, j] == iou(OpenInterval(*a), OpenInterval(*b))
    assert (got[np.arange(len(spans)), np.arange(len(spans))] == 1.0).all()
    # written into a strided view, as the solver fills its F matrix
    out = np.full((len(spans) + 1, len(spans) + 1), np.nan)
    view = out[:-1, :-1]
    assert iou_matrix(s, e, s, e, out=view) is view
    assert view.tobytes() == got.tobytes()
    assert np.isnan(out[-1]).all() and np.isnan(out[:, -1]).all()
