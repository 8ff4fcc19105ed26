import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from structiou.errors import UsageError
from structiou.stats import _average_ranks, group_sample, spearman


# a small pool makes ties, -0.0 among them, common
values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, -1e-300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(values, min_size=1, max_size=30))
def test_average_rank_definition(xs):
    """Each value's rank is the count below it plus (the count equal to
    it + 1) / 2."""
    ranks = _average_ranks(np.array(xs))
    assert ranks.tolist() == [
        sum(y < x for y in xs) + (sum(y == x for y in xs) + 1) / 2 for x in xs
    ]


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_average_ranks_for_ties(self):
        assert spearman([1, 1, 2], [1, 2, 3]) == pytest.approx(
            math.sqrt(3) / 2, abs=1e-9
        )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            xs = rng.uniform(0, 1, size=12).tolist()
            ys = rng.uniform(0, 1, size=12).tolist()
            base = spearman(xs, ys)
            warped = spearman([math.exp(3 * x) for x in xs], ys)
            assert warped == pytest.approx(base, abs=1e-9)

    def test_degenerate_is_nan(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))

    def test_errors(self):
        with pytest.raises(UsageError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(UsageError):
            spearman([1], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(UsageError, match="non-finite"):
            spearman([1.0, bad, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(UsageError, match="non-finite"):
            spearman([1.0, 2.0, 3.0], [1.0, bad, 2.0])


class TestGroupSample:
    def records(self, k):
        """Each metric's (numerator, denominator) tuples for k sentences."""
        a = [(i * 1.0, 1.0) for i in range(1, k + 1)]
        b = [(i * 2.0, 2.0) for i in range(1, k + 1)]
        return a, b

    def test_full_group_is_corpus_aggregate(self):
        out = group_sample(*self.records(6), group_size=6, seed=0, groups=1)
        a, b = out[0]
        assert a == pytest.approx(sum(range(1, 7)) / 6)
        assert b == pytest.approx(2 * sum(range(1, 7)) / 12)

    def test_seed_reproducible(self):
        recs = self.records(20)
        one = group_sample(*recs, 5, seed=9, groups=8)
        two = group_sample(*recs, 5, seed=9, groups=8)
        assert one == two

    def test_within_group_without_replacement(self):
        recs = [(1.0, 1.0)] * 4 + [(9.0, 1.0)]
        out = group_sample(recs, recs, group_size=5, seed=3, groups=10)
        # with all 5 records in every group, the aggregate is constant
        assert all(a == out[0][0] for a, _ in out)

    def test_errors(self):
        with pytest.raises(UsageError):
            group_sample([], [], 1, 0, 1)
        with pytest.raises(UsageError):
            group_sample(*self.records(3), 4, 0, 1)
        with pytest.raises(UsageError):
            group_sample(*self.records(3), 0, 0, 1)

    def test_unequal_lengths_refused(self):
        a, b = self.records(4)
        with pytest.raises(UsageError, match="length mismatch: 4 vs 3"):
            group_sample(a, b[:3], 2, 0, 1)
