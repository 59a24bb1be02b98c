"""Tests for repro.stats.correlation."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.correlation import log_pearson, pearson


class TestPearson:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = pearson(x, 2 * x + 1)
        assert result.r == pytest.approx(1.0)
        assert result.p_value == 0.0

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, -x).r == pytest.approx(-1.0)

    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 60)
        y = 0.5 * x + rng.normal(0, 1, 60)
        ours = pearson(x, y)
        theirs = scipy_stats.pearsonr(x, y)
        assert ours.r == pytest.approx(theirs.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 20, 60, 10_000])
    def test_p_value_is_scipy_t_sf_bitwise(self, n):
        # pearson computes the tail with scipy.special.stdtr; it must be
        # exactly the scipy.stats.t.sf value it replaced.
        rng = np.random.default_rng(n)
        for rho in rng.uniform(-0.99, 0.99, 25):
            x = rng.normal(0.0, 1.0, n)
            y = rho * x + rng.normal(0.0, 1.0, n)
            ours = pearson(x, y)
            t = ours.r * np.sqrt((n - 2) / (1.0 - ours.r * ours.r))
            expected = float(2.0 * scipy_stats.t.sf(abs(t), df=n - 2))
            assert ours.p_value == expected

    def test_constant_series_degenerate(self):
        result = pearson(np.ones(10), np.arange(10.0))
        assert result.r == 0.0
        assert result.p_value == 1.0

    def test_too_few_points(self):
        result = pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert result.r == 0.0
        assert result.p_value == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))

    def test_iterable_unpacking(self):
        r, p = pearson(np.arange(10.0), np.arange(10.0))
        assert r == pytest.approx(1.0)

    def test_n_recorded(self):
        assert pearson(np.arange(7.0), np.arange(7.0)).n == 7


class TestLogPearson:
    def test_power_relation_is_perfect_in_log(self):
        x = np.logspace(0, 4, 30)
        y = 3.0 * x**1.7
        assert log_pearson(x, y).r == pytest.approx(1.0)

    def test_nonpositive_pairs_dropped(self):
        x = np.array([0.0, 1.0, 10.0, 100.0])
        y = np.array([5.0, 1.0, 10.0, 100.0])
        result = log_pearson(x, y)
        assert result.n == 3
        assert result.r == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            log_pearson(np.ones(2), np.ones(3))
