"""The tail helper applies the at-least-ten-beyond rule."""

from benchlib.stats import MIN_BEYOND, tail


def _beyond(samples, value):
    return sum(1 for x in samples if x > value)


def test_tail_leaves_ten_samples_beyond():
    for n in (11, 19, 20, 37, 100, 1000):
        samples = [float(i) for i in range(n)]
        result = tail(samples)
        assert result.n == n
        assert result.percentile is not None
        assert _beyond(samples, result.value) >= MIN_BEYOND
        # The next rank up would leave fewer than ten beyond it, unless
        # flooring the percentile to a whole number moved it down.
        assert _beyond(samples, result.value) <= MIN_BEYOND + n // 100 + 1


def test_tail_reports_the_percentile_used():
    assert tail([float(i) for i in range(100)]).percentile == 90.0
    assert tail([float(i) for i in range(1000)]).percentile == 99.0
    assert tail([float(i) for i in range(20)]).percentile == 50.0


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0, 12.0]
    assert tail(samples) == tail(sorted(samples))


def test_too_few_samples_fall_back_to_the_maximum():
    result = tail([3.0, 1.0, 2.0])
    assert result.value == 3.0
    assert result.percentile is None
    assert result.n == 3
    assert "too few" in result.describe()
