"""The quantile estimator behind the latency percentiles."""

import pytest

from run import _hd_weights, percentile


def test_weights_are_a_distribution_centred_on_the_quantile():
    for n, q in ((5, 0.5), (65, 0.9), (1556, 0.5)):
        w = _hd_weights(n, q)
        assert sum(w) == pytest.approx(1)
        assert all(x >= 0 for x in w)
        centre = sum(i * x for i, x in enumerate(w, 1)) / n
        assert centre == pytest.approx(q, abs=1 / n)


def test_percentile_of_symmetric_data_is_its_middle():
    assert percentile([4.0, 1.0, 3.0, 2.0, 5.0], 0.5) == pytest.approx(3.0)
    assert percentile(list(range(101)), 0.5) == pytest.approx(50.0)
    assert percentile([7.0], 0.9) == 7.0


def test_percentile_moves_smoothly_across_a_gap():
    # Half the values near 10, half near 20: a rank-based median jumps by 10
    # when one value crosses over; this estimate moves by a fraction of that.
    low = [10.0 + i / 100 for i in range(32)]
    high = [20.0 + i / 100 for i in range(33)]
    before = percentile(low + high, 0.5)
    after = percentile(low[:-1] + [20.5] + high, 0.5)
    assert 10 < before < 20
    assert abs(after - before) < 1
