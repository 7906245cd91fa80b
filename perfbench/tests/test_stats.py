"""The ten-samples-beyond rule for reporting a percentile."""

import pytest

from stats import percentile, percentile_of_counts, quartiles, reportable


def test_p99_needs_a_thousand_samples():
    assert not reportable(999, 0.99)
    assert reportable(1000, 0.99)
    assert percentile(list(range(999)), 0.99) is None
    # Nearest rank 990 of 1..1000 leaves exactly ten samples beyond.
    assert percentile(list(range(1, 1001)), 0.99) == 990


def test_median_needs_twenty_samples():
    assert percentile([1.0] * 19, 0.5) is None
    assert percentile(list(range(1, 21)), 0.5) == 10


def test_histogram_percentile_matches_the_sample_percentile():
    samples = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4] * 60
    counts = [samples.count(v) for v in range(10)]
    for q in (0.5, 0.9, 0.99):
        assert percentile_of_counts(counts, q, 0.5) == percentile(samples, q) * 0.5
    assert percentile_of_counts([19], 0.5, 1.0) is None


def test_quantile_must_be_inside_the_unit_interval():
    with pytest.raises(ValueError):
        reportable(100, 1.0)


def test_quartiles_match_statistics_quantiles():
    summary = quartiles([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert summary["median"] == 4.5
    assert summary["spread"] == pytest.approx(
        (summary["q3"] - summary["q1"]) / 4.5
    )
