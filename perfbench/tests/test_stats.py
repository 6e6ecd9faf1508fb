import math

import numpy as np

from perfbench.stats import MIN_TAIL_SAMPLES, summarize, supported_tail


def test_summary_reports_the_sample_count():
    summary = summarize(np.arange(1, 101, dtype=float))
    assert summary["n"] == 100
    assert summary["p50"] == 50.5


def test_highest_percentile_with_ten_samples_beyond():
    assert supported_tail(1000) == 99.0
    assert supported_tail(10000) == 99.9
    assert supported_tail(999) == 98.0
    assert supported_tail(200) == 95.0
    assert supported_tail(19) is None
    for n in (20, 57, 344, 1000, 2500, 12345):
        pct = supported_tail(n)
        assert n * (100 - pct) / 100 >= MIN_TAIL_SAMPLES - 1e-9


def test_p99_is_flagged_when_unsupported():
    assert summarize(np.ones(999))["p99_supported"] is False
    summary = summarize(np.arange(1000, dtype=float))
    assert summary["p99_supported"] is True
    assert summary["tail_pct"] == 99.0
    assert math.isclose(summary["tail"], summary["p99"])


def test_empty_sample():
    summary = summarize([])
    assert summary["n"] == 0 and math.isnan(summary["p50"]) and summary["tail_pct"] is None
