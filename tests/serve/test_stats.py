"""Tests for the serving tier's one stats store."""

import threading

from repro.serve.stats import StatsRecorder, percentile_ms


class TestStatsRecorder:
    def test_unrecorded_counters_read_zero(self):
        assert StatsRecorder().count("requests") == 0

    def test_record_counts_every_name_and_appends_one_sample(self):
        stats = StatsRecorder(serve=8)
        stats.record("requests", "reconstructions", window="serve", sample=0.5)
        stats.record("requests", ("shed", "rate"))
        counts, windows = stats.snapshot()
        assert counts == {
            "requests": 2,
            "reconstructions": 1,
            ("shed", "rate"): 1,
        }
        assert windows == {"serve": [0.5]}

    def test_windows_keep_the_newest_samples(self):
        stats = StatsRecorder(serve=3)
        for sample in range(5):
            stats.record(window="serve", sample=float(sample))
        assert stats.snapshot()[1]["serve"] == [2.0, 3.0, 4.0]

    def test_high_water_only_rises(self):
        stats = StatsRecorder()
        stats.high_water("queue_depth_max", 3)
        stats.high_water("queue_depth_max", 1)
        assert stats.count("queue_depth_max") == 3

    def test_snapshot_is_a_copy(self):
        stats = StatsRecorder(serve=4)
        stats.record("requests", window="serve", sample=1.0)
        counts, windows = stats.snapshot()
        stats.record("requests", window="serve", sample=2.0)
        assert counts == {"requests": 1}
        assert windows == {"serve": [1.0]}

    def test_owner_lock_counts_inside_its_critical_section(self):
        """A cache hands the recorder its own lock and bumps while
        holding it: one acquisition for the lookup and its count."""
        lock = threading.Lock()
        stats = StatsRecorder(lock=lock)
        with lock:
            stats.bump("hits", ("tenant", "hits"))
        assert not lock.locked()
        assert stats.snapshot()[0] == {"hits": 1, ("tenant", "hits"): 1}


class TestPercentileMs:
    def test_milliseconds_of_the_nearest_rank(self):
        seconds = [0.001, 0.002, 0.1]
        assert percentile_ms(seconds, 50) == 2.0
        assert percentile_ms(seconds, 99) == 100.0

    def test_empty_window_reads_zero(self):
        assert percentile_ms([], 99.9) == 0.0
