"""Unit tests for the stable external-message log."""

import pytest

from repro.errors import RecoveryError
from repro.runtime.message_log import ExternalMessageLog


class TestAppend:
    def test_sequences_assigned_in_order(self):
        log = ExternalMessageLog(1)
        assert log.append(100, "a") == 0
        assert log.append(200, "b") == 1
        assert len(log) == 2
        assert log.last_vt() == 200

    def test_equal_vts_allowed(self):
        log = ExternalMessageLog(1)
        log.append(100, "a")
        log.append(100, "b")  # two arrivals in the same tick

    def test_vt_regression_rejected(self):
        log = ExternalMessageLog(1)
        log.append(100, "a")
        with pytest.raises(RecoveryError):
            log.append(99, "b")


class TestReplay:
    def test_entries_from(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        assert log.entries_from(2) == [(2, 20, "p2"), (3, 30, "p3"),
                                       (4, 40, "p4")]
        assert log.entries_from(0)[0] == (0, 0, "p0")
        assert log.entries_from(5) == []

    def test_negative_seq_rejected(self):
        log = ExternalMessageLog(1)
        with pytest.raises(RecoveryError):
            log.entries_from(-1)


class TestTruncation:
    def test_truncate_keeps_seq_numbers_stable(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        assert log.truncate_through(1) == 2
        assert log.entries_from(2)[0] == (2, 20, "p2")

    def test_replaying_truncated_range_rejected(self):
        log = ExternalMessageLog(1)
        for i in range(5):
            log.append(i * 10, f"p{i}")
        log.truncate_through(2)
        with pytest.raises(RecoveryError):
            log.entries_from(1)

    def test_truncate_is_idempotent(self):
        log = ExternalMessageLog(1)
        for i in range(3):
            log.append(i, f"p{i}")
        log.truncate_through(0)
        assert log.truncate_through(0) == 0

    def test_append_after_truncation(self):
        log = ExternalMessageLog(1)
        log.append(10, "a")
        log.truncate_through(0)
        assert log.append(20, "b") == 1
        assert log.entries_from(1) == [(1, 20, "b")]


class TestIncrementalTruncation:
    @staticmethod
    def _log(n):
        log = ExternalMessageLog(1)
        for i in range(n):
            log.append(i * 10, f"p{i}")
        return log

    def test_overlapping_truncations_count_only_new_entries(self):
        log = self._log(10)
        assert log.truncate_through(3) == 4
        assert log.truncate_through(5) == 2
        assert log.truncate_through(2) == 0
        assert log.truncate_through(8) == 3
        assert log.entries_from(9) == [(9, 90, "p9")]

    def test_repeated_truncation_is_idempotent(self):
        log = self._log(6)
        assert log.truncate_through(4) == 5
        assert log.truncate_through(4) == 0
        assert log.entries_from(5) == [(5, 50, "p5")]

    def test_truncation_past_the_end_collects_what_exists(self):
        log = self._log(4)
        assert log.truncate_through(100) == 4
        assert log.entries_from(4) == []
        log.append(40, "p4")
        log.append(50, "p5")
        assert log.entries_from(4) == [(4, 40, "p4"), (5, 50, "p5")]
        assert log.truncate_through(100) == 2
        assert log.truncate_through(100) == 0

    def test_truncating_an_empty_log(self):
        log = ExternalMessageLog(1)
        assert log.truncate_through(3) == 0
        log.append(0, "p0")
        assert log.entries_from(0) == [(0, 0, "p0")]

    def test_replay_below_the_gc_point_is_rejected(self):
        log = self._log(8)
        log.truncate_through(2)
        log.truncate_through(5)
        for seq in range(6):
            with pytest.raises(RecoveryError):
                log.entries_from(seq)
        assert [e[0] for e in log.entries_from(6)] == [6, 7]

    def test_tombstones_keep_sequence_numbers(self):
        log = self._log(5)
        log.truncate_through(1)
        assert log.append(50, "p5") == 5
        assert len(log) == 6
