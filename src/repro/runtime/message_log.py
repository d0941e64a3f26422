"""Stable logging of external input messages.

"When a message arrives at the system from an external source, it is (a)
given a timestamp, and then is (b) logged — either to external stable
storage, or to the backup machine.  Because the message is logged, it is
safe to use the actual real time as the virtual time of this message.
Only external messages are logged." (paper II.E)

:class:`ExternalMessageLog` is the stable storage for one external input
wire: it survives the failure of the engine it feeds, and it is the
replay source for that wire after failover.  ``latency_ticks`` models
the synchronous logging cost (0 by default: the paper's configuration
logs to the co-located backup asynchronously relative to the sender but
before processing; experiments can charge a cost here).
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.errors import RecoveryError


class ExternalMessageLog:
    """Append-only stable log of (seq, vt, payload) for one wire."""

    def __init__(self, wire_id: int, latency_ticks: int = 0):
        self.wire_id = wire_id
        self.latency_ticks = int(latency_ticks)
        self._entries: List[Tuple[int, int, Any]] = []
        self._truncated_through = -1
        self._last_vt = -1

    def append(self, vt: int, payload: Any) -> int:
        """Persist one message; returns its assigned sequence number."""
        if vt < self._last_vt:
            raise RecoveryError(
                f"log {self.wire_id}: virtual time regressed "
                f"({vt} < {self._last_vt})"
            )
        self._last_vt = vt
        seq = len(self._entries)
        self._entries.append((seq, vt, payload))
        return seq

    def __len__(self) -> int:
        return len(self._entries)

    def entries_from(self, from_seq: int) -> List[Tuple[int, int, Any]]:
        """All logged entries with seq >= ``from_seq`` (replay source)."""
        if from_seq < 0:
            raise RecoveryError(f"negative replay seq {from_seq}")
        if from_seq <= self._truncated_through:
            raise RecoveryError(
                f"log {self.wire_id}: seq {from_seq} was garbage-collected "
                f"(stable through {self._truncated_through})"
            )
        return self._entries[from_seq:]  # tombstones all lie below

    def last_vt(self) -> int:
        """Virtual time of the newest entry (-1 if empty)."""
        return self._last_vt

    def truncate_through(self, seq_inclusive: int) -> int:
        """Garbage-collect a stable prefix (downstream checkpoint covers it).

        Entries are replaced with tombstones rather than shifted so that
        sequence numbers remain stable.  Everything through
        ``_truncated_through`` is already a tombstone, so only the new
        part of the prefix is visited.  Returns the number of entries
        collected.
        """
        start = self._truncated_through + 1
        stop = min(seq_inclusive + 1, len(self._entries))
        for i in range(start, stop):
            self._entries[i] = None  # type: ignore[assignment]
        self._truncated_through = max(self._truncated_through, stop - 1)
        return max(0, stop - start)
