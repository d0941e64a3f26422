"""Continuous divergence audit with optional self-healing.

The chaos plane's byte-identity invariant checks determinism *after* a
run; nothing checks it *during* one.  Yet the recovery protocol's whole
correctness argument rests on an equivalence the runtime never
verifies: the state a promoted replica would rebuild (last full
checkpoint chain + deltas + log replay) must equal the state the live
engine actually has.  An untracked mutation — a bit flip, an
out-of-band write that bypasses the dirty-tracking cells — breaks that
equivalence silently: deltas never carry it, so the replica diverges
from the live engine and every future failover resurrects a state the
live run never produced.

:class:`DivergenceAuditor` turns the equivalence into a runtime
invariant.  It mirrors the engine's shipped checkpoint chain (decoding
the very bytes the replica receives) and, at each checkpoint boundary,
rolls the chain forward with a fresh incremental delta — exactly what a
replica-plus-replay would compute, because a delta carries every
*tracked* mutation since the last capture.  The merge takes every
runtime metadata field (tick-stream positions, silence, pending queues)
from that delta, which is the live runtime's own, so only the rebuilt
*cells* can differ: they are compared component-by-component against
the live cells as canonical :mod:`repro.runtime.checkpoint` bytes —
never with ``==``, under which ``1 == 1.0 == True``:

* equal bytes — the recovery path is proven equivalent to the live
  state *right now*, not just at test time;
* differing bytes — some mutation escaped tracking.  In ``raise`` mode
  the auditor throws a structured
  :class:`~repro.errors.DivergenceError`; in ``heal`` mode it
  quarantines the live cells, installs the rebuilt snapshot (the
  checkpoint chain is the durable truth — the corrupted live copy is
  the replica that must yield), bumps the engine's incarnation epoch,
  and lets the interrupted capture proceed as a *full* checkpoint so
  the chain restarts from healed state.

The audit is a pure read unless it heals, and healing restores
byte-identical pre-corruption state at a message boundary, so audited
runs produce byte-identical output streams to unaudited ones.  Nothing
runs between the audit and the capture at the same boundary, so an
incremental capture ships the delta snapshots the audit just checked
(:meth:`DivergenceAuditor.take_deltas`) rather than taking its own; a
healed boundary's forced full capture snapshots the restored state.
The ``audit.rebuild_us`` gauge covers the one delta snapshot, the fold
and the cell comparison.

Detection limits: a corruption that *does* go through the cell API (and
is therefore dirty-tracked) is indistinguishable from legitimate
computation without re-executing handlers, and is faithfully shipped to
the replica — live and rebuilt stay equal.  The auditor catches
exactly the class of faults that silently breaks recovery: divergence
between the live state and its checkpointed reconstruction.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.core.state import MapCell, ValueCell
from repro.errors import DivergenceError, StateError
from repro.runtime import checkpoint as cpser
from repro.runtime.state_merge import fold_chain, merge_component_snapshots

AUDIT_MODES = ("off", "raise", "heal")

#: The foreign key planted by :func:`corrupt_component_state`.  Chosen to
#: collide with nothing an application would store.
CORRUPTION_KEY = "__chaos_bitflip__"


class DivergenceAuditor:
    """Audits one engine's live state against its checkpoint chain."""

    def __init__(self, engine, mode: str = "heal", every: int = 1,
                 cadence=None):
        if mode not in ("raise", "heal"):
            raise StateError(f"unknown audit mode {mode!r}")
        if every < 1:
            raise StateError("audit_every must be >= 1")
        self.engine = engine
        self.mode = mode
        self.every = int(every)
        self.cadence = cadence
        #: Materialized chain: component name -> full snapshot dict, or
        #: None until the first checkpoint is mirrored.
        self._base: Optional[Dict[str, dict]] = None
        self._base_cp_seq = -1
        self._base_captured_at = -1
        self._captures_since_audit = 0
        #: The delta snapshots the last audit took, unless it healed.
        self._deltas: Optional[Dict[str, dict]] = None
        # Outcome counters (also exported as metrics / gauges).
        self.checks = 0
        self.divergences = 0
        self.heals = 0
        self.deferred = 0

    # -- chain mirroring -------------------------------------------------
    def note_checkpoint(self, cp_seq: int, incremental: bool,
                        blob: bytes) -> None:
        """Mirror one shipped checkpoint (the same bytes the replica got)."""
        decoded = cpser.loads(blob)["components"]
        if not incremental or self._base is None:
            if incremental:
                # Promotion or late attach: deltas before our first full
                # checkpoint cannot be anchored; wait for the next full.
                return
            self._base = dict(decoded)
        else:
            self._base = fold_chain(self._base, [decoded])
        self._base_cp_seq = cp_seq
        self._base_captured_at = self.engine.sim.now
        self._captures_since_audit += 1

    # -- audit -----------------------------------------------------------
    def due(self) -> bool:
        """Whether an audit should run before the next capture."""
        return (self._base is not None
                and self._captures_since_audit >= self.every)

    def audit_once(self) -> str:
        """Audit now (at a checkpoint boundary); returns the outcome.

        Outcomes: ``"clean"`` (live equals rebuild), ``"healed"``
        (divergence found and repaired — the caller must follow with a
        *full* checkpoint), ``"deferred"`` (divergence found but a
        single-segment handler is in flight, so an in-place restore is
        unsafe; the caller must avoid taking a full checkpoint, which
        would launder the corruption into the chain, and retry at the
        next boundary).  In ``raise`` mode a divergence raises
        :class:`~repro.errors.DivergenceError` instead.
        """
        engine = self.engine
        metrics = engine.metrics
        if self._base is None:
            raise StateError(f"{engine.engine_id}: no chain to audit against")
        self._captures_since_audit = 0
        self._deltas = None
        started = time.perf_counter()
        # Roll the mirrored chain forward with a fresh delta: this is the
        # state a replica-plus-replay would reach at this boundary.
        # The merge takes every metadata field from the delta itself, so
        # only the rebuilt cells can differ from the live runtime.
        rebuilt: Dict[str, dict] = {}
        deltas: Dict[str, dict] = {}
        diverged = []
        for name, rt in engine.runtimes.items():
            delta = deltas[name] = rt.snapshot(incremental=True)
            rebuilt[name] = merge_component_snapshots(self._base[name], delta)
            live_cells = rt.component.state.full_snapshot()
            if (cpser.dumps(rebuilt[name]["cells"])
                    != cpser.dumps(live_cells)):
                diverged.append(name)
        rebuild_us = (time.perf_counter() - started) * 1e6
        self.checks += 1
        metrics.count("audit.checks")
        metrics.gauge("audit.rebuild_us", rebuild_us)
        if self.cadence is not None:
            span = engine.sim.now - self._base_captured_at
            self.cadence.observe_replay(span, rebuild_us / 1000.0)
        if not diverged:
            self._deltas = deltas
            return "clean"
        self.divergences += 1
        metrics.count("audit.divergences")
        if self.mode == "raise":
            raise DivergenceError(engine.engine_id, self._base_cp_seq,
                                  diverged)
        if any(rt.busy_info is not None for rt in engine.runtimes.values()):
            # An in-flight handler has a scheduled completion event tied
            # to the current runtime internals; restoring under it would
            # double-execute.  Detection stands; healing waits.
            self.deferred += 1
            metrics.count("audit.deferred")
            self._deltas = deltas
            return "deferred"
        self._heal(rebuilt, diverged)
        return "healed"

    def take_deltas(self) -> Optional[Dict[str, dict]]:
        """Hand over the last audit's delta snapshots, once.

        Nothing runs between an audit and its capture at the same
        boundary, so an incremental capture ships these instead of
        snapshotting again.  ``None`` after a heal (the live state was
        replaced) or when no audit ran since the last hand-over.
        """
        deltas, self._deltas = self._deltas, None
        return deltas

    def _heal(self, rebuilt: Dict[str, dict], diverged) -> None:
        """Quarantine live state and install the rebuilt snapshots."""
        engine = self.engine
        engine.metrics.count("audit.heals", 1)
        engine.metrics.count("audit.healed_components", len(diverged))
        self.heals += 1
        engine.restore_components(rebuilt)
        # Restored pending queues need a dispatch nudge (normally an
        # arrival event provides it); harmless when queues are empty.
        for rt in engine.runtimes.values():
            engine.sim.call_soon(rt.maybe_dispatch,
                                 f"audit-heal:{rt.component.name}")
        engine.bump_incarnation_epoch()
        engine.metrics.gauge("audit.incarnation_epoch",
                             float(engine.incarnation_epoch))

    def report(self) -> Dict[str, Any]:
        """Structured outcome summary (exported by the net runtime)."""
        return {
            "mode": self.mode,
            "checks": self.checks,
            "divergences": self.divergences,
            "heals": self.heals,
            "deferred": self.deferred,
            "incarnation_epoch": self.engine.incarnation_epoch,
        }


def corrupt_component_state(engine, component: Optional[str] = None,
                            value: Any = 0) -> str:
    """Corrupt one component's live state, bypassing dirty tracking.

    Models a bit flip / wild write landing in checkpointable state:
    plants :data:`CORRUPTION_KEY` directly in a :class:`MapCell`'s
    backing dict (falling back to an in-place :class:`ValueCell`
    overwrite when a component has no map), without marking anything
    dirty — so the next delta checkpoint will *not* carry it and only
    the divergence audit can see it.  Returns ``"component.cell"``
    naming the victim.  Used by the chaos plane and by tests.
    """
    if component is not None:
        rt = engine.runtimes.get(component)
        if rt is None:
            raise StateError(
                f"{engine.engine_id}: no component {component!r} to corrupt"
            )
        candidates = [rt]
    else:
        candidates = list(engine.runtimes.values())
    for rt in candidates:
        for cell_name, cell in rt.component.state.cells().items():
            if isinstance(cell, MapCell):
                cell._data[CORRUPTION_KEY] = value
                engine.metrics.count("chaos.corruptions")
                return f"{rt.component.name}.{cell_name}"
    for rt in candidates:
        for cell_name, cell in rt.component.state.cells().items():
            if isinstance(cell, ValueCell):
                old = cell._value
                cell._value = (old ^ 1) if isinstance(old, int) else value
                engine.metrics.count("chaos.corruptions")
                return f"{rt.component.name}.{cell_name}"
    raise StateError(f"{engine.engine_id}: no corruptible cell found")
