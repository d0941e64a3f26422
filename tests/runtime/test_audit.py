"""Divergence-auditor tests: detect, heal, raise, defer — in a real
pipeline deployment, with untracked corruption injected mid-run.

Also pins the audit's cost contract: the comparison is on canonical
bytes (an equal value of another type is a divergence), and an audited
incremental checkpoint takes one snapshot per component, shipping the
very delta the audit checked.

Also covers the bounded mid-call checkpoint retry (``checkpoint.retries``
/ ``checkpoint.stalls``) that keeps a stuck component from turning the
checkpoint timer into a silent hot loop.
"""

import pytest

from repro.apps.callgraph import build_callgraph_app, request_factory
from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of
from repro.core.scheduler import ComponentRuntime
from repro.errors import DivergenceError, StateError
from repro.runtime import checkpoint as cpser
from repro.runtime.app import Deployment
from repro.runtime.audit import CORRUPTION_KEY, corrupt_component_state
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Constant
from repro.sim.kernel import ms, us


def build(audit="heal", audit_every=1, master_seed=7, max_messages=None):
    """Pipeline on two engines; parser+enricher share the audited one."""
    app = build_pipeline_app(window=5)
    dep = Deployment(
        app,
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        engine_config=EngineConfig(checkpoint_interval=ms(10),
                                   audit=audit, audit_every=audit_every),
        master_seed=master_seed,
        birth_of=birth_of,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1),
                             max_messages=max_messages)
    return dep


def drained(audit):
    """Audited pipeline whose workload has finished: every cell is idle."""
    dep = build(audit=audit, max_messages=40)
    dep.run(until=ms(100))
    return dep


class TestCleanRuns:
    def test_clean_run_audits_clean(self):
        dep = build(audit="heal")
        dep.run(until=ms(200))
        auditor = dep.engine("E1").auditor
        assert auditor.checks > 5
        assert auditor.divergences == 0
        assert auditor.heals == 0
        assert dep.engine("E1").incarnation_epoch == 0
        assert dep.metrics.counter("audit.checks") == (
            dep.engine("E1").auditor.checks
            + dep.engine("E2").auditor.checks
        )

    def test_raise_mode_is_quiet_without_corruption(self):
        dep = build(audit="raise")
        dep.run(until=ms(200))
        assert dep.engine("E1").auditor.divergences == 0

    def test_audit_every_thins_the_checks(self):
        dep = build(audit="heal", audit_every=3)
        dep.run(until=ms(200))
        engine = dep.engine("E1")
        assert engine.auditor.checks >= 1
        assert engine.auditor.checks <= engine._cp_seq // 3 + 1


class TestHealMode:
    def test_untracked_corruption_detected_and_healed(self):
        dep = build(audit="heal")
        dep.run(until=ms(50))
        planted = corrupt_component_state(dep.engine("E1"), "enricher")
        assert planted == "enricher.devices"
        assert CORRUPTION_KEY in dep.runtime("enricher").component.devices
        dep.run(until=ms(200))
        auditor = dep.engine("E1").auditor
        assert auditor.divergences == 1
        assert auditor.heals == 1
        assert dep.engine("E1").incarnation_epoch == 1
        assert dep.metrics.counter("audit.heals") == 1
        assert dep.metrics.counter("audit.healed_components") == 1
        # The foreign key is gone from live state after the heal.
        assert CORRUPTION_KEY not in dep.runtime("enricher").component.devices

    def test_healed_run_is_byte_identical_to_clean_twin(self):
        clean = build(audit="heal")
        clean.run(until=ms(250))
        healed = build(audit="heal")
        healed.run(until=ms(50))
        corrupt_component_state(healed.engine("E1"), "enricher")
        healed.run(until=ms(250))
        assert healed.engine("E1").auditor.heals == 1
        assert cpser.dumps(healed.consumer("sink").payloads()) == \
            cpser.dumps(clean.consumer("sink").payloads())

    def test_heal_restarts_chain_so_replica_rebuild_matches_live(self):
        # After a heal the next capture is forced FULL, so the shipped
        # chain restarts from healed state: the replica's materialized
        # view must equal the live engine at the capture boundary.
        dep = build(audit="heal")
        dep.run(until=ms(50))
        corrupt_component_state(dep.engine("E1"), "enricher")
        dep.run(until=ms(120))
        # Step past the 10ms tick grid so no scheduled capture races the
        # manual one inside the short delivery window below.
        dep.run(until=ms(123))
        engine = dep.engine("E1")
        assert engine.auditor.heals == 1
        cp_seq = engine.capture_checkpoint()
        live = {name: rt.snapshot(incremental=False)
                for name, rt in engine.runtimes.items()}
        dep.run(until=dep.sim.now + ms(2))  # let the blob reach the replica
        replica = dep.replicas["E1"]
        assert replica.last_cp_seq == cp_seq
        assert cpser.dumps(replica.materialize()) == cpser.dumps(live)

    def test_value_cell_fallback_corruption_also_healed(self):
        # A flipped ValueCell is only *detectable* while the cell is
        # quiescent: once the component writes it again, the corruption
        # becomes tracked computation and ships in the next delta (the
        # documented detection limit).  So: drain traffic, then corrupt.
        dep = drained("heal")
        planted = corrupt_component_state(dep.engine("E1"), "parser")
        assert planted.startswith("parser.")
        dep.run(until=ms(200))
        assert dep.engine("E1").auditor.heals == 1


def int_to_float(dep):
    """Untracked ValueCell write: ``n`` becomes ``float(n)``."""
    cell = dep.runtime("parser").component.accepted
    assert type(cell._value) is int and cell._value > 0
    cell._value = float(cell._value)
    return "parser", lambda: type(cell._value) is int


def one_to_true(dep):
    """Untracked MapCell write: a shipped ``1`` becomes ``True``."""
    devices = dep.runtime("enricher").component.devices
    devices["flag"] = 1  # tracked: the next delta ships it
    dep.run(until=dep.sim.now + ms(20))
    devices._data["flag"] = True
    return "enricher", lambda: type(devices._data["flag"]) is int


TYPE_FLIPS = {"value_cell_int_to_float": int_to_float,
              "map_cell_one_to_true": one_to_true}


class TestByteExactComparison:
    """Equal values of another type (``1 == 1.0 == True``) diverge."""

    @pytest.mark.parametrize("flip", sorted(TYPE_FLIPS))
    def test_raise_mode_catches_equal_value_type_change(self, flip):
        dep = drained("raise")
        victim, _ = TYPE_FLIPS[flip](dep)
        with pytest.raises(DivergenceError) as exc_info:
            dep.run(until=dep.sim.now + ms(30))
        assert exc_info.value.components == (victim,)

    @pytest.mark.parametrize("flip", sorted(TYPE_FLIPS))
    def test_heal_mode_restores_the_shipped_type(self, flip):
        dep = drained("heal")
        _, restored = TYPE_FLIPS[flip](dep)
        assert not restored()
        dep.run(until=dep.sim.now + ms(30))
        auditor = dep.engine("E1").auditor
        assert (auditor.divergences, auditor.heals) == (1, 1)
        assert restored()


class TestOneSnapshotPerCheckpoint:
    def test_incremental_tick_snapshots_each_component_once(
            self, monkeypatch):
        dep = build(audit="heal")
        dep.run(until=ms(50))
        engine = dep.engine("E1")
        calls = []  # (virtual time, component, incremental)
        snapshot = ComponentRuntime.snapshot

        def counting(rt, incremental):
            calls.append((dep.sim.now, rt.component.name, incremental))
            return snapshot(rt, incremental)

        monkeypatch.setattr(ComponentRuntime, "snapshot", counting)
        shipped = []  # (virtual time, incremental)
        note = engine.auditor.note_checkpoint

        def noting(cp_seq, incremental, blob):
            shipped.append((dep.sim.now, incremental))
            note(cp_seq, incremental, blob)

        monkeypatch.setattr(engine.auditor, "note_checkpoint", noting)
        checks = engine.auditor.checks
        dep.run(until=ms(150))
        assert engine.auditor.checks - checks == len(shipped) == 10
        incremental = [at for at, inc in shipped if inc]
        assert len(incremental) >= 8
        for at in incremental:
            taken = sorted((name, inc) for when, name, inc in calls
                           if when == at and name in engine.runtimes)
            assert taken == [(name, True) for name in sorted(engine.runtimes)]

    def test_shipped_blob_equals_a_fresh_snapshot(self, monkeypatch):
        # Covers clean ticks (the audit's deltas are shipped) and a
        # healed tick (forced full, snapshotted after the restore).
        dep = build(audit="heal")
        dep.run(until=ms(50))
        engine = dep.engine("E1")
        fresh = {}
        capture = engine.capture_checkpoint

        def checked_capture(**kwargs):
            expected = {
                inc: cpser.dumps({"components": {
                    name: rt.snapshot(inc)
                    for name, rt in engine.runtimes.items()}})
                for inc in (True, False)
            }
            cp_seq = capture(**kwargs)
            fresh[cp_seq] = expected
            return cp_seq

        monkeypatch.setattr(engine, "capture_checkpoint", checked_capture)
        shipped = []
        note = engine.auditor.note_checkpoint

        def noting(cp_seq, incremental, blob):
            shipped.append((cp_seq, incremental, blob))
            note(cp_seq, incremental, blob)

        monkeypatch.setattr(engine.auditor, "note_checkpoint", noting)
        dep.run(until=ms(95))
        corrupt_component_state(engine, "enricher")
        dep.run(until=ms(200))
        assert engine.auditor.heals == 1
        assert {inc for _, inc, _ in shipped} == {True, False}
        for cp_seq, incremental, blob in shipped:
            assert blob == fresh[cp_seq][incremental]


class TestRaiseMode:
    def test_corruption_raises_structured_divergence_error(self):
        dep = build(audit="raise")
        dep.run(until=ms(50))
        corrupt_component_state(dep.engine("E1"), "enricher")
        with pytest.raises(DivergenceError) as exc_info:
            dep.run(until=ms(200))
        err = exc_info.value
        assert err.engine_id == "E1"
        assert err.components == ("enricher",)
        assert err.cp_seq >= 0
        assert dep.engine("E1").auditor.divergences == 1
        assert dep.engine("E1").auditor.heals == 0


class TestDeferredHeal:
    def test_heal_deferred_while_handler_in_flight(self):
        dep = build(audit="heal")
        dep.run(until=ms(50))
        engine = dep.engine("E1")
        corrupt_component_state(engine, "enricher")
        import types

        from repro.core.message import DataMessage

        rt = dep.runtime("parser")
        # A busy single-segment handler: busy_info set, mid_call False.
        wid = next(iter(rt.in_wires))
        rt._busy = types.SimpleNamespace(
            generator=None, awaiting_reply=False,
            message=DataMessage(wid, 999_999, dep.sim.now, {"x": 1}),
        )
        try:
            assert engine.auditor.audit_once() == "deferred"
        finally:
            rt._busy = None
        assert engine.auditor.deferred == 1
        assert engine.auditor.heals == 0
        # Detection stood; once the handler clears, the heal lands.
        assert engine.auditor.audit_once() == "healed"
        assert engine.auditor.heals == 1


class TestCorruptComponentState:
    def test_unknown_component_raises(self):
        dep = build(audit="heal")
        dep.run(until=ms(20))
        with pytest.raises(StateError):
            corrupt_component_state(dep.engine("E1"), "ghost")

    def test_counts_corruptions_metric(self):
        dep = build(audit="heal")
        dep.run(until=ms(20))
        corrupt_component_state(dep.engine("E1"), "enricher")
        assert dep.metrics.counter("chaos.corruptions") == 1


class TestCheckpointRetryCap:
    def test_stuck_mid_call_counts_retries_then_stalls(self):
        # A 100ms round trip (2 x 50ms links) pins the frontend mid-call
        # across many 1ms checkpoint intervals: retries must be counted
        # and capped into stalls, never a silent hot loop.
        app = build_callgraph_app()
        dep = Deployment(
            app, Placement({"frontend": "E1", "directory": "E2"}),
            engine_config=EngineConfig(checkpoint_interval=ms(1),
                                       checkpoint_max_retries=4),
            default_link=LinkParams(delay=Constant(ms(50))),
            control_delay=us(5), birth_of=birth_of,
        )
        dep.start()
        dep.ingress("requests").offer({"key": "k", "birth": 0})
        dep.run(until=ms(60))
        assert dep.runtime("frontend").mid_call
        assert dep.metrics.counter("checkpoint.retries") >= 4
        assert dep.metrics.counter("checkpoint.stalls") >= 1
        # Once the call completes, checkpoints flow again.
        dep.run(until=ms(250))
        assert not dep.runtime("frontend").mid_call
        assert dep.metrics.counter("checkpoints_captured") > 0
