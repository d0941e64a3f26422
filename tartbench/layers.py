"""Which entry points belong to which layer, and the per-layer metrics.

Span names are ``<layer>.<function>``, where the layer is the module's
path under ``src/repro`` with dots (``core.scheduler``).  Each layer is
measured only at public entry points; work done in a layer's private
helpers that are reached from a layer not wrapped here is charged to the
nearest wrapped caller (for example, the link's receive-side bookkeeping
runs from kernel events and is charged to ``sim.kernel``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracer import Tracer

#: metric name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]


def instrument_sim(tracer: Tracer) -> None:
    """Wrap the entry points every simulated deployment runs through."""
    from repro.core.message import CheckpointData
    from repro.core.scheduler import ComponentRuntime
    from repro.runtime import audit, checkpoint, replica, state_merge
    from repro.runtime.app import Deployment
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.external import ExternalConsumer, ExternalIngress
    from repro.runtime.link import RawLink, ReliableChannel
    from repro.runtime.recovery import RecoveryManager
    from repro.runtime.transport import Network
    from repro.sim.kernel import Simulator
    from repro.vt.silence import SilenceMap

    def on_transmit(args, _result) -> None:
        link = args[0]
        tracer.count("link.acks" if link.name.endswith(":ack")
                     else "link.data_frames")

    def on_audit(_args, result) -> None:
        if result == "clean":
            tracer.count("audit.clean")

    def on_replica(args, _result) -> None:
        follower, item = args[0], args[1]
        if isinstance(item, CheckpointData) and follower.rank == 0:
            tracer.count("engine.captures_incremental" if item.incremental
                         else "engine.captures_full")
            tracer.note_max("replica.chain_len", follower.chain_len)

    wrap = tracer.wrap
    wrap(Simulator, "run", "sim.kernel.run")
    for name in ("on_data", "on_silence", "maybe_dispatch",
                 "replay_out_wire"):
        wrap(ComponentRuntime, name, f"core.scheduler.{name}")
    wrap(SilenceMap, "advance", "vt.silence.advance")
    wrap(ReliableChannel, "send", "runtime.link.send")
    wrap(RawLink, "transmit", "runtime.link.transmit", post=on_transmit)
    wrap(Network, "send", "runtime.transport.send")
    wrap(ExecutionEngine, "receive", "runtime.engine.receive")
    wrap(ExecutionEngine, "capture_checkpoint",
         "runtime.engine.capture_checkpoint")
    wrap(checkpoint, "dumps", "runtime.checkpoint.dumps")
    wrap(checkpoint, "loads", "runtime.checkpoint.loads")
    wrap(audit.DivergenceAuditor, "audit_once", "runtime.audit.audit_once",
         post=on_audit)
    # fold_chain is imported by name into its two callers.
    for module in (state_merge, audit, replica):
        wrap(module, "fold_chain", "runtime.state_merge.fold_chain")
    wrap(replica.PassiveReplica, "receive", "runtime.replica.receive",
         post=on_replica)
    wrap(RecoveryManager, "engine_failed", "runtime.recovery.engine_failed")
    wrap(Deployment, "rebuild_engine", "runtime.recovery.rebuild_engine")
    wrap(ExternalIngress, "offer", "runtime.external.offer")
    wrap(ExternalConsumer, "receive", "runtime.external.receive")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_layer_metrics(tracer: Tracer, dep, outputs: int) -> Metrics:
    """Per-layer numbers of one traced simulated run."""
    m = dep.metrics
    spans = tracer.summary()
    layer_self = tracer.layer_self_s()

    def incl(span: str) -> float:
        return spans.get(span, {}).get("incl_s", 0.0)

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    def own(layer: str) -> Tuple[float, str]:
        return (layer_self.get(layer, 0.0), "s")

    processed = m.counter("messages_processed")
    events = dep.sim.events_executed
    attempts = calls("core.scheduler.maybe_dispatch")
    frames = tracer.counts["link.data_frames"]
    acks = tracer.counts["link.acks"]
    audits = m.counter("audit.checks")
    return {
        "sim.kernel.events": (events, "count"),
        "sim.kernel.events_per_msg": (_ratio(events, processed),
                                      "events/msg"),
        "sim.kernel.self_s": own("sim.kernel"),
        "core.scheduler.dispatch_attempts": (attempts, "count"),
        "core.scheduler.dispatches": (processed, "count"),
        "core.scheduler.dispatch_yield": (_ratio(processed, attempts),
                                          "ratio"),
        "core.scheduler.self_s": own("core.scheduler"),
        "core.scheduler.probes_per_msg": (_ratio(
            m.counter("curiosity_probes"), outputs), "probes/msg"),
        "core.scheduler.pessimism_events": (m.counter("pessimism_events"),
                                            "count"),
        "core.scheduler.pessimism_us_per_msg": (_ratio(
            m.accumulator("pessimism_delay_ticks") / 1e3, outputs), "us"),
        "vt.silence.advances": (calls("vt.silence.advance"), "count"),
        "vt.silence.self_s": own("vt.silence"),
        "runtime.link.frames": (frames, "count"),
        "runtime.link.acks": (acks, "count"),
        "runtime.link.acks_per_frame": (_ratio(acks, frames), "ratio"),
        "runtime.link.retransmits": (
            frames - calls("runtime.link.send"), "count"),
        "runtime.link.self_s": own("runtime.link"),
        "runtime.transport.sends": (
            calls("runtime.transport.send"), "count"),
        "runtime.transport.self_s": own("runtime.transport"),
        "runtime.engine.captures_full": (
            tracer.counts["engine.captures_full"], "count"),
        "runtime.engine.captures_incremental": (
            tracer.counts["engine.captures_incremental"], "count"),
        "runtime.engine.checkpoint_bytes": (
            m.accumulator("checkpoint_bytes"), "bytes"),
        "runtime.engine.capture_s": (
            incl("runtime.engine.capture_checkpoint"), "s"),
        "runtime.engine.self_s": own("runtime.engine"),
        "runtime.checkpoint.self_s": own("runtime.checkpoint"),
        "runtime.audit.audits": (audits, "count"),
        "runtime.audit.audit_s": (incl("runtime.audit.audit_once"), "s"),
        "runtime.audit.clean_ratio": (
            _ratio(tracer.counts["audit.clean"], audits), "ratio"),
        "runtime.state_merge.fold_s": (
            incl("runtime.state_merge.fold_chain"), "s"),
        "runtime.replica.receive_s": (incl("runtime.replica.receive"), "s"),
        "runtime.replica.chain_len_max": (
            tracer.maxima.get("replica.chain_len", 0), "count"),
        "runtime.recovery.failovers": (m.counter("failovers_completed"),
                                       "count"),
        "runtime.recovery.rebuild_s": (
            incl("runtime.recovery.rebuild_engine"), "s"),
        "runtime.recovery.messages_replayed": (
            m.counter("messages_replayed"), "count"),
        "runtime.recovery.duplicates_discarded": (
            m.counter("duplicates_discarded"), "count"),
        "runtime.external.self_s": own("runtime.external"),
    }


def instrument_live(tracer: Tracer) -> None:
    """Wrap the coordinator-side entry points of a live gateway run.

    The client fleet shares the benchmark process with the coordinator,
    so ``net.codec`` includes the clients' own encoding and decoding.
    ``read_frame`` is a coroutine (its span would include waiting on
    the socket); its decoding time is taken through
    ``decode_frame_payload``, which it calls.
    """
    from repro.gateway.admission import AdmissionController, TokenBucket
    from repro.net import codec
    from repro.runtime.external import ExternalConsumer, ExternalIngress
    from repro.sim.kernel import Simulator

    def on_encode(_args, result) -> None:
        tracer.count("codec.bytes", len(result))

    def on_decode(args, _result) -> None:
        tracer.count("codec.bytes", len(args[0]))

    def on_admit(args, result) -> None:
        controller = args[0]
        tracer.count("admission.admitted" if result
                     else "admission.refused")
        tracer.note_max("admission.inflight", controller.inflight_msgs)

    def on_allow(_args, result) -> None:
        if not result:
            tracer.count("admission.rate_limited")

    wrap = tracer.wrap
    wrap(Simulator, "run", "sim.kernel.run")
    # FrameEncoder.encode_batch and encode_ack go through encode.
    wrap(codec, "encode_frame", "net.codec.encode_frame", post=on_encode)
    wrap(codec.FrameEncoder, "encode", "net.codec.encode", post=on_encode)
    wrap(codec, "decode_frame_payload", "net.codec.decode_frame_payload",
         post=on_decode)
    wrap(AdmissionController, "admit", "gateway.admission.admit",
         post=on_admit)
    wrap(TokenBucket, "allow", "gateway.admission.allow", post=on_allow)
    wrap(ExternalIngress, "offer", "runtime.external.offer")
    wrap(ExternalConsumer, "receive", "runtime.external.receive")


def live_layer_metrics(tracer: Tracer, probe, accepted: int) -> Metrics:
    """Per-layer numbers of one traced live gateway run.

    ``probe`` is the :class:`live_workload.LiveProbe` of the same run and
    ``accepted`` the gateway's count of accepted submissions.
    """
    spans = tracer.summary()
    layer_self = tracer.layer_self_s()

    def span_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("incl_s", 0.0) for n in names)

    channels = probe.channel_counters
    items = sum(c["items_sent"] for c in channels)
    frames = sum(c["frames_sent"] for c in channels)
    acks = sum(c["acks_received"] for c in channels)
    return {
        "sim.kernel.events": (sum(s.events_executed
                                  for s in probe.sims), "count"),
        "sim.kernel.self_s": (layer_self.get("sim.kernel", 0.0), "s"),
        "net.codec.encode_s": (span_s(
            "net.codec.encode_frame", "net.codec.encode"), "s"),
        "net.codec.decode_s": (
            span_s("net.codec.decode_frame_payload"), "s"),
        "net.codec.bytes": (tracer.counts["codec.bytes"], "bytes"),
        "net.channel.items_per_frame": (_ratio(items, frames), "ratio"),
        "net.channel.acks_per_item": (_ratio(acks, items), "ratio"),
        "net.channel.backlog_max": (probe.backlog_max, "count"),
        "net.channel.epoch_resets": (
            sum(c["epoch_resets"] for c in channels), "count"),
        "gateway.admission.admitted": (
            tracer.counts["admission.admitted"], "count"),
        "gateway.admission.refused": (
            tracer.counts["admission.refused"]
            + tracer.counts["admission.rate_limited"], "count"),
        "gateway.admission.inflight_max": (
            tracer.maxima.get("admission.inflight", 0), "count"),
        "gateway.admission.self_s": (
            layer_self.get("gateway.admission", 0.0), "s"),
        "gateway.server.accepted": (accepted, "count"),
        "runtime.external.self_s": (
            layer_self.get("runtime.external", 0.0), "s"),
        "net.clock.pump_lateness_p99_us": (
            probe.pump_lateness_p99_us(), "us"),
        "loadgen.lateness_p99_us": (probe.send_lateness_p99_us(), "us"),
    }
