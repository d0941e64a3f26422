"""``gateway_live``: real processes behind the public ingress gateway.

The benchmark process is the coordinator: it hosts the
:class:`~repro.gateway.server.GatewayServer`, the ingress and the
consumer, and spawns one engine process and one follower process with
the cluster harness's defaults.  An open-loop Poisson fleet of clients
submits at a fixed rate.  The run goes through
:func:`repro.gateway.cluster.run_trial`, so its replay-reference oracle
judges every run.

Client timings are taken from outside the client code: each client's
``run`` is wrapped to learn its epoch, its ``accepted`` table records
when each request was first accepted, and ``codec.encode_gw_submit`` is
wrapped to learn when each request was actually sent.  Every request is
timed from when it was *due*, so a stalled generator cannot hide the
wait it imposed on later requests.
"""

from __future__ import annotations

import contextvars
import statistics
import time
from typing import Dict, List, Optional

from layers import instrument_live, live_layer_metrics
from tracer import Tracer

import repro.gateway.cluster as gateway_cluster
from repro.gateway.client import ClientPlan
from repro.net import codec
from repro.net.channel import OutboundChannel
from repro.net.topology import ClusterSpec

#: Offered load, msgs/sec across the fleet, and the fleet size.
RATE = 1000.0
CLIENTS = 2
#: Aggregator window of the pipeline behind the gateway.
WINDOW = 10
#: Wall seconds a client waits for replies after its last send, and the
#: extra wall seconds a run may take beyond its load: a stalled run ends
#: here and its undelivered messages count as failed.
CLIENT_DRAIN_S = 5.0
STALL_GRACE_S = 15.0

_current_client: contextvars.ContextVar = contextvars.ContextVar(
    "tartbench_client", default=None)


def gateway_spec(seed: int, messages: int) -> ClusterSpec:
    """One engine, one follower, harness defaults, gateway in front."""
    return ClusterSpec(
        app="pipeline",
        app_args={"window": WINDOW},
        engines=["e0"],
        replicas=1,
        master_seed=seed,
        speed=1.0,
        checkpoint_interval_ms=25.0,
        heartbeat_interval_ms=10.0,
        heartbeat_miss_limit=3,
        workload={},
        gateway={
            "max_inflight_msgs": 1024,
            "max_inflight_bytes": 8 * 1024 * 1024,
            "rate_msgs_per_s": 2000.0,
            "rate_burst": 200.0,
            "retry_ms": 50.0,
            "span_ms": max(400.0, messages / RATE * 1000.0),
        },
    )


class _FirstStamp(dict):
    """``accepted`` table that also stamps each request's first ACCEPT."""

    def __init__(self) -> None:
        super().__init__()
        self.at: Dict[int, float] = {}

    def setdefault(self, key, default=None):
        if key not in self:
            self.at[key] = time.monotonic()
        return super().setdefault(key, default)


class LiveProbe:
    """Everything measured around one live run, from outside the code."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.clients: List[Dict] = []
        self.first_offer: Optional[float] = None
        self.sims: List = []
        self.pump_late_us: List[float] = []
        self.channels: List[OutboundChannel] = []
        self.channel_counters: List[Dict] = []
        self.backlog_max = 0
        self._patches: List = []

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        probe = self
        build_clients = gateway_cluster.build_clients
        host_class = gateway_cluster.CoordinatorHost
        encode_submit = codec.encode_gw_submit

        def probed_build_clients(plan, addr, factory):
            clients = build_clients(plan, addr, factory)
            for client in clients:
                record = {"send_at": client.send_at, "t0": None,
                          "sent": {}, "accepted": _FirstStamp()}
                client.stats.accepted = record["accepted"]
                run = client.run

                async def probed_run(t0, _run=run, _record=record):
                    _record["t0"] = t0
                    _current_client.set(_record)
                    return await _run(t0)

                client.run = probed_run
                probe.clients.append(record)
            return clients

        def probed_encode_submit(req, input_id, payload):
            record = _current_client.get()
            if record is not None:
                record["sent"].setdefault(req, time.monotonic())
            return encode_submit(req, input_id, payload)

        class ProbedHost(host_class):
            def __init__(self, spec, runtime):
                super().__init__(spec, runtime)
                probe._attach(self, runtime)

        self._patch(gateway_cluster, "build_clients", probed_build_clients)
        self._patch(gateway_cluster, "CoordinatorHost", ProbedHost)
        self._patch(codec, "encode_gw_submit", probed_encode_submit)
        if self.traced:
            start, close = OutboundChannel.start, OutboundChannel.close

            def probed_start(channel, *args, **kwargs):
                probe.channels.append(channel)
                return start(channel, *args, **kwargs)

            def probed_close(channel, *args, **kwargs):
                probe.channel_counters.append(channel.counters())
                return close(channel, *args, **kwargs)

            self._patch(OutboundChannel, "start", probed_start)
            self._patch(OutboundChannel, "close", probed_close)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _attach(self, host, runtime) -> None:
        """Hook the coordinator's ingresses, and its pump when traced."""
        probe = self
        for ingress in host.deployment.ingresses.values():
            offer = ingress.offer

            def first(*args, _offer=offer, **kwargs):
                if probe.first_offer is None:
                    probe.first_offer = time.perf_counter()
                for other in host.deployment.ingresses.values():
                    vars(other).pop("offer", None)
                return _offer(*args, **kwargs)

            ingress.offer = first
        if not self.traced:
            return
        # The coordinator's simulator has no timed events of its own:
        # network arrivals and admitted submissions reach it through
        # inject(), so the pump is late by the time a callback waits in
        # its inbox.
        self.sims.append(runtime.sim)
        inject = runtime.rtk.inject

        def timed_inject(fn):
            queued = time.perf_counter()

            def run():
                probe.pump_late_us.append(
                    (time.perf_counter() - queued) * 1e6)
                fn()

            for channel in probe.channels:
                probe.backlog_max = max(probe.backlog_max,
                                        channel.backlog())
            inject(run)

        runtime.rtk.inject = timed_inject

    # -- results -------------------------------------------------------------
    def ack_latencies_us(self) -> List[float]:
        out = []
        for record in self.clients:
            t0 = record["t0"]
            for req, at in record["accepted"].at.items():
                out.append((at - (t0 + record["send_at"][req])) * 1e6)
        return out

    def send_lateness_us(self) -> List[float]:
        out = []
        for record in self.clients:
            t0 = record["t0"]
            for req, at in record["sent"].items():
                out.append((at - (t0 + record["send_at"][req])) * 1e6)
        return out

    def pump_lateness_p99_us(self) -> float:
        return percentile(self.pump_late_us, 99)

    def send_lateness_p99_us(self) -> float:
        return percentile(self.send_lateness_us(), 99)


def percentile(values: List[float], q: int) -> float:
    """Linear-interpolation percentile (numpy's default); 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_live(seed: int, seconds: float, trace: bool,
             spans_out=None) -> Dict:
    """One live trial of ``RATE * seconds`` submissions."""
    messages = max(CLIENTS, int(RATE * seconds))
    plan = ClientPlan(n_clients=CLIENTS, total_messages=messages,
                      rate_msgs_per_s=RATE, seed=seed,
                      drain_s=CLIENT_DRAIN_S)
    spec = gateway_spec(seed, messages)
    probe = LiveProbe(traced=trace)
    tracer = Tracer() if trace else None
    probe.install()
    if tracer is not None:
        instrument_live(tracer)
    started = time.perf_counter()
    try:
        result = gateway_cluster.run_trial(
            "gateway_live", spec, plan, kill_engine=None, kill_fraction=0.0,
            deadline_s=plan.duration_s() + STALL_GRACE_S)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.unwrap_all()
        probe.uninstall()
    if tracer is not None and spans_out is not None:
        tracer.write(spans_out)

    clients = result["clients"]
    delivered = sum(result["counts"].values())
    busy = clients["busy_rate"] + clients["busy_shed"]
    admitted = result["gateway"]["accepted"]
    # Each report covers WINDOW admitted readings; readings past the last
    # full window never produce output, live or in the reference.
    undelivered = max(0, admitted // WINDOW - delivered) * WINDOW
    failed = (busy + clients["unresolved"] + undelivered
              + result["exactly_once_violations"]
              + (0 if result["deterministic"] else 1))
    failed = min(failed, messages)
    failures = []
    if result["error"]:
        failures.append(result["error"])
    if not result["deterministic"]:
        failures.append("output differs from the replayed reference"
                        if result["complete"] else
                        f"stalled: {delivered} of {admitted // WINDOW} "
                        f"reports delivered")
    if busy:
        failures.append(f"{busy} submissions refused with BUSY")
    if clients["unresolved"]:
        failures.append(f"{clients['unresolved']} submissions unresolved")
    if result["exactly_once_violations"]:
        failures.append(f"{result['exactly_once_violations']} exactly-once "
                        f"violations")

    acks = probe.ack_latencies_us()
    lat = result["latency"]
    setup_s = ((probe.first_offer or time.perf_counter()) - started)
    out = {
        "workload": "gateway_live",
        "correct": not failures,
        "failures": failures,
        "attempted": messages,
        "failed": failed,
        "offered_msgs_per_s": RATE,
        "clients": CLIENTS,
        "delivered_reports": delivered,
        "latency_samples": lat["samples"],
        "ack_samples": len(acks),
        "epoch_resets": result["epoch_resets"],
        "elapsed_s": result["elapsed_s"],
        "loadgen_lateness_p99_us": probe.send_lateness_p99_us(),
        "e2e": {
            "setup_s": (setup_s, "s"),
            "ack_p50_us": (percentile(acks, 50), "us"),
            "ack_p99_us": (percentile(acks, 99), "us"),
            "delivery_p50_us": (lat["p50_us"] or 0.0, "us"),
            "delivery_p99_us": (lat["p99_us"] or 0.0, "us"),
        },
    }
    if tracer is not None:
        out["layers"] = live_layer_metrics(tracer, probe, admitted)
        out["layers"]["trace.self_sum_s"] = (
            sum(tracer.layer_self_s().values()), "s")
        out["layers"]["trace.wall_s"] = (wall_s, "s")
    return out
