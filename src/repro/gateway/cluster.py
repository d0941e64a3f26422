"""Gateway acceptance harness: real clients, real cluster, replayed oracle.

``python -m repro.gateway.cluster`` (also reachable as ``python -m
repro.net.cluster --gateway``) is the end-to-end proof for the public
ingress path.  It differs from the producer-driven harness in one
fundamental way: external submissions arrive at *wall-clock* times over
real sockets, so no seeded simulation can predict the ingress log up
front.  The determinism oracle therefore runs **after** the live run:

1. run the shared coordinator lifecycle
   (:class:`~repro.net.cluster.ClusterRun`) with a :class:`~repro.gateway
   .server.GatewayServer` in front of the coordinator's ingresses
   (:class:`GatewayRun`);
2. drive it with a fleet of open-loop TCP clients (:mod:`repro.gateway
   .client`), optionally SIGKILLing the active engine mid-stream or
   resetting client connections through the chaos proxy;
3. replay the gateway's shadow log — every admitted ``(seq, vt,
   stamped payload)`` — into a *fresh pure simulation* at the recorded
   virtual times (:func:`replay_reference`).  Because the ingress stamp
   is ``vt = max(now, last_vt + 1)`` and the recorded stamps are
   strictly increasing per wire, the replay reproduces the ingress log
   exactly, and a deterministic engine must then reproduce the consumer
   stream byte for byte;
4. wait for the live consumers to reach the replayed counts and judge
   the streams with :func:`~repro.tools.verify_determinism
   .verify_trace_equivalence`, plus the client-side exactly-once checks
   (no conflicting ACCEPTs, no duplicated ingress sequence numbers).

Failover transparency is judged from the client ledger: across a
``--kill-active`` run the fleet must report zero reconnects — client
connections terminate at the gateway, which never dies, so an engine
failover is invisible at the socket layer.

Gateway runs default to ``speed=1.0`` (one simulated tick per real
nanosecond), so consumer latency percentiles come out in honest
microseconds of admission-to-delivery time.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.net.cluster import (
    ClusterRun,
    CoordinatorHost,
    add_cluster_args,
    add_trial_args,
    free_port,
    kill_target,
    log,
    plan_trials,
    run_trials,
    with_addresses,
)
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    ClusterSpec,
    build_deployment,
    plan_cluster_nodes,
    stream_of,
)
from repro.sim.kernel import ms
from repro.gateway.client import (
    ClientPlan,
    build_clients,
    exactly_once_violations,
    fleet_summary,
)
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.tools.verify_determinism import verify_trace_equivalence

#: Extra wall seconds between the GO epoch and the first client send,
#: so every engine is ticking before load arrives.
CLIENT_LEAD_S = 0.25

#: Simulated drain margin appended after the last replayed stamp.
_REPLAY_DRAIN_TICKS = ms(2000)


def gateway_payload_factory(n_devices: int = 8, n_fields: int = 4):
    """Client payloads for the pipeline app: readings *without* birth.

    The gateway's ingress stamp supplies ``birth = vt`` at admission —
    a client cannot know its own admission time, and letting it claim
    one would corrupt the latency metric.
    """

    def factory(rng, index: int) -> Dict:
        return {
            "device": f"dev{rng.randrange(n_devices)}",
            "fields": [rng.randrange(100) for _ in range(n_fields)],
        }

    return factory


def replay_reference(spec: ClusterSpec,
                     shadow: Dict[str, List[Tuple[int, int, Any]]]
                     ) -> Dict[str, List[Tuple]]:
    """Re-simulate the shadow log; return the reference output streams.

    Offers each recorded stamped payload at its recorded virtual time in
    a fresh deployment of the same spec.  At tick ``vt`` the ingress
    assigns ``max(now, last_vt + 1) = vt`` (stamps are strictly
    increasing per wire), so the replayed ingress log — sequence
    numbers, virtual times, payload bytes — is identical to the live
    one, and the consumer streams are the ground truth the networked
    run must have produced.
    """
    dep = build_deployment(spec)
    last_vt = 0
    for input_id, entries in shadow.items():
        ingress = dep.ingresses[input_id]
        for _seq, vt, payload in entries:
            dep.sim.at(
                vt,
                lambda ing=ingress, p=payload: ing.offer(p),
                label=f"replay:{input_id}",
            )
            last_vt = max(last_vt, vt)
    dep.run(until=last_vt + _REPLAY_DRAIN_TICKS)
    return {sink: stream_of(consumer)
            for sink, consumer in dep.consumers.items()}


class GatewayRun(ClusterRun):
    """The cluster lifecycle with the gateway and a client fleet in front.

    The kill trigger counts admissions instead of outputs, and the
    reference counts come from replaying the shadow log once the fleet
    is done.  ``chaos`` is an optional
    :class:`~repro.chaos.runner.ChaosDriver` whose proxy has been planned
    to front the gateway (see :func:`gateway_front`).
    """

    kill_key = "at_accepted"

    def __init__(self, spec: ClusterSpec, plan: ClientPlan, **kwargs):
        super().__init__(spec, {}, **kwargs)
        self.plan = plan
        self.client_stats: List = []
        self.shadow: Dict[str, List[Tuple]] = {}
        self.reference: Dict[str, List[Tuple]] = {}

    def make_host(self, runtime: ProcessRuntime) -> CoordinatorHost:
        # The module attribute, looked up now, so a patched class applies.
        host = CoordinatorHost(self.spec, runtime)
        for consumer in host.consumers.values():
            consumer.birth_of = _birth_of
        return host

    async def open_front(self) -> None:
        # Built after the host, so it captures the host's ``inject``.
        self.gateway = GatewayServer(
            "gateway",
            ingresses=dict(self.host.deployment.ingresses),
            inject=self.runtime.rtk.inject,
            metrics=self.host.deployment.metrics,
            config=GatewayConfig.from_spec(self.spec),
            congested=self.runtime.transport.congested,
        )
        await self.gateway.start()

    async def close_front(self) -> None:
        await self.gateway.close()

    def kill_progress(self) -> Tuple[int, int]:
        return self.gateway.accepted(), self.plan.total_messages

    async def drive(self) -> None:
        """Run the fleet, replay what it got admitted, await the output."""
        loop = asyncio.get_running_loop()
        clients = build_clients(self.plan, self.spec.gateway_addr(),
                                gateway_payload_factory())
        client_t0 = time.monotonic() + (self.t0 - time.time()) + CLIENT_LEAD_S
        fleet = asyncio.gather(*(
            loop.create_task(c.run(client_t0), name=f"client:{c.client_id}")
            for c in clients
        ), return_exceptions=True)
        if not await self.watch(fleet.done):
            fleet.cancel()
            raise RuntimeError(
                f"clients still running at the {self.deadline_s}s deadline"
            )
        for outcome in fleet.result():
            if isinstance(outcome, BaseException):
                raise outcome
            self.client_stats.append(outcome)

        # Freeze the admitted-work record and replay it (CPU-bound, in
        # a worker thread) while the live consumers finish draining.
        self.shadow = {input_id: list(entries)
                       for input_id, entries in self.gateway.shadow.items()}
        self.reference = await loop.run_in_executor(
            None, replay_reference, self.spec, self.shadow
        )
        self.ref_counts = {sink: len(s) for sink, s in self.reference.items()}
        await super().drive()
        if not self.result["complete"]:
            raise RuntimeError(
                f"consumers at {self.host.counts()} of {self.ref_counts} "
                f"at the {self.deadline_s}s deadline"
            )

    def report(self) -> Dict:
        metrics = self.host.deployment.metrics
        samples = metrics.latency_count()
        return dict(
            reference=self.reference,
            gateway=self.gateway.report(),
            clients=fleet_summary(self.client_stats),
            exactly_once_violations=exactly_once_violations(
                self.client_stats, self.gateway.shadow
            ),
            latency={
                "samples": samples,
                "p50_us": _pct(metrics, 50.0, samples),
                "p99_us": _pct(metrics, 99.0, samples),
                "p999_us": _pct(metrics, 99.9, samples),
            },
            shadow=self.shadow,
        )


def _birth_of(payload: Any) -> Optional[int]:
    if isinstance(payload, dict):
        return payload.get("birth")
    return None


def _pct(metrics, q: float, samples: int) -> Optional[float]:
    if samples == 0:
        return None
    return round(metrics.latency_percentile_us(q), 3)


def gateway_front(spec: ClusterSpec):
    """Front the gateway's dial address with a fault proxy.

    Returns ``(run_spec, proxy)``: a deep copy of ``spec`` whose
    ``gateway.host/port`` is a proxy front while the gateway itself
    binds its real address via ``gateway.listen``; the proxy forwards
    and applies the ``("clients", "gateway")`` link policy.  Engine and
    replica links stay direct — gateway chaos scenarios fault the edge,
    not the interior (``repro.chaos`` covers the interior).
    """
    from repro.chaos.proxy import FaultProxy

    run_spec = ClusterSpec.from_json(spec.to_json())
    real = run_spec.gateway_addr()
    front = ("127.0.0.1", free_port())
    proxy = FaultProxy()
    proxy.plan("gateway", real, front)
    run_spec.gateway["listen"] = real
    run_spec.gateway["host"], run_spec.gateway["port"] = front
    return run_spec, proxy


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def build_gateway_spec(args: argparse.Namespace,
                       plan: ClientPlan) -> ClusterSpec:
    span_ms = max(400.0, plan.duration_s() * 1000.0)
    return ClusterSpec(
        app="pipeline",
        app_args={"window": args.window},
        engines=[f"e{i}" for i in range(args.engines)],
        replicas=args.replicas,
        followers_per_group=getattr(args, "followers", None),
        master_seed=args.seed,
        # One tick per nanosecond: latency percentiles in real us.
        speed=1.0,
        checkpoint_interval_ms=args.checkpoint_ms,
        heartbeat_interval_ms=args.heartbeat_ms,
        heartbeat_miss_limit=args.heartbeat_miss,
        workload={},
        gateway={
            "max_inflight_msgs": args.max_inflight,
            "max_inflight_bytes": args.max_inflight_bytes,
            "rate_msgs_per_s": args.client_rate,
            "rate_burst": args.client_burst,
            "retry_ms": args.retry_ms,
            "span_ms": span_ms,
        },
    )


def run_trial(label: str, spec: ClusterSpec, plan: ClientPlan,
              kill_engine: Optional[str], kill_fraction: float,
              deadline_s: float,
              chaos_seed: Optional[int] = None,
              record_dir: Optional[str] = None) -> Dict:
    """One addressed live run + verification; returns the trial report."""
    run_spec, chaos = with_addresses(spec), None
    if chaos_seed is not None:
        from repro.chaos.runner import ChaosDriver
        from repro.chaos.schedule import generate_schedule

        run_spec, proxy = gateway_front(run_spec)
        schedule = generate_schedule(
            chaos_seed, run_spec, scenario="gateway_client_reset"
        )
        chaos = ChaosDriver(schedule, proxy, run_spec)
    result = asyncio.run(GatewayRun(
        run_spec, plan, kill_engine=kill_engine, kill_fraction=kill_fraction,
        deadline_s=deadline_s, chaos=chaos,
    ).run())
    shadow = result.pop("shadow", {})
    if record_dir is not None and shadow:
        # Gateway bundles replay the admission shadow log (the spec has
        # no seeded workload), re-executed under the replay-clock tracer.
        from repro.runtime.flightrec import record_run

        bundle = record_run(
            spec, Path(record_dir) / label, external=shadow,
            seed=spec.master_seed, source="gateway",
        )
        result["bundle"] = str(bundle)
        log(f"{label}: wrote replay bundle {bundle}")
    verdict = verify_trace_equivalence(
        result.pop("reference"), result.pop("streams"), trial=label,
        require_complete=True,
    )
    result["deterministic"] = verdict.deterministic
    if not verdict.deterministic:
        result["divergence"] = verdict.summary()
    ok = (verdict.deterministic
          and result["complete"]
          and result["error"] is None
          and result["exactly_once_violations"] == 0
          and result["clients"]["unresolved"] == 0)
    if kill_engine is not None:
        # Failover transparency: the engine died, yet no client socket
        # so much as blinked.
        ok = ok and result["killed"] is not None
        ok = ok and result["clients"]["reconnects"] == 0
    result["ok"] = ok
    return result


def report_trial(label: str, kill_engine: Optional[str],
                 chaos_seed: Optional[int] = None, *,
                 spec: ClusterSpec, plan: ClientPlan,
                 args: argparse.Namespace, deadline_s: float) -> Dict:
    """:func:`run_trial` with the CLI's progress and status lines."""
    log(f"{label}: launching {len(plan_cluster_nodes(spec)) - 1} child "
        f"process(es), {plan.n_clients} client(s), {plan.total_messages} "
        f"submission(s) ...")
    result = run_trial(label, spec, plan, kill_engine, args.kill_fraction,
                       deadline_s, chaos_seed=chaos_seed,
                       record_dir=args.record)
    lat = result["latency"]
    gw = result["gateway"]
    log(f"{label}: {'OK' if result['ok'] else 'FAIL'} — "
        f"{sum(result['counts'].values())} "
        f"outputs in {result['elapsed_s']}s; accepted="
        f"{gw['accepted']} shed={gw['shed']} rate_limited="
        f"{gw['rate_limited']} dup={gw['duplicates']}; "
        f"p50={lat['p50_us']}us p99={lat['p99_us']}us "
        f"p999={lat['p999_us']}us; stutter={result['stutter']}, "
        f"reconnects={result['clients']['reconnects']}, "
        f"violations={result['exactly_once_violations']}"
        + (f"; killed {result['killed']['engine']} after "
           f"{result['killed']['at_accepted']} admissions"
           if result["killed"] else ""))
    if "divergence" in result:
        log(result["divergence"])
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway.cluster",
        description="Drive a real cluster through the public ingress "
                    "gateway with open-loop TCP clients and verify the "
                    "output against a pure-sim replay of the gateway's "
                    "admission log.",
    )
    add_cluster_args(parser, workload=False)
    add_trial_args(parser)
    parser.add_argument("--clients", type=int, default=16,
                        help="number of concurrent external clients")
    parser.add_argument("--rate", type=float, default=400.0,
                        help="aggregate open-loop offered rate in "
                             "msgs/sec (<= 0: synchronized burst)")
    parser.add_argument("--client-reset", type=int, default=None,
                        metavar="SEED",
                        help="run the seeded gateway_client_reset chaos "
                             "scenario: client connections are hard-"
                             "closed mid-burst through the fault proxy")
    parser.add_argument("--max-inflight", type=int, default=1024,
                        help="admission cap on in-flight messages")
    parser.add_argument("--max-inflight-bytes", type=int,
                        default=8 * 1024 * 1024)
    parser.add_argument("--client-rate", type=float, default=2000.0,
                        help="per-client token bucket refill (msgs/sec)")
    parser.add_argument("--client-burst", type=float, default=200.0)
    parser.add_argument("--retry-ms", type=float, default=50.0)
    args = parser.parse_args(argv)

    plan = ClientPlan(
        n_clients=args.clients,
        total_messages=args.messages,
        rate_msgs_per_s=args.rate,
        seed=args.seed,
    )
    spec = build_gateway_spec(args, plan)
    kill_engine = kill_target(parser, args, spec)
    deadline_s = args.timeout or max(60.0, 6.0 * plan.duration_s() + 30.0)
    resets = [] if args.client_reset is None else [(
        f"gateway-reset-{args.client_reset}",
        {"kill_engine": None, "chaos_seed": args.client_reset},
    )]
    return run_trials(
        args, "gateway", plan_trials("gateway", args, kill_engine, resets),
        functools.partial(report_trial, spec=spec, plan=plan, args=args,
                          deadline_s=deadline_s),
        {"plan": {"clients": plan.n_clients,
                  "messages": plan.total_messages,
                  "rate_msgs_per_s": plan.rate_msgs_per_s},
         "trials": {}},
        "all trials byte-identical to the replayed reference",
    )


if __name__ == "__main__":
    sys.exit(main())
