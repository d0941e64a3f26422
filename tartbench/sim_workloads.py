"""The two simulated workloads: ``pipeline_sim`` and ``fanin_failover_sim``.

Each run of a workload repeats one fixed virtual-time span, built from
the seed, until the requested wall time is used up.  Every repetition
is the same deterministic computation, so virtual-time metrics repeat
exactly and throughput is the median over repetitions.  Correctness is
checked on every repetition against the first one, and for the fan-in
workload against a failure-free twin of the same seed, computed outside
the timed window (the paper's transparency guarantee: failover must not
change the effective output or the final state).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import statistics
import time
from array import array
from typing import Callable, Dict, List, Optional

from layers import instrument_sim, sim_layer_metrics
from tracer import Tracer

from repro.apps.fanin import (
    build_fanin_app,
    make_fanin_merger_class,
    make_fanin_sender_class,
    request_factory,
)
from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of
from repro.core.silence_policy import CuriositySilencePolicy
from repro.net.topology import ClusterSpec, stream_of
from repro.runtime.app import Deployment
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Normal
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, us

#: Virtual time during which inputs arrive, then a drain margin.
PIPELINE_SPAN = ms(10_000)
FANIN_SPAN = ms(10_000)
DRAIN = ms(200)
#: Aggregator window: one report per this many readings.
PIPELINE_WINDOW = 10
#: The paper's 100 us inter-engine link (mean, with 10% deviation).
LINK = Normal(us(100), us(10))
#: Mean gap between requests at each fan-in sender.  At 2.5 ms the
#: merger (500 us per request, two senders) is 40% busy; at the Figure 5
#: default of 1.25 ms it is 80% busy and the p99 latency varies between
#: seeds by a quarter or more, from queueing alone.
FANIN_INTERARRIVAL = us(2500)
#: Failover cadence of the fan-in workload; victims alternate E1, E2.
FAIL_EVERY = ms(500)
#: Checkpoint cadence of the fan-in workload.
FANIN_CHECKPOINT = ms(5)
#: Throughput is timed per CHUNK of virtual time; a fan-in chunk holds
#: one failover.
CHUNK = FAIL_EVERY
#: Iterations of the reference loop that make one reference second.
REF_ITERS_PER_S = 1_000_000
#: Extra set-ups per run (building a deployment takes under a
#: millisecond, too short to time once).
SETUP_SAMPLES = 50

SPANS = {"pipeline_sim": PIPELINE_SPAN, "fanin_failover_sim": FANIN_SPAN}


def build_pipeline(seed: int, span: int) -> Deployment:
    """Parser+enricher on E1, aggregator on E2, Poisson input at 1 ms.

    Engines use the cluster harness's replication settings (one
    follower each, 25 ms checkpoints, heartbeats).
    """
    dep = Deployment(
        build_pipeline_app(window=PIPELINE_WINDOW),
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        engine_config=ClusterSpec().engine_config(),
        default_link=LinkParams(delay=LINK),
        control_delay=us(5),
        birth_of=birth_of,
        master_seed=seed,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1), stop_at=span)
    return dep


def build_fanin(seed: int, span: int, failures: bool = True) -> Deployment:
    """The Figure 5 fan-in with checkpoints, self-healing audit, failovers."""
    app = build_fanin_app(2, make_fanin_sender_class(us(300)),
                          make_fanin_merger_class(us(500)))
    config = EngineConfig(
        policy_factory=CuriositySilencePolicy,
        jitter=NormalTickJitter(),
        checkpoint_interval=FANIN_CHECKPOINT,
        audit="heal",
    )
    dep = Deployment(
        app, Placement({"sender1": "E1", "sender2": "E1", "merger": "E2"}),
        engine_config=config,
        default_link=LinkParams(delay=LINK),
        control_delay=us(5),
        birth_of=birth_of,
        master_seed=seed,
    )
    for i in (1, 2):
        dep.add_poisson_producer(f"ext{i}", request_factory(),
                                 mean_interarrival=FANIN_INTERARRIVAL,
                                 stop_at=span)
    if failures:
        for k, at in enumerate(range(FAIL_EVERY, span, FAIL_EVERY)):
            victim = "E1" if k % 2 == 0 else "E2"
            dep.sim.at(at, lambda v=victim: dep.recovery.engine_failed(v),
                       "bench:kill")
    return dep


BUILDERS: Dict[str, Callable[..., Deployment]] = {
    "pipeline_sim": build_pipeline,
    "fanin_failover_sim": build_fanin,
}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _hook_first_offer(dep: Deployment, stamp: List[float]) -> None:
    """Record the wall time of the first admitted input, then step aside."""
    for ingress in dep.ingresses.values():
        original = ingress.offer

        def first(*args, _original=original, **kwargs):
            if not stamp:
                stamp.append(time.perf_counter())
            for other in dep.ingresses.values():
                vars(other).pop("offer", None)
            return _original(*args, **kwargs)

        ingress.offer = first


class ReferenceLoop:
    """A fixed loop that shares no code with the program.

    On a shared host the machine's speed drifts by a quarter over
    minutes.  This loop slows and speeds up with it, so dividing the
    program's rate by the loop's, measured next to each other, takes
    the drift out.  Like the simulator it pushes tuples through a heap
    and reads and writes a table far larger than the caches; a loop that
    stays in the first-level cache slows more than the simulator does
    and over-corrects.  The collector is off while it runs, so its speed
    does not depend on how many objects the program holds.
    """

    ITERS = 20_000
    SIZE = 1 << 20

    def __init__(self) -> None:
        self.table = array("q", range(self.SIZE))

    def rate(self) -> float:
        """Iterations per wall second, measured now."""
        rand = random.Random(7).random
        table, size = self.table, self.SIZE
        heap: list = []
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            for i in range(self.ITERS):
                j = int(rand() * size)
                value = table[j]
                table[j] = value + 1
                heapq.heappush(heap, (value, i))
                if len(heap) > 128:
                    heapq.heappop(heap)
            elapsed = time.perf_counter() - started
        finally:
            if collecting:
                gc.enable()
        return self.ITERS / elapsed


def setup_once(workload: str, seed: int, span: int) -> float:
    """Seconds to build a deployment and admit its first input."""
    started = time.perf_counter()
    dep = BUILDERS[workload](seed, span)
    first_offer: List[float] = []
    _hook_first_offer(dep, first_offer)
    dep.start()
    while not first_offer and dep.sim.step():
        pass
    return first_offer[0] - started


def run_rep(workload: str, seed: int, span: int, ref: ReferenceLoop,
            tracer: Optional[Tracer] = None, **build_args) -> Dict:
    """Build, run and summarize one repetition.

    The span runs in CHUNK-sized pieces of virtual time, each timed on
    its own right after a run of the reference loop; pausing the
    simulator between pieces changes nothing it computes.
    """
    started = time.perf_counter()
    dep = BUILDERS[workload](seed, span, **build_args)
    first_offer: List[float] = []
    _hook_first_offer(dep, first_offer)
    m = dep.metrics
    chunk_rates: List[float] = []
    ref_rates: List[float] = []
    wall_s = 0.0
    for until in range(CHUNK, span + DRAIN + CHUNK, CHUNK):
        ref_rate = ref.rate()
        before, t0 = m.counter("messages_processed"), time.perf_counter()
        dep.run(until=min(until, span + DRAIN))
        elapsed = time.perf_counter() - t0
        wall_s += elapsed
        if until <= span:  # the drain holds too little work to time
            chunk_rates.append((m.counter("messages_processed") - before)
                               / elapsed)
            ref_rates.append(ref_rate)
    streams = {sink: stream_of(c) for sink, c in dep.consumers.items()}
    outputs = sum(len(s) for s in streams.values())
    rep = {
        "setup_s": first_offer[0] - started,
        "wall_s": wall_s,
        "chunk_rates": chunk_rates,
        "ref_chunk_rates": [rate / ref_rate * REF_ITERS_PER_S
                            for rate, ref_rate in zip(chunk_rates,
                                                      ref_rates)],
        "processed": m.counter("messages_processed"),
        "inputs": sum(p.produced for p in dep.producers),
        "outputs": outputs,
        "streams": _digest(streams),
        "state": _digest(sorted(dep.state_digest().items())),
        "vt_latency_p50_us": m.latency_percentile_us(50),
        "vt_latency_p99_us": m.latency_percentile_us(99),
        "latency_samples": m.latency_count(),
        "pessimism_us_per_msg": (m.accumulator("pessimism_delay_ticks")
                                 / 1e3 / max(1, outputs)),
        "failovers": dep.recovery.failover_count(),
    }
    rep["rep_wall_s"] = time.perf_counter() - started
    if tracer is not None:
        rep["layers"] = sim_layer_metrics(tracer, dep, outputs)
        rep["self_sum_s"] = sum(tracer.layer_self_s().values())
    return rep


_VT_KEYS = ("vt_latency_p50_us", "vt_latency_p99_us", "pessimism_us_per_msg",
            "processed", "inputs", "outputs", "streams", "state")


def run_sim(workload: str, seed: int, seconds: float, trace: bool,
            span: Optional[int] = None, spans_out=None) -> Dict:
    """Run one simulated workload for ``seconds`` of wall time.

    Untraced: repeat the span until the time is used (at least three
    repetitions).  Traced: alternate untraced and traced repetitions (at
    least one of each); the traced ones give the per-layer numbers and,
    against the untraced ones, the tracing overhead.
    """
    span = span or SPANS[workload]
    deadline = time.perf_counter() + seconds
    ref = ReferenceLoop()
    plain: List[Dict] = []
    traced: List[Dict] = []
    tracer = None
    while True:
        if trace and len(traced) < len(plain):
            tracer = Tracer()
            instrument_sim(tracer)
            try:
                traced.append(run_rep(workload, seed, span, ref, tracer))
            finally:
                tracer.unwrap_all()
        else:
            plain.append(run_rep(workload, seed, span, ref))
        enough = (len(traced) >= 1 if trace else len(plain) >= 3)
        if enough and time.perf_counter() >= deadline:
            break

    failures: List[str] = []
    reference = plain[0]
    for i, rep in enumerate(plain[1:] + traced, start=1):
        for key in _VT_KEYS:
            if rep[key] != reference[key]:
                kind = "traced" if i >= len(plain) else "untraced"
                failures.append(f"{kind} repetition {i}: {key} differs "
                                f"from repetition 0")
    if workload == "pipeline_sim":
        expected = reference["inputs"] // PIPELINE_WINDOW
        if reference["outputs"] != expected:
            failures.append(f"pipeline emitted {reference['outputs']} "
                            f"reports for {reference['inputs']} readings "
                            f"(expected {expected})")
    else:
        twin = run_rep(workload, seed, span, ref, failures=False)
        if reference["failovers"] != len(range(FAIL_EVERY, span,
                                               FAIL_EVERY)):
            failures.append(f"{reference['failovers']} failovers completed")
        if reference["outputs"] != reference["inputs"]:
            failures.append(f"{reference['outputs']} responses for "
                            f"{reference['inputs']} requests")
        for key in ("streams", "state"):
            if twin[key] != reference[key]:
                failures.append(f"{key} differs from the failure-free twin")
    if tracer is not None and spans_out is not None:
        tracer.write(spans_out)

    reps = plain + traced
    setups = [r["setup_s"] for r in reps] + [
        setup_once(workload, seed, span) for _ in range(SETUP_SAMPLES)]
    attempted = sum(r["inputs"] for r in reps)
    failed = attempted if failures else 0
    result = {
        "workload": workload,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "span_ms": span / ms(1),
        "inputs_per_rep": reference["inputs"],
        "outputs_per_rep": reference["outputs"],
        "latency_samples": reference["latency_samples"],
        "failovers_per_rep": reference["failovers"],
        "rep_msgs_per_s": [r["processed"] / r["wall_s"] for r in plain],
        "e2e": {
            "setup_s": (statistics.median(setups), "s"),
            "sim_msgs_per_s": (statistics.median(
                rate for r in plain for rate in r["chunk_rates"]), "1/s"),
            "sim_msgs_per_ref_s": (statistics.median(
                rate for r in plain for rate in r["ref_chunk_rates"]),
                "1/ref_s"),
            "vt_latency_p50_us": (reference["vt_latency_p50_us"], "us"),
            "vt_latency_p99_us": (reference["vt_latency_p99_us"], "us"),
            "pessimism_us_per_msg": (reference["pessimism_us_per_msg"],
                                     "us"),
        },
    }
    if traced:
        layers = {}
        for name, (_v, unit) in traced[0]["layers"].items():
            layers[name] = (statistics.median(
                r["layers"][name][0] for r in traced), unit)
        traced_rate = statistics.median(
            rate for r in traced for rate in r["ref_chunk_rates"])
        untraced_rate = result["e2e"]["sim_msgs_per_ref_s"][0]
        layers["trace.overhead_msgs_per_ref_s"] = (
            traced_rate - untraced_rate, "1/ref_s")
        layers["trace.wall_s"] = (
            statistics.median(r["rep_wall_s"] for r in traced), "s")
        layers["trace.self_sum_s"] = (
            statistics.median(r["self_sum_s"] for r in traced), "s")
        result["layers"] = layers
    return result
