"""End-to-end pins on the simulated runtime's exact event order.

Each deployment below is small, fixed-seed and fully deterministic, so
its output streams, final states, scheduler counters and per-link frame
counts are a fingerprint of the kernel's event order and of every RNG
draw.  The pinned values were recorded from a reference build of the
runtime.  An optimisation of the kernel, the link or the scheduler that
reorders one event, or draws one extra random number, changes at least
one of them.

The audited fan-in deployments also pin the checkpoint path: a hash of
every shipped checkpoint blob in send order, the capture and byte
counts, and the divergence audit's check, divergence and heal counts.
``fanin_corrupt`` plants untracked corruption at fixed virtual times,
so its pins cover detection and healing as well.
"""

import hashlib

import pytest

from repro.apps.fanin import (
    build_fanin_app,
    make_fanin_merger_class,
    make_fanin_sender_class,
    request_factory,
)
from repro.apps.pipeline import build_pipeline_app, reading_factory
from repro.apps.wordcount import birth_of
from repro.core.message import CheckpointData
from repro.core.silence_policy import CuriositySilencePolicy
from repro.net.topology import ClusterSpec, stream_of
from repro.runtime.app import Deployment
from repro.runtime.audit import corrupt_component_state
from repro.runtime.engine import EngineConfig
from repro.runtime.placement import Placement
from repro.runtime.transport import LinkParams
from repro.sim.distributions import Normal
from repro.sim.jitter import NormalTickJitter
from repro.sim.kernel import ms, us

LINK = Normal(us(100), us(10))


def _pipeline(seed, span, **link):
    dep = Deployment(
        build_pipeline_app(window=10),
        Placement({"parser": "E1", "enricher": "E1", "aggregator": "E2"}),
        engine_config=ClusterSpec().engine_config(),
        default_link=LinkParams(delay=LINK, **link),
        control_delay=us(5),
        birth_of=birth_of,
        master_seed=seed,
    )
    dep.add_poisson_producer("readings", reading_factory(),
                             mean_interarrival=ms(1), stop_at=span)
    return dep


def _fanin(seed, span, fail_every):
    app = build_fanin_app(2, make_fanin_sender_class(us(300)),
                          make_fanin_merger_class(us(500)))
    config = EngineConfig(
        policy_factory=CuriositySilencePolicy,
        jitter=NormalTickJitter(),
        checkpoint_interval=ms(5),
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
                                 mean_interarrival=us(2500), stop_at=span)
    for k, at in enumerate(range(fail_every, span, fail_every)):
        victim = "E1" if k % 2 == 0 else "E2"
        dep.sim.at(at, lambda v=victim: dep.recovery.engine_failed(v),
                   "test:kill")
    return dep


#: (virtual time, engine, component) of each planted corruption.  A
#: corrupted value cell that its component writes again before the next
#: checkpoint ships in that delta (the audit's documented detection
#: limit), so the first corruption lands under traffic and is absorbed;
#: the rest land after the producers stop at 300 ms and are healed.
CORRUPTIONS = ((ms(100) - us(1), "E2", "merger"),
               (ms(350) + us(1), "E1", "sender1"),
               (ms(420) + us(1), "E2", "merger"),
               (ms(480) + us(1), "E1", "sender2"))


def _fanin_corrupt(seed):
    dep = _fanin(seed, ms(300), fail_every=ms(200))
    for at, engine_id, component in CORRUPTIONS:
        dep.sim.at(at, lambda e=engine_id, c=component:
                   corrupt_component_state(dep.engine(e), c),
                   "test:corrupt")
    return dep


SPAN = ms(600)
DEPLOYMENTS = {
    "pipeline": lambda: _pipeline(3, SPAN),
    "pipeline_lossy": lambda: _pipeline(4, SPAN, loss_prob=0.05,
                                        dup_prob=0.05),
    "fanin_failover": lambda: _fanin(5, SPAN, fail_every=ms(150)),
    "fanin_corrupt": lambda: _fanin_corrupt(6),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:16]


def _record_checkpoints(dep):
    """Hash every checkpoint the deployment ships, in send order."""
    digest = hashlib.sha256()
    send = dep.network.send

    def recording_send(src_id, dst_id, item):
        if isinstance(item, CheckpointData):
            digest.update(f"{src_id}>{dst_id}:{item.cp_seq}:"
                          f"{item.incremental}:{len(item.blob)}:"
                          .encode("utf-8"))
            digest.update(item.blob)
        send(src_id, dst_id, item)

    dep.network.send = recording_send
    return digest


def fingerprint(name):
    """Run one deployment to the end of its drain; summarize it."""
    dep = DEPLOYMENTS[name]()
    audited = name.startswith("fanin")
    if audited:
        blobs = _record_checkpoints(dep)
    dep.run(until=SPAN + ms(100))
    m = dep.metrics
    channels = dep.network.channels()
    audit_pins = {} if not audited else {
        "checkpoint_blobs": blobs.hexdigest()[:16],
        "checkpoints_captured": m.counter("checkpoints_captured"),
        "checkpoint_bytes": m.accumulator("checkpoint_bytes"),
        "audit_checks": m.counter("audit.checks"),
        "audit_divergences": m.counter("audit.divergences"),
        "audit_heals": m.counter("audit.heals"),
    }
    return {
        **audit_pins,
        "streams": _sha({sink: stream_of(c)
                         for sink, c in sorted(dep.consumers.items())}),
        "state": _sha(sorted(dep.state_digest().items())),
        "messages_processed": m.counter("messages_processed"),
        "pessimism_delay_ticks": m.accumulator("pessimism_delay_ticks"),
        "curiosity_probes": m.counter("curiosity_probes"),
        "pessimism_events": m.counter("pessimism_events"),
        "failovers": dep.recovery.failover_count(),
        "frames_sent": {
            f"{src}->{dst}": (ch.data_link.frames_sent,
                              ch.ack_link.frames_sent)
            for (src, dst), ch in sorted(channels.items())},
        "retransmissions": sum(ch.retransmissions
                               for ch in channels.values()),
    }


PINS = {"fanin_corrupt": {"audit_checks": 274,
                          "audit_divergences": 3,
                          "audit_heals": 3,
                          "checkpoint_blobs": "3202f4d606e71630",
                          "checkpoint_bytes": 277753,
                          "checkpoints_captured": 277,
                          "curiosity_probes": 192,
                          "failovers": 1,
                          "frames_sent": {"E1->E2": (445, 445),
                                          "E1->ext:ext1": (139, 139),
                                          "E1->ext:ext2": (139, 139),
                                          "E1->replica:E1": (138, 138),
                                          "E2->E1": (470, 470),
                                          "E2->replica:E2": (139, 139),
                                          "E2->sink": (252, 252),
                                          "ext:ext1->E1": (114, 114),
                                          "ext:ext2->E1": (143, 143),
                                          "replica:E1->E1": (138, 138),
                                          "replica:E2->E2": (139, 139)},
                          "messages_processed": 506,
                          "pessimism_delay_ticks": 38826037,
                          "pessimism_events": 192,
                          "retransmissions": 0,
                          "state": "f68dde1bf7f08ddd",
                          "streams": "3de054017255f8ff"},
        "fanin_failover": {"audit_checks": 270,
                           "audit_divergences": 0,
                           "audit_heals": 0,
                           "checkpoint_blobs": "575850279ff9fb5a",
                           "checkpoint_bytes": 299448,
                           "checkpoints_captured": 275,
                           "curiosity_probes": 350,
                           "failovers": 3,
                           "frames_sent": {"E1->E2": (818, 818),
                                           "E1->ext:ext1": (139, 139),
                                           "E1->ext:ext2": (137, 137),
                                           "E1->replica:E1": (137, 137),
                                           "E2->E1": (626, 626),
                                           "E2->replica:E2": (138, 138),
                                           "E2->sink": (462, 462),
                                           "ext:ext1->E1": (244, 244),
                                           "ext:ext2->E1": (225, 225),
                                           "replica:E1->E1": (137, 137),
                                           "replica:E2->E2": (138, 138)},
                           "messages_processed": 925,
                           "pessimism_delay_ticks": 71251773,
                           "pessimism_events": 349,
                           "retransmissions": 0,
                           "state": "685d292852bd1586",
                           "streams": "a884da81faa0f104"},
        "pipeline": {"curiosity_probes": 0,
                     "failovers": 0,
                     "frames_sent": {"E1->E2": (607, 607),
                                     "E1->ext:readings": (27, 27),
                                     "E1->replica:E1": (96, 96),
                                     "E2->E1": (27, 27),
                                     "E2->replica:E2": (96, 96),
                                     "E2->sink": (60, 60),
                                     "ext:readings->E1": (607, 607),
                                     "replica:E1->E1": (27, 27),
                                     "replica:E2->E2": (27, 27)},
                     "messages_processed": 1821,
                     "pessimism_delay_ticks": 0,
                     "pessimism_events": 0,
                     "retransmissions": 0,
                     "state": "5b47eeeb53de561e",
                     "streams": "2b88803e8c78b1d4"},
        "pipeline_lossy": {"curiosity_probes": 0,
                           "failovers": 0,
                           "frames_sent": {"E1->E2": (652, 669),
                                           "E1->ext:readings": (27, 27),
                                           "E1->replica:E1": (103, 104),
                                           "E2->E1": (32, 32),
                                           "E2->replica:E2": (106, 112),
                                           "E2->sink": (69, 69),
                                           "ext:readings->E1": (595, 595),
                                           "replica:E1->E1": (31, 33),
                                           "replica:E2->E2": (29, 30)},
                           "messages_processed": 1785,
                           "pessimism_delay_ticks": 0,
                           "pessimism_events": 0,
                           "retransmissions": 95,
                           "state": "7f7213002a3eee19",
                           "streams": "8cada31f1846ccb9"}}


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_fingerprint_is_pinned(name):
    assert fingerprint(name) == PINS[name]
