"""Unit tests for raw links and the reliability protocol."""

import random

import pytest

from repro.runtime.link import LinkFault, RawLink, ReliableChannel
from repro.sim.distributions import Constant, Uniform
from repro.sim.kernel import Simulator, us


def make_channel(sim, delay=Constant(us(50)), **fault_kwargs):
    received = []
    fault = LinkFault(**fault_kwargs) if fault_kwargs else None
    channel = ReliableChannel(sim, random.Random(7), "test",
                              deliver=received.append, delay=delay,
                              fault=fault)
    return channel, received


class TestRawLink:
    def test_delivers_after_delay(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(us(30)))
        link.transmit("frame", got.append)
        sim.run()
        assert got == ["frame"]
        assert sim.now == us(30)

    def test_loss(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(0),
                       LinkFault(loss_prob=1.0))
        for _ in range(5):
            link.transmit("x", got.append)
        sim.run()
        assert got == []
        assert link.frames_dropped == 5

    def test_duplication(self):
        sim = Simulator()
        got = []
        link = RawLink(sim, random.Random(1), "l", Constant(0),
                       LinkFault(dup_prob=1.0))
        link.transmit("x", got.append)
        sim.run()
        assert got == ["x", "x"]
        assert link.frames_duplicated == 1

    def test_outage_drops_everything(self):
        sim = Simulator()
        got = []
        fault = LinkFault()
        link = RawLink(sim, random.Random(1), "l", Constant(0), fault)
        fault.down = True
        link.transmit("x", got.append)
        fault.down = False
        link.transmit("y", got.append)
        sim.run()
        assert got == ["y"]


class TestReliableChannel:
    def test_in_order_delivery_on_clean_link(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        for i in range(10):
            channel.send(i)
        sim.run()
        assert received == list(range(10))

    def test_recovers_from_heavy_loss(self):
        sim = Simulator()
        channel, received = make_channel(sim, loss_prob=0.4)
        for i in range(50):
            channel.send(i)
        sim.run()
        assert received == list(range(50))
        assert channel.retransmissions > 0
        assert channel.in_flight == 0

    def test_recovers_from_duplication(self):
        sim = Simulator()
        channel, received = make_channel(sim, dup_prob=0.5)
        for i in range(30):
            channel.send(i)
        sim.run()
        assert received == list(range(30))

    def test_recovers_from_reordering(self):
        sim = Simulator()
        channel, received = make_channel(
            sim, reorder_extra=Uniform(0, us(200)))
        for i in range(30):
            channel.send(i)
        sim.run()
        assert received == list(range(30))

    def test_combined_impairments(self):
        sim = Simulator()
        channel, received = make_channel(
            sim, loss_prob=0.2, dup_prob=0.2,
            reorder_extra=Uniform(0, us(150)))
        for i in range(80):
            channel.send(i)
        sim.run()
        assert received == list(range(80))

    def test_exactly_once_within_epoch(self):
        sim = Simulator()
        channel, received = make_channel(sim, dup_prob=0.9)
        for i in range(20):
            channel.send(i)
        sim.run()
        assert len(received) == 20

    def test_reset_starts_new_epoch(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        channel.send("old")
        channel.reset()
        channel.send("new-0")
        channel.send("new-1")
        sim.run()
        # The old-epoch frame may have been in flight; it must not be
        # delivered, and new-epoch seqs restart from zero.
        assert received == ["new-0", "new-1"]

    def test_stale_epoch_frames_ignored(self):
        sim = Simulator()
        channel, received = make_channel(sim, delay=Constant(us(100)))
        channel.send("doomed")
        sim.run(until=us(50))   # frame still in flight
        channel.reset()
        channel.send("fresh")
        sim.run()
        assert received == ["fresh"]

    def test_retransmission_survives_outage(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        fault = channel.data_link.fault
        fault.down = True
        channel.send("x")
        sim.at(us(500), lambda: setattr(fault, "down", False))
        sim.run()
        assert received == ["x"]


class TestRetransmitTimers:
    def test_acked_frames_leave_no_pending_events(self):
        sim = Simulator()
        channel, received = make_channel(sim)
        for i in range(10):
            channel.send(i)
        sim.run(until=us(101))  # one round trip: every frame is acked
        assert received == list(range(10))
        assert channel.in_flight == 0
        assert sim.pending() == 0

    def test_reset_cancels_the_old_epochs_timers(self):
        sim = Simulator()
        channel, received = make_channel(sim, loss_prob=1.0)
        for i in range(5):
            channel.send(i)
        channel.reset()
        assert sim.pending() == 0
        channel.data_link.fault.loss_prob = 0.0
        channel.ack_link.fault.loss_prob = 0.0
        channel.send("fresh")
        sim.run()
        assert received == ["fresh"]

    # Retransmission counts recorded from the reference implementation:
    # cancelling acked frames' timers must not move a single timeout.
    @pytest.mark.parametrize("items, fault, retransmissions", [
        (200, dict(loss_prob=0.2, dup_prob=0.2), 530),
        (200, dict(loss_prob=0.3, dup_prob=0.1,
                   reorder_extra=Uniform(0, us(150))), 627),
        (50, dict(loss_prob=0.4), 152),
    ])
    def test_lossy_delivery_is_exactly_once_with_pinned_retransmissions(
            self, items, fault, retransmissions):
        sim = Simulator()
        channel, received = make_channel(sim, **fault)
        for i in range(items):
            channel.send(i)
        sim.run()
        assert received == list(range(items))
        assert channel.retransmissions == retransmissions
        assert channel.in_flight == 0
        assert sim.pending() == 0
