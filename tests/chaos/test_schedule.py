"""The seeded schedule format: determinism, lowering, survivability."""

import pytest

from repro.chaos.schedule import (
    ChaosEvent,
    ChaosSchedule,
    SCENARIOS,
    generate_schedule,
)
from repro.errors import ChaosError
from repro.net.topology import ClusterSpec, reference_run


def spec_for_tests(**overrides) -> ClusterSpec:
    params = dict(
        engines=["e0", "e1"],
        replicas=1,
        master_seed=7,
        workload={"readings": {"n_messages": 160,
                               "mean_interarrival_ms": 1.0}},
    )
    params.update(overrides)
    return ClusterSpec(**params)


def test_same_seed_same_schedule():
    spec = spec_for_tests()
    for seed in range(12):
        a = generate_schedule(seed, spec)
        b = generate_schedule(seed, spec)
        assert a.to_json() == b.to_json()
        assert a.log_lines() == b.log_lines()


def test_seed_rotation_covers_every_scenario():
    spec = spec_for_tests()
    seen = [generate_schedule(seed, spec).scenario
            for seed in range(len(SCENARIOS))]
    assert seen == list(SCENARIOS)


def test_json_roundtrip_preserves_events():
    spec = spec_for_tests()
    schedule = generate_schedule(4, spec)  # kill + partition
    clone = ChaosSchedule.from_json(schedule.to_json())
    assert clone.seed == schedule.seed
    assert clone.scenario == schedule.scenario
    assert clone.log_lines() == schedule.log_lines()


def test_events_validate():
    with pytest.raises(ChaosError):
        ChaosEvent("kill", 10.0).validate()  # no target
    with pytest.raises(ChaosError):
        ChaosEvent("partition", 10.0, link=("a",)).validate()
    with pytest.raises(ChaosError):
        ChaosEvent("meteor", 10.0).validate()
    with pytest.raises(ChaosError):
        ChaosEvent("kill", -1.0, target="engine-e0").validate()


def test_lost_state_names_unsurvivable_schedules():
    spec = spec_for_tests()
    assert generate_schedule(0, spec, "kill_active").lost_state(spec) is None
    lost = generate_schedule(0, spec, "unsurvivable").lost_state(spec)
    assert lost is not None and "follower process(es) dead" in lost
    # SIGSTOP without SIGCONT counts as dead ...
    frozen = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="replica-e0"),
    ])
    assert frozen.lost_state(spec) is not None
    # ... but a continued freeze does not.
    thawed = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="replica-e0"),
        ChaosEvent("cont", 7.0, target="replica-e0"),
    ])
    assert thawed.lost_state(spec) is None
    # With no replicas, any engine kill destroys state.
    bare = spec_for_tests(replicas=0)
    killed = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
    ])
    assert "no followers" in killed.lost_state(bare)


def test_expected_hosts_after_kill():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 5.0, target="engine-e0"),
        ChaosEvent("stop", 6.0, target="engine-e1"),
        ChaosEvent("cont", 9.0, target="engine-e1"),
    ])
    expected = schedule.expected_hosts(spec)
    assert expected["e0"] == "replica-e0"
    assert expected["e1"] is None  # stop/cont duel: either may win


def test_sim_lowering_keeps_content_faults_only():
    spec = spec_for_tests()
    schedule = ChaosSchedule(events=[
        ChaosEvent("kill", 50.0, target="engine-e1"),
        ChaosEvent("kill", 55.0, target="replica-e0"),  # no sim analogue
        ChaosEvent("partition", 60.0, link=("coordinator", "engine-e0"),
                   duration_ms=20.0),
        ChaosEvent("latency", 70.0, link=("coordinator", "engine-e0"),
                   delay_ms=5.0, duration_ms=10.0),
        ChaosEvent("reset", 80.0, link=("coordinator", "engine-e0")),
    ])
    lowered = schedule.sim_events(spec)
    kinds = [event["kind"] for event in lowered]
    assert kinds == ["kill", "partition"]
    assert lowered[0]["node"] == "e1"
    assert lowered[1]["duration_ticks"] == 20_000_000
    assert "e0" in lowered[1]["b_nodes"]


def test_sim_replay_of_kill_schedule_matches_clean_reference():
    """The sim half of the shared-schedule contract: a survivable kill
    schedule applied in-simulator still yields the reference stream."""
    from repro.chaos.runner import simulate_with_schedule

    spec = spec_for_tests()
    schedule = generate_schedule(0, spec, "kill_active")
    reference = reference_run(spec)
    observed = simulate_with_schedule(spec, schedule)
    assert observed == reference


def test_stall_budget_counts_windows():
    schedule = ChaosSchedule(events=[
        ChaosEvent("partition", 10.0, link=("a", "b"), duration_ms=40.0),
        ChaosEvent("latency", 20.0, link=("a", "b"), delay_ms=1.0,
                   duration_ms=99.0),  # latency does not stall
    ])
    assert schedule.stall_budget_s(speed=0.1) == pytest.approx(0.4)


class TestCorruptScenario:
    def test_appended_last_keeps_historical_seed_mapping(self):
        # Adding corrupt_state must not reshuffle which scenario a
        # historical seed selects — it is appended, never inserted.
        assert list(SCENARIOS) == [
            "kill_active", "kill_replica", "partition_heal",
            "double_fault", "partition_promotion", "latency_throttle",
            "stop_cont", "corrupt_state", "group_leader_kill",
            "leader_then_follower_kill",
        ]
        spec = spec_for_tests()
        assert generate_schedule(7, spec).scenario == "corrupt_state"

    def test_generator_targets_the_enricher(self):
        from repro.net.topology import component_placement

        spec = spec_for_tests()
        schedule = generate_schedule(7, spec, "corrupt_state")
        (event,) = schedule.events
        assert event.kind == "corrupt"
        assert event.component == "enricher"
        placement = component_placement(spec)
        assert event.target == f"engine-{placement['enricher']}"

    def test_component_survives_json_roundtrip(self):
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e0",
                       component="enricher"),
        ], seed=7, scenario="corrupt_state")
        clone = ChaosSchedule.from_json(schedule.to_json())
        (event,) = clone.events
        assert event.component == "enricher"
        assert "component=enricher" in event.log_line()

    def test_validation_requires_target(self):
        with pytest.raises(ChaosError):
            ChaosEvent("corrupt", 10.0).validate()
        ChaosEvent("corrupt", 10.0, target="engine-e0").validate()

    def test_corrupt_is_non_lethal(self):
        spec = spec_for_tests()
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e0",
                       component="enricher"),
        ])
        assert schedule.lost_state(spec) is None
        assert schedule.expected_hosts(spec)["e0"] == "engine-e0"

    def test_sim_lowering_carries_component(self):
        spec = spec_for_tests()
        schedule = ChaosSchedule(events=[
            ChaosEvent("corrupt", 30.0, target="engine-e1",
                       component="enricher"),
            ChaosEvent("corrupt", 35.0, target="replica-e0"),  # no analogue
        ])
        lowered = schedule.sim_events(spec)
        assert len(lowered) == 1
        assert lowered[0]["kind"] == "corrupt"
        assert lowered[0]["node"] == "e1"
        assert lowered[0]["component"] == "enricher"
        assert lowered[0]["at_ticks"] == 30_000_000

    def test_sim_replay_heals_and_matches_clean_reference(self):
        """The sim half of the contract for corruption: the schedule's
        untracked state corruption is healed by the audit and the output
        stays byte-identical to the failure-free reference."""
        from repro.chaos.runner import simulate_with_schedule

        spec = spec_for_tests(audit="heal")
        schedule = generate_schedule(7, spec, "corrupt_state")
        reference = reference_run(spec)
        observed = simulate_with_schedule(spec, schedule)
        assert observed == reference


class TestGatewayClientReset:
    """The gateway's client-reset scenario (extra rotation, opt-in)."""

    def gateway_spec(self, **gateway):
        params = {"span_ms": 500.0}
        params.update(gateway)
        return spec_for_tests(workload={}, gateway=params)

    def test_same_seed_same_schedule(self):
        spec = self.gateway_spec()
        a = generate_schedule(3, spec, "gateway_client_reset")
        b = generate_schedule(3, spec, "gateway_client_reset")
        assert a.to_json() == b.to_json()

    def test_resets_the_clients_gateway_link_mid_burst(self):
        spec = self.gateway_spec()
        schedule = generate_schedule(3, spec, "gateway_client_reset")
        (event,) = schedule.events
        assert event.kind == "reset"
        assert event.link == ("clients", "gateway")
        # Mid-burst: inside 35..65% of the planned client span.
        assert 0.35 * 500.0 <= event.at_ms <= 0.65 * 500.0

    def test_span_falls_back_when_gateway_span_missing(self):
        spec = self.gateway_spec()
        del spec.gateway["span_ms"]
        (event,) = generate_schedule(
            3, spec, "gateway_client_reset").events
        assert 0.35 * 400.0 <= event.at_ms <= 0.65 * 400.0

    def test_not_in_seed_rotation(self):
        # Opt-in only: historical seeds must keep their scenarios.
        spec = self.gateway_spec()
        for seed in range(len(SCENARIOS)):
            assert generate_schedule(seed, spec).scenario \
                != "gateway_client_reset"

    def test_reset_is_non_lethal_and_survivable(self):
        spec = self.gateway_spec()
        schedule = generate_schedule(3, spec, "gateway_client_reset")
        assert schedule.lost_state(spec) is None
        # No sim analogue: client resets never reach the simulator.
        assert schedule.sim_events(spec) == []


class TestGroupScenarios:
    """Sharded-group failover scenarios (rotation seeds 8 and 9)."""

    def group_spec(self, followers=2, engines=3):
        return spec_for_tests(engines=[f"e{i}" for i in range(engines)],
                              followers_per_group=followers)

    def test_rotation_picks_group_scenarios(self):
        spec = self.group_spec()
        assert generate_schedule(8, spec).scenario == "group_leader_kill"
        assert generate_schedule(9, spec).scenario \
            == "leader_then_follower_kill"

    def test_group_leader_kill_targets_a_hosting_engine(self):
        from repro.net.topology import component_placement

        spec = self.group_spec()
        schedule = generate_schedule(8, spec, "group_leader_kill")
        (event,) = schedule.events
        assert event.kind == "kill"
        hosting = set(component_placement(spec).values())
        assert event.target[len("engine-"):] in hosting
        assert schedule.lost_state(spec) is None

    def test_second_kill_targets_rank_zero_follower(self):
        spec = self.group_spec(followers=2)
        schedule = generate_schedule(9, spec, "leader_then_follower_kill")
        first, second = schedule.ordered()
        victim = first.target[len("engine-"):]
        assert second.target == f"replica-{victim}"
        assert second.at_ms > first.at_ms
        # Rank 1 survives, so state is never lost.
        assert schedule.lost_state(spec) is None

    def test_second_kill_withheld_with_single_follower(self):
        spec = self.group_spec(followers=1)
        schedule = generate_schedule(9, spec, "leader_then_follower_kill")
        assert len(schedule.events) == 1
        assert schedule.lost_state(spec) is None

    def test_lost_state_when_whole_group_dies(self):
        spec = self.group_spec(followers=2)
        dead = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 6.0, target="replica-e0"),
            ChaosEvent("kill", 7.0, target="replica-e0.1"),
        ])
        assert dead.lost_state(spec) is not None
        survivable = ChaosSchedule(events=dead.events[:2])
        assert survivable.lost_state(spec) is None

    def test_expected_hosts_walk_the_succession_line(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 50.0, target="replica-e0"),
        ])
        assert schedule.expected_hosts(spec)["e0"] == "replica-e0.1"

    def test_sim_lowering_is_promotion_aware(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="engine-e0"),
            ChaosEvent("kill", 50.0, target="replica-e0"),
            ChaosEvent("kill", 90.0, target="replica-e0.1"),
        ])
        lowered = schedule.sim_events(spec)
        # Each kill of the *current* host lowers to an engine kill.
        assert [e["kind"] for e in lowered] == ["kill"] * 3
        assert [e["node"] for e in lowered] == ["e0"] * 3

    def test_idle_follower_kill_has_no_sim_analogue(self):
        spec = self.group_spec(followers=2)
        schedule = ChaosSchedule(events=[
            ChaosEvent("kill", 5.0, target="replica-e0.1"),
        ])
        assert schedule.sim_events(spec) == []
        assert schedule.expected_hosts(spec)["e0"] == "engine-e0"


class TestDoubleFault:
    """``double_fault`` sizes its second kill by ``spec.followers()``."""

    @pytest.mark.parametrize("followers_per_group, replicas, kills", [
        (None, 1, 2),
        (1, 0, 2),
        (2, 0, 2),
        (0, 1, 1),
        (None, 0, 1),
    ])
    def test_second_kill_follows_the_follower_count(
            self, followers_per_group, replicas, kills):
        from repro.net.topology import plan_cluster_nodes

        spec = spec_for_tests(engines=["e0", "e1", "e2"], replicas=replicas,
                              followers_per_group=followers_per_group)
        processes = set(plan_cluster_nodes(spec))
        for seed in range(20):
            schedule = generate_schedule(seed, spec, "double_fault")
            assert len(schedule.events) == kills, seed
            for event in schedule.events:
                assert event.target in processes, (seed, event.target)

    @pytest.mark.parametrize("engines, rotation, double_fault", [
        (2, "959390169b4934c3927cafb6d8f150534719458d5f93c6b8ef6b500bb54e61f4",
         "f68734a2da0a20310eb854fa9efcd0ebbdab7e3701acc5f094f280b54df8531b"),
        (3, "c6b7d1cb4159166afcb61c8059267cf921114722173ad8ee5643ff99a18e03ec",
         "b8f55861cd98450a8b790ec2056baef53d9c8638c789368367d67fc441fbec8c"),
    ])
    def test_default_spec_schedules_are_pinned(self, engines, rotation,
                                               double_fault):
        """Seeds 0-19 keep their bytes, so saved schedules still replay."""
        import hashlib

        spec = spec_for_tests(engines=[f"e{i}" for i in range(engines)])

        def digest(scenario):
            h = hashlib.sha256()
            for seed in range(20):
                h.update(generate_schedule(seed, spec, scenario)
                         .to_json().encode())
            return h.hexdigest()

        assert digest(None) == rotation
        assert digest("double_fault") == double_fault
