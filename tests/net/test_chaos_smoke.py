"""Seeded chaos against a real multi-process cluster (slow).

Deselected by default (``-m 'not slow'`` in pyproject); CI runs them in
a dedicated job with ``-m slow``.  Each test is one full experiment:
simulate the clean reference, drive the seeded fault schedule against a
live cluster behind the TCP fault proxy, and require the recovered
streams byte-identical to the reference.
"""

import pytest

from repro.chaos.runner import run_chaos
from repro.errors import UnrecoverableClusterError
from repro.net.topology import ClusterSpec

pytestmark = pytest.mark.slow


def chaos_spec() -> ClusterSpec:
    """Small workload, compressed transport timeouts (test-scale)."""
    return ClusterSpec(
        app="pipeline",
        app_args={"window": 10},
        engines=["e0", "e1"],
        replicas=1,
        master_seed=7,
        speed=0.1,
        workload={"readings": {"n_messages": 200,
                               "mean_interarrival_ms": 1.0}},
        connect_timeout_s=0.5,
        handshake_timeout_s=0.5,
        backoff_min_s=0.02,
        backoff_max_s=0.2,
        fence_attempts=10,
        fence_gap_s=0.1,
    )


def run_seed(seed, scenario=None):
    report = run_chaos(chaos_spec(), seed, scenario=scenario,
                       log=lambda line: None)
    assert report["ok"], report.get("verdict", report)
    verdict = report["verdict"]
    assert verdict["byte_identical"]
    assert verdict["exactly_once"]
    assert verdict["converged"]
    assert verdict["delivered"] == verdict["expected"]
    return report


def test_chaos_kill_active_engine():
    report = run_seed(0, "kill_active")
    assert report["scenario"] == "kill_active"


def test_chaos_kill_replica():
    report = run_seed(1, "kill_replica")
    assert report["scenario"] == "kill_replica"


def test_chaos_partition_during_promotion():
    report = run_seed(4, "partition_promotion")
    assert report["scenario"] == "partition_promotion"


def test_chaos_unsurvivable_fails_structured():
    with pytest.raises(UnrecoverableClusterError) as info:
        run_chaos(chaos_spec(), 9, scenario="unsurvivable",
                  log=lambda line: None)
    err = info.value
    assert err.schedule_seed == 9
    # The engine and its whole succession line died.
    assert "and all 1 follower process(es) dead" in err.lost_state
