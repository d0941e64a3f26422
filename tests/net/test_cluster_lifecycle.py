"""Coordinator teardown when children never come up.

Children that never print READY must fail the run with an error naming
the child, and teardown must still reap every child and remove the
temporary spec file, for producer-driven and gateway-fronted runs alike.
"""

import asyncio
import sys
import tempfile

import pytest

import repro.gateway.cluster as gateway_cluster
import repro.net.cluster as net_cluster
from repro.gateway.client import ClientPlan
from repro.net.topology import ClusterSpec, plan_cluster_nodes


@pytest.fixture
def silent_children(monkeypatch, tmp_path):
    """Spawn children that sleep instead of printing READY."""
    spawned = {"children": [], "spec_paths": []}

    def spawn(spec, spec_path):
        spawned["spec_paths"].append(spec_path)
        children = {
            name: net_cluster.ChildProcess(
                name, [sys.executable, "-c", "import time; time.sleep(2)"],
                env=None)
            for name in plan_cluster_nodes(spec) if name != "coordinator"
        }
        spawned["children"].extend(children.values())
        return children

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    # Patched wherever a harness looks them up.
    for module in (net_cluster, gateway_cluster):
        if hasattr(module, "spawn_children"):
            monkeypatch.setattr(module, "spawn_children", spawn)
        if hasattr(module, "READY_TIMEOUT_S"):
            monkeypatch.setattr(module, "READY_TIMEOUT_S", 0.3)
    return spawned


def _assert_torn_down(result, spawned, tmp_path):
    assert "engine-e0" in (result["error"] or ""), result["error"]
    assert "not READY" in result["error"]
    assert not result["complete"]
    assert spawned["children"]
    assert all(child.proc.returncode is not None
               for child in spawned["children"])
    (spec_path,) = spawned["spec_paths"]
    assert spec_path.parent == tmp_path
    assert not list(tmp_path.glob("*-spec-*"))


def test_producer_run_tears_down_silent_children(silent_children, tmp_path):
    spec = ClusterSpec(engines=["e0"], replicas=0, workload={
        "readings": {"n_messages": 5, "mean_interarrival_ms": 1.0}})
    result = asyncio.run(net_cluster.run_networked(
        net_cluster.with_addresses(spec), {"reports": 1}, deadline_s=5.0))
    _assert_torn_down(result, silent_children, tmp_path)


def test_gateway_run_tears_down_silent_children(silent_children, tmp_path):
    spec = ClusterSpec(engines=["e0"], replicas=0, speed=1.0, workload={},
                       gateway={"span_ms": 400.0})
    plan = ClientPlan(n_clients=1, total_messages=2, rate_msgs_per_s=100.0,
                      seed=1)
    result = gateway_cluster.run_trial("silent", spec, plan, None, 0.4, 5.0)
    _assert_torn_down(result, silent_children, tmp_path)
