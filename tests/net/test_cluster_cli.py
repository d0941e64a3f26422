"""CLI plumbing of the three live harnesses, with every run stubbed out.

``python -m repro.net.cluster --gateway`` and ``--chaos`` hand the
user's flags to the gateway and chaos parsers: each flag reaches the
harness or is refused by argparse, never dropped.  The spec pins hold
the cluster spec that the CI flag sets build, so a change to the CLI
plumbing cannot move a reference run or a chaos schedule.
"""

import hashlib
import shlex

import pytest

import repro.chaos.__main__ as chaos_cli
import repro.gateway.cluster as gateway_cluster
import repro.net.cluster as net_cluster


class _Built(Exception):
    """Stops a producer run once its spec is built."""


def _gateway_result():
    return {
        "ok": True, "error": None, "killed": None, "complete": True,
        "counts": {}, "elapsed_s": 0.0, "stutter": 0, "metrics": None,
        "exactly_once_violations": 0, "clients": {"reconnects": 0},
        "latency": {"samples": 0, "p50_us": None, "p99_us": None,
                    "p999_us": None},
        "gateway": {"accepted": 0, "shed": 0, "rate_limited": 0,
                    "duplicates": 0},
    }


@pytest.fixture
def runs(monkeypatch):
    """Stub every harness run; collect what each one was handed."""
    calls = []

    def reference_run(spec):
        calls.append({"harness": "net", "spec": spec})
        raise _Built()

    def run_trial(label, spec, plan, kill_engine, kill_fraction, deadline_s,
                  chaos_seed=None, record_dir=None):
        calls.append({"harness": "gateway", "spec": spec, "label": label,
                      "kill_engine": kill_engine, "chaos_seed": chaos_seed})
        return _gateway_result()

    def run_chaos(spec, seed, **kwargs):
        calls.append({"harness": "chaos", "spec": spec, "seed": seed})
        return {"ok": True, "scenario": "stub", "verdict": {}}

    monkeypatch.setattr(net_cluster, "reference_run", reference_run)
    monkeypatch.setattr(gateway_cluster, "run_trial", run_trial)
    monkeypatch.setattr(chaos_cli, "run_chaos", run_chaos)
    return calls


def _spec_of(main, argv, runs):
    try:
        assert main(shlex.split(argv)) == 0
    except _Built:
        pass
    specs = {call["spec"].to_json() for call in runs}
    assert len(specs) == 1, "trials of one command built different specs"
    return runs[0]


# -- flag forwarding -----------------------------------------------------


def test_gateway_skip_clean_runs_only_the_kill_trial(runs):
    assert net_cluster.main(["--gateway", "--kill-active", "--skip-clean",
                             "--messages", "20"]) == 0
    assert [call["label"] for call in runs] == ["gateway-kill-e0"]


def test_gateway_client_reset_reaches_the_trial(runs):
    assert net_cluster.main(["--gateway", "--client-reset", "3",
                             "--messages", "20"]) == 0
    assert [call["chaos_seed"] for call in runs] == [None, 3]


def test_gateway_refuses_flags_it_cannot_honour(runs):
    with pytest.raises(SystemExit) as info:
        net_cluster.main(["--gateway", "--audit", "heal"])
    assert info.value.code == 2
    assert runs == []


def test_gateway_only_flags_are_refused_without_gateway(runs):
    with pytest.raises(SystemExit) as info:
        net_cluster.main(["--clients", "4"])
    assert info.value.code == 2
    assert runs == []


def test_chaos_maps_schedule_and_master_seeds(runs):
    assert net_cluster.main(["--chaos", "9", "--seed", "5",
                             "--followers", "2"]) == 0
    (call,) = runs
    assert call["harness"] == "chaos"
    assert call["seed"] == 9
    assert call["spec"].master_seed == 5
    assert call["spec"].followers() == 2


# -- spec pins -------------------------------------------------------------

#: sha256 of ``ClusterSpec.to_json()`` for the CI (and tier-1) flag sets.
SPEC_PINS = {
    (net_cluster.main,
     "--engines 2 --replicas 1 --messages 120 --timeout 90"):
        "7ff02622accf3a26dc1820e42d420ecbd22b1fbd9aac49bd6f8ab3c9af260361",
    (net_cluster.main,
     "--engines 2 --replicas 1 --messages 120 --kill-active --skip-clean "
     "--timeout 120"):
        "7ff02622accf3a26dc1820e42d420ecbd22b1fbd9aac49bd6f8ab3c9af260361",
    (net_cluster.main,
     "--engines 3 --followers 1 --messages 240 --kill-active --skip-clean "
     "--timeout 120"):
        "61fdee5f9d81f500f380e95d6c798a35d660f955022fe62650c29097be7aa2ff",
    (net_cluster.main,
     "--engines 2 --replicas 1 --messages 120 --kill-active --skip-clean "
     "--recovery-target 60 --audit heal --timeout 120"):
        "a2c1bc9dce40a7c589494620d38b1adaefe634fab5c760aba554deb258b76de6",
    (net_cluster.main,
     "--messages 60 --seed 13 --kill-active --skip-clean "
     "--kill-fraction 0.3 --timeout 60"):
        "dd92c2c9fec93e58ec378310dfc7c56d5008fb82ce9a5ebb10858cd5a7f583a2",
    (net_cluster.main,
     "--engines 3 --followers 2 --messages 360 --chaos 9 --timeout 120"):
        "7bdad3df7bbfefcf83998fd6911b1b42ad9dd074ecf0f908bd62010cb7be63fe",
    (net_cluster.main,
     "--engines 3 --followers 1 --messages 240 --chaos 8 --timeout 120"):
        "656ff70a656d0370f5859037b2891840204c9c2e53fba22c08cca8a85daaf10e",
    (net_cluster.main,
     "--chaos 7 --audit heal --messages 160 --timeout 90 --json"):
        "5e4c01bac607131ec43687c4d6da776ac486906039d9e27bf69f5594acf1a444",
    (net_cluster.main,
     "--gateway --messages 80 --clients 10 --rate 200 --kill-active "
     "--skip-clean --timeout 120"):
        "b91e0930e17ad8e8ab9a378c9fba43cf5e106d7cb6ce0191cf2f54b37efea6c4",
    (gateway_cluster.main,
     "--client-reset 3 --skip-clean --messages 80 --timeout 120"):
        "b91e0930e17ad8e8ab9a378c9fba43cf5e106d7cb6ce0191cf2f54b37efea6c4",
    (gateway_cluster.main,
     "--messages 40 --clients 6 --rate 200 --seed 13 --timeout 60"):
        "06637d818ebae7c08ab05914231fdb5cfc23edef671354cb82656269bc0ee8c9",
    (chaos_cli.main, "--seed 0 --messages 160 --timeout 90"):
        "94a36ea9099097eaddfbb375b13ffe3d12b95a9dafd1d9f3c4e3041b1a1dddbd",
    (chaos_cli.main,
     "--seed 9 --scenario unsurvivable --messages 160 --timeout 60"):
        "94a36ea9099097eaddfbb375b13ffe3d12b95a9dafd1d9f3c4e3041b1a1dddbd",
    (chaos_cli.main, "--seed 0 --sim-only --record tt-run"):
        "e3dfdfe00c52fb17c08301f03316d6902f6d755ed7b2aec3afeecc4b5e8cae03",
}


@pytest.mark.parametrize("main, argv", list(SPEC_PINS),
                         ids=[argv for _main, argv in SPEC_PINS])
def test_ci_flag_sets_build_pinned_specs(runs, main, argv):
    spec = _spec_of(main, argv, runs)["spec"]
    digest = hashlib.sha256(spec.to_json().encode()).hexdigest()
    assert digest == SPEC_PINS[main, argv], spec.to_json()
