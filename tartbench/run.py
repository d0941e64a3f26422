#!/usr/bin/env python3
"""TART benchmark: one command for every workload, traced or not.

Usage, from the root of a checkout::

    python3 tartbench/run.py --workload pipeline_sim --seed 1 --seconds 40 --trace 0
    python3 tartbench/run.py --workload all --seed 1 --seconds 10

Workloads: ``pipeline_sim`` and ``fanin_failover_sim`` (pure
simulation) and ``gateway_live`` (real processes behind the gateway).
With ``--trace 0`` the run reports end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from wrapped entry points.
``BENCHMARK.json`` names the metrics a listed workload reports; see
``tartbench/NOTES.md`` for what each one means.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each workload first prints its full report
on a line of its own: provenance, every metric it measured, and the
checks that failed.  With ``--workload all`` the last line carries
every metric of every workload, prefixed by the workload's name.

Nothing is written outside the checkout; scratch files go to
``.tartbench/`` at its root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".tartbench"
SIM_WORKLOADS = ("pipeline_sim", "fanin_failover_sim")
WORKLOADS = SIM_WORKLOADS + ("gateway_live",)


def provenance(seed: int) -> Dict:
    """Commit, Python, CPU model, core count and seed of this run."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def listed_metrics(workload: str, trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json asks of ``workload``.

    Empty for a workload that BENCHMARK.json does not list.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        return {}
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> Dict:
    """Run one workload; returns its report (see the module docstring).

    ``scale`` shrinks the simulated span (the self-tests use it).
    """
    spans_out = OUT / f"spans-{workload}.json.gz" if trace else None
    if workload == "gateway_live":
        from live_workload import run_live

        return run_live(seed, seconds, trace, spans_out=spans_out)
    from sim_workloads import SPANS, run_sim

    return run_sim(workload, seed, seconds, trace,
                   span=int(SPANS[workload] * scale), spans_out=spans_out)


def result_line(report: Dict, trace: bool) -> Dict:
    """The contract line: listed metrics, or every metric if unlisted."""
    measured = report["layers"] if trace else report["e2e"]
    wanted = listed_metrics(report["workload"], trace) or {
        name: unit for name, (_value, unit) in measured.items()}
    metrics = {}
    for name, unit in wanted.items():
        value, measured_unit = measured[name]
        if measured_unit != unit:
            raise ValueError(f"{name}: measured in {measured_unit}, "
                             f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="TART end-to-end and per-layer benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"tartbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    tempfile.tempdir = str(OUT)
    trace = bool(args.trace)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for workload in workloads:
        report = run_workload(workload, args.seed, args.seconds, trace)
        report["provenance"] = provenance(args.seed)
        report["trace"] = trace
        print(json.dumps(report, sort_keys=True), flush=True)
        reports.append(report)
    if len(reports) == 1:
        final = result_line(reports[0], trace)
    else:
        # One line with every metric every workload measured.
        final = {
            "correct": all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}.{name}": {"value": value, "unit": unit}
                for r in reports
                for name, (value, unit) in
                (r["layers"] if trace else r["e2e"]).items()},
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
