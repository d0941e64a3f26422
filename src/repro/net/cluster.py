"""Cluster coordinator: launch, kill, and verify a real networked run.

``python -m repro.net.cluster`` is the end-to-end acceptance harness for
the networked runtime.  It:

1. computes the ground truth by running the cluster spec purely in
   simulation (:func:`~repro.net.topology.reference_run` — same seeds,
   same wire tables, so the simulator predicts the exact output stream);
2. spawns one OS process per engine and per replica (``python -m
   repro.net.server``), hosts the ingresses and consumers itself, and
   releases everything through the GO barrier with a shared clock epoch;
3. optionally SIGKILLs the active engine mid-stream (``--kill-active``)
   once a fraction of the expected outputs have arrived, leaving the
   replica process to detect the silence via heartbeat timeout, promote
   from the shipped checkpoint chain, and replay over the sockets;
4. waits for the consumers to reach the reference output counts and
   judges the collected streams with
   :func:`~repro.tools.verify_determinism.verify_trace_equivalence` —
   byte-identical ``(seq, vt, payload)`` streams or a nonzero exit.

The coordinator is itself a cluster member: it reuses
:class:`~repro.net.server.ProcessRuntime` for its server half and pumps
its own simulator, which hosts the Poisson producers — workload arrivals
happen at exact simulated ticks drawn from the deployment's seeded RNG
streams, so ingress timestamps match the pure-sim reference byte for
byte.

:class:`ClusterRun` is the one coordinator lifecycle of every live
harness: producer-driven runs here, gateway-fronted runs
(:mod:`repro.gateway.cluster` subclasses it) and chaos runs (a
:class:`~repro.chaos.runner.ChaosDriver` plugs into its hooks).  The CLI
plumbing the three harnesses share lives here too; ``--gateway`` and
``--chaos`` hand the command line to those harnesses' own parsers.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.apps.pipeline import build_pipeline_app, lane_key, lane_suffix
from repro.errors import WiringError
from repro.net import codec
from repro.net.server import ProcessRuntime
from repro.net.topology import (
    ClusterSpec,
    assign_addresses,
    attach_workload,
    build_deployment,
    component_placement,
    plan_cluster_nodes,
    reference_run,
    sharded_placement,
    sink_upstream_engines,
    stream_of,
)
from repro.tools.verify_determinism import verify_trace_equivalence

#: Seconds each child gets to bind its socket and print READY.
READY_TIMEOUT_S = 20.0

#: Lead time between the GO broadcast and the shared tick-zero epoch,
#: so control channels can connect before anyone's clock starts.
GO_LEAD_S = 0.75


class CoordinatorHost:
    """The coordinator's share of the deployment: ingresses + consumers.

    Engines become zombies (their processes own the live ones); the
    producers stay here so the workload is generated at exact simulated
    ticks from the deployment's seeded RNG streams.
    """

    def __init__(self, spec: ClusterSpec, runtime: ProcessRuntime):
        self.deployment = build_deployment(spec, sim=runtime.sim)
        for engine in self.deployment.engines.values():
            engine.halt()
        for ingress in self.deployment.ingresses.values():
            ingress.network = runtime.transport
            runtime.transport.register(ingress)
        for consumer in self.deployment.consumers.values():
            runtime.transport.register(consumer)
        attach_workload(self.deployment, spec)
        self.consumers = self.deployment.consumers

    def start(self) -> None:
        for producer in self.deployment.producers:
            producer.start()

    def counts(self) -> Dict[str, int]:
        return {sink: len(c.effective_outputs)
                for sink, c in self.consumers.items()}

    def streams(self) -> Dict[str, List[Tuple]]:
        return {sink: stream_of(c) for sink, c in self.consumers.items()}

    def arrival_ticks(self) -> Dict[str, List[int]]:
        """Per-sink local-sim arrival tick of every effective output."""
        return {sink: [t for _seq, _vt, _payload, t in c.effective_outputs]
                for sink, c in self.consumers.items()}

    def stutter(self) -> int:
        return sum(c.stutter for c in self.consumers.values())


class ChildProcess:
    """One spawned server process with a READY-watching stdout reader."""

    def __init__(self, name: str, cmd: List[str], env: Dict[str, str]):
        self.name = name
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=None, env=env,
            text=True, bufsize=1,
        )
        self.ready = threading.Event()
        #: Parsed AUDIT report printed at clean shutdown (None if the
        #: child crashed or ran without audit/cadence enabled).
        self.audit: Optional[Dict] = None
        self._reader = threading.Thread(
            target=self._pump_stdout, name=f"stdout:{name}", daemon=True
        )
        self._reader.start()

    def _pump_stdout(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                self.ready.set()
            elif line.startswith("AUDIT "):
                try:
                    self.audit = json.loads(line[len("AUDIT "):])
                except ValueError:
                    print(f"[{self.name}] unparseable {line!r}",
                          file=sys.stderr, flush=True)
            elif line:
                print(f"[{self.name}] {line}", file=sys.stderr, flush=True)

    def kill(self) -> None:
        self.proc.kill()

    def stop(self) -> None:
        """SIGSTOP: freeze the process (heartbeats stop, sockets stay)."""
        import signal

        self.proc.send_signal(signal.SIGSTOP)

    def cont(self) -> None:
        """SIGCONT: thaw a stopped process (it resumes, stale)."""
        import signal

        self.proc.send_signal(signal.SIGCONT)

    def reap(self, timeout: float = 5.0) -> Optional[int]:
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                return self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                return self.proc.wait()
        finally:
            # Let the reader drain the final stdout lines (the AUDIT
            # report races process exit otherwise).
            self._reader.join(timeout=2.0)


def free_port() -> int:
    """An OS-assigned free localhost TCP port (best effort)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def with_addresses(spec: ClusterSpec) -> ClusterSpec:
    """A deep copy of ``spec`` with fresh localhost listen addresses."""
    run_spec = ClusterSpec.from_json(spec.to_json())
    ports = {name: ("127.0.0.1", free_port())
             for name in plan_cluster_nodes(run_spec)}
    assign_addresses(run_spec, ports)
    if run_spec.gateway_enabled() and run_spec.gateway.get("port") is None:
        run_spec.gateway.setdefault("host", "127.0.0.1")
        run_spec.gateway["port"] = free_port()
    return run_spec


def spawn_children(spec: ClusterSpec, spec_path: Path
                   ) -> Dict[str, ChildProcess]:
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(src_root) if not existing
                         else str(src_root) + os.pathsep + existing)
    children: Dict[str, ChildProcess] = {}
    for name in plan_cluster_nodes(spec):
        if name == "coordinator":
            continue
        cmd = [sys.executable, "-m", "repro.net.server",
               "--spec", str(spec_path), "--name", name]
        children[name] = ChildProcess(name, cmd, env)
    return children


class ClusterRun:
    """One multi-process run: the coordinator lifecycle of every harness.

    :meth:`run` binds the coordinator's server, builds the
    :class:`CoordinatorHost`, spawns the children, releases them through
    the GO barrier, runs :meth:`drive` and tears everything down again:
    Shutdown broadcast, pump stop, front, chaos, transport and server
    close, child reaping and spec-file removal.  While it drives,
    :meth:`watch` checks pump health and the deadline and fires the kill
    trigger: with ``kill_engine`` set, that engine's process is
    SIGKILLed once ``kill_fraction`` of the planned work is done.

    The base class drives the seeded in-process producers until the
    consumers reach ``ref_counts``.  A front such as the public gateway
    (:class:`repro.gateway.cluster.GatewayRun`) overrides the hooks
    :meth:`make_host`, :meth:`open_front`, :meth:`drive`,
    :meth:`kill_progress`, :meth:`close_front` and :meth:`report`.

    ``chaos`` is an optional driver (``repro.chaos.runner.ChaosDriver``)
    hooked into the lifecycle: ``await chaos.start()`` once the
    coordinator's own socket is up (its fault-proxy listeners must
    accept before any child dials), ``chaos.attach(children)`` after
    spawning, ``chaos.on_go(t0)`` when the shared epoch is set, and
    ``await chaos.close()`` on the way out.
    """

    #: Name of the kill trigger's progress count in ``result["killed"]``.
    kill_key = "at_outputs"

    def __init__(self, spec: ClusterSpec, ref_counts: Dict[str, int],
                 kill_engine: Optional[str] = None,
                 kill_fraction: float = 0.4, deadline_s: float = 60.0,
                 chaos=None):
        self.spec = spec
        self.ref_counts = ref_counts
        self.kill_engine = kill_engine
        self.kill_fraction = kill_fraction
        self.deadline_s = deadline_s
        self.chaos = chaos
        self.result: Dict = {"killed": None, "complete": False,
                             "error": None}
        self.pump: Optional[asyncio.Task] = None

    # -- hooks -----------------------------------------------------------
    def make_host(self, runtime: ProcessRuntime) -> CoordinatorHost:
        return CoordinatorHost(self.spec, runtime)

    async def open_front(self) -> None:
        """Start what fronts the ingresses (the host is built by now)."""

    async def close_front(self) -> None:
        """Stop the front (the pump has stopped by now)."""

    def kill_progress(self) -> Tuple[int, int]:
        """``(done, planned)`` units of work the kill trigger counts."""
        return (sum(self.host.counts().values()),
                sum(self.ref_counts.values()))

    async def drive(self) -> None:
        """Run the workload until the consumers reach ``ref_counts``."""
        self.result["complete"] = await self.watch(
            lambda: self.host.counts() == self.ref_counts)

    def report(self) -> Dict:
        """Front-specific result keys, taken after teardown."""
        return {}

    # -- lifecycle -------------------------------------------------------
    async def watch(self, done: Callable[[], bool]) -> bool:
        """Poll until ``done()``; False once the deadline passes."""
        while True:
            if self.pump.done():
                self.pump.result()  # surfaces TransportError etc.
                raise RuntimeError("coordinator pump exited early")
            self._kill_trigger()
            if done():
                return True
            if time.monotonic() >= self.deadline:
                return False
            await asyncio.sleep(0.05)

    def _kill_trigger(self) -> None:
        """SIGKILL ``kill_engine`` once enough of the planned work is done."""
        if self.kill_engine is None or self.result["killed"] is not None:
            return
        done, planned = self.kill_progress()
        if done >= max(1, int(planned * self.kill_fraction)):
            self.children[f"engine-{self.kill_engine}"].kill()
            self.result["killed"] = {
                "engine": self.kill_engine,
                self.kill_key: done,
                "at_s": round(time.monotonic() - self.started, 3),
                "at_ticks": self.runtime.clock.ticks(),
            }

    async def run(self) -> Dict:
        """The whole lifecycle; returns the result block."""
        self.started = time.monotonic()
        server, spec_path = await self._launch()
        try:
            await self._go()
            await self.drive()
        except Exception as exc:  # noqa: BLE001 - reported in the result
            self.result["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            teardown = await self._teardown(server, spec_path)
        host = self.host
        self.result.update(
            teardown,
            counts=host.counts(),
            streams=host.streams(),
            arrival_ticks=host.arrival_ticks(),
            stutter=host.stutter(),
            elapsed_s=round(time.monotonic() - self.started, 3),
            audit_reports={name: child.audit
                           for name, child in self.children.items()
                           if child.audit is not None},
            metrics=host.deployment.metrics.dump_json(),
            **self.report(),
        )
        if self.chaos is not None:
            self.result["chaos"] = self.chaos.report()
        return self.result

    async def _launch(self) -> Tuple[asyncio.AbstractServer, Path]:
        """Bind, start chaos, build host and front, spawn the children."""
        spec, chaos = self.spec, self.chaos
        self.runtime = ProcessRuntime("coordinator", spec)
        server = await asyncio.start_server(
            self.runtime._handle_conn, *spec.listen_addr("coordinator")
        )
        if chaos is not None:
            await chaos.start()
        self.host = self.make_host(self.runtime)
        await self.open_front()
        spec_file = tempfile.NamedTemporaryFile(
            "w", suffix=".json", prefix="cluster-spec-", delete=False
        )
        with spec_file:
            spec_file.write(spec.to_json())
        spec_path = Path(spec_file.name)
        self.children = spawn_children(spec, spec_path)
        if chaos is not None:
            chaos.attach(self.children)
        return server, spec_path

    async def _go(self) -> None:
        """Wait for READY, broadcast GO at a shared epoch, start the pump."""
        runtime = self.runtime
        loop = asyncio.get_running_loop()
        for child in self.children.values():
            ok = await loop.run_in_executor(
                None, child.ready.wait, READY_TIMEOUT_S
            )
            if not ok:
                raise RuntimeError(
                    f"child {child.name} not READY within "
                    f"{READY_TIMEOUT_S}s (rc={child.proc.poll()})"
                )

        # GO: one shared epoch for every tick clock in the cluster.
        self.t0 = time.time() + GO_LEAD_S
        for name in self.children:
            runtime.transport.channel_to(f"proc:{name}").enqueue(
                runtime.peer_id, codec.GoSignal(t0=self.t0,
                                                speed=self.spec.speed)
            )
        runtime.clock.set_epoch(self.t0)
        if self.chaos is not None:
            self.chaos.on_go(self.t0)
        self.host.start()
        self.pump = loop.create_task(runtime.rtk.run(),
                                     name="pump:coordinator")
        self.deadline = time.monotonic() + self.deadline_s

    async def _teardown(self, server: asyncio.AbstractServer,
                        spec_path: Path) -> Dict:
        """Stop and close everything; return counters and exit codes."""
        runtime = self.runtime
        for name, child in self.children.items():
            if child.proc.poll() is None:
                try:
                    runtime.transport.channel_to(f"proc:{name}").enqueue(
                        runtime.peer_id, codec.Shutdown("run complete")
                    )
                except Exception:  # noqa: BLE001 - best-effort shutdown
                    pass
        await asyncio.sleep(0.3)
        if self.pump is not None:
            runtime.rtk.stop()
            try:
                await self.pump
            except Exception as exc:  # noqa: BLE001
                if self.result["error"] is None:
                    self.result["error"] = f"{type(exc).__name__}: {exc}"
        channels = runtime.transport._channels
        counters = {
            "epoch_resets": sum(ch.epoch_resets for ch in channels.values()),
            "incarnations": {dst: ch._known_incarnation
                             for dst, ch in channels.items()},
            "channel_counters": runtime.transport.channel_counters(),
        }
        await self.close_front()
        if self.chaos is not None:
            await self.chaos.close()
        await runtime.transport.close()
        server.close()
        await server.wait_closed()
        counters["child_exit_codes"] = {
            name: child.reap() for name, child in self.children.items()
        }
        try:
            spec_path.unlink()
        except OSError:
            pass
        return counters


async def run_networked(
    spec: ClusterSpec,
    ref_counts: Dict[str, int],
    kill_engine: Optional[str] = None,
    kill_fraction: float = 0.4,
    deadline_s: float = 60.0,
    chaos=None,
) -> Dict:
    """One producer-driven multi-process run (see :class:`ClusterRun`).

    ``spec`` must already carry addresses (see :func:`with_addresses`).
    """
    return await ClusterRun(spec, ref_counts, kill_engine, kill_fraction,
                            deadline_s, chaos).run()


def build_spec(args: argparse.Namespace, **overrides) -> ClusterSpec:
    """The cluster spec for the CLI knobs, with ``overrides`` applied.

    With three or more engines the pipeline is *sharded*: one lane per
    engine, lanes placed by consistent hashing (whole lanes travel
    together), and the message budget split across the lane inputs — so
    every engine leads a replication group with an independent output
    stream, the shape the group-failover scenarios need.  One or two
    engines keep the legacy single-lane contiguous layout.
    """
    engines = [f"e{i}" for i in range(args.engines)]
    lanes = 1 if args.engines <= 2 else args.engines
    app_args = {"window": args.window}
    placement: Dict[str, str] = {}
    if lanes > 1:
        app_args["lanes"] = lanes
        app = build_pipeline_app(**app_args)
        placement = sharded_placement(app.component_names(), engines,
                                      group_key=lane_key)
    workload: Dict[str, Dict] = {}
    per, rem = divmod(args.messages, lanes)
    for lane in range(lanes):
        n = per + (1 if lane < rem else 0)
        if n:
            workload[f"readings{lane_suffix(lane)}"] = {
                "n_messages": n,
                "mean_interarrival_ms": args.mean_ms,
            }
    spec = ClusterSpec(
        app="pipeline",
        app_args=app_args,
        engines=engines,
        placement=placement,
        replicas=args.replicas,
        followers_per_group=getattr(args, "followers", None),
        master_seed=args.seed,
        speed=args.speed,
        checkpoint_interval_ms=args.checkpoint_ms,
        heartbeat_interval_ms=args.heartbeat_ms,
        heartbeat_miss_limit=args.heartbeat_miss,
        workload=workload,
        recovery_target_ms=args.recovery_target,
        audit=args.audit,
        audit_every=args.audit_every,
    )
    return dataclasses.replace(spec, **overrides)


def default_victim(spec: ClusterSpec) -> str:
    """The first engine (spec order) actually hosting components."""
    placed = set(component_placement(spec).values())
    for engine_id in spec.engines:
        if engine_id in placed:
            return engine_id
    raise WiringError("no engine hosts any component")


def group_liveness(spec: ClusterSpec, result: Dict,
                   victim: str, ref_counts: Dict[str, int]) -> Optional[Dict]:
    """Check non-victim groups kept delivering during the failover window.

    The window runs from the SIGKILL tick to the first post-kill output
    of any sink depending on the victim group (the first recovered
    byte).  Every sink *independent* of the victim must deliver at least
    once inside it — unless its stream was already complete before the
    kill.  Returns None when the invariant does not apply (no kill tick
    recorded, or no independent sinks to observe).
    """
    killed = result.get("killed") or {}
    kill_tick = killed.get("at_ticks")
    arrivals: Dict[str, List[int]] = result.get("arrival_ticks") or {}
    if kill_tick is None:
        return None
    upstream = sink_upstream_engines(spec)
    victim_sinks = sorted(s for s, deps in upstream.items() if victim in deps)
    others = sorted(s for s, deps in upstream.items() if victim not in deps)
    if not others:
        return None
    end = min((t for sink in victim_sinks
               for t in arrivals.get(sink, []) if t >= kill_tick),
              default=None)
    if end is None:  # victim never recovered; judge against the whole tail
        end = max((t for ts in arrivals.values() for t in ts),
                  default=kill_tick)
    stalled = []
    for sink in others:
        ticks = arrivals.get(sink, [])
        done_before_kill = (len(ticks) >= ref_counts.get(sink, 0)
                            and all(t < kill_tick for t in ticks))
        if done_before_kill:
            continue
        if not any(kill_tick <= t <= end for t in ticks):
            stalled.append(sink)
    return {
        "ok": not stalled,
        "window_ticks": [kill_tick, end],
        "victim_sinks": victim_sinks,
        "independent_sinks": others,
        "stalled_sinks": stalled,
    }


# ----------------------------------------------------------------------
# CLI plumbing shared by the live harnesses (net, gateway and chaos)
# ----------------------------------------------------------------------


def log(line: str) -> None:
    """One progress line on stderr (stdout carries ``--json``)."""
    print(line, file=sys.stderr, flush=True)


def _count(text: str) -> int:
    """argparse type of a count: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def add_cluster_args(parser: argparse.ArgumentParser,
                     workload: bool) -> None:
    """Flags every live harness takes; ``workload`` adds the knobs of the
    seeded in-process producers (the gateway's clients replace them)."""
    parser.add_argument("--engines", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=1, choices=(0, 1),
                        help="passive replicas per engine (0 disables "
                             "checkpointing and failover)")
    parser.add_argument("--followers", type=_count, default=None,
                        metavar="K",
                        help="followers per replication group (overrides "
                             "--replicas; K >= 2 gives each engine a "
                             "rank-ordered succession line)")
    parser.add_argument("--messages", type=int, default=240,
                        help="messages in the workload")
    parser.add_argument("--window", type=int, default=10,
                        help="aggregator report window")
    parser.add_argument("--checkpoint-ms", type=float, default=25.0)
    parser.add_argument("--heartbeat-ms", type=float, default=10.0)
    parser.add_argument("--heartbeat-miss", type=int, default=3)
    if workload:
        parser.add_argument("--mean-ms", type=float, default=1.0,
                            help="mean Poisson interarrival (simulated ms)")
        parser.add_argument("--speed", type=float, default=0.1,
                            help="simulated ticks per real nanosecond")
        parser.add_argument("--recovery-target", type=float, default=None,
                            metavar="MS",
                            help="recovery-time objective in simulated ms; "
                                 "engines adapt checkpoint cadence so "
                                 "worst-case replay stays under it "
                                 "(--checkpoint-ms becomes the initial "
                                 "interval)")
        parser.add_argument("--audit", nargs="?", const="heal",
                            default="off", choices=("off", "raise", "heal"),
                            help="run the continuous divergence audit on "
                                 "every engine (bare --audit means heal)")
        parser.add_argument("--audit-every", type=int, default=1,
                            help="audit once per N checkpoint captures")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock deadline in seconds")
    parser.add_argument("--record", default=None, metavar="DIR",
                        help="write a .replay flight-recorder bundle of "
                             "the run (see docs/timetravel.md)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the full metrics registry as JSON "
                             "at shutdown")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report on stdout")


def add_trial_args(parser: argparse.ArgumentParser) -> None:
    """Flags of the harnesses that run clean and kill trials."""
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kill-active", action="store_true",
                        help="SIGKILL an engine process mid-stream and "
                             "require byte-identical recovered output")
    parser.add_argument("--kill-engine", default=None,
                        help="which engine to kill (default: first)")
    parser.add_argument("--kill-fraction", type=float, default=0.4,
                        help="kill once this fraction of the planned "
                             "work is done")
    parser.add_argument("--skip-clean", action="store_true",
                        help="skip the no-failure run")


def kill_target(parser: argparse.ArgumentParser, args: argparse.Namespace,
                spec: ClusterSpec) -> Optional[str]:
    """The engine ``--kill-active`` kills (None without it)."""
    if not args.kill_active:
        return None
    if spec.followers() < 1:
        parser.error("--kill-active requires --replicas or --followers >= 1")
    victim = args.kill_engine or default_victim(spec)
    if victim not in spec.engines:
        parser.error(f"unknown --kill-engine {victim!r}")
    return victim


def plan_trials(prefix: str, args: argparse.Namespace,
                kill_engine: Optional[str],
                extra: Sequence[Tuple[str, Dict]] = ()
                ) -> List[Tuple[str, Dict]]:
    """``(label, params)`` of the trials the flags ask for (clean if none)."""
    clean = (f"{prefix}-clean", {"kill_engine": None})
    trials = [] if args.skip_clean else [clean]
    if kill_engine is not None:
        trials.append((f"{prefix}-kill-{kill_engine}",
                       {"kill_engine": kill_engine}))
    trials.extend(extra)
    return trials or [clean]


def run_trials(args: argparse.Namespace, prog: str,
               trials: List[Tuple[str, Dict]],
               run_one: Callable[..., Dict], report: Dict,
               verdict: str) -> int:
    """Run each trial as ``run_one(label, **params)``, then :func:`finish`."""
    metrics: Dict[str, Dict] = {}
    for label, params in trials:
        result = run_one(label, **params)
        metrics[label] = result.pop("metrics", None)
        report["trials"][label] = result
        if result["error"]:
            log(f"{label}: error: {result['error']}")
    ok = all(result["ok"] for result in report["trials"].values())
    return finish(args, prog, report, metrics, ok,
                  verdict if ok else "FAILED")


def finish(args: argparse.Namespace, prog: str, report: Dict, metrics,
           ok: bool, verdict: str) -> int:
    """The CLI tail: ``--metrics-out``, ``--json`` and the verdict line."""
    if args.metrics_out is not None:
        Path(args.metrics_out).write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        log(f"{prog}: wrote metrics to {args.metrics_out}")
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    log(f"{prog}: {verdict}")
    return 0 if ok else 1


def delegate(argv: List[str]) -> Optional[int]:
    """Hand a ``--gateway`` or ``--chaos`` run to that harness's CLI.

    The user's flags are forwarded as given, so each one is either taken
    by the delegated parser or refused by it.  For chaos, ``--chaos S``
    becomes the schedule ``--seed S`` and ``--seed M`` the workload's
    ``--master-seed M``.  Returns None for a producer-driven run.
    """
    router = argparse.ArgumentParser(prog="python -m repro.net.cluster",
                                     add_help=False, allow_abbrev=False)
    route = router.add_mutually_exclusive_group()
    route.add_argument("--gateway", action="store_true")
    route.add_argument("--chaos", type=int, default=None)
    routed, rest = router.parse_known_args(argv)
    if routed.gateway:
        from repro.gateway.cluster import main as gateway_main

        return gateway_main(rest)
    if routed.chaos is not None:
        from repro.chaos.__main__ import main as chaos_main

        renamed = [arg.replace("--seed", "--master-seed", 1)
                   if arg.partition("=")[0] == "--seed" else arg
                   for arg in rest]
        return chaos_main(["--seed", str(routed.chaos)] + renamed)
    return None


def run_trial(label: str, kill_engine: Optional[str], spec: ClusterSpec,
              reference: Dict[str, List[Tuple]], kill_fraction: float,
              deadline_s: float) -> Dict:
    """One addressed producer-driven run, judged against ``reference``."""
    log(f"{label}: launching "
        f"{len(plan_cluster_nodes(spec)) - 1} child process(es) ...")
    ref_counts = {sink: len(s) for sink, s in reference.items()}
    result = asyncio.run(run_networked(
        with_addresses(spec), ref_counts, kill_engine=kill_engine,
        kill_fraction=kill_fraction, deadline_s=deadline_s,
    ))
    verdict = verify_trace_equivalence(
        reference, result.pop("streams"), trial=label,
        require_complete=True,
    )
    liveness = (group_liveness(spec, result, kill_engine, ref_counts)
                if kill_engine is not None else None)
    result.pop("arrival_ticks", None)  # bulky; judged above
    result["liveness"] = liveness
    result["deterministic"] = verdict.deterministic
    result["ok"] = (verdict.deterministic and result["complete"]
                    and not result["error"]
                    and (liveness is None or liveness["ok"]))
    log(f"{label}: {'OK' if result['ok'] else 'FAIL'} — "
        f"{sum(result['counts'].values())}/{sum(ref_counts.values())} "
        f"outputs in {result['elapsed_s']}s, stutter={result['stutter']}, "
        f"epoch_resets={result['epoch_resets']}"
        + (f", killed {result['killed']['engine']} after "
           f"{result['killed']['at_outputs']} outputs"
           if result["killed"] else ""))
    if liveness is not None:
        log(f"{label}: non-victim liveness "
            f"{'OK' if liveness['ok'] else 'FAIL'} — "
            f"{len(liveness['independent_sinks'])} independent "
            f"sink(s), stalled={liveness['stalled_sinks']}")
    for proc, audit in sorted(result.get("audit_reports", {}).items()):
        log(f"{label}: audit[{proc}]: {json.dumps(audit, sort_keys=True)}")
    if not verdict.deterministic:
        log(verdict.summary())
    return result


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    delegated = delegate(argv)
    if delegated is not None:
        return delegated
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.cluster",
        description="Run a TART deployment as a real multi-process "
                    "cluster and verify its output against the "
                    "simulated reference (optionally killing the "
                    "active engine mid-stream).",
    )
    add_cluster_args(parser, workload=True)
    add_trial_args(parser)
    parser.add_argument("--chaos", type=int, default=None, metavar="SEED",
                        help="instead of the clean/kill trials, run the "
                             "seeded chaos schedule SEED against this "
                             "cluster: the other flags go to python -m "
                             "repro.chaos, with --seed as its "
                             "--master-seed")
    parser.add_argument("--gateway", action="store_true",
                        help="feed the cluster through the public TCP "
                             "ingress gateway instead of in-process "
                             "producers: the other flags go to python -m "
                             "repro.gateway.cluster; external clients "
                             "submit over the wire and the output is "
                             "verified against a pure-sim replay of the "
                             "gateway's admission log")
    args = parser.parse_args(argv)
    if args.gateway or args.chaos is not None:
        parser.error("spell out --gateway and --chaos in full")

    spec = build_spec(args)
    kill_engine = kill_target(parser, args, spec)
    span_s = spec.workload_span_ticks() / (1e9 * spec.speed)
    deadline_s = args.timeout or max(30.0, 6.0 * span_s + 10.0)

    log(f"reference: simulating {args.messages} messages "
        f"({span_s:.1f}s of real time at speed {spec.speed}) ...")
    reference = reference_run(spec)
    total = sum(len(s) for s in reference.values())
    log(f"reference: {total} outputs across {len(reference)} sink(s)")

    if args.record is not None:
        # Record the simulated twin: determinism makes it the faithful
        # recording of every trial that passes the byte-identity judge.
        from repro.runtime.flightrec import record_run

        bundle = record_run(spec, args.record, seed=args.seed,
                            source="cluster")
        log(f"cluster: wrote replay bundle {bundle}")

    return run_trials(
        args, "cluster", plan_trials("networked", args, kill_engine),
        functools.partial(run_trial, spec=spec, reference=reference,
                          kill_fraction=args.kill_fraction,
                          deadline_s=deadline_s),
        {"reference_outputs": total, "trials": {}},
        "all trials byte-identical to the simulated reference",
    )


if __name__ == "__main__":
    sys.exit(main())
