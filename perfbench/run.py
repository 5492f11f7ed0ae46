"""Socket-level benchmark of the ``repro`` server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload read-8k --seed 1 --seconds 10 --trace 0

It starts the real server (``repro serve`` or ``repro shard-serve``, with
default flags) in its own process on a freshly seeded directory, drives
it over TCP from this one process with at most two blocking connections
(closed loop, zero think time), checks every reply against the workload's
shadow model, then ``kill -9``s the server, reopens the directory and
checks that exactly the acknowledged commits survived.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
ops twice, untraced and then under the span-recording launcher
(``traced_server.py``), and prints the per-layer split.  Every line but
the last is a human-readable report; the last line is the JSON result.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import per_layer  # noqa: E402
from wire import Caller, ConnectionLost, Server  # noqa: E402
from workloads import WORKLOADS, Op, Workload, build  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: The measured loop stops sending after this many seconds; unsent ops
#: count as failed, so a pathologically slow program cannot hang the run.
LOOP_DEADLINE_S = 100.0
#: Request ids are unique across connections so server spans map to
#: client samples: connection ``c`` numbers from ``(c + 1) * ID_STRIDE``.
ID_STRIDE = 10_000_000


# -- checking replies ---------------------------------------------------------


def _rows(payload) -> frozenset:
    return frozenset(tuple(row) for row in payload)


def _events(payload) -> frozenset:
    return frozenset((e["kind"], e["predicate"], tuple(e["args"]))
                     for e in payload)


def judge(op: Op, reply: dict) -> bool:
    """Whether *reply* is the answer the shadow model predicts for *op*."""
    if not reply.get("ok"):
        return False
    result = reply.get("result") or {}
    if op.cls == "commit":
        return bool(result.get("applied")) is op.expect
    if op.cls in ("lookup", "scan"):
        must, may = op.expect
        answers = _rows(result.get("answers", ()))
        return must <= answers <= may
    kind, expect = op.expect
    if kind == "check":
        violations = {p: _rows(rows) for p, rows in
                      (result.get("violations") or {}).items() if rows}
        wanted = {"Ic1": expect} if expect else {}
        return result.get("ok") is (not expect) and violations == wanted
    if kind == "upward":
        got: dict[str, list] = {}
        for slot, key in ((0, "insertions"), (1, "deletions")):
            for predicate, rows in (result.get(key) or {}).items():
                if rows:
                    got.setdefault(predicate, [frozenset(), frozenset()])
                    got[predicate][slot] = _rows(rows)
        wanted = {p: list(pair) for p, pair in expect.items()
                  if pair[0] or pair[1]}
        return got == wanted
    translations = frozenset(
        (_events(t.get("transaction", ())), _events(t.get("constraints", ())))
        for t in result.get("translations", ()))
    return translations == expect


# -- the measured loop --------------------------------------------------------


@dataclass
class Sample:
    op: Op
    request_id: int
    sent_ns: int
    done_ns: int
    correct: bool
    #: Rows in a query's answer (0 for other ops).
    rows: int = 0


@dataclass
class Loop:
    """What one pass of the measured loop observed."""

    samples: list[Sample] = field(default_factory=list)
    unsent: int = 0
    lost: list[str] = field(default_factory=list)
    frames: list[tuple[int, dict]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    wal_bytes: int = 0
    server_cpu_s: float = 0.0


def _drive(port: int, conn: int, ops: list[Op], barrier: threading.Barrier,
           deadline_ns: int, loop: Loop, lock: threading.Lock) -> None:
    caller = Caller(port, first_id=(conn + 1) * ID_STRIDE)
    samples: list[Sample] = []
    sent = 0
    try:
        barrier.wait()
        for op in ops:
            if time.perf_counter_ns() > deadline_ns:
                break
            sent += 1
            start = time.perf_counter_ns()
            reply = caller.call(op.op, **op.params)
            done = time.perf_counter_ns()
            rows = len((reply.get("result") or {}).get("answers", ()))
            samples.append(Sample(op, caller.last_id, start, done,
                                  judge(op, reply), rows))
    except ConnectionLost as error:
        with lock:
            loop.lost.append(f"connection {conn + 1}: {error}")
    finally:
        caller.close()
        with lock:
            loop.samples.extend(samples)
            loop.unsent += len(ops) - sent


def _subscribe(port: int, ready: threading.Event, stop: threading.Event,
               expected: int, loop: Loop, lock: threading.Lock) -> None:
    caller = Caller(port, first_id=3 * ID_STRIDE)
    frames: list[tuple[int, dict]] = []
    try:
        reply = caller.call("subscribe", goals=["Unemp"])
        if not reply.get("ok"):
            raise ConnectionLost(f"subscribe refused: {reply}")
        frames.extend(caller.frames)
        ready.set()
        grace_until = None
        while len(frames) < expected:
            if stop.is_set():
                grace_until = grace_until or time.monotonic() + 5.0
                if time.monotonic() > grace_until:
                    break
            frame = caller.read_frame(timeout=0.2)
            if frame is not None:
                frames.append((time.perf_counter_ns(), frame))
    except ConnectionLost as error:
        with lock:
            loop.lost.append(f"subscriber: {error}")
    finally:
        ready.set()
        caller.close()
        with lock:
            loop.frames = frames


def measure(port: int, workload: Workload) -> Loop:
    """Run every connection's fixed op list to the end; return the samples."""
    loop = Loop()
    lock = threading.Lock()
    barrier = threading.Barrier(len(workload.ops) + 1, timeout=60)
    deadline_ns = time.perf_counter_ns() + int(LOOP_DEADLINE_S * 1e9)
    threads = [threading.Thread(target=_drive, args=(
        port, conn, ops, barrier, deadline_ns, loop, lock))
        for conn, ops in enumerate(workload.ops)]
    subscriber = None
    stop = threading.Event()
    if workload.subscriber:
        ready = threading.Event()
        expected = sum(1 for ops in workload.ops for op in ops if op.feed)
        subscriber = threading.Thread(target=_subscribe, args=(
            port, ready, stop, expected, loop, lock))
        subscriber.start()
        ready.wait(60)
    for thread in threads:
        thread.start()
    cpu0 = time.process_time()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    loop.wall_s = time.perf_counter() - start
    loop.cpu_s = time.process_time() - cpu0
    stop.set()
    if subscriber is not None:
        subscriber.join()
    return loop


def check_frames(workload: Workload, loop: Loop) -> tuple[int, int, list]:
    """``(expected, wrong, lags_ms)``: feed frames against the shadow model.

    Only ``read-8k`` subscribes; its single committing connection makes
    the frame order the commit order.  A lag is the subscriber's arrival
    time minus the committer's ack time (negative when the frame overtook
    the ack).
    """
    if not workload.subscriber:
        return 0, 0, []
    acks = {id(s.op): s.done_ns for s in loop.samples}
    wanted = [op for op in workload.ops[0] if op.feed and id(op) in acks]
    wrong = abs(len(loop.frames) - len(wanted))
    lags = []
    for (arrived, payload), op in zip(loop.frames, wanted):
        frame = payload.get("frame", {})
        got = (_rows((frame.get("inserted") or {}).get("Unemp", ())),
               _rows((frame.get("deleted") or {}).get("Unemp", ())))
        if frame.get("kind") != "delta" or got != op.feed:
            wrong += 1
        lags.append((arrived - acks[id(op)]) / 1e6)
    return len(wanted), wrong, lags


def check_extents(port: int, expected: dict[str, frozenset]
                  ) -> tuple[int, int, list[str]]:
    """``(checked, wrong, notes)``: exact extents over a fresh connection.

    Each fact in the expected or the observed extent is one check; a lost
    or phantom fact is one failure.
    """
    caller = Caller(port, first_id=4 * ID_STRIDE)
    checked = wrong = 0
    notes = []
    try:
        for goal, rows in expected.items():
            reply = caller.call("query", goal=goal)
            if not reply.get("ok"):
                checked += max(1, len(rows))
                wrong += max(1, len(rows))
                notes.append(f"{goal}: error {reply.get('error')}")
                continue
            got = _rows(reply["result"]["answers"])
            checked += len(rows | got)
            lost, phantom = len(rows - got), len(got - rows)
            wrong += lost + phantom
            if lost or phantom:
                notes.append(f"{goal}: {lost} lost, {phantom} phantom")
    finally:
        caller.close()
    return checked, wrong, notes


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    With fewer than 100 samples none qualifies; p90 is reported and
    labelled as such.
    """
    for q in (99, 95, 90):
        if len(values) * (1 - q / 100) >= 10:
            return percentile(values, q), f"p{q}"
    return percentile(values, 90), "p90<10-beyond"


def latencies(loop: Loop, cls: str) -> list[float]:
    return [(s.done_ns - s.sent_ns) / 1e6 for s in loop.samples
            if s.op.cls == cls]


def class_metrics(loop: Loop) -> tuple[dict, dict]:
    """Per-class p50/tail latencies: ``(values, notes)``."""
    values, notes = {}, {}
    for cls in ("commit", "lookup", "scan", "whatif"):
        lat = latencies(loop, cls)
        if not lat:
            continue
        values[f"{cls}_p50_ms"] = statistics.median(lat)
        values[f"{cls}_tail_ms"], used = tail(lat)
        notes[cls] = f"n={len(lat)} tail={used}"
    return values, notes


def wal_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*.log"))


def fsync_us(directory: Path, rounds: int = 20) -> float:
    """Median latency of a 4 KiB write + fsync on this file system."""
    path = directory / "fsync-probe"
    times = []
    with open(path, "wb") as handle:
        for _ in range(rounds):
            handle.write(b"\0" * 4096)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            times.append((time.perf_counter() - start) * 1e6)
    path.unlink()
    return statistics.median(times)


def environment(args, work: Path) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha, "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "fsync_us": round(fsync_us(work), 1)}


def diagnostic_unit(name: str) -> str:
    for suffix, unit in (("_ops_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_us_per_op", "us"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return ""


# -- one run ------------------------------------------------------------------


class Run:
    """Directories, server launches and failure accounting of one run."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.init_file = work / "init.dl"
        self.init_file.write_text(workload.init_text)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._dirs = 0
        self._servers: list[Server] = []

    def launch(self, data: Path | None = None,
               spans: Path | None = None) -> Server:
        """Start a server: fresh directory seeded from the init file, or
        reopen *data* (no ``--init``)."""
        # Flush what earlier steps wrote, so its write-back does not land
        # inside the timed start.
        os.sync()
        argv = list(self.workload.serve)
        if data is None:
            self._dirs += 1
            data = self.work / f"data-{self._dirs}"
            argv += [str(data), "--init", str(self.init_file)]
        else:
            argv += [str(data)]
        server = Server(ROOT, self.work, argv + self.workload.serve_flags,
                        data, spans_path=spans)
        self._servers.append(server)
        return server

    def close(self) -> None:
        """``kill -9`` every server of this run that is still running."""
        for server in self._servers:
            server.kill()

    def account(self, loop: Loop) -> None:
        wrong = [s for s in loop.samples if not s.correct]
        self.attempted += len(loop.samples) + loop.unsent
        self.failed += len(wrong) + loop.unsent
        if wrong:
            first = wrong[0]
            self.notes.append(f"{len(wrong)} wrong replies, first: "
                              f"{first.op.op} {first.op.params}")
        if loop.unsent:
            self.notes.append(f"{loop.unsent} ops unsent (deadline or lost "
                              "connection)")
        self.notes.extend(loop.lost)
        expected, wrong_frames, _ = check_frames(self.workload, loop)
        self.attempted += expected
        self.failed += wrong_frames
        if wrong_frames:
            self.notes.append(f"{wrong_frames} of {expected} feed frames "
                              "wrong or missing")

    def check(self, server: Server, expected: dict[str, frozenset],
              label: str) -> None:
        try:
            checked, wrong, notes = check_extents(server.port, expected)
        except ConnectionLost as error:
            checked = wrong = sum(max(1, len(r)) for r in expected.values())
            notes = [str(error)]
        self.attempted += checked
        self.failed += wrong
        self.notes.extend(f"{label}: {n}" for n in notes)

    def measured_pass(self, spans: Path | None = None) -> tuple[Loop, Server]:
        server = self.launch(spans=spans)
        try:
            wal_before = wal_bytes(server.data)
            cpu_before = server.cpu_s()
            loop = measure(server.port, self.workload)
            loop.server_cpu_s = server.cpu_s() - cpu_before
            loop.rss_mb = server.peak_rss_mb()
            loop.wal_bytes = wal_bytes(server.data) - wal_before
            self.account(loop)
            self.check(server, self.workload.final, "final extents")
        except BaseException:
            self.close()
            raise
        return loop, server


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The measured run: set-ups, the loop, crash and reopen."""
    setups = []
    for _ in range(run.workload.launches - 1):
        server = run.launch()
        setups.append(server.setup_s)
        server.kill()
    loop, server = run.measured_pass()
    setups.append(server.setup_s)
    server.kill()  # kill -9: the reopen replays snapshot + WAL
    reopened = run.launch(data=server.data)
    try:
        run.check(reopened, run.workload.recovered, "after kill -9")
    finally:
        reopened.kill()
    applied_events = sum(s.op.events for s in loop.samples
                         if s.op.cls == "commit" and s.op.expect and s.correct)
    values, notes = class_metrics(loop)
    ops = len(loop.samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "server_cpu_ms_per_op": loop.server_cpu_s / max(1, ops) * 1e3,
        "server_rss_mb": loop.rss_mb,
        "wal_bytes_per_event": loop.wal_bytes / max(1, applied_events),
    }
    diagnostics = {"loop_s": loop.wall_s,
                   "throughput_ops_s": ops / loop.wall_s,
                   "recovery_s": reopened.setup_s, **values}
    _, _, lags = check_frames(run.workload, loop)
    if lags:
        diagnostics["feed_lag_p50_ms"] = statistics.median(lags)
    diagnostics["failed_frac"] = run.failed / max(1, run.attempted)
    diagnostics["loadgen_cpu_us_per_op"] = loop.cpu_s / max(1, ops) * 1e6
    diagnostics["setups_s"] = setups
    diagnostics["samples"] = notes
    return metrics, diagnostics


def traced(run: Run) -> tuple[dict, dict]:
    """The per-layer split: one untraced and one traced pass, same ops."""
    plain, server = run.measured_pass()
    server.shutdown()
    spans_path = run.work / "spans.jsonl"
    loop, server = run.measured_pass(spans=spans_path)
    caller = Caller(server.port, first_id=5 * ID_STRIDE)
    try:
        stats = caller.call("stats").get("result", {})
    finally:
        caller.close()
    server.shutdown()
    values, _ = class_metrics(plain)
    client = {f"client.{name}": values.get(name, 0.0) for name in (
        "commit_p50_ms", "commit_tail_ms", "lookup_p50_ms", "lookup_tail_ms",
        "scan_p50_ms", "whatif_p50_ms", "whatif_tail_ms")}
    client["client.throughput_ops_s"] = len(plain.samples) / plain.wall_s
    _, _, lags = check_frames(run.workload, plain)
    client["client.feed_lag_p50_ms"] = statistics.median(lags) if lags else 0.0
    client["client.failed_frac"] = run.failed / max(1, run.attempted)
    return per_layer(plain, loop, stats, spans_path, client)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing (run from the root of a full checkout)",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # SIGTERM unwinds like an error, so the servers below are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    state = ROOT / ".perfbench"
    work = state / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = None
    try:
        env = environment(args, work)
        print(f"# env {json.dumps(env, sort_keys=True)}", flush=True)
        run = Run(build(args.workload, args.seed, args.seconds), work)
        if args.trace:
            metrics, units = traced(run)
            diagnostics = {}
        else:
            metrics, diagnostics = end_to_end(run)
            units = UNITS
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(work, ignore_errors=True)
    for name, value in metrics.items():
        print(f"# metric {args.workload} {name} = {value:.6g} {units[name]}")
    for name, value in diagnostics.items():
        print(f"# diagnostic {args.workload} {name} = {value} "
              f"{diagnostic_unit(name)}".rstrip())
    for note in run.notes:
        print(f"# failure {note}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(state / "runs.jsonl", "a") as history:
        history.write(json.dumps({"env": env, "result": result,
                                  "diagnostics": diagnostics}) + "\n")
    print(json.dumps(result), flush=True)
    return 0


#: The gated end-to-end metrics and their units.  Client latencies,
#: throughput and recovery time are diagnostics: they follow the host's
#: CPU steal and speed too closely to repeat (see README.md).
UNITS = {
    "setup_s": "s",
    "server_cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
    "wal_bytes_per_event": "B",
}


if __name__ == "__main__":
    sys.exit(main())
