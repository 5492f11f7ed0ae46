"""Change-feed cost: publishing is (nearly) free, sourcing is what pays.

The same synthetic view as the IVM benchmark:

    V(x)  <- E(x, y).
    Ic1   <- Banned(x) & V(x).

Two claims, recorded into ``BENCH_subs.json``:

- **Fan-out is cheap**: with 64 standing subscriptions on ``V``, the
  per-commit latency of a counting-mode engine stays within 1.2x of the
  same engine with no subscribers at all.  Publishing forwards the
  maintainer's own induced deltas to in-memory callbacks -- no extra
  evaluation, no blocking delivery.
- **Sourcing dominates**: at a 10^5-fact EDB, a counting-sourced feed
  (maintainer deltas) is >= 10x faster per commit than a diff-sourced
  one (``invalidate`` mode, where the engine must snapshot and diff the
  subscribed extents because no maintained deltas exist).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.datalog.database import DeductiveDatabase
from repro.events.events import Transaction, parse_transaction
from repro.server.engine import DatabaseEngine

from tests import faultkit

N_EDB = 100_000
N_BANNED = 20
N_SUBSCRIBERS = 64
DELTA_EVENTS = 8  # 4 inserts + 4 deletes per commit
ROUNDS_FAST = 8
ROUNDS_DIFF = 2

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_subs.json"

RULES = """
    V(x) <- E(x, y).
    Ic1 <- Banned(x) & V(x).
"""


def _build_db(n_facts: int) -> DeductiveDatabase:
    db = DeductiveDatabase.from_source(RULES)
    db.declare_base("E", 2)
    db.declare_base("Banned", 1)
    for index in range(n_facts):
        db.add_fact("E", f"N{index}", f"M{index}")
    for index in range(N_BANNED):
        db.add_fact("Banned", f"Z{index}")
    return db


def _delta_transactions(rounds: int, tag: str) -> list[Transaction]:
    transactions = []
    for r in range(rounds):
        events = []
        for j in range(DELTA_EVENTS // 2):
            events.append(f"insert E({tag}X{r}_{j}, {tag}Y{r}_{j})")
            events.append(f"delete E(N{r * (DELTA_EVENTS // 2) + j}, "
                          f"M{r * (DELTA_EVENTS // 2) + j})")
        transactions.append(Transaction(parse_transaction(", ".join(events))))
    return transactions


def _best_commit_seconds(engine: DatabaseEngine,
                         transactions: list[Transaction]) -> float:
    best = float("inf")
    for transaction in transactions:
        start = time.perf_counter()
        outcome = engine.commit(transaction)
        best = min(best, time.perf_counter() - start)
        assert outcome.applied
    return best


def test_bench_feed_fanout_and_sourcing(benchmark, tmp_path, monkeypatch):
    results: dict[str, dict] = {}

    # -- counting, no subscribers: the baseline ----------------------------
    faultkit.force_maintainer(monkeypatch, "counting")
    engine = DatabaseEngine.open(tmp_path / "base",
                                 initial=_build_db(N_EDB))
    try:
        assert engine.commit(_delta_transactions(1, "W")[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_FAST, "B"))
        results["counting_no_subscribers"] = {
            "edb_facts": N_EDB, "delta_events": DELTA_EVENTS,
            "subscribers": 0, "seconds_per_commit": seconds,
        }
    finally:
        engine.close(checkpoint=False)

    # -- counting, 64 subscribers: delta-sourced fan-out -------------------
    engine = DatabaseEngine.open(tmp_path / "fan",
                                 initial=_build_db(N_EDB))
    try:
        frames: list[list[dict]] = [[] for _ in range(N_SUBSCRIBERS)]
        for sink in frames:
            engine.feed_subscribe(["V"], sink.append)
        assert engine.stats()["engine"]["feed_sourcing"] == "delta"
        assert engine.commit(_delta_transactions(1, "W")[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_FAST, "F"))
        # Every subscriber saw every commit as a delta frame.
        assert all(len(sink) == ROUNDS_FAST + 1 for sink in frames)
        assert all(frame["kind"] == "delta"
                   for sink in frames for frame in sink)
        results["counting_64_subscribers"] = {
            "edb_facts": N_EDB, "delta_events": DELTA_EVENTS,
            "subscribers": N_SUBSCRIBERS, "seconds_per_commit": seconds,
            "frames_delivered": engine.metrics.counter("feed.frames"),
        }
        # The measured side through pytest-benchmark: one fan-out commit.
        pending = iter(_delta_transactions(ROUNDS_FAST, "P"))
        benchmark.pedantic(
            lambda: engine.commit(next(pending)),
            rounds=ROUNDS_FAST, iterations=1)
    finally:
        engine.close(checkpoint=False)

    # -- invalidate, 1 subscriber: diff-sourced feed -----------------------
    faultkit.force_maintainer(monkeypatch, "invalidate")
    engine = DatabaseEngine.open(tmp_path / "diff",
                                 initial=_build_db(N_EDB))
    try:
        sink: list[dict] = []
        engine.feed_subscribe(["V"], sink.append)
        assert engine.stats()["engine"]["feed_sourcing"] == "diff"
        assert engine.commit(_delta_transactions(1, "W")[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_DIFF, "D"))
        assert sink and all(frame["kind"] == "delta" for frame in sink)
        results["diff_1_subscriber"] = {
            "edb_facts": N_EDB, "delta_events": DELTA_EVENTS,
            "subscribers": 1, "seconds_per_commit": seconds,
        }
    finally:
        engine.close(checkpoint=False)

    fanout_overhead = (
        results["counting_64_subscribers"]["seconds_per_commit"]
        / results["counting_no_subscribers"]["seconds_per_commit"])
    sourcing_speedup = (
        results["diff_1_subscriber"]["seconds_per_commit"]
        / results["counting_64_subscribers"]["seconds_per_commit"])

    for key, entry in sorted(results.items()):
        print(f"\nSUBS {key:24s} subs={entry['subscribers']:3d} "
              f"commit={entry['seconds_per_commit'] * 1e3:9.3f} ms")
    print(f"SUBS fan-out overhead at {N_SUBSCRIBERS} subscribers: "
          f"{fanout_overhead:.3f}x")
    print(f"SUBS counting-sourced vs diff-sourced at {N_EDB}: "
          f"{sourcing_speedup:.1f}x")

    BENCH_FILE.write_text(json.dumps({
        "benchmark": "subscription_feed_cost",
        "rules": [line.strip() for line in RULES.strip().splitlines()],
        "delta_events": DELTA_EVENTS,
        "results": results,
        "fanout_overhead_64_subscribers": fanout_overhead,
        "speedup_counting_vs_diff_sourced": sourcing_speedup,
    }, indent=2) + "\n")

    # Acceptance: feed-enabled commits within 1.2x of feed-less commits.
    assert fanout_overhead <= 1.2, (
        f"64 subscribers must not slow commits beyond 1.2x: "
        f"{fanout_overhead:.3f}x")
    # Acceptance: maintainer-sourced frames >= 10x cheaper than diffing.
    assert sourcing_speedup >= 10.0, (
        f"counting-sourced feed must beat diff-sourced by >= 10x at "
        f"{N_EDB} facts: {sourcing_speedup:.1f}x")
