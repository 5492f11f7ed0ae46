"""Counting IVM: commit latency scales with |delta|, not |EDB|.

A synthetic view over a 10^5--10^6-row extensional database:

    V(x)  <- E(x, y).
    Ic1   <- Banned(x) & V(x).

Every commit replaces a handful of ``E`` rows (|delta| = 8 events).  Under
the invalidating oracle each commit's integrity check re-materialises the
whole view -- O(|EDB|) per commit.  Under counting (what the engine
selects for this non-recursive program) the check *is*
the delta-rule evaluation over per-tuple derivation counts -- O(|delta|)
per commit after a one-time bootstrap at open.

Acceptance criteria (ISSUE 7), recorded into ``BENCH_ivm.json``:

- counting commit latency at the 10^5-fact EDB is >= 5x lower than
  under the invalidating maintainer (forced through
  ``tests.faultkit.force_maintainer``);
- counting-mode latency grows with |delta|, not |EDB|: doubling the EDB
  with the same delta leaves per-commit latency within 3x (in practice
  it is flat; the bound absorbs fsync noise).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.datalog.database import DeductiveDatabase
from repro.events.events import Transaction, parse_transaction
from repro.server.engine import DatabaseEngine

from tests import faultkit

N_SMALL = 100_000
N_LARGE = 200_000
N_BANNED = 20
DELTA_EVENTS = 8  # 4 inserts + 4 deletes per commit
ROUNDS_COUNTING = 8
ROUNDS_INVALIDATE = 3

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_ivm.json"

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
    # Banned names never occur in E: the state stays consistent, so
    # commits exercise the real checked fast path.
    for index in range(N_BANNED):
        db.add_fact("Banned", f"Z{index}")
    return db


def _delta_transactions(rounds: int, tag: str) -> list[Transaction]:
    """One |delta|=8 transaction per round: 4 fresh inserts, 4 deletes."""
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


def test_bench_counting_vs_invalidate(benchmark, tmp_path, monkeypatch):
    results: dict[str, dict] = {}

    # -- invalidate baseline at the small EDB ------------------------------
    faultkit.force_maintainer(monkeypatch, "invalidate")
    engine = DatabaseEngine.open(tmp_path / "inv", initial=_build_db(N_SMALL))
    try:
        warm = _delta_transactions(1, "W")  # warm-up commit (imports, JIT)
        assert engine.commit(warm[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_INVALIDATE, "I"))
        results["invalidate_small"] = {
            "edb_facts": N_SMALL, "delta_events": DELTA_EVENTS,
            "seconds_per_commit": seconds,
        }
    finally:
        engine.close(checkpoint=False)

    # -- counting at the small EDB -----------------------------------------
    faultkit.force_maintainer(monkeypatch, "counting")
    engine = DatabaseEngine.open(tmp_path / "cs", initial=_build_db(N_SMALL))
    try:
        assert engine.metrics.counter("ivm.delta_rules") > 0
        warm = _delta_transactions(1, "W")
        assert engine.commit(warm[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_COUNTING, "C"))
        results["counting_small"] = {
            "edb_facts": N_SMALL, "delta_events": DELTA_EVENTS,
            "seconds_per_commit": seconds,
            "bootstraps": engine.metrics.counter("ivm.bootstrap"),
            "rederives": engine.metrics.counter("ivm.rederive"),
            "cache_invalidations": engine.metrics.counter("cache.invalidate"),
        }
        # The whole run stayed on maintained state: no invalidations.
        assert engine.metrics.counter("cache.invalidate") == 0
        # The measured side through pytest-benchmark: one counting commit.
        pending = iter(_delta_transactions(ROUNDS_COUNTING, "P"))
        benchmark.pedantic(
            lambda: engine.commit(next(pending)),
            rounds=ROUNDS_COUNTING, iterations=1)
    finally:
        engine.close(checkpoint=False)

    # -- counting at the doubled EDB, identical delta ----------------------
    engine = DatabaseEngine.open(tmp_path / "cl", initial=_build_db(N_LARGE))
    try:
        warm = _delta_transactions(1, "W")
        assert engine.commit(warm[0]).applied
        seconds = _best_commit_seconds(
            engine, _delta_transactions(ROUNDS_COUNTING, "L"))
        results["counting_large"] = {
            "edb_facts": N_LARGE, "delta_events": DELTA_EVENTS,
            "seconds_per_commit": seconds,
        }
    finally:
        engine.close(checkpoint=False)

    speedup = (results["invalidate_small"]["seconds_per_commit"]
               / results["counting_small"]["seconds_per_commit"])
    growth = (results["counting_large"]["seconds_per_commit"]
              / results["counting_small"]["seconds_per_commit"])

    for key, entry in sorted(results.items()):
        print(f"\nIVM {key:18s} edb={entry['edb_facts']:7d} "
              f"commit={entry['seconds_per_commit'] * 1e3:9.3f} ms")
    print(f"IVM speedup counting vs invalidate at {N_SMALL}: {speedup:.1f}x")
    print(f"IVM growth  counting {N_LARGE}/{N_SMALL} (same delta): "
          f"{growth:.2f}x")

    BENCH_FILE.write_text(json.dumps({
        "benchmark": "counting_ivm_commit_latency",
        "rules": [line.strip() for line in RULES.strip().splitlines()],
        "delta_events": DELTA_EVENTS,
        "results": results,
        "speedup_counting_vs_invalidate_small": speedup,
        "growth_counting_large_over_small": growth,
    }, indent=2) + "\n")

    # Acceptance: counting >= 5x faster than invalidate at the same EDB.
    assert speedup >= 5.0, (
        f"counting must beat invalidate by >= 5x at {N_SMALL} facts: "
        f"invalidate {results['invalidate_small']['seconds_per_commit']:.4f}s"
        f" vs counting "
        f"{results['counting_small']['seconds_per_commit']:.4f}s "
        f"({speedup:.1f}x)")
    # Acceptance: same delta, doubled EDB -> latency bounded (|delta|
    # scaling, not |EDB| scaling; 3x absorbs fsync jitter).
    assert growth <= 3.0, (
        f"counting commit latency must track |delta|, not |EDB|: "
        f"{N_LARGE}-fact EDB is {growth:.2f}x the {N_SMALL}-fact latency")
