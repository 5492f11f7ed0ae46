"""Warm-cache serving: delta-driven advance vs invalidate-on-commit.

The advancing maintainer patches the memoised old-state
materialisation with the induced events the commit-time integrity check
already computed (the paper's view-maintenance reading of the event
rules).  The invalidating maintainer is the from-scratch baseline: every commit
drops the interpreters, so the next read pays a from-scratch
materialisation.

This benchmark drives a read-heavy interleaved workload -- each commit
followed by several integrity-check probes -- through both
maintainers (forced through ``tests.faultkit.force_maintainer``) and
asserts the advancing one does at least 5x fewer full materialisations,
which is where its read-latency advantage comes from.
"""

import itertools
import time

from repro.events.events import Transaction, insert
from repro.server import DatabaseEngine
from repro.workloads import employment_database

from tests import faultkit

ROUNDS = 8
READS_PER_ROUND = 6
_run_ids = itertools.count()


def _fresh_engine(tmp_path, monkeypatch, maintainer: str) -> DatabaseEngine:
    directory = tmp_path / f"run{next(_run_ids)}"
    faultkit.force_maintainer(monkeypatch, maintainer)
    return DatabaseEngine.open(directory,
                               initial=employment_database(60, seed=3))


def _workload(engine: DatabaseEngine) -> float:
    """Interleave commits with check probes; return total read seconds."""
    engine.check(Transaction([insert("Works", "Warmup")]))
    read_seconds = 0.0
    for round_ in range(ROUNDS):
        name = f"N{round_}"
        engine.commit(Transaction([insert("La", name),
                                   insert("U_benefit", name)]))
        for read in range(READS_PER_ROUND):
            probe = Transaction([insert("Works", f"R{round_}_{read}")])
            start = time.perf_counter()
            verdict = engine.check(probe)
            read_seconds += time.perf_counter() - start
            assert verdict.ok
    return read_seconds


def _run(tmp_path, monkeypatch, maintainer: str):
    engine = _fresh_engine(tmp_path, monkeypatch, maintainer)
    try:
        read_seconds = _workload(engine)
        counters = engine.stats()["counters"]
    finally:
        engine.close(checkpoint=False)
    return read_seconds, counters


def test_bench_cache_advance_vs_invalidate(benchmark, tmp_path, monkeypatch):
    advance_reads, advance_counters = _run(tmp_path, monkeypatch, "advance")
    invalidate_reads, invalidate_counters = _run(tmp_path, monkeypatch,
                                                 "invalidate")

    advance_mat = advance_counters.get("cache.rematerialize", 0)
    invalidate_mat = invalidate_counters.get("cache.rematerialize", 0)

    print(f"\nCACHE advance:    materialisations={advance_mat:3d}  "
          f"read_time={advance_reads * 1e3:8.2f} ms")
    print(f"CACHE invalidate: materialisations={invalidate_mat:3d}  "
          f"read_time={invalidate_reads * 1e3:8.2f} ms")

    # The lifecycle did what it says: advance mode never invalidated, the
    # baseline invalidated once per commit.
    assert advance_counters.get("cache.advance", 0) == ROUNDS
    assert "cache.invalidate" not in advance_counters
    assert invalidate_counters.get("cache.invalidate", 0) == ROUNDS

    # Acceptance criterion: >= 5x fewer full materialisations.  The
    # advance mode pays one (the warm-up); the baseline pays one per
    # commit-then-read round plus the warm-up.
    assert advance_mat * 5 <= invalidate_mat, (
        f"advance mode must rematerialise at least 5x less often: "
        f"{advance_mat} vs {invalidate_mat}")

    def setup():
        return (_fresh_engine(tmp_path, monkeypatch, "advance"),), {}

    def target(engine):
        try:
            _workload(engine)
        finally:
            engine.close(checkpoint=False)

    benchmark.pedantic(target, setup=setup, rounds=3)
