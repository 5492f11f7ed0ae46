"""Warm-state serving: the counting maintainer's shared state vs
invalidate-on-commit.

The counting maintainer advances its derived extensions with the induced
events the commit-time integrity check already computed (the paper's
view-maintenance reading of the event rules), and the update processor's
interpreters read those extensions in place.  The invalidating maintainer
is the from-scratch baseline: every commit drops the interpreters, so the
next read pays a from-scratch materialisation.

This benchmark drives a read-heavy interleaved workload -- each commit
followed by several integrity-check probes -- through both maintainers
(forced through ``tests.faultkit.force_maintainer``) and asserts the
counting one does at least 5x fewer full materialisations (it does none),
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


def test_bench_cache_counting_vs_invalidate(benchmark, tmp_path,
                                            monkeypatch):
    counting_reads, counting_counters = _run(tmp_path, monkeypatch,
                                             "counting")
    invalidate_reads, invalidate_counters = _run(tmp_path, monkeypatch,
                                                 "invalidate")

    counting_mat = counting_counters.get("cache.rematerialize", 0)
    invalidate_mat = invalidate_counters.get("cache.rematerialize", 0)

    print(f"\nCACHE counting:   materialisations={counting_mat:3d}  "
          f"read_time={counting_reads * 1e3:8.2f} ms")
    print(f"CACHE invalidate: materialisations={invalidate_mat:3d}  "
          f"read_time={invalidate_reads * 1e3:8.2f} ms")

    # The lifecycle did what it says: counting never invalidated, the
    # baseline invalidated once per commit.
    assert "cache.invalidate" not in counting_counters
    assert invalidate_counters.get("cache.invalidate", 0) == ROUNDS

    # Acceptance criterion: >= 5x fewer full materialisations.  Counting
    # pays none (the probes read its maintained extensions); the baseline
    # pays one per commit-then-read round plus the warm-up.
    assert counting_mat * 5 <= invalidate_mat, (
        f"counting must rematerialise at least 5x less often: "
        f"{counting_mat} vs {invalidate_mat}")

    def setup():
        return (_fresh_engine(tmp_path, monkeypatch, "counting"),), {}

    def target(engine):
        try:
            _workload(engine)
        finally:
            engine.close(checkpoint=False)

    benchmark.pedantic(target, setup=setup, rounds=3)
