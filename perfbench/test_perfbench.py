"""Tests of the benchmark itself: wrong answers must not pass unnoticed.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _event_list(events) -> list[dict]:
    return [{"kind": kind, "predicate": predicate, "args": list(args)}
            for kind, predicate, args in sorted(events)]


def right_reply(op: workloads.Op) -> dict:
    """The reply a correct server gives, built from the shadow model."""
    if op.cls == "commit":
        return {"ok": True, "result": {"applied": op.expect}}
    if op.cls in ("lookup", "scan"):
        must, _ = op.expect
        return {"ok": True, "result": {"answers": [list(r) for r in must]}}
    kind, expect = op.expect
    if kind == "check":
        violations = {"Ic1": [list(r) for r in expect]} if expect else {}
        return {"ok": True, "result": {"ok": not expect,
                                       "violations": violations}}
    if kind == "upward":
        return {"ok": True, "result": {
            "insertions": {p: [list(r) for r in ins]
                           for p, (ins, _) in expect.items() if ins},
            "deletions": {p: [list(r) for r in dels]
                          for p, (_, dels) in expect.items() if dels}}}
    return {"ok": True, "result": {"translations": [
        {"transaction": _event_list(txn), "constraints": _event_list(cons)}
        for txn, cons in expect]}}


def planted(op: workloads.Op, reply: dict) -> dict:
    """*reply* with one wrong answer planted in it."""
    result = dict(reply["result"])
    if op.cls == "commit":
        result["applied"] = not result["applied"]
    elif op.cls in ("lookup", "scan"):
        answers = result["answers"]
        result["answers"] = answers[1:] if answers else [["Nobody"]]
    elif "violations" in result:
        result["ok"] = not result["ok"]
    elif "insertions" in result:
        result["insertions"] = {**result["insertions"], "Unemp": [["Nobody"]]}
    else:
        result["translations"] = result["translations"][1:]
    return {"ok": True, "result": result}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_planted_wrong_answer_is_caught(name):
    workload = workloads.build(name, seed=3, seconds=1)
    ops = [op for conn in workload.ops for op in conn]
    classes = {op.cls for op in ops}
    assert "commit" in classes
    for op in ops:
        reply = right_reply(op)
        assert run.judge(op, reply), (op.op, op.params)
        assert not run.judge(op, planted(op, reply)), (op.op, op.params)
        assert not run.judge(op, {"ok": False, "error": {"type": "internal"}})


def test_inputs_depend_only_on_the_seed():
    def fingerprint(seed):
        workload = workloads.build("recursive-dag", seed=seed, seconds=1)
        return workload.init_text, [[(o.op, o.params) for o in conn]
                                    for conn in workload.ops]

    assert fingerprint(5) == fingerprint(5)
    assert fingerprint(5) != fingerprint(6)


def test_a_planted_fact_in_the_served_database_is_caught(tmp_path):
    workload = workloads.build("read-8k", seed=4, seconds=1)
    workload.init_text += "La(Planted). U_benefit(Planted).\n"
    checked = run.Run(workload, tmp_path)
    loop, server = checked.measured_pass()
    server.kill()
    assert not loop.lost and not loop.unsent
    # Scans and the final Unemp extent see the phantom person.
    assert checked.failed >= 1
    assert any("1 phantom" in note for note in checked.notes)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-8k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert result.returncode != 0
    assert result.stdout.strip() == ""
