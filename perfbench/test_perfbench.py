"""The benchmark's seed only reorders ops: outcomes and counts do not move.

Run with `python3 -m pytest perfbench` from the repository root (about
two minutes: one traced pass of every workload per seed).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, ".work", "results")


def _run(workload: str, seed: int) -> tuple[dict, dict]:
    """One traced run of one pass; its result line and its result file."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return line, json.load(fh)


def _outcomes(result: dict, kind: str) -> dict:
    """Exit code and digest per op over the untraced ("p") or traced ("t")
    passes."""
    return {r["op"]: (r["exit"], r["sha256"])
            for p in result["passes"] if p["label"][0] == kind
            for r in p["ops"]}


def _counts(line: dict) -> dict:
    return {k: m["value"] for k, m in line["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["nonabelian", "pgroup", "construct"])
def test_two_seeds_agree(workload):
    line_a, a = _run(workload, 1)
    line_b, b = _run(workload, 2)
    assert line_a["correct"] and line_b["correct"]
    assert line_a["failed"] == line_b["failed"] == 0
    order = [[r["op"] for r in res["passes"][0]["ops"]] for res in (a, b)]
    assert order[0] != order[1]
    untraced = _outcomes(a, "p")
    assert len(untraced) == line_a["metrics"]["ops"]["value"]
    assert untraced == _outcomes(a, "t") == _outcomes(b, "p") \
        == _outcomes(b, "t")
    assert _counts(line_a) == _counts(line_b)
