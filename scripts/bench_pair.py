"""Compare perfbench's end-to-end metrics between a parent commit and the tree.

    python3 scripts/bench_pair.py --parent HEAD \\
        --runs construct=10 nonabelian=3 pgroup=3 --output BENCH_7.json

Extracts both sides with `git archive` into a scratch directory: the
parent commit, and the change, which is HEAD or, when tracked files are
edited, the commit `git stash create` makes of the working tree.  So no
file the repository does not track, such as bytecode under `src/`, reaches
either side; an untracked file under `src/` that is not ignored would be
left out of the change, so the script refuses to run while one is there.
It then runs `perfbench/run.py --trace 0` on both sides in alternating
pairs, each run as long as BENCHMARK.json's `run_seconds`.
Pair i of a workload runs both sides with seed i (1-based), and the side
that goes first alternates from pair to pair, so drift of the machine's
speed falls on both sides alike.  For every end-to-end metric of BENCHMARK.json
the output gives each side's median and quartiles over the pairs, the
change's median over the parent's, in how many pairs the working tree
was strictly better, and whether the change's median is worse than the
parent's by more than the metric's bound (``regressed``, tagged REGRESSED
in the printed table).  Every run's metric line is kept as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest`` (no .git directory)."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def change_rev() -> str:
    """The commit holding the change: HEAD, or a stash commit of the edits.

    ``git stash create`` writes the commit without touching the working
    tree, the index or the stash list.
    """
    untracked = git("ls-files", "--others", "--exclude-standard", "--",
                    "src")
    if untracked:
        raise SystemExit("untracked files under src/ would be left out of "
                         f"the change:\n{untracked}")
    return git("stash", "create") or git("rev-parse", "HEAD")


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run: its metric values, stamp and verdict."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {checkout}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    stamp = next(json.loads(line[len("stamp: "):]) for line in lines
                 if line.startswith("stamp: "))
    last = json.loads(lines[-1])
    return {"correct": last["correct"],
            "src_sha256": stamp["src_sha256"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, ratio and win count.

    ``regressed`` is true when the change's median is worse than the
    parent's by more than the relative bound: above parent * (1 + bound)
    for a lower-is-better metric, below parent * (1 - bound) otherwise.
    """
    out = {}
    for m in end_to_end:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        med_p, med_c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": bound,
            "parent": spread(parent), "change": spread(change),
            "change_over_parent": med_c / med_p if med_p else None,
            "change_wins": wins, "pairs": len(runs),
            "regressed": (med_c > med_p * (1 + bound) if lower
                          else med_c < med_p * (1 - bound)),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", default="HEAD",
                   help="commit to compare the working tree with")
    p.add_argument("--runs", nargs="+", required=True,
                   metavar="WORKLOAD=PAIRS",
                   help="pairs of runs per workload, e.g. construct=10")
    p.add_argument("--workdir",
                   help="where to extract both sides (default: a temporary "
                        "directory, removed afterwards)")
    p.add_argument("--output", help="write the JSON result here")
    args = p.parse_args(argv)
    plan = []
    for item in args.runs:
        workload, _, pairs = item.partition("=")
        if not pairs.isdigit() or int(pairs) < 2:
            p.error(f"--runs {item!r}: expected WORKLOAD=PAIRS, PAIRS >= 2")
        plan.append((workload, int(pairs)))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]

    parent_rev, change = git("rev-parse", args.parent), change_rev()
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_pair_")
    sides = {}
    for side, rev in (("parent", parent_rev), ("change", change)):
        sides[side] = os.path.join(workdir, side)
        shutil.rmtree(sides[side], ignore_errors=True)
        os.makedirs(sides[side])
        extract(rev, sides[side])
    result = {
        "stamp": {
            "parent_rev": parent_rev,
            "change_rev": git("rev-parse", "HEAD"),
            "change_tree_rev": change,
            "change_dirty": bool(git("status", "--porcelain",
                                     "--untracked-files=no")),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seconds": seconds,
        },
        "workloads": {},
    }
    try:
        for workload, pairs in plan:
            runs = []
            for i in range(pairs):
                seed = i + 1
                order = ("parent", "change") if i % 2 == 0 else (
                    "change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = run_once(sides[side], workload, seed,
                                         seconds)
                runs.append(run)
                print(f"{workload} pair {i + 1}/{pairs}: wall_s "
                      f"{run['parent']['metrics']['wall_s']:.3f} -> "
                      f"{run['change']['metrics']['wall_s']:.3f}",
                      file=sys.stderr)
            result["workloads"][workload] = {
                "correct": all(r[s]["correct"] for r in runs
                               for s in sides),
                "metrics": summarize(runs, end_to_end),
                "runs": runs,
            }
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    for workload, data in result["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:11s} {name:13s} parent "
                  f"{m['parent']['median']:10.4f} change "
                  f"{m['change']['median']:10.4f} wins "
                  f"{m['change_wins']}/{m['pairs']}"
                  + (" REGRESSED" if m["regressed"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
