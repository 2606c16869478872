"""Benchmark `chiefblocks analyze` end to end, and layer by layer when traced.

    python3 perfbench/run.py --workload nonabelian --seed 1 --seconds 36 --trace 0

Runs `chiefblocks.cli.run(["analyze", ...])` in this process, one call per
op, over whole passes of the workload until the next pass would end after
`--seconds` (at least one pass).  Every op's exit code and report digest is
checked against `expected.json`.  With `--trace 0` the last line of stdout
is the end-to-end metrics; with `--trace 1` untraced and traced passes
alternate and the last line is the per-layer metrics.  The full result,
stamped and with the traced spans, is written to `perfbench/.work/results/`.
`--record` rewrites `expected.json` from the program as it stands.
README.md says what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import calibrate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join("perfbench", ".work")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_PROBES = 7


def set_up(workload: str, seed: int, specdir: str):
    """Import the program from this checkout and write the workload's specs.

    Returns the cli module, the lattice class and the (op, argv) pairs, or
    raises ImportError when the checkout holds no program.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    from chiefblocks import cli
    from chiefblocks.lattice import NormalLattice
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"chiefblocks imported from {cli.__file__}, "
                          f"not from {src}")
    return cli, NormalLattice, workloads.write_specs(workload, specdir, seed)


def time_setup(workload: str, seed: int) -> list[dict]:
    """Fresh interpreters running `set_up` alone, each timed spawn to exit."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--setup-only"]
    refs = [calibrate.reference()]
    probes = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        dt = time.perf_counter() - t0
        refs.append(calibrate.reference())
        probes.append({"seconds": dt,
                       "scaled_s": calibrate.scaled(dt, refs[-2], refs[-1])})
    return probes


def run_op(cli_run, argv: list[str]) -> tuple:
    """One CLI call: (exit code, sha256 of stdout NUL stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_run(argv)
    except SystemExit as e:
        rc = e.code
    except Exception as e:  # an escaped exception is a failed op
        traceback.print_exc()
        rc = f"exception {type(e).__name__}"
    dt = time.perf_counter() - t0
    text = out.getvalue() + "\0" + err.getvalue()
    return rc, hashlib.sha256(text.encode()).hexdigest(), dt


def run_pass(cli_run, ops, rng: random.Random, label: str,
             tracer=None) -> dict:
    """Every op once, in shuffled order, each between two kernel runs."""
    order = list(ops)
    rng.shuffle(order)
    results = []
    # Each op starts from a collected heap, as it would in a fresh CLI
    # process; otherwise the previous op's cyclic garbage sets when the
    # collector runs and how high the RSS peaks, by op order.
    gc.collect()
    refs = [calibrate.reference()]
    for op, argv in order:
        if tracer is not None:
            tracer.op = f"{label}/{op.op_id}"
        rc, digest, dt = run_op(cli_run, argv)
        gc.collect()
        refs.append(calibrate.reference())
        results.append({"op": op.op_id, "exit": rc, "sha256": digest,
                        "seconds": dt,
                        "scaled_s": calibrate.scaled(dt, refs[-2], refs[-1])})
    return {"label": label, "ops": results, "refs": refs,
            "wall_s": sum(r["seconds"] for r in results),
            "scaled_s": sum(r["scaled_s"] for r in results)}


def stamp(workload: str, seed: int) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "chiefblocks")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "git_rev": rev,
            "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def end_to_end(passes, probes, attempted, failed) -> dict:
    """End-to-end metrics; times in reference-speed seconds."""
    return {
        "wall_s": (statistics.median(p["scaled_s"] for p in passes), "s"),
        "slowest_op_s": (statistics.median(
            max(r["scaled_s"] for r in p["ops"]) for p in passes), "s"),
        "setup_s": (statistics.median(p["scaled_s"] for p in probes), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced, op_ms, counts) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass sums."""
    out = {"ops": (len(traced[0]["ops"]), "count")}
    for metric in spans.TIME_METRICS:
        out[metric] = (statistics.median(
            sum(ms[metric] for ms in by_op.values()) for by_op in op_ms),
            "ms")
    for metric in spans.COUNT_METRICS:
        out[metric] = (counts[metric], "count")
    pairs = counts["factors.pair_tests"]
    out["factors.assoc_yield"] = (
        counts["factors.assoc_edges"] / pairs if pairs else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(p["scaled_s"] for p in traced)
        / statistics.median(p["scaled_s"] for p in plain), "ratio")
    return out


def layer_ms(by_name: dict, scale: float) -> dict[str, float]:
    """One op's span self times (s) summed into the per-layer ms metrics."""
    return {metric: 1000 * scale * sum(by_name.get(n, 0.0) for n in names)
            for metric, names in spans.TIME_METRICS.items()}


def record() -> int:
    """Rewrite expected.json: each op's exit code and report digest."""
    expected = {"stamp": stamp("all", 0), "ops": {}}
    for workload in workloads.WORKLOADS:
        specdir = os.path.join(WORK, "specs", workload)
        cli, _, ops = set_up(workload, 0, specdir)
        for op, argv in ops:
            rc, digest, _ = run_op(cli.run, argv)
            expected["ops"][f"{workload}/{op.op_id}"] = {
                "exit": rc, "sha256": digest}
            print(f"{workload}/{op.op_id}: exit {rc}", file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and write the specs, then exit (times set-up)")
    p.add_argument("--record", action="store_true",
                   help="rewrite expected.json from the current program")
    args = p.parse_args(argv)
    os.chdir(ROOT)
    if args.record:
        return record()
    if args.workload is None:
        p.error("--workload is required")
    workload, seed = args.workload, args.seed
    try:
        if args.setup_only:
            set_up(workload, seed, os.path.join(WORK, "probe", workload))
            return 0
        cli, lattice_cls, ops = set_up(
            workload, seed, os.path.join(WORK, "specs", workload))
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["ops"]
    probes = time_setup(workload, seed)

    rng = random.Random(seed)
    tracer = spans.Tracer() if args.trace else None
    plain, traced, op_ms, counts = [], [], [], []

    def traced_pass(n: int) -> None:
        first = len(tracer.spans)
        tracer.counts = Counter()
        with tracer.installed(cli, lattice_cls):
            traced.append(run_pass(tracer.wrap("cli.run", cli.run), ops, rng,
                                   f"t{n}", tracer))
        scale = {f"t{n}/{r['op']}": r["scaled_s"] / r["seconds"]
                 for r in traced[-1]["ops"]}
        op_ms.append({label.split("/", 1)[1]: layer_ms(by_name, scale[label])
                      for label, by_name in tracer.self_times(first).items()})
        counts.append(tracer.counts)

    longest = 0.0
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + longest <= args.seconds:
        t0 = time.perf_counter()
        n = len(plain)
        # Traced runs alternate which pass of the pair goes first, so neither
        # side of trace.overhead_ratio always runs on a warmer process.
        traced_first = tracer is not None and n % 2 == 1
        if traced_first:
            traced_pass(n)
        plain.append(run_pass(cli.run, ops, rng, f"p{n}"))
        if tracer is not None and not traced_first:
            traced_pass(n)
        longest = max(longest, time.perf_counter() - t0)

    # Traced and untraced passes are checked against the same recorded
    # outcome, so a byte that tracing changed fails the op.
    outcomes = [r for p in plain + traced for r in p["ops"]]
    bad = [r for r in outcomes
           if expected.get(f"{workload}/{r['op']}")
           != {"exit": r["exit"], "sha256": r["sha256"]}]
    for r in bad:
        print(f"FAILED {r['op']}: exit {r['exit']} sha256 {r['sha256']}",
              file=sys.stderr)
    correct = not bad and all(c == counts[0] for c in counts)
    if args.trace:
        metrics = per_layer(plain, traced, op_ms, counts[0])
    else:
        metrics = end_to_end(plain, probes, len(outcomes), len(bad))

    result = {"stamp": stamp(workload, seed), "setup_probes": probes,
              "passes": plain + traced,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    if tracer is not None:
        result["self_ms_per_op"] = {
            op: {name: 1000 * s for name, s in by_name.items()}
            for op, by_name in tracer.self_times().items()}
        result["spans"] = tracer.spans
    outdir = os.path.join(WORK, "results")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir,
                        f"{workload}-seed{seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    print("stamp: " + json.dumps(result["stamp"], sort_keys=True))
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"result written to {path}")
    print("raw medians (s): pass {:.4f}, set-up {:.4f}, reference {:.5f}"
          .format(statistics.median(p["wall_s"] for p in plain),
                  statistics.median(p["seconds"] for p in probes),
                  statistics.median(r for p in plain for r in p["refs"])))
    for op, _ in ops if args.trace else ():
        row = {m: statistics.median(by_op[op.op_id][m] for by_op in op_ms)
               for m in spans.TIME_METRICS}
        print(f"op {op.op_id}: " + " ".join(
            f"{m}={ms:.1f}" for m, ms in row.items() if ms >= 0.05))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": len(bad), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
