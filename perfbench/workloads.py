"""The benchmark's fixed workloads: one `chiefblocks analyze` call per op.

Each op is a group spec plus the `analyze` flags to run it with.  The specs
are written to JSON files at set-up; the seed only shuffles the op order and
sets the `--seed` passed to `analyze` (which feeds only the sampled group-law
check), so every op's exit code and report bytes are fixed.  README.md in
this directory says why each workload was chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


def named(name: str) -> dict:
    return {"kind": "named", "name": name}


def direct(*factors: dict) -> dict:
    """Left-nested direct product of the factors."""
    spec = factors[0]
    for f in factors[1:]:
        spec = {"kind": "direct", "left": spec, "right": f}
    return spec


def s5_wr_c2() -> dict:
    """S5 wr C2 as a semidirect spec: C2 swaps the coordinates of S5 x S5.

    Element (a, b) of the direct product has id a*120 + b, so the swap table
    has 14,400 entries; generating and parsing it is part of the cost.
    """
    r = 120
    swap = [b * r + a for a in range(r) for b in range(r)]
    return {"kind": "semidirect", "base": direct(named("S5"), named("S5")),
            "top": named("C2"), "action": [swap]}


@dataclass(frozen=True)
class Op:
    """One `analyze` call: a spec, its flags and an optional parts file."""

    op_id: str
    spec: dict
    flags: tuple = ()
    parts: list | None = None


def _ops() -> dict[str, list[Op]]:
    comp = ("--components",)
    return {
        "nonabelian": [
            Op("A5wrC2-components", named("A5wrC2"), comp),
            Op("A5wrC2-extend", named("A5wrC2"),
               ("--extend-normal", "[[0],[1],[2],[3]]")),
            Op("S5xS5-components", direct(named("S5"), named("S5")), comp),
            Op("S5wrC2", s5_wr_c2()),
        ],
        "pgroup": [
            Op("ES32-components-factorization",
               {"kind": "central_product", "left": named("Q8"),
                "right": named("Q8"), "identify": [[3, 3]]},
               comp, parts=[[[0], [1]], [[2], [3]]]),
            Op("C2^4-components", direct(*[named("C2")] * 4), comp),
            Op("Q8xD8-components", direct(named("Q8"), named("D8")), comp),
            Op("D8xS4-components", direct(named("D8"), named("S4")), comp),
            Op("C4xC4xC2-components",
               direct(named("C4"), named("C4"), named("C2")), comp),
        ],
        "construct": [
            Op("D512", named("D512")),
            Op("C256", named("C256")),
            Op("A6-components", named("A6"), comp),
            Op("perm-A5", {"kind": "perm", "points": 5,
                           "generators": [[[0, 1, 2, 3, 4]], [[0, 1, 2]]]}),
            Op("S5xS5-quotient-components",
               {"kind": "quotient", "group": direct(named("S5"), named("S5")),
                "kernel": [[0], [1]]}, comp),
            Op("C3:C2", {"kind": "semidirect", "base": named("C3"),
                         "top": named("C2"), "action": [[0, 2, 1]]}),
            Op("refuse-element-cap", named("A5"), ("--element-cap", "10")),
            Op("refuse-node-cap", direct(*[named("C2")] * 5),
               ("--node-cap", "100")),
            Op("refuse-non-bijective",
               {"kind": "perm", "points": 3, "generators": [[[0, 1], [1, 2]]]}),
        ],
    }


WORKLOADS = _ops()


def write_specs(workload: str, workdir: str, seed: int
                ) -> list[tuple[Op, list[str]]]:
    """Write the workload's spec and parts files; pair each op with argv."""
    os.makedirs(workdir, exist_ok=True)
    out = []
    for op in WORKLOADS[workload]:
        stem = os.path.join(workdir, op.op_id.replace(":", "_"))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(op.spec, fh)
        argv = ["analyze", "--spec", stem + ".json", *op.flags,
                "--seed", str(seed)]
        if op.parts is not None:
            with open(stem + ".parts.json", "w", encoding="utf-8") as fh:
                json.dump({"parts": op.parts}, fh)
            argv += ["--factorization", stem + ".parts.json"]
        out.append((op, argv))
    return out
