"""Batch analyzer: parse a group spec, run the analyses, emit text or DOT.

Spec files are JSON trees; see ``parse_spec``.  Reports are deterministic
key/value text with a schema version, suitable for diffing under version
control.  Exit codes: 0 success, 2 malformed input, 3 cap exceeded, 4
failed internal check or any other unexpected error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import zlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import named as _named
from .blocks import (
    chief_blocks,
    lowermost_representative,
    minimal_cover,
    uppermost_representative,
)
from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    BadAction,
    CapError,
    CapExceeded,
    InvalidPermutation,
    NotNormal,
    ParseError,
    SectionMissing,
    SpecError,
)
from .extensions import extension_poset_check
from .factors import association_graph, is_abelian_factor
from .group import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_NODE_CAP,
    FiniteGroup,
    Subgroup,
    center,
    is_normal_in,
    is_perfect,
    subgroup_generated,
    verify_group_axioms,
)
from .lattice import normal_subgroups
from .products import classify_factorization, diagonal_map
from .semisimple import component_report

SCHEMA_VERSION = 1
TOOL_VERSION = "chiefblocks 0.1.0"

# Every field of a node of each kind; the subspec fields are validated last.
_FIELDS = {
    "perm": ("points", "generators"),
    "direct": ("left", "right"),
    "semidirect": ("base", "top", "action"),
    "quotient": ("group", "kernel"),
    "central_product": ("left", "right", "identify"),
    "named": ("name",),
}
_KINDS = tuple(_FIELDS)
_SUBSPECS = ("left", "right", "base", "top", "group")


def parse_spec(text: str) -> dict:
    """Parse JSON spec text and validate it; the spec is the JSON itself.

    Each node is an object with a ``kind`` and exactly that kind's fields;
    ``build_group`` reads the validated tree by key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    return _validate_spec(raw, "spec")


def _is_id(x) -> bool:
    """An int that is not a bool (JSON true/false parse as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _validate_spec(raw, path: str) -> dict:
    """Check one spec node, then its subspecs in field order; return it."""
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected an object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise ParseError(f"{path}: kind must be one of {_KINDS}, got {kind!r}")
    fields = _FIELDS[kind]
    missing = [n for n in fields if n not in raw]
    if missing:
        raise ParseError(f"{path}: missing fields {missing} for {kind}")
    extra = set(raw) - {"kind"} - set(fields)
    if extra:
        raise ParseError(f"{path}: unexpected fields {sorted(extra)}")
    if kind == "named" and not isinstance(raw["name"], str):
        raise ParseError(f"{path}.name: expected a string")
    if kind == "perm":
        if not _is_id(raw["points"]) or raw["points"] < 1:
            raise ParseError(f"{path}.points: expected a positive integer")
        gens = raw["generators"]
        if not (isinstance(gens, list) and all(
                isinstance(gen, list) and all(
                    isinstance(c, list) and all(_is_id(i) for i in c)
                    for c in gen)
                for gen in gens)):
            raise ParseError(f"{path}.generators: expected a list of cycle lists")
    for name in ("identify", "kernel"):
        if name in fields and not isinstance(raw[name], list):
            raise ParseError(f"{path}.{name}: expected a list")
    if kind == "semidirect":
        act = raw["action"]
        if not (isinstance(act, list) and all(
                isinstance(t, list) and all(_is_id(x) for x in t)
                for t in act)):
            raise BadAction(
                f"{path}.action: expected a list of tables of element ids")
    for name in fields:
        if name in _SUBSPECS:
            _validate_spec(raw[name], f"{path}.{name}")
    return raw


def resolve_element(g: FiniteGroup, item, path: str = "element") -> int:
    """An element id (int) or a word in group generators (list of indices)."""
    if _is_id(item):
        if not 0 <= item < g.order:
            raise ParseError(f"{path}: element id {item} out of range")
        return item
    if isinstance(item, list):
        out = 0
        for i in item:
            if not _is_id(i) or not 0 <= i < len(g.generators):
                raise ParseError(
                    f"{path}: generator index {i!r} out of range")
            out = g.mul(out, g.generators[i])
        return out
    raise ParseError(f"{path}: expected an id or a generator-index word")


def resolve_subgroup(g: FiniteGroup, items, path: str = "subgroup") -> Subgroup:
    """The subgroup generated by a list of ids and generator-index words."""
    if not isinstance(items, list):
        raise ParseError(f"{path}: expected a list of ids or words")
    return subgroup_generated(g, [resolve_element(g, it, path) for it in items])


def build_group(spec: dict, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Materialize a spec that ``parse_spec`` validated, reading it by key."""
    from .group import direct_product, group_from_permutations, quotient, \
        semidirect_product
    from .perm import perm_from_cycles

    kind = spec["kind"]
    if kind == "named":
        return _named.build_named(spec["name"], cap)
    if kind == "perm":
        if spec["points"] > cap:  # refused before any permutation is built
            raise CapExceeded(f"perm points exceed element cap {cap}")
        try:
            perms = [perm_from_cycles(cycles, spec["points"])
                     for cycles in spec["generators"]]
            return group_from_permutations(perms, spec["points"], cap)
        except InvalidPermutation as e:
            raise ParseError(f"generators: {e}") from e
    if kind == "direct":
        return direct_product(build_group(spec["left"], cap),
                              build_group(spec["right"], cap), cap)
    if kind == "central_product":
        left = build_group(spec["left"], cap)
        right = build_group(spec["right"], cap)
        pairs = []
        for pair in spec["identify"]:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError("identify: expected [left, right] pairs")
            pairs.append((resolve_element(left, pair[0], "identify"),
                          resolve_element(right, pair[1], "identify")))
        return _named.central_product(left, right, pairs, cap).group
    if kind == "semidirect":
        base = build_group(spec["base"], cap)
        top = build_group(spec["top"], cap)
        try:
            return semidirect_product(base, top, spec["action"], cap)
        except (ActionNotAutomorphism, ActionNotHomomorphism) as e:
            raise BadAction(str(e)) from e
    grp = build_group(spec["group"], cap)
    kernel = resolve_subgroup(grp, spec["kernel"], "kernel")
    try:
        q, _ = quotient(grp, kernel)
    except NotNormal as e:
        raise SpecError(f"kernel is not normal: {e}") from e
    return q


# ---------------------------------------------------------------------------
# analysis report
# ---------------------------------------------------------------------------

def _fingerprint(members) -> str:
    ids = ",".join(str(i) for i in sorted(members)).encode()
    return f"{zlib.crc32(ids):08x}"


@dataclass
class AnalysisReport:
    lines: list[str] = field(default_factory=list)
    graphs: dict = field(default_factory=dict)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class AnalyzeOptions:
    components: bool = False
    factorization_parts: Optional[list] = None
    extend_normal: Optional[list] = None
    element_cap: int = DEFAULT_ELEMENT_CAP
    node_cap: int = DEFAULT_NODE_CAP
    seed: int = 0


def analyze(spec: dict, options: Optional[AnalyzeOptions] = None
            ) -> AnalysisReport:
    """Run the full analysis pipeline and produce a deterministic report.

    The constructed group is checked against the group laws first.  A group
    of order <= 512 builds its Cayley table from one column per generator
    and checks associativity exhaustively as it does (Light's test);
    ``verify_group_axioms`` then checks identity and inverses exhaustively
    and compares the table with the construction's product on every pair
    up to order 89 and on seeded random triples above that.  A larger group
    is checked for associativity on seeded random triples.  ``node_cap`` becomes the group's cap, so it bounds every
    normal lattice the analysis builds, and the association stage refuses
    more than ``factors.ASSOCIATION_PAIR_CAP`` pair tests.  Subgroups in the
    options are resolved and checked normal before any lattice is built.
    """
    opts = options or AnalyzeOptions()
    g = build_group(spec, opts.element_cap)
    g.node_cap = opts.node_cap
    verify_group_axioms(g, random.Random(opts.seed))
    parts = h = None
    if opts.factorization_parts is not None:
        parts = [resolve_subgroup(g, p, "factorization part")
                 for p in opts.factorization_parts]
        if not all(is_normal_in(p, g.whole()) for p in parts):
            raise SpecError("factorization parts must be normal")
    if opts.extend_normal is not None:
        h = resolve_subgroup(g, opts.extend_normal, "extend-normal")
        if not is_normal_in(h, g.whole()):
            raise SpecError("--extend-normal subgroup must be normal")
    rep = AnalysisReport()
    out = rep.lines
    out.append(f"schema: {SCHEMA_VERSION}")
    out.append(f"tool: {TOOL_VERSION}")
    out.append("group:")
    out.append(f"  name: {g.name}")
    out.append(f"  order: {g.order}")
    out.append(f"  center_order: {center(g).order}")
    out.append(f"  abelian: {g.is_abelian}")
    out.append(f"  perfect: {is_perfect(g)}")
    out.append(f"  provenance: {g.provenance}")

    lat = normal_subgroups(g)
    out.append("normal_lattice:")
    out.append(f"  node_count: {len(lat)}")
    for i, node in enumerate(lat.nodes):
        out.append(f"  n{i}: order={node.order} fp={_fingerprint(node.members)}")
    edges = lat.covers()
    out.append(f"  hasse_edge_count: {len(edges)}")
    out.append("  hasse_edges: " + " ".join(f"n{i}<n{j}" for i, j in edges))
    rep.graphs["normal-lattice"] = {
        "nodes": [f"order={n.order}" for n in lat.nodes],
        "edges": edges,
    }

    verts, assoc_edges = association_graph(g)
    out.append("chief_factors:")
    out.append(f"  count: {len(verts)}")
    labels = []
    for i, f in enumerate(verts):
        ab = is_abelian_factor(f)
        ki, li = lat.index_of(f.k), lat.index_of(f.l)
        labels.append(f"{f.k.order}/{f.l.order} (n{ki}/n{li})")
        out.append(f"  f{i}: K=n{ki} L=n{li} order={f.order} abelian={ab}")
    out.append("association_graph:")
    out.append(f"  vertex_count: {len(verts)}")
    out.append(f"  edge_count: {len(assoc_edges)}")
    out.append("  edges: " + " ".join(f"f{i}--f{j}" for i, j in assoc_edges))
    rep.graphs["association-graph"] = {"nodes": labels, "edges": assoc_edges}

    bp = chief_blocks(g)
    out.append("blocks:")
    out.append(f"  count: {len(bp)}")
    for b in bp.blocks:
        cm = b.centralizer
        mc = minimal_cover(g, b)
        upper = uppermost_representative(g, b)
        lower = lowermost_representative(g, b)
        out.append(f"  b{b.block_id}:")
        out.append(f"    centralizer: order={cm.order}"
                   f" fp={_fingerprint(cm.members)}")
        out.append(f"    representatives: {len(b.representatives)}")
        out.append("    minimally_covered: True")
        out.append(f"    minimal_cover: order={mc.order}"
                   f" fp={_fingerprint(mc.members)}")
        out.append(f"    uppermost: {upper.k.order}/{upper.l.order}")
        out.append(f"    lowermost: {lower.k.order}/{lower.l.order}")
    rels = set(bp.relation_pairs())
    out.append("  order_relations: "
               + (" ".join(f"b{i}<b{j}" for i, j in sorted(rels))
                  or "none"))
    ids = [b.block_id for b in bp.blocks]
    hasse = sorted((i, j) for i, j in rels
                   if not any((i, k) in rels and (k, j) in rels
                              for k in ids))
    rep.graphs["block-poset"] = {
        "nodes": [f"b{b.block_id} C-order={b.centralizer.order}"
                  for b in bp.blocks],
        "edges": hasse,
    }

    if opts.components:
        cr = component_report(g)
        out.append("components:")
        out.append(f"  count: {len(cr.components)}")
        for i, c in enumerate(cr.components):
            out.append(f"  m{i}: order={c.order} fp={_fingerprint(c.members)}"
                       f" normal={is_normal_in(c, g.whole())}")
        out.append(f"  layer_order: {cr.layer.order}")
        out.append(f"  semisimple_type: {cr.type}")

    if parts is not None:
        fact = classify_factorization(g, parts)
        out.append("factorization:")
        out.append("  part_orders: "
                   + " ".join(str(p.order) for p in parts))
        out.append(f"  kind: {fact.kind}")
        if fact.kind in ("generalized-central", "quasi-direct") \
                and len(parts) >= 2:
            diag = diagonal_map(g, parts, opts.element_cap)
            out.append(f"  diagonal_kernel_order: {diag.kernel.order}")
            out.append(f"  diagonal_injective: {diag.injective}")

    if h is not None:
        check = extension_poset_check(g, h)
        st = check.structure
        out.append("extension:")
        out.append(f"  subgroup_order: {h.order}")
        out.append(f"  subgroup_blocks: {len(st.blocks_h)}")
        for a in st.blocks_h.blocks:
            ext = check.extensions[a.block_id]
            out.append(f"  h_block_{a.block_id}: extends_to=b{ext.block_id}")
        for i, (cls, kind) in enumerate(st.classes):
            ids = ",".join(str(x) for x in sorted(cls))
            out.append(f"  class_{i}: blocks=[{ids}] kind={kind}")
        out.append(f"  poset_isomorphism_verified: {check.verified}")

    return rep


def emit_dot(report: AnalysisReport, which: str) -> str:
    """Render one of the report's graphs as DOT text.

    The association graph is undirected; posets and lattices are emitted as
    directed Hasse diagrams.
    """
    if which not in report.graphs:
        raise SectionMissing(f"report has no section {which!r}")
    data = report.graphs[which]
    undirected = which == "association-graph"
    kind = "graph" if undirected else "digraph"
    arrow = "--" if undirected else "->"
    lines = [f'{kind} "{which}" {{']
    for i, label in enumerate(data["nodes"]):
        lines.append(f'  v{i} [label="{label}"];')
    for i, j in data["edges"]:
        lines.append(f"  v{i} {arrow} v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chiefblocks",
        description="Finite-group chief factor and block analyzer")
    sub = p.add_subparsers(dest="command", required=True)
    a = sub.add_parser("analyze", help="analyze a group spec")
    a.add_argument("--spec", required=True, help="path to a JSON spec file")
    a.add_argument("--components", action="store_true",
                   help="include components and semisimple verdicts")
    a.add_argument("--factorization",
                   help="JSON file with {'parts': [[gen words/ids], ...]}")
    a.add_argument("--extend-normal", metavar="SUBSPEC",
                   help="inline JSON generator list for a normal subgroup")
    a.add_argument("--dot", choices=("association-graph", "block-poset",
                                     "normal-lattice"),
                   help="emit a DOT graph instead of the text report")
    a.add_argument("-o", "--output", help="write output to a file")
    a.add_argument("--element-cap", type=int, default=DEFAULT_ELEMENT_CAP)
    a.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    a.add_argument("--seed", type=int, default=0,
                   help="seed for sampled verifications")
    return p


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = parse_spec(fh.read())
        opts = AnalyzeOptions(
            components=args.components,
            element_cap=args.element_cap,
            node_cap=args.node_cap,
            seed=args.seed,
        )
        if args.factorization:
            with open(args.factorization, encoding="utf-8") as fh:
                try:
                    payload = json.load(fh)
                except json.JSONDecodeError as e:
                    raise ParseError(f"invalid factorization JSON: {e.msg}",
                                     e.lineno, e.colno) from e
            if not (isinstance(payload, dict)
                    and isinstance(payload.get("parts"), list)):
                raise ParseError("factorization file needs a 'parts' list")
            opts.factorization_parts = payload["parts"]
        if args.extend_normal:
            try:
                opts.extend_normal = json.loads(args.extend_normal)
            except json.JSONDecodeError as e:
                raise ParseError(f"invalid --extend-normal JSON: {e.msg}",
                                 e.lineno, e.colno) from e
        report = analyze(spec, opts)
        text = emit_dot(report, args.dot) if args.dot else report.render()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())
