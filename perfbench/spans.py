"""Spans around the calls `chiefblocks.cli` makes into each layer.

The benchmark installs these wrappers for its traced passes only: it swaps
names in the `chiefblocks.cli` namespace (and `NormalLattice.covers`, which
the CLI calls as a method) and restores them afterwards, so no file of the
program changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

# cli-namespace name -> span name ("<layer>.<function>").
CLI_CALLS = {
    "parse_spec": "cli.parse_spec",
    "build_group": "cli.build_group",
    "analyze": "cli.analyze",
    "verify_group_axioms": "group.verify_group_axioms",
    "center": "group.center",
    "is_perfect": "group.is_perfect",
    "is_normal_in": "group.is_normal_in",
    "subgroup_generated": "group.subgroup_generated",
    "normal_subgroups": "lattice.normal_subgroups",
    "association_graph": "factors.association_graph",
    "is_abelian_factor": "factors.is_abelian_factor",
    "chief_blocks": "blocks.chief_blocks",
    "minimal_cover": "blocks.minimal_cover",
    "uppermost_representative": "blocks.uppermost_representative",
    "lowermost_representative": "blocks.lowermost_representative",
    "component_report": "semisimple.component_report",
    "classify_factorization": "products.classify_factorization",
    "diagonal_map": "products.diagonal_map",
    "extension_poset_check": "extensions.extension_poset_check",
}

# Per-layer time metric -> the spans whose self time it sums.
TIME_METRICS = {
    "cli.parse_spec_ms": ("cli.parse_spec",),
    "cli.build_group_ms": ("cli.build_group",),
    "cli.self_ms": ("cli.run", "cli.analyze"),
    "group.verify_group_axioms_ms": ("group.verify_group_axioms",),
    "group.summary_ms": ("group.center", "group.is_perfect"),
    "group.subgroup_ms": ("group.is_normal_in", "group.subgroup_generated"),
    "lattice.normal_subgroups_ms": ("lattice.normal_subgroups",),
    "lattice.covers_ms": ("lattice.covers",),
    "factors.association_graph_ms": ("factors.association_graph",),
    "factors.is_abelian_factor_ms": ("factors.is_abelian_factor",),
    "blocks.chief_blocks_ms": ("blocks.chief_blocks",),
    "blocks.representatives_ms": ("blocks.minimal_cover",
                                  "blocks.uppermost_representative",
                                  "blocks.lowermost_representative"),
    "semisimple.component_report_ms": ("semisimple.component_report",),
    "products.factorization_ms": ("products.classify_factorization",
                                  "products.diagonal_map"),
    "extensions.extension_poset_check_ms":
        ("extensions.extension_poset_check",),
}


def _count_group(counts, g):
    counts["group.elements"] += g.order


def _count_lattice(counts, lat):
    counts["lattice.nodes"] += len(lat)


def _count_covers(counts, edges):
    counts["lattice.hasse_edges"] += len(edges)


def _count_association(counts, result):
    verts, edges = result
    f = len(verts)
    counts["factors.chief_factors"] += f
    counts["factors.pair_tests"] += f * (f - 1) // 2
    counts["factors.assoc_edges"] += len(edges)


def _count_blocks(counts, poset):
    counts["blocks.count"] += len(poset)


def _count_components(counts, report):
    counts["semisimple.components"] += len(report.components)


# Counts are read off the results of the calls `analyze` makes itself, so
# they equal the numbers in the report (nested calls would count twice).
COUNTERS = {
    "cli.build_group": _count_group,
    "lattice.normal_subgroups": _count_lattice,
    "lattice.covers": _count_covers,
    "factors.association_graph": _count_association,
    "blocks.chief_blocks": _count_blocks,
    "semisimple.component_report": _count_components,
}

COUNT_METRICS = ("group.elements", "lattice.nodes", "lattice.hasse_edges",
                 "factors.chief_factors", "factors.pair_tests",
                 "factors.assoc_edges", "blocks.count",
                 "semisimple.components")


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count and parent >= 0 and self.spans[parent][0] == "cli.analyze":
                count(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, cli, lattice_cls):
        """Wrap the CLI's calls into the layers; restore them on exit."""
        saved = {attr: getattr(cli, attr) for attr in CLI_CALLS}
        saved_covers = lattice_cls.covers
        try:
            for attr, name in CLI_CALLS.items():
                setattr(cli, attr, self.wrap(name, saved[attr]))
            lattice_cls.covers = self.wrap("lattice.covers", saved_covers)
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)
            lattice_cls.covers = saved_covers

    def self_times(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Self time in seconds per op and span name, for spans[first:]."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(Counter)
        for i, (name, start, end, _, op) in enumerate(self.spans[first:],
                                                      first):
            out[op][name] += end - start - child[i]
        return out
