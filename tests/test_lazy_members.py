"""Lattice nodes and the whole group fill their member sets only when read.

A node is a union of the ambient's conjugacy classes, given by its class
bitset, and ``FiniteGroup.whole`` is ``range(order)``; ``Subgroup`` fills
its ``members`` slot from them on first read.  These tests check the fill
against its definition and guard that ``analyze`` reads no member set it
does not need.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import chiefblocks
from chiefblocks import cli, named
from chiefblocks.group import Subgroup
from conftest import _build_corpus, _build_dense_corpus
from oracles import lazy_nodes_match_classes


def test_lazy_nodes_match_classes():
    """Every node of fresh corpus and dense-corpus groups: members, order,
    fingerprint and ``index_of`` (S5wrC2's nodes run from 1 to 28,800
    members, on both sides of the 4,096-id fingerprint chunk)."""
    groups = {**_build_corpus(), **_build_dense_corpus()}
    for name, g in groups.items():
        assert lazy_nodes_match_classes(g), name


def test_s5wrc2_analyze_fills_no_member_set(monkeypatch):
    """Default ``analyze`` of S5wrC2 reads its nodes by index and their
    fingerprints from their classes, so it fills no member set: neither
    of a node nor of the whole group."""
    filled = []
    fill = Subgroup.__getattr__

    def counting(self, name):
        if name == "members":
            filled.append(self.order)
        return fill(self, name)

    monkeypatch.setattr(Subgroup, "__getattr__", counting)
    swap = [b * 120 + a for a in range(120) for b in range(120)]
    report = cli.analyze({
        "kind": "semidirect", "top": {"kind": "named", "name": "C2"},
        "base": {"kind": "direct", "left": {"kind": "named", "name": "S5"},
                 "right": {"kind": "named", "name": "S5"}},
        "action": [swap]})
    assert "  n6: order=28800 fp=c2cf1681" in report.lines
    assert filled == []


def test_s5wrc2_lattice_traced_peak():
    """S5wrC2's build, law check and normal lattice peak at 8 MB or less
    under tracemalloc, in a fresh process.  With a member frozenset per
    node and for the whole group the peak was 14.1 MB."""
    code = textwrap.dedent("""
        import tracemalloc
        from chiefblocks import named
        from chiefblocks.group import verify_group_axioms
        from chiefblocks.lattice import normal_subgroups
        tracemalloc.start()
        g = named.s5_wr_c2()
        verify_group_axioms(g)
        normal_subgroups(g)
        print(tracemalloc.get_traced_memory()[1])
    """)
    src = str(Path(chiefblocks.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 8_000_000


def test_whole_group_fills_from_its_order():
    g = named.symmetric(4)
    whole = g.whole()
    assert whole.order == 24 and whole.sorted_members() == tuple(range(24))
    assert 23 in whole and 24 not in whole
    assert whole.members == frozenset(range(24))
