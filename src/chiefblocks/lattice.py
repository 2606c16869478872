"""Normal-subgroup lattices, chief factors and chief series.

Every operation takes either a FiniteGroup or a Subgroup as its ambient; in
the latter case "normal" means normal in that subgroup, which is what the
block-extension machinery needs.  Every layer asks ``NormalLattice`` whether
L < K is a cover (no normal subgroup strictly between).
"""

from __future__ import annotations

from typing import Iterator

from .errors import (
    DifferentParents,
    InternalCheckError,
    NodeCapExceeded,
    NotNested,
    NotNormal,
)
from .group import (
    Subgroup,
    ambient_subgroup,
    conjugacy_classes,
    is_normal_in,
    normal_closure,
    product_of_subgroups,
)

DEFAULT_NODE_CAP = 10_000


class NormalLattice:
    """All subgroups of the ambient that are normal in it.

    Nodes are deduplicated and sorted by (order, member tuple), so node
    indices are deterministic.  The lattice is closed under join (set
    product) and meet (intersection) by construction.  Its Hasse edges are
    built once, on first use, and answer every cover question: ``covers``
    lists them, ``is_cover`` tests one pair, and ``minimal_nodes_over`` and
    ``maximal_nodes_under`` give the upper and lower covers of a node.
    """

    def __init__(self, ambient: Subgroup, nodes: list[Subgroup]):
        self.ambient = ambient
        self.nodes = nodes
        self._index = {n.members: i for i, n in enumerate(nodes)}
        self._down: list[list[int]] | None = None
        self._up: list[list[int]] | None = None

    def __len__(self):
        return len(self.nodes)

    def index_of(self, s: Subgroup) -> int:
        try:
            return self._index[s.members]
        except KeyError:
            raise KeyError("subgroup is not a lattice node") from None

    def node_with_members(self, members: frozenset) -> Subgroup:
        return self.nodes[self._index[members]]

    def contains_members(self, members: frozenset) -> bool:
        return members in self._index

    def _hasse(self) -> tuple[list[list[int]], list[list[int]]]:
        """Lower and upper covers of every node, as ascending index lists.

        Nodes are sorted by order, so any node strictly between i and j has
        an index between them.  Walking the candidates i below j from the
        largest down, i is a lower cover of j unless a lower cover of j
        found earlier contains it.
        """
        if self._down is None:
            n = len(self.nodes)
            down: list[list[int]] = [[] for _ in range(n)]
            up: list[list[int]] = [[] for _ in range(n)]
            for j in range(n):
                mj = self.nodes[j].members
                found: list[frozenset] = []
                for i in range(j - 1, -1, -1):
                    mi = self.nodes[i].members
                    if mi < mj and not any(mi < c for c in found):
                        found.append(mi)
                        down[j].append(i)
                down[j].reverse()
                for i in down[j]:
                    up[i].append(j)
            self._down, self._up = down, up
        return self._down, self._up

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (i, j) with node i covered by node j, sorted."""
        down, _ = self._hasse()
        return sorted((i, j) for j in range(len(down)) for i in down[j])

    def is_cover(self, lower: frozenset, upper: frozenset) -> bool:
        """True iff both are nodes and ``upper`` covers ``lower``."""
        j = self._index.get(upper)
        return j is not None and self._index.get(lower) in self._hasse()[0][j]

    def minimal_nodes_over(self, members: frozenset) -> list[Subgroup]:
        """Nodes covering the given node in the lattice order."""
        up = self._hasse()[1][self._index[members]]
        return [self.nodes[j] for j in up]

    def maximal_nodes_under(self, members: frozenset) -> list[Subgroup]:
        """Nodes covered by the given node in the lattice order."""
        down = self._hasse()[0][self._index[members]]
        return [self.nodes[i] for i in down]


def normal_subgroups(ambient, node_cap: int = DEFAULT_NODE_CAP
                     ) -> NormalLattice:
    """Enumerate the normal subgroups of the ambient.

    Atoms are the normal closures of conjugacy-class representatives; every
    normal subgroup is the join of the cyclic normal closures of its
    elements, so closing the atoms under pairwise join is complete.  The
    test suite cross-checks completeness against brute-force enumeration
    at small orders.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("lattice", amb.members, node_cap)
    cached = g._cache.get(key)
    if cached is not None:
        return cached

    atoms: dict[frozenset, Subgroup] = {}
    for cls in conjugacy_classes(amb):
        rep = cls[0]
        if rep == 0:
            continue
        sub = normal_closure(amb, [rep])
        atoms.setdefault(sub.members, sub)

    trivial = Subgroup(g, frozenset((0,)), [], True)
    nodes: dict[frozenset, Subgroup] = {trivial.members: trivial}
    for s in atoms.values():
        nodes.setdefault(s.members, s)
    worklist = list(nodes.values())
    while worklist:
        a = worklist.pop()
        for b in list(nodes.values()):
            j = product_of_subgroups(a, b)
            if j not in nodes:
                if len(nodes) >= node_cap:
                    raise NodeCapExceeded(
                        f"normal lattice exceeded node cap {node_cap}")
                s = Subgroup(g, j, None,
                             True if amb.order == g.order else None)
                nodes[j] = s
                worklist.append(s)

    if amb.members not in nodes:
        nodes[amb.members] = amb
    ordered = sorted(nodes.values(),
                     key=lambda s: (s.order, s.sorted_members()))
    lat = NormalLattice(amb, ordered)
    g._cache[key] = lat
    return lat


def join(n: Subgroup, *others: Subgroup) -> Subgroup:
    """Join of normal subgroups: their set product, with merged generators.

    With no others the result is ``n`` itself.
    """
    out = n
    for m in others:
        if m.parent is not n.parent:
            raise DifferentParents("join operands in different groups")
        out = Subgroup(n.parent, product_of_subgroups(out, m),
                       list(dict.fromkeys(list(out.gens) + list(m.gens))))
    return out


def meet(n: Subgroup, *others: Subgroup) -> Subgroup:
    """Intersection of subgroups; with no others the result is ``n`` itself."""
    out = n
    for m in others:
        if m.parent is not n.parent:
            raise DifferentParents("meet operands in different groups")
        out = Subgroup(n.parent, out.members & m.members)
    return out


def is_chief_factor(ambient, k: Subgroup, l: Subgroup,
                    lat: NormalLattice | None = None) -> bool:
    """True iff no normal subgroup of the ambient sits strictly between."""
    amb = ambient_subgroup(ambient)
    if not is_normal_in(k, amb) or not is_normal_in(l, amb):
        raise NotNormal("chief-factor test needs normal subgroups")
    if not l.members < k.members:
        raise NotNested("need L < K")
    if lat is None:
        lat = normal_subgroups(amb)
    return lat.is_cover(l.members, k.members)


def chief_factors(ambient, lat: NormalLattice | None = None) -> list:
    """Covering pairs of the lattice, as NormalFactor values."""
    from .factors import NormalFactor

    amb = ambient_subgroup(ambient)
    if lat is None:
        lat = normal_subgroups(amb)
    return [NormalFactor(amb, lat.nodes[j], lat.nodes[i])
            for i, j in lat.covers()]


def chief_series_iter(ambient, max_series: int | None = None,
                      lat: NormalLattice | None = None
                      ) -> Iterator[list[Subgroup]]:
    """Maximal chains of the lattice from the trivial node to the ambient."""
    amb = ambient_subgroup(ambient)
    if lat is None:
        lat = normal_subgroups(amb)
    up = lat._hasse()[1]
    bottom = lat.index_of(amb.parent.trivial_subgroup())
    top = lat.index_of(amb) if lat.contains_members(amb.members) else None
    count = 0

    def walk(chain: list[int]) -> Iterator[list[Subgroup]]:
        nonlocal count
        if max_series is not None and count >= max_series:
            return
        last = chain[-1]
        if last == top:
            count += 1
            yield [lat.nodes[i] for i in chain]
            return
        for nxt in up[last]:
            yield from walk(chain + [nxt])

    yield from walk([bottom])


def socle(ambient, lat: NormalLattice | None = None) -> Subgroup:
    """Join of the minimal normal subgroups (trivial when there are none)."""
    amb = ambient_subgroup(ambient)
    if lat is None:
        lat = normal_subgroups(amb)
    atoms = lat.minimal_nodes_over(frozenset((0,)))
    if not atoms:
        return amb.parent.trivial_subgroup()
    return join(*atoms)


def is_monolithic(ambient, lat: NormalLattice | None = None) -> bool:
    """Exactly one minimal normal subgroup."""
    amb = ambient_subgroup(ambient)
    if lat is None:
        lat = normal_subgroups(amb)
    return len(lat.minimal_nodes_over(frozenset((0,)))) == 1


def jordan_holder_length(ambient) -> int:
    """Common length of all chief series, checked equal over every series."""
    lengths = {len(s) - 1 for s in chief_series_iter(ambient)}
    if len(lengths) != 1:
        raise InternalCheckError(f"chief series of unequal lengths: {lengths}")
    return lengths.pop()
