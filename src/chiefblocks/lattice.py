"""Normal-subgroup lattices, chief factors and chief series.

Every operation takes either a FiniteGroup or a Subgroup as its ambient; in
the latter case "normal" means normal in that subgroup, which is what the
block-extension machinery needs.  ``normal_subgroups`` builds the lattice
of an ambient once, by a breadth-first search of upper covers from the
trivial subgroup, and caches it per ambient; every layer reads it from
there and asks ``NormalLattice`` whether L < K is a cover (no normal
subgroup strictly between) and for joins and meets, by node index.
"""

from __future__ import annotations

from typing import Iterator

from .errors import (
    InternalCheckError,
    NodeCapExceeded,
    NotNested,
    NotNormal,
)
from .group import (
    Subgroup,
    ambient_subgroup,
    class_closure,
    conjugacy_classes,
    is_normal_in,
    product_of_subgroups,
)


class NormalLattice:
    """All subgroups of the ambient that are normal in it, with covers.

    Nodes are deduplicated and sorted by (order, member tuple), so node
    indices are deterministic and rise along the order.  ``up`` maps each
    node's member set to the nodes covering it; the lower covers are derived
    from it.  These Hasse edges answer every cover question: ``covers``
    lists them, ``is_cover`` tests one pair, and ``minimal_nodes_over`` and
    ``maximal_nodes_under`` give the upper and lower covers of a node.
    Bitsets over node indices (bit j of ``_above[i]``, bit i of ``_below[j]``:
    node i lies in node j) answer ``le``, ``join`` (the product, a lowest
    common bit) and ``meet`` (the intersection, a highest common bit).
    """

    def __init__(self, ambient: Subgroup, nodes: list[Subgroup],
                 up: dict[frozenset, list[Subgroup]]):
        self.ambient = ambient
        self.nodes = nodes
        self._index = {n.members: i for i, n in enumerate(nodes)}
        self._up = [sorted(self._index[m.members] for m in up[n.members])
                    for n in nodes]
        self._down: list[list[int]] = [[] for _ in nodes]
        self._below = [1 << i for i in range(len(nodes))]
        for i, js in enumerate(self._up):  # lower covers come first
            for j in js:
                self._down[j].append(i)
                self._below[j] |= self._below[i]
        self._above = [1 << i for i in range(len(nodes))]
        for i in reversed(range(len(nodes))):
            for j in self._up[i]:
                self._above[i] |= self._above[j]

    def __len__(self):
        return len(self.nodes)

    def index_of(self, s: Subgroup) -> int:
        try:
            return self._index[s.members]
        except KeyError:
            raise KeyError("subgroup is not a lattice node") from None

    def node_with_members(self, members: frozenset) -> Subgroup:
        return self.nodes[self._index[members]]

    def le(self, i: int, j: int) -> bool:
        """True iff node i is contained in node j."""
        return self._below[j] >> i & 1 == 1

    def join(self, *idx: int) -> int:
        """Index of the product of the given nodes (trivial if none)."""
        bits = self._above[0]
        for i in idx:
            bits &= self._above[i]
        return (bits & -bits).bit_length() - 1

    def meet(self, *idx: int) -> int:
        """Index of the intersection of the given nodes (the top if none)."""
        bits = self._below[-1]
        for i in idx:
            bits &= self._below[i]
        return bits.bit_length() - 1

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (i, j) with node i covered by node j, sorted."""
        return [(i, j) for i, js in enumerate(self._up) for j in js]

    def is_cover(self, lower: frozenset, upper: frozenset) -> bool:
        """True iff both are nodes and ``upper`` covers ``lower``."""
        j = self._index.get(upper)
        return j is not None and self._index.get(lower) in self._down[j]

    def minimal_nodes_over(self, members: frozenset) -> list[Subgroup]:
        """Nodes covering the given node in the lattice order."""
        return [self.nodes[j] for j in self._up[self._index[members]]]

    def maximal_nodes_under(self, members: frozenset) -> list[Subgroup]:
        """Nodes covered by the given node in the lattice order."""
        return [self.nodes[i] for i in self._down[self._index[members]]]


def normal_subgroups(ambient) -> NormalLattice:
    """The normal lattice of the ambient, by a breadth-first search of covers.

    Atoms are the cyclic normal closures ncl(x) of conjugacy-class
    representatives, each grown as a union of classes (``class_closure``).
    Starting from the trivial subgroup, the upper covers of a node N are
    the minimal members of {N*A : A an atom, A not in N}.
    This is complete: a cover M of N equals N*ncl(x) for any x in M outside
    N, and a minimal product has no normal subgroup strictly between it and
    N.  So one search yields every node and every Hasse edge.

    The lattice is cached per ambient.  The ``node_cap`` of the ambient's
    parent group bounds a build, which raises NodeCapExceeded as soon as the
    lattice would exceed it; a lattice already built is returned as it is.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("lattice", amb.members)
    cached = g._cache.get(key)
    if cached is not None:
        return cached

    normal = True if amb.order == g.order else None
    atoms: dict[frozenset, Subgroup] = {}
    for cls in conjugacy_classes(amb)[1:]:
        m = class_closure(amb, cls[0])
        if m not in atoms:
            atoms[m] = Subgroup(g, m, None, normal)

    trivial = Subgroup(g, frozenset((0,)), [], True)
    nodes = {trivial.members: trivial}
    up: dict[frozenset, list[Subgroup]] = {}
    queue = [trivial]
    for n in queue:  # the queue grows while it is walked: breadth first
        covers: list[frozenset] = []  # the minimal products so far
        for a in atoms.values():
            if a.members <= n.members:
                continue
            m = product_of_subgroups(n, a)
            if not any(c <= m for c in covers):
                covers = [c for c in covers if not m < c] + [m]
        for m in covers:
            if m in nodes:
                continue
            if len(nodes) >= g.node_cap:
                raise NodeCapExceeded(
                    f"normal lattice exceeded node cap {g.node_cap}")
            nodes[m] = atoms.get(m) or Subgroup(g, m, None, normal)
            queue.append(nodes[m])
        up[n.members] = [nodes[m] for m in covers]

    ordered = sorted(nodes.values(),
                     key=lambda s: (s.order, s.sorted_members()))
    lat = NormalLattice(amb, ordered, up)
    g._cache[key] = lat
    return lat


def is_chief_factor(ambient, k: Subgroup, l: Subgroup) -> bool:
    """True iff no normal subgroup of the ambient sits strictly between."""
    amb = ambient_subgroup(ambient)
    if not is_normal_in(k, amb) or not is_normal_in(l, amb):
        raise NotNormal("chief-factor test needs normal subgroups")
    if not l.members < k.members:
        raise NotNested("need L < K")
    return normal_subgroups(amb).is_cover(l.members, k.members)


def chief_factors(ambient) -> list:
    """Covering pairs of the lattice, as NormalFactor values."""
    from .factors import NormalFactor

    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    return [NormalFactor(amb, lat.nodes[j], lat.nodes[i])
            for i, j in lat.covers()]


def chief_series_iter(ambient, max_series: int | None = None
                      ) -> Iterator[list[Subgroup]]:
    """Maximal chains of the lattice from the trivial node to the ambient."""
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    top = lat.index_of(amb)
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
        for nxt in lat._up[last]:
            yield from walk(chain + [nxt])

    yield from walk([0])


def socle(ambient) -> Subgroup:
    """Join of the minimal normal subgroups (trivial when there are none)."""
    lat = normal_subgroups(ambient)
    return lat.nodes[lat.join(*lat._up[0])]


def is_monolithic(ambient) -> bool:
    """Exactly one minimal normal subgroup."""
    amb = ambient_subgroup(ambient)
    return len(normal_subgroups(amb).minimal_nodes_over(frozenset((0,)))) == 1


def jordan_holder_length(ambient) -> int:
    """Length of every chief series; raises unless the lattice is graded."""
    lat = normal_subgroups(ambient)
    rank = [0] * len(lat)  # 0 = unranked; covers() lists lower nodes first
    for i, j in lat.covers():
        if rank[j] not in (0, rank[i] + 1):
            raise InternalCheckError(f"normal lattice is not graded at n{j}")
        rank[j] = rank[i] + 1
    return rank[-1]
