"""Chief blocks: association classes of non-abelian chief factors.

A block is keyed by the common centralizer of its representatives; the
partial order compares centralizers by inclusion.  In the finite setting the
covering filter of a block is always principal, so every block is minimally
covered and carries both canonical representatives; ``minimal_cover``
verifies that its intersection covers the block each time it is asked.
Chief-factor tests, covering filters and the block order read the normal
lattice's covers and order by node index.  Every K and L here is a node of
that lattice, so each factor is built as a ``NormalFactor`` directly and no
normality is tested again.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence, Union

from .errors import (
    AbelianFactor,
    DifferentParents,
    InternalCheckError,
    NotAChain,
    NotChief,
    NotNormal,
)
from .factors import (
    NormalFactor,
    are_associated,
    factor_centralizer,
    is_abelian_factor,
    is_internal_compression,
)
from .group import Subgroup, ambient_subgroup, subgroup_key
from .lattice import chief_factors, normal_subgroups


class ChiefBlock:
    """An association class of non-abelian chief factors of one ambient."""

    __slots__ = ("ambient", "centralizer", "representatives", "block_id")

    def __init__(self, ambient: Subgroup, centralizer: Subgroup,
                 representatives: list[NormalFactor], block_id: int):
        self.ambient = ambient
        self.centralizer = centralizer
        self.representatives = representatives
        self.block_id = block_id

    def __eq__(self, other):
        return (isinstance(other, ChiefBlock)
                and self.ambient == other.ambient
                and self.centralizer == other.centralizer)

    def __hash__(self):
        return hash((self.ambient, self.centralizer))

    def __repr__(self):
        r = self.representatives[0]
        return (f"<ChiefBlock #{self.block_id} [{r.k.order}/{r.l.order}]"
                f" of {self.ambient.parent.name}>")


class BlockPoset:
    """The chief blocks of an ambient, ordered by centralizer inclusion,
    kept by the centralizers' node indices in the ambient's lattice."""

    def __init__(self, ambient: Subgroup, blocks: list[ChiefBlock]):
        self.ambient = ambient
        self.blocks = blocks
        self._lattice = normal_subgroups(ambient)
        self._by_centralizer = {self._lattice.index_of(b.centralizer): b
                                for b in blocks}

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def by_centralizer(self, members: frozenset) -> ChiefBlock:
        try:
            return self._by_centralizer[self._lattice.index_of(
                Subgroup(self.ambient.parent, members))]
        except (NotNormal, KeyError):
            raise KeyError("no block with the given centralizer") from None

    def relation_pairs(self) -> list[tuple[int, int]]:
        """All strict order pairs (a.block_id, b.block_id) with a < b."""
        le = self._lattice.le
        return sorted((a.block_id, b.block_id)
                      for i, a in self._by_centralizer.items()
                      for j, b in self._by_centralizer.items()
                      if i != j and le(i, j))


def chief_blocks(ambient) -> BlockPoset:
    """Partition the non-abelian chief factors by their centralizer node.

    On them association is an equivalence relation, and holds iff the
    centralizers are equal.  So each factor must be associated with its
    block's first, and the blocks' first factors pairwise not.  Block ids
    follow the centralizers' node indices, so output is stable.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("blocks", subgroup_key(amb))
    cached = g._cache.get(key)
    if cached is not None:
        return cached
    lat = normal_subgroups(amb)
    groups: dict[int, list[NormalFactor]] = {}
    for f in chief_factors(amb):
        if not is_abelian_factor(f):
            groups.setdefault(lat.index_of(factor_centralizer(f)),
                              []).append(f)
    blocks = [ChiefBlock(amb, lat.nodes[c], groups[c], i)
              for i, c in enumerate(sorted(groups))]
    if not all(are_associated(b.representatives[0], r)
               for b in blocks for r in b.representatives[1:]):
        raise InternalCheckError(
            "equal-centralizer representatives not associated")
    if any(are_associated(a.representatives[0], b.representatives[0])
           for a, b in combinations(blocks, 2)):
        raise InternalCheckError(
            "representatives of different blocks are associated")
    poset = BlockPoset(amb, blocks)
    g._cache[key] = poset
    return poset


def cover_status(x: Union[NormalFactor, Subgroup], a: ChiefBlock) -> str:
    """'covers', 'below' (N <= C) or 'above' (M not <= C).

    A subgroup N is read as the factor N/1.
    """
    amb = a.ambient
    if isinstance(x, NormalFactor):
        if x.ambient != amb:
            raise DifferentParents("factor and block in different ambients")
        upper, lower = x.k, x.l
    elif x.parent is not amb.parent:
        raise DifferentParents("subgroup and block in different groups")
    else:
        upper, lower = x, x.parent.trivial_subgroup()
    c = a.centralizer
    if not lower <= c:
        return "above"
    if upper <= c:
        return "below"
    return "covers"


def covers(x: Union[NormalFactor, Subgroup], a: ChiefBlock) -> bool:
    """A factor N/M covers a block iff M <= C and N is not inside C."""
    return cover_status(x, a) == "covers"


def covering_filter(ambient, a: ChiefBlock) -> list[Subgroup]:
    """All normal subgroups of the ambient covering the block."""
    lat = normal_subgroups(ambient)
    c = lat.index_of(a.centralizer)
    return [n for i, n in enumerate(lat.nodes) if not lat.le(i, c)]


def minimal_cover(ambient, a: ChiefBlock) -> Subgroup:
    """Intersection of the covering filter; verified to cover the block.

    The filter is closed under pairwise intersection and is finite, so the
    intersection itself covers the block and the filter is principal.
    """
    lat = normal_subgroups(ambient)
    c = lat.index_of(a.centralizer)
    m = lat.meet(*[i for i in range(len(lat)) if not lat.le(i, c)])
    if lat.le(m, c):
        raise InternalCheckError("filter intersection fails to cover")
    return lat.nodes[m]


def uppermost_representative(ambient, a: ChiefBlock) -> NormalFactor:
    """The socle representative of the monolithic quotient by C.

    With C the block centralizer, the quotient of the ambient by C is
    monolithic; the preimage of its socle over C is a representative of the
    block and an internal compression of every representative.
    """
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    c = lat.index_of(a.centralizer)
    if len(lat.up[c]) != 1:
        raise InternalCheckError(
            "quotient by a block centralizer must be monolithic")
    rep = NormalFactor(amb, lat.nodes[lat.up[c][0]], lat.nodes[c])
    if factor_centralizer(rep) != a.centralizer or is_abelian_factor(rep):
        raise InternalCheckError("uppermost representative not in the block")
    for r in a.representatives:
        if not is_internal_compression(r, rep):
            raise InternalCheckError(
                "uppermost representative must compress every representative")
    return rep


def lowermost_representative(ambient, a: ChiefBlock) -> NormalFactor:
    """G_a / C_{G_a}(a) for the minimal cover G_a of the block."""
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    g_a = lat.index_of(minimal_cover(amb, a))
    bottom = lat.meet(g_a, lat.index_of(a.centralizer))
    rep = NormalFactor(amb, lat.nodes[g_a], lat.nodes[bottom])
    if factor_centralizer(rep) != a.centralizer or is_abelian_factor(rep):
        raise InternalCheckError("lowermost representative not in the block")
    for r in a.representatives:
        if not is_internal_compression(rep, r):
            raise InternalCheckError(
                "every representative must compress the lowermost one")
    return rep


def block_le(a: ChiefBlock, b: ChiefBlock) -> bool:
    """a <= b iff C(a) <= C(b); cross-validated two independent ways.

    The covering characterization (every normal subgroup covering b covers a)
    and the minimal-cover characterization (minimal cover of b contains that
    of a, stated in the reversed order) must agree with the centralizer test.
    All three compare lattice nodes by index.
    """
    if a.ambient != b.ambient:
        raise DifferentParents("blocks of different ambients")
    amb = a.ambient
    lat = normal_subgroups(amb)
    ca, cb = lat.index_of(a.centralizer), lat.index_of(b.centralizer)
    verdict = lat.le(ca, cb)
    by_covering = not any(lat.le(i, ca) for i in range(len(lat))
                          if not lat.le(i, cb))
    if by_covering != verdict:
        raise InternalCheckError("covering characterization disagrees")
    # Stated for the reversed pair: x <= y iff the minimal cover of x is
    # contained in the minimal cover of y.
    by_min_cover = lat.le(lat.index_of(minimal_cover(amb, a)),
                          lat.index_of(minimal_cover(amb, b)))
    if by_min_cover != verdict:
        raise InternalCheckError("minimal-cover characterization disagrees")
    return verdict


def inner_action_members(ambient, within: Subgroup, k: Subgroup,
                         c: Subgroup) -> frozenset:
    """Elements of ``within`` acting on K/L like conjugation by some k in K.

    The conjugation actions of g and k on the factor agree exactly when
    g*k^-1 centralizes the factor, so the set is (C*K) meet within, with C
    the factor centralizer; all three are nodes of the ambient's lattice.
    The test suite compares this with the elementwise search over witnesses k.
    """
    lat = normal_subgroups(ambient)
    ck = lat.join(lat.index_of(c), lat.index_of(k))
    return lat.nodes[lat.meet(ck, lat.index_of(within))].members


def refine_series(ambient, series: Sequence[Subgroup], f: NormalFactor
                  ) -> tuple[int, Subgroup, Subgroup]:
    """Locate and construct the unique factor of a series associated to f.

    For an ascending series of normal subgroups from the trivial group to
    the ambient and a non-abelian chief factor K/L, returns (i, B, D) where
    i is the least index with series[i+1] not inside C(K/L) and D/B is a
    chief factor associated to K/L with series[i] <= B < D <= series[i+1].

    With C = C(K/L) and S = series[i+1], B = C meet S and D = KC meet S.
    G/C is monolithic with socle KC/C (``uppermost_representative`` checks
    it): K meet C = L, as K/L has trivial center, so a normal N > C meeting
    KC in C would have [N, K] <= K meet C = L and N <= C.  So SC > C holds
    KC, and by Dedekind's law, as C <= KC, DC = KC meet SC = KC and
    D meet C = S meet C = B: D/B is G-isomorphic to the chief factor KC/C,
    and series[i] <= C gives series[i] <= B.  The series is resolved to
    node indices once; a member that is no node is not normal.
    """
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    if f.ambient != amb:
        raise DifferentParents("factor belongs to a different ambient")
    try:
        s = [lat.index_of(x) for x in series]
    except NotNormal:
        raise NotAChain(
            "series members must be normal in the ambient") from None
    if not s or s[0] != 0 or s[-1] != len(lat) - 1:
        raise NotAChain("series must run from the trivial subgroup to the ambient")
    if not all(lat.le(lo, hi) for lo, hi in zip(s, s[1:])):
        raise NotAChain("series is not ascending")
    if not lat.is_cover(f.l, f.k):
        raise NotChief("input factor is not a chief factor")
    if is_abelian_factor(f):
        raise AbelianFactor("refinement needs a non-abelian chief factor")

    c = lat.index_of(factor_centralizer(f))
    idx = next((i for i in range(len(s) - 1) if not lat.le(s[i + 1], c)),
               None)
    if idx is None:
        raise InternalCheckError("no series member escapes the centralizer")

    upper = s[idx + 1]
    b = lat.meet(c, upper)
    d = lat.meet(lat.join(c, lat.index_of(f.k)), upper)
    if not (lat.le(s[idx], b) and b != d and lat.le(d, upper)):
        raise InternalCheckError("refinement landed outside its interval")
    if b not in lat.down[d]:
        raise InternalCheckError("refined factor is not chief")
    if not are_associated(NormalFactor(amb, lat.nodes[d], lat.nodes[b]), f):
        raise InternalCheckError("refined factor is not associated")
    # Uniqueness: intervals before idx sit below the centralizer and later
    # ones start above it, so exactly one interval covers the block of f.
    for j in range(len(s) - 1):
        interval_covers = lat.le(s[j], c) and not lat.le(s[j + 1], c)
        if (j == idx) != interval_covers:
            raise InternalCheckError("cover-uniqueness scan failed")
    return idx, lat.nodes[b], lat.nodes[d]
