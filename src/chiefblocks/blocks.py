"""Chief blocks: association classes of non-abelian chief factors.

A block is keyed by the common centralizer of its representatives; the
partial order compares centralizers by inclusion.  In the finite setting the
covering filter of a block is always principal, so every block is minimally
covered and carries both canonical representatives; ``minimal_cover``
verifies that its intersection covers the block each time it is asked.
Chief-factor tests, covering filters and the block order read the normal
lattice's covers and order by node index.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import (
    AbelianFactor,
    DifferentParents,
    InternalCheckError,
    NotAChain,
    NotChief,
)
from .factors import (
    NormalFactor,
    are_associated,
    factor_centralizer,
    is_abelian_factor,
    is_internal_compression,
    make_factor,
)
from .group import (
    Subgroup,
    ambient_subgroup,
    commutator_subgroup,
    is_normal_in,
)
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
                and self.ambient.parent is other.ambient.parent
                and self.ambient.members == other.ambient.members
                and self.centralizer.members == other.centralizer.members)

    def __hash__(self):
        return hash((id(self.ambient.parent), self.ambient.members,
                     self.centralizer.members))

    def __repr__(self):
        r = self.representatives[0]
        return (f"<ChiefBlock #{self.block_id} [{r.k.order}/{r.l.order}]"
                f" of {self.ambient.parent.name}>")


class BlockPoset:
    """The chief blocks of an ambient, ordered by centralizer inclusion."""

    def __init__(self, ambient: Subgroup, blocks: list[ChiefBlock]):
        self.ambient = ambient
        self.blocks = blocks
        self._by_centralizer = {b.centralizer.members: b for b in blocks}

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def by_centralizer(self, members: frozenset) -> ChiefBlock:
        b = self._by_centralizer.get(members)
        if b is None:
            raise KeyError("no block with the given centralizer")
        return b

    def relation_pairs(self) -> list[tuple[int, int]]:
        """All strict order pairs (a.block_id, b.block_id) with a < b."""
        out = []
        for a in self.blocks:
            for b in self.blocks:
                if a is not b and a.centralizer.members < b.centralizer.members:
                    out.append((a.block_id, b.block_id))
        return sorted(out)


def chief_blocks(ambient) -> BlockPoset:
    """Partition the non-abelian chief factors by centralizer equality.

    Centralizer equality coincides with association for non-abelian chief
    factors, which the test-suite checks pairwise on the corpus.  Block ids
    are assigned by sorting centralizer fingerprints, so output is stable.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("blocks", amb.members)
    cached = g._cache.get(key)
    if cached is not None:
        return cached
    groups: dict[frozenset, list[NormalFactor]] = {}
    cents: dict[frozenset, Subgroup] = {}
    for f in chief_factors(amb):
        if is_abelian_factor(f):
            continue
        c = factor_centralizer(f)
        groups.setdefault(c.members, []).append(f)
        cents.setdefault(c.members, c)
    ordered = sorted(groups, key=lambda m: (len(m), sorted(m)))
    blocks = [
        ChiefBlock(amb, cents[m], groups[m], i)
        for i, m in enumerate(ordered)
    ]
    for b in blocks:
        reps = b.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if not are_associated(reps[i], reps[j]):
                    raise InternalCheckError(
                        "equal-centralizer representatives not associated")
    poset = BlockPoset(amb, blocks)
    g._cache[key] = poset
    return poset


def cover_status(x: Union[NormalFactor, Subgroup], a: ChiefBlock) -> str:
    """'covers', 'below' (N <= C) or 'above' (M not <= C).

    A subgroup N is read as the factor N/1.
    """
    amb = a.ambient
    if isinstance(x, NormalFactor):
        if (x.ambient.parent is not amb.parent
                or x.ambient.members != amb.members):
            raise DifferentParents("factor and block in different ambients")
        upper, lower = x.k.members, x.l.members
    elif x.parent is not amb.parent:
        raise DifferentParents("subgroup and block in different groups")
    else:
        upper, lower = x.members, frozenset((0,))
    c = a.centralizer.members
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
    m = lat.meet(*[lat.index_of(n) for n in covering_filter(ambient, a)])
    if lat.le(m, lat.index_of(a.centralizer)):
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
    c = a.centralizer
    over_c = lat.minimal_nodes_over(c.members)
    if len(over_c) != 1:
        raise InternalCheckError(
            "quotient by a block centralizer must be monolithic")
    top = over_c[0]
    rep = make_factor(amb, top, lat.node_with_members(c.members))
    cf = factor_centralizer(rep)
    if cf.members != c.members or is_abelian_factor(rep):
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
    g_a = minimal_cover(amb, a)
    bottom = lat.meet(lat.index_of(g_a), lat.index_of(a.centralizer))
    rep = make_factor(amb, g_a, lat.nodes[bottom])
    cf = factor_centralizer(rep)
    if cf.members != a.centralizer.members or is_abelian_factor(rep):
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
    if (a.ambient.parent is not b.ambient.parent
            or a.ambient.members != b.ambient.members):
        raise DifferentParents("blocks of different ambients")
    amb = a.ambient
    lat = normal_subgroups(amb)
    ca, cb = lat.index_of(a.centralizer), lat.index_of(b.centralizer)
    verdict = lat.le(ca, cb)
    by_covering = not any(lat.le(lat.index_of(n), ca)
                          for n in covering_filter(amb, b))
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
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    lat = normal_subgroups(amb)
    if f.ambient.parent is not g or f.ambient.members != amb.members:
        raise DifferentParents("factor belongs to a different ambient")
    if not series or series[0].order != 1 or series[-1].members != amb.members:
        raise NotAChain("series must run from the trivial subgroup to the ambient")
    for lo, hi in zip(series, series[1:]):
        if not lo.members <= hi.members:
            raise NotAChain("series is not ascending")
    for s in series:
        if not is_normal_in(s, amb):
            raise NotAChain("series members must be normal in the ambient")
    if not lat.is_cover(f.l.members, f.k.members):
        raise NotChief("input factor is not a chief factor")
    if is_abelian_factor(f):
        raise AbelianFactor("refinement needs a non-abelian chief factor")

    c = factor_centralizer(f)
    idx = None
    for i in range(len(series) - 1):
        if not series[i + 1].members <= c.members:
            idx = i
            break
    if idx is None:
        raise InternalCheckError("no series member escapes the centralizer")

    upper = lat.index_of(series[idx + 1])
    b = lat.meet(lat.index_of(c), upper)
    r = lat.node_with_members(
        inner_action_members(amb, series[idx + 1], f.k, c))
    try:  # [R, K] and [A, A] are nodes: R, K and A are normal
        a_sub = lat.nodes[lat.join(
            lat.index_of(commutator_subgroup(g, r, f.k)), b)]
        d = lat.join(lat.index_of(commutator_subgroup(g, a_sub, a_sub)), b)
    except KeyError:
        raise InternalCheckError(
            "refinement is not made of normal subgroups") from None
    b_node, d_node = lat.nodes[b], lat.nodes[d]

    if not (lat.le(lat.index_of(series[idx]), b) and b != d
            and lat.le(d, upper)):
        raise InternalCheckError("refinement landed outside its interval")
    out = make_factor(amb, d_node, b_node)
    if not lat.is_cover(b_node.members, d_node.members):
        raise InternalCheckError("refined factor is not chief")
    if not are_associated(out, f):
        raise InternalCheckError("refined factor is not associated")
    # Uniqueness: intervals before idx sit below the centralizer and later
    # ones start above it, so exactly one interval covers the block of f.
    for j in range(len(series) - 1):
        lower, hi = series[j].members, series[j + 1].members
        interval_covers = lower <= c.members and not hi <= c.members
        if (j == idx) != interval_covers:
            raise InternalCheckError("cover-uniqueness scan failed")
    return idx, b_node, d_node
