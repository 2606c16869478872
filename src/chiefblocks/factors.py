"""Normal factors K/L, their centralizers, and the association relation.

K and L are lattice nodes, so association and compression read node indices.
"""

from __future__ import annotations

from .errors import (
    DifferentParents,
    InternalCheckError,
    NotAssociated,
    NotNormal,
    NotStrictlyNested,
    WorkCapExceeded,
)
from .group import (
    CosetGroup,
    Homomorphism,
    Subgroup,
    ambient_subgroup,
    factor_centralizer_members,
    is_normal_in,
    subgroup_as_group,
)
from .lattice import NormalLattice, chief_factors, normal_subgroups

# Most pair tests ``association_graph`` makes: about 27 s at 1.7 us a pair,
# the rate measured on A5xC2^5 (4,528 chief factors, 10,249,128 pairs, 17 s
# on a 2-core x86-64 machine, Python 3.11).  C2^6 (23,562 chief factors)
# would need 277,572,141 and is refused.
ASSOCIATION_PAIR_CAP = 16_000_000


class NormalFactor:
    """The quotient K/L of nested subgroups normal in a common ambient.

    Factors are value objects: two factors are equal iff they have the same
    ambient and the same pair (K, L).  The constructor does not check that
    K and L are normal in the ambient (``make_factor`` does), but callers
    must guarantee it: ``factor_centralizer`` relies on it to test one
    element per conjugacy class, which is only sound for a centralizer that
    is normal in the ambient.
    """

    __slots__ = ("ambient", "k", "l", "_hash")

    def __init__(self, ambient: Subgroup, k: Subgroup, l: Subgroup):
        self.ambient = ambient
        self.k = k
        self.l = l
        self._hash = None

    @property
    def order(self) -> int:
        return self.k.order // self.l.order

    def __eq__(self, other):
        return (isinstance(other, NormalFactor)
                and self.ambient.parent is other.ambient.parent
                and self.ambient.members == other.ambient.members
                and self.k.members == other.k.members
                and self.l.members == other.l.members)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ambient.parent), self.ambient.members,
                               self.k.members, self.l.members))
        return self._hash

    def __repr__(self):
        return (f"<NormalFactor {self.k.order}/{self.l.order}"
                f" in {self.ambient.parent.name}>")


def make_factor(ambient, k: Subgroup, l: Subgroup) -> NormalFactor:
    """Validated factor handle; requires L < K with both normal."""
    amb = ambient_subgroup(ambient)
    if k.parent is not amb.parent or l.parent is not amb.parent:
        raise DifferentParents("factor pieces in a different group")
    if not is_normal_in(k, amb) or not is_normal_in(l, amb):
        raise NotNormal("factor pieces must be normal in the ambient")
    if not l.members < k.members:
        raise NotStrictlyNested("need L < K")
    return NormalFactor(amb, k, l)


def factor_group(f: NormalFactor) -> tuple[CosetGroup, Homomorphism]:
    """Materialize K/L together with the projection from K."""
    g = f.ambient.parent
    key = ("factor_group", f.k.members, f.l.members)
    cached = g._cache.get(key)
    if cached is None:
        k_grp, embed = subgroup_as_group(f.k)
        q = CosetGroup(g, f.k.members, f.l, f.k.gens,
                       f"{g.name}|{f.k.order}/{f.l.order}")
        proj = Homomorphism(k_grp, q,
                            [q.coset_of[embed(x)] for x in k_grp.elements()],
                            "factor projection")
        cached = (q, proj)
        g._cache[key] = cached
    return cached


def factor_centralizer(f: NormalFactor) -> Subgroup:
    """{g in ambient : [g, k] in L for every k in K}, normal in the ambient.

    Computed by ``factor_centralizer_members`` from one element per
    conjugacy class of the ambient, which needs K and L normal in it.
    """
    g = f.ambient.parent
    key = ("factor_centralizer", f.ambient.members, f.k.members, f.l.members)
    cached = g._cache.get(key)
    if cached is None:
        members = factor_centralizer_members(f.ambient, f.k.gens,
                                             f.l.members)
        cached = Subgroup(g, members, None,
                          True if f.ambient.order == g.order else None)
        g._cache[key] = cached
    return cached


def is_abelian_factor(f: NormalFactor) -> bool:
    """True iff [K, K] <= L, i.e. the factor group is abelian.

    Generator pairs suffice: the images of generators of K generate K/L.
    """
    g = f.ambient.parent
    return all(g.comm(a, b) in f.l.members
               for a in f.k.gens for b in f.k.gens)


def _lattice_nodes(f1: NormalFactor, f2: NormalFactor) -> tuple:
    """The common ambient's lattice and the node indices K1, L1, K2, L2."""
    if (f1.ambient.parent is not f2.ambient.parent
            or f1.ambient.members != f2.ambient.members):
        raise DifferentParents("factors live in different ambient groups")
    lat = normal_subgroups(f1.ambient)
    return lat, [lat.index_of(s) for s in (f1.k, f1.l, f2.k, f2.l)]


def associated_nodes(lat: NormalLattice, k1: int, l1: int, k2: int,
                     l2: int) -> bool:
    """K1L2 = K2L1 and Ki meet L1L2 = Li, on node indices."""
    if lat.join(k1, l2) != lat.join(k2, l1):
        return False
    l12 = lat.join(l1, l2)
    return lat.meet(k1, l12) == l1 and lat.meet(k2, l12) == l2


def are_associated(f1: NormalFactor, f2: NormalFactor) -> bool:
    """K1L2 = K2L1, K1 meet L1L2 = L1, and K2 meet L1L2 = L2."""
    lat, idx = _lattice_nodes(f1, f2)
    return associated_nodes(lat, *idx)


def is_internal_compression(f1: NormalFactor, f2: NormalFactor) -> bool:
    """True iff the coset map K1/L1 -> K2/L2 is an internal compression.

    Direction matters: requires K2 = K1L2 and L1 = K1 meet L2.
    """
    lat, (k1, l1, k2, l2) = _lattice_nodes(f1, f2)
    return lat.join(k1, l2) == k2 and lat.meet(k1, l2) == l1


def common_compression(f1: NormalFactor, f2: NormalFactor) -> NormalFactor:
    """(K1K2)/(L1L2), an internal compression of both associated inputs."""
    if not are_associated(f1, f2):
        raise NotAssociated("common compression needs associated factors")
    lat, (k1, l1, k2, l2) = _lattice_nodes(f1, f2)
    out = NormalFactor(f1.ambient, lat.nodes[lat.join(k1, k2)],
                       lat.nodes[lat.join(l1, l2)])
    if not (is_internal_compression(f1, out)
            and is_internal_compression(f2, out)):
        raise InternalCheckError(
            "common compression must compress both factors")
    return out


def association_graph(
        ambient) -> tuple[list[NormalFactor], list[tuple[int, int]]]:
    """All chief factors (abelian included) with association edges.

    Returns (vertices, edges); edges are index pairs (i, j), i < j, between
    distinct associated factors, tested on each factor's node indices.
    Raises WorkCapExceeded, before any test, when the F(F-1)/2 pairs of the
    F chief factors exceed ``ASSOCIATION_PAIR_CAP``.
    """
    verts = chief_factors(ambient)
    pairs = len(verts) * (len(verts) - 1) // 2
    if pairs > ASSOCIATION_PAIR_CAP:
        raise WorkCapExceeded(
            f"association stage: {len(verts)} chief factors need {pairs} "
            f"pair tests, over the cap of {ASSOCIATION_PAIR_CAP}")
    lat = normal_subgroups(ambient)
    nodes = [(lat.index_of(f.k), lat.index_of(f.l)) for f in verts]
    edges = [(i, j) for i, (k1, l1) in enumerate(nodes)
             for j in range(i + 1, len(nodes))
             if associated_nodes(lat, k1, l1, *nodes[j])]
    return verts, edges
