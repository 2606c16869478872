"""Normal factors K/L, their centralizers, and the association relation.

K and L are lattice nodes, so association, compression and the centralizer
of a non-abelian chief factor read node indices, and the association graph
pushes each chief factor up over the nodes.
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
    subgroup_key,
)
from .lattice import (NormalLattice, cached_lattice, chief_factors,
                      is_prime_power, normal_subgroups)

# Most pairs F(F-1)/2 of F chief factors ``association_graph`` takes.  Its
# push-up over N nodes (N - 1 <= F) makes F*N <= F(F+1) steps: A5xC2^5's
# 3.4 million take 2.4 s (2-core x86-64, Python 3.11).  C2^6 (23,562 chief
# factors) would need 277,572,141 pairs and is refused.
ASSOCIATION_PAIR_CAP = 16_000_000


class NormalFactor:
    """The quotient K/L of nested subgroups normal in a common ambient.

    Factors are value objects: two factors are equal iff they have the same
    ambient and the same pair (K, L).  The constructor does not check that
    K and L are normal in the ambient (``make_factor`` does), but callers
    must guarantee it: ``factor_centralizer`` relies on it to test one
    element per conjugacy class, which is only sound for a centralizer that
    is normal in the ambient.  Nodes of the ambient's lattice meet it by
    construction, so factors of nodes are built directly.
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
                and self.ambient == other.ambient
                and self.k == other.k and self.l == other.l)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient, self.k, self.l))
        return self._hash

    def __repr__(self):
        return (f"<NormalFactor {self.k.order}/{self.l.order}"
                f" in {self.ambient.parent.name}>")


def make_factor(ambient, k: Subgroup, l: Subgroup) -> NormalFactor:
    """Validated factor handle for subgroups from outside: requires L < K,
    both normal by ``is_normal_in``, and builds no lattice."""
    amb = ambient_subgroup(ambient)
    if k.parent is not amb.parent or l.parent is not amb.parent:
        raise DifferentParents("factor pieces in a different group")
    if not is_normal_in(k, amb) or not is_normal_in(l, amb):
        raise NotNormal("factor pieces must be normal in the ambient")
    if not l < k:
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


def _built_cover(f: NormalFactor) -> NormalLattice | None:
    """The ambient's lattice if it is built and K/L is one of its covers."""
    lat = cached_lattice(f.ambient)
    return lat if lat is not None and lat.is_cover(f.l, f.k) else None


def factor_centralizer(f: NormalFactor) -> Subgroup:
    """{g in ambient : [g, k] in L for every k in K}, normal in the ambient.

    A non-abelian cover of the built lattice reads the node from the order;
    any other factor tests one element per conjugacy class.
    """
    lat = _built_cover(f)
    if lat is not None and not is_prime_power(f.order):
        return lat.nodes[lat.centralizer(lat.index_of(f.k), lat.index_of(f.l))]
    g = f.ambient.parent
    key = ("factor_centralizer", subgroup_key(f.ambient), f.k.members,
           f.l.members)
    cached = g._cache.get(key)
    if cached is None:
        cached = g._cache[key] = Subgroup(g, factor_centralizer_members(
            f.ambient, f.k.gens, f.l.members))
    return cached


def is_abelian_factor(f: NormalFactor) -> bool:
    """True iff [K, K] <= L, i.e. the factor group is abelian.

    A cover of the built lattice is T^k, T simple: abelian iff |K/L| is a
    prime power (Burnside's p^a q^b theorem).  Else generator pairs decide.
    """
    if _built_cover(f) is not None:
        return is_prime_power(f.order)
    g = f.ambient.parent
    return all(g.comm(a, b) in f.l.members
               for a in f.k.gens for b in f.k.gens)


def _lattice_nodes(f1: NormalFactor, f2: NormalFactor) -> tuple:
    """The common ambient's lattice and the node indices K1, L1, K2, L2."""
    a1, a2 = f1.ambient, f2.ambient
    if a1 != a2:
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

    Vertices come in ``lat.covers()`` order; edges are the sorted pairs
    (i, j), i < j, of associated factors.  Each K1/L1 is pushed up over the
    N nodes L2, with J = L1L2 and M = K1L2 from one ``join_row`` per node.
    By the modular law (Dedekind), K1 meet J is L1 iff M != J, and then M
    covers J; so the associated K2/L2 are the upper covers K2 of L2 with
    K2 <= M and K2 not in J (then K2L1 = M and K2 meet J = L2; conversely
    K2 <= K2L1 = M and K2 meet J = L2).  Each edge is found from both ends,
    else InternalCheckError names the stage.  Factors come sorted by L, and
    associates have different L (L1 = L2 forces K1 = K1L2 = K2L1 = K2), so
    the associates over L2 < L1 are the back hits, counted by popcount; the
    bits are walked only for L2 >= L1, where they are i itself or after i.
    WorkCapExceeded is raised, before any work, when the F(F-1)/2 pairs of
    the F chief factors exceed ``ASSOCIATION_PAIR_CAP``; as N - 1 <= F,
    that bounds the F*N steps.
    """
    verts = chief_factors(ambient)
    pairs = len(verts) * (len(verts) - 1) // 2
    if pairs > ASSOCIATION_PAIR_CAP:
        raise WorkCapExceeded(
            f"association stage: {len(verts)} chief factors make {pairs} "
            f"pairs, over the cap of {ASSOCIATION_PAIR_CAP}")
    lat = normal_subgroups(ambient)
    covers, below = lat.covers(), lat.below
    factor_at: list[dict] = [{} for _ in below]  # L2: {K2 bit: factor}
    for f, (l, k) in enumerate(covers):
        factor_at[l][1 << k] = f
    up_bits = [sum(ks) for ks in factor_at]
    rows = [lat.join_row(n) for n in range(len(lat))]
    edges, back = [], 0
    for i, (l1, k1) in enumerate(covers):
        for l2, (j, m) in enumerate(zip(rows[l1], rows[k1])):
            if m == j:  # K1 lies in J: no associate over L2
                continue
            bits = up_bits[l2] & below[m] & ~below[j]
            if l2 < l1:  # factors over L2 come before i: count, not walk
                back += bits.bit_count()
                continue
            while bits:
                f2 = factor_at[l2][low := bits & -bits]
                bits ^= low
                if f2 > i:
                    edges.append((i, f2))
    if back != len(edges):
        raise InternalCheckError(f"association stage: {back} of "
                                 f"{len(edges)} edges found from both ends")
    return verts, edges
