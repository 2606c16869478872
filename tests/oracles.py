"""Brute-force reference implementations that the tests compare against.

Each function here computes something the library computes faster, by the
definition and without the library's shortcut.  They are slow by design and
bounded to small inputs.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from typing import Sequence

from chiefblocks.autos import iter_isomorphisms
from chiefblocks.blocks import inner_action_members
from chiefblocks.cli import _fingerprint
from chiefblocks.errors import CapError, NotNormal, SearchCapExceeded
from chiefblocks.factors import (
    NormalFactor,
    are_associated,
    associated_nodes,
    factor_centralizer,
)
from chiefblocks.errors import DifferentParents
from chiefblocks.group import (
    DirectProductGroup,
    FiniteGroup,
    Homomorphism,
    SemidirectProductGroup,
    Subgroup,
    ambient_subgroup,
    centralizer_subgroup,
    class_closure,
    class_index,
    close_under_mul,
    commutator_subgroup,
    conjugacy_classes,
    subgroup_as_group,
)
from chiefblocks.lattice import (
    NormalLattice,
    chief_factors,
    normal_subgroups,
)
from chiefblocks.semisimple import components

ORACLE_BOUND = 24


class OracleBoundExceeded(CapError):
    """The brute-force subgroup oracle was asked about a group that is too large."""


def oracle_all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of g, by exhaustive closure of element subsets.

    Starting from the trivial subgroup, repeatedly extend each known
    subgroup by one new element and close.  Each subgroup is generated by
    some finite set, so adding generators one at a time reaches all of them;
    closure sizes divide the group order, which keeps the walk short.
    """
    if g.order > ORACLE_BOUND:
        raise OracleBoundExceeded(
            f"oracle handles orders up to {ORACLE_BOUND}, got {g.order}")
    seen: dict[frozenset, list[int]] = {frozenset((0,)): []}
    worklist = [(frozenset((0,)), [])]
    while worklist:
        members, gens = worklist.pop()
        for x in g.elements():
            if x in members:
                continue
            new_gens = gens + [x]
            closed = close_under_mul(g, [x], members, gens)
            if closed not in seen:
                seen[closed] = new_gens
                worklist.append((closed, new_gens))
    return [Subgroup(g, m, gs) for m, gs in
            sorted(seen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]


def oracle_normal_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Brute-force normal subgroups: the oracle list filtered by
    ``normal_by_conjugation``."""
    return [s for s in oracle_all_subgroups(g)
            if normal_by_conjugation(g, s.members)]


def normal_by_conjugation(ambient, members: frozenset) -> bool:
    """Whether the subgroup ``members`` is normal in the ambient, by
    conjugating every member by every ambient element through ``g.mul``."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    return members <= amb.members and all(
        g.mul(g.mul(h, x), g.inv(h)) in members
        for h in amb.members for x in members)


def product_of_subgroups(a: Subgroup, b: Subgroup) -> frozenset:
    """Element set of the product AB for subgroups with AB = BA.

    The result is accumulated as a union of right cosets Bx of the larger
    factor B, one ``g.mul`` per product element.  AB = BA is assumed, so
    accumulating cosets of the larger side from the smaller side gives the
    same element set.
    """
    if a.parent is not b.parent:
        raise DifferentParents("factors live in different groups")
    g = a.parent
    small, big = (a, b) if a.order < b.order else (b, a)
    result = set(big.members)
    for x in sorted(small.members):
        if x not in result:
            result.update(g.mul(m, x) for m in big.members)
    return frozenset(result)


def normal_subgroups_join_closure(ambient) -> set[frozenset]:
    """Member sets of the normal subgroups, by closing atoms under join.

    Atoms are the normal closures of conjugacy-class representatives, by
    ``normal_closure_by_mul``; every normal subgroup is the join of the
    cyclic normal closures of its elements, so closing the atoms under
    pairwise join is complete.  Costs one set product per pair of nodes.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    trivial = Subgroup(g, frozenset((0,)), [])
    nodes = {trivial.members: trivial}
    for cls in conjugacy_classes(amb)[1:]:
        atom = normal_closure_by_mul(amb, [cls[0]])
        nodes.setdefault(atom, Subgroup(g, atom))
    worklist = list(nodes.values())
    while worklist:
        a = worklist.pop()
        for b in list(nodes.values()):
            j = product_of_subgroups(a, b)
            if j not in nodes:
                nodes[j] = Subgroup(g, j)
                worklist.append(nodes[j])
    return set(nodes) | {amb.members}


def group_laws_by_elements(g: FiniteGroup) -> bool:
    """Identity and inverse laws on every element, by ``_mul_impl``.

    The inverses are the cached list that conjugation reads.  A group of
    order at most 512 must also pass ``columns_match_mul``.
    """
    mul, inv = g._mul_impl, g.inverses()
    if len(inv) != g.order or any(
            mul(a, 0) != a or mul(0, a) != a
            or mul(a, inv[a]) != 0 or mul(inv[a], a) != 0
            for a in g.elements()):
        return False
    return g.order > 512 or columns_match_mul(g)


def columns_match_mul(g: FiniteGroup) -> bool:
    """Every column agrees with the product: rcol(b)[a] == _mul_impl(a, b)
    for every a and b, n^2 products."""
    mul = g._mul_impl
    return all(list(g.rcol(b)) == [mul(a, b) for a in g.elements()]
               for b in g.elements())


def closure_by_mul(g: FiniteGroup, seed: Sequence[int]) -> frozenset:
    """<seed>, by breadth-first products through ``g.mul`` alone."""
    members, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in seed:
                y = g.mul(x, s)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def cosets_by_mul(q) -> tuple[list[int], list[int]]:
    """The coset map and representatives of a ``CosetGroup`` K/L by the
    definition: K is <R, L>, R the representatives of the generators of
    K/L, and each element m of K, in rising order, that no coset holds yet
    is the representative of the coset {m*l : l in L}, every product by
    the parent's ``_mul_impl``.  The map is -1 outside K.  K is closed
    from L's generators; were they to miss a member of L, these cosets,
    taken over all of L, would not match the map's."""
    p, lmem = q.parent_group, q.kernel.members
    mul = p._mul_impl
    k = closure_by_mul(p, [q.reps[c] for c in q.generators] + [
        *q.kernel.gens])
    coset_of, reps = [-1] * p.order, []
    for m in sorted(k):
        if coset_of[m] < 0:
            for y in {mul(m, l) for l in lmem}:
                coset_of[y] = len(reps)
            reps.append(m)
    return coset_of, reps


def normal_closure_by_mul(ambient, seed: Sequence[int]) -> frozenset:
    """ncl(seed) in the ambient, through ``g.mul`` alone.

    Close the seed, then add the least conjugate of any member by an
    ambient generator that the closure misses, until it misses none.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    gens = list(seed)
    members = closure_by_mul(g, gens)
    while True:
        missing = {g.mul(g.mul(h, x), g.inv(h))
                   for h in amb.gens for x in members} - members
        if not missing:
            return members
        gens.append(min(missing))
        members = closure_by_mul(g, gens)


def normal_closure_by_columns(ambient, seed: Sequence[int]) -> frozenset:
    """ncl(seed) in the ambient, by element closures over multiplier columns.

    Close the seed with ``close_under_mul``, then fold in every conjugate of
    a generator by an ambient generator that the closure misses; each fold
    at least doubles the closure.  It shares no code with the class rows,
    and is fast enough for ambients where ``normal_closure_by_mul`` is not.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    gens = [x for x in dict.fromkeys(seed) if x != 0]
    memo: dict = {}
    members = close_under_mul(g, gens, memo=memo)
    i = 0
    while i < len(gens):
        s = gens[i]
        i += 1
        for h in amb.gens:
            c = g.conj(h, s)
            if c not in members:
                members = close_under_mul(g, [c], members, gens, memo)
                gens.append(c)
    return members


def principal_subgroups_closing_every_class(ambient) -> dict[int, int]:
    """ncl(x) as a class bitset -> its first representative x, in class order.

    Every non-identity class is closed from the identity's class, with no
    certificate and no skipped power classes.  A class skipped by the
    lattice (that of a power y^k generating <y>) has the ncl of a class
    before it, so the first representatives are the same.
    """
    amb = ambient_subgroup(ambient)
    rows: dict = {}
    principal: dict[int, int] = {}
    for cls in conjugacy_classes(amb)[1:]:
        principal.setdefault(class_closure(amb, 1, cls[0], rows), cls[0])
    return principal


def class_row_by_column(ambient, x: int) -> list[int]:
    """R_x by its definition: entry i is the bitset of {index[col[c]] : c
    in C_i}, the classes of the products c*x, with col the column of x."""
    amb = ambient_subgroup(ambient)
    col, index = amb.parent.rcol(x), class_index(amb)
    return [sum({1 << index[col[c]] for c in cls})
            for cls in conjugacy_classes(amb)]


def classes_by_mul(ambient) -> list[list[int]]:
    """Orbits of conjugation by the ambient's generators, through ``g.mul``."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    seen: set[int] = set()
    classes = []
    for start in sorted(amb.members):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            nxt = []
            for x in frontier:
                for h in amb.gens:
                    y = g.mul(g.mul(h, x), g.inv(h))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        classes.append(sorted(orbit))
    return classes


def class_space_matches_mul(ambient) -> bool:
    """``conjugacy_classes`` and ``class_index`` agree with ``classes_by_mul``.

    The index must hold every ambient member and no other element.
    """
    classes, index = classes_by_mul(ambient), class_index(ambient)
    return (conjugacy_classes(ambient) == classes
            and len(index) == sum(map(len, classes))
            and all(index[x] == i for i, cls in enumerate(classes)
                    for x in cls))


def class_ambients(g: FiniteGroup) -> list[Subgroup]:
    """The whole of g and, for an exact product, its recorded factor images."""
    if type(g) is DirectProductGroup:
        return [g.whole(), g.left_factor, g.right_factor]
    if type(g) is SemidirectProductGroup:
        return [g.whole(), g.base_part, g.top_part]
    return [g.whole()]


def centralizer_by_mul(ambient, targets: Sequence[int]) -> frozenset:
    """Ambient elements x with xt = tx for every target t, by ``g.mul``."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    return frozenset(x for x in amb.members
                     if all(g.mul(x, t) == g.mul(t, x) for t in targets))


def factor_centralizer_by_sweep(ambient, k_gens: Sequence[int],
                               l_members: frozenset) -> frozenset:
    """{x in ambient : [x, k] in L for every k}, testing every element."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    return frozenset(x for x in amb.members
                     if all(g.comm(x, k) in l_members for k in k_gens))


def hasse_edges_triple_loop(lat: NormalLattice) -> list[tuple[int, int]]:
    """Covering pairs (i, j): i < j with no third node strictly between."""
    nodes = [n.members for n in lat.nodes]
    n = len(nodes)
    return sorted(
        (i, j) for i in range(n) for j in range(n)
        if nodes[i] < nodes[j]
        and not any(k != i and k != j and nodes[i] < nodes[k] < nodes[j]
                    for k in range(n)))


def central_elementary_subgroups_by_mul(g: FiniteGroup) -> int:
    """Subgroups of the central z with z^p = 1, p a prime dividing |Z|.

    The center is the elements commuting with the generators, z^p takes
    p - 1 products, and C_p^r has the sum over k of the Gaussian binomials
    [r, k]_p as its number of subgroups; counts for primes multiply.
    """
    gens = g.whole().gens
    center = [z for z in g.elements()
              if all(g.mul(z, s) == g.mul(s, z) for s in gens)]
    total = 1
    for p in range(2, len(center) + 1):
        if len(center) % p or any(p % d == 0 for d in range(2, p)):
            continue
        count = sum(functools.reduce(g.mul, [z] * p) == 0 for z in center)
        r = 0  # count = p^r
        while p ** r < count:
            r += 1
        total *= sum(
            math.prod(p ** (r - i) - 1 for i in range(k))
            // math.prod(p ** (i + 1) - 1 for i in range(k))
            for k in range(r + 1))
    return total


def commutator_pairs(g: FiniteGroup, a: Subgroup, b: Subgroup) -> frozenset:
    """[A, B] from the commutators of every element pair."""
    comms = {g.comm(x, y) for x in a.members for y in b.members}
    return close_under_mul(g, sorted(comms))


def components_all_nodes(g: FiniteGroup) -> set[frozenset]:
    """Components found by sweeping every lattice node, perfect or not.

    The acceptance test is the commutator one that ``semisimple.components``
    replaces with a lattice check: M/Z(M) non-abelian and every proper
    normal subgroup of M central.  Z(M) is taken as the elements of M
    centralizing M's generators in the whole group, and normal closures
    come from ``normal_closure_by_mul``.
    """
    amb = g.whole()
    found = set()
    for n in normal_subgroups(amb).nodes:
        if n.order == 1:
            continue
        for m in normal_subgroups(n).nodes:
            if m.order == 1:
                continue
            if normal_closure_by_mul(amb, m.gens) != n.members:
                continue
            zm = centralizer_subgroup(g, m.gens).members & m.members
            if all(g.comm(a, b) in zm for a in m.gens for b in m.gens):
                continue
            if any(k.order < m.order and not k.members <= zm
                   for k in normal_subgroups(m).nodes):
                continue
            found.add(m.members)
    return found


def refine_series_r_oracle(ambient, within: Subgroup, k: Subgroup,
                           l: Subgroup) -> frozenset:
    """Elementwise-search definition of the inner-action set."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    out = []
    k_sorted = sorted(k.members)
    for x in sorted(within.members):
        found = False
        for cand in k_sorted:
            if all(g.mul(g.conj(x, t), g.inv(g.conj(cand, t))) in l.members
                   for t in k.gens):
                found = True
                break
        if found:
            out.append(x)
    return frozenset(out)


def refine_series_by_commutators(ambient, series: Sequence[Subgroup],
                                 f: NormalFactor) -> tuple:
    """(i, B, D) of ``refine_series``, with D built from two commutators.

    i and B = C meet series[i+1] as there, C the factor centralizer; with R
    the inner-action set, A = [R, K]B and D = [A, A]B.  Joins and meets are
    lattice lookups; the commutator subgroups are normal, hence nodes.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    lat = normal_subgroups(amb)
    c = factor_centralizer(f)
    i = next(j for j in range(len(series) - 1)
             if not series[j + 1].members <= c.members)
    b = lat.meet(lat.index_of(c), lat.index_of(series[i + 1]))
    r = lat.node_with_members(
        inner_action_members(amb, series[i + 1], f.k, c))
    a = lat.nodes[lat.join(lat.index_of(commutator_subgroup(g, r, f.k)), b)]
    d = lat.join(lat.index_of(commutator_subgroup(g, a, a)), b)
    return i, lat.nodes[b], lat.nodes[d]


def layer_by_closure(ambient) -> frozenset:
    """The subgroup the components generate, closed from their generators."""
    amb = ambient_subgroup(ambient)
    return close_under_mul(amb.parent,
                           [x for m in components(amb) for x in m.gens])


def independence_property(ambient, parts: Sequence[Subgroup]) -> bool:
    """The full for-all-X independence property, checked exhaustively.

    X ranges over families of subsets of the part set: whenever the family
    has empty intersection, the corresponding joins must intersect trivially.
    Joins are taken as generated subgroups.  Exponential in 2^len(parts);
    intended for small part counts.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    n = len(parts)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)))
    joins = {s: close_under_mul(g, [x for i in s for x in parts[i].gens])
             for s in subsets}
    for family_size in range(1, len(subsets) + 1):
        for family in itertools.combinations(subsets, family_size):
            common = set(range(n))
            for s in family:
                common &= set(s)
            if common:
                continue
            inter = amb.members
            for s in family:
                inter = inter & joins[s]
            if inter != frozenset((0,)):
                return False
    return True


def centralizer_equal(f1: NormalFactor, f2: NormalFactor) -> bool:
    """Equal factor centralizers, the key of blocks of non-abelian factors."""
    return factor_centralizer(f1).members == factor_centralizer(f2).members


def associated_by_products(f1: NormalFactor, f2: NormalFactor) -> bool:
    """K1L2 = K2L1 and Ki meet L1L2 = Li, on element sets."""
    k1l2 = product_of_subgroups(f1.k, f2.l)
    k2l1 = product_of_subgroups(f2.k, f1.l)
    if k1l2 != k2l1:
        return False
    l1l2 = product_of_subgroups(f1.l, f2.l)
    return (f1.k.members & l1l2 == f1.l.members
            and f2.k.members & l1l2 == f2.l.members)


def association_edges_pairwise(ambient) -> list[tuple[int, int]]:
    """Association edges (i, j), i < j, by the one-pair test on every pair.

    Indices follow ``chief_factors``, as the vertices of
    ``association_graph`` do.
    """
    lat = normal_subgroups(ambient)
    nodes = [(lat.index_of(f.k), lat.index_of(f.l))
             for f in chief_factors(ambient)]
    return [(i, j) for i, (k1, l1) in enumerate(nodes)
            for j in range(i + 1, len(nodes))
            if associated_nodes(lat, k1, l1, *nodes[j])]


def abelian_by_commutators(f: NormalFactor) -> bool:
    """[K, K] <= L, from the commutators of every pair of K's generators."""
    g = f.ambient.parent
    return all(g.comm(a, b) in f.l.members
               for a in f.k.gens for b in f.k.gens)


def compression_by_products(f1: NormalFactor, f2: NormalFactor) -> bool:
    """K2 = K1L2 and L1 = K1 meet L2, on element sets."""
    return (f2.k.members == product_of_subgroups(f1.k, f2.l)
            and f1.l.members == f1.k.members & f2.l.members)


def chief_association_conditions(f1: NormalFactor, f2: NormalFactor) -> tuple:
    """The three equivalent tests for non-abelian chief factors.

    Returns (associated, equal centralizers, product condition); the product
    condition is K1L2 = K2L1 together with K1K2 > L1L2.
    """
    cond1 = are_associated(f1, f2)
    cond2 = centralizer_equal(f1, f2)
    k1l2 = product_of_subgroups(f1.k, f2.l)
    k2l1 = product_of_subgroups(f2.k, f1.l)
    k1k2 = product_of_subgroups(f1.k, f2.k)
    l1l2 = product_of_subgroups(f1.l, f2.l)
    cond3 = k1l2 == k2l1 and l1l2 < k1k2
    return cond1, cond2, cond3


def automorphism_group(g: FiniteGroup) -> list[Homomorphism]:
    """Every automorphism of g, by the generator-image search."""
    return list(iter_isomorphisms(g, g))


def _complement_swap(g: FiniteGroup, n: Subgroup,
                     m: Subgroup) -> list[int] | None:
    """An automorphism of g exchanging internal direct factors n and m.

    Requires g = n x m internally.  Built from an isomorphism phi: n -> m as
    x*y |-> phi^-1(y)*phi(x); the factors commute elementwise, so the formula
    is multiplicative.
    """
    if (n.order != m.order or n.members & m.members != {0}
            or n.order * m.order != g.order):
        return None
    n_grp, n_embed = subgroup_as_group(n)
    m_grp, m_embed = subgroup_as_group(m)
    try:
        phi = next(iter_isomorphisms(n_grp, m_grp), None)
    except SearchCapExceeded:
        return None
    if phi is None:
        return None
    fwd = {n_embed(x): m_embed(phi(x)) for x in n_grp.elements()}
    bwd = {m_embed(phi(x)): n_embed(x) for x in n_grp.elements()}
    table = [-1] * g.order
    for x in sorted(n.members):
        fx = fwd[x]
        for y in m.members:
            table[g.mul(x, y)] = g.mul(bwd[y], fx)
    if -1 in table or len(set(table)) != g.order:
        return None
    return table


def characteristically_simple_by_automorphisms(g: FiniteGroup) -> bool:
    """True iff automorphisms move every node other than 1 and G.

    Characteristic subgroups are normal, so only lattice nodes need to be
    fused.  The center and the derived subgroup are characteristic, so
    either one proper and non-trivial answers False.  Otherwise explicit
    automorphisms fuse the nodes: the swap of a node N with its centralizer
    C(N/1) when G = N x C(N/1), then the enumeration of Aut(G), which raises
    SearchCapExceeded when the search outgrows its cap.
    """
    lat = normal_subgroups(g)
    proper = [n for n in lat.nodes if 1 < n.order < g.order]
    whole = g.whole()
    if any(1 < len(s) < g.order for s in (
            centralizer_by_mul(whole, whole.gens),
            commutator_subgroup(g, whole, whole).members)):
        return False
    unfused = {n.members for n in proper}

    def absorb(table: list[int]) -> None:
        for mem in list(unfused):
            if frozenset(table[x] for x in mem) != mem:
                unfused.discard(mem)

    for n in proper:
        if n.members in unfused:
            table = _complement_swap(g, n, factor_centralizer(
                NormalFactor(whole, n, lat.nodes[0])))
            if table is not None:
                absorb(table)
    if unfused:
        for auto in iter_isomorphisms(g, g):
            absorb(auto.mapping)
            if not unfused:
                break
    return not unfused


def lazy_nodes_match_classes(ambient) -> bool:
    """Each node of the ambient's lattice against its class definition.

    The fingerprint is taken from the node's classes, before its
    ``members`` are read; then the members must be the union of the
    classes of the node's bitset, the order their count, the fingerprint
    the CRC-32 of the sorted ids joined by commas, and ``index_of`` on a
    new subgroup with those members the node's index.  The first
    non-normal cyclic subgroup <x>, x a least member of a class, must
    raise NotNormal.
    """
    amb = ambient_subgroup(ambient)
    g, lat = amb.parent, normal_subgroups(amb)
    classes = conjugacy_classes(amb)
    for i, node in enumerate(lat.nodes):
        fp = _fingerprint(node.ids())
        want = frozenset(x for j, cls in enumerate(classes)
                         if node._bits >> j & 1 for x in cls)
        text = ",".join(map(str, sorted(want))).encode()
        if (node.members != want or node.order != len(want)
                or fp != f"{zlib.crc32(text):08x}"
                or lat.index_of(Subgroup(g, want)) != i):
            return False
    for cls in classes[1:]:
        s = close_under_mul(g, [cls[0]])
        if any(c & s and not c <= s for c in map(frozenset, classes)):
            try:
                lat.index_of(Subgroup(g, s))
            except NotNormal:
                return True
            return False
    return True
