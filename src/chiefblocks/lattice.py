"""Normal-subgroup lattices, chief factors and chief series.

Every operation takes either a FiniteGroup or a Subgroup as its ambient; in
the latter case "normal" means normal in that subgroup, which is what the
block-extension machinery needs.  ``normal_subgroups`` builds the lattice
of an ambient once, by a breadth-first search of upper covers from the
trivial subgroup, and caches it per ambient.  The search runs in class
space: a node is a bitset over the ambient's conjugacy classes, and a
product N*ncl(x), with ncl(x) the principal normal subgroup of x, is the
closure of N's classes under the class row of x (``group.class_closure``).
A non-abelian exact product reads its class rows from its factors' rows:
a direct product builds no column of its own, and a semidirect product
the column of x only where x or a class of the row lies outside its base
(``group.class_row``).  A node keeps its class bitset and its order, the
sum of its class sizes, and fills its member frozenset only when first
read (``Subgroup.of_classes``).  Nodes are ordered by order and class
bitset, which is their order by sorted members.  Every layer reads the
lattice from the cache and asks ``NormalLattice`` by node index: its
public lists ``up`` and ``down`` give each node's upper and lower covers
(L < K with no normal subgroup strictly between), the bitsets ``below``
its subnodes, and ``le``, ``join`` and ``meet`` the order.
A subgroup of the same parent is normal in the ambient iff it is a node:
``index_of`` resolves it once, by its class bitset, and no layer holding
the lattice tests normality again.  The cache keys of the lattice and of
the analyses over it name the whole group by None, not by its members.
"""

from __future__ import annotations

from math import prod
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
    class_closure,
    class_index,
    class_row,
    conjugacy_classes,
    subgroup_key,
)

# The digits of a bitset swapped, so that a held class sorts first
# (``normal_subgroups``).
_SWAP = str.maketrans("01", "10")


class NormalLattice:
    """All subgroups of the ambient that are normal in it, with covers.

    Nodes are deduplicated and sorted by (order, sorted members), so node
    indices are deterministic and rise along the order.  The public
    ``up[i]`` and ``down[i]`` (derived from ``up``) are the sorted indices of
    the nodes covering node i and covered by it, the Hasse edges that
    ``covers`` lists; bit i of the public ``below[j]`` and bit j of
    ``_above[i]`` say that node i lies in node j.  These bitsets answer
    ``le``, ``join`` and ``join_row`` (products, a lowest common bit) and
    ``meet`` (the intersection, a highest common bit).  Only ``index_of``,
    ``node_with_members`` and ``is_cover`` take subgroups or member sets,
    and they find a node by its class bitset over the ambient's classes
    (``_at``): a node of this lattice carries it, and any other subgroup
    is mapped to it through ``class_index``, reading its members once.
    """

    def __init__(self, ambient: Subgroup, nodes: list[Subgroup],
                 up: list[list[int]]):
        self.ambient = ambient
        self.nodes = nodes
        self.up = up
        self._classes = conjugacy_classes(ambient)
        self._at = {self._bitset(n): i for i, n in enumerate(nodes)}
        self.down: list[list[int]] = [[] for _ in nodes]
        self.below = [1 << i for i in range(len(nodes))]
        for i, js in enumerate(up):  # lower covers come first
            for j in js:
                self.down[j].append(i)
                self.below[j] |= self.below[i]
        self._above = [1 << i for i in range(len(nodes))]
        for i in reversed(range(len(nodes))):
            for j in up[i]:
                self._above[i] |= self._above[j]

    def __len__(self):
        return len(self.nodes)

    def _bitset(self, s: Subgroup) -> int | None:
        # The classes of the ambient that s meets, or None if s leaves
        # the ambient.
        if s._classes is self._classes:
            return s._bits
        if s.is_whole:
            return (1 << len(self._classes)) - 1 if self.ambient.is_whole \
                else None
        index = class_index(self.ambient)
        try:
            return sum(1 << i for i in set(map(index.__getitem__, s.members)))
        except KeyError:
            return None

    def _find(self, s: Subgroup) -> int | None:
        # A node carries its bitset; any other subgroup is node i iff it
        # lies in the classes of node i and has its order.
        if s._classes is self._classes:
            return self._at.get(s._bits)
        if s.parent is not self.ambient.parent:
            return None
        i = self._at.get(self._bitset(s))
        return i if i is not None and self.nodes[i].order == s.order else None

    def index_of(self, s: Subgroup) -> int:
        """The node index of s, which is normal in the ambient iff a node.

        Raises DifferentParents for a subgroup of another group and
        NotNormal for one that is not a node.
        """
        i = self._find(s)
        if i is None:
            if s.parent is not self.ambient.parent:
                raise DifferentParents("subgroup belongs to a different group")
            raise NotNormal("subgroup is not normal in the ambient")
        return i

    def node_with_members(self, members: frozenset) -> Subgroup:
        return self.nodes[self.index_of(Subgroup(self.ambient.parent,
                                                 members))]

    def le(self, i: int, j: int) -> bool:
        """True iff node i is contained in node j."""
        return self.below[j] >> i & 1 == 1

    def join(self, *idx: int) -> int:
        """Index of the product of the given nodes (trivial if none)."""
        bits = self._above[0]
        for i in idx:
            bits &= self._above[i]
        return self._lowest_bit(bits)

    def join_row(self, i: int) -> list[int]:
        """``join(i, j)`` for every node j, in node order."""
        return [self._lowest_bit(self._above[i] & a) for a in self._above]

    @staticmethod
    def _lowest_bit(bits: int) -> int:  # the least node above all given
        return (bits & -bits).bit_length() - 1

    def meet(self, *idx: int) -> int:
        """Index of the intersection of the given nodes (the top if none)."""
        bits = self.below[-1]
        for i in idx:
            bits &= self.below[i]
        return bits.bit_length() - 1

    def centralizer(self, k: int, l: int) -> int:
        """C(K/L) of a non-abelian chief factor K/L: the first node N from
        the top with N meet K = L.

        N meet K <= L gives [N, K] <= L, so N <= C(K/L); and (C(K/L) meet K)/L
        is central in K/L = T^k, which is centerless, so it is trivial.
        """
        return next(n for n in reversed(range(len(self.nodes)))
                    if self.meet(n, k) == l)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (i, j) with node i covered by node j, sorted."""
        return [(i, j) for i, js in enumerate(self.up) for j in js]

    def is_cover(self, lower: Subgroup, upper: Subgroup) -> bool:
        """True iff both are nodes and ``upper`` covers ``lower``."""
        j = self._find(upper)
        return j is not None and self._find(lower) in self.down[j]


def cached_lattice(amb: Subgroup, built=None) -> NormalLattice | None:
    """The ambient's lattice if built already, else None; caches ``built``."""
    key = ("lattice", subgroup_key(amb))
    if built is not None:
        amb.parent._cache[key] = built
    return amb.parent._cache.get(key)


def normal_subgroups(ambient) -> NormalLattice:
    """The normal lattice of the ambient, by a breadth-first search of covers.

    Nodes are bitsets over the conjugacy classes, and a product N*ncl(x)
    is a ``class_closure`` of N's bitset; one dict of class rows serves the
    whole search.  The principal normal subgroups ncl(x) come first
    (``_principal_subgroups``), one representative kept for each.  The
    upper covers of a node N are the minimal N*ncl(x), x outside N: a cover
    M of N is N*ncl(x) for any x in M - N, and a minimal product has no
    normal subgroup strictly between it and N.  So one search from the
    trivial subgroup finds every node and every edge.

    The candidates y for ncl(y) are the least members of the non-identity
    classes.  y^k with k prime to the order of y generates <y>, so its
    class has the same ncl and is skipped.  A candidate y is closed from
    the identity's class unless a certificate shows that ncl(y) is some
    A = ncl(x) found before.  Let P be the classes of the powers of y.  If
    the class of y lies in A and R_x[p] meets P for some p in P, then
    ncl(y) = A.  Proof: y lies in A, which is normal, so ncl(y) <= A.  The
    common class gives c*x = z with c in C_p and z in a class of P; c and z
    are conjugates of powers of y, so x = c^-1 z lies in ncl(y) and
    A = ncl(x) <= ncl(y).  Without a certificate y is closed in full, so
    the result is exact either way.

    Nodes are sorted by order, then by their class bitset written lowest
    class first with its digits swapped (``_SWAP``), so that at the first
    class where two bitsets differ the node holding it comes first.  That
    is their order by (order, sorted members).  Classes are indexed in
    least-member order.  For two nodes of equal order, let d be the lowest
    class of their symmetric difference, in N say, and c its least member.
    The strings agree before place d, and there N's has a 0 and the
    other's a 1: the other holds a class above d, else all its classes
    would lie in N and it would be smaller.  So the class key puts N
    first.  A member below c lies in a class whose least member is below
    c, so in a class below d, which both nodes hold.  So both nodes have
    the same members below c; N has c next, and the other has a next
    member, not c, so above it: the member key puts N first too.

    The lattice is cached per ambient.  The ``node_cap`` of the ambient's
    parent group bounds a build, which raises NodeCapExceeded as soon as the
    lattice would exceed it: before any class row if its central subgroups
    of prime exponent do, among the principal normal subgroups if they and
    the trivial subgroup do, else in the search.  A lattice already built
    is returned as it is.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    if (cached := cached_lattice(amb)) is not None:
        return cached

    classes, index = conjugacy_classes(amb), class_index(amb)
    if _central_elementary_subgroups(g, classes) > g.node_cap:
        raise _node_cap_exceeded(g)
    rows: dict = {}  # the class rows of ``class_closure``
    principal = _principal_subgroups(amb, rows)

    up: dict[int, list[int]] = {}
    queue, seen = [1], {1}  # from the trivial subgroup
    for n in queue:  # the queue grows while it is walked: breadth first
        covers: list[int] = []  # the minimal products so far
        for x in principal.values():
            if not n >> index[x] & 1:  # else ncl(x) lies in N
                m = class_closure(amb, n, x, rows)
                if all(c & ~m for c in covers):
                    covers = [c for c in covers if m & ~c] + [m]
        up[n] = covers
        for m in covers:
            if m not in seen:
                if len(seen) >= g.node_cap:
                    raise _node_cap_exceeded(g)
                seen.add(m)
                queue.append(m)

    nodes = {n: Subgroup.of_classes(g, classes, n) for n in queue}
    queue.sort(key=lambda n: (nodes[n].order,
                              bin(n)[:1:-1].translate(_SWAP)))
    at = {n: i for i, n in enumerate(queue)}  # bitset -> node index
    return cached_lattice(amb, NormalLattice(amb, [nodes[n] for n in queue], [
        sorted(at[m] for m in up[n]) for n in queue]))


def _principal_subgroups(amb: Subgroup, rows: dict) -> dict[int, int]:
    """ncl(y) as a class bitset -> its first representative y, in class
    order, skipping each y certified as in ``normal_subgroups``.

    R_x[p] in a certificate is already read: closing x read R_x at every
    class of A, and P lies in A.  Each principal normal subgroup is a node,
    and so is the trivial subgroup; NodeCapExceeded is raised as soon as
    they pass the node cap.
    """
    g = amb.parent
    classes, index = conjugacy_classes(amb), class_index(amb)
    principal: dict[int, int] = {}  # ncl(y) -> its first representative y
    done: set[int] = set()  # classes of the y^k with the ncl of a y
    for y in [cls[0] for cls in classes[1:]]:
        if index[y] in done:
            continue
        powers = g.powers(y)  # up to y^o, the identity, whose id is 0
        o = len(powers)  # y^k generates <y> iff its order is o
        done.update(index[p] for p in powers if g.element_order(p) == o)
        ps = {index[p] for p in powers}
        mask = sum(1 << p for p in ps)
        if any(a >> index[y] & 1
               and any(class_row(amb, x, p, rows) & mask for p in ps)
               for a, x in principal.items()):
            continue  # certified: ncl(y) = ncl(x)
        if principal.setdefault(class_closure(amb, 1, y, rows), y) != y:
            del rows[y]  # a repeated principal normal subgroup
        elif len(principal) + 1 > g.node_cap:
            raise _node_cap_exceeded(g)
    return principal


def _node_cap_exceeded(g) -> NodeCapExceeded:
    return NodeCapExceeded(f"normal lattice exceeded node cap {g.node_cap}")


def _central_elementary_subgroups(g, classes: list[list[int]]) -> int:
    """The subgroups of the central z with z^p = 1, p prime: all are nodes.

    For each p dividing |Z| those z form C_p^r; counts for primes multiply.
    z^p = 1 iff p is a multiple of the order of z, and one power walk of
    ``element_order`` serves the whole cyclic subgroup it walks.
    """
    center = [c[0] for c in classes if len(c) == 1]
    primes = [p for p in range(2, len(center) + 1)
              if len(center) % p == 0 and all(p % d for d in range(2, p))]
    return prod(_elementary_subgroups(p, sum(
        p % g.element_order(z) == 0 for z in center)) for p in primes)


def _elementary_subgroups(p: int, c: int) -> int:
    """Subgroups of C_p^r, c = p^r, by Goldman and Rota's recurrence."""
    prev, cur, q = 0, 1, 1  # a_{i-1}, a_i, p^i
    while q < c:
        prev, cur, q = cur, 2 * cur + (q - 1) * prev, q * p
    return cur


def is_prime_power(n: int) -> bool:
    """True iff n is p^k for a prime p and k >= 1."""
    # n > 1 is a power of its least prime p iff n divides p^n
    return n > 1 and pow(next(d for d in range(2, n + 1) if n % d == 0),
                         n, n) == 0


def is_perfect(lat: NormalLattice, i: int) -> bool:
    """True iff node i, N, equals its derived subgroup [N, N].

    A lower cover K of N makes N/K a chief factor T^k, T simple, which is
    abelian iff |N:K| is a prime power (Burnside's p^a q^b theorem).  Such
    a K holds [N, N].  Conversely, [N, N] is characteristic in N, so it is
    a node; if it is below N, some lower cover K of N holds it and N/K is
    abelian.  So N is perfect iff no lower cover has prime-power index.
    """
    order = lat.nodes[i].order
    return not any(is_prime_power(order // lat.nodes[k].order)
                   for k in lat.down[i])


def is_chief_factor(ambient, k: Subgroup, l: Subgroup) -> bool:
    """True iff no normal subgroup of the ambient sits strictly between."""
    lat = normal_subgroups(ambient)
    ki, li = lat.index_of(k), lat.index_of(l)
    if li == ki or not lat.le(li, ki):
        raise NotNested("need L < K")
    return li in lat.down[ki]


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
    lat = normal_subgroups(ambient)
    top = len(lat) - 1  # nodes rise along the order
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
        for nxt in lat.up[last]:
            yield from walk(chain + [nxt])

    yield from walk([0])


def socle(ambient) -> Subgroup:
    """Join of the minimal normal subgroups (trivial when there are none)."""
    lat = normal_subgroups(ambient)
    return lat.nodes[lat.join(*lat.up[0])]


def is_monolithic(ambient) -> bool:
    """Exactly one minimal normal subgroup."""
    return len(normal_subgroups(ambient).up[0]) == 1


def jordan_holder_length(ambient) -> int:
    """Length of every chief series; raises unless the lattice is graded."""
    lat = normal_subgroups(ambient)
    rank = [0] * len(lat)  # 0 = unranked; covers() lists lower nodes first
    for i, j in lat.covers():
        if rank[j] not in (0, rank[i] + 1):
            raise InternalCheckError(f"normal lattice is not graded at n{j}")
        rank[j] = rank[i] + 1
    return rank[-1]
