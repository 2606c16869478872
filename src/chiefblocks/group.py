"""Finite groups with integer element ids.

Elements of a group of order n are the ids 0..n-1, with id 0 always the
identity.  Two elements of the same group are equal iff their ids are equal,
and ids are stable for the lifetime of the group.  Concrete constructions
(permutation closure, direct and semidirect products, quotients) are
subclasses that implement multiplication on ids; groups built from
permutations also expose the underlying permutation of each element.
Groups of order at most ``_MUL_TABLE_BOUND`` keep a dense Cayley table,
derived from one right-multiplication column per generator by a walk of the
Cayley graph that checks every edge, which is Light's exact associativity
test; ``verify_group_axioms`` checks it against the construction's product.
Loops that multiply many elements by one element s read its column
(``FiniteGroup.rcol``: x -> xs, ``lcol``: x -> sx), which each construction
builds from its factors' columns without a product per element.

A subgroup normal in an ambient is a union of the ambient's conjugacy
classes.  ``conjugacy_classes`` caches, beside the classes, the class index
of every ambient element (``class_index``).  ``class_closure`` grows the
normal closure of one element x as a union of classes, reading only the
column of x; ``factor_centralizer_members`` tests one element per class.

Groups and subgroups are not immutable.  ``is_normal_in`` records a verified
normality verdict in ``Subgroup.is_normal``, a subgroup's generators are
computed on first use, and every analysis memoizes its results (lattices,
classes, centers, factor groups, blocks, components) in the unbounded
``FiniteGroup._cache`` dict.  Share a group between threads only with outside
locking.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Iterable, Optional, Sequence

from . import perm as _perm
from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    CapExceeded,
    DifferentParents,
    HomomorphismError,
    InternalCheckError,
    NotNormal,
)

DEFAULT_ELEMENT_CAP = 30_000
DEFAULT_NODE_CAP = 10_000

# Groups up to this order keep a dense Cayley table of columns, built from one
# right-multiplication column per generator (``_cayley_table``), which checks
# associativity exhaustively as it builds; ``verify_group_axioms`` compares
# it with ``_mul_impl``.  Above it, products are computed per call from the
# construction data, or read from columns built from the factors' columns.
_MUL_TABLE_BOUND = 512

# Above the table bound, one column (``FiniteGroup.rcol``) costs as much as
# order/15 to order/6 products through ``_mul_impl`` (A5wrC2, S5xS5, S5wrC2).
# An element gets its column once it has order/64 products to make: most
# closures are either far smaller than that or a large share of the group,
# and on perfbench's nonabelian ops 64 gave the least products plus column
# entries, weighted by those costs, among powers of two from 4 to 1024.
_COLUMN_PAYOFF = 64


class FiniteGroup:
    """Base class for an explicitly enumerated finite group.

    ``node_cap`` bounds every normal lattice of the group and its subgroups.
    """

    node_cap = DEFAULT_NODE_CAP

    def __init__(self, name: str, order: int, generators: Sequence[int],
                 provenance: str):
        self.name = name
        self.order = order
        self.generators = [g for g in generators if g != 0]
        self.provenance = provenance
        self._inv: list[Optional[int]] = [None] * order
        self._inv[0] = 0
        self._elt_order: list[Optional[int]] = [None] * order
        self._elt_order[0] = 1
        self._cache: dict = {}
        self._table: Optional[list[list[int]]] = None
        if order <= _MUL_TABLE_BOUND:
            self._table = self._cayley_table()

    def _cayley_table(self) -> list[list[int]]:
        """Columns t[b][a] = ab, from each generator's ``_rcol_impl`` column.

        Column b is x -> xb.  ``extend_by_images`` walks the Cayley graph
        from the identity, whose column is x -> x, and on the edge p -> pg
        takes column pg to be column p followed by x -> xg, because
        x(pg) = (xp)g.  It checks every edge, so the table obeys
        t[pg][x] = t[p][x]g for all x, p and each generator g.  That is
        Light's test, and it is exact: induction along the walk gives
        (xy)z = x(yz) for every z.  A conflicting edge means the product is
        not associative; an element the walk misses means the generators do
        not generate.

        ``verify_group_axioms`` checks the identity and inverse laws and the
        table's agreement with ``_mul_impl``.
        """
        n = self.order
        gens = self.generators
        # Lists, so that the table shares their int objects.
        rmul = [list(self._rcol_impl(g)) for g in gens]
        cols = extend_by_images(self, gens, rmul,
                                lambda col, img: [img[x] for x in col],
                                list(range(n)), rmul)
        if cols is None:
            raise InternalCheckError(
                f"associativity of {self.name} fails (Light's test)")
        if None in cols:
            raise InternalCheckError(
                f"generators of {self.name} do not generate it")
        return cols

    # -- construction hooks --------------------------------------------------

    def _mul_impl(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _inv_impl(self, a: int) -> int:
        # Fallback: a^(k-1) where k is the order of a.
        x, last = a, 0
        while x != 0:
            last, x = x, self.mul(x, a)
        return last

    def _rcol_impl(self, s: int) -> array:
        # Fallback: one _mul_impl sweep.  Constructions with factors override
        # this with arithmetic on their factors' columns.
        mul = self._mul_impl
        return array("I", [mul(x, s) for x in range(self.order)])

    def _lcol_impl(self, s: int) -> array:
        mul = self._mul_impl
        return array("I", [mul(s, x) for x in range(self.order)])

    # -- core operations -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        t = self._table
        if t is not None:
            return t[b][a]
        return self._mul_impl(a, b)

    def rcol(self, s: int) -> Sequence[int]:
        """The column x -> xs, indexed by x over every element; read-only.

        A tabled group returns its table column.  An untabled group builds
        a fresh ``array('I')`` that lives as long as the caller keeps it.
        """
        t = self._table
        if t is not None:
            return t[s]
        return self._rcol_impl(s)

    def lcol(self, s: int) -> Sequence[int]:
        """The column x -> sx, indexed by x over every element."""
        t = self._table
        if t is not None:
            return [c[s] for c in t]
        return self._lcol_impl(s)

    def inv(self, a: int) -> int:
        r = self._inv[a]
        if r is None:
            r = self._inv_impl(a)
            self._inv[a] = r
        return r

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a b a^-1 b^-1."""
        return self.mul(self.mul(a, b), self.inv(self.mul(b, a)))

    def element_order(self, a: int) -> int:
        r = self._elt_order[a]
        if r is None:
            x, r = a, 1
            while x != 0:
                x = self.mul(x, a)
                r += 1
            self._elt_order[a] = r
        return r

    def elements(self) -> range:
        return range(self.order)

    # -- convenience ---------------------------------------------------------

    @property
    def is_abelian(self) -> bool:
        cached = self._cache.get("abelian")
        if cached is None:
            gens = self.generators
            cached = all(
                self.mul(a, b) == self.mul(b, a)
                for a in gens for b in gens
            )
            self._cache["abelian"] = cached
        return cached

    def whole(self) -> "Subgroup":
        s = self._cache.get("whole")
        if s is None:
            s = Subgroup(self, frozenset(range(self.order)),
                         self.generators or [0], True)
            self._cache["whole"] = s
        return s

    def trivial_subgroup(self) -> "Subgroup":
        s = self._cache.get("trivial")
        if s is None:
            s = Subgroup(self, frozenset((0,)), [], True)
            self._cache["trivial"] = s
        return s

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} order={self.order}>"


def ambient_subgroup(g) -> "Subgroup":
    """Coerce a FiniteGroup or Subgroup into a Subgroup context."""
    if isinstance(g, Subgroup):
        return g
    return g.whole()


class Subgroup:
    """A membership-queryable subset of a FiniteGroup closed under products.

    ``is_normal`` records verified normality in the *parent group* (None when
    unknown).  Closure under multiplication and inverses is the caller's
    responsibility; constructors in this module only hand out genuine
    subgroups.
    """

    __slots__ = ("parent", "members", "_gens", "is_normal", "_hash")

    def __init__(self, parent: FiniteGroup, members: frozenset,
                 gens: Sequence[int] | None = None,
                 is_normal: Optional[bool] = None):
        self.parent = parent
        self.members = members
        self._gens = tuple(gens) if gens is not None else None
        self.is_normal = is_normal
        self._hash = None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            self._gens = generating_ids(self.parent, self.members)
        return self._gens

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __le__(self, other: "Subgroup") -> bool:
        return self.members <= other.members

    def __lt__(self, other: "Subgroup") -> bool:
        return self.members < other.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.members == self.members)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.parent), self.members))
        return self._hash

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent.name}>"


def extend_by_images(src: FiniteGroup, gens: Sequence[int],
                     images: Sequence, compose, identity,
                     columns: Sequence | None = None) -> Optional[list]:
    """Extend gens -> images to a multiplicative table on <gens>, or None.

    Walks the Cayley graph of ``src`` breadth-first from the identity, which
    maps to ``identity``; the edge x -> x*g sends f(x) to
    ``compose(f(x), image of g)``.  Every edge is checked, and the first one
    whose end already carries a different value returns None.  A returned
    table therefore satisfies f(x*g) = f(x)*f(g) on all of <gens>; entries
    outside <gens> are None.  The target is anything ``compose`` combines:
    element ids under ``tgt.mul`` or automorphism tables under composition.

    The edges x -> x*g are read from ``columns`` (the right column of each
    generator) when given, else from the table or from columns that pay for
    themselves level by level (``_right_column``).
    """
    mapping: list = [None] * src.order
    mapping[0] = identity
    frontier = [0]
    if columns is None and src._table is not None:
        columns = [src._table[gen] for gen in gens]
    memo: dict = {}
    while frontier:
        cols = columns
        if cols is None:
            cols = [_right_column(src, gen, len(frontier), memo)
                    for gen in gens]
        pairs = list(zip(cols, images))
        nxt = []
        for x in frontier:
            fx = mapping[x]
            for col, img in pairs:
                y = col[x]
                fy = compose(fx, img)
                if mapping[y] is None:
                    mapping[y] = fy
                    nxt.append(y)
                elif mapping[y] != fy:
                    return None
        frontier = nxt
    return mapping


class Homomorphism:
    """A total id-to-id map between finite groups."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 mapping: Sequence[int], name: str = ""):
        if len(mapping) != source.order:
            raise HomomorphismError("mapping length differs from source order")
        self.source = source
        self.target = target
        self.mapping = list(mapping)
        self.name = name

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def validate(self) -> "Homomorphism":
        """Exhaustively verify the homomorphism property.

        The images of the source generators are extended along the Cayley
        graph by ``extend_by_images``; the map is a homomorphism iff that
        walk succeeds and reproduces the map.  This checks f(1) = 1 and
        f(x*g) = f(x)*f(g) for every x and generator g, which suffices by
        induction on word length.
        """
        src, f = self.source, self.mapping
        gens = src.generators
        if extend_by_images(src, gens, [f[g] for g in gens],
                            self.target.mul, 0) != f:
            raise HomomorphismError(
                "map does not extend its generator images multiplicatively")
        return self

    @property
    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order

    @property
    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.order

    def image(self) -> Subgroup:
        return Subgroup(self.target, frozenset(self.mapping),
                        _dedup_nonidentity(self.mapping[g]
                                           for g in self.source.generators))

    def kernel(self) -> Subgroup:
        members = frozenset(a for a, fa in enumerate(self.mapping) if fa == 0)
        return Subgroup(self.source, members, None, True)

    def preimage(self, members: frozenset) -> frozenset:
        return frozenset(a for a, fa in enumerate(self.mapping)
                         if fa in members)

    def __repr__(self):
        return (f"<Homomorphism {self.name or ''} {self.source.name}"
                f" -> {self.target.name}>")


def _dedup_nonidentity(ids) -> list[int]:
    seen, out = set(), []
    for i in ids:
        if i != 0 and i not in seen:
            seen.add(i)
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# concrete constructions
# ---------------------------------------------------------------------------

class PermGroup(FiniteGroup):
    """Group of permutations on n points, enumerated by breadth-first closure."""

    def __init__(self, perms: list, index: dict, n_points: int,
                 generators: Sequence[int], name: str):
        self.perms = perms
        self._index = index
        self.n_points = n_points
        super().__init__(name, len(perms), generators, "perm")

    def _mul_impl(self, a: int, b: int) -> int:
        return self._index[_perm.compose(self.perms[a], self.perms[b])]

    def _inv_impl(self, a: int) -> int:
        return self._index[_perm.invert(self.perms[a])]

    def permutation_of(self, a: int):
        return self.perms[a]


def group_from_permutations(generators: Iterable, n_points: int | None = None,
                            cap: int = DEFAULT_ELEMENT_CAP,
                            name: str = "perm") -> PermGroup:
    """Close a set of permutations under composition.

    The element table is discovered breadth-first from the identity, so ids
    are deterministic for a fixed generator list.  Raises CapExceeded when
    the closure grows past ``cap``.
    """
    if cap < 1:
        raise CapExceeded("cap must be at least 1")
    gen_perms = [tuple(int(x) for x in g) for g in generators]
    if n_points is None:
        n_points = max((len(g) for g in gen_perms), default=1)
    gen_perms = [_perm.check_perm(g, n_points) for g in gen_perms]

    ident = _perm.identity_perm(n_points)
    perms = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_perms:
                q = _perm.compose(p, g)
                if q not in index:
                    if len(perms) >= cap:
                        raise CapExceeded(
                            f"closure exceeded element cap {cap}")
                    index[q] = len(perms)
                    perms.append(q)
                    nxt.append(q)
        frontier = nxt
    gen_ids = _dedup_nonidentity(index[g] for g in gen_perms)
    return PermGroup(perms, index, n_points, gen_ids, name)


class DirectProductGroup(FiniteGroup):
    """Cartesian product with componentwise multiplication.

    Element (a, b) has id a*|H| + b; both coordinate embeddings are recorded
    as homomorphisms in ``embed_left`` / ``embed_right``.
    """

    def __init__(self, left: FiniteGroup, right: FiniteGroup,
                 cap: int = DEFAULT_ELEMENT_CAP, name: str | None = None):
        order = left.order * right.order
        if order > cap:
            raise CapExceeded(
                f"direct product order {order} exceeds cap {cap}")
        self.left = left
        self.right = right
        self._r = right.order
        gens = ([g * self._r for g in left.generators]
                + list(right.generators))
        super().__init__(name or f"{left.name}x{right.name}", order, gens,
                         "direct")
        self.embed_left = Homomorphism(
            left, self, [a * self._r for a in left.elements()], "embed_left")
        self.embed_right = Homomorphism(
            right, self, list(right.elements()), "embed_right")
        self.left_factor = self.embed_left.image()
        self.right_factor = self.embed_right.image()
        self.left_factor.is_normal = self.right_factor.is_normal = True

    def split(self, a: int) -> tuple:
        return divmod(a, self._r)

    def _mul_impl(self, a: int, b: int) -> int:
        r = self._r
        a1, a2 = divmod(a, r)
        b1, b2 = divmod(b, r)
        return self.left.mul(a1, b1) * r + self.right.mul(a2, b2)

    def _inv_impl(self, a: int) -> int:
        a1, a2 = divmod(a, self._r)
        return self.left.inv(a1) * self._r + self.right.inv(a2)

    def _rcol_impl(self, s: int) -> array:
        s1, s2 = divmod(s, self._r)
        return self._combine(self.left.rcol(s1), self.right.rcol(s2))

    def _lcol_impl(self, s: int) -> array:
        s1, s2 = divmod(s, self._r)
        return self._combine(self.left.lcol(s1), self.right.lcol(s2))

    def _combine(self, left: Sequence[int], right: Sequence[int]) -> array:
        # Element (a, b) has id a*r + b, so the column is left-major.
        r = self._r
        return array("I", [a + b for a in [a * r for a in left]
                           for b in right])


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   cap: int = DEFAULT_ELEMENT_CAP,
                   name: str | None = None) -> DirectProductGroup:
    return DirectProductGroup(g, h, cap, name)


class SemidirectProductGroup(FiniteGroup):
    """Split extension base x| top for an explicit automorphism action.

    ``gen_tables[i]`` is the image table of the automorphism by which
    ``top.generators[i]`` acts on the base.  Each must be a bijection that
    validates as a homomorphism of the base (else ActionNotAutomorphism).
    ``action[h]``, the table of every top element h, then comes from one
    ``extend_by_images`` walk of the Cayley graph of top under table
    composition; an edge on which two products disagree means the tables
    define no homomorphism top -> Aut(base) (ActionNotHomomorphism).
    """

    def __init__(self, base: FiniteGroup, top: FiniteGroup,
                 gen_tables: Sequence[Sequence[int]],
                 cap: int = DEFAULT_ELEMENT_CAP, name: str | None = None):
        order = base.order * top.order
        if order > cap:
            raise CapExceeded(
                f"semidirect product order {order} exceeds cap {cap}")
        if len(gen_tables) != len(top.generators):
            raise ActionNotHomomorphism(
                f"action needs {len(top.generators)} tables (one per top "
                f"generator), got {len(gen_tables)}")
        n = base.order
        for i, t in enumerate(gen_tables):
            if sorted(t) != list(range(n)):
                raise ActionNotAutomorphism(
                    f"table {i} is not a bijection of the base")
            try:
                Homomorphism(base, base, t).validate()
            except HomomorphismError:
                raise ActionNotAutomorphism(
                    f"table {i} is not multiplicative") from None
        action = extend_by_images(
            top, top.generators, gen_tables,
            lambda th, tg: [th[x] for x in tg], list(range(n)))
        if action is None:
            raise ActionNotHomomorphism(
                "generator tables do not define a homomorphism")
        self.base = base
        self.top = top
        self.action = action
        self._t = top.order
        gens = ([n * self._t for n in base.generators]
                + list(top.generators))
        super().__init__(name or f"{base.name}:{top.name}", order, gens,
                         "semidirect")
        self.embed_base = Homomorphism(
            base, self, [n * self._t for n in base.elements()], "embed_base")
        self.embed_top = Homomorphism(
            top, self, list(top.elements()), "embed_top")
        self.base_part = self.embed_base.image()
        self.base_part.is_normal = True
        self.top_part = self.embed_top.image()

    def split(self, a: int) -> tuple:
        return divmod(a, self._t)

    def _mul_impl(self, a: int, b: int) -> int:
        t = self._t
        n1, h1 = divmod(a, t)
        n2, h2 = divmod(b, t)
        return (self.base.mul(n1, self.action[h1][n2]) * t
                + self.top.mul(h1, h2))

    def _inv_impl(self, a: int) -> int:
        n, h = divmod(a, self._t)
        hi = self.top.inv(h)
        return self.action[hi][self.base.inv(n)] * self._t + hi

    def _rcol_impl(self, s: int) -> array:
        # (n1, h1)(n2, h2) = (n1 * action[h1][n2], h1 h2): for a fixed h1,
        # the base part is one base column and the top part one entry.
        t = self._t
        n2, h2 = divmod(s, t)
        top = self.top.rcol(h2)
        col = array("I", [0]) * self.order
        for h1 in range(t):
            th = top[h1]
            col[h1::t] = array("I", [
                b * t + th for b in self.base.rcol(self.action[h1][n2])])
        return col

    def _lcol_impl(self, s: int) -> array:
        # (n2, h2)(n1, h1) = (n2 * action[h2][n1], h2 h1): the base part
        # depends on n1 only and the top part on h1 only.
        t = self._t
        n2, h2 = divmod(s, t)
        base, top = self.base.lcol(n2), self.top.lcol(h2)
        return array("I", [b + h for b in [base[m] * t
                                           for m in self.action[h2]]
                           for h in top])


def semidirect_product(base: FiniteGroup, top: FiniteGroup,
                       gen_tables: Sequence[Sequence[int]],
                       cap: int = DEFAULT_ELEMENT_CAP,
                       name: str | None = None) -> SemidirectProductGroup:
    """base x| top with one action table per element of ``top.generators``."""
    return SemidirectProductGroup(base, top, gen_tables, cap, name)


class CosetGroup(FiniteGroup):
    """Quotient of a subgroup K of a parent group by a normal subgroup L <= K.

    Elements are cosets of L with representatives in K; coset 0 is L itself.
    Multiplication lifts to representatives and projects back.
    """

    def __init__(self, parent: FiniteGroup, k_members: frozenset,
                 l_sub: Subgroup, k_gens: Sequence[int], name: str):
        ordered = sorted(k_members)
        self.parent_group = parent
        reps: list[int] = []
        if len(k_members) == parent.order:
            coset_of: list | dict = [-1] * parent.order

            def assigned(x):
                return coset_of[x] >= 0
        else:
            coset_of = {}

            def assigned(x):
                return x in coset_of
        lmem = l_sub.members
        for m in ordered:
            if assigned(m):
                continue
            idx = len(reps)
            reps.append(m)
            for l in lmem:
                coset_of[parent.mul(m, l)] = idx
        self.reps = reps
        self.coset_of = coset_of
        gens = _dedup_nonidentity(coset_of[g] for g in k_gens)
        super().__init__(name, len(reps), gens, "quotient")

    def _mul_impl(self, a: int, b: int) -> int:
        p = self.parent_group
        return self.coset_of[p.mul(self.reps[a], self.reps[b])]

    def _inv_impl(self, a: int) -> int:
        return self.coset_of[self.parent_group.inv(self.reps[a])]


def quotient(g: FiniteGroup, n: Subgroup) -> tuple:
    """Quotient of g by a normal subgroup; returns (group, projection)."""
    if n.parent is not g:
        raise DifferentParents("kernel lives in a different group")
    if not is_normal_in(n, g.whole()):
        raise NotNormal("quotient kernel is not normal")
    q = CosetGroup(g, frozenset(range(g.order)), n, g.generators or [0],
                   f"{g.name}/{n.order}")
    proj = Homomorphism(g, q, q.coset_of, "projection")
    return q, proj


def subgroup_as_group(s: Subgroup) -> tuple:
    """Materialize a subgroup as its own FiniteGroup.

    Returns (group, embedding) where the embedding maps the new ids back into
    the parent group.
    """
    key = ("as_group", s.members)
    cached = s.parent._cache.get(key)
    if cached is None:
        grp = CosetGroup(s.parent, s.members, s.parent.trivial_subgroup(),
                         s.gens, f"{s.parent.name}|{s.order}")
        embed = Homomorphism(grp, s.parent, grp.reps, "embed")
        cached = (grp, embed)
        s.parent._cache[key] = cached
    return cached


# ---------------------------------------------------------------------------
# closures and subgroup operations
# ---------------------------------------------------------------------------

def _pays(g: FiniteGroup, count: int) -> bool:
    """Whether ``count`` products by one element pay for its column."""
    return count * _COLUMN_PAYOFF >= g.order


class _Products:
    """x -> xs through ``_mul_impl``, indexed like the column of s."""

    __slots__ = ("_mul", "_s")

    def __init__(self, g: FiniteGroup, s: int):
        self._mul, self._s = g._mul_impl, s

    def __getitem__(self, x: int) -> int:
        return self._mul(x, self._s)


def _right_column(g: FiniteGroup, s: int, count: int, memo: dict):
    """The column x -> xs for ``count`` more products by s, or ``_Products``.

    ``memo[s]`` holds the products s has made so far, and its column once
    they pay for it; a tabled group's column is free.  Sharing ``memo``
    between calls lets a multiplier's small batches add up to a column.
    """
    done = memo.get(s, 0)
    if isinstance(done, int):
        done += count
        if g._table is None and not _pays(g, done):
            memo[s] = done
            return _Products(g, s)
        done = memo[s] = g.rcol(s)
    return done


def close_under_mul(g: FiniteGroup, seed: Iterable[int],
                    known: frozenset | None = None,
                    known_gens: Sequence[int] = (),
                    memo: dict | None = None) -> frozenset:
    """Smallest subgroup containing ``known`` (already closed) and ``seed``.

    Standard breadth-first closure; elements already in ``known`` are only
    multiplied by the new generators, which keeps repeated extension calls
    near-linear in the final order.  Incremental calls that extend one
    closure share ``memo``, the multipliers' columns (``_right_column``).
    """
    new_gens = _dedup_nonidentity(seed)
    if known is None:
        known = frozenset((0,))
        known_gens = ()
    if not new_gens:
        return known
    if memo is None:
        memo = {}
    result = set(known)
    every_gen = [*known_gens, *new_gens]
    frontier, gens = list(known), new_gens
    # A table column is free: skip the memo, which a cyclic closure would
    # consult once per element, since its levels hold one element each.
    table = g._table
    while frontier:
        nxt = []
        for s in gens:
            col = (table[s] if table is not None
                   else _right_column(g, s, len(frontier), memo))
            for x in frontier:
                y = col[x]
                if y not in result:
                    result.add(y)
                    nxt.append(y)
        frontier, gens = nxt, every_gen
    return frozenset(result)


def subgroup_generated(g: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing the seed ids."""
    seed = list(seed)
    members = close_under_mul(g, seed)
    return Subgroup(g, members, _dedup_nonidentity(seed))


def generating_ids(g: FiniteGroup, members: frozenset) -> tuple:
    """A small generating list for a known subgroup, chosen greedily."""
    gens: list[int] = []
    closed = frozenset((0,))
    memo: dict = {}
    for m in sorted(members):
        if m not in closed:
            closed = close_under_mul(g, [m], closed, gens, memo)
            gens.append(m)
            if len(closed) == len(members):
                break
    return tuple(gens)


def normal_closure(ambient, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the seed that is normal in the ambient.

    The ambient may be a FiniteGroup or a Subgroup.  Generator conjugates are
    folded in until the closure is conjugation-stable; each fold at least
    doubles the subgroup, so few passes are needed.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    gens = _dedup_nonidentity(seed)
    memo: dict = {}
    members = close_under_mul(g, gens, memo=memo)
    amb_gens = amb.gens
    i = 0
    while i < len(gens):
        s = gens[i]
        i += 1
        for h in amb_gens:
            c = g.conj(h, s)
            if c not in members:
                members = close_under_mul(g, [c], members, gens, memo)
                gens.append(c)
    return Subgroup(g, members, gens,
                    True if len(amb.members) == g.order else None)


def is_normal_in(s: Subgroup, ambient) -> bool:
    amb = ambient_subgroup(ambient)
    g = s.parent
    if amb.parent is not g:
        raise DifferentParents("subgroup and ambient have different parents")
    whole = len(amb.members) == g.order
    if whole and s.is_normal is not None:
        return s.is_normal
    if not s.members <= amb.members:
        return False
    ok = all(g.conj(h, x) in s.members
             for h in amb.gens for x in s.gens)
    if whole and ok:
        s.is_normal = True
    return ok


def centralizer_subgroup(g_or_ambient, s: Iterable[int]) -> Subgroup:
    """Elements of the ambient commuting with every element of s.

    It suffices to test commutation against a generating set of <s>, because
    the centralizer of a set equals the centralizer of the subgroup it
    generates.  x commutes with t iff ``rcol(t)[x] == lcol(t)[x]``; the
    columns are built while enough candidates remain to pay for them.
    """
    amb = ambient_subgroup(g_or_ambient)
    g = amb.parent
    members = _iter_ambient(amb)
    for t in _dedup_nonidentity(s):
        if _pays(g, len(members)):
            rc, lc = g.rcol(t), g.lcol(t)
            members = [x for x in members if rc[x] == lc[x]]
        else:
            members = [x for x in members if g.mul(x, t) == g.mul(t, x)]
    return Subgroup(g, frozenset(members))


def center(ambient) -> Subgroup:
    """Z of a FiniteGroup or a Subgroup, computed inside it and cached."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("center", amb.members)
    z = g._cache.get(key)
    if z is None:
        z = centralizer_subgroup(amb, amb.gens)
        if len(amb.members) == g.order:
            z.is_normal = True
        g._cache[key] = z
    return z


def _iter_ambient(amb: Subgroup):
    if len(amb.members) == amb.parent.order:
        return amb.parent.elements()
    return sorted(amb.members)


def factor_centralizer_members(ambient, k_gens: Sequence[int],
                               l_members: frozenset) -> frozenset:
    """C(K/L) = {g in ambient : [g, k] in L for all k in K}.

    K and L must be normal in the ambient.  Then C(K/L) is normal too: if
    [g, k] is in L for every k in K, then [g^h, k] = [g, k^(h^-1)]^h is in
    L^h = L, because k^(h^-1) ranges over K^(h^-1) = K.  So C(K/L) is a
    union of the ambient's conjugacy classes, and one element per class
    decides the whole class.  Testing generators of K only is enough: for
    fixed g the set {k in K : [g,k] in L} is a subgroup of K whenever L is
    normal, so if it contains a generating set it is all of K.
    """
    g = ambient_subgroup(ambient).parent
    return frozenset(x for cls in conjugacy_classes(ambient)
                     if all(g.comm(cls[0], k) in l_members for k in k_gens)
                     for x in cls)


def product_of_subgroups(a: Subgroup, b: Subgroup) -> frozenset:
    """Element set of the product AB for subgroups with AB = BA.

    The result is accumulated as a union of right cosets Bx of the larger
    factor B, so the cost is one multiplication per product element, read
    from the column of x when that pays.
    """
    if a.parent is not b.parent:
        raise DifferentParents("factors live in different groups")
    g = a.parent
    if a.order < b.order:
        small, big = a, b
    else:
        small, big = b, a
        # AB = BA is assumed, so accumulating cosets of the big side from the
        # small side is still the same element set.
    bigm = big.members
    if small.members <= bigm:
        return bigm
    result = set(bigm)
    for x in sorted(small.members):
        if x not in result:
            col = _right_column(g, x, len(bigm), {})
            result.update(col[m] for m in bigm)
    return frozenset(result)


def conjugate_members(g: FiniteGroup, x: int, members: Iterable[int]) -> frozenset:
    xi = g.inv(x)
    return frozenset(g.mul(g.mul(x, m), xi) for m in members)


def conjugacy_classes(ambient) -> list[list[int]]:
    """Orbits of the conjugation action of the ambient on itself.

    Conjugation by each ambient generator h is the column
    ``rcol(h^-1)`` after ``lcol(h)`` when the ambient is large enough to pay
    for it.  Classes are returned sorted by least member, so the identity's
    singleton class always comes first.  The class index of every element
    (``class_index``) is cached with them.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("classes", amb.members)
    cached = g._cache.get(key)
    if cached is not None:
        return cached
    pays = _pays(g, len(amb.members))
    conj = []
    for h in amb.gens:
        hi = g.inv(h)
        if pays:
            rc = g.rcol(hi)
            conj.append(array("I", [rc[y] for y in g.lcol(h)]).__getitem__)
        else:
            conj.append(lambda x, h=h, hi=hi: g.mul(g.mul(h, x), hi))
    seen = set()
    classes = []
    for start in _iter_ambient(amb):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for f in conj:
                    y = f(x)
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        classes.append(sorted(orbit))
    classes.sort(key=lambda c: c[0])
    index: list[int] | dict[int, int] = (
        [0] * g.order if len(amb.members) == g.order else {})
    for i, cls in enumerate(classes):
        for x in cls:
            index[x] = i
    g._cache[key] = classes
    g._cache[("class_index", amb.members)] = index
    return classes


def class_index(ambient) -> Sequence[int] | dict[int, int]:
    """x -> i with x in ``conjugacy_classes(ambient)[i]``, for x in the ambient.

    A list over every element when the ambient is the whole group, else a
    dict over the ambient's members; cached with the classes.
    """
    amb = ambient_subgroup(ambient)
    key = ("class_index", amb.members)
    cached = amb.parent._cache.get(key)
    if cached is None:
        conjugacy_classes(amb)
        cached = amb.parent._cache[key]
    return cached


def class_closure(ambient, x: int) -> frozenset:
    """Members of ncl(x), the normal closure of one element of the ambient.

    Grown from the identity as a union of conjugacy classes: each new
    element d adds the whole class of dx.  The result S is a union of
    classes with 1 in S and Sx in S, so S x^h = (Sx)^h lies in S for every
    conjugate x^h, and S contains ncl(x); every class added lies in ncl(x).
    The walk makes one product by x per member, read from the column of x.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    classes, index = conjugacy_classes(amb), class_index(amb)
    members = {0}
    frontier = [0]
    # A table column is free; a cyclic closure has one element per level.
    table, memo = g._table, {}
    while frontier:
        col = (table[x] if table is not None
               else _right_column(g, x, len(frontier), memo))
        nxt: list[int] = []
        for d in frontier:
            y = col[d]
            if y not in members:
                cls = classes[index[y]]
                members.update(cls)
                nxt.extend(cls)
        frontier = nxt
    return frozenset(members)


def commutator_subgroup(g: FiniteGroup, a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [x, y], x in A, y in B.

    [A, B] is normal in <A, B> and is the normal closure there of the
    commutators of generators of A with generators of B.
    """
    if a.parent is not g or b.parent is not g:
        raise DifferentParents("operands live in different groups")
    span = Subgroup(g, close_under_mul(g, list(a.gens) + list(b.gens)),
                    list(a.gens) + list(b.gens))
    seed = sorted({g.comm(x, y) for x in a.gens for y in b.gens})
    return Subgroup(g, normal_closure(span, seed).members)


def derived_subgroup(ambient) -> Subgroup:
    """[G, G] of a FiniteGroup or a Subgroup, cached."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("derived", amb.members)
    d = g._cache.get(key)
    if d is None:
        d = commutator_subgroup(g, amb, amb)
        if len(amb.members) == g.order:
            d.is_normal = True
        g._cache[key] = d
    return d


def is_perfect(ambient) -> bool:
    amb = ambient_subgroup(ambient)
    return derived_subgroup(amb).order == amb.order


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------

_ASSOC_SAMPLES = 2000


def verify_group_axioms(g: FiniteGroup, rng) -> None:
    """Check identity, inverses and associativity of the multiplication.

    Identity and inverse laws are checked exhaustively.  A tabled group
    (order <= ``_MUL_TABLE_BOUND``) passed Light's exact associativity test
    when its table was built (``FiniteGroup._cayley_table``).  The table
    must also agree with ``_mul_impl``: on every pair up to order 89,
    where the n^2 pairs cost no more calls than the sample, and above that
    on the four products (a, b), (b, c), (ab, c), (a, bc) of each of 2,000
    triples drawn from ``rng``.  An untabled group is checked for
    associativity on 2,000 triples drawn from ``rng`` (a full triple sweep
    is cubic in the order), and the columns ``rcol(s)`` and ``lcol(s)`` of
    each generator s must agree with ``_mul_impl`` at the first element of
    every triple, which ties the columns to the construction.
    """
    for a in g.elements():
        if g.mul(a, 0) != a or g.mul(0, a) != a:
            raise InternalCheckError(f"identity law fails at {a}")
        ia = g.inv(a)
        if g.mul(a, ia) != 0 or g.mul(ia, a) != 0:
            raise InternalCheckError(f"inverse law fails at {a}")
    n, t = g.order, g._table
    triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
               for _ in range(_ASSOC_SAMPLES))
    mul = g._mul_impl
    if t is None:
        triples = list(triples)
        for a, b, c in triples:
            if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                raise InternalCheckError(
                    f"associativity fails at ({a}, {b}, {c})")
        for s in g.generators:
            rc, lc = g.rcol(s), g.lcol(s)
            for a, _, _ in triples:
                if rc[a] != mul(a, s) or lc[a] != mul(s, a):
                    raise InternalCheckError(
                        f"column of {s} differs from the construction "
                        f"at {a}")
        return
    if n * n <= 4 * _ASSOC_SAMPLES:  # order <= 89
        pairs = itertools.product(range(n), repeat=2)
    else:
        pairs = ((x, y) for a, b, c in triples
                 for x, y in ((a, b), (b, c), (t[b][a], c),
                              (a, t[c][b])))
    for a, b in pairs:
        if t[b][a] != mul(a, b):
            raise InternalCheckError(
                f"Cayley table differs from the construction at ({a}, {b})")
