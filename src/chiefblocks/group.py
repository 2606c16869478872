"""Finite groups with integer element ids.

Elements of a group of order n are the ids 0..n-1, with id 0 always the
identity.  Two elements of the same group are equal iff their ids are equal,
and ids are stable for the lifetime of the group.  Concrete constructions
(permutation closure, direct and semidirect products, quotients) are
subclasses that implement multiplication on ids; groups built from
permutations also expose the underlying permutation of each element.
``verify_group_axioms`` checks each construction's laws exactly from its
construction data: a permutation group from its base index and its
generators' columns, a quotient from its parent, its cosets and its
kernel's normality, and an exact direct or semidirect product from its
factors.
Loops that multiply many elements by one element s read its right column
(``FiniteGroup.rcol``: x -> xs), which a group keeps, up to
``_COLUMN_BUDGET`` entries; ``mul`` reads a kept column, else the
construction's product.  A permutation group looks each entry up by the
images of its base, and a semidirect product asks its base for each slice
already mapped to its own ids (``_rcol_affine``), which a direct product
builds from its factors' columns in one assembly.  Breadth-first walks
read each multiplier's column once.  A quotient K/L maps the parent's
elements to cosets with one list over the parent, -1 outside K, each coset
walked from its least member along the columns of L's generators.
Conjugation reads one right column and the inverse list
(``FiniteGroup.inverses``).  ``Homomorphism.validate`` checks a map on the
columns of the source generators and of their images.

A subgroup normal in an ambient is a union of the ambient's conjugacy
classes.  ``conjugacy_classes`` caches, beside the classes, the class index
of every ambient element (``class_index``).  An exact product takes its
classes from its factors, as its columns: a direct product's are the
products of its factors' classes, a semidirect product fuses its base's
classes under the top's action and walks only the elements outside the
base, and a factor image takes its factor's.  ``class_closure`` takes a
normal subgroup N, as a bitset over the classes, to N*ncl(x); the normal
lattice and ``normal_closure`` are built with it.  It reads the class row
of x, whose entry i (the classes that C_i*x meets) ``class_row`` fills on
first use: over a non-abelian exact direct product from its factors'
rows, over the base of a non-abelian semidirect product by fusing its
base's rows, and elsewhere from the column of x.  The center is the
union of the one-element classes, and ``factor_centralizer_members`` tests
one element per class.

Normality is never stored: ``is_normal_in`` decides it on each call, by
generators when the subgroup carries them, else as a union of the ambient's
classes.  Groups and subgroups are not immutable: a subgroup's generators
are computed on first use, as are the members of one made from an
ambient's classes (``Subgroup.of_classes``: lattice nodes, normal
closures and the whole group), and every analysis memoizes its results
(lattices, classes, factor groups, blocks, components) in the unbounded
``FiniteGroup._cache`` dict.  Share a group between threads only with outside
locking.
"""

from __future__ import annotations

import itertools
from array import array
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import perm as _perm
from .errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    CapExceeded,
    DifferentParents,
    HomomorphismError,
    InternalCheckError,
    NotNested,
    NotNormal,
)

DEFAULT_ELEMENT_CAP = 30_000
DEFAULT_NODE_CAP = 10_000

# Each group keeps the right columns that ``rcol`` builds, up to this many
# entries in all (512 columns of a group of order 512); past it, a column is
# built again on each call.
_COLUMN_BUDGET = 512 * 512

# A permutation closure stores at most this many entries (elements x
# points), whatever the element cap; D512, on 256 points, stores 131,072.
PERM_ENTRY_BUDGET = 2 ** 24


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
        self._inv: Optional[list[int]] = None
        self._elt_order: list[Optional[int]] = [None] * order
        self._elt_order[0] = 1
        self._cache: dict = {}
        self._cols: dict[int, Sequence[int]] = {}

    # -- construction hooks --------------------------------------------------

    def _mul_impl(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _inv_impl(self, a: int) -> int:
        raise NotImplementedError

    def _inverses_impl(self) -> list[int]:
        # Fallback: one _inv_impl per element.  Products override this with
        # their factors' inverse lists.
        return [self._inv_impl(a) for a in range(self.order)]

    def _rcol_impl(self, s: int) -> array:
        # A quotient's: one _mul_impl sweep.  A permutation group looks
        # its columns up by base, a product assembles its factors' columns.
        mul = self._mul_impl
        return array("I", [mul(x, s) for x in range(self.order)])

    def _rcol_affine(self, s: int, k: int, c: int) -> list[int]:
        # The column of s mapped x -> x*k + c, as a product that embeds
        # this group with ids scaled by k and offset by c reads it.  An
        # exact direct product overrides this with its factors' columns.
        return [x * k + c for x in self.rcol(s)]

    # -- core operations -----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        col = self._cols.get(b)
        if col is not None:
            return col[a]
        return self._mul_impl(a, b)

    def rcol(self, s: int) -> Sequence[int]:
        """The column x -> xs, indexed by x over every element; read-only.
        Kept while the group's columns fit in ``_COLUMN_BUDGET`` entries."""
        col = self._cols.get(s)
        if col is None:
            col = self._rcol_impl(s)
            if (len(self._cols) + 1) * self.order <= _COLUMN_BUDGET:
                self._cols[s] = col
        return col

    def inverses(self) -> list[int]:
        """x -> x^-1 over every element, filled on first use; read-only."""
        if self._inv is None:
            self._inv = self._inverses_impl()
        return self._inv

    def inv(self, a: int) -> int:
        return self.inverses()[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a b a^-1 b^-1."""
        return self.mul(self.mul(a, b), self.inv(self.mul(b, a)))

    def powers(self, a: int) -> list[int]:
        """a, a^2, ..., a^o = 1, o the order of a.  The walk records the
        order o/gcd(k, o) of every power a^k it passes, so one walk serves
        ``element_order`` on the whole cyclic subgroup <a>."""
        powers = [a]
        while powers[-1] != 0:
            powers.append(self.mul(powers[-1], a))
        r = len(powers)
        for k, x in enumerate(powers, 1):
            self._elt_order[x] = r // gcd(k, r)
        return powers

    def element_order(self, a: int) -> int:
        """The order of a, recorded by the first ``powers`` walk past it."""
        r = self._elt_order[a]
        return len(self.powers(a)) if r is None else r

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
        """The group as a subgroup of itself, cached.  Its ``members`` are
        filled from ``range(order)`` only when first read."""
        s = self._cache.get("whole")
        if s is None:
            s = self._cache["whole"] = Subgroup.of_classes(
                self, (range(self.order),), 1, self.generators or [0])
        return s

    def trivial_subgroup(self) -> "Subgroup":
        s = self._cache.get("trivial")
        if s is None:
            s = Subgroup(self, frozenset((0,)), [])
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

    A subgroup is its parent, its members, its order and, when given or
    first asked for, its generators; it records nothing else, normality
    included (``is_normal_in`` decides it each time).  Lattice nodes,
    normal closures and the whole group are unions of an ambient's
    classes (``of_classes``), whose ``members`` slot ``__getattr__`` fills
    on first read; ``ids`` walks their classes instead.  Closure under
    multiplication and inverses is the caller's responsibility;
    constructors in this module only hand out genuine subgroups.
    """

    __slots__ = ("parent", "members", "order", "_gens", "_classes", "_bits")

    def __init__(self, parent: FiniteGroup, members: frozenset,
                 gens: Sequence[int] | None = None):
        self.parent = parent
        self.members = members
        self.order = len(members)
        self._gens = tuple(gens) if gens is not None else None
        self._classes = None

    @classmethod
    def of_classes(cls, parent: FiniteGroup, classes: Sequence, bits: int,
                   gens: Sequence[int] | None = None) -> "Subgroup":
        """The union of the classes whose bits are set in ``bits``; its
        ``members`` stay empty until first read."""
        s = cls.__new__(cls)
        s.parent, s._classes, s._bits = parent, classes, bits
        s.order = sum(map(len, _selected(classes, bits)))
        s._gens = tuple(gens) if gens is not None else None
        return s

    def __getattr__(self, name: str):
        # Reached only while the ``members`` slot of an ``of_classes``
        # subgroup is empty: fill it once.
        if name != "members":
            raise AttributeError(name)
        self.members = members = frozenset(self.ids())
        return members

    def ids(self) -> Iterable[int]:
        """The members, class by class for an ``of_classes`` subgroup,
        whose ``members`` this leaves as it is."""
        if self._classes is None:
            return self.members
        return itertools.chain.from_iterable(
            _selected(self._classes, self._bits))

    @property
    def gens(self) -> tuple:
        if self._gens is None:
            self._gens = generating_ids(self.parent, self.members)
        return self._gens

    @property
    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def __contains__(self, a: int) -> bool:
        return a in (range(self.order) if self.is_whole else self.members)

    def __le__(self, other: "Subgroup") -> bool:
        return other.is_whole or (self.order <= other.order
                                  and self.members <= other.members)

    def __lt__(self, other: "Subgroup") -> bool:
        return self.order < other.order and self <= other

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if (not isinstance(other, Subgroup) or other.parent is not self.parent
                or other.order != self.order):
            return False
        if self._classes is not None and other._classes is self._classes:
            return other._bits == self._bits
        return self.is_whole or other.members == self.members

    def __hash__(self):  # a frozenset keeps its own hash
        return hash((id(self.parent), subgroup_key(self)))

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.ids()))

    def __repr__(self):
        return f"<Subgroup order={self.order} of {self.parent.name}>"


def subgroup_key(s: Subgroup):
    """A cache key for s within its parent: None for the whole group, whose
    members it does not fill, else the members."""
    return None if s.is_whole else s.members


# The bytes of a binary numeral mapped to 0 and 1 (``_selected``).
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _selected(classes: Sequence, bits: int) -> Iterator:
    """The classes whose bits are set, lowest first.  Byte i of the reversed
    binary numeral selects class i, so no Python step runs per bit."""
    return itertools.compress(
        classes, bin(bits)[:1:-1].encode().translate(_BIT_BYTES))


def extend_by_images(src: FiniteGroup, gens: Sequence[int],
                     images: Sequence, compose, identity) -> Optional[list]:
    """Extend gens -> images to a multiplicative table on <gens>, or None.

    Walks the Cayley graph of ``src`` breadth-first from the identity, which
    maps to ``identity``; the edge x -> x*g sends f(x) to
    ``compose(f(x), image of g)``.  Every edge is checked, and the first one
    whose end already carries a different value returns None.  A returned
    table therefore satisfies f(x*g) = f(x)*f(g) on all of <gens>; entries
    outside <gens> are None.  The target is anything ``compose`` combines:
    element ids under ``tgt.mul`` or automorphism tables under composition.
    The edges x -> x*g are read from ``src.rcol``.
    """
    mapping: list = [None] * src.order
    mapping[0] = identity
    frontier = [0]
    pairs = list(zip(map(src.rcol, gens), images))
    while frontier:
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
        """Exhaustively verify the homomorphism property, by columns.

        It checks f(1) = 1 and, for each source generator g, that f maps the
        column x -> xg of g onto the column of f(g) in the target:
        f(xg) = f(x)f(g) for every x.  Precondition: the source generators
        generate the source, as they do for every construction here.  Then
        every element is a word w in the generators (a finite group needs no
        inverses), and f(xw) = f(x)f(w) for all x follows by induction on
        the length of w: f(1) = 1 gives the empty word, and
        f(xwg) = f(xw)f(g) = f(x)f(w)f(g) = f(x)f(wg).  So f is a
        homomorphism iff both checks pass.
        """
        src, tgt, f = self.source, self.target, self.mapping
        if f[0] != 0 or min(f) < 0 or max(f) >= tgt.order:
            raise HomomorphismError("map must send 1 to 1 inside the target")
        for g in src.generators:
            c = tgt.rcol(f[g])
            if [f[y] for y in src.rcol(g)] != [c[fx] for fx in f]:
                raise HomomorphismError(
                    f"map is not multiplicative on generator {g}")
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
        return Subgroup(self.source, members)

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
    """Group of permutations on n points, enumerated by breadth-first closure.

    Element a is ``perms[a]``, and ab applies b first.  The images of the
    ``base`` points tell the elements apart, and ``_index`` maps them to
    ids, so a product, an inverse or a column entry costs the base's length,
    not the degree (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
    """

    def __init__(self, perms: list, n_points: int,
                 generators: Sequence[int], name: str):
        self.perms = perms
        self.n_points = n_points
        self.base = _splitting_points(perms, n_points)
        key = _point_images(self.base)
        self._index = {key(p): i for i, p in enumerate(perms)}
        super().__init__(name, len(perms), generators, "perm")

    def _mul_impl(self, a: int, b: int) -> int:
        # P(a)P(b) sends base point j to P(a)[P(b)[j]].
        pb = self.perms[b]
        return self._index[_point_images([pb[j] for j in self.base])(
            self.perms[a])]

    def _inv_impl(self, a: int) -> int:
        # Keyed by the base points' preimages, the identity's images of them.
        pa = self.perms[a]
        return self._index[_point_images([pa.index(j) for j in self.base])(
            self.perms[0])]

    def _rcol_impl(self, s: int) -> array:
        ps = self.perms[s]
        key = _point_images([ps[j] for j in self.base])
        return array("I", map(self._index.__getitem__, map(key, self.perms)))

    def permutation_of(self, a: int):
        return self.perms[a]


def _point_images(points: Sequence[int]):
    """p -> its images of ``points`` (an int for one): a base index key."""
    return itemgetter(*points) if points else lambda p: ()


def _splitting_points(perms: Sequence[tuple], n_points: int) -> list[int]:
    """The points, in rising order, whose images tell more of ``perms``
    apart than those of the points taken before them, until all are."""
    points, keys, parts = [], [0] * len(perms), 0
    for j in range(n_points):
        if parts == len(perms):
            break
        split = [k * n_points + p[j] for k, p in zip(keys, perms)]
        count = len(set(split))
        if count > parts:
            points.append(j)
            keys, parts = split, count
    return points


def perm_closure_limit(n_points: int, cap: int) -> tuple[int, str]:
    """Most elements a closure on ``n_points`` may store; its refusal."""
    fits = PERM_ENTRY_BUDGET // max(n_points, 1)
    if cap <= fits:
        return cap, f"closure exceeded element cap {cap}"
    return fits, (f"closure of {n_points}-point permutations exceeded "
                  f"{PERM_ENTRY_BUDGET} stored entries")


def group_from_permutations(generators: Iterable, n_points: int | None = None,
                            cap: int = DEFAULT_ELEMENT_CAP,
                            name: str = "perm") -> PermGroup:
    """Close a set of permutations under composition.

    The element table is discovered breadth-first from the identity, so ids
    are deterministic for a fixed generator list.  Raises CapExceeded before
    the closure stores more than ``perm_closure_limit`` elements.
    """
    gen_perms = [tuple(int(x) for x in g) for g in generators]
    if n_points is None:
        n_points = max((len(g) for g in gen_perms), default=1)
    gen_perms = [_perm.check_perm(g, n_points) for g in gen_perms]
    limit, refusal = perm_closure_limit(n_points, cap)
    if limit < 1:
        raise CapExceeded(refusal)

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
                    if len(perms) >= limit:
                        raise CapExceeded(refusal)
                    index[q] = len(perms)
                    perms.append(q)
                    nxt.append(q)
        frontier = nxt
    gen_ids = _dedup_nonidentity(index[g] for g in gen_perms)
    return PermGroup(perms, n_points, gen_ids, name)


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

    def split(self, a: int) -> tuple:
        return divmod(a, self._r)

    def _mul_impl(self, a: int, b: int) -> int:
        r = self._r
        a1, a2 = divmod(a, r)
        b1, b2 = divmod(b, r)
        return self.left.mul(a1, b1) * r + self.right.mul(a2, b2)

    def _inverses_impl(self) -> list[int]:
        # (a, b)^-1 = (a^-1, b^-1), left-major like the ids.
        r = self._r
        right = self.right.inverses()
        return [a + b for a in [a * r for a in self.left.inverses()]
                for b in right]

    def _rcol_impl(self, s: int) -> array:
        # Element (a, b) has id a*r + b, so the column is left-major: the
        # left factor's column scaled by r, then one assembly.
        r = self._r
        s1, s2 = divmod(s, r)
        right = self.right.rcol(s2)
        return array("I", [a + b for a in self.left._rcol_affine(s1, r, 0)
                           for b in right])

    def _rcol_affine(self, s: int, k: int, c: int) -> list[int]:
        # (a*r + b)*k + c = a*(r*k) + (b*k + c): the two factor columns are
        # scaled first, |L| + |R| ints, and assembled once.  A subclass may
        # build its columns its own way.
        if type(self) is not DirectProductGroup:
            return super()._rcol_affine(s, k, c)
        r = self._r
        s1, s2 = divmod(s, r)
        right = self.right._rcol_affine(s2, k, c)
        return [a + b for a in self.left._rcol_affine(s1, r * k, 0)
                for b in right]


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
        self.top_part = self.embed_top.image()

    def split(self, a: int) -> tuple:
        return divmod(a, self._t)

    def _mul_impl(self, a: int, b: int) -> int:
        t = self._t
        n1, h1 = divmod(a, t)
        n2, h2 = divmod(b, t)
        return (self.base.mul(n1, self.action[h1][n2]) * t
                + self.top.mul(h1, h2))

    def _inverses_impl(self) -> list[int]:
        # (n, h)^-1 = (action[h^-1][n^-1], h^-1): for a fixed h, the ids
        # n*t + h form one slice, read from the base's inverse list.
        t, base_inv = self._t, self.base.inverses()
        inv = [0] * self.order
        for h, hi in enumerate(self.top.inverses()):
            act = self.action[hi]
            inv[h::t] = [act[n] * t + hi for n in base_inv]
        return inv

    def _rcol_impl(self, s: int) -> array:
        # (n1, h1)(n2, h2) = (n1 * action[h1][n2], h1 h2): for a fixed h1,
        # the ids n1*t + h1 go to one base column mapped b -> b*t + th,
        # th the top entry, which the base builds from its own factors
        # (``_rcol_affine``).
        t = self._t
        n2, h2 = divmod(s, t)
        top, affine = self.top.rcol(h2), self.base._rcol_affine
        col = array("I", [0]) * self.order
        for h1 in range(t):
            col[h1::t] = array("I", affine(self.action[h1][n2], t, top[h1]))
        return col


def semidirect_product(base: FiniteGroup, top: FiniteGroup,
                       gen_tables: Sequence[Sequence[int]],
                       cap: int = DEFAULT_ELEMENT_CAP,
                       name: str | None = None) -> SemidirectProductGroup:
    """base x| top with one action table per element of ``top.generators``."""
    return SemidirectProductGroup(base, top, gen_tables, cap, name)


class CosetGroup(FiniteGroup):
    """Quotient of a subgroup K of a parent group by a normal subgroup L <= K.

    Elements are cosets of L (``kernel``) with representatives ``reps`` in
    K, each the least member of its coset; coset 0 is L itself.
    ``coset_of`` is one list over the parent, -1 outside K.  A finite group
    needs no inverses, so the coset m*L of each new representative m is
    m*<gens of L>, walked from m along the parent's columns of L's
    generators.  Multiplication lifts to representatives and projects back.
    """

    def __init__(self, parent: FiniteGroup, k_members: frozenset,
                 l_sub: Subgroup, k_gens: Sequence[int], name: str):
        cols = [parent.rcol(l) for l in l_sub.gens]
        coset_of = [-1] * parent.order
        reps: list[int] = []
        for m in sorted(k_members):
            if coset_of[m] < 0:
                coset_of[m] = c = len(reps)
                reps.append(m)
                coset = [m]
                for x in coset:  # the coset grows while it is walked
                    for col in cols:
                        if coset_of[y := col[x]] < 0:
                            coset_of[y] = c
                            coset.append(y)
        self.parent_group = parent
        self.reps = reps
        self.coset_of = coset_of
        self.kernel = l_sub
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

def close_under_mul(g: FiniteGroup, seed: Iterable[int],
                    known: frozenset | None = None,
                    known_gens: Sequence[int] = (),
                    memo: dict | None = None) -> frozenset:
    """Smallest subgroup containing ``known`` (already closed) and ``seed``.

    Standard breadth-first closure; elements already in ``known`` are only
    multiplied by the new generators, which keeps repeated extension calls
    near-linear in the final order.  Each multiplier's column is read once
    into ``memo``, which incremental calls that extend one closure share.
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
    while frontier:
        nxt = []
        for s in gens:
            col = memo.get(s)
            if col is None:
                col = memo[s] = g.rcol(s)
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

    The ambient may be a FiniteGroup or a Subgroup.  From the identity's
    class, each seed element x outside the closure so far takes its class
    bitset N to N*ncl(x) (``class_closure``), which the result keeps
    (``Subgroup.of_classes``).  A seed element outside the ambient raises
    NotNested.
    """
    amb = ambient_subgroup(ambient)
    seed = list(seed)
    if not all(map(amb.__contains__, seed)):
        raise NotNested("normal closure needs a seed inside the ambient")
    classes, index, _ = _class_space(amb)
    s, rows = 1, {}
    for x in seed:
        if not s >> index[x] & 1:
            s = class_closure(amb, s, x, rows)
    return Subgroup.of_classes(amb.parent, classes, s)


def is_normal_in(s: Subgroup, ambient) -> bool:
    """Whether s is normal in the ambient, decided exactly on each call.

    A subgroup that carries generators is tested by conjugating each of
    them by each ambient generator: s is normal iff every conjugate lies
    in s.  A subgroup given by its members only, as lattice nodes and
    kernels are, is normal iff it is a union of the ambient's conjugacy
    classes: the classes whose least member lies in s must have |s|
    members in all and each lie in s.  That reads the ambient's cached
    classes and asks for no generating set.  Neither argument is written.
    """
    amb = ambient_subgroup(ambient)
    g = s.parent
    if amb.parent is not g:
        raise DifferentParents("subgroup and ambient have different parents")
    if not s <= amb:
        return False
    if s._gens is not None:
        return all(g.conj(h, x) in s for h in amb.gens for x in s._gens)
    members = s.members
    inside = [c for c in conjugacy_classes(amb) if c[0] in members]
    return (sum(map(len, inside)) == s.order
            and all(map(members.issuperset, inside)))


def centralizer_subgroup(g_or_ambient, s: Iterable[int]) -> Subgroup:
    """Elements of the ambient commuting with every element of s.

    It suffices to test commutation against a generating set of <s>, because
    the centralizer of a set equals the centralizer of the subgroup it
    generates.  x commutes with t iff conjugation by t^-1 fixes x, and with
    r the right column of t that conjugation is x -> r[inv[r[inv[x]]]]
    (``conjugacy_classes``): two products by t per candidate.
    """
    amb = ambient_subgroup(g_or_ambient)
    g = amb.parent
    inv = g.inverses()
    members = _iter_ambient(amb)
    for t in _dedup_nonidentity(s):
        r = g.rcol(t)
        members = [x for x in members if r[inv[r[inv[x]]]] == x]
    return Subgroup(g, frozenset(members))


def center(ambient) -> Subgroup:
    """Z of a FiniteGroup or a Subgroup: its one-element conjugacy classes."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    return Subgroup(g, frozenset(c[0] for c in conjugacy_classes(amb)
                                 if len(c) == 1))


def _iter_ambient(amb: Subgroup):
    if amb.is_whole:
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


def conjugate_members(g: FiniteGroup, x: int, members: Iterable[int]) -> frozenset:
    """x m x^-1 for each m: r[inv[r[inv[m]]]], r the column of x^-1
    (``conjugacy_classes``)."""
    inv = g.inverses()
    r = g.rcol(inv[x])
    return frozenset(r[inv[r[inv[m]]]] for m in members)


def conjugacy_classes(ambient) -> list[list[int]]:
    """Orbits of the conjugation action of the ambient on itself.

    Classes are returned sorted, and sorted by least member, so the
    identity's singleton class always comes first.  An exact direct or
    semidirect product (the class itself, not a subclass) takes its classes
    from its factors', asked for recursively and cached on none of them:

    - Direct product L x R, the whole group.  (x, y) conjugates (a, b) to
      (a^x, b^y), so the class of (a, b) is A x B, A and B the factors'
      classes of a and b.  Ids are left-major, (a, b) = a*|R| + b, so
      {a*|R| + b : a in A, b in B} listed a-major is sorted when A and B
      are, its least member is min A * |R| + min B, and the class pairs in
      lexicographic order come in least-member order.  The class index of
      (a, b) is i_L(a) * (number of R's classes) + i_R(b), the index
      arithmetic by which ``class_row`` reads the product's class rows
      from its factors' rows.
    - Semidirect product N x| H, the whole group, (n, h) with id
      n*|H| + h and phi the action.  N is normal, so N and its complement
      are unions of classes.  (m, k) conjugates (n, 1) to
      (m phi_k(n) m^-1, 1), so the class of n is the union over k in H of
      the N-classes of phi_k(n).  Each phi_k is an automorphism of N and
      permutes N's classes, so these unions are the orbits of H on N's
      classes, found by applying the top generators' tables to one
      representative per class: the orbits of a finite group are those of
      its generators.  Only the classes outside N are walked, from
      elements outside N.  The ids n*|H| rise with n, so a union of
      classes of N stays sorted once merged.  The orbits and each N-class's
      class in the product are cached with the classes, and ``class_row``
      fuses N's rows through them.
    - A recorded factor image (``left_factor``, ``right_factor``,
      ``base_part``, ``top_part``) as the ambient, equal to it as a set.
      Its embedding is an isomorphism from the factor onto it, so its
      classes are the images of the factor's classes.  The embedding maps
      x to x*k, k = |R| for the left factor, |H| for the base and 1 for the
      others, which is increasing, so sorted classes in least-member order
      map to sorted classes in least-member order.

    Every other ambient (a permutation group, a quotient, a subclass,
    any other subgroup) is walked: conjugation by an ambient generator h
    is x -> r[inv[r[inv[x]]]], with r the right column of h^-1 and inv
    the inverse list: r[x^-1] is x^-1 h^-1 = (hx)^-1, so the inner lookups
    give hx and the outer ones hxh^-1.  A walk from rising starts finds
    each class from its least member.
    """
    return _class_space(ambient)[0]


def class_index(ambient) -> Sequence[int] | dict[int, int]:
    """x -> i with x in ``conjugacy_classes(ambient)[i]``, for x in the ambient.

    A list over every element when the ambient is the whole group, else a
    dict over the ambient's members; cached with the classes.
    """
    return _class_space(ambient)[1]


def _class_space(ambient) -> tuple:
    """The ambient's classes, class index and, for the whole of a
    semidirect product, the fusion of its base's classes (else None),
    cached as one entry."""
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("classes", subgroup_key(amb))
    cached = g._cache.get(key)
    if cached is None:
        if amb.is_whole:
            cached = _group_classes(g)
        else:
            classes = _factor_image_classes(amb) or _conjugation_orbits(
                g, amb.gens, sorted(amb.members))
            cached = classes, {x: i for i, cls in enumerate(classes)
                               for x in cls}, None
        g._cache[key] = cached
    return cached


def _group_classes(g: FiniteGroup, k: int = 1) -> tuple:
    """The classes of the whole of g, members scaled x -> x*k, uncached.

    Beside them come the class index list over g's own ids and, for a
    semidirect product, the fusion of its base's classes that ``class_row``
    reads (else None).  A product asks each factor for its classes at the
    scale of the factor's ids in the product, so each member is made once,
    at its final value.  Nothing is cached on g or its factors.
    """
    if type(g) is DirectProductGroup:
        return _direct_classes(g, k)
    if type(g) is SemidirectProductGroup:
        return _semidirect_classes(g, k)
    classes = _conjugation_orbits(g, g.generators, g.elements())
    index = [0] * g.order
    for i, cls in enumerate(classes):
        for x in cls:
            index[x] = i
    if k != 1:
        classes = [[x * k for x in cls] for cls in classes]
    return classes, index, None


def _direct_classes(g: DirectProductGroup, k: int) -> tuple:
    # (a, b) has id a*r + b, scaled a*(r*k) + b*k: class pair (i, j) is
    # {a + b} over the scaled factor classes, sorted as they are, and its
    # least member rises with (i, j).
    r = g._r
    rcls, ridx, _ = _group_classes(g.right, k)
    lcls, lidx = (([[x * r for x in cls] for cls in rcls], ridx)
                  if g.left is g.right else _group_classes(g.left, r * k)[:2])
    m = len(rcls)
    return ([[a + b for a in lc for b in rc] for lc in lcls for rc in rcls],
            [i + j for i in [i * m for i in lidx] for j in ridx], None)


def _semidirect_classes(g: SemidirectProductGroup, k: int) -> tuple:
    # The base's classes, scaled to the ids n*t, fused by the top
    # generators' tables; then the orbits walked from the elements outside
    # the base; the two merged by least member.  The fusion is returned
    # too: for each class of g the base classes in it (None outside the
    # base), and for each base class its class in g.
    t = g._t
    ncls, nidx, _ = _group_classes(g.base, t * k)
    tables = [g.action[h] for h in g.top.generators]
    fused = [-1] * len(ncls)  # base class -> its orbit
    orbits: list[list[int]] = []
    for j in range(len(ncls)):  # rising, so an orbit's first class is least
        if fused[j] < 0:
            fused[j] = len(orbits)
            orbit = [j]
            for i in orbit:  # the orbit grows while it is walked
                x = ncls[i][0] // (t * k)
                for table in tables:
                    if fused[c := nidx[table[x]]] < 0:
                        fused[c] = fused[j]
                        orbit.append(c)
            orbits.append(orbit)
    outer = _conjugation_orbits(g, g.generators, itertools.chain.from_iterable(
        range(h, g.order, t) for h in range(1, t)))
    classes = [sorted([x for i in orbit for x in ncls[i]]) for orbit in orbits]
    classes += [[x * k for x in cls] for cls in outer] if k != 1 else outer
    order = sorted(range(len(classes)), key=lambda i: classes[i][0])
    at = [0] * len(classes)
    for p, i in enumerate(order):
        at[i] = p
    fuse = [at[o] for o in fused]  # base class -> its class in g
    index = [0] * g.order
    index[::t] = [fuse[j] for j in nidx]
    for i, cls in enumerate(outer, len(orbits)):
        for x in cls:
            index[x] = at[i]
    inside = [orbits[i] if i < len(orbits) else None for i in order]
    return [classes[i] for i in order], index, (inside, fuse)


def _factor_image_classes(amb: Subgroup) -> Optional[list[list[int]]]:
    """The classes of a recorded factor image, from the factor; else None.

    An exact product's ``left_factor``, ``right_factor``, ``base_part``
    and ``top_part`` are the images of its factors under the embeddings
    x -> x*k: k is the order of the right factor or of the top for the
    left factor or the base, else 1.
    """
    g = amb.parent
    if type(g) is DirectProductGroup:
        parts = ((g.left_factor, g.left, g._r), (g.right_factor, g.right, 1))
    elif type(g) is SemidirectProductGroup:
        parts = ((g.base_part, g.base, g._t), (g.top_part, g.top, 1))
    else:
        return None
    for part, factor, k in parts:
        if amb == part:
            return _group_classes(factor, k)[0]
    return None


def _conjugation_orbits(g: FiniteGroup, gens: Sequence[int],
                        starts: Iterable[int]) -> list[list[int]]:
    """The orbits under conjugation by gens that meet the starts, sorted.

    They come in the order of their first start, which for rising starts
    is least-member order: a start not yet seen is the least of its orbit.
    """
    inv = g.inverses()
    cols = [g.rcol(inv[h]) for h in gens]
    seen = bytearray(g.order)
    classes = []
    for start in starts:
        if not seen[start]:
            orbit = [start]
            seen[start] = 1
            for x in orbit:  # the orbit grows while it is walked
                xi = inv[x]
                for r in cols:
                    if not seen[y := r[inv[r[xi]]]]:
                        seen[y] = 1
                        orbit.append(y)
            classes.append(sorted(orbit))
    return classes


def class_closure(amb: Subgroup, s: int, x: int, rows: dict) -> int:
    """The class bitset of N*ncl(x), for N normal in ``amb`` with bitset s.

    Bit i is ``conjugacy_classes(amb)[i]``.  The class row R_x maps i to
    the classes that C_i*x meets, each entry filled when first needed
    (``class_row``), from the column of x or, over an exact product, from
    its factors' rows; ``rows`` keeps R_x, the column and the factors' rows
    for calls on amb.  A union of classes S with S*x in S has S*x^h = (S*x)^h
    in S for every h; N*ncl(x) is such an S, and every such S holding N
    holds N*ncl(x), so that is the closure of N's classes under
    i -> R_x[i].
    """
    if x not in rows:
        class_row(amb, x, 0, rows)  # makes R_x; every N holds the class 0
    row = rows[x][0]
    fresh = s
    while fresh:
        reach = 0
        while fresh:
            low = fresh & -fresh
            i = low.bit_length() - 1
            reach |= row[i] or class_row(amb, x, i, rows)
            fresh ^= low
        fresh = reach & ~s
        s |= fresh
    return s


def class_row(amb: Subgroup, x: int, i: int, rows: dict) -> int:
    """R_x[i], the bitset of the classes that C_i*x meets, filled on first use.

    ``rows`` maps x to [R_x, the column of x or None, the spreads of R_x]
    (0 marks an entry not yet read; a filled entry is never 0), and each
    factor of an exact product, below the ambient, to the same kind of
    dict for the factor's own rows.  An entry is read from the column of x,
    {index[col[c]] : c in C_i}, except over the whole of a non-abelian
    exact product, where it comes from the factors' rows:

    - Direct product A x B, x = (x1, x2) and m the number of classes of B.
      Class (i1, i2) = C1_i1 x C2_i2 has index i1*m + i2, and its product
      with x is (C1_i1 x1) x (C2_i2 x2), which meets exactly the classes
      (p, q) with p in R1_x1[i1] and q in R2_x2[i2].  So R_x[i] is the
      union over p in R1_x1[i1] of R2_x2[i2] << p*m.  As q < m, these
      blocks never overlap, and the union is the integer product of
      R2_x2[i2] with the spread of R1_x1[i1], the sum of 2^(p*m) over its
      bits, made once and kept with the left factor's row.  The factors'
      rows follow the same rules, so every entry is read this way and the
      product builds no column of its own.
    - Semidirect product N x| H, x = (n, 1) in the base and C_i inside it.
      C_i is the union of the N-classes C_j, j in the orbit of H that
      ``_semidirect_classes`` fused into C_i, and (c, 1)(n, 1) = (cn, 1)
      lies in the class that fuses the N-class of cn.  So R_x[i] is the
      union over j in the orbit of the fused classes of R^N_n[j].  An entry
      with x or C_i outside the base reads the column of x.  Once that
      column is built, a base entry reads it too where its |C_i| lookups
      are no more than the sum of min(|C_j|, k_N) over the orbit, k_N the
      number of N's classes, which bounds the base rows' steps; that is,
      where every C_j of the orbit has at most k_N members.  No column is
      built for an entry that the base rows can fill.

    An abelian product reads columns throughout: each entry is one product
    either way, and a column serves the whole row.
    """
    g = amb.parent
    if amb.is_whole and _from_factors(g):
        return _group_row(g, x, i, rows)
    entry = rows.get(x)
    if entry is None:
        entry = rows[x] = [[0] * len(conjugacy_classes(amb)), None, None]
    row = entry[0]
    if not row[i]:
        row[i] = _column_entry(g, amb, entry, x, i)
    return row[i]


_PRODUCTS = (DirectProductGroup, SemidirectProductGroup)


def _group_row(g: FiniteGroup, x: int, i: int, rows: dict) -> int:
    # ``class_row`` over the whole of g, which may be a factor of the
    # ambient: no subgroup of g is made, nor, for a direct product, a class
    # list.
    entry = rows.get(x)
    if entry is None:
        entry = rows[x] = [[0] * len(_class_sizes(g)), None, None]
    row = entry[0]
    if not row[i]:
        row[i] = ((_from_factors(g) and _factor_entry(g, entry, x, i, rows))
                  or _column_entry(g, g, entry, x, i))
    return row[i]


def _column_entry(g: FiniteGroup, amb, entry: list, x: int, i: int) -> int:
    # {index[col[c]] : c in C_i} over amb, g or a subgroup of it; the
    # column of x is built on the row's first read of it.
    col = entry[1]
    if col is None:
        col = entry[1] = g.rcol(x)
    classes, index, _ = _class_space(amb)
    return sum({1 << index[col[c]] for c in classes[i]})


def _factor_entry(g: FiniteGroup, entry: list, x: int, i: int,
                  rows: dict) -> int:
    # R_x[i] from the factors' rows, or 0 where the column is read (see
    # ``class_row``).
    if type(g) is DirectProductGroup:
        m = len(_class_sizes(g.right))
        i1, i2 = divmod(i, m)
        x1, x2 = divmod(x, g._r)
        lrows = _factor_rows(g.left, rows)
        left = lrows.get(x1)
        s = left[2][i1] if left and left[2] else 0
        if not s:
            a = _group_row(g.left, x1, i1, lrows)
            left = lrows[x1]
            if left[2] is None:
                left[2] = [0] * len(left[0])
            while a:
                low = a & -a
                s |= 1 << (low.bit_length() - 1) * m
                a ^= low
            left[2][i1] = s
        return _group_row(g.right, x2, i2, _factor_rows(g.right, rows)) * s
    if x % g._t:  # semidirect, x outside the base
        return 0
    classes, _, (inside, fuse) = _class_space(g)
    orbit = inside[i]
    if orbit is None:
        return 0
    if entry[1] is not None:
        nsizes = _class_sizes(g.base)
        k = len(nsizes)
        if len(classes[i]) <= sum(min(nsizes[j], k) for j in orbit):
            return 0
    n, nrows, v = x // g._t, _factor_rows(g.base, rows), 0
    for j in orbit:
        b = _group_row(g.base, n, j, nrows)
        while b:
            low = b & -b
            v |= 1 << fuse[low.bit_length() - 1]
            b ^= low
    return v


def _from_factors(g: FiniteGroup) -> bool:
    """Whether g is an exact product that is not abelian, whose class rows
    ``class_row`` reads from its factors' rows."""
    return type(g) in _PRODUCTS and not g.is_abelian


def _factor_rows(h: FiniteGroup, rows: dict) -> dict:
    f = rows.get(h)
    if f is None:
        f = rows[h] = {}
    return f


def _class_sizes(g: FiniteGroup) -> list[int]:
    """The sizes of g's classes, in class order; a direct product's from its
    factors' sizes, with no class list made for it."""
    sizes = g._cache.get("class_sizes")
    if sizes is None:
        if type(g) is DirectProductGroup:
            sizes = [a * b for a in _class_sizes(g.left)
                     for b in _class_sizes(g.right)]
        else:
            sizes = [len(cls) for cls in conjugacy_classes(g)]
        g._cache["class_sizes"] = sizes
    return sizes


def commutator_subgroup(g: FiniteGroup, a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by all commutators [x, y], x in A, y in B.

    [A, B] is normal in <A, B> and is the normal closure there of the
    commutators of generators of A with generators of B.  When B lies in
    A, as for the derived subgroup, <A, B> is A and needs no closure.
    """
    if a.parent is not g or b.parent is not g:
        raise DifferentParents("operands live in different groups")
    span = (a if b <= a
            else subgroup_generated(g, [*a.gens, *b.gens]))
    seed = sorted({g.comm(x, y) for x in a.gens for y in b.gens})
    return normal_closure(span, seed)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------

def verify_group_axioms(g: FiniteGroup) -> None:
    """Check that the product of g is a group law, from its construction.

    Each construction is checked from the data it was built from, and no
    law is sampled.  A group met twice, as A5 in A5 x A5, is checked once.
    The class of g, and of every group the check recurses into, must be
    exactly one of the four below; any other class, a subclass too, raises
    ``InternalCheckError``.

    - ``PermGroup``: write P(a) for ``perms[a]`` and key(p) for the images
      under p of the ``base`` points.  ``perms[0]`` must be the identity on
      ``n_points`` points, each permutation must have that many entries, and
      ``_index`` must hold n keys, ``_index[key(P(i))] == i`` for every i.
      Each generator s must be a bijection whose column ``rcol(s)``, looked
      up by key(P(x)P(s)), agrees with composition: P(rcol(s)[x]) = P(x)P(s)
      for every x.  A walk from the identity over those columns must reach
      every id.  So the P(i) are the group of bijections that the generators
      generate, and ``_mul_impl`` and ``_rcol_impl`` look P(a)P(b) up by its
      key: the product is composition, a group law with identity 0.
    - ``CosetGroup`` K/L, K the ids that ``coset_of`` maps and L its
      ``kernel``: the parent is checked first, recursively, so its product
      is a group law.  ``coset_of`` is one list over the parent, -1
      outside K, which construction swept along the columns of L's
      generators.  Then ``reps[0]`` must be 0, ``coset_of[reps[i]]`` must
      be i for every i, K must have n*|L| elements, and the coset id must
      be the same at x and x*l for every parent element x and every
      generator l of L.  So each id holds whole cosets of L, and
      id i holds exactly reps[i]*L.  Write R for the representatives of the
      generators of K/L.  Each r in R must conjugate each generator of L
      into L, so rL = Lr.  The parent's column of each r must send every
      representative into K, so K*r lies in K; and a walk from id 0 over
      these columns must reach every id, so each reps[i] lies in <R>L.
      So K = <R>L is a subgroup with L normal in it.  The product of
      cosets (xL)(yL) = xyL is then the group K/L with identity L, and
      ``_mul_impl(a, b)``, the coset of reps[a]*reps[b], computes it.
    - An exact ``DirectProductGroup`` or ``SemidirectProductGroup``: each
      distinct factor is checked first, recursively.  Write (n, h) for the
      element n*|top| + h of base x| top; a direct product is the case of
      the trivial action, with left and right for base and top.
      ``_mul_impl`` is (n1, h1)(n2, h2) = (n1 phi_h1(n2), h1 h2), computed
      with the factors' ``mul``, which are group laws with identity 0 once
      the factors pass.  phi is the action: construction validated each
      generator's table as a bijective homomorphism of the base
      (``Homomorphism.validate``), and the walk of the top's Cayley graph
      that filled ``action`` checked phi_hg = phi_h phi_g on every edge,
      so phi is a homomorphism top -> Aut(base).  So ``_mul_impl`` is the
      textbook semidirect product, a group with identity (0, 0) = 0.
      ``_rcol_impl(s)`` evaluates the same formula on the factors'
      columns, which agree with their products by these arguments, or,
      for a quotient, by sweeping ``_mul_impl``; an exact direct
      product's ``_rcol_affine`` is its column mapped x -> x*k + c.

    ``mul`` and ``rcol`` read only columns that ``_rcol_impl`` built.  Last,
    the inverse list that conjugation reads must equal a fresh one from the
    construction (``_inverses_impl``), exact once the checks above pass: the
    preimages of the base points under P(a), the coset of reps[a]^-1 from
    the parent's checked list, or (n, h)^-1 = (phi_h^-1(n^-1), h^-1) from
    the factors' checked lists.
    """
    seen: set = set()

    def verify(g: FiniteGroup) -> None:
        if g in seen:
            return
        seen.add(g)
        kind = type(g)
        if kind is DirectProductGroup or kind is SemidirectProductGroup:
            for f in ((g.left, g.right) if kind is DirectProductGroup
                      else (g.base, g.top)):
                verify(f)
        elif kind is PermGroup:
            _check_perm_index(g)
        elif kind is CosetGroup:
            verify(g.parent_group)
            _check_cosets(g)
        else:
            raise InternalCheckError(
                f"no exact group-law check for {kind.__name__} {g.name}")
        inv, fresh = g._inv, g._inverses_impl()
        if inv is None:  # unfilled: the fresh list becomes the list
            g._inv = fresh
        elif inv != fresh:
            a = next(a for a, (x, y) in enumerate(zip(inv, fresh)) if x != y)
            raise InternalCheckError(f"inverse law fails at {a}")

    verify(g)


def _check_perm_index(g: PermGroup) -> None:
    perms, index, m = g.perms, g._index, g.n_points
    if (len(index) != g.order or perms[0] != _perm.identity_perm(m)
            or any(len(p) != m for p in perms)
            or list(map(index.get, map(_point_images(g.base), perms)))
            != list(range(g.order))):
        raise InternalCheckError(
            f"permutations and base index of {g.name} are not inverse "
            f"bijections from the identity")
    for s in g.generators:
        ps = perms[s]
        # ps moves a point, so itemgetter(*ps) gives each P(x)P(s) as a
        # tuple; a product whose base images key no element raises.
        try:
            ok = sorted(ps) == list(range(m)) and (
                list(map(perms.__getitem__, g.rcol(s)))
                == list(map(itemgetter(*ps), perms)))
        except KeyError:
            ok = False
        if not ok:
            raise InternalCheckError(
                f"base lookups of {g.name} disagree with composition by "
                f"generator {s}")
    if len(close_under_mul(g, g.generators)) != g.order:
        raise InternalCheckError(f"generators of {g.name} do not generate it")


def _check_cosets(q: CosetGroup) -> None:
    p, reps, kernel = q.parent_group, q.reps, q.kernel
    ids = q.coset_of  # the coset id of every parent element, -1 outside K
    if (reps[0] != 0 or [ids[r] for r in reps] != list(range(q.order))
            or p.order - ids.count(-1) != q.order * kernel.order
            or any([ids[y] for y in col] != ids
                   for col in map(p.rcol, kernel.gens))):
        raise InternalCheckError(
            f"coset map of {q.name} does not split K into cosets of its "
            f"kernel")
    if any(p.conj(reps[c], l) not in kernel.members
           for c in q.generators for l in kernel.gens):
        raise InternalCheckError(f"kernel of {q.name} is not normal in K")
    cols = {c: [ids[y] for y in map(p.rcol(reps[c]).__getitem__, reps)]
            for c in q.generators}
    if any(-1 in col for col in cols.values()) or len(
            close_under_mul(q, q.generators, memo=cols)) != q.order:
        raise InternalCheckError(
            f"generators of {q.name} do not generate K over its kernel")
