"""Extension of chief blocks from a normal subgroup H to the whole group.

A block b of G extends a block a of H when a normal subgroup K of G covers b
exactly if K meet H covers a.  Extensions are unique when they exist, always
exist for minimally covered blocks of normal subgroups, and are governed by
the conjugation action of G on the blocks of H through the stacking
preorder, whose classes are antichain orbits: a finite group has no proper
stacking.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .blocks import (
    BlockPoset,
    ChiefBlock,
    chief_blocks,
    covers,
    lowermost_representative,
    minimal_cover,
)
from .errors import (
    DifferentParents,
    InternalCheckError,
    NotNested,
    NotNormal,
    NotSurjective,
)
from .factors import (
    NormalFactor,
    factor_centralizer,
    factor_group,
    is_abelian_factor,
)
from .group import (
    Homomorphism,
    Subgroup,
    ambient_subgroup,
    conjugate_members,
    group_from_permutations,
    is_normal_in,
)
from .lattice import normal_subgroups
from .products import classify_factorization


def _require_normal_sub(amb: Subgroup, h: Subgroup) -> None:
    if h.parent is not amb.parent:
        raise DifferentParents("subgroup belongs to a different group")
    if not is_normal_in(h, amb):
        raise NotNormal("block extension needs a normal subgroup")


def block_action(ambient, h: Subgroup, elem: int,
                 a: ChiefBlock) -> ChiefBlock:
    """g.a: the block of H whose representatives are the conjugates of a's.

    The ambient may be the whole group or any subgroup normalizing H, and
    g must lie in it.  Computed by conjugating the stored centralizer, since
    blocks of H are keyed by centralizers; a representative is conjugated
    alongside as a consistency check.
    """
    amb = ambient_subgroup(ambient)
    _require_normal_sub(amb, h)
    if elem not in amb:
        raise NotNested("the acting element must lie in the ambient")
    g = amb.parent
    bp = chief_blocks(h)
    image_c = conjugate_members(g, elem, a.centralizer.members)
    out = bp.by_centralizer(image_c)
    rep = a.representatives[0]
    conj_factor = NormalFactor(
        h,
        Subgroup(g, conjugate_members(g, elem, rep.k.members)),
        Subgroup(g, conjugate_members(g, elem, rep.l.members)))
    if factor_centralizer(conj_factor).members != image_c:
        raise InternalCheckError(
            "conjugated representative disagrees with conjugated centralizer")
    return out


def extend_block(ambient, h: Subgroup, a: ChiefBlock) -> ChiefBlock:
    """The unique block of the ambient extending a minimally covered block.

    M, the ambient normal closure of the minimal cover of a in H, is the
    least node of the ambient's lattice holding it.  N is M met with the
    core of the centralizer of a in H, which is the join of the nodes inside
    it.  M/N is the lowermost representative of the extension.  The defining
    covers-iff property is then verified over the whole normal lattice of
    the ambient; InternalCheckError is raised if it does not hold.
    """
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    lat.index_of(h)  # raises unless H is a node
    if a.ambient != h:
        raise DifferentParents("block does not belong to the given subgroup")
    h_a, c = minimal_cover(h, a), a.centralizer
    m = lat.meet(*(i for i, k in enumerate(lat.nodes) if h_a <= k))
    core = lat.join(*(i for i, k in enumerate(lat.nodes) if k <= c))
    n = lat.meet(m, core)
    if n not in lat.down[m]:
        raise InternalCheckError("extension factor is not chief")
    factor = NormalFactor(amb, lat.nodes[m], lat.nodes[n])
    if is_abelian_factor(factor):
        raise InternalCheckError("extension factor came out abelian")
    out = chief_blocks(amb).by_centralizer(
        factor_centralizer(factor).members)
    if lowermost_representative(amb, out) != factor:
        raise InternalCheckError(
            "extension factor is not the lowermost representative")
    if not _is_extension_checked(amb, h, a, out):
        raise InternalCheckError("covers-iff verification failed")
    return out


def _conjugate_orbit(amb: Subgroup, members: frozenset) -> list[frozenset]:
    """All ambient conjugates of a subgroup's member set."""
    g = amb.parent
    seen = {members}
    frontier = [members]
    while frontier:
        nxt = []
        for cur in frontier:
            for x in amb.gens:
                img = conjugate_members(g, x, cur)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(seen, key=sorted)


def _is_extension_checked(amb: Subgroup, h: Subgroup, a: ChiefBlock,
                          b: ChiefBlock) -> bool:
    """K covers b exactly when K meet H covers a, for every node K."""
    g = amb.parent
    return all(covers(k, b) == covers(Subgroup(g, k.members & h.members), a)
               for k in normal_subgroups(amb).nodes)


def is_extension(ambient, h: Subgroup, a: ChiefBlock,
                 b: ChiefBlock) -> bool:
    """Definitional check of the covers-iff property over the ambient lattice.

    H may be any subgroup here: the check only intersects lattice nodes with
    it.  Also asserts uniqueness: at most one block may pass for a fixed a.
    """
    amb = ambient_subgroup(ambient)
    if h.parent is not amb.parent:
        raise DifferentParents("subgroup belongs to a different group")
    passing = [c for c in chief_blocks(amb)
               if _is_extension_checked(amb, h, a, c)]
    if len(passing) > 1:
        raise InternalCheckError("extension uniqueness violated")
    return any(c == b for c in passing)


class StackingStructure:
    """The action of G on the minimally covered blocks of H, classified."""

    def __init__(self, blocks_h: BlockPoset, preorder: set[tuple[int, int]],
                 classes: list[tuple[frozenset, str]]):
        self.blocks_h = blocks_h
        self.preorder = preorder
        self.classes = classes

    def same_class(self, a: ChiefBlock, b: ChiefBlock) -> bool:
        return any(a.block_id in cls and b.block_id in cls
                   for cls, _ in self.classes)


def _action_permutations(amb: Subgroup, h: Subgroup,
                         bp: BlockPoset) -> list[tuple[int, ...]]:
    """The image of the ambient in the symmetric group on H's block ids.

    A generator moves each block to the block keyed by its conjugated
    centralizer.  ``group_from_permutations`` closes these permutations; the
    closure has at most |ambient| elements, which is its cap.
    """
    g = amb.parent
    gen_perms = [
        tuple(bp.by_centralizer(conjugate_members(
            g, x, b.centralizer.members)).block_id for b in bp.blocks)
        for x in amb.gens]
    return sorted(group_from_permutations(gen_perms, len(bp.blocks),
                                          amb.order).perms)


def classify_stacking_class(members: Sequence[int],
                            lt: Callable[[int, int], bool],
                            perms: Sequence[Sequence[int]]) -> str:
    """Check that one stacking class is an antichain orbit; return its kind.

    ``members`` are block ids forming one class, ``lt`` the strict block
    order, and ``perms`` the available translations.  No class stacks
    properly (some p with p(a) < a): p has a finite order m, and
    a = p^m(a) < ... < p(a) < a is impossible.
    """
    mset = list(members)
    if (any(lt(a, b) for a in mset for b in mset)
            or not all(any(p[a] == b for p in perms)
                       for a in mset for b in mset)):
        raise InternalCheckError(
            f"stacking class {mset} is not an antichain orbit")
    return "antichain-orbit"


def stacking_structure(ambient, h: Subgroup) -> StackingStructure:
    """Preorder, stacking classes and per-class kind for the blocks of H."""
    amb = ambient_subgroup(ambient)
    _require_normal_sub(amb, h)
    bp = chief_blocks(h)
    perms = _action_permutations(amb, h, bp)
    n = len(bp.blocks)
    cents = [b.centralizer.members for b in bp.blocks]

    def lt(i: int, j: int) -> bool:
        return cents[i] < cents[j]

    # conjugation acts by order automorphisms of the block poset
    for p in perms:
        for i in range(n):
            for j in range(n):
                if (cents[i] <= cents[j]) != (cents[p[i]] <= cents[p[j]]):
                    raise InternalCheckError(
                        "block action failed to preserve the order")

    preorder = {(i, j) for i in range(n) for j in range(n)
                if any(cents[p[i]] <= cents[j] for p in perms)}
    classes = []
    assigned = set()
    for i in range(n):
        if i in assigned:
            continue
        cls = frozenset(j for j in range(n)
                        if (i, j) in preorder and (j, i) in preorder)
        assigned |= cls
        classes.append((cls, classify_stacking_class(sorted(cls), lt, perms)))
    return StackingStructure(bp, preorder, classes)


class ExtensionPosetCheck:
    def __init__(self, extensions: dict, structure: StackingStructure,
                 verified: bool):
        self.extensions = extensions
        self.structure = structure
        self.verified = verified


def extension_poset_check(ambient, h: Subgroup) -> ExtensionPosetCheck:
    """Verify the extension order matches the stacking preorder.

    For all minimally covered blocks a, b of H: a^G <= b^G iff a precedes b
    in the stacking preorder; consequently the extensions, as a poset, are
    the stacking classes.
    """
    amb = ambient_subgroup(ambient)
    st = stacking_structure(amb, h)
    exts = {a.block_id: extend_block(amb, h, a) for a in st.blocks_h.blocks}
    for a in st.blocks_h.blocks:
        for b in st.blocks_h.blocks:
            lhs = (exts[a.block_id].centralizer.members
                   <= exts[b.block_id].centralizer.members)
            rhs = (a.block_id, b.block_id) in st.preorder
            if lhs != rhs:
                raise InternalCheckError(
                    "extension order disagrees with the stacking preorder")
    # Same-class blocks must share their extension, distinct classes not.
    for a in st.blocks_h.blocks:
        for b in st.blocks_h.blocks:
            same = st.same_class(a, b)
            if same != (exts[a.block_id] == exts[b.block_id]):
                raise InternalCheckError(
                    "extension fibers disagree with stacking classes")
    return ExtensionPosetCheck(exts, st, True)


class AntichainOrbitReport:
    def __init__(self, class_is_antichain_orbit: bool,
                 has_minimal_invariant: bool,
                 conjugate_factorization: bool,
                 minimal_invariants: list[Subgroup]):
        self.class_is_antichain_orbit = class_is_antichain_orbit
        self.has_minimal_invariant = has_minimal_invariant
        self.conjugate_factorization = conjugate_factorization
        self.minimal_invariants = minimal_invariants


def antichain_orbit_analysis(ambient, h: Subgroup,
                             a: ChiefBlock) -> AntichainOrbitReport:
    """Evaluate the three equivalent antichain-orbit conditions independently.

    (1) the stacking class of a is an antichain orbit; (2) the lowermost
    extension factor M/N has a minimal H-invariant subgroup; (3) the minimal
    H-invariant subgroups of M/N are the G-conjugates of a representative of
    a and form a quasi-direct factorization of M/N.  The three verdicts are
    asserted equal.
    """
    amb = ambient_subgroup(ambient)
    st = stacking_structure(amb, h)
    kind = next(kind for cls, kind in st.classes if a.block_id in cls)
    cond1 = kind == "antichain-orbit"

    b = extend_block(amb, h, a)
    low = lowermost_representative(amb, b)
    m, n = low.k, low.l
    # N <= M <= H with N normal in G, so N is a node of H's lattice and the
    # minimal H-invariant subgroups of M/N are its upper covers inside M.
    lat = normal_subgroups(h)
    bottom = lat.index_of(n)
    minimal = [lat.nodes[j] for j in lat.up[bottom]
               if lat.nodes[j].members <= m.members]
    cond2 = bool(minimal)

    cond3 = False
    if minimal:
        orbit = set(_conjugate_orbit(amb, minimal[0].members))
        reps_match = orbit == {x.members for x in minimal}
        # One minimal invariant over N must be a representative of a.
        is_rep = any(
            factor_centralizer(
                NormalFactor(h, x, lat.nodes[bottom])
            ).members == a.centralizer.members
            for x in minimal)
        q, _ = factor_group(low)
        images = [Subgroup(q, frozenset(q.coset_of[i] for i in x.members))
                  for x in minimal]
        fact = classify_factorization(q, images)
        cond3 = reps_match and is_rep and fact.kind == "quasi-direct"

    if not (cond1 == cond2 == cond3):
        raise InternalCheckError(
            f"antichain-orbit conditions disagree: {cond1}, {cond2}, {cond3}")
    return AntichainOrbitReport(cond1, cond2, cond3, minimal)


def quotient_block_pullback(phi: Homomorphism) -> dict:
    """Pull the non-abelian chief factors of the target back along phi.

    For a surjection phi: G -> H, K/L maps to preimage(K)/preimage(L).  The
    pulled-back factors are verified chief, isomorphic to their originals,
    and centralizer inclusions are preserved and reflected, making the
    induced block map injective.
    """
    if not phi.is_surjective:
        raise NotSurjective("block pullback needs a surjection")
    g, h = phi.source, phi.target
    lat = normal_subgroups(g)
    mapping: dict[NormalFactor, NormalFactor] = {}
    cents: dict[NormalFactor, frozenset] = {}
    for b in chief_blocks(h):
        for f in b.representatives:
            pk = Subgroup(g, phi.preimage(f.k.members))
            pl = Subgroup(g, phi.preimage(f.l.members))
            if not lat.is_cover(pl, pk):
                raise InternalCheckError("pullback factor is not chief")
            pulled = NormalFactor(g.whole(), lat.nodes[lat.index_of(pk)],
                                  lat.nodes[lat.index_of(pl)])
            _check_factor_isomorphic(phi, pulled, f)
            mapping[f] = pulled
            cents[f] = factor_centralizer(pulled).members
    facs = list(mapping)
    for f1 in facs:
        for f2 in facs:
            upstairs = cents[f1] <= cents[f2]
            downstairs = (factor_centralizer(f1).members
                          <= factor_centralizer(f2).members)
            if upstairs != downstairs:
                raise InternalCheckError(
                    "pullback must preserve and reflect centralizer order")
    if len({cents[f] for f in facs}) != len(
            {factor_centralizer(f).members for f in facs}):
        raise InternalCheckError("induced block map must be injective")
    return mapping


def _check_factor_isomorphic(phi: Homomorphism, pulled: NormalFactor,
                             original: NormalFactor) -> None:
    if pulled.order != original.order:
        raise InternalCheckError("pullback changed the factor order")
    pq, pproj = factor_group(pulled)
    oq, oproj = factor_group(original)
    # The induced map on cosets: lift a pulled coset to its representative,
    # push through phi, and read off the original coset.
    table = [oq.coset_of[phi(pq.reps[c])] for c in pq.elements()]
    iso = Homomorphism(pq, oq, table, "induced")
    iso.validate()
    if not (iso.is_injective and iso.is_surjective):
        raise InternalCheckError("induced factor map is not bijective")
