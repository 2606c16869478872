"""Block extension from normal subgroups, stacking classes, pullbacks."""

import pytest

from chiefblocks.blocks import chief_blocks, minimal_cover
from chiefblocks.errors import (
    InternalCheckError,
    NotNested,
    NotNormal,
    NotSurjective,
)
from chiefblocks.extensions import (
    antichain_orbit_analysis,
    block_action,
    classify_stacking_class,
    extend_block,
    extension_poset_check,
    is_extension,
    quotient_block_pullback,
    stacking_structure,
)
from chiefblocks.factors import factor_centralizer, make_factor
from chiefblocks.group import center, normal_closure, quotient
from chiefblocks.lattice import normal_subgroups


def wreath_setup(corpus):
    wr = corpus["A5wrC2"]
    lat = normal_subgroups(wr)
    base = next(n for n in lat.nodes if n.order == 3600)
    return wr, lat, base


def test_block_action_examples(corpus):
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    assert len(bp) == 2
    a0, a1 = bp.blocks
    swap = wr.embed_top(1)
    assert block_action(wr, base, swap, a0) == a1
    assert block_action(wr, base, swap, a1) == a0
    assert block_action(wr, base, 0, a0) == a0
    for h_elem in sorted(base.members)[:8]:
        assert block_action(wr, base, h_elem, a0) == a0
    # an acting element outside the ambient is an input error
    left = next(n for n in normal_subgroups(base).nodes if n.order == 60)
    with pytest.raises(NotNested):
        block_action(base, left, swap, chief_blocks(left).blocks[0])


def test_extend_block_wreath(corpus):
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    exts = {extend_block(wr, base, a) for a in bp.blocks}
    assert len(exts) == 1
    ext = exts.pop()
    assert ext.centralizer.order == 1
    # minimal cover of the H-block is one coordinate; closure is the base
    h_a = minimal_cover(base, bp.blocks[0])
    assert h_a.order == 60
    assert normal_closure(wr, h_a.gens).members == base.members


def test_extend_block_along_equality(corpus):
    prod = corpus["A5xA5"]
    bp = chief_blocks(prod)
    for a in bp.blocks:
        assert extend_block(prod, prod.whole(), a) == a


def test_extend_block_from_simple_coordinate(corpus):
    prod = corpus["A5xA5"]
    lat = normal_subgroups(prod)
    h = lat.node_with_members(prod.left_factor.members)
    bp = chief_blocks(h)
    assert len(bp) == 1
    ext = extend_block(prod, h, bp.blocks[0])
    low_k = minimal_cover(prod, ext)
    assert low_k.members == h.members


def test_is_extension(corpus):
    wr, lat, base = wreath_setup(corpus)
    bph = chief_blocks(base)
    bpg = chief_blocks(wr)
    for a in bph.blocks:
        assert is_extension(wr, base, a, bpg.blocks[0])

    prod = corpus["A5xA5"]
    plat = normal_subgroups(prod)
    h = plat.node_with_members(prod.left_factor.members)
    bph = chief_blocks(h)
    bpp = chief_blocks(prod)
    right_block = bpp.by_centralizer(prod.left_factor.members)
    left_block = bpp.by_centralizer(prod.right_factor.members)
    assert is_extension(prod, h, bph.blocks[0], left_block)
    assert not is_extension(prod, h, bph.blocks[0], right_block)

    for a in bpp.blocks:
        assert is_extension(prod, prod.whole(), a, a)


def test_extension_requires_normal_subgroup(corpus):
    from chiefblocks.semisimple import components
    wr = corpus["A5wrC2"]
    coord = components(wr)[0]
    bp = chief_blocks(coord)
    with pytest.raises(NotNormal):
        extend_block(wr, coord, bp.blocks[0])


def test_stacking_structure_wreath(corpus):
    wr, lat, base = wreath_setup(corpus)
    st = stacking_structure(wr, base)
    assert len(st.classes) == 1
    cls, kind = st.classes[0]
    assert sorted(cls) == [0, 1]
    assert kind == "antichain-orbit"
    n = len(st.blocks_h.blocks)
    assert st.preorder == {(i, j) for i in range(n) for j in range(n)}


def test_stacking_structure_identity_and_coordinate(corpus):
    prod = corpus["A5xA5"]
    st = stacking_structure(prod, prod.whole())
    assert len(st.classes) == 2
    assert all(kind == "antichain-orbit" and len(cls) == 1
               for cls, kind in st.classes)
    lat = normal_subgroups(prod)
    h = lat.node_with_members(prod.left_factor.members)
    st2 = stacking_structure(prod, h)
    assert len(st2.classes) == 1
    assert all(len(cls) == 1 for cls, _ in st2.classes)


def test_extension_poset_check(corpus):
    wr, lat, base = wreath_setup(corpus)
    chk = extension_poset_check(wr, base)
    assert chk.verified
    assert len({b.block_id for b in chk.extensions.values()}) == 1
    prod = corpus["A5xA5"]
    chk2 = extension_poset_check(prod, prod.whole())
    assert chk2.verified
    assert len({b.block_id for b in chk2.extensions.values()}) == 2


def test_antichain_orbit_analysis(corpus):
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    report = antichain_orbit_analysis(wr, base, bp.blocks[0])
    assert report.class_is_antichain_orbit
    assert report.has_minimal_invariant
    assert report.conjugate_factorization
    assert sorted(x.order for x in report.minimal_invariants) == [60, 60]

    prod = corpus["A5xA5"]
    bpp = chief_blocks(prod)
    rep2 = antichain_orbit_analysis(prod, prod.whole(), bpp.blocks[0])
    assert rep2.class_is_antichain_orbit and rep2.has_minimal_invariant


def test_classify_stacking_class_fixtures():
    """Only antichain orbits pass: no finite group stacks properly."""
    ident3 = (0, 1, 2)
    shifts = [ident3, (1, 2, 0), (2, 0, 1)]
    # a cyclic strict "order" makes every pair translatable strictly below,
    # which no order automorphism of finite order can do
    cyclic_lt = {(0, 1), (1, 2), (2, 0)}
    with pytest.raises(InternalCheckError, match="not an antichain orbit"):
        classify_stacking_class(
            [0, 1, 2], lambda a, b: (a, b) in cyclic_lt, shifts)
    # a genuine antichain orbit
    assert classify_stacking_class(
        [0, 1], lambda a, b: False, [(0, 1), (1, 0)]) == "antichain-orbit"
    # chain with only the identity available: neither kind fits
    with pytest.raises(InternalCheckError, match="not an antichain orbit"):
        classify_stacking_class(
            [0, 1], lambda a, b: a == 0 and b == 1, [(0, 1)])


def test_extension_transitivity(corpus):
    """(a^B)^G = a^G along A normal in B normal in G."""
    wr, lat, base = wreath_setup(corpus)
    base_lat = normal_subgroups(base)
    a_sub = next(n for n in base_lat.nodes if n.order == 60)
    a_block = chief_blocks(a_sub).blocks[0]
    via_b = extend_block(base, a_sub, a_block)
    composed = extend_block(wr, base, via_b)
    assert is_extension(wr, a_sub, a_block, composed)

    prod = corpus["A5xA5"]
    plat = normal_subgroups(prod)
    h = plat.node_with_members(prod.left_factor.members)
    hb = chief_blocks(h).blocks[0]
    one_step = extend_block(prod, h, hb)
    two_step = extend_block(prod, prod.whole(),
                            extend_block(prod, h, hb))
    assert one_step == two_step


def test_centralizer_restriction_lemma(corpus):
    """K/L covering a block of H through H forces C_H(K/L) <= C_H(block)."""
    for name in ("A5xA5", "A5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        hs = [n for n in lat.nodes if 1 < n.order < g.order]
        for h in hs:
            blocks_h = chief_blocks(h).blocks
            for k in lat.nodes:
                for l in lat.nodes:
                    if not l.members < k.members:
                        continue
                    f = make_factor(g, k, l)
                    cf = factor_centralizer(f)
                    kh = k.members & h.members
                    lh = l.members & h.members
                    for a in blocks_h:
                        cov = (lh <= a.centralizer.members
                               and not kh <= a.centralizer.members)
                        if cov:
                            assert cf.members & h.members \
                                <= a.centralizer.members


def test_chief_covering_lemma(corpus):
    """Inside the lowermost extension factor M/N, any H-normal L not inside
    N covers a conjugate of each block that M covers; and M/N has no
    non-trivial abelian H-invariant subgroups."""
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    a = bp.blocks[0]
    ext = extend_block(wr, base, a)
    m = minimal_cover(wr, ext)
    n_members = frozenset((0,))  # lowermost here is M/1
    base_lat = normal_subgroups(base)
    covered = [b for b in bp.blocks if not m.members <= b.centralizer.members]
    swap = wr.embed_top(1)
    for l in base_lat.nodes:
        if l.members <= n_members or not l.members <= m.members:
            continue
        for b in covered:
            translates = [b, block_action(wr, base, swap, b)]
            assert any(not l.members <= t.centralizer.members
                       for t in translates)
        # no non-trivial abelian H-invariant subgroup of M/N
        if l.order > 1:
            assert not all(wr.mul(x, y) == wr.mul(y, x)
                           for x in l.gens for y in l.gens)


def test_extension_covers_iff_on_factors(corpus):
    """A factor K/L of G covers a^G iff (K meet H)/(L meet H) covers a."""
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    a = bp.blocks[0]
    ext = extend_block(wr, base, a)
    for k in lat.nodes:
        for l in lat.nodes:
            if not l.members <= k.members:
                continue
            covers_ext = (l.members <= ext.centralizer.members
                          and not k.members <= ext.centralizer.members)
            kh, lh = k.members & base.members, l.members & base.members
            covers_a = (lh <= a.centralizer.members
                        and not kh <= a.centralizer.members)
            assert covers_ext == covers_a


def test_minimal_cover_of_extension_is_normal_closure(corpus):
    wr, lat, base = wreath_setup(corpus)
    bp = chief_blocks(base)
    for a in bp.blocks:
        ext = extend_block(wr, base, a)
        h_a = minimal_cover(base, a)
        assert minimal_cover(wr, ext).members \
            == normal_closure(wr, h_a.gens).members


def test_quotient_block_pullback_sl25(corpus):
    sl = corpus["SL25"]
    q, proj = quotient(sl, center(sl))
    mapping = quotient_block_pullback(proj)
    assert len(mapping) == 1
    (orig, pulled), = mapping.items()
    assert (orig.k.order, orig.l.order) == (60, 1)
    assert (pulled.k.order, pulled.l.order) == (120, 2)


def test_quotient_block_pullback_empty_and_identity(corpus):
    wr, lat, base = wreath_setup(corpus)
    q, proj = quotient(wr, base)
    assert quotient_block_pullback(proj) == {}

    prod = corpus["A5xA5"]
    from chiefblocks.group import Homomorphism
    ident = Homomorphism(prod, prod, list(prod.elements()))
    mapping = quotient_block_pullback(ident)
    assert len(mapping) == 4
    assert all(f == pf for f, pf in mapping.items())


def test_quotient_block_pullback_requires_surjection(corpus):
    prod = corpus["A5xA5"]
    with pytest.raises(NotSurjective):
        quotient_block_pullback(prod.embed_left)
