"""Chief blocks, their order, canonical representatives, and refinement."""

import itertools

import pytest

from chiefblocks import named
from chiefblocks.blocks import (
    block_le,
    chief_blocks,
    cover_status,
    covering_filter,
    covers,
    inner_action_members,
    lowermost_representative,
    minimal_cover,
    refine_series,
    uppermost_representative,
)
from chiefblocks.errors import (
    AbelianFactor,
    DifferentParents,
    InternalCheckError,
    NotAChain,
    NotChief,
)
from chiefblocks.factors import (
    are_associated,
    factor_centralizer,
    is_abelian_factor,
    make_factor,
)
from chiefblocks.group import direct_product, subgroup_generated
from chiefblocks.lattice import (
    NormalLattice,
    chief_factors,
    chief_series_iter,
    is_monolithic,
    normal_subgroups,
    socle,
)
from oracles import refine_series_by_commutators, refine_series_r_oracle


def test_block_counts(corpus):
    assert len(chief_blocks(corpus["V4"])) == 0
    bp = chief_blocks(corpus["A5xA5"])
    assert len(bp) == 2
    assert all(len(b.representatives) == 2 for b in bp.blocks)
    bpw = chief_blocks(corpus["A5wrC2"])
    assert len(bpw) == 1
    b = bpw.blocks[0]
    assert b.centralizer.order == 1
    assert lowermost_representative(corpus["A5wrC2"], b).k.order == 3600


def test_blocks_match_association_partition(corpus):
    """Blocks as centralizer classes equal blocks as association classes."""
    for name in ("S5", "SL25", "A5xA5", "A5wrC2", "S5wrC2"):
        g = corpus[name]
        nonab = [f for f in chief_factors(g) if not is_abelian_factor(f)]
        bp = chief_blocks(g)
        for f1, f2 in itertools.combinations(nonab, 2):
            assert are_associated(f1, f2) == (
                factor_centralizer(f1).members
                == factor_centralizer(f2).members)
        assert {frozenset((r.k.members, r.l.members)
                          for r in b.representatives)
                for b in bp.blocks} \
            == {frozenset((f.k.members, f.l.members)
                          for f in nonab
                          if are_associated(f, f0))
                for f0 in nonab}


def test_covers_examples(corpus):
    prod = corpus["A5xA5"]
    bp = chief_blocks(prod)
    lat = normal_subgroups(prod)
    left = next(n for n in lat.nodes
                if n.members == prod.left_factor.members)
    right = next(n for n in lat.nodes
                 if n.members == prod.right_factor.members)
    left_block = bp.by_centralizer(right.members)
    assert covers(left, left_block)
    assert cover_status(prod.trivial_subgroup(), left_block) == "below"
    assert cover_status(right, left_block) == "below"
    assert cover_status(prod.whole(), left_block) == "covers"
    upper = make_factor(prod, prod.whole(), left)
    assert cover_status(upper, left_block) == "above"


def test_covering_filter_and_minimal_cover(corpus):
    wr = corpus["A5wrC2"]
    bp = chief_blocks(wr)
    filt = covering_filter(wr, bp.blocks[0])
    assert sorted(n.order for n in filt) == [3600, 7200]
    assert minimal_cover(wr, bp.blocks[0]).order == 3600
    a5 = corpus["A5"]
    bpa = chief_blocks(a5)
    assert [n.order for n in covering_filter(a5, bpa.blocks[0])] == [60]
    prod = corpus["A5xA5"]
    bpp = chief_blocks(prod)
    b0 = bpp.by_centralizer(prod.right_factor.members)
    assert sorted(n.order for n in covering_filter(prod, b0)) == [60, 3600]
    assert minimal_cover(prod, b0).members == prod.left_factor.members


def test_filter_intersection_closed(corpus):
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        for b in chief_blocks(g).blocks:
            filt = covering_filter(g, b)
            filt_members = {n.members for n in filt}
            for x, y in itertools.combinations(filt, 2):
                assert x.members & y.members in filt_members


def test_socle_and_monolithic(corpus):
    assert socle(corpus["A5wrC2"]).order == 3600
    assert is_monolithic(corpus["A5wrC2"])
    assert socle(corpus["A5xA5"]).order == 3600
    assert not is_monolithic(corpus["A5xA5"])
    triv = named.cyclic(1)
    assert socle(triv).order == 1
    assert not is_monolithic(triv)


def test_uppermost_representative(corpus):
    prod = corpus["A5xA5"]
    bp = chief_blocks(prod)
    b = bp.by_centralizer(prod.right_factor.members)
    up = uppermost_representative(prod, b)
    assert up.k.members == prod.whole().members
    assert up.l.members == prod.right_factor.members
    a5 = corpus["A5"]
    upa = uppermost_representative(a5, chief_blocks(a5).blocks[0])
    assert upa.k.order == 60 and upa.l.order == 1
    wr = corpus["A5wrC2"]
    upw = uppermost_representative(wr, chief_blocks(wr).blocks[0])
    assert upw.k.order == 3600 and upw.l.order == 1


def test_lowermost_representative(corpus):
    prod = corpus["A5xA5"]
    bp = chief_blocks(prod)
    b = bp.by_centralizer(prod.right_factor.members)
    low = lowermost_representative(prod, b)
    assert low.k.members == prod.left_factor.members
    assert low.l.order == 1
    a5 = corpus["A5"]
    lowa = lowermost_representative(a5, chief_blocks(a5).blocks[0])
    assert lowa.k.order == 60 and lowa.l.order == 1


def test_monolithic_quotient_by_centralizer(corpus):
    """The quotient by a block centralizer has one minimal normal subgroup."""
    for name in ("S5", "SL25", "A5xA5", "A5wrC2", "S5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        for b in chief_blocks(g).blocks:
            c = lat.index_of(b.centralizer)
            assert len(lat.up[c]) == 1
            rep = make_factor(g, lat.nodes[lat.up[c][0]], lat.nodes[c])
            assert factor_centralizer(rep).members == b.centralizer.members


def test_block_le_antichains(corpus):
    bp = chief_blocks(corpus["A5xA5"])
    a, b = bp.blocks
    assert block_le(a, a)
    assert not block_le(a, b)
    assert not block_le(b, a)
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        blocks = chief_blocks(g).blocks
        for x in blocks:
            for y in blocks:
                assert block_le(x, y) == (x is y)


def test_cover_realize_over_all_series(corpus):
    """Every chief series covers each block in exactly one interval."""
    for name in ("S5", "SL23", "SL25", "A5xA5", "A5wrC2", "S5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        blocks = chief_blocks(g).blocks
        for series in chief_series_iter(g):
            for b in blocks:
                hits = [
                    j for j in range(len(series) - 1)
                    if series[j].members <= b.centralizer.members
                    and not series[j + 1].members <= b.centralizer.members
                ]
                assert len(hits) == 1


def test_cover_centralizer_observation(corpus):
    """For every representative A/B of a block, the centralizer meets A in B."""
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        for b in chief_blocks(g).blocks:
            for rep in b.representatives:
                assert b.centralizer.members & rep.k.members == rep.l.members


def test_unique_associate_split_on_chains(corpus):
    """The downward part of a chain against a block is the centralizer cut."""
    for name in ("SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        for series in chief_series_iter(g):
            for b in chief_blocks(g).blocks:
                down = [s for s in series
                        if s.members <= b.centralizer.members]
                up = [s for s in series
                      if not s.members <= b.centralizer.members]
                assert len(down) + len(up) == len(series)
                # the split is an interval split: everything below, then above
                assert all(s.members <= t.members
                           for s in down for t in up)


def test_refine_series_examples(corpus):
    prod = corpus["A5xA5"]
    lat = normal_subgroups(prod)
    left = lat.node_with_members(prod.left_factor.members)
    right = lat.node_with_members(prod.right_factor.members)
    series = [prod.trivial_subgroup(), left, prod.whole()]
    f = make_factor(prod, right, prod.trivial_subgroup())
    i, b, d = refine_series(prod, series, f)
    assert i == 1
    assert b.members == left.members
    assert d.members == prod.whole().members
    assert are_associated(make_factor(prod, d, b), f)

    a5 = corpus["A5"]
    i, b, d = refine_series(
        a5, [a5.trivial_subgroup(), a5.whole()],
        make_factor(a5, a5.whole(), a5.trivial_subgroup()))
    assert (i, b.order, d.order) == (0, 1, 60)

    wr = corpus["A5wrC2"]
    wlat = normal_subgroups(wr)
    base = next(n for n in wlat.nodes if n.order == 3600)
    f = make_factor(wr, base, wr.trivial_subgroup())
    i, b, d = refine_series(
        wr, [wr.trivial_subgroup(), base, wr.whole()], f)
    assert (i, b.order, d.order) == (0, 1, 3600)


def test_refine_series_validation(corpus):
    s4 = corpus["S4"]
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    series = [s4.trivial_subgroup(), v4, a4, s4.whole()]
    with pytest.raises(AbelianFactor):
        refine_series(s4, series, make_factor(s4, a4, v4))
    with pytest.raises(NotAChain):
        refine_series(s4, [v4, s4.whole()], make_factor(s4, a4, v4))
    # An ascending chain from 1 to S4 through the non-normal D8 > V4, in
    # place of A4, and one through the non-normal C4.
    x = next(x for x in s4.elements() if s4.element_order(x) == 4)
    d8 = subgroup_generated(s4, [*v4.members, x])
    c4 = subgroup_generated(s4, [x])
    for chain in ([v4, d8], [c4]):
        with pytest.raises(NotAChain):
            refine_series(s4, [s4.trivial_subgroup(), *chain, s4.whole()],
                          make_factor(s4, a4, v4))
    other = named.symmetric(4)  # a separately built copy of S4
    with pytest.raises(DifferentParents):
        refine_series(s4, [other.trivial_subgroup(), other.whole()],
                      make_factor(s4, a4, v4))
    prod = corpus["A5xA5"]
    plat = normal_subgroups(prod)
    left = plat.node_with_members(prod.left_factor.members)
    f = make_factor(prod, prod.whole(), prod.trivial_subgroup())
    with pytest.raises(NotChief):
        refine_series(
            prod, [prod.trivial_subgroup(), left, prod.whole()], f)


def test_inner_action_set_matches_element_search(corpus):
    """(C*K) meet W equals the elementwise witness search, on small inputs."""
    for name in ("S4", "SL23", "SL25"):
        g = corpus[name]
        lat = normal_subgroups(g)
        for f in chief_factors(g):
            c = factor_centralizer(f)
            for w in lat.nodes:
                fast = inner_action_members(g, w, f.k, c)
                slow = refine_series_r_oracle(g, w, f.k, f.l)
                assert fast == slow


def test_refinement_matches_commutator_construction(corpus):
    """D = KC meet series[i+1] equals [A, A]B with A = [R, K]B."""
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        nonab = [f for f in chief_factors(g) if not is_abelian_factor(f)]
        for series in chief_series_iter(g):
            for f in nonab:
                assert refine_series(g, series, f) \
                    == refine_series_by_commutators(g, series, f)


def test_refinement_on_all_series_and_factors(corpus):
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        nonab = [f for f in chief_factors(g)
                 if not is_abelian_factor(f)]
        for series in chief_series_iter(g):
            for f in nonab:
                i, b, d = refine_series(g, series, f)
                out = make_factor(g, d, b)
                assert are_associated(out, f)
                # no other interval holds an associated lattice factor
                for j in range(len(series) - 1):
                    if j == i:
                        continue
                    for x in lat.nodes:
                        for y in lat.nodes:
                            if not (series[j].members <= y.members
                                    and y.members < x.members
                                    and x.members <= series[j + 1].members):
                                continue
                            assert not are_associated(
                                make_factor(g, x, y), f)


def test_every_corpus_block_is_minimally_covered(corpus):
    for g in corpus.values():
        bp = chief_blocks(g)
        for b in bp.blocks:
            witness = minimal_cover(g, b)
            assert covers(witness, b)
            assert all(witness.members <= n.members
                       for n in covering_filter(g, b))


def _a5_c2_4():
    c2 = named.cyclic(2)
    return direct_product(named.alternating(5), direct_product(
        direct_product(c2, c2), direct_product(c2, c2)))


def test_blocks_and_representatives_need_no_generators(monkeypatch):
    """Once the lattice is built, blocks and representatives read it."""
    import chiefblocks.group as group_mod
    groups = [named.s5_wr_c2(), _a5_c2_4()]
    for g in groups:
        normal_subgroups(g)
    calls = []
    real = group_mod.generating_ids
    monkeypatch.setattr(group_mod, "generating_ids",
                        lambda g, m: calls.append(len(m)) or real(g, m))
    for g in groups:
        for b in chief_blocks(g):
            minimal_cover(g, b)
            uppermost_representative(g, b)
            lowermost_representative(g, b)
    assert calls == []


@pytest.mark.parametrize("build", [
    lambda: direct_product(named.alternating(5), named.alternating(5)),
    _a5_c2_4,
], ids=["A5xA5", "A5xC2^4"])
def test_block_check_refuses_least_node_centralizers(build, monkeypatch):
    """The least node N with N meet K = L is L itself.  Keyed by it, A5xA5
    puts its two unassociated bottom factors in one block, and A5xC2^4
    splits its one block of 67 associated factors into 67 blocks; the
    linear check refuses both."""
    def least(self, k, l):
        below = self.below[k]
        return next(n for n in range(len(self.nodes))
                    if (self.below[n] & below).bit_length() - 1 == l)

    monkeypatch.setattr(NormalLattice, "centralizer", least)
    with pytest.raises(InternalCheckError, match="associated"):
        chief_blocks(build())


def test_blocks_of_another_group_are_refused():
    """A block of one A5 object is no block of a separately built A5."""
    a, b = named.alternating(5), named.alternating(5)
    blk = chief_blocks(a).blocks[0]
    with pytest.raises(DifferentParents):
        minimal_cover(b, blk)
    with pytest.raises(DifferentParents):
        covering_filter(b, blk)
