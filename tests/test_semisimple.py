"""Components, layer, semisimple type, duality, and the type trichotomy."""

import pytest

from chiefblocks import named
from chiefblocks.autos import (
    automorphism_group,
    is_characteristically_simple,
)
from chiefblocks.blocks import chief_blocks, minimal_cover
from chiefblocks.errors import (
    NotCharacteristicallySimple,
    NotSemisimpleType,
)
from chiefblocks.group import (
    center,
    centralizer_subgroup,
    commutator_subgroup,
    is_normal_in,
    normal_closure,
    product_of_subgroups,
    quotient,
)
from chiefblocks.lattice import normal_subgroups
from chiefblocks.semisimple import (
    SEMISIMPLE,
    STRICT_SEMISIMPLE,
    WEAK,
    block_type,
    charsimple_type,
    components,
    layer,
    quotient_components,
    semisimple_type,
    simple_quotient_duality,
)
from oracles import components_all_nodes


def test_perfect_node_sweep_matches_all_nodes(corpus):
    """Sweeping only perfect lattice nodes loses no component."""
    for name, g in corpus.items():
        if g.order > 7200:
            continue
        assert {c.members for c in components(g)} \
            == components_all_nodes(g), name


def test_component_examples(corpus):
    prod = corpus["A5xA5"]
    comps = components(prod)
    assert {c.members for c in comps} \
        == {prod.left_factor.members, prod.right_factor.members}
    assert [c.order for c in components(corpus["S5"])] == [60]
    assert [c.order for c in components(corpus["SL25"])] == [120]
    assert components(corpus["ES32"]) == []
    assert components(corpus["V4"]) == []


def test_wreath_components_are_conjugate_nonnormal(corpus):
    wr = corpus["A5wrC2"]
    comps = components(wr)
    assert [c.order for c in comps] == [60, 60]
    assert all(not is_normal_in(c, wr.whole()) for c in comps)
    swap = wr.embed_top(1)
    from chiefblocks.group import conjugate_members
    assert conjugate_members(wr, swap, comps[0].members) == comps[1].members


def test_layer_and_type(corpus):
    assert layer(corpus["ES32"]).order == 1
    assert semisimple_type(corpus["ES32"]) == "not-semisimple"
    assert semisimple_type(corpus["A5xA5"]) == STRICT_SEMISIMPLE
    assert semisimple_type(corpus["SL25"]) == SEMISIMPLE
    assert semisimple_type(corpus["S5"]) == "not-semisimple"
    assert layer(corpus["A5wrC2"]).order == 3600


def test_quotient_components(corpus):
    prod = corpus["A5xA5"]
    lat = normal_subgroups(prod)
    left = lat.node_with_members(prod.left_factor.members)
    q, proj, comps = quotient_components(prod, left)
    assert q.order == 60
    assert [c.order for c in comps] == [60]

    q2, _, comps2 = quotient_components(prod, prod.trivial_subgroup())
    assert sorted(c.order for c in comps2) == [60, 60]

    sl = corpus["SL25"]
    q3, _, comps3 = quotient_components(sl, center(sl))
    assert [c.order for c in comps3] == [60]
    assert semisimple_type(q3) == STRICT_SEMISIMPLE

    with pytest.raises(NotSemisimpleType):
        quotient_components(corpus["S4"], corpus["S4"].trivial_subgroup())


def test_simple_quotient_duality(corpus):
    prod = corpus["A5xA5"]
    pairs = simple_quotient_duality(prod)
    assert {(m.members, n.members) for m, n in pairs} == {
        (prod.left_factor.members, prod.right_factor.members),
        (prod.right_factor.members, prod.left_factor.members),
    }
    a5 = corpus["A5"]
    pairs = simple_quotient_duality(a5)
    assert [(m.order, n.order) for m, n in pairs] == [(60, 1)]
    sl = corpus["SL25"]
    pairs = simple_quotient_duality(sl)
    assert [(m.order, n.order) for m, n in pairs] == [(120, 2)]


def test_component_normalizer_dichotomy(corpus):
    """A normal subgroup either contains a component or centralizes it."""
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        lat = normal_subgroups(g)
        for m in components(g):
            for k in lat.nodes:
                contains = m.members <= k.members
                centralizes = commutator_subgroup(g, k, m).order == 1
                assert contains or centralizes


def test_components_generate_with_centralizer(corpus):
    """Semisimple type gives G = M * C_G(M) for every component M."""
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        from chiefblocks.group import Subgroup
        for m in components(g):
            c = centralizer_subgroup(g, m.gens)
            assert len(product_of_subgroups(m, c)) == g.order


def test_top_simple_quotients(corpus):
    """M Z(R)/Z(R) and R/C_R(M) are non-abelian simple for R = M C_G(M)."""
    from chiefblocks.group import Subgroup, subgroup_as_group
    for name in ("A5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        for m in components(g):
            c = centralizer_subgroup(g, m.gens)
            r_members = product_of_subgroups(m, c)
            r_grp, r_embed = subgroup_as_group(Subgroup(g, r_members))
            back = {r_embed(x): x for x in r_grp.elements()}
            # M Z(R)/Z(R), seen inside R/Z(R): simple and non-abelian
            rz = centralizer_subgroup(r_grp, r_grp.generators)
            mod_z, _ = quotient(r_grp, rz)
            img = frozenset(mod_z.coset_of[back[y]] for y in m.members)
            sub = Subgroup(mod_z, img)
            assert sub.order > 1
            assert not all(mod_z.mul(a, b) == mod_z.mul(b, a)
                           for a in sub.gens for b in sub.gens)
            assert [n.order for n in normal_subgroups(sub).nodes] \
                == [1, sub.order]
            # R/C_R(M): simple and non-abelian
            c_in_r = Subgroup(r_grp,
                              frozenset(back[x]
                                        for x in c.members & r_members))
            q2, _ = quotient(r_grp, c_in_r)
            assert q2.order > 1 and not q2.is_abelian
            assert [n.order for n in normal_subgroups(q2).nodes] \
                == [1, q2.order]


def test_abelian_normal_subgroups_are_central(corpus):
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        z = center(g)
        for n in normal_subgroups(g).nodes:
            if all(g.mul(a, b) == g.mul(b, a)
                   for a in n.gens for b in n.gens):
                assert n.members <= z.members


def test_strict_components_are_minimal_normal(corpus):
    for name in ("A5", "A5xA5"):
        g = corpus[name]
        assert semisimple_type(g) == STRICT_SEMISIMPLE
        lat = normal_subgroups(g)
        minimal = {n.members
                   for n in lat.minimal_nodes_over(frozenset((0,)))}
        assert {c.members for c in components(g)} == minimal
        for c in components(g):
            sub_lat = normal_subgroups(c)
            assert [n.order for n in sub_lat.nodes] == [1, c.order]


def test_commutator_with_group_is_component_join(corpus):
    """[K, G] is generated by components, for normal K in semisimple G."""
    from chiefblocks.group import close_under_mul
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        comps = components(g)
        for k in normal_subgroups(g).nodes:
            kg = commutator_subgroup(g, k, g.whole())
            inside = [c for c in comps if c.members <= kg.members]
            span = close_under_mul(g, [x for c in inside for x in c.gens])
            assert span == kg.members


def test_semisimple_quotient_characterization(corpus):
    """Semisimple iff the simple-quotient kernels cut the center and bound
    every proper normal subgroup."""
    from chiefblocks.group import derived_subgroup
    for g in corpus.values():
        lat = normal_subgroups(g)
        derived = derived_subgroup(g)
        kernels = [n for n in lat.nodes
                   if n.order < g.order
                   and not any(n.members < m.members for m in lat.nodes
                               if m.order < g.order)
                   and not derived.members <= n.members]
        inter = frozenset(range(g.order))
        for n in kernels:
            inter &= n.members
        cond = (inter == center(g).members
                and all(any(n.members <= k.members for k in kernels)
                        for n in lat.nodes if n.order < g.order))
        assert cond == (semisimple_type(g) != "not-semisimple")


def test_blocks_biject_with_components(corpus):
    """Semisimple type: components map onto blocks; the poset is an antichain."""
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        bp = chief_blocks(g)
        comps = components(g)
        assert len(bp) == len(comps)
        lat = normal_subgroups(g)
        mapped = set()
        for m in comps:
            zm = centralizer_subgroup(g, m.gens).members & m.members
            factor_c = centralizer_subgroup(g, m.gens)
            block = bp.by_centralizer(factor_c.members)
            mapped.add(block.block_id)
        assert mapped == {b.block_id for b in bp.blocks}
        for a in bp.blocks:
            for b in bp.blocks:
                assert (a.centralizer.members <= b.centralizer.members) \
                    == (a is b)


def test_component_closures_cover_one_block(corpus):
    for name in ("A5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        bp = chief_blocks(g)
        for m in components(g):
            closure = normal_closure(g, m.gens)
            covered = [b for b in bp.blocks
                       if not closure.members <= b.centralizer.members]
            assert len(covered) == 1
            assert minimal_cover(g, covered[0]).members == closure.members


def test_characteristic_simplicity_verdicts(corpus):
    expected = {
        "V4": True, "A5": True, "A5xA5": True,
        "S4": False, "S5": False, "SL23": False, "SL25": False,
        "Q8": False, "D8": False, "ES32": False,
        "A5wrC2": False, "S5wrC2": False,
    }
    for name, want in expected.items():
        assert is_characteristically_simple(corpus[name]) == want, name


def test_automorphism_counts():
    assert len(automorphism_group(named.klein_four())) == 6
    assert len(automorphism_group(named.cyclic(2))) == 1
    assert len(automorphism_group(named.alternating(5))) == 120


def test_charsimple_type_verdicts(corpus):
    assert charsimple_type(corpus["V4"]) == WEAK
    assert charsimple_type(corpus["A5"]) == SEMISIMPLE
    assert charsimple_type(corpus["A5xA5"]) == SEMISIMPLE
    with pytest.raises(NotCharacteristicallySimple):
        charsimple_type(corpus["S4"])


def test_block_types_all_semisimple(corpus):
    for name in ("S5", "SL25", "A5xA5", "A5wrC2", "S5wrC2"):
        g = corpus[name]
        for b in chief_blocks(g).blocks:
            assert block_type(g, b) == SEMISIMPLE


def test_automorphism_search_cap(corpus):
    from chiefblocks.autos import iter_automorphisms
    from chiefblocks.errors import SearchCapExceeded
    with pytest.raises(SearchCapExceeded):
        list(iter_automorphisms(corpus["A5"], search_cap=3))
