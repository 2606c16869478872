"""Generalized central and quasi-direct factorizations; compressions."""

import itertools

import pytest

from chiefblocks import named
from chiefblocks.errors import (
    ImageNotFullOnFactor,
    ImageNotNormal,
    NotGeneralizedCentral,
    NotInjective,
)
from chiefblocks.group import Homomorphism, center
from chiefblocks.lattice import normal_subgroups
from chiefblocks.products import (
    central_quotient_factorization,
    compression_semidirect,
    diagonal_map,
    is_generalized_central_factorization,
    is_quasi_direct_factorization,
    single_intersection_trivial,
    subdirect_quasi_factorization,
)
from chiefblocks.semisimple import semisimple_type
from oracles import independence_property


def klein_parts():
    v4 = named.klein_four()
    lat = normal_subgroups(v4)
    return v4, [n for n in lat.nodes if n.order == 2]


def test_generalized_central_examples(corpus):
    es = named.extraspecial32()
    assert is_generalized_central_factorization(
        es.group, [es.left_image, es.right_image])
    prod = corpus["A5xA5"]
    assert is_generalized_central_factorization(
        prod, [prod.left_factor, prod.right_factor])
    s4 = corpus["S4"]
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    assert not is_generalized_central_factorization(s4, [a4, v4])


def test_quasi_direct_examples(corpus):
    prod = corpus["A5xA5"]
    assert is_quasi_direct_factorization(
        prod, [prod.left_factor, prod.right_factor])
    es = named.extraspecial32()
    assert not is_quasi_direct_factorization(
        es.group, [es.left_image, es.right_image])
    v4, ais = klein_parts()
    assert not is_quasi_direct_factorization(v4, ais)
    assert is_quasi_direct_factorization(v4, ais[:2])
    # single part: the test degenerates to generating the ambient
    assert is_quasi_direct_factorization(v4, [v4.whole()])
    assert not is_quasi_direct_factorization(v4, [ais[0]])


def test_diagonal_map_injectivity(corpus):
    prod = corpus["A5xA5"]
    d = diagonal_map(prod, [prod.left_factor, prod.right_factor])
    assert d.injective and d.kernel.order == 1
    assert d.hom is not None and d.hom.is_injective

    es = named.extraspecial32()
    d = diagonal_map(es.group, [es.left_image, es.right_image])
    assert not d.injective
    assert d.kernel.order == 2
    assert d.kernel.members == center(es.group).members

    v4, ais = klein_parts()
    d = diagonal_map(v4, ais[:2])
    assert d.injective and d.kernel.order == 1
    assert d.codomain_order == 4


def test_diagonal_map_requires_central_factorization(corpus):
    s4 = corpus["S4"]
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    with pytest.raises(NotGeneralizedCentral):
        diagonal_map(s4, [a4, v4])


def test_subdirect_quasi_factorization(corpus):
    prod = corpus["A5xA5"]
    ident = Homomorphism(prod, prod, list(prod.elements()))
    fact = subdirect_quasi_factorization(
        ident, [prod.left_factor, prod.right_factor])
    assert fact.kind == "quasi-direct"
    assert sorted(p.order for p in fact.parts) == [60, 60]

    v4, ais = klein_parts()
    d = diagonal_map(v4, ais[:2])
    target = d.hom.target
    fact = subdirect_quasi_factorization(
        d.hom, [target.left_factor, target.right_factor])
    assert fact.kind == "quasi-direct"
    assert {p.members for p in fact.parts} == {a.members for a in ais[:2]}

    proj = Homomorphism(prod, prod.left, [prod.split(x)[0]
                                          for x in prod.elements()])
    with pytest.raises(NotInjective):
        subdirect_quasi_factorization(proj, [prod.left.whole()])
    embed = prod.embed_left
    with pytest.raises(ImageNotFullOnFactor):
        subdirect_quasi_factorization(embed, [prod.right_factor])


def test_central_quotient_factorization(corpus):
    es = named.extraspecial32()
    g = es.group
    parts = [es.left_image, es.right_image]
    m, fact = central_quotient_factorization(g, parts, g.trivial_subgroup())
    assert m.members == center(g).members
    assert fact.kind == "quasi-direct"
    assert sorted(p.order for p in fact.parts) == [4, 4]
    assert fact.ambient.parent.order == 16

    m2, fact2 = central_quotient_factorization(
        g, parts, normal_subgroups(g).node_with_members(center(g).members))
    assert m2.members == center(g).members
    assert fact2.kind == "quasi-direct"

    prod = corpus["A5xA5"]
    m3, fact3 = central_quotient_factorization(
        prod, [prod.left_factor, prod.right_factor],
        prod.trivial_subgroup())
    assert m3.order == 1
    assert fact3.kind == "quasi-direct"
    assert sorted(p.order for p in fact3.parts) == [60, 60]


def test_independence_matches_single_intersection(small_corpus):
    """The for-all-X property equals the complement criterion, |S| in 2..4."""
    for g in small_corpus.values():
        nodes = normal_subgroups(g).nodes
        for size in (2, 3, 4):
            for parts in itertools.combinations(nodes, size):
                assert independence_property(g, list(parts)) \
                    == single_intersection_trivial(g, list(parts))


def test_nonredundancy_of_quasi_direct_parts(corpus):
    """Distinct subsets of a quasi-direct factorization have distinct joins."""
    v4, ais = klein_parts()
    cases = [(corpus["A5xA5"],
              [corpus["A5xA5"].left_factor, corpus["A5xA5"].right_factor]),
             (v4, ais[:2])]
    for g, parts in cases:
        lat = normal_subgroups(g)
        assert is_quasi_direct_factorization(g, parts)
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(len(parts)), k)
            for k in range(len(parts) + 1)))
        joins = [lat.join(*[lat.index_of(parts[i]) for i in s])
                 for s in subsets]
        for (s1, j1), (s2, j2) in itertools.combinations(
                zip(subsets, joins), 2):
            assert (s1 == s2) == (j1 == j2)


def test_centerless_equivalence(corpus):
    """With trivial center, generalized central and quasi-direct coincide."""
    for name in ("S4", "S5", "A5xA5", "A5wrC2"):
        g = corpus[name]
        if center(g).order != 1:
            continue
        nodes = normal_subgroups(g).nodes
        for size in (2, 3):
            for parts in itertools.combinations(nodes, size):
                assert is_generalized_central_factorization(g, list(parts)) \
                    == is_quasi_direct_factorization(g, list(parts))


def test_compression_identity_a5(corpus):
    a5 = corpus["A5"]
    ident = Homomorphism(a5, a5, list(a5.elements()))
    r = compression_semidirect(ident)
    assert r.product.order == 3600
    assert r.ker_pi.order == 60
    assert not r.proper
    assert r.pi.is_surjective
    assert r.iota.image().members & r.ker_pi.members == {0}
    assert is_quasi_direct_factorization(
        r.product, [r.iota.image(), r.ker_pi])
    # a centerless quasi-product of simple parts is strictly semisimple
    assert semisimple_type(r.product) == "strict-semisimple"


def test_compression_identity_c2():
    c2 = named.cyclic(2)
    ident = Homomorphism(c2, c2, [0, 1])
    r = compression_semidirect(ident)
    assert r.product.order == 4
    assert r.product.is_abelian
    assert r.ker_pi.order == 2


def test_compression_a5_into_s5(corpus):
    s5 = corpus["S5"]
    a5 = corpus["A5"]
    lat = normal_subgroups(s5)
    a5_node = next(n for n in lat.nodes if n.order == 60)
    from chiefblocks.group import subgroup_as_group
    a5_grp, embed = subgroup_as_group(a5_node)
    psi = Homomorphism(a5_grp, s5, list(embed.mapping))
    # over the full codomain: pi surjective onto S5, anti-diagonal kernel
    r_full = compression_semidirect(psi)
    assert r_full.product.order == 7200
    # the action extended from O's generator tables is conjugation through
    # psi at every element of O
    o_grp, o_embed = subgroup_as_group(s5.whole())
    assert r_full.product.top is o_grp
    back = {psi(x): x for x in a5_grp.elements()}
    for o in o_grp.elements():
        assert r_full.product.action[o] == [
            back[s5.conj(o_embed(o), psi(x))] for x in a5_grp.elements()]
    assert r_full.proper
    assert r_full.pi_image.order == 120
    assert r_full.ker_pi.order == 60
    # over the image itself: the kernel formula covers the anti-diagonal
    r_small = compression_semidirect(psi, over=a5_node)
    assert r_small.product.order == 3600
    assert r_small.pi_image.order == 60
    assert r_small.ker_pi.order == 60


def test_compression_rejects_bad_maps(corpus):
    s5 = corpus["S5"]
    c2 = named.cyclic(2)
    odd = next(x for x in s5.elements()
               if s5.element_order(x) == 2
               and sum(1 for i, j in enumerate(s5.permutation_of(x))
                       if i != j) == 2)
    psi = Homomorphism(c2, s5, [0, odd]).validate()
    with pytest.raises(ImageNotNormal):
        compression_semidirect(psi)
    squash = Homomorphism(named.klein_four(), c2, [0, 0, 0, 0])
    with pytest.raises(NotInjective):
        compression_semidirect(squash)


def test_factorization_parts_must_be_normal(corpus):
    from chiefblocks.errors import NotNormal
    from chiefblocks.group import subgroup_generated
    s4 = corpus["S4"]
    twisted = subgroup_generated(
        s4, [next(x for x in s4.elements() if s4.element_order(x) == 4)])
    with pytest.raises(NotNormal):
        is_quasi_direct_factorization(s4, [twisted, s4.whole()])
    with pytest.raises(NotNormal):
        is_generalized_central_factorization(s4, [twisted])
    with pytest.raises(NotNormal):
        single_intersection_trivial(s4, [twisted, s4.whole()])
