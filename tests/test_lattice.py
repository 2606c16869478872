"""Normal lattice enumeration against the brute-force subgroup oracle."""

import pytest

from chiefblocks import named
from chiefblocks.errors import (
    InternalCheckError,
    NodeCapExceeded,
    NotNested,
)
from chiefblocks.group import (
    direct_product,
    is_normal_in,
    product_of_subgroups,
    subgroup_generated,
)
from chiefblocks.lattice import (
    NormalLattice,
    chief_factors,
    chief_series_iter,
    is_chief_factor,
    jordan_holder_length,
    normal_subgroups,
)
from oracles import (
    OracleBoundExceeded,
    hasse_edges_triple_loop,
    normal_subgroups_join_closure,
    oracle_all_subgroups,
    oracle_normal_subgroups,
)


def test_oracle_subgroup_counts():
    assert len(oracle_all_subgroups(named.klein_four())) == 5
    assert len(oracle_all_subgroups(named.cyclic(6))) == 4
    assert len(oracle_all_subgroups(named.symmetric(4))) == 30


def test_oracle_bound_enforced():
    with pytest.raises(OracleBoundExceeded):
        oracle_all_subgroups(named.extraspecial32().group)


def test_lattice_matches_oracle_on_small_corpus(small_corpus):
    extra = {"C6": named.cyclic(6), "C12": named.cyclic(12),
             "S3": named.symmetric(3), "A4": named.alternating(4)}
    for g in list(small_corpus.values()) + list(extra.values()):
        computed = {n.members for n in normal_subgroups(g).nodes}
        oracle = {s.members for s in oracle_normal_subgroups(g)}
        assert computed == oracle


def test_lattice_matches_join_closure(corpus):
    """The cover search finds the nodes of the pairwise-join closure."""
    c2, c4 = named.cyclic(2), named.cyclic(4)
    c2_4 = direct_product(direct_product(c2, c2), direct_product(c2, c2))
    extra = [
        direct_product(c2_4, c2),
        direct_product(named.quaternion8(), named.dihedral(8)),
        direct_product(named.dihedral(8), named.symmetric(4)),
        direct_product(direct_product(c4, c4), c2),
    ]
    for g in [g for g in corpus.values() if g.order <= 7200] + extra:
        computed = {n.members for n in normal_subgroups(g).nodes}
        assert computed == normal_subgroups_join_closure(g), g.name


def test_lattice_node_orders():
    assert [n.order for n in normal_subgroups(named.symmetric(4)).nodes] \
        == [1, 4, 12, 24]
    assert [n.order for n in normal_subgroups(named.alternating(5)).nodes] \
        == [1, 60]
    a5 = named.alternating(5)
    assert [n.order for n in normal_subgroups(direct_product(a5, a5)).nodes] \
        == [1, 60, 60, 3600]


def test_lattice_closed_under_join_and_meet(small_corpus, dense_corpus):
    """Index join and meet are the set product and the intersection."""
    for g in list(small_corpus.values()) + list(dense_corpus.values()):
        lat = normal_subgroups(g)
        for i, a in enumerate(lat.nodes):
            for j, b in enumerate(lat.nodes):
                assert lat.nodes[lat.join(i, j)].members \
                    == product_of_subgroups(a, b), g.name
                assert lat.nodes[lat.meet(i, j)].members \
                    == a.members & b.members, g.name


def test_join_meet_examples():
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    lat = normal_subgroups(prod)
    left, right = lat.index_of(prod.left_factor), lat.index_of(
        prod.right_factor)
    assert lat.nodes[lat.join(left, right)].order == 3600
    assert lat.meet(left, left) == left
    assert lat.meet(left, right) == 0
    assert lat.join() == 0 and lat.meet() == len(lat) - 1
    assert lat.le(0, left) and not lat.le(left, right)
    es = named.extraspecial32()
    es_lat = normal_subgroups(es.group)
    mid = es_lat.meet(es_lat.index_of(es.left_image),
                      es_lat.index_of(es.right_image))
    assert es_lat.nodes[mid].order == 2


def test_is_chief_factor_examples():
    s4 = named.symmetric(4)
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    assert is_chief_factor(s4, a4, v4)
    assert not is_chief_factor(s4, s4.whole(), s4.trivial_subgroup())
    a5 = named.alternating(5)
    assert is_chief_factor(a5, a5.whole(), a5.trivial_subgroup())
    with pytest.raises(NotNested):
        is_chief_factor(s4, v4, a4)


def test_chief_factor_counts(corpus):
    assert len(chief_factors(corpus["V4"])) == 6
    assert len(chief_factors(corpus["A5"])) == 1
    factors = chief_factors(corpus["A5xA5"])
    assert len(factors) == 4
    from chiefblocks.factors import is_abelian_factor
    assert not any(is_abelian_factor(f) for f in factors)


def test_chief_series_counts(corpus):
    assert len(list(chief_series_iter(corpus["V4"]))) == 3
    assert len(list(chief_series_iter(corpus["A5"]))) == 1
    s4_series = list(chief_series_iter(corpus["S4"]))
    assert len(s4_series) == 1
    assert [n.order for n in s4_series[0]] == [1, 4, 12, 24]
    assert len(list(chief_series_iter(corpus["V4"], max_series=2))) == 2


def test_series_steps_are_chief(small_corpus):
    for g in small_corpus.values():
        lat = normal_subgroups(g)
        for series in chief_series_iter(g):
            for lo, hi in zip(series, series[1:]):
                assert is_chief_factor(g, hi, lo)


def test_equal_series_lengths(corpus):
    for name in ("V4", "S4", "Q8", "D8", "SL23", "SL25", "ES32",
                 "A5xA5", "A5wrC2"):
        lengths = {len(s) - 1 for s in chief_series_iter(corpus[name])}
        assert lengths == {jordan_holder_length(corpus[name])}, name


def test_jordan_holder_length_of_c2_6():
    """615,195 maximal chains; the grading check reads 2,825 nodes once."""
    c2 = named.cyclic(2)
    c2_3 = direct_product(direct_product(c2, c2), c2)
    assert jordan_holder_length(direct_product(c2_3, c2_3)) == 6


def test_ungraded_lattice_raises():
    """A pentagon 1 < Z < R < D8 beside 1 < <s> < D8 is not graded."""
    d8 = named.dihedral(8)
    rot = subgroup_generated(d8, [next(
        x for x in d8.elements() if d8.element_order(x) == 4)])
    z = subgroup_generated(d8, [next(
        x for x in rot.members if d8.element_order(x) == 2)])
    s = subgroup_generated(d8, [next(
        x for x in d8.elements()
        if d8.element_order(x) == 2 and x not in rot.members)])
    one, whole = d8.trivial_subgroup(), d8.whole()
    up = {one.members: [z, s], z.members: [rot], s.members: [whole],
          rot.members: [whole], whole.members: []}
    d8._cache[("lattice", whole.members)] = NormalLattice(
        whole, [one, z, s, rot, whole], up)
    with pytest.raises(InternalCheckError, match="not graded"):
        jordan_holder_length(d8)


def test_node_cap_enforced():
    c2 = named.cyclic(2)
    g = direct_product(direct_product(c2, c2),
                       direct_product(c2, c2))
    g = direct_product(g, c2)  # elementary abelian of order 32
    g.node_cap = 20
    with pytest.raises(NodeCapExceeded):
        normal_subgroups(g)
    # C256 has 9 normal subgroups: the trivial one and 8 atoms.
    c256 = named.cyclic(256)
    c256.node_cap = 5
    with pytest.raises(NodeCapExceeded,
                       match="normal lattice exceeded node cap 5"):
        normal_subgroups(c256)
    c256.node_cap = 9
    assert len(normal_subgroups(c256)) == 9


def test_lattice_cached_by_ambient_alone():
    g = direct_product(named.quaternion8(), named.cyclic(2))
    g.node_cap = 500
    lat = normal_subgroups(g)
    g.node_cap = 1  # a lattice already built is returned as it is
    assert normal_subgroups(g) is lat


def test_sublattice_of_subgroup():
    wr = named.a5_wr_c2()
    lat = normal_subgroups(wr)
    assert [n.order for n in lat.nodes] == [1, 3600, 7200]
    base = next(n for n in lat.nodes if n.order == 3600)
    sub_lat = normal_subgroups(base)
    assert [n.order for n in sub_lat.nodes] == [1, 60, 60, 3600]
    # coordinates are normal in the base but not in the wreath product
    coord = next(n for n in sub_lat.nodes if n.order == 60)
    assert is_normal_in(coord, base)
    assert not is_normal_in(coord, wr.whole())


def test_hasse_covers_of_klein_four():
    v4 = named.klein_four()
    lat = normal_subgroups(v4)
    assert len(lat.covers()) == 6
    bottom = lat.index_of(v4.trivial_subgroup())
    assert sum(1 for i, j in lat.covers() if i == bottom) == 3


def test_covers_match_triple_loop(corpus):
    """One-pass Hasse edges equal the definitional triple loop."""
    c2, c4 = named.cyclic(2), named.cyclic(4)
    extra = [
        direct_product(direct_product(c2, c2), direct_product(c2, c2)),
        direct_product(named.quaternion8(), named.dihedral(8)),
        direct_product(direct_product(c4, c4), c2),
    ]
    for g in list(corpus.values()) + extra:
        lat = normal_subgroups(g)
        edges = lat.covers()
        assert edges == hasse_edges_triple_loop(lat), g.name
        edge_set = set(edges)
        for i, lo in enumerate(lat.nodes):
            for j, hi in enumerate(lat.nodes):
                assert lat.is_cover(lo.members, hi.members) \
                    == ((i, j) in edge_set)
            ups = lat.minimal_nodes_over(lo.members)
            downs = lat.maximal_nodes_under(lo.members)
            assert [lat.index_of(n) for n in ups] \
                == [j for a, j in edges if a == i]
            assert [lat.index_of(n) for n in downs] \
                == sorted(a for a, j in edges if j == i)
