"""The association relation on normal factors and its invariants."""

import itertools

import pytest

from chiefblocks import named
from chiefblocks.errors import (
    NotAssociated,
    NotNormal,
    NotStrictlyNested,
    WorkCapExceeded,
)
from chiefblocks.factors import (
    are_associated,
    association_graph,
    common_compression,
    factor_centralizer,
    factor_group,
    is_abelian_factor,
    is_internal_compression,
    make_factor,
)
from chiefblocks.group import (
    Subgroup,
    direct_product,
    is_normal_in,
    subgroup_generated,
)
from chiefblocks.lattice import chief_factors, normal_subgroups
from oracles import (
    associated_by_products,
    centralizer_equal,
    chief_association_conditions,
    compression_by_products,
    factor_centralizer_by_sweep,
)


def klein_pieces():
    v4 = named.klein_four()
    lat = normal_subgroups(v4)
    a1, a2, a3 = [n for n in lat.nodes if n.order == 2]
    return v4, lat, a1, a2, a3


def test_make_factor_validation():
    s4 = named.symmetric(4)
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    f = make_factor(s4, a4, v4)
    assert f.order == 3
    make_factor(s4, s4.whole(), s4.trivial_subgroup())
    with pytest.raises(NotStrictlyNested):
        make_factor(s4, v4, a4)
    twisted = subgroup_generated(
        s4, [next(x for x in s4.elements() if s4.element_order(x) == 4)])
    with pytest.raises(NotNormal):
        make_factor(s4, twisted, s4.trivial_subgroup())


def test_factor_group_materialization():
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    lat = normal_subgroups(prod)
    left = prod.left_factor
    f = make_factor(prod, prod.whole(), lat.node_with_members(left.members))
    q, proj = factor_group(f)
    assert q.order == 60
    assert not q.is_abelian
    proj.validate()
    es = named.extraspecial32().group
    es_lat = normal_subgroups(es)
    z = next(n for n in es_lat.nodes if n.order == 2)
    fq, _ = factor_group(make_factor(es, es.whole(), z))
    assert fq.order == 16 and fq.is_abelian


def test_factor_centralizer_examples():
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    lat = normal_subgroups(prod)
    left = lat.node_with_members(prod.left_factor.members)
    f = make_factor(prod, left, prod.trivial_subgroup())
    assert factor_centralizer(f).members == prod.right_factor.members
    v4, _, a1, _, _ = klein_pieces()
    assert factor_centralizer(
        make_factor(v4, v4.whole(), v4.trivial_subgroup())).order == 4
    assert factor_centralizer(
        make_factor(v4, a1, v4.trivial_subgroup())).order == 4


def test_factor_centralizer_matches_sweep(corpus, small_corpus,
                                         dense_corpus):
    """One element per class gives the sweep's centralizer, which is normal.

    Ambients: the small and dense corpora, A5wrC2 (untabled) and its base
    of order 3,600, the subgroup ambient H of the block-extension tests.
    """
    wr = corpus["A5wrC2"]
    base = next(n for n in normal_subgroups(wr).nodes if n.order == 3600)
    groups = [*small_corpus.values(), *dense_corpus.values(), wr]
    for amb in [g.whole() for g in groups] + [base]:
        for f in chief_factors(amb):
            c = factor_centralizer(f).members
            assert c == factor_centralizer_by_sweep(amb, f.k.gens,
                                                    f.l.members), f
            assert is_normal_in(Subgroup(amb.parent, c), amb), f


def test_is_abelian_factor():
    s4 = named.symmetric(4)
    lat = normal_subgroups(s4)
    v4 = next(n for n in lat.nodes if n.order == 4)
    a4 = next(n for n in lat.nodes if n.order == 12)
    assert is_abelian_factor(make_factor(s4, a4, v4))
    a5 = named.alternating(5)
    assert not is_abelian_factor(
        make_factor(a5, a5.whole(), a5.trivial_subgroup()))
    prod = direct_product(a5, a5)
    plat = normal_subgroups(prod)
    assert not is_abelian_factor(make_factor(
        prod, prod.whole(), plat.node_with_members(prod.left_factor.members)))


def test_klein_association_pattern():
    """Association holds exactly on the lower/upper pairs with distinct legs."""
    v4, lat, a1, a2, a3 = klein_pieces()
    whole, triv = v4.whole(), v4.trivial_subgroup()
    lowers = {s.members: make_factor(v4, s, triv) for s in (a1, a2, a3)}
    uppers = {s.members: make_factor(v4, whole, s) for s in (a1, a2, a3)}
    for s in (a1, a2, a3):
        for t in (a1, a2, a3):
            expected = s.members != t.members
            assert are_associated(lowers[s.members], uppers[t.members]) \
                == expected
    for f1, f2 in itertools.combinations(lowers.values(), 2):
        assert not are_associated(f1, f2)
    for f1, f2 in itertools.combinations(uppers.values(), 2):
        assert not are_associated(f1, f2)


def test_index_association_matches_set_products(small_corpus,
                                                 dense_corpus):
    """Association and compression by node index equal the set products."""
    for g in list(small_corpus.values()) + list(dense_corpus.values()):
        factors = chief_factors(g)
        for f1 in factors:
            for f2 in factors:
                assert are_associated(f1, f2) \
                    == associated_by_products(f1, f2), g.name
                assert is_internal_compression(f1, f2) \
                    == compression_by_products(f1, f2), g.name


def test_association_is_reflexive(corpus):
    for name in ("V4", "S4", "SL25", "A5xA5"):
        for f in chief_factors(corpus[name]):
            assert are_associated(f, f)


def test_association_is_symmetric(corpus):
    for name in ("V4", "S4", "Q8", "D8", "SL23", "SL25", "A5xA5", "A5wrC2"):
        factors = chief_factors(corpus[name])
        for f1, f2 in itertools.combinations(factors, 2):
            assert are_associated(f1, f2) == are_associated(f2, f1)


def test_internal_compression_examples():
    v4, lat, a1, a2, _ = klein_pieces()
    lower = make_factor(v4, a1, v4.trivial_subgroup())
    upper = make_factor(v4, v4.whole(), a2)
    assert is_internal_compression(lower, upper)
    assert not is_internal_compression(upper, lower)
    assert is_internal_compression(lower, lower)


def test_compression_implies_association(corpus):
    for name in ("V4", "S4", "SL25", "A5xA5", "A5wrC2"):
        factors = chief_factors(corpus[name])
        for f1 in factors:
            for f2 in factors:
                if is_internal_compression(f1, f2):
                    assert are_associated(f1, f2)


def test_association_implies_equal_centralizers(corpus):
    """Holds for all normal factor pairs, abelian factors included."""
    for name in ("V4", "S4", "Q8", "D8", "SL23", "SL25", "A5xA5"):
        factors = chief_factors(corpus[name])
        for f1, f2 in itertools.combinations(factors, 2):
            if are_associated(f1, f2):
                assert centralizer_equal(f1, f2)


def test_second_isomorphism_repair(corpus):
    """K/(K meet L) maps onto KL/L bijectively for normal K, L."""
    from chiefblocks.group import product_of_subgroups
    for name in ("S4", "Q8", "D8", "SL23", "ES32", "A5xA5"):
        g = corpus[name]
        lat = normal_subgroups(g)
        for k in lat.nodes:
            for l in lat.nodes:
                kl = product_of_subgroups(k, l)
                inter = k.members & l.members
                assert len(kl) * len(inter) == k.order * l.order
                if k.order * l.order > 50_000:
                    continue
                # the coset map is injective on K: k-cosets of K meet L
                # hit pairwise distinct L-cosets of KL
                seen = {}
                for x in k.members:
                    for li in l.members:
                        seen.setdefault(g.mul(x, li), x)
                assert len(kl) == len(seen)


def test_ordered_factors_share_no_associate(corpus):
    """If K1 <= L2, nothing is associated to both K1/L1 and K2/L2."""
    for name in ("V4", "S4", "SL23", "SL25", "A5xA5"):
        g = corpus[name]
        lat = normal_subgroups(g)
        factors = chief_factors(g)
        for f1 in factors:
            for f2 in factors:
                if not f1.k.members <= f2.l.members:
                    continue
                for f3 in factors:
                    assert not (are_associated(f3, f1)
                                and are_associated(f3, f2))
                assert not are_associated(f1, f2)


def test_common_compression():
    v4, lat, a1, a2, a3 = klein_pieces()
    lower = make_factor(v4, a1, v4.trivial_subgroup())
    upper = make_factor(v4, v4.whole(), a2)
    cc = common_compression(lower, upper)
    assert cc.k.members == v4.whole().members
    assert cc.l.members == a2.members
    assert common_compression(lower, lower) == lower
    with pytest.raises(NotAssociated):
        common_compression(lower, make_factor(v4, v4.whole(), a1))
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    plat = normal_subgroups(prod)
    left = plat.node_with_members(prod.left_factor.members)
    right = plat.node_with_members(prod.right_factor.members)
    f1 = make_factor(prod, left, prod.trivial_subgroup())
    f2 = make_factor(prod, prod.whole(), right)
    cc = common_compression(f1, f2)
    assert cc.k.order == 3600 and cc.l.order == 60


def test_common_compression_check_raises(monkeypatch):
    """The compression self-check is a raise, so it also runs under -O."""
    import chiefblocks.factors as factors_mod
    from chiefblocks.errors import InternalCheckError
    v4, lat, a1, a2, a3 = klein_pieces()
    lower = make_factor(v4, a1, v4.trivial_subgroup())
    upper = make_factor(v4, v4.whole(), a2)
    monkeypatch.setattr(factors_mod, "is_internal_compression",
                        lambda f1, f2: False)
    with pytest.raises(InternalCheckError):
        common_compression(lower, upper)


def test_association_graph_shapes(corpus):
    verts, edges = association_graph(corpus["V4"])
    assert len(verts) == 6 and len(edges) == 6
    degree = {i: 0 for i in range(6)}
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert all(d == 2 for d in degree.values())
    # connected 2-regular graph on 6 vertices: a single hexagon
    adj = {i: set() for i in range(6)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for n in adj[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    assert len(seen) == 6

    verts, edges = association_graph(corpus["A5"])
    assert len(verts) == 1 and edges == []

    verts, edges = association_graph(corpus["A5xA5"])
    assert len(verts) == 4 and len(edges) == 2
    assert len({i for e in edges for i in e}) == 4


def test_association_pair_cap(corpus, monkeypatch):
    import chiefblocks.factors as factors
    # V4 has 6 chief factors, so 15 pair tests.
    monkeypatch.setattr(factors, "ASSOCIATION_PAIR_CAP", 15)
    assert len(association_graph(corpus["V4"])[0]) == 6
    monkeypatch.setattr(factors, "ASSOCIATION_PAIR_CAP", 14)
    with pytest.raises(WorkCapExceeded, match="association stage: 6 chief "
                       "factors need 15 pair tests, over the cap of 14"):
        association_graph(corpus["V4"])


def test_klein_nontransitivity_witness():
    """Consecutively associated factors whose ends share a chief series."""
    v4, lat, a1, a2, a3 = klein_pieces()
    triv, whole = v4.trivial_subgroup(), v4.whole()
    f0 = make_factor(v4, a1, triv)
    f1 = make_factor(v4, whole, a2)
    f2 = make_factor(v4, a3, triv)
    f3 = make_factor(v4, whole, a1)
    assert are_associated(f0, f1)
    assert are_associated(f1, f2)
    assert are_associated(f2, f3)
    assert not are_associated(f0, f3)
    # f0 and f3 sit in the common chief series 1 < A1 < V4
    series = [triv, lat.node_with_members(a1.members), whole]
    assert f0.k.members == series[1].members \
        and f0.l.members == series[0].members
    assert f3.k.members == series[2].members \
        and f3.l.members == series[1].members


def test_three_chief_conditions_agree(corpus):
    for name in ("S5", "SL25", "A5xA5", "A5wrC2"):
        g = corpus[name]
        nonab = [f for f in chief_factors(g) if not is_abelian_factor(f)]
        for f1 in nonab:
            for f2 in nonab:
                c1, c2, c3 = chief_association_conditions(f1, f2)
                assert c1 == c2 == c3


def test_association_requires_shared_ambient(corpus):
    from chiefblocks.errors import DifferentParents
    v4 = corpus["V4"]
    s4 = corpus["S4"]
    f1 = make_factor(v4, v4.whole(), v4.trivial_subgroup())
    f2 = make_factor(s4, s4.whole(),
                     next(n for n in normal_subgroups(s4).nodes
                          if n.order == 12))
    with pytest.raises(DifferentParents):
        are_associated(f1, f2)
