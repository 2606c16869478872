"""Normal lattice enumeration against the brute-force subgroup oracle."""

from collections import Counter

import pytest

from chiefblocks import named
from chiefblocks.errors import (
    DifferentParents,
    InternalCheckError,
    NodeCapExceeded,
    NotNested,
    NotNormal,
)
import chiefblocks.group as group_mod
import chiefblocks.lattice as lattice_mod
from chiefblocks.group import (
    commutator_subgroup,
    conjugacy_classes,
    direct_product,
    is_normal_in,
    normal_closure,
    semidirect_product,
    subgroup_generated,
)
from chiefblocks.lattice import (
    NormalLattice,
    cached_lattice,
    chief_factors,
    chief_series_iter,
    is_chief_factor,
    is_perfect,
    jordan_holder_length,
    normal_subgroups,
)
from oracles import (
    OracleBoundExceeded,
    central_elementary_subgroups_by_mul,
    hasse_edges_triple_loop,
    normal_closure_by_columns,
    normal_closure_by_mul,
    normal_subgroups_join_closure,
    oracle_all_subgroups,
    oracle_normal_subgroups,
    principal_subgroups_closing_every_class,
    product_of_subgroups,
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


def _least_node_over(lat: NormalLattice, x: int) -> int:
    """Index of the least lattice node holding x, by the lattice order."""
    return lat.meet(*(i for i, n in enumerate(lat.nodes) if x in n.members))


def test_least_node_over_a_class_is_its_normal_closure(corpus, dense_corpus):
    """ncl(x) is the least node holding x, for every class representative.

    The closures come from oracles independent of the class rows that build
    both the lattice and ``normal_closure``: ``normal_closure_by_mul`` up to
    order 7,200, and above it (S5wrC2, where the by-``mul`` oracle takes
    7.6 s) the element walk ``normal_closure_by_columns``.  Ambients: the
    corpus, the dense corpus, and in A5wrC2 its base of order
    3,600 and an A5 of order 60, whose classes are too small to pay for
    columns.
    """
    wr = corpus["A5wrC2"]
    a5 = normal_closure(wr.base_part, [wr.embed_base(wr.base.embed_left(1))])
    ambients = [g.whole() for g in [*corpus.values(), *dense_corpus.values()]]
    for amb in [*ambients, wr.base_part, a5]:
        lat = normal_subgroups(amb)
        oracle = (normal_closure_by_mul if amb.order <= 7200
                  else normal_closure_by_columns)
        for cls in conjugacy_classes(amb):
            assert lat.nodes[_least_node_over(lat, cls[0])].members \
                == oracle(amb, [cls[0]]), (amb, cls[0])


def test_is_perfect_is_derived_subgroup_equality(corpus, dense_corpus):
    """A node N is perfect by its lower covers iff [N, N] = N.

    Ambients: the corpus, the dense corpus and A5wrC2's base of order 3,600.
    """
    ambients = [g.whole() for g in [*corpus.values(), *dense_corpus.values()]]
    for amb in [*ambients, corpus["A5wrC2"].base_part]:
        lat = normal_subgroups(amb)
        for i, n in enumerate(lat.nodes):
            derived = commutator_subgroup(n.parent, n, n)
            assert is_perfect(lat, i) == (derived.order == n.order), (amb, i)


def test_join_with_an_atom_is_product(corpus, dense_corpus):
    """``lat.join`` of a node N and an atom ncl(x) is the product N*ncl(x)
    of the coset-sweep oracle, for every node and class representative x."""
    for g in [*corpus.values(), *dense_corpus.values()]:
        lat = normal_subgroups(g)
        atoms = {_least_node_over(lat, cls[0])
                 for cls in conjugacy_classes(g)}
        for i, n in enumerate(lat.nodes):
            for a in atoms:
                assert lat.nodes[lat.join(i, a)].members \
                    == product_of_subgroups(n, lat.nodes[a]), (g.name, i, a)


def test_lattice_builds_each_column_once():
    """A class row reads its representative's column, built at most once.

    A5xC2^4 (order 960) reads its rows from its factors' rows and builds
    no column of its own.  S5wrC2 builds columns for the rows of elements
    outside the base: only for class representatives, and at most once
    each, atoms and products together.  The classes are computed first,
    so every column counted here is built by ``normal_subgroups``.
    """
    c2 = named.cyclic(2)
    a5c2pow4 = named.alternating(5)
    for _ in range(4):
        a5c2pow4 = direct_product(a5c2pow4, c2)
    for g, nodes in [(a5c2pow4, 134), (named.s5_wr_c2(), 7)]:
        reps = [cls[0] for cls in conjugacy_classes(g)[1:]]
        calls: Counter = Counter()
        build = g._rcol_impl

        def counted(s):
            calls[s] += 1
            return build(s)

        g._rcol_impl = counted
        assert len(normal_subgroups(g)) == nodes
        del g._rcol_impl
        assert set(calls) <= set(reps)
        assert max(calls.values(), default=1) == 1, calls
        assert bool(calls) == (g.order == 28_800), g.name


def _product_columns(monkeypatch, g) -> list[int]:
    """Record s for each column of g itself built by ``_rcol_impl`` or
    ``_rcol_affine``, not those of its factors."""
    built: list[int] = []
    for name in ("_rcol_impl", "_rcol_affine"):
        def recorded(self, s, *args, f=getattr(type(g), name)):
            if self is g:
                built.append(s)
            return f(self, s, *args)

        monkeypatch.setattr(type(g), name, recorded)
    return built


@pytest.mark.parametrize("factors", [("S5", "S5"),
                                     ("A5", "A5", "C2", "C2", "C2")],
                         ids=["S5xS5", "A5^2xC2^3"])
def test_direct_product_lattice_builds_no_product_column(factors,
                                                         monkeypatch):
    """Every class row of these products comes from the factors' rows."""
    groups = {n: named.build_named(n) for n in set(factors)}
    g = groups[factors[0]]
    for name in factors[1:]:
        g = direct_product(g, groups[name])
    conjugacy_classes(g)
    built = _product_columns(monkeypatch, g)
    assert len(normal_subgroups(g)) == {3600 * 4: 10, 28_800: 64}[g.order]
    assert built == []


def test_semidirect_lattice_builds_base_columns_only_where_read(monkeypatch):
    """S5wrC2 builds the column of a base element only when its row is
    read at a class outside the base; inside it, the base's rows fuse."""
    wr = named.s5_wr_c2()
    classes = conjugacy_classes(wr)
    built = _product_columns(monkeypatch, wr)
    reads: list[tuple[int, int]] = []
    row = group_mod.class_row

    def recorded(amb, x, i, rows):
        reads.append((x, i))
        return row(amb, x, i, rows)

    monkeypatch.setattr(group_mod, "class_row", recorded)
    monkeypatch.setattr(lattice_mod, "class_row", recorded)
    assert len(normal_subgroups(wr)) == 7
    t = wr.top.order
    outside = {x for x, i in reads if classes[i][0] % t}
    base_built = [x for x in built if x % t == 0]
    assert set(base_built) <= outside
    assert any(x % t == 0 for x, _ in reads)
    assert built  # the elements outside the base read their columns


def test_lattice_node_orders():
    assert [n.order for n in normal_subgroups(named.symmetric(4)).nodes] \
        == [1, 4, 12, 24]
    assert [n.order for n in normal_subgroups(named.alternating(5)).nodes] \
        == [1, 60]
    a5 = named.alternating(5)
    assert [n.order for n in normal_subgroups(direct_product(a5, a5)).nodes] \
        == [1, 60, 60, 3600]


def test_node_order_is_order_then_sorted_members(corpus, dense_corpus):
    """Nodes sorted by their class bitsets are sorted by their members."""
    for g in [*corpus.values(), *dense_corpus.values()]:
        nodes = normal_subgroups(g).nodes
        assert nodes == sorted(
            nodes, key=lambda n: (n.order, n.sorted_members())), g.name


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
            assert lat.join_row(i) == [lat.join(i, j)
                                       for j in range(len(lat))], g.name


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
    c4 = subgroup_generated(
        s4, [next(x for x in s4.elements() if s4.element_order(x) == 4)])
    with pytest.raises(NotNormal):
        is_chief_factor(s4, s4.whole(), c4)


def test_index_of_resolves_normal_subgroups_only():
    """A subgroup of the same parent is normal iff it is a node; a subgroup
    of a separately built copy of the group is refused, equal members or
    not."""
    s4, copy = named.symmetric(4), named.symmetric(4)
    lat = normal_subgroups(s4)
    assert [lat.index_of(n) for n in lat.nodes] == list(range(len(lat)))
    for h in (copy.trivial_subgroup(), copy.whole()):
        with pytest.raises(DifferentParents):
            lat.index_of(h)
    for h in oracle_all_subgroups(s4):
        if is_normal_in(h, s4):
            assert lat.nodes[lat.index_of(h)].members == h.members
        else:
            with pytest.raises(NotNormal):
                lat.index_of(h)


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
    cached_lattice(whole, NormalLattice(
        whole, [one, z, s, rot, whole], [[1, 2], [3], [4], [4], []]))
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


def test_node_cap_refuses_central_subgroups_before_any_class_row(
        monkeypatch):
    """C2^14 has 16,383 atoms; its central subgroups of exponent 2 alone
    pass the default cap, so no class row is built."""

    def no_rows(*args):
        raise AssertionError("class_closure called")

    monkeypatch.setattr(lattice_mod, "class_closure", no_rows)
    c2 = named.cyclic(2)
    g = c2
    for _ in range(13):
        g = direct_product(g, c2)
    with pytest.raises(NodeCapExceeded,
                       match="normal lattice exceeded node cap 10000$"):
        normal_subgroups(g)


def test_central_check_walks_each_cyclic_subgroup_once(
        corpus, dense_corpus, monkeypatch):
    """z^p = 1 iff the order of z divides p, and one ``element_order`` walk
    serves a whole cyclic subgroup: C1021's check makes its generator's
    1,020 products, where p - 1 products for each central z made 1,041,420.
    Its count matches z^p by repeated multiplication."""
    c1021 = named.cyclic(1021)
    classes = conjugacy_classes(c1021)
    calls = []
    real = type(c1021)._mul_impl
    monkeypatch.setattr(type(c1021), "_mul_impl",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    assert lattice_mod._central_elementary_subgroups(c1021, classes) == 2
    assert len(calls) == 1020
    monkeypatch.undo()

    c2, c3 = named.cyclic(2), named.cyclic(3)
    c2pow5 = c2
    for _ in range(4):
        c2pow5 = direct_product(c2pow5, c2)
    extra = {"C2^5": c2pow5, "C3xC9": direct_product(c3, named.cyclic(9)),
             "V4xC3": direct_product(named.klein_four(), c3)}
    for name, g in {**corpus, **dense_corpus, **extra}.items():
        assert lattice_mod._central_elementary_subgroups(
            g, conjugacy_classes(g)) \
            == central_elementary_subgroups_by_mul(g), name


@pytest.mark.parametrize("cap", [373, 374])
def test_node_cap_bound_refuses_nothing_that_fits(cap):
    """C2^5 has 374 subgroups, all normal: the cap 374 holds its lattice."""
    c2 = named.cyclic(2)
    g = c2
    for _ in range(4):
        g = direct_product(g, c2)
    g.node_cap = cap
    if cap < 374:
        with pytest.raises(NodeCapExceeded, match=f"node cap {cap}$"):
            normal_subgroups(g)
    else:
        assert len(normal_subgroups(g)) == 374


def _c3pow4_by_inversion():
    """C3^4 x| C2, C2 inverting: order 162 and a trivial center, with 41
    principal normal subgroups (the 40 <v> and the whole group) among 213
    nodes (the 212 subgroups of C3^4 and the whole group)."""
    c3 = named.cyclic(3)
    base = direct_product(direct_product(c3, c3), direct_product(c3, c3))
    return semidirect_product(base, named.cyclic(2), [base.inverses()])


def _count_class_closures(monkeypatch) -> list[int]:
    calls = [0]
    closure = lattice_mod.class_closure

    def counting(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(lattice_mod, "class_closure", counting)
    return calls


@pytest.mark.parametrize("cap", [30, 41, 42, 212, 213])
def test_node_cap_counts_principal_subgroups(cap, monkeypatch):
    """A cap below 42 is passed by the principal normal subgroups and the
    trivial node, and refused after ``cap`` closures, not the 41 that
    closing every candidate takes; a cap below 213 by the search."""
    g = _c3pow4_by_inversion()
    g.node_cap = cap
    calls = _count_class_closures(monkeypatch)
    if cap < 213:
        with pytest.raises(NodeCapExceeded,
                           match=f"^normal lattice exceeded node cap {cap}$"):
            normal_subgroups(g)
        if cap <= 41:
            assert calls[0] == cap
    else:
        assert len(normal_subgroups(g)) == 213


def test_principal_subgroups_match_closing_every_class(corpus, dense_corpus):
    for name, g in {**corpus, **dense_corpus,
                    "C3^4:C2": _c3pow4_by_inversion()}.items():
        got = lattice_mod._principal_subgroups(g.whole(), {})
        want = principal_subgroups_closing_every_class(g)
        assert list(got.items()) == list(want.items()), name


@pytest.mark.parametrize("name, closures", [
    ("A5wrC2", 2), ("S5wrC2", 8), ("S5xS5", 14)])
def test_certificates_skip_closures(name, closures, corpus, monkeypatch):
    """Closing every candidate takes 14, 34 and 48 closures."""
    s5 = named.symmetric(5)
    g = corpus.get(name) or direct_product(s5, s5)
    calls = _count_class_closures(monkeypatch)
    lattice_mod._principal_subgroups(g.whole(), {})
    assert calls[0] == closures


def test_certificate_needs_its_row_test(monkeypatch):
    """Skipping every candidate inside a found ncl(x) loses nodes."""
    monkeypatch.setattr(lattice_mod, "class_row", lambda *args: -1)
    s4 = named.symmetric(4)
    assert {n.members for n in normal_subgroups(s4).nodes} \
        != {s.members for s in oracle_normal_subgroups(named.symmetric(4))}
    for g, nodes in [(named.symmetric(5), 3), (named.a5_wr_c2(), 3),
                     (direct_product(named.dihedral(8), s4), 31)]:
        assert len(normal_subgroups(g)) < nodes, g.name


def test_lattice_cached_by_ambient_alone():
    g = direct_product(named.quaternion8(), named.cyclic(2))
    g.node_cap = 500
    lat = normal_subgroups(g)
    g.node_cap = 1  # a lattice already built is returned as it is
    assert normal_subgroups(g) is lat


def test_cached_lattice_reads_the_built_lattice():
    g = direct_product(named.quaternion8(), named.cyclic(2))
    assert cached_lattice(g.whole()) is None
    lat = normal_subgroups(g)
    assert cached_lattice(g.whole()) is lat
    assert cached_lattice(lat.nodes[1]) is None  # keyed by the ambient
    assert normal_subgroups(lat.nodes[1]) is cached_lattice(lat.nodes[1])


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
                assert lat.is_cover(lo, hi) \
                    == ((i, j) in edge_set)
            assert lat.up[i] == [j for a, j in edges if a == i]
            assert lat.down[i] == sorted(a for a, j in edges if j == i)
