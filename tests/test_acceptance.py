"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion reports a PASS/FAIL line in the pytest terminal summary (see
conftest.pytest_terminal_summary).  Timed criteria measure a cold run built
inside the test, not the session-cached fixtures.
"""

import functools
import itertools
import time

import pytest

import conftest
from chiefblocks import named
from chiefblocks.autos import is_characteristically_simple
from chiefblocks.blocks import (
    chief_blocks,
    covering_filter,
    covers,
    lowermost_representative,
    minimal_cover,
    refine_series,
    uppermost_representative,
)
from chiefblocks.cli import AnalyzeOptions, analyze, parse_spec
from chiefblocks.factors import (
    are_associated,
    factor_centralizer,
    is_abelian_factor,
    is_internal_compression,
    make_factor,
)
from chiefblocks.group import (
    center,
    commutator_subgroup,
    quotient,
)
from chiefblocks.lattice import (
    chief_factors,
    chief_series_iter,
    normal_subgroups,
)
from chiefblocks.products import (
    central_quotient_factorization,
    diagonal_map,
    is_quasi_direct_factorization,
    single_intersection_trivial,
)
from chiefblocks.semisimple import (
    SEMISIMPLE,
    STRICT_SEMISIMPLE,
    WEAK,
    block_type,
    charsimple_type,
    components,
    quotient_components,
    semisimple_type,
    simple_quotient_duality,
)
from oracles import (
    chief_association_conditions,
    commutator_pairs,
    independence_property,
    oracle_all_subgroups,
    oracle_normal_subgroups,
)


def criterion(n, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS[n] = (name, "FAIL")
                raise
            conftest.ACCEPTANCE_RESULTS[n] = (name, "PASS")
            print(f"criterion {n} ({name}): PASS")
            return result
        return wrapper
    return deco


@criterion(1, "Klein-four reproduction")
def test_criterion_1_klein_four():
    start = time.monotonic()
    v4 = named.klein_four()
    assert len(oracle_all_subgroups(v4)) == 5
    lat = normal_subgroups(v4)
    series = list(chief_series_iter(v4))
    assert len(series) == 3
    factors = chief_factors(v4)
    assert len(factors) == 6

    triv, whole = v4.trivial_subgroup(), v4.whole()
    ais = [n for n in lat.nodes if n.order == 2]
    lowers = {a.members: make_factor(v4, a, triv) for a in ais}
    uppers = {a.members: make_factor(v4, whole, a) for a in ais}
    for f1, f2 in itertools.combinations(factors, 2):
        lower_upper = (
            (f1.l.order == 1 and f2.l.order == 2
             and f1.k.members != f2.l.members)
            or (f2.l.order == 1 and f1.l.order == 2
                and f2.k.members != f1.l.members))
        assert are_associated(f1, f2) == lower_upper

    from chiefblocks.factors import association_graph
    verts, edges = association_graph(v4)
    assert len(verts) == 6 and len(edges) == 6
    adj = {i: [] for i in range(6)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    assert all(len(v) == 2 for v in adj.values())
    cycle, cur, prev = {0}, adj[0][0], 0
    while cur != 0:
        cycle.add(cur)
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
    assert len(cycle) == 6  # a single 6-cycle

    a1, a2, a3 = ais
    f0 = make_factor(v4, a1, triv)
    f1 = make_factor(v4, whole, a2)
    f2 = make_factor(v4, a3, triv)
    f3 = make_factor(v4, whole, a1)
    assert are_associated(f0, f1)
    assert are_associated(f1, f2)
    assert are_associated(f2, f3)
    assert not are_associated(f0, f3)
    # f0 and f3 stack in the common chief series 1 < A1 < V4
    assert f0.k.members == f3.l.members
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"Klein-four run took {elapsed:.2f}s"


def _fresh_corpus():
    return conftest._build_corpus()


@criterion(2, "association-equivalence suite")
def test_criterion_2_association_suite():
    start = time.monotonic()
    groups = _fresh_corpus()
    for name, g in groups.items():
        lat = normal_subgroups(g)
        nonab = [f for f in chief_factors(g)
                 if not is_abelian_factor(f)]
        # partition by pairwise association
        assoc_classes = []
        for f in nonab:
            for cls in assoc_classes:
                if are_associated(f, cls[0]):
                    cls.append(f)
                    break
            else:
                assoc_classes.append([f])
        by_assoc = {frozenset((x.k.members, x.l.members) for x in cls)
                    for cls in assoc_classes}
        cent_classes: dict[frozenset, set] = {}
        for f in nonab:
            cent_classes.setdefault(
                factor_centralizer(f).members, set()).add(
                    (f.k.members, f.l.members))
        by_cent = {frozenset(v) for v in cent_classes.values()}
        assert by_assoc == by_cent, name
        for f1 in nonab:
            for f2 in nonab:
                c1, c2, c3 = chief_association_conditions(f1, f2)
                assert c1 == c2 == c3, name
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"association suite took {elapsed:.1f}s"


@criterion(3, "refinement theorem")
def test_criterion_3_refinement(corpus):
    for name, g in corpus.items():
        lat = normal_subgroups(g)
        nonab = [f for f in chief_factors(g)
                 if not is_abelian_factor(f)]
        for series in chief_series_iter(g):
            for f in nonab:
                i, b, d = refine_series(g, series, f)
                out = make_factor(g, d, b)
                assert are_associated(out, f)
                assert not any(b.members < n.members < d.members
                               for n in lat.nodes)
                for j in range(len(series) - 1):
                    if j == i:
                        continue
                    for x in lat.nodes:
                        if not (series[j].members <= x.members
                                and x.members <= series[j + 1].members):
                            continue
                        for y in lat.nodes:
                            if not (series[j].members <= y.members
                                    and y.members < x.members):
                                continue
                            assert not are_associated(
                                make_factor(g, x, y), f), (name, j)


@criterion(4, "covering filters and minimal covers")
def test_criterion_4_covering_filters(corpus):
    for name, g in corpus.items():
        lat = normal_subgroups(g)
        for block in chief_blocks(g).blocks:
            filt = covering_filter(g, block)
            filt_members = {n.members for n in filt}
            for x, y in itertools.combinations(filt, 2):
                assert x.members & y.members in filt_members, name
            g_a = minimal_cover(g, block)
            assert not g_a.members <= block.centralizer.members
            lower = lowermost_representative(g, block)
            upper = uppermost_representative(g, block)
            for rep in block.representatives:
                assert is_internal_compression(lower, rep)
                assert is_internal_compression(rep, upper)
            # the quotient by the centralizer is monolithic with socle
            # the uppermost representative
            over = lat.minimal_nodes_over(block.centralizer.members)
            assert len(over) == 1
            assert over[0].members == upper.k.members
            assert factor_centralizer(upper).members \
                == block.centralizer.members


@criterion(5, "oracle equivalence")
def test_criterion_5_oracles(corpus):
    for name, g in corpus.items():
        if g.order > 24:
            continue
        computed = {n.members for n in normal_subgroups(g).nodes}
        brute = {s.members for s in oracle_normal_subgroups(g)}
        assert computed == brute, name
        lat = normal_subgroups(g)
        for a in lat.nodes:
            for b in lat.nodes:
                assert commutator_subgroup(g, a, b).members \
                    == commutator_pairs(g, a, b)


@criterion(6, "products and independence")
def test_criterion_6_products(corpus):
    prod = corpus["A5xA5"]
    d = diagonal_map(prod, [prod.left_factor, prod.right_factor])
    assert d.injective and d.kernel.order == 1
    assert d.kernel.members <= center(prod).members

    es = named.extraspecial32()
    d2 = diagonal_map(es.group, [es.left_image, es.right_image])
    assert not d2.injective and d2.kernel.order == 2
    assert d2.kernel.members <= center(es.group).members
    assert d2.injective == is_quasi_direct_factorization(
        es.group, [es.left_image, es.right_image])

    v4 = corpus["V4"]
    ais = [n for n in normal_subgroups(v4).nodes if n.order == 2]
    d3 = diagonal_map(v4, ais[:2])
    assert d3.injective and d3.kernel.order == 1

    for name in ("V4", "S4", "Q8", "D8", "SL23"):
        g = corpus[name]
        nodes = normal_subgroups(g).nodes
        for size in (2, 3, 4):
            for parts in itertools.combinations(nodes, size):
                assert independence_property(g, list(parts)) \
                    == single_intersection_trivial(g, list(parts)), name

    m, fact = central_quotient_factorization(
        es.group, [es.left_image, es.right_image],
        es.group.trivial_subgroup())
    assert m.members == center(es.group).members
    quotient_group = fact.ambient.parent
    assert quotient_group.order == 16
    assert all(quotient_group.mul(x, x) == 0
               for x in quotient_group.elements())
    assert fact.kind == "quasi-direct"


@criterion(7, "semisimple suite")
def test_criterion_7_semisimple(corpus):
    prod = corpus["A5xA5"]
    assert {c.members for c in components(prod)} \
        == {prod.left_factor.members, prod.right_factor.members}
    assert [c.order for c in components(corpus["S5"])] == [60]
    assert [c.order for c in components(corpus["SL25"])] == [120]
    assert components(corpus["ES32"]) == []

    # quotient behavior and strictness
    sl = corpus["SL25"]
    q, _, comps = quotient_components(sl, center(sl))
    assert [c.order for c in comps] == [60]
    assert semisimple_type(q) == STRICT_SEMISIMPLE
    lat = normal_subgroups(prod)
    left = lat.node_with_members(prod.left_factor.members)
    _, _, comps2 = quotient_components(prod, left)
    assert [c.order for c in comps2] == [60]

    # duality
    pairs = simple_quotient_duality(prod)
    assert {(m.members, n.members) for m, n in pairs} == {
        (prod.left_factor.members, prod.right_factor.members),
        (prod.right_factor.members, prod.left_factor.members)}
    assert [(m.order, n.order) for m, n in simple_quotient_duality(sl)] \
        == [(120, 2)]

    # semisimple characterization via simple-quotient kernels, all corpus
    from chiefblocks.group import derived_subgroup
    for name, g in corpus.items():
        glat = normal_subgroups(g)
        derived = derived_subgroup(g)
        kernels = [n for n in glat.nodes
                   if n.order < g.order
                   and not any(n.members < m.members for m in glat.nodes
                               if m.order < g.order)
                   and not derived.members <= n.members]
        inter = frozenset(range(g.order))
        for n in kernels:
            inter &= n.members
        rhs = (inter == center(g).members
               and all(any(n.members <= k.members for k in kernels)
                       for n in glat.nodes if n.order < g.order))
        assert rhs == (semisimple_type(g) != "not-semisimple"), name

    # for semisimple-type members: blocks = antichain, biject with components
    for name in ("A5", "SL25", "A5xA5"):
        g = corpus[name]
        bp = chief_blocks(g)
        comps = components(g)
        assert len(bp) == len(comps)
        for a in bp.blocks:
            for b in bp.blocks:
                assert (a.centralizer.members <= b.centralizer.members) \
                    == (a is b)
            assert covers(minimal_cover(g, a), a)


@criterion(8, "block extension suite")
def test_criterion_8_extensions(corpus):
    from chiefblocks.extensions import (
        antichain_orbit_analysis,
        extend_block,
        extension_poset_check,
        stacking_structure,
    )
    wr = corpus["A5wrC2"]
    lat = normal_subgroups(wr)
    base = next(n for n in lat.nodes if n.order == 3600)
    bph = chief_blocks(base)
    assert len(bph) == 2
    socle_block = chief_blocks(wr).blocks[0]
    for a in bph.blocks:
        ext = extend_block(wr, base, a)
        assert ext == socle_block
        # covers-iff over the whole lattice of G
        for k in lat.nodes:
            covers_ext = not k.members <= ext.centralizer.members
            kh = k.members & base.members
            covers_a = not kh <= a.centralizer.members
            assert covers_ext == covers_a
    st = stacking_structure(wr, base)
    assert [(sorted(c), k) for c, k in st.classes] \
        == [([0, 1], "antichain-orbit")]
    for a in bph.blocks:
        rep = antichain_orbit_analysis(wr, base, a)
        assert rep.class_is_antichain_orbit
        assert rep.has_minimal_invariant
        assert rep.conjugate_factorization
    assert extension_poset_check(wr, base).verified


@criterion(9, "trichotomy discipline")
def test_criterion_9_trichotomy(corpus):
    char_simple = {name: is_characteristically_simple(g)
                   for name, g in corpus.items()}
    assert {n for n, v in char_simple.items() if v} \
        == {"V4", "A5", "A5xA5"}
    verdicts = {}
    for name, flag in char_simple.items():
        if flag:
            verdicts[name] = charsimple_type(corpus[name])
    assert verdicts == {"V4": WEAK, "A5": SEMISIMPLE, "A5xA5": SEMISIMPLE}
    assert "stacking" not in verdicts.values()
    # block types across the corpus are never stacking either
    for name, g in corpus.items():
        for b in chief_blocks(g).blocks:
            assert block_type(g, b) == SEMISIMPLE, name


@criterion(10, "determinism")
def test_criterion_10_determinism():
    for text in ('{"kind":"named","name":"V4"}',
                 '{"kind":"named","name":"A5wrC2"}'):
        first = analyze(parse_spec(text),
                        AnalyzeOptions(components=True)).render()
        second = analyze(parse_spec(text),
                         AnalyzeOptions(components=True)).render()
        assert first == second
        assert first.encode() == second.encode()
