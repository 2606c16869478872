"""Lattice reads against element constructions on random products.

Each input is a direct product of two random permutation groups of degree
at most 5, or its quotient by a random lattice node, of order at most 200,
or the wreath product B wr C2 of one of order at most 10 (C2 swapping the
coordinates of B x B), whose base class rows are fused from its base's.
On it the lattice reads are compared with the constructions they replaced:
``refine_series`` with the commutator construction on up to 20 chief
series, ``layer`` with the closure of the components, the centralizer of
each node N by one element per class (the factor centralizer of N/1) with
``centralizer_subgroup``, the lattice read of each non-abelian chief
factor's centralizer with the class test, and ``association_graph`` with
the pairwise test, the principal normal subgroups with closing every
class, and ``components`` with the sweep of every node, there and on
B wr C2 for random B of order at most 60.  Characteristic simplicity,
read from the socle and the atoms, is compared with the enumeration of
automorphisms.  On the same draws, every group that passes
``verify_group_axioms`` (a product from its factors, a quotient from its
parent and its cosets) must pass the element-wise group-law oracle, and
the class spaces of the group and of its recorded factor images, which a
product takes from its factors, must equal the orbits found through
``mul``.  The nodes come in (order, sorted members) order, every class
row equals its definition by the column of its element, and every node's
members, filled on first read, are the union of its classes.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import conftest  # noqa: E402
from chiefblocks.autos import is_characteristically_simple  # noqa: E402
from chiefblocks.blocks import refine_series  # noqa: E402
from chiefblocks.errors import SearchCapExceeded  # noqa: E402
from chiefblocks.factors import (  # noqa: E402
    NormalFactor,
    association_graph,
    factor_centralizer,
    is_abelian_factor,
)
from chiefblocks.group import (  # noqa: E402
    centralizer_subgroup,
    class_row,
    direct_product,
    factor_centralizer_members,
    group_from_permutations,
    quotient,
    verify_group_axioms,
)
from chiefblocks.lattice import (  # noqa: E402
    _principal_subgroups,
    chief_factors,
    chief_series_iter,
    normal_subgroups,
)
from chiefblocks.named import wreath_c2  # noqa: E402
from chiefblocks.semisimple import components, layer  # noqa: E402
from oracles import (  # noqa: E402
    association_edges_pairwise,
    characteristically_simple_by_automorphisms,
    class_ambients,
    class_row_by_column,
    class_space_matches_mul,
    components_all_nodes,
    group_laws_by_elements,
    layer_by_closure,
    lazy_nodes_match_classes,
    normal_closure_by_mul,
    principal_subgroups_closing_every_class,
    refine_series_by_commutators,
)

# A5, S5, A4 and S4 come first, so the derandomized draws reach
# non-abelian chief factors as well as random groups.
SEEDED = [[(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
          [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
          [(1, 2, 0, 3), (1, 0, 3, 2)],
          [(1, 2, 3, 0), (1, 0, 2, 3)]]
generator_lists = st.one_of(
    st.sampled_from(SEEDED),
    st.integers(min_value=2, max_value=5).flatmap(lambda n: st.lists(
        st.permutations(range(n)), min_size=1, max_size=2)))


@st.composite
def products_and_quotients(draw):
    """G x H of order <= 200, or its quotient by a node other than 1, or
    G wr C2 for |G| <= 10, whose class rows over the base are fused from
    the rows of G x G."""
    left = group_from_permutations(draw(generator_lists))
    if left.order <= 10 and draw(st.booleans()):
        return wreath_c2(left)
    right = group_from_permutations(draw(generator_lists))
    assume(left.order * right.order <= 200)
    g = direct_product(left, right)
    nodes = normal_subgroups(g).nodes
    kernel = nodes[draw(st.integers(0, len(nodes) - 1))]
    return g if kernel.order == 1 else quotient(g, kernel)[0]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_lattice_reads_match_element_constructions(g):
    lat = normal_subgroups(g)
    nonabelian = [f for f in chief_factors(g) if not is_abelian_factor(f)]
    for f in nonabelian:
        assert lat.nodes[lat.centralizer(lat.index_of(f.k),
                                         lat.index_of(f.l))].members \
            == factor_centralizer_members(g, f.k.gens, f.l.members)
    for series in chief_series_iter(g, max_series=20):
        for f in nonabelian:
            assert refine_series(g, series, f) \
                == refine_series_by_commutators(g, series, f)
    assert layer(g).members == layer_by_closure(g)
    for n in lat.nodes:
        assert factor_centralizer(NormalFactor(g.whole(), n, lat.nodes[0])) \
            .members == centralizer_subgroup(g, n.gens).members
    assert association_graph(g)[1] == association_edges_pairwise(g)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_principal_subgroups_match_closing_every_class(g):
    assert list(_principal_subgroups(g.whole(), {}).items()) \
        == list(principal_subgroups_closing_every_class(g).items())


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_components_match_all_nodes(g):
    assert {c.members for c in components(g)} == components_all_nodes(g)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_group_law_check_matches_elements(g):
    verify_group_axioms(g)
    assert group_laws_by_elements(g)


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_classes_match_mul_oracle(g):
    assert all(class_space_matches_mul(a) for a in class_ambients(g))


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_node_order_and_class_rows_match_definitions(g):
    """Nodes come in (order, sorted members) order, and every class row
    of every element equals the column definition: read in class order,
    where the first entry outside a semidirect base builds the column of
    x, and each entry alone, where a base entry is fused from the base's
    rows."""
    nodes = normal_subgroups(g).nodes
    assert nodes == sorted(nodes,
                           key=lambda n: (n.order, n.sorted_members()))
    rows: dict = {}
    for x in g.elements():
        want = class_row_by_column(g, x)
        assert [class_row(g.whole(), x, i, rows)
                for i in range(len(want))] == want, x
        assert [class_row(g.whole(), x, i, {})
                for i in range(len(want))] == want, x


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(products_and_quotients())
def test_lazy_nodes_match_classes(g):
    assert lazy_nodes_match_classes(g)


def test_wreath_components_match_all_nodes():
    """B wr C2, B of order <= 60: the two coordinate copies of a perfect B.

    The products and quotients above never give two components, or one
    that is not normal; A5 wr C2 gives two, which C2 swaps.
    """
    seen = {"two non-normal": 0}

    @settings(max_examples=30, deadline=None, database=None,
              derandomize=True)
    @given(generator_lists)
    def check(gens):
        b = group_from_permutations(gens)
        assume(b.order <= 60)
        g = wreath_c2(b)
        verify_group_axioms(g)
        assert group_laws_by_elements(g)
        assert all(class_space_matches_mul(a) for a in [
            *class_ambients(g), *class_ambients(g.base)])
        comps = components(g)
        assert {c.members for c in comps} == components_all_nodes(g)
        if len(comps) == 2 and not any(
                normal_closure_by_mul(g.whole(), c.gens) == c.members
                for c in comps):
            seen["two non-normal"] += 1

    check()
    assert seen["two non-normal"] >= 1


def test_characteristic_simplicity_matches_automorphisms():
    """Examples whose automorphism search outgrows its cap are skipped."""
    seen = {"compared": 0, "skipped": 0}

    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(products_and_quotients())
    def check(g):
        try:
            want = characteristically_simple_by_automorphisms(g)
        except SearchCapExceeded:
            seen["skipped"] += 1
            return
        assert is_characteristically_simple(g) == want
        seen["compared"] += 1

    check()
    conftest.SUMMARY_LINES.append(
        f"characteristic simplicity: {seen['compared']} Hypothesis examples"
        f" compared with the automorphism oracle, {seen['skipped']} skipped"
        " at its search cap")
    assert seen["compared"] >= 100
