"""Class space against element sweeps on random permutation groups.

Generated groups have degree at most 6, so orders run up to 720 (S6).
The class-space lattice is checked at its principal normal subgroups
ncl(x) (each against ``normal_closure_by_mul``, and all of them against
closing every class), at every node joined with one (against the
coset-sweep product) and at every node's perfectness (against the derived
subgroup); association edges and abelian chief factors against the
pairwise and commutator tests; the lattice read of each non-abelian chief
factor's centralizer against the class test.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from chiefblocks.factors import (  # noqa: E402
    association_graph,
    factor_centralizer,
    is_abelian_factor,
)
from chiefblocks.group import (  # noqa: E402
    center,
    centralizer_subgroup,
    commutator_subgroup,
    conjugacy_classes,
    factor_centralizer_members,
    group_from_permutations,
)
from chiefblocks.lattice import (  # noqa: E402
    _principal_subgroups,
    chief_factors,
    is_perfect,
    normal_subgroups,
)
from oracles import (  # noqa: E402
    abelian_by_commutators,
    association_edges_pairwise,
    centralizer_by_mul,
    classes_by_mul,
    factor_centralizer_by_sweep,
    normal_closure_by_mul,
    principal_subgroups_closing_every_class,
    product_of_subgroups,
)

generator_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(max_examples=50, deadline=None, database=None)
@given(generator_lists)
def test_class_space_matches_sweeps(gens):
    g = group_from_permutations(gens)
    assert conjugacy_classes(g) == classes_by_mul(g)
    assert center(g).members == centralizer_by_mul(g, g.generators)
    lat = normal_subgroups(g)
    for cls in conjugacy_classes(g):
        assert centralizer_subgroup(g, [cls[0]]).members \
            == centralizer_by_mul(g, [cls[0]])
        # ncl(x): the least node holding x, and a join operand
        a = lat.meet(*(i for i, n in enumerate(lat.nodes)
                       if cls[0] in n.members))
        assert lat.nodes[a].members == normal_closure_by_mul(g, [cls[0]])
        for i, n in enumerate(lat.nodes):
            assert lat.nodes[lat.join(i, a)].members \
                == product_of_subgroups(n, lat.nodes[a])
    for i, n in enumerate(lat.nodes):
        assert is_perfect(lat, i) \
            == (commutator_subgroup(g, n, n).order == n.order)
    for f in chief_factors(g):
        assert factor_centralizer(f).members \
            == factor_centralizer_by_sweep(g, f.k.gens, f.l.members)
        if not is_abelian_factor(f):
            assert lat.nodes[lat.centralizer(lat.index_of(f.k),
                                             lat.index_of(f.l))].members \
                == factor_centralizer_members(g, f.k.gens, f.l.members)
        assert center(f.k).members == centralizer_by_mul(f.k, f.k.gens)


@settings(max_examples=50, deadline=None, database=None)
@given(generator_lists)
def test_principal_subgroups_match_closing_every_class(gens):
    g = group_from_permutations(gens)
    assert list(_principal_subgroups(g.whole(), {}).items()) \
        == list(principal_subgroups_closing_every_class(g).items())


@settings(max_examples=50, deadline=None, database=None)
@given(generator_lists)
def test_association_and_abelian_factors_match_oracles(gens):
    g = group_from_permutations(gens)
    assert association_graph(g)[1] == association_edges_pairwise(g)
    for f in chief_factors(g):
        assert is_abelian_factor(f) == abelian_by_commutators(f)
