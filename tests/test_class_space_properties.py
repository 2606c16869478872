"""Class space against element sweeps on random permutation groups.

Generated groups have degree at most 6, so orders run up to 720 and both
the tabled and the untabled (S6) paths are exercised.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from chiefblocks.factors import factor_centralizer  # noqa: E402
from chiefblocks.group import (  # noqa: E402
    center,
    centralizer_subgroup,
    class_closure,
    conjugacy_classes,
    group_from_permutations,
    normal_closure,
)
from chiefblocks.lattice import chief_factors  # noqa: E402
from oracles import (  # noqa: E402
    centralizer_by_mul,
    classes_by_mul,
    factor_centralizer_by_sweep,
)

generator_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(max_examples=50, deadline=None, database=None)
@given(generator_lists)
def test_class_space_matches_sweeps(gens):
    g = group_from_permutations(gens)
    assert conjugacy_classes(g) == classes_by_mul(g)
    assert center(g).members == centralizer_by_mul(g, g.generators)
    for cls in conjugacy_classes(g):
        assert class_closure(g, cls[0]) \
            == normal_closure(g, [cls[0]]).members
        assert centralizer_subgroup(g, [cls[0]]).members \
            == centralizer_by_mul(g, [cls[0]])
    for f in chief_factors(g):
        assert factor_centralizer(f).members \
            == factor_centralizer_by_sweep(g, f.k.gens, f.l.members)
        assert center(f.k).members == centralizer_by_mul(f.k, f.k.gens)
