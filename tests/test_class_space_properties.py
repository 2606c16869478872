"""Class space against element sweeps on random permutation groups.

Generated groups have degree at most 6, so orders run up to 720 and both
the tabled and the untabled paths are exercised.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from chiefblocks.factors import factor_centralizer  # noqa: E402
from chiefblocks.group import (  # noqa: E402
    class_closure,
    conjugacy_classes,
    group_from_permutations,
    normal_closure,
)
from chiefblocks.lattice import chief_factors  # noqa: E402
from oracles import factor_centralizer_by_sweep  # noqa: E402

generator_lists = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(max_examples=50, deadline=None, database=None)
@given(generator_lists)
def test_class_space_matches_sweeps(gens):
    g = group_from_permutations(gens)
    for cls in conjugacy_classes(g):
        assert class_closure(g, cls[0]) \
            == normal_closure(g, [cls[0]]).members
    for f in chief_factors(g):
        assert factor_centralizer(f).members \
            == factor_centralizer_by_sweep(g, f.k.gens, f.l.members)
