"""Differential checks against ``sympy.combinatorics``.

The same permutation generators build a group here and in sympy, and the
two must agree on the group order, the number of conjugacy classes, the
orders of the center and the derived subgroup, and the order of the normal
closure of one element of every class.  Degrees are at most 6; S6, of
order 720, is above the Cayley-table bound and runs the untabled path.
"""

import random

import pytest

pytest.importorskip("sympy.combinatorics")

from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from chiefblocks.group import (  # noqa: E402
    center,
    conjugacy_classes,
    derived_subgroup,
    group_from_permutations,
    normal_closure,
)
from chiefblocks.perm import perm_from_cycles  # noqa: E402


def _cycles(n, *cycles):
    return perm_from_cycles([list(c) for c in cycles], n)


def _random_gens(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(n))
        rng.shuffle(images)
        gens.append(tuple(images))
    return gens


GROUPS = {
    "S6": [_cycles(6, (0, 1)), _cycles(6, range(6))],
    "A6": [_cycles(6, (0, 1, 2)), _cycles(6, range(1, 6))],
    "S3xS3": [_cycles(6, (0, 1)), _cycles(6, (0, 1, 2)),
              _cycles(6, (3, 4)), _cycles(6, (3, 4, 5))],
    "C2wrC3": [_cycles(6, (0, 1)), _cycles(6, (0, 2, 4), (1, 3, 5))],
    "D12": [_cycles(6, range(6)), (0, 5, 4, 3, 2, 1)],
    "C3xC3": [_cycles(6, (0, 1, 2)), _cycles(6, (3, 4, 5))],
    "S4": [_cycles(4, (0, 1)), _cycles(4, range(4))],
    "A5": [_cycles(5, (0, 1, 2)), _cycles(5, range(5))],
    **{f"random{seed}": _random_gens(seed) for seed in range(6)},
}


@pytest.mark.parametrize("gens", GROUPS.values(), ids=GROUPS.keys())
def test_invariants_match_sympy(gens):
    g = group_from_permutations(gens)
    n = g.n_points
    sg = PermutationGroup([Permutation(list(p), size=n) for p in gens])
    assert g.order == sg.order()
    classes = conjugacy_classes(g)
    assert len(classes) == len(sg.conjugacy_classes())
    assert center(g).order == sg.center().order()
    assert derived_subgroup(g).order == sg.derived_subgroup().order()
    for cls in classes:
        x = cls[0]
        p = Permutation(list(g.permutation_of(x)), size=n)
        assert normal_closure(g, [x]).order \
            == sg.normal_closure(p).order(), (x, p)
