"""Core group construction and subgroup algebra, against brute oracles."""

import random

import pytest

from chiefblocks import group as group_module
from chiefblocks import named
from chiefblocks.errors import (
    ActionNotAutomorphism,
    ActionNotHomomorphism,
    CapExceeded,
    HomomorphismError,
    InternalCheckError,
    InvalidPermutation,
    NotNormal,
)
from chiefblocks.group import (
    _MUL_TABLE_BOUND,
    DirectProductGroup,
    FiniteGroup,
    Homomorphism,
    PermGroup,
    center,
    centralizer_subgroup,
    class_closure,
    class_index,
    close_under_mul,
    commutator_subgroup,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    group_from_permutations,
    normal_closure,
    quotient,
    semidirect_product,
    subgroup_as_group,
    subgroup_generated,
    verify_group_axioms,
)
from chiefblocks.perm import compose, invert, perm_from_cycles
from oracles import (
    centralizer_by_mul,
    classes_by_mul,
    closure_by_mul,
    commutator_pairs,
    normal_closure_by_mul,
)


def naive_closure(gens):
    """Oracle: close a set of permutations by repeated pairwise products."""
    if not gens:
        return {()}
    n = len(gens[0])
    current = set(gens) | {tuple(range(n))}
    while True:
        nxt = set(current)
        nxt.update(invert(p) for p in current)
        nxt.update(compose(p, q) for p in current for q in current)
        if len(nxt) == len(current):
            return current
        current = nxt


# -- permutation closure -----------------------------------------------------

def test_a5_closure_matches_naive_oracle():
    gens = [perm_from_cycles([[0, 1, 2, 3, 4]], 5),
            perm_from_cycles([[0, 1, 2]], 5)]
    g = group_from_permutations(gens, 5)
    assert g.order == 60
    assert g.order == len(naive_closure(gens))
    assert set(g.perms) == naive_closure(gens)


def test_empty_generators_give_trivial_group():
    g = group_from_permutations([], n_points=3)
    assert g.order == 1


def test_single_involution_gives_c2():
    g = group_from_permutations([perm_from_cycles([[0, 1]], 2)])
    assert g.order == 2


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_permutations([(0, 0, 1)])


def test_cap_exceeded_during_closure():
    gens = [perm_from_cycles([[0, 1, 2, 3, 4]], 5),
            perm_from_cycles([[0, 1, 2]], 5)]
    with pytest.raises(CapExceeded):
        group_from_permutations(gens, 5, cap=30)


@pytest.mark.parametrize("name", ["C101", "S101", "A101", "D202"])
def test_oversized_named_family_refused_before_allocating(name, monkeypatch):
    """101 points exceed a cap of 100; no permutation may be built."""
    def no_alloc(*args):
        raise AssertionError("allocated a permutation")

    monkeypatch.setattr(named, "perm_from_cycles", no_alloc)
    with pytest.raises(CapExceeded, match="closure exceeded element cap 100"):
        named.build_named(name, cap=100)


def test_permutation_closure_bounded_by_entry_budget(monkeypatch):
    """No closure stores more than PERM_ENTRY_BUDGET permutation entries.

    C20000 and D40000 (20,000 points) are refused at the real budget
    before any permutation is allocated.  With the budget at 63, C7 (49
    entries) closes and C8 (64) is refused, both in the closure and by
    ``build_named`` before the cycle is built.
    """
    def no_alloc(*args):
        raise AssertionError("allocated a permutation")

    monkeypatch.setattr(named, "perm_from_cycles", no_alloc)
    for name in ("C20000", "D40000"):
        with pytest.raises(CapExceeded, match="closure of 20000-point "
                           "permutations exceeded 16777216 stored entries"):
            named.build_named(name)
    monkeypatch.setattr(group_module, "PERM_ENTRY_BUDGET", 63)
    c7, c8 = (perm_from_cycles([list(range(n))], n) for n in (7, 8))
    assert group_from_permutations([c7]).order == 7
    for build in (lambda: group_from_permutations([c8]),
                  lambda: named.build_named("C8")):
        with pytest.raises(CapExceeded, match="closure of 8-point "
                           "permutations exceeded 63 stored entries"):
            build()


# -- products ----------------------------------------------------------------

def test_klein_four_is_c2_times_c2():
    v4 = named.klein_four()
    assert v4.order == 4
    assert v4.is_abelian
    assert all(v4.mul(x, x) == 0 for x in v4.elements())


def test_product_with_trivial_keeps_order():
    a5 = named.alternating(5)
    triv = named.cyclic(1)
    prod = direct_product(a5, triv)
    assert prod.order == a5.order


def test_a5_squared_embeddings_are_normal():
    from chiefblocks.group import is_normal_in
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    assert prod.order == 3600
    assert is_normal_in(prod.left_factor, prod.whole())
    assert is_normal_in(prod.right_factor, prod.whole())
    prod.embed_left.validate()
    prod.embed_right.validate()


# -- semidirect products -----------------------------------------------------

def test_trivial_action_recovers_direct_product():
    c3, c2 = named.cyclic(3), named.cyclic(2)
    ident = list(range(3))
    semi = semidirect_product(c3, c2, [ident])
    prod = direct_product(c3, c2)
    assert all(semi.mul(a, b) == prod.mul(a, b)
               for a in semi.elements() for b in semi.elements())


def test_inversion_action_gives_s3():
    c3, c2 = named.cyclic(3), named.cyclic(2)
    invert_table = [c3.inv(x) for x in c3.elements()]
    s3 = semidirect_product(c3, c2, [invert_table])
    assert s3.order == 6
    assert center(s3).order == 1
    assert not s3.is_abelian


def test_wreath_swap_conjugation():
    wr = named.a5_wr_c2()
    assert wr.order == 7200
    from chiefblocks.group import is_normal_in
    assert is_normal_in(wr.base_part, wr.whole())
    base = wr.base
    swap = wr.embed_top(1)
    for n_local in random.Random(1).sample(range(base.order), 25):
        lifted = wr.embed_base(n_local)
        a, b = base.split(n_local)
        swapped = wr.embed_base(base._r * 0 + b * base.right.order + a)
        assert wr.conj(swap, lifted) == swapped


def test_bad_action_rejected():
    c3, c2 = named.cyclic(3), named.cyclic(2)
    inv_t = [c3.inv(x) for x in c3.elements()]
    with pytest.raises(ActionNotAutomorphism, match="not a bijection"):
        semidirect_product(c3, c2, [[0, 0, 1]])
    shift = [1, 2, 0]  # translation, not an automorphism (moves identity)
    with pytest.raises(ActionNotAutomorphism, match="not multiplicative"):
        semidirect_product(c3, c2, [shift])
    with pytest.raises(ActionNotHomomorphism, match="needs 1 tables"):
        semidirect_product(c3, c2, [list(range(3)), inv_t])
    # the generator g of C3 cannot act by inversion: g^3 = 1 would act by
    # inversion^3 = inversion, not trivially
    with pytest.raises(ActionNotHomomorphism, match="do not define a hom"):
        semidirect_product(c3, c3, [inv_t])


# -- quotients ----------------------------------------------------------------

def test_s4_mod_v4_is_nonabelian_of_order_6():
    s4 = named.symmetric(4)
    v4 = next(n for n in _normal_nodes(s4) if n.order == 4)
    q, proj = quotient(s4, v4)
    assert q.order == 6
    assert not q.is_abelian
    proj.validate()
    assert proj.kernel().members == v4.members


def test_quotient_by_trivial_is_isomorphic_copy():
    g = named.symmetric(4)
    q, proj = quotient(g, g.trivial_subgroup())
    assert q.order == g.order
    assert proj.is_injective and proj.is_surjective


def test_extraspecial_central_quotient_is_elementary_abelian():
    es = named.extraspecial32().group
    q, _ = quotient(es, center(es))
    assert q.order == 16
    assert all(q.mul(x, x) == 0 for x in q.elements())


def test_quotient_requires_normal_kernel():
    s4 = named.symmetric(4)
    sub = subgroup_generated(s4, [next(
        x for x in s4.elements() if s4.element_order(x) == 2
        and normal_closure(s4, [x]).order > 4)])
    with pytest.raises(NotNormal):
        quotient(s4, sub)


def _normal_nodes(g):
    from chiefblocks.lattice import normal_subgroups
    return normal_subgroups(g).nodes


# -- subgroup generation and closures -----------------------------------------

def test_subgroup_generated_examples():
    a5 = named.alternating(5)
    assert subgroup_generated(a5, []).order == 1
    five_cycle = next(x for x in a5.elements() if a5.element_order(x) == 5)
    assert subgroup_generated(a5, [five_cycle]).order == 5
    assert subgroup_generated(a5, list(a5.elements())).order == 60


def test_normal_closure_against_conjugate_oracle(small_corpus):
    rng = random.Random(7)
    for g in small_corpus.values():
        for x in rng.sample(range(g.order), min(g.order, 6)):
            nc = normal_closure(g, [x])
            conjugates = {g.conj(h, x) for h in g.elements()}
            oracle = subgroup_generated(g, sorted(conjugates))
            assert nc.members == oracle.members


def test_normal_closure_examples():
    s4 = named.symmetric(4)
    double = next(x for x in s4.elements()
                  if s4.element_order(x) == 2
                  and all(s4.permutation_of(x)[i] != i for i in range(4)))
    assert normal_closure(s4, [double]).order == 4
    assert normal_closure(s4, []).order == 1
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    coord = prod.embed_left(1)
    assert normal_closure(prod, [coord]).members == prod.left_factor.members


# -- commutators, centralizers, classes ----------------------------------------

def test_derived_subgroup_of_s4_is_a4():
    s4 = named.symmetric(4)
    d = derived_subgroup(s4)
    assert d.order == 12
    # independent oracle: brute force over all pairs
    comms = {s4.comm(a, b) for a in s4.elements() for b in s4.elements()}
    assert subgroup_generated(s4, sorted(comms)).members == d.members


def test_commutator_with_trivial_is_trivial():
    s4 = named.symmetric(4)
    t = s4.trivial_subgroup()
    assert commutator_subgroup(s4, s4.whole(), t).order == 1


def test_extraspecial_derived_is_center():
    es = named.extraspecial32().group
    assert derived_subgroup(es).members == center(es).members
    assert center(es).order == 2


def test_commutator_methods_agree(small_corpus):
    rng = random.Random(3)
    for g in small_corpus.values():
        subs = [g.whole(), g.trivial_subgroup()]
        for _ in range(3):
            seeds = rng.sample(range(g.order), 2)
            subs.append(subgroup_generated(g, seeds))
        for a in subs:
            for b in subs:
                assert commutator_subgroup(g, a, b).members \
                    == commutator_pairs(g, a, b)


def test_centralizer_examples():
    es = named.extraspecial32().group
    assert centralizer_subgroup(es, es.generators).order == 2
    s4 = named.symmetric(4)
    assert centralizer_subgroup(s4, [0]).order == 24
    a5 = named.alternating(5)
    prod = direct_product(a5, a5)
    c = centralizer_subgroup(prod, prod.left_factor.gens)
    assert c.members == prod.right_factor.members


def test_conjugacy_class_sizes():
    s4 = named.symmetric(4)
    assert sorted(len(c) for c in conjugacy_classes(s4)) == [1, 3, 6, 6, 8]
    a5 = named.alternating(5)
    assert sorted(len(c) for c in conjugacy_classes(a5)) == [1, 12, 12, 15, 20]
    v4 = named.klein_four()
    assert all(len(c) == 1 for c in conjugacy_classes(v4))


def test_class_equation_sums(corpus):
    for g in corpus.values():
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order
        assert classes[0] == [0]


# -- group axioms --------------------------------------------------------------

def test_axioms_hold_across_corpus(corpus):
    rng = random.Random(11)
    for g in corpus.values():
        verify_group_axioms(g, rng)


# The smallest non-associative loop: 0 is the identity and every element is
# its own inverse, but no group of order 5 has elements of order 2.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


class Loop5(FiniteGroup):
    def __init__(self):
        super().__init__("loop5", 5, [1, 2], "test")

    def _mul_impl(self, a, b):
        return LOOP5[a][b]

    def _inv_impl(self, a):
        return a


class Copy(FiniteGroup):
    """A copy of ``base`` on ``gens``, its product off by one at ``bad``."""

    def __init__(self, base, gens, bad=None):
        self.base, self.bad = base, bad
        super().__init__("copy", base.order, gens, "test")

    def _mul_impl(self, a, b):
        c = self.base.mul(a, b)
        return (c + 1) % self.order if (a, b) == self.bad else c

    def _inv_impl(self, a):
        return self.base.inv(a)


def _built_groups(corpus, dense_corpus):
    """Products, quotients and a materialized subgroup, built for the test."""
    c3, c2, s4 = named.cyclic(3), named.cyclic(2), named.symmetric(4)
    d8xs4 = dense_corpus["D8xS4"]
    v4 = next(n for n in _normal_nodes(s4) if n.order == 4)
    built = [
        direct_product(d8xs4, c2),
        semidirect_product(c3, c2, [[c3.inv(x) for x in c3.elements()]]),
        semidirect_product(direct_product(c2, c2), c3, [[0, 2, 3, 1]]),
        quotient(s4, v4)[0],
        quotient(d8xs4, center(d8xs4))[0],
        subgroup_as_group(corpus["A5xA5"].left_factor)[0],
        quotient(corpus["A5wrC2"], corpus["A5wrC2"].base_part)[0],
    ]
    assert built[0].order == 384 and built[2].order == 12
    return [*corpus.values(), *dense_corpus.values(), *built]


def test_cayley_table_matches_construction(corpus, dense_corpus):
    for g in _built_groups(corpus, dense_corpus):
        n = g.order
        if n > _MUL_TABLE_BOUND:
            assert g._table is None
            continue
        assert g._table == [[g._mul_impl(a, b) for a in range(n)]
                            for b in range(n)]


def test_columns_match_construction(corpus, dense_corpus):
    rng = random.Random(5)
    groups = _built_groups(corpus, dense_corpus)
    assert any(g._table is None for g in groups)
    for g in groups:
        n, mul = g.order, g._mul_impl
        for s in {0, *g.generators, rng.randrange(n), rng.randrange(n)}:
            for rc in (g.rcol(s), g._rcol_impl(s)):
                assert list(rc) == [mul(x, s) for x in range(n)], (g, s)


def test_closures_classes_and_centralizers_match_mul_oracles(corpus,
                                                            small_corpus):
    """The column paths and the product paths give the oracles' sets.

    In A5wrC2 an A4 of order 12 is too small to pay for columns (two
    products per element by each generator, against 7,200/64), and A5 and
    the base of order 3,600 are large enough, so both paths run.
    """
    rng = random.Random(13)
    wr = corpus["A5wrC2"]
    a5 = normal_closure(wr.base_part, [wr.embed_base(wr.base.embed_left(1))])
    left = wr.base.left
    a4 = subgroup_generated(wr, [wr.embed_base(wr.base.embed_left(x))
                                 for x in left.elements()
                                 if left.permutation_of(x)[4] == 4])
    assert a5.order == 60 and a4.order == 12
    cases = [(g, g.whole(), 4) for g in small_corpus.values()]
    cases += [(wr, wr.whole(), 2), (wr, wr.base_part, 1), (wr, a5, 1),
              (wr, a4, 1)]
    for g, amb, seeds in cases:
        assert conjugacy_classes(amb) == classes_by_mul(amb)
        for _ in range(seeds):
            seed = rng.sample(sorted(amb.members), 2)
            assert close_under_mul(g, seed) == closure_by_mul(g, seed)
            assert normal_closure(amb, seed).members \
                == normal_closure_by_mul(amb, seed)
            assert centralizer_subgroup(amb, seed).members \
                == centralizer_by_mul(amb, seed)


def test_class_closure_is_normal_closure(corpus, small_corpus):
    """ncl(x) grown by classes equals ``normal_closure`` for every class.

    Ambients: the small corpus, A5wrC2 (untabled), its base of order 3,600
    and an A5 of order 60 in it, whose closures are too small for columns.
    """
    wr = corpus["A5wrC2"]
    a5 = normal_closure(wr.base_part, [wr.embed_base(wr.base.embed_left(1))])
    ambients = [g.whole() for g in small_corpus.values()]
    ambients += [wr.whole(), wr.base_part, a5]
    for amb in ambients:
        index = class_index(amb)
        for i, cls in enumerate(conjugacy_classes(amb)):
            assert all(index[x] == i for x in cls)
            assert class_closure(amb, cls[0]) \
                == normal_closure(amb, [cls[0]]).members, (amb, cls[0])
        assert len(index) == amb.order


def test_cayley_table_reads_generator_columns(monkeypatch):
    """A table costs one product per element and generator, not two.

    The generator columns are swept once through ``_mul_impl``, and the
    Cayley-graph walk that builds the table reads them.
    """
    calls = 0
    mul = PermGroup._mul_impl

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(PermGroup, "_mul_impl", counted)
    d512 = named.dihedral(512)
    assert d512._table is not None
    assert calls == 512 * len(d512.generators) == 1024


def test_wrong_column_fails_axioms():
    class LeftForRight(DirectProductGroup):
        def _rcol_impl(self, s):  # x -> sx where x -> xs is due
            return [self._mul_impl(s, x) for x in range(self.order)]

    a5 = named.alternating(5)
    g = LeftForRight(a5, a5)
    assert g._table is None
    with pytest.raises(InternalCheckError, match="column of .* differs"):
        verify_group_axioms(g, random.Random(0))


def test_non_associative_loop_fails_light_test_at_construction():
    with pytest.raises(InternalCheckError,
                       match=r"associativity of loop5 fails \(Light's test\)"):
        Loop5()


@pytest.mark.parametrize("build", [
    lambda: named.symmetric(4),
    lambda: direct_product(named.quaternion8(), named.dihedral(8)),
], ids=["S4", "Q8xD8"])
def test_wrong_product_off_the_generators_fails_axioms(build):
    base = build()
    assert 7 not in base.generators
    verify_group_axioms(Copy(base, base.generators), random.Random(0))
    g = Copy(base, base.generators, bad=(5, 7))
    assert g._table == base._table  # built from the generator columns only
    with pytest.raises(InternalCheckError,
                       match=r"differs from the construction at \(5, 7\)"):
        verify_group_axioms(g, random.Random(0))


def test_generators_missing_an_element_raise_at_construction():
    c4 = named.cyclic(4)
    square = c4.mul(c4.generators[0], c4.generators[0])
    with pytest.raises(InternalCheckError,
                       match="generators of copy do not generate it"):
        Copy(c4, [square])


def test_quotient_order_formula(corpus):
    from chiefblocks.lattice import normal_subgroups
    for name in ("V4", "S4", "Q8", "D8", "SL23", "ES32"):
        g = corpus[name]
        for n in normal_subgroups(g).nodes:
            q, _ = quotient(g, n)
            assert q.order * n.order == g.order


# -- three-subgroups property (randomized) --------------------------------------

def test_commutator_three_subgroups_property(corpus):
    """If [[A,B],B] = 1 then [A,[B,B]] = 1; perfect B forces [A,B] = 1."""
    rng = random.Random(42)
    nonvacuous = 0
    for name in ("V4", "Q8", "D8", "ES32", "S4"):
        g = corpus[name]
        subs = [subgroup_generated(g, rng.sample(range(g.order), 2))
                for _ in range(6)]
        subs.append(g.whole())
        for a in subs:
            for b in subs:
                if commutator_subgroup(
                        g, commutator_subgroup(g, a, b), b).order != 1:
                    continue
                nonvacuous += 1
                bb = commutator_subgroup(g, b, b)
                assert commutator_subgroup(g, a, bb).order == 1
                if bb.members == b.members:
                    assert commutator_subgroup(g, a, b).order == 1
    # a perfect witness: commuting coordinate copies of a perfect group
    prod = corpus["A5xA5"]
    a, b = prod.right_factor, prod.left_factor
    assert commutator_subgroup(
        prod, commutator_subgroup(prod, a, b), b).order == 1
    assert commutator_subgroup(prod, b, b).members == b.members
    assert commutator_subgroup(prod, a, b).order == 1
    assert nonvacuous > 20


# -- homomorphisms --------------------------------------------------------------

def test_homomorphism_validation_rejects_bad_maps():
    c4 = named.cyclic(4)
    c2 = named.cyclic(2)
    Homomorphism(c4, c2, [0, 1, 0, 1]).validate()
    with pytest.raises(HomomorphismError):
        Homomorphism(c4, c2, [0, 1, 1, 0]).validate()
    with pytest.raises(HomomorphismError):
        Homomorphism(c4, c2, [1, 0, 1, 0]).validate()


def test_subgroup_as_group_roundtrip():
    s4 = named.symmetric(4)
    a4 = next(n for n in _normal_nodes(s4) if n.order == 12)
    grp, embed = subgroup_as_group(a4)
    assert grp.order == 12
    embed.validate()
    assert set(embed.mapping) == set(a4.members)
