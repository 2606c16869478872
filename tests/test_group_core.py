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
    NotNested,
    NotNormal,
)
from chiefblocks.group import (
    CosetGroup,
    DirectProductGroup,
    FiniteGroup,
    Homomorphism,
    PermGroup,
    SemidirectProductGroup,
    Subgroup,
    center,
    centralizer_subgroup,
    class_index,
    class_row,
    close_under_mul,
    commutator_subgroup,
    conjugacy_classes,
    conjugate_members,
    direct_product,
    group_from_permutations,
    is_normal_in,
    normal_closure,
    quotient,
    semidirect_product,
    subgroup_as_group,
    subgroup_generated,
    verify_group_axioms,
)
from chiefblocks.perm import compose, perm_from_cycles
from oracles import (
    centralizer_by_mul,
    class_ambients,
    class_row_by_column,
    class_space_matches_mul,
    classes_by_mul,
    closure_by_mul,
    columns_match_mul,
    commutator_pairs,
    cosets_by_mul,
    group_laws_by_elements,
    normal_by_conjugation,
    normal_closure_by_mul,
    oracle_all_subgroups,
)


def naive_closure(gens):
    """Oracle: close a set of permutations by repeated pairwise products."""
    if not gens:
        return {()}
    n = len(gens[0])
    current = set(gens) | {tuple(range(n))}
    while True:
        nxt = set(current)
        nxt.update(tuple(sorted(range(n), key=p.__getitem__))
                   for p in current)  # the inverses
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


@pytest.mark.parametrize("build", [
    lambda s3, t: Homomorphism(s3, named.cyclic(2), [
        0 if x in (0, t) else 1 for x in s3.elements()]).kernel(),
    lambda s3, t: Subgroup(s3, frozenset((0, t))),
], ids=["kernel-of-unvalidated-map", "members-only"])
def test_non_normal_c2_of_s3_is_refused(build, monkeypatch):
    """{1, t}, t a transposition of S3, as the kernel of a map S3 -> C2
    that is no homomorphism, and as a subgroup given by its members: it is
    no union of S3's classes, so ``quotient`` refuses it; the verdict asks
    for no generating set."""
    s3 = named.symmetric(3)
    t = next(x for x in s3.generators if s3.element_order(x) == 2)
    c2 = build(s3, t)
    assert c2.members == {0, t}
    monkeypatch.setattr(group_module, "generating_ids", None)
    assert not is_normal_in(c2, s3.whole())
    with pytest.raises(NotNormal):
        quotient(s3, c2)


def _normality_cases(small_corpus):
    """(subgroup, ambient) pairs: every subgroup of each small corpus group
    in the whole group, and each node of the base's lattice in S3 wr C2 in
    the base and in the whole group."""
    for g in small_corpus.values():
        for s in oracle_all_subgroups(g):
            yield s, g.whole()
    wr = named.wreath_c2(named.symmetric(3))
    for node in _normal_nodes(wr.base_part):
        yield node, wr.base_part
        yield node, wr.whole()


def test_normality_tests_match_conjugation_by_every_element(small_corpus):
    """The generator test and the class test each agree with conjugation
    by every element of the ambient."""
    verdicts = []
    for s, amb in _normality_cases(small_corpus):
        g = s.parent
        want = normal_by_conjugation(amb, s.members)
        by_gens = subgroup_generated(g, s.gens)
        by_members = Subgroup(g, s.members)
        assert by_gens.members == s.members
        assert is_normal_in(by_gens, amb) == want, (g.name, s.order)
        assert is_normal_in(by_members, amb) == want, (g.name, s.order)
        assert by_members._gens is None  # the class test made none
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_powers_walk_records_the_order_of_every_power(corpus):
    """``powers(y)`` is y, y^2, ..., 1 by ``_mul_impl``, and the walk
    records for each y^k the order that its own walk to 1 finds."""
    def walk(y):
        out = [y]
        while out[-1]:
            out.append(g._mul_impl(out[-1], y))
        return out

    for g in corpus.values():
        if g.order <= 120:
            for y in g.elements():
                assert g.powers(y) == walk(y), (g.name, y)
                assert all(g._elt_order[x] == len(walk(x))
                           for x in walk(y)), (g.name, y)


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


def test_normal_closure_refuses_a_seed_outside_the_ambient():
    """A whole-group class index would read id -1 as its last entry."""
    s4 = named.symmetric(4)
    a4 = commutator_subgroup(s4, s4.whole(), s4.whole())
    odd = min(set(s4.elements()) - a4.members)
    for amb, seed in [(s4, [0, s4.order]), (a4, [odd]), (s4, [-1])]:
        with pytest.raises(NotNested):
            normal_closure(amb, seed)


# -- commutators, centralizers, classes ----------------------------------------

def test_derived_subgroup_of_s4_is_a4():
    s4 = named.symmetric(4)
    d = commutator_subgroup(s4, s4.whole(), s4.whole())
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
    assert commutator_subgroup(es, es.whole(), es.whole()).members \
        == center(es).members
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


def test_conjugate_members_match_element_conjugation(corpus, monkeypatch):
    """``conjugate_members`` equals ``conj`` element by element, and reads
    one column and the inverse list: no ``mul`` and no ``_mul_impl``, but
    on ES32, a quotient, whose columns are ``_mul_impl`` sweeps."""
    rng = random.Random(7)
    for g in corpus.values():
        members = rng.sample(range(g.order), min(g.order, 200))
        for x in {*g.generators, rng.randrange(g.order)}:
            want = frozenset(g.conj(x, m) for m in members)
            with monkeypatch.context() as mp:
                calls = _counted(mp, (FiniteGroup, "mul"), *(
                    (cls, "_mul_impl") for cls in (
                        PermGroup, DirectProductGroup,
                        SemidirectProductGroup)))
                assert conjugate_members(g, x, members) == want, g.name
            assert type(g) is CosetGroup or not any(calls.values()), g.name


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
    for g in corpus.values():
        verify_group_axioms(g)


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


def test_every_column_matches_construction(corpus, dense_corpus):
    """The full n^2 oracle on every group of order at most 512, the
    permutation groups C256 and D128 among them.

    ``verify_group_axioms`` proves a ``PermGroup``'s base lookups equal to
    composition from its generators' columns; this compares every pair.
    """
    extra = [named.cyclic(256), named.dihedral(128)]
    groups = [g for g in [*_built_groups(corpus, dense_corpus), *extra]
              if g.order <= 512]
    assert len(groups) >= 20
    for g in groups:
        assert columns_match_mul(g), g.name


def test_columns_match_construction(corpus, dense_corpus):
    """``rcol``, ``_rcol_impl`` and ``_rcol_affine`` at random (k, c)."""
    rng = random.Random(5)
    groups = _built_groups(corpus, dense_corpus)
    for g in groups:
        n, mul = g.order, g._mul_impl
        for s in {0, *g.generators, rng.randrange(n), rng.randrange(n)}:
            want = [mul(x, s) for x in range(n)]
            for rc in (g.rcol(s), g._rcol_impl(s)):
                assert list(rc) == want, (g, s)
            k, c = rng.randrange(1, 50), rng.randrange(50)
            assert g._rcol_affine(s, k, c) == [x * k + c for x in want], \
                (g, s, k, c)


def _counted(monkeypatch, *methods):
    """Count the calls of each (class, name) method; returns the counts."""
    calls = dict.fromkeys(methods, 0)
    for cls, name in methods:
        def counted(self, *args, key=(cls, name), f=getattr(cls, name)):
            calls[key] += 1
            return f(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def test_semidirect_column_builds_no_direct_column(monkeypatch):
    """An S5wrC2 column asks S5xS5 for mapped slices, not for its columns."""
    wr = named.s5_wr_c2()
    calls = _counted(monkeypatch, (DirectProductGroup, "_rcol_impl"))
    s = wr.generators[0] + 1  # outside the base: the action swaps
    assert list(wr.rcol(s)) == [wr._mul_impl(x, s) for x in wr.elements()]
    assert calls[DirectProductGroup, "_rcol_impl"] == 0


class LeftForRight(DirectProductGroup):
    def _rcol_impl(self, s):  # x -> sx where x -> xs is due
        return [self._mul_impl(s, x) for x in range(self.order)]


def test_subclass_base_columns_are_read():
    """A base that builds its own columns is asked for them; a product over
    a subclass is refused, as only the four constructions have an exact
    check."""
    a5 = named.alternating(5)
    base = LeftForRight(a5, a5)
    g = semidirect_product(base, named.cyclic(2), [range(base.order)])
    n = base.generators[0]
    # The ids 2b hold the base; the action is trivial, so their slice of
    # the column of 2n is the base's own column of n at the scale 2.
    assert list(g.rcol(2 * n))[::2] == [b * 2 for b in base._rcol_impl(n)]
    with pytest.raises(InternalCheckError,
                       match="no exact group-law check for LeftForRight"):
        verify_group_axioms(g)


def test_closures_classes_and_centralizers_match_mul_oracles(corpus,
                                                            small_corpus):
    """Closures, classes and centralizers read columns; ``mul`` oracles agree.

    The small corpus reads base lookups of permutation groups.  A5wrC2's
    ambients, from an A4 of order 12 to the whole group, read columns
    built from the factors' columns.
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
        index = class_index(amb)
        assert len(index) == amb.order
        for i, cls in enumerate(conjugacy_classes(amb)):
            assert all(index[x] == i for x in cls)
        for _ in range(seeds):
            seed = rng.sample(sorted(amb.members), 2)
            assert close_under_mul(g, seed) == closure_by_mul(g, seed)
            assert normal_closure(amb, seed).members \
                == normal_closure_by_mul(amb, seed)
            assert centralizer_subgroup(amb, seed).members \
                == centralizer_by_mul(amb, seed)


def _a4_wr_c3():
    """A4 wr C3: C3 cycles the coordinates of the left-nested A4xA4xA4."""
    a4 = named.alternating(4)
    m = a4.order
    base = direct_product(direct_product(a4, a4), a4)
    cycle = [(c * m + a) * m + b
             for a in range(m) for b in range(m) for c in range(m)]
    return semidirect_product(base, named.cyclic(3), [cycle])


def _semidirect_over_semidirect():
    """S3wrC2 x| C2, C2 acting as conjugation by the swap, id 1."""
    n = named.wreath_c2(named.symmetric(3))
    return semidirect_product(n, named.cyclic(2),
                              [[n.conj(1, x) for x in n.elements()]])


def test_product_classes_match_mul_oracle(corpus, dense_corpus):
    """Every exact product, nested ones too, and its recorded factor images.

    The products are the corpus's and the dense corpus's, A4 wr C3 (a top
    that is not C2, over a base of three factors) and a semidirect product
    over a semidirect base.
    """
    extra = [_a4_wr_c3(), _semidirect_over_semidirect()]
    assert extra[0].order == 5184 and extra[1].order == 144
    products = _exact_products([*corpus.values(), *dense_corpus.values(),
                                *extra])
    assert type(extra[1].base) is SemidirectProductGroup
    assert extra[1].base in products
    for g in products:
        for amb in class_ambients(g):
            assert class_space_matches_mul(amb), (g.name, amb.order)


def _rows_match_columns(g, xs, reads):
    """``class_row`` at each x of xs, entries ``reads``, by the definition.

    A row is a class function of x: C_i*(h x h^-1) = h (C_i*x) h^-1, as
    h^-1 C_i h = C_i, so it meets the classes that C_i*x meets.  So the
    definition is evaluated once per class of x, at its least member.
    """
    classes, index = conjugacy_classes(g), class_index(g)
    amb, rows, want = g.whole(), {}, {}
    for x in xs:
        c = index[x]
        if c not in want:
            want[c] = class_row_by_column(g, classes[c][0])
        for i in reads:
            assert class_row(amb, x, i, rows) == want[c][i], (g.name, x, i)


def test_class_rows_match_the_column_definition(corpus, dense_corpus):
    """Every row of every exact direct product here, nested ones too, read
    from its factors' rows; then the rows of every base element of A5wrC2,
    S3 wr C2 and A4 wr C3 at the classes inside the base, fused from the
    base's rows.  Both equal the column definition of ``oracles``."""
    directs = [g for g in _exact_products(_built_groups(corpus, dense_corpus))
               if type(g) is DirectProductGroup]
    assert len(directs) >= 10
    for g in directs:
        _rows_match_columns(g, g.elements(), range(len(conjugacy_classes(g))))
    wreaths = [corpus["A5wrC2"], named.wreath_c2(named.symmetric(3)),
               _a4_wr_c3()]
    for g in wreaths:
        t = g.top.order
        inside = [i for i, cls in enumerate(conjugacy_classes(g))
                  if cls[0] % t == 0]
        _rows_match_columns(g, range(0, g.order, t), inside)


def test_factor_image_classes_read_by_members():
    """A node equal to a factor image, not the recorded object, reads it."""
    for g in (direct_product(named.symmetric(4), named.dihedral(8)),
              _a4_wr_c3()):
        for part in class_ambients(g)[1:]:
            amb = Subgroup(g, frozenset(part.members))
            assert amb is not part and class_space_matches_mul(amb)


def test_direct_product_classes_make_no_products(monkeypatch):
    """S5xS5's classes are pairs of S5's: no product, and no column built
    but the two that S5's own conjugation walk reads."""
    s5 = named.symmetric(5)
    g = direct_product(s5, s5)
    calls = _counted(monkeypatch, *((cls, name) for cls in (
        FiniteGroup, PermGroup, DirectProductGroup, SemidirectProductGroup)
        for name in ("_mul_impl", "_rcol_impl") if name in vars(cls)))
    assert len(conjugacy_classes(g)) == 7 * 7
    assert calls.pop((PermGroup, "_rcol_impl")) == len(s5.generators) == 2
    assert calls and not any(calls.values())


def test_semidirect_classes_walk_only_outside_the_base(monkeypatch):
    """S5wrC2 walks S5 and its 14,400 elements outside the base, no more.

    The base's classes are S5xS5's, fused by the swap; the walk of the
    product starts at none of the base's 14,400 elements.
    """
    wr = named.s5_wr_c2()
    walks = []
    orbits = group_module._conjugation_orbits

    def recorded(g, gens, starts):
        starts = list(starts)
        walks.append((g, starts))
        return orbits(g, gens, starts)

    monkeypatch.setattr(group_module, "_conjugation_orbits", recorded)
    conjugacy_classes(wr)
    assert [g for g, _ in walks] == [wr.base.left, wr]
    starts = walks[1][1]
    assert len(starts) == len(set(starts)) == 14_400
    assert wr.base_part.members.isdisjoint(starts)


def test_product_classes_leave_the_factors_caches():
    """The lattice of S5wrC2 caches no subgroup or classes on its base."""
    wr = named.s5_wr_c2()
    verify_group_axioms(wr)
    _normal_nodes(wr)
    assert "whole" not in wr.base._cache
    assert not any(isinstance(k, tuple) and k[0] == "classes"
                   for k in wr.base._cache)


def test_perm_group_check_builds_only_generator_columns(monkeypatch):
    """Building D512 makes no product and no column; its law check builds
    the two generator columns, by base lookups, and keeps them."""
    calls = _counted(monkeypatch, (PermGroup, "_mul_impl"),
                     (PermGroup, "_rcol_impl"))
    d512 = named.dihedral(512)
    assert d512.base == [0, 1]
    assert not any(calls.values())
    verify_group_axioms(d512)
    assert calls[PermGroup, "_mul_impl"] == 0
    assert calls[PermGroup, "_rcol_impl"] == len(d512.generators) == 2
    assert sorted(d512._cols) == sorted(d512.generators)


def test_d512_analysis_builds_at_most_the_columns_it_reads(monkeypatch):
    """``analyze --components`` on D512 reads 11 of its 512 columns, and
    builds each of them once."""
    from chiefblocks.cli import AnalyzeOptions, analyze
    built = []
    build = PermGroup._rcol_impl

    def recorded(self, s):
        if self.order == 512:
            built.append(s)
        return build(self, s)

    monkeypatch.setattr(PermGroup, "_rcol_impl", recorded)
    analyze({"kind": "named", "name": "D512"}, AnalyzeOptions(components=True))
    assert len(set(built)) == len(built) <= 11


def _groups_reached(g):
    """g, its factors and parents, and the groups cached on any of them."""
    found, todo = [], [g]
    while todo:
        h = todo.pop()
        if not isinstance(h, FiniteGroup) or h in found:
            continue
        found.append(h)
        todo += [getattr(h, name, None) for name in (
            "left", "right", "base", "top", "parent_group")]
        for value in h._cache.values():
            todo += value if isinstance(value, tuple) else [value]
    return found


@pytest.mark.parametrize("spec", [
    {"kind": "semidirect",
     "base": {"kind": "direct", "left": {"kind": "named", "name": "S5"},
              "right": {"kind": "named", "name": "S5"}},
     "top": {"kind": "named", "name": "C2"},
     "action": [[b * 120 + a for a in range(120) for b in range(120)]]},
    {"kind": "direct",
     "left": {"kind": "direct", "left": {"kind": "direct", "left": {
         "kind": "direct", "left": {"kind": "named", "name": "A5"},
         "right": {"kind": "named", "name": "A5"}},
         "right": {"kind": "named", "name": "C2"}},
         "right": {"kind": "named", "name": "C2"}},
     "right": {"kind": "named", "name": "C2"}},
], ids=["S5wrC2", "A5^2xC2^3"])
def test_kept_columns_stay_within_the_budget(spec, monkeypatch):
    """After a whole analysis no group keeps more than 512 x 512 column
    entries.  S5wrC2, of order 28,800, fills its budget with 9 columns.
    A5^2xC2^3 reads its class rows from its factors' rows, so it keeps only
    the 8 columns that its law check and its components read."""
    from chiefblocks import cli
    groups = []
    build = cli.build_group

    def recorded(*args):
        groups.append(build(*args))
        return groups[-1]

    monkeypatch.setattr(cli, "build_group", recorded)
    cli.analyze(spec, cli.AnalyzeOptions(components=True))
    g = groups[-1]  # the spec's own group is built last
    reached = _groups_reached(g)
    assert g.order == 28_800 and len(reached) >= 4
    for h in reached:
        assert sum(map(len, h._cols.values())) <= 512 * 512, h.name
    assert len(g._cols) == {"S5xS5:C2": 9, "A5xA5xC2xC2xC2": 8}[g.name]
    assert 512 * 512 // 28_800 == 9


def test_columns_past_the_budget_are_built_on_each_call(monkeypatch):
    """With room for two columns of C8, a third is built on every call;
    ``mul`` reads a kept column and builds none."""
    monkeypatch.setattr(group_module, "_COLUMN_BUDGET", 16)
    c8 = named.cyclic(8)  # id k is the k-th power of the 8-cycle
    calls = _counted(monkeypatch, (PermGroup, "_rcol_impl"),
                     (PermGroup, "_mul_impl"))
    for s in (1, 2, 3, 3, 1, 2):
        assert list(c8.rcol(s)) == [(x + s) % 8 for x in range(8)]
    assert sorted(c8._cols) == [1, 2]
    assert calls[PermGroup, "_rcol_impl"] == 4
    assert [c8.mul(5, s) for s in (1, 2, 3)] == [6, 7, 0]
    assert calls[PermGroup, "_mul_impl"] == 1
    assert calls[PermGroup, "_rcol_impl"] == 4


def test_columns_kept_across_levels(monkeypatch):
    """A multiplier's column is built once, not once per level.

    A cyclic closure holds one element per breadth-first level.  The
    closure builds the generator's column once, and ``validate``, whose
    source and target are the group itself, reads the kept column.
    """
    for g, builds in ((named.cyclic(256), 1), (named.cyclic(1024), 1)):
        gen = g.generators[0]
        calls = 0
        build = g._rcol_impl

        def counted(s):
            nonlocal calls
            calls += 1
            return build(s)

        monkeypatch.setattr(g, "_rcol_impl", counted)
        assert len(close_under_mul(g, [gen])) == g.order
        assert calls == builds
        calls = 0
        Homomorphism(g, g, list(range(g.order))).validate()
        assert calls == 0


def test_wrong_column_fails_axioms():
    """A subclass is refused by name, whatever its columns hold."""
    a5 = named.alternating(5)
    g = LeftForRight(a5, a5)
    with pytest.raises(InternalCheckError,
                       match="no exact group-law check for LeftForRight"):
        verify_group_axioms(g)


def test_non_associative_loop_fails_axioms():
    """A loop with identity and inverses but no associativity is built,
    and refused by the law check, which has no construction to prove."""
    loop = Loop5()
    assert group_laws_by_elements(loop)
    with pytest.raises(InternalCheckError,
                       match="no exact group-law check for Loop5 loop5"):
        verify_group_axioms(loop)


@pytest.mark.parametrize("build", [
    lambda: named.symmetric(4),
    lambda: direct_product(named.quaternion8(), named.dihedral(8)),
], ids=["S4", "Q8xD8"])
def test_wrong_product_off_the_generators_fails_axioms(build):
    """A class without construction data to prove its product is
    refused, right or wrong, here wrong only off the generators."""
    base = build()
    assert 7 not in base.generators
    g = Copy(base, base.generators, bad=(5, 7))
    assert g.mul(5, 7) != base.mul(5, 7)
    for h in (g, Copy(base, base.generators)):
        with pytest.raises(InternalCheckError,
                           match="no exact group-law check for Copy copy"):
            verify_group_axioms(h)


def _base_key(g, p):
    """The key of permutation p in the base index of the ``PermGroup`` g."""
    return group_module._point_images(g.base)(p)


def _index_off_at(g, a, b):
    """A copy of the ``PermGroup`` g whose base index makes
    ``_mul_impl(a, b)`` off by one: two of its entries are exchanged."""
    c = g.mul(a, b)
    d = (c + 1) % g.order
    off = PermGroup(g.perms, g.n_points, g.generators, "off")
    kc, kd = _base_key(off, g.perms[c]), _base_key(off, g.perms[d])
    off._index[kc], off._index[kd] = d, c
    assert off._mul_impl(a, b) == d
    return off


def test_wrong_product_of_a_perm_group_subclass_fails_axioms():
    """The exact permutation-index check is for ``PermGroup`` itself: a
    subclass is refused, and a ``PermGroup`` whose index puts the product
    off at (5, 7) fails the check."""

    class Sub(PermGroup):
        pass

    s4 = named.symmetric(4)
    assert 7 not in s4.generators
    with pytest.raises(InternalCheckError,
                       match="no exact group-law check for Sub"):
        verify_group_axioms(Sub(s4.perms, 4, s4.generators, "s"))
    with pytest.raises(InternalCheckError, match="not inverse bijections"):
        verify_group_axioms(_index_off_at(s4, 5, 7))


@pytest.mark.parametrize("build", [
    lambda off: direct_product(off, named.cyclic(2)),
    lambda off: semidirect_product(off, named.cyclic(2), [range(off.order)]),
], ids=["direct", "semidirect"])
def test_product_with_a_wrong_factor_fails_axioms(build):
    """A product checked from its factors still checks the factors."""
    g = build(_index_off_at(named.symmetric(4), 5, 7))
    with pytest.raises(InternalCheckError, match="not inverse bijections"):
        verify_group_axioms(g)


def test_untabled_factor_checks_its_inverse_law(monkeypatch):
    """C1024 in C1024xC2 fills its inverse list once, one inverse per
    element found from the base, and makes no product; nor do C2 and the
    product.  A second check compares the list with a fresh one."""
    c1024 = named.cyclic(1024)
    g = direct_product(c1024, named.cyclic(2))
    assert len(c1024.generators) == 1
    calls = _counted(monkeypatch, (PermGroup, "_mul_impl"),
                     (PermGroup, "_inv_impl"))
    verify_group_axioms(g)
    assert calls[PermGroup, "_mul_impl"] == 0
    assert calls[PermGroup, "_inv_impl"] == 1024 + 2
    c1024.inverses()[5] = 6
    with pytest.raises(InternalCheckError, match="inverse law fails at 5"):
        verify_group_axioms(g)


def test_shared_factor_verified_once(monkeypatch, corpus):
    """A5wrC2 checks its A5, both coordinates of the base, and C2 once each."""
    wr = corpus["A5wrC2"]
    assert wr.base.left is wr.base.right
    checked = []
    monkeypatch.setattr(group_module, "_check_perm_index", checked.append)
    verify_group_axioms(wr)
    assert checked == [wr.base.left, wr.top]


def test_product_axioms_make_no_products(monkeypatch, corpus):
    """An exact product's law check calls no ``_mul_impl`` at any level."""
    s5 = named.symmetric(5)
    groups = [corpus["A5wrC2"], direct_product(s5, s5), corpus["S5wrC2"]]
    calls = _counted(monkeypatch, *((cls, "_mul_impl") for cls in (
        PermGroup, DirectProductGroup, SemidirectProductGroup)))
    for g in groups:
        verify_group_axioms(g)
    assert not any(calls.values())


def _exact_products(groups):
    """The exact products among ``groups`` and among their factors."""
    found, todo = [], list(groups)
    while todo:
        g = todo.pop()
        if type(g) is DirectProductGroup:
            todo += g.left, g.right
        elif type(g) is SemidirectProductGroup:
            todo += g.base, g.top
        else:
            continue
        if g not in found:
            found.append(g)
    return found


def test_structural_check_agrees_with_element_laws(corpus, dense_corpus):
    """Products checked from their factors pass the element-wise oracle."""
    products = _exact_products([*corpus.values(), *dense_corpus.values()])
    assert len(products) >= 10
    assert {g.order <= 512 for g in products} == {True, False}
    for g in products:
        verify_group_axioms(g)
        assert group_laws_by_elements(g), g.name


def _d8_perms():
    d8 = named.dihedral(8)
    return d8, list(d8.perms)


def test_perm_index_not_inverse_of_perms_fails_axioms():
    """A base index that does not invert ``perms`` raises: two entries
    exchanged, one entry off at one element, or a key that is no
    element's."""
    d8, perms = _d8_perms()
    verify_group_axioms(PermGroup(perms, d8.n_points, d8.generators, "d8"))
    index = d8._index
    k5, k6 = _base_key(d8, perms[5]), _base_key(d8, perms[6])
    swapped = {**index, k5: 6, k6: 5}
    off = {**index, k5: 6}
    extra = {**index, (d8.n_points,) * len(d8.base): 7}
    for bad in (swapped, off, extra):
        g = PermGroup(perms, d8.n_points, d8.generators, "d8")
        g._index = bad
        with pytest.raises(InternalCheckError,
                           match="not inverse bijections"):
            verify_group_axioms(g)


def test_perm_group_not_indexed_from_the_identity_fails_axioms():
    """A coset of D8 in S4, with perms[0] != 1, is refused."""
    d8, perms = _d8_perms()
    moved = [compose(perms[3], p) for p in perms]
    g = PermGroup(moved, d8.n_points, d8.generators, "coset")
    with pytest.raises(InternalCheckError, match="not inverse bijections"):
        verify_group_axioms(g)


def test_perm_off_the_base_fails_axioms():
    """C4xC2 on 4 + 2 points has base [0, 4], and its generators send the
    base into {0, 1, 4, 5}.  An element's permutation with the images of
    points 2 and 3 exchanged after construction keeps the base index and
    every key the generator columns look up, and only the comparison with
    composition finds it."""
    g = group_from_permutations([(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
    assert g.order == 8 and g.base == [0, 4]
    off = PermGroup(list(g.perms), g.n_points, g.generators, "off")
    x = next(i for i in g.elements() if i not in (0, *g.generators))
    p = off.perms[x]
    off.perms[x] = (p[0], p[1], p[3], p[2], p[4], p[5])
    with pytest.raises(InternalCheckError,
                       match="disagree with composition by generator"):
        verify_group_axioms(off)


def test_perm_group_of_a_map_that_is_no_bijection_fails_axioms():
    """The identity and a constant map on two points are closed under
    composition and keyed apart by their base images, but no group."""
    g = PermGroup([(0, 1), (0, 0)], 2, [1], "monoid")
    assert g.base == [0, 1] and g.order == 2
    with pytest.raises(InternalCheckError,
                       match="disagree with composition by generator 1"):
        verify_group_axioms(g)


def test_perm_group_axioms_make_no_products(monkeypatch):
    """A permutation group's law check calls no ``_mul_impl``: it reads
    its generators' columns and a fresh inverse list."""
    groups = [named.dihedral(512), named.cyclic(256)]
    calls = _counted(monkeypatch, (PermGroup, "_mul_impl"))
    for g in groups:
        assert type(g) is PermGroup
        verify_group_axioms(g)
    assert calls[PermGroup, "_mul_impl"] == 0


def test_product_inverse_lists_match_construction(corpus, dense_corpus):
    """Lists assembled from the factors' lists invert every element."""
    groups = [g for g in _built_groups(corpus, dense_corpus)
              if isinstance(g, (DirectProductGroup, SemidirectProductGroup))]
    assert len(groups) >= 6
    for g in groups:
        inv, mul = g.inverses(), g._mul_impl
        assert len(inv) == g.order
        assert all(mul(a, inv[a]) == 0 for a in g.elements()), g.name


def _s5xs5_by_left():
    """S5xS5 by its left factor, of order 120: the kernel [[0], [1]]."""
    s5 = named.symmetric(5)
    p = direct_product(s5, s5)
    return quotient(p, p.left_factor)[0]


@pytest.mark.parametrize("build", [
    lambda: direct_product(named.symmetric(4), named.cyclic(3)),
    lambda: named.a5_wr_c2(),
    _s5xs5_by_left,
], ids=["S4xC3", "A5wrC2", "quotient"])
def test_wrong_inverse_list_fails_axioms(build):
    g = build()
    verify_group_axioms(g)
    assert group_laws_by_elements(g)
    inv = g.inverses()
    inv[7] = inv[8]
    with pytest.raises(InternalCheckError, match="inverse law fails at 7"):
        verify_group_axioms(g)
    assert not group_laws_by_elements(g)


def _s4_by_v4():
    s4 = named.symmetric(4)
    v4 = next(n for n in _normal_nodes(s4) if n.order == 4)
    return s4, v4


def test_coset_groups_pass_axioms(corpus, dense_corpus):
    """Quotients and a materialized subgroup pass the check and the
    element-wise oracle; one of them is over a proper K, so its coset
    map holds -1 outside K."""
    groups = [g for g in _built_groups(corpus, dense_corpus)
              if type(g) is CosetGroup]
    assert any(-1 in g.coset_of for g in groups)
    for g in groups:
        verify_group_axioms(g)
        assert group_laws_by_elements(g), g.name


def _s4_a4_by_v4():
    """The chief factor A4/V4 of S4, from ``factor_group``."""
    from chiefblocks.factors import factor_group, make_factor
    s4, v4 = _s4_by_v4()
    a4 = next(n for n in _normal_nodes(s4) if n.order == 12)
    return factor_group(make_factor(s4, a4, v4))[0]


def _quotient_of_a_quotient():
    """(D8xS4)/Z, of order 96, by a normal subgroup of order 4 of it."""
    d8xs4 = direct_product(named.dihedral(8), named.symmetric(4))
    q = quotient(d8xs4, center(d8xs4))[0]
    return quotient(q, next(n for n in _normal_nodes(q) if n.order == 4))[0]


def _kernel_by_redundant_generators():
    """S4 by V4, the kernel given by all of its members, the identity too."""
    s4, v4 = _s4_by_v4()
    kernel = Subgroup(s4, v4.members, sorted(v4.members))
    return quotient(s4, kernel)[0]


def test_coset_maps_match_products_by_definition(corpus, dense_corpus):
    """Every coset map and its least representatives equal {m*l : l in L}
    taken by the parent's ``_mul_impl`` (``cosets_by_mul``)."""
    groups = [g for g in _built_groups(corpus, dense_corpus)
              if type(g) is CosetGroup]
    extra = [_s4_a4_by_v4(), _quotient_of_a_quotient(),
             _kernel_by_redundant_generators()]
    assert [g.order for g in extra] == [3, 24, 6]
    assert type(extra[1].parent_group) is CosetGroup
    assert -1 in extra[0].coset_of
    for q in [*groups, *extra]:
        assert (q.coset_of, q.reps) == cosets_by_mul(q), q.name
        verify_group_axioms(q)


def test_quotient_construction_makes_no_products(monkeypatch):
    """S5xS5 by its left factor walks each coset along the columns of
    the kernel's generators: building the cosets calls no ``mul`` and no
    ``_mul_impl`` of the parent or its factors.  ``quotient`` tests the
    kernel's normality first, by ``conj``, outside ``CosetGroup``."""
    s5 = named.symmetric(5)
    p = direct_product(s5, s5)
    calls = _counted(monkeypatch, (FiniteGroup, "mul"), *(
        (cls, "_mul_impl") for cls in (PermGroup, DirectProductGroup)))
    made, init = [], CosetGroup.__init__

    def counted_init(self, *args):
        before = sum(calls.values())
        init(self, *args)
        made.append(sum(calls.values()) - before)

    monkeypatch.setattr(CosetGroup, "__init__", counted_init)
    q = quotient(p, p.left_factor)[0]
    assert q.reps == list(range(120))  # (0, b) for each b
    assert made == [0]


@pytest.mark.parametrize("build", [
    lambda: quotient(*_s4_by_v4())[0],
    lambda: subgroup_as_group(_s4_by_v4()[1])[0],
    _s4_a4_by_v4,
], ids=["quotient", "subgroup", "factor"])
def test_coset_map_with_a_moved_element_fails_axioms(build):
    """One element moved into the next coset breaks the split of K."""
    q = build()
    verify_group_axioms(q)
    coset_of = q.coset_of
    x = max(x for x, c in enumerate(coset_of) if c >= 0)  # the last of K
    coset_of[x] = (coset_of[x] + 1) % q.order
    with pytest.raises(InternalCheckError,
                       match="does not split K into cosets"):
        verify_group_axioms(q)


def test_coset_map_with_an_element_outside_k_fails_axioms():
    """V4 as a group of its own, its coset map extended to an element of
    S4 outside V4: only the count of K catches it, since the trivial
    kernel has no generators and every representative keeps its id."""
    s4, v4 = _s4_by_v4()
    q = subgroup_as_group(v4)[0]
    verify_group_axioms(q)
    q.coset_of[min(set(s4.elements()) - v4.members)] = 1
    with pytest.raises(InternalCheckError,
                       match="does not split K into cosets"):
        verify_group_axioms(q)


def test_coset_group_over_a_non_normal_kernel_fails_axioms():
    """A C2 of S3 handed to ``CosetGroup`` past ``quotient``'s normality
    test: its three left cosets split S3, and the generators reach all
    three."""
    s3 = named.symmetric(3)
    t = next(x for x in s3.generators if s3.mul(x, x) == 0)
    c2 = Subgroup(s3, frozenset((0, t)), [t])
    assert any(s3.conj(y, t) != t for y in s3.generators)
    q = CosetGroup(s3, frozenset(s3.elements()), c2, s3.generators, "s3/c2")
    assert q.order == 3
    with pytest.raises(InternalCheckError, match="not normal in K"):
        verify_group_axioms(q)


def test_quotient_of_a_corrupted_parent_fails_axioms():
    """The parent is checked first: a swapped base index raises."""
    s4, v4 = _s4_by_v4()
    q = quotient(s4, v4)[0]
    verify_group_axioms(q)
    k5, k6 = _base_key(s4, s4.perms[5]), _base_key(s4, s4.perms[6])
    s4._index = {**s4._index, k5: 6, k6: 5}
    with pytest.raises(InternalCheckError, match="not inverse bijections"):
        verify_group_axioms(q)


def test_quotient_axioms_make_few_products(monkeypatch):
    """The S5xS5 quotient is checked from its parent, its cosets and its
    kernel's generators, with at most 120 ``_mul_impl`` calls in all."""
    q = _s5xs5_by_left()
    assert q.order == 120
    calls = _counted(monkeypatch, *((cls, "_mul_impl") for cls in (
        PermGroup, DirectProductGroup, CosetGroup)))
    verify_group_axioms(q)
    assert sum(calls.values()) <= 120


def test_generators_missing_an_element_fail_axioms():
    """C4 on the square of its generator: a ``Copy`` is refused by class,
    and a ``PermGroup`` by the walk over its generator columns."""
    c4 = named.cyclic(4)
    square = c4.mul(c4.generators[0], c4.generators[0])
    with pytest.raises(InternalCheckError,
                       match="no exact group-law check for Copy copy"):
        verify_group_axioms(Copy(c4, [square]))
    g = PermGroup(c4.perms, c4.n_points, [square], "c4")
    with pytest.raises(InternalCheckError,
                       match="generators of c4 do not generate it"):
        verify_group_axioms(g)


def test_coset_generators_missing_a_coset_fail_axioms():
    """S4 over the trivial kernel on one generator misses a coset; the ids
    {0, 1, 2} of S3, no subgroup, on generator 2 leave K, though a walk
    that counted the -1 of an element outside K would reach three ids."""
    s4, s3 = named.symmetric(4), named.symmetric(3)
    for q in (CosetGroup(s4, frozenset(s4.elements()), s4.trivial_subgroup(),
                         s4.generators[:1], "s4/1"),
              CosetGroup(s3, frozenset((0, 1, 2)), s3.trivial_subgroup(),
                         [2], "s3|3")):
        with pytest.raises(InternalCheckError,
                           match=f"generators of {q.name} do not generate K"):
            verify_group_axioms(q)


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


def _swap_off_generators(table, g):
    """The table with its last two entries, at no generator, exchanged."""
    x, y = g.order - 1, g.order - 2
    assert {x, y}.isdisjoint([0, *g.generators])
    table = list(table)
    table[x], table[y] = table[y], table[x]
    return table


def test_column_check_rejects_swapped_action_entries():
    """On S5xS5 the generator images alone do not prove the map."""
    s5 = named.symmetric(5)
    base = direct_product(s5, s5)
    swap = named.swap_action_table(base)
    semidirect_product(base, named.cyclic(2), [swap])
    with pytest.raises(ActionNotAutomorphism, match="not multiplicative"):
        semidirect_product(base, named.cyclic(2),
                           [_swap_off_generators(swap, base)])


def test_column_check_rejects_swapped_identity_entries():
    a5 = named.alternating(5)
    g = direct_product(a5, a5)
    Homomorphism(g, g, list(range(g.order))).validate()
    with pytest.raises(HomomorphismError):
        Homomorphism(g, g, _swap_off_generators(range(g.order), g)).validate()


def test_subgroup_as_group_roundtrip():
    s4 = named.symmetric(4)
    a4 = next(n for n in _normal_nodes(s4) if n.order == 12)
    grp, embed = subgroup_as_group(a4)
    assert grp.order == 12
    embed.validate()
    assert set(embed.mapping) == set(a4.members)


@pytest.mark.parametrize("points", [1, 2, 6, 512])
def test_compose_applies_the_right_permutation_first(points):
    """compose(p, q) is i -> p(q(i)), a tuple, for one point and more."""
    rng = random.Random(points)
    for _ in range(20):
        p, q = (tuple(rng.sample(range(points), points)) for _ in range(2))
        pq = compose(p, q)
        assert type(pq) is tuple
        assert pq == tuple(p[q[i]] for i in range(points))
