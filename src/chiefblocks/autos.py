"""Automorphism and isomorphism search by generator images.

The search picks a small generating set greedily, enumerates image tuples
compatible with element orders, and keeps the assignments that extend to a
bijective homomorphism.  Extension is ``group.extend_by_images``, a walk of
the Cayley graph of the source: a partial map that survives every edge
(x, x*g) is multiplicative on the subgroup the chosen generators generate.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .errors import SearchCapExceeded
from .group import (
    FiniteGroup,
    Homomorphism,
    Subgroup,
    center,
    close_under_mul,
    derived_subgroup,
    extend_by_images,
    subgroup_as_group,
)

DEFAULT_SEARCH_CAP = 500_000


def greedy_generating_set(g: FiniteGroup) -> list[int]:
    """A short generating list, growing the closure as fast as possible.

    Starts from an element of maximal order and repeatedly adds the element
    whose inclusion yields the largest closure.  Scanning every candidate is
    quadratic in the order, which is fine at the sizes the search is used on.
    """
    if g.order == 1:
        return []
    first = max(g.elements(), key=lambda x: (g.element_order(x), -x))
    gens = [first]
    closed = close_under_mul(g, gens)
    while len(closed) < g.order:
        best, best_size, best_closed = None, 0, None
        for x in g.elements():
            if x in closed:
                continue
            cand = close_under_mul(g, [x], closed, gens)
            if len(cand) > best_size:
                best, best_size, best_closed = x, len(cand), cand
                if best_size == g.order:
                    break
        gens.append(best)
        closed = best_closed
    return gens


def _image_candidates(src: FiniteGroup, tgt: FiniteGroup,
                      gens: Sequence[int]) -> list[list[int]]:
    by_order: dict[int, list[int]] = {}
    for x in tgt.elements():
        by_order.setdefault(tgt.element_order(x), []).append(x)
    return [by_order.get(src.element_order(g), []) for g in gens]


def iter_isomorphisms(src: FiniteGroup, tgt: FiniteGroup,
                      search_cap: int = DEFAULT_SEARCH_CAP
                      ) -> Iterator[Homomorphism]:
    """Yield bijective homomorphisms src -> tgt in a deterministic order."""
    if src.order != tgt.order:
        return
    if src.order == 1:
        yield Homomorphism(src, tgt, [0])
        return
    gens = greedy_generating_set(src)
    candidates = _image_candidates(src, tgt, gens)
    if any(not c for c in candidates):
        return
    budget = search_cap

    def assign(k: int, partial: list[int]) -> Iterator[Homomorphism]:
        nonlocal budget
        if k == len(gens):
            return
        for img in candidates[k]:
            trial = partial + [img]
            if budget <= 0:
                raise SearchCapExceeded(
                    f"image search exceeded cap {search_cap}")
            budget -= 1
            # Partial-relation pruning: the assignment so far must already
            # extend consistently on the subgroup the chosen gens generate.
            table = extend_by_images(src, gens[:k + 1], trial, tgt.mul, 0)
            if table is None:
                continue
            if k + 1 == len(gens):
                if len(set(table)) == src.order:
                    yield Homomorphism(src, tgt, table)
            else:
                yield from assign(k + 1, trial)

    yield from assign(0, [])


def iter_automorphisms(g: FiniteGroup,
                       search_cap: int = DEFAULT_SEARCH_CAP
                       ) -> Iterator[Homomorphism]:
    yield from iter_isomorphisms(g, g, search_cap)


def automorphism_group(g: FiniteGroup) -> list[Homomorphism]:
    """Complete list of automorphisms found by generator-image search."""
    cached = g._cache.get("automorphisms")
    if cached is None:
        cached = list(iter_automorphisms(g))
        g._cache["automorphisms"] = cached
    return cached


def _complement_swap(g: FiniteGroup, n: Subgroup,
                     m: Subgroup) -> Optional[list[int]]:
    """An automorphism of g exchanging internal direct factors n and m.

    Requires g = n x m internally.  Built from an isomorphism phi: n -> m as
    x*y |-> phi^-1(y)*phi(x); the factors commute elementwise, so the formula
    is multiplicative.
    """
    if (n.order != m.order or n.members & m.members != {0}
            or n.order * m.order != g.order):
        return None
    n_grp, n_embed = subgroup_as_group(n)
    m_grp, m_embed = subgroup_as_group(m)
    try:
        phi = next(iter_isomorphisms(n_grp, m_grp), None)
    except SearchCapExceeded:
        return None
    if phi is None:
        return None
    fwd = {n_embed(x): m_embed(phi(x)) for x in n_grp.elements()}
    bwd = {m_embed(phi(x)): n_embed(x) for x in n_grp.elements()}
    table = [-1] * g.order
    for x in sorted(n.members):
        fx = fwd[x]
        for y in m.members:
            table[g.mul(x, y)] = g.mul(bwd[y], fx)
    if -1 in table or len(set(table)) != g.order:
        return None
    return table


def is_characteristically_simple(g: FiniteGroup) -> bool:
    """True iff no proper non-trivial normal subgroup is automorphism-stable.

    Characteristic subgroups are normal, so only lattice nodes need to be
    fused.  Canonical characteristic subgroups (center, derived subgroup,
    socle) give fast negative answers; positive answers come from explicit
    fusing automorphisms, found either by swapping complementary factors or
    by the full generator-image enumeration.
    """
    from .lattice import normal_subgroups, socle

    cached = g._cache.get("char_simple")
    if cached is not None:
        return cached
    lat = normal_subgroups(g)
    proper = [n for n in lat.nodes if 1 < n.order < g.order]
    result = None
    if not proper:
        result = True
    if result is None:
        for canonical in (center(g), derived_subgroup(g), socle(g)):
            if 1 < canonical.order < g.order:
                result = False
                break
    if result is None:
        unfused = {n.members for n in proper}

        def absorb(table: list[int]) -> None:
            for mem in list(unfused):
                if frozenset(table[x] for x in mem) != mem:
                    unfused.discard(mem)

        from .group import centralizer_subgroup
        for n in proper:
            if n.members not in unfused:
                continue
            comp = centralizer_subgroup(g, n.gens)
            table = _complement_swap(g, n, comp)
            if table is not None:
                absorb(table)
        if unfused:
            for auto in iter_automorphisms(g):
                absorb(auto.mapping)
                if not unfused:
                    break
        result = not unfused
    g._cache["char_simple"] = result
    return result
