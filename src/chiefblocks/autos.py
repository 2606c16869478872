"""Isomorphism search by generator images, and characteristic simplicity.

The search extends the source's own generators: it enumerates image tuples
compatible with element orders and keeps the assignments that extend to a
bijective homomorphism.  Extension is ``group.extend_by_images``, a walk of
the Cayley graph of the source: a partial map that survives every edge
(x, x*g) is multiplicative on the subgroup the chosen generators generate.
Characteristic simplicity reads the socle and the minimal normal subgroups
of the lattice, and searches only between non-abelian minimal normal
subgroups.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import SearchCapExceeded
from .group import (
    FiniteGroup,
    Homomorphism,
    extend_by_images,
    subgroup_as_group,
)
from .lattice import is_prime_power, normal_subgroups, socle

DEFAULT_SEARCH_CAP = 500_000


def _image_candidates(src: FiniteGroup, tgt: FiniteGroup,
                      gens: Sequence[int]) -> list[list[int]]:
    by_order: dict[int, list[int]] = {}
    for x in tgt.elements():
        by_order.setdefault(tgt.element_order(x), []).append(x)
    return [by_order.get(src.element_order(g), []) for g in gens]


def iter_isomorphisms(src: FiniteGroup, tgt: FiniteGroup,
                      search_cap: int = DEFAULT_SEARCH_CAP
                      ) -> Iterator[Homomorphism]:
    """Yield bijective homomorphisms src -> tgt in a deterministic order.

    The images searched are those of ``src.generators``; a group from
    ``subgroup_as_group`` carries the short list of ``generating_ids``.
    """
    if src.order != tgt.order:
        return
    if src.order == 1:
        yield Homomorphism(src, tgt, [0])
        return
    gens = src.generators
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


def is_characteristically_simple(g: FiniteGroup) -> bool:
    """True iff no subgroup other than 1 and G is automorphism-stable.

    The trivial group answers True.  A finite G > 1 is characteristically
    simple iff its socle is G and its minimal normal subgroups (the atoms)
    are pairwise isomorphic.  A join of atoms is a direct product of some
    of them, chosen greedily from any one atom M on; the other factors
    centralize M, so a normal subgroup of M is normal in G, and M is simple.

    (=>) The socle is characteristic and not trivial, so it is G.
    Automorphisms permute the atoms and keep their isomorphism types, so
    the join of the atoms isomorphic to an atom M is characteristic, hence
    G = M x M_2 x ... x M_j with every M_i isomorphic to M.  If M = C_p, G
    is elementary abelian and every atom is C_p.  Otherwise an atom N
    meets some M_i, since a normal N meeting every factor trivially
    commutes with all of them and lies in the trivial center; N and M_i are
    minimal, so N = N meet M_i = M_i.

    (<=) G = M_1 x ... x M_k with every atom isomorphic to one simple T, and
    Aut(G) moves any atom onto any other: for T = C_p, G = C_p^k and
    GL(k, p) is transitive on the subgroups of order p; for T non-abelian,
    the atoms are the k factors (as above), and a coordinate swap exchanges
    two of them.  A characteristic K > 1 holds an atom, so all of them, so
    their join G.

    Abelian atoms are C_p and compare by their order; non-abelian atoms
    take one isomorphism search from the first atom to each of the others.
    """
    if g.order == 1:
        return True
    lat = normal_subgroups(g)
    if socle(g).order != g.order:
        return False
    first, *rest = (lat.nodes[i] for i in lat.up[0])
    if any(m.order != first.order for m in rest):
        return False
    if is_prime_power(first.order):
        return True
    src = subgroup_as_group(first)[0]
    return all(next(iter_isomorphisms(src, subgroup_as_group(m)[0]), None)
               is not None for m in rest)
