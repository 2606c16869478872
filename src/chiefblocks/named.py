"""Builders for the stock groups used throughout the library and CLI.

Names accepted by the CLI: Cn, Sn, An, Dn (dihedral of order n), Q8, V4,
SL23, SL25, ES32 (the central product of two quaternion groups) and A5wrC2.
"""

from __future__ import annotations

import re

from .errors import CapExceeded, InternalCheckError, SpecError, UnknownName
from .group import (
    DEFAULT_ELEMENT_CAP,
    DirectProductGroup,
    FiniteGroup,
    Homomorphism,
    Subgroup,
    center,
    direct_product,
    group_from_permutations,
    quotient,
    semidirect_product,
    subgroup_generated,
)
from .perm import perm_from_cycles


def cyclic(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    if n < 1:
        raise SpecError("cyclic group order must be positive")
    if n == 1:
        return group_from_permutations([], n_points=1, cap=cap, name="C1")
    cycle = perm_from_cycles([list(range(n))], n)
    return group_from_permutations([cycle], cap=cap, name=f"C{n}")


def symmetric(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    if n < 2:
        return group_from_permutations([], n_points=1, cap=cap, name=f"S{n}")
    gens = [perm_from_cycles([[0, 1]], n)]
    if n > 2:
        gens.append(perm_from_cycles([list(range(n))], n))
    return group_from_permutations(gens, cap=cap, name=f"S{n}")


def alternating(n: int, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    if n < 3:
        return group_from_permutations([], n_points=max(n, 1), cap=cap,
                                       name=f"A{n}")
    gens = [perm_from_cycles([[0, 1, 2]], n)]
    if n > 3:
        if n % 2:
            gens.append(perm_from_cycles([list(range(n))], n))
        else:
            gens.append(perm_from_cycles([list(range(1, n))], n))
    return group_from_permutations(gens, cap=cap, name=f"A{n}")


def dihedral(order: int, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Dihedral group of the given order, acting on order/2 vertices."""
    if order < 6 or order % 2:
        raise SpecError("dihedral order must be an even number >= 6")
    m = order // 2
    rot = perm_from_cycles([list(range(m))], m)
    refl = tuple((m - i) % m for i in range(m))
    return group_from_permutations([rot, refl], cap=cap, name=f"D{order}")


def klein_four(cap: int = DEFAULT_ELEMENT_CAP) -> DirectProductGroup:
    return direct_product(cyclic(2, cap), cyclic(2, cap), cap, name="V4")


def quaternion8(cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    # Left-regular representation on the units 1,i,j,k,-1,-i,-j,-k.
    i = perm_from_cycles([[0, 1, 4, 5], [2, 3, 6, 7]], 8)
    j = perm_from_cycles([[0, 2, 4, 6], [1, 7, 5, 3]], 8)
    g = group_from_permutations([i, j], cap=cap, name="Q8")
    if g.order != 8:
        raise InternalCheckError(f"Q8 came out of order {g.order}")
    return g


def _sl2(p: int, cap: int) -> FiniteGroup:
    """SL(2, p) acting on the nonzero vectors of F_p^2."""
    points = p * p - 1

    def vec_index(a: int, b: int) -> int:
        return a * p + b - 1

    def matrix_perm(m) -> tuple:
        images = [0] * points
        for a in range(p):
            for b in range(p):
                if a == 0 and b == 0:
                    continue
                na = (m[0][0] * a + m[0][1] * b) % p
                nb = (m[1][0] * a + m[1][1] * b) % p
                images[vec_index(a, b)] = vec_index(na, nb)
        return tuple(images)

    s = matrix_perm([[0, p - 1], [1, 0]])
    t = matrix_perm([[1, 1], [0, 1]])
    return group_from_permutations([s, t], cap=cap, name=f"SL2{p}")


def sl23(cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    g = _sl2(3, cap)
    if g.order != 24:
        raise InternalCheckError(f"SL(2,3) came out of order {g.order}")
    return g


def sl25(cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    g = _sl2(5, cap)
    if g.order != 120:
        raise InternalCheckError(f"SL(2,5) came out of order {g.order}")
    return g


class CentralProductResult:
    """A central product together with its two image subgroups."""

    def __init__(self, group: FiniteGroup, proj: Homomorphism,
                 left_image: Subgroup, right_image: Subgroup):
        self.group = group
        self.proj = proj
        self.left_image = left_image
        self.right_image = right_image


def central_product(left: FiniteGroup, right: FiniteGroup,
                    identify: list[tuple[int, int]],
                    cap: int = DEFAULT_ELEMENT_CAP,
                    name: str | None = None) -> CentralProductResult:
    """Quotient of left x right identifying central elements pairwise.

    ``identify`` lists pairs (a, b) of ids; the quotient kernel is generated
    by the elements (a, b^-1), which must be central in the direct product.
    """
    prod = direct_product(left, right, cap)
    seeds = []
    for a, b in identify:
        pid = prod.embed_left(a)
        qid = prod.embed_right(right.inv(b))
        seeds.append(prod.mul(pid, qid))
    kernel = subgroup_generated(prod, seeds)
    if not kernel.members <= center(prod).members:
        raise SpecError("identified elements are not central")
    kernel.is_normal = True
    q, proj = quotient(prod, kernel)
    q.name = name or f"{left.name}o{right.name}"
    images = [Subgroup(q, frozenset(proj(x) for x in f.members),
                       [proj(x) for x in f.gens if proj(x) != 0], True)
              for f in (prod.left_factor, prod.right_factor)]
    return CentralProductResult(q, proj, *images)


def extraspecial32(cap: int = DEFAULT_ELEMENT_CAP) -> CentralProductResult:
    """Q8 o Q8: the order-32 central product of two quaternion groups."""
    q8a = quaternion8(cap)
    q8b = quaternion8(cap)
    minus_one = next(x for x in q8a.elements()
                     if x != 0 and q8a.element_order(x) == 2)
    res = central_product(q8a, q8b, [(minus_one, minus_one)], cap,
                          name="ES32")
    if res.group.order != 32:
        raise InternalCheckError(f"ES32 came out of order {res.group.order}")
    return res


def swap_action_table(prod: DirectProductGroup) -> list[int]:
    """The automorphism of G x G swapping its coordinates."""
    r = prod.right.order
    swap = [0] * prod.order
    for a in range(prod.left.order):
        for b in range(r):
            swap[a * r + b] = b * r + a
    return swap


def wreath_c2(g: FiniteGroup, cap: int = DEFAULT_ELEMENT_CAP,
              name: str | None = None) -> FiniteGroup:
    """G wr C2: the generator of C2 swaps the coordinates of G x G."""
    base = direct_product(g, g, cap)
    return semidirect_product(base, cyclic(2, cap), [swap_action_table(base)],
                              cap, name=name or f"{g.name}wrC2")


def a5_wr_c2(cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    return wreath_c2(alternating(5, cap), cap, "A5wrC2")


def s5_wr_c2(cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    return wreath_c2(symmetric(5, cap), cap, "S5wrC2")


_PARAM_RE = re.compile(r"^([CSAD])(\d+)$")


def build_named(name: str, cap: int = DEFAULT_ELEMENT_CAP) -> FiniteGroup:
    """Resolve a named-group string to a FiniteGroup."""
    fixed = {
        "Q8": quaternion8,
        "V4": klein_four,
        "SL23": sl23,
        "SL25": sl25,
        "A5wrC2": a5_wr_c2,
    }
    if name in fixed:
        return fixed[name](cap)
    if name == "ES32":
        return extraspecial32(cap).group
    m = _PARAM_RE.match(name)
    if m:
        kind, n = m.group(1), int(m.group(2))
        # Refuse before allocating an n-point permutation: each family's
        # order is at least its point count (n, or n/2 for Dn; An is
        # trivial below 3 points).
        points = n // 2 if kind == "D" else n
        if points > cap and (kind != "A" or n >= 3):
            raise CapExceeded(f"closure exceeded element cap {cap}")
        if kind == "C":
            return cyclic(n, cap)
        if kind == "S":
            return symmetric(n, cap)
        if kind == "A":
            return alternating(n, cap)
        if kind == "D":
            return dihedral(n, cap)
    raise UnknownName(f"unknown group name: {name!r}")
