"""Permutations on {0..n-1}, stored as tuples of images."""

from __future__ import annotations

from operator import itemgetter

from .errors import InvalidPermutation

Perm = tuple


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def is_perm(p) -> bool:
    return sorted(p) == list(range(len(p)))


def check_perm(p, n: int | None = None) -> Perm:
    p = tuple(int(x) for x in p)
    if n is not None and len(p) != n:
        raise InvalidPermutation(f"permutation has {len(p)} points, expected {n}")
    if not is_perm(p):
        raise InvalidPermutation(f"not a bijection: {p}")
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """(p*q)(i) = p(q(i)): apply q first."""
    if len(q) < 2:  # itemgetter of one index returns no tuple
        return tuple([p[i] for i in q])
    return itemgetter(*q)(p)


def perm_from_cycles(cycles, n: int) -> Perm:
    """Build a permutation on n points from a list of cycles.

    Each cycle is a sequence of distinct points; points absent from every
    cycle are fixed.
    """
    images = list(range(n))
    seen = set()
    for cyc in cycles:
        cyc = [int(x) for x in cyc]
        for x in cyc:
            if not 0 <= x < n:
                raise InvalidPermutation(f"point {x} outside 0..{n - 1}")
            if x in seen:
                raise InvalidPermutation(f"point {x} repeated across cycles")
            seen.add(x)
        for i, x in enumerate(cyc):
            images[x] = cyc[(i + 1) % len(cyc)]
    return tuple(images)
