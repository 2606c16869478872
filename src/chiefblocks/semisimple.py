"""Components, the layer, semisimple type, and the weak/semisimple
classification of characteristically simple groups (a finite group never
has the paper's third type, stacking)."""

from __future__ import annotations

from .autos import is_characteristically_simple
from .blocks import chief_blocks
from .errors import (
    InternalCheckError,
    NotCharacteristicallySimple,
    NotSemisimpleType,
)
from .factors import NormalFactor, factor_centralizer, factor_group
from .group import (
    FiniteGroup,
    Subgroup,
    ambient_subgroup,
    center,
    quotient,
    subgroup_key,
)
from .lattice import is_prime_power, normal_subgroups

NOT_SEMISIMPLE = "not-semisimple"
SEMISIMPLE = "semisimple"
STRICT_SEMISIMPLE = "strict-semisimple"

WEAK = "weak"


class ComponentReport:
    def __init__(self, group: FiniteGroup, components: list[Subgroup],
                 layer: Subgroup, type_: str):
        self.group = group
        self.components = components
        self.layer = layer
        self.type = type_


def components(ambient) -> list[Subgroup]:
    """All components of the ambient: its subnormal quasisimple subgroups.

    A node N is the normal closure of a component iff it has exactly one
    lower cover L, |N:L| is no prime power, and L <= Z(N) (``_closures``).
    The components with closure N are the minimal nodes of N's own lattice
    outside L.  So one sub-lattice is built per closure, none per candidate.

    (=>) N = ncl(M) is the central product of the k conjugates M_i of M, so
    N/Z(N) = T^k with T = M/Z(M) non-abelian simple, a chief factor as the
    ambient permutes the T_i transitively.  A normal K < N with K*Z(N) = N
    gives N = [N, N] = [K, K] <= K, so Z(N) is N's one lower cover, of index
    no prime power (Burnside, as in ``lattice.is_perfect``).  With P_i the
    preimage of T_i, M_i = [P_i, P_i]; a normal subgroup of N outside Z(N)
    maps onto some T_i, so it holds M_i.

    (<=) [N, N] is a node; below N it would lie in L and make N/L abelian.
    So N is perfect, L = Z(N) and N/L = T^k.  M_i = [P_i, P_i] is perfect as
    L is central, and M_i/(M_i meet L) = T_i is simple with M_i meet L
    central, so M_i is quasisimple, and M_i <| N <| G makes it a component.
    The image of ncl(M_i) in N/L is normal and non-trivial, so
    N = ncl(M_i)*L, and N perfect gives ncl(M_i) = N.

    A component is normal iff it is its own closure; ``is_normal_in``
    decides that from its members, as a union of the ambient's classes.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("components", subgroup_key(amb))
    if (cached := g._cache.get(key)) is not None:
        return cached
    lat = normal_subgroups(amb)
    result = []
    for i in _closures(lat):
        sub = normal_subgroups(lat.nodes[i])
        z = sub.index_of(lat.nodes[lat.down[i][0]])  # L = Z(N)
        for j, m in enumerate(sub.nodes):  # the minimal nodes outside L
            if not sub.le(j, z) and all(sub.le(k, z) for k in sub.down[j]):
                result.append(m)
    result.sort(key=lambda s: (s.order, s.sorted_members()))
    g._cache[key] = result
    return result


def _closures(lat) -> list[int]:
    """The nodes N with one lower cover L, |N:L| no prime power, L <= Z(N):
    the components' normal closures (``components``)."""
    return [i for i, (n, down) in enumerate(zip(lat.nodes, lat.down))
            if len(down) == 1
            and not is_prime_power(n.order // lat.nodes[down[0]].order)
            and lat.nodes[down[0]] <= center(n)]


def layer(ambient) -> Subgroup:
    """Subgroup E generated by all components (trivial when there are none).

    E is the join of the components' normal closures (``_closures``):
    conjugation permutes the components, so E is normal and holds each
    closure, and the join holds each component.
    """
    lat = normal_subgroups(ambient_subgroup(ambient))
    return lat.nodes[lat.join(*_closures(lat))]


def semisimple_type(ambient) -> str:
    return component_report(ambient).type


def component_report(ambient) -> ComponentReport:
    """The components, their layer E, and the semisimple type.

    The type comes from the one layer: semisimple when E is the whole
    ambient, strict-semisimple when the ambient also has trivial center.
    """
    amb = ambient_subgroup(ambient)
    e = layer(amb)
    if e != amb:
        type_ = NOT_SEMISIMPLE
    else:
        type_ = STRICT_SEMISIMPLE if center(amb).order == 1 else SEMISIMPLE
    return ComponentReport(amb.parent, components(amb), e, type_)


def quotient_components(g: FiniteGroup, k: Subgroup) -> tuple:
    """Components of G/K, via the components of G commuting with K.

    Returns (quotient, projection, components-of-quotient); the predicted
    set {MK/K : [M, K] = 1}, each MK/K the image of M, is asserted to match
    a direct recomputation in the quotient, whose layer must be all of it.
    """
    if semisimple_type(g) == NOT_SEMISIMPLE:
        raise NotSemisimpleType("quotient-components needs semisimple type")
    q, proj = quotient(g, k)  # raises NotNormal unless K is normal
    predicted = {frozenset(proj(x) for x in m.members) for m in components(g)
                 if all(g.comm(a, b) == 0 for a in m.gens for b in k.gens)}
    direct = components(q)
    if predicted != {c.members for c in direct}:
        raise InternalCheckError(
            "predicted quotient components disagree with recomputation")
    if layer(q).order != q.order:
        raise InternalCheckError("quotient components must generate")
    return q, proj, direct


def simple_quotient_duality(g: FiniteGroup) -> list[tuple[Subgroup, Subgroup]]:
    """Pair components M with the kernels of the simple quotients C_G(M).

    The normal subgroups N with G/N non-abelian simple are exactly the
    component centralizers; the pairing is asserted bijective.  Those N are
    the lower covers of the lattice's top whose index is no prime power.
    G is generated by its components, each normalizing every component (a
    distinct one centralizes it), so a component M is normal and C_G(M) is
    the factor centralizer of M/1, testing one element per class.
    """
    if semisimple_type(g) == NOT_SEMISIMPLE:
        raise NotSemisimpleType("duality needs semisimple type")
    lat = normal_subgroups(g)
    tops = {lat.nodes[i].members for i in lat.down[-1]
            if not is_prime_power(g.order // lat.nodes[i].order)}
    comps = components(g)
    one = g.trivial_subgroup()
    cents = {m: factor_centralizer(NormalFactor(g.whole(), m, one))
             for m in comps}
    if {c.members for c in cents.values()} != tops:
        raise InternalCheckError(
            "simple-quotient kernels must be the component centralizers")
    if len({c.members for c in cents.values()}) != len(comps):
        raise InternalCheckError("duality pairing must be bijective")
    return sorted(((m, cents[m]) for m in comps),
                  key=lambda p: (p[0].order, p[0].sorted_members()))


def charsimple_type(g: FiniteGroup) -> str:
    """Classify a characteristically simple group as weak or semisimple.

    Weak: no minimally covered blocks; every block of a finite group is
    minimally covered, so all blocks take part.  Semisimple: the group has
    a component.  Abelian characteristically simple groups have no
    non-abelian chief factors at all and so come out weak.

    The paper's third type, stacking, asks for all minimally covered
    blocks a and b for an automorphism s with s(a) < b.  With b = a that
    cannot happen in a finite group: s preserves the order of the finite
    block poset and has a finite order m, so a = s^m(a) < ... < s(a) < a.
    Stacking is a type of infinite Polish groups only.  So weak with a
    component, and blocks without one, both fail the self-check.
    """
    if not is_characteristically_simple(g):
        raise NotCharacteristicallySimple(
            f"{g.name} is not characteristically simple")
    weak = not chief_blocks(g).blocks
    has_component = bool(components(g))
    if weak and has_component:
        raise InternalCheckError("weak and semisimple verdicts collided")
    if not (weak or has_component):
        raise InternalCheckError(
            "blocks without a component; a finite group cannot stack")
    return WEAK if weak else SEMISIMPLE


def block_type(ambient, a) -> str:
    """Common weak/semisimple type of a block's representatives.

    Every representative's factor group is classified independently and the
    verdicts are asserted to agree.
    """
    verdicts = set()
    for rep in a.representatives:
        q, _ = factor_group(rep)
        verdicts.add(charsimple_type(q))
    if len(verdicts) != 1:
        raise InternalCheckError(
            f"representatives disagree on type: {sorted(verdicts)}")
    return verdicts.pop()
