"""Components, the layer, semisimple type, and the weak/semisimple
classification of characteristically simple groups (a finite group never
has the paper's third type, stacking)."""

from __future__ import annotations

from .autos import is_characteristically_simple
from .blocks import chief_blocks
from .errors import (
    InternalCheckError,
    NotCharacteristicallySimple,
    NotNormal,
    NotSemisimpleType,
)
from .factors import NormalFactor, factor_centralizer, factor_group
from .group import (
    FiniteGroup,
    Subgroup,
    ambient_subgroup,
    center,
    is_normal_in,
    quotient,
)
from .lattice import is_perfect, is_prime_power, normal_subgroups

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
    """All components of the ambient.

    A component is a subgroup M, normal in its normal closure, with M modulo
    its center non-abelian, all of whose proper normal subgroups are central
    in the closure.  Such an M is 2-step subnormal: M is normal in its
    normal closure N, and N is normal in the ambient.  Sweeping the normal
    subgroups N of the ambient and, inside each, the subgroups M normal in N
    whose ambient normal closure is exactly N therefore finds every
    component.  Accepting M when M/Z(M) is non-abelian and every proper
    normal subgroup of M is central in M suffices: such an M is perfect, so
    it commutes with its other conjugates, making central-in-M subgroups
    central in the closure as well.

    These two conditions hold iff M's top has one lower cover K, K <= Z(M),
    and M/K is non-abelian.  If they hold, Z(M) is proper and holds every
    proper normal subgroup, so it is that K, and M/K is non-abelian simple.
    Conversely K <= Z(M) < M gives K = Z(M), holding every proper normal one.

    Only perfect N are swept (``lattice.is_perfect``): a component M is
    perfect, so its conjugates are perfect, and N, which they generate, is
    perfect too.  So M/K is non-abelian with no test: were it abelian,
    M/Z(M) would be cyclic and M abelian, and N, generated by the abelian
    normal conjugates of M, nilpotent, which a perfect N > 1 is not.
    """
    amb = ambient_subgroup(ambient)
    g = amb.parent
    key = ("components", amb.members)
    cached = g._cache.get(key)
    if cached is not None:
        return cached
    lat = normal_subgroups(amb)
    found: dict[frozenset, Subgroup] = {}
    for i, n in enumerate(lat.nodes):
        if n.order == 1 or not is_perfect(lat, i):
            continue
        for m in normal_subgroups(n).nodes:
            if m.order == 1:
                continue
            if any(not n.members <= k.members  # N is not ncl(M)
                   for k in lat.nodes if m.members <= k.members):
                continue
            under = normal_subgroups(m).maximal_nodes_under(m.members)
            if len(under) != 1 or not under[0].members <= center(m).members:
                continue
            found.setdefault(m.members, m)
    result = sorted(found.values(),
                    key=lambda s: (s.order, s.sorted_members()))
    g._cache[key] = result
    return result


def layer(ambient) -> Subgroup:
    """Subgroup E generated by all components (trivial when there are none).

    E is the join of the components' normal closures, each the least node
    holding its component: conjugation permutes the components, so E is
    normal and holds each closure, and the join holds each component.
    """
    amb = ambient_subgroup(ambient)
    lat = normal_subgroups(amb)
    return lat.nodes[lat.join(*(
        lat.meet(*(i for i, n in enumerate(lat.nodes)
                   if m.members <= n.members))
        for m in components(amb)))]


def semisimple_type(ambient) -> str:
    return component_report(ambient).type


def component_report(ambient) -> ComponentReport:
    """The components, their layer E, and the semisimple type.

    The type comes from the one layer: semisimple when E is the whole
    ambient, strict-semisimple when the ambient also has trivial center.
    """
    amb = ambient_subgroup(ambient)
    e = layer(amb)
    if e.members != amb.members:
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
    if not is_normal_in(k, g.whole()):
        raise NotNormal("can only quotient by a normal subgroup")
    q, proj = quotient(g, k)
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
    tops = {n.members for n in normal_subgroups(g).maximal_nodes_under(
        g.whole().members) if not is_prime_power(g.order // n.order)}
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
