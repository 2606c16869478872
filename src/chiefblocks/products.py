"""Generalized central and quasi-direct factorizations.

For a set S of normal subgroups, G_J denotes the join of a subset J.  S is a
generalized central factorization when the parts generate and pairwise
commute; it is quasi-direct when additionally the complements G_{S minus N}
intersect trivially, which for at least two parts is equivalent to the full
independence property over subsets of the power set.  Joins and meets are
node-index lookups in the ambient's normal lattice, built on first use.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import (
    CapExceeded,
    ImageNotFullOnFactor,
    ImageNotNormal,
    InternalCheckError,
    NotGeneralizedCentral,
    NotInjective,
    NotNormal,
)
from .group import (
    DEFAULT_ELEMENT_CAP,
    Homomorphism,
    SemidirectProductGroup,
    Subgroup,
    ambient_subgroup,
    center,
    close_under_mul,
    direct_product,
    is_normal_in,
    product_of_subgroups,
    quotient,
    semidirect_product,
    subgroup_as_group,
)
from .lattice import normal_subgroups


class Factorization:
    """A verified factorization of an ambient by normal parts."""

    def __init__(self, ambient: Subgroup, parts: list[Subgroup], kind: str,
                 complements: list[Subgroup]):
        self.ambient = ambient
        self.parts = parts
        self.kind = kind  # generalized-central | quasi-direct | neither
        self.complements = complements  # G_{S minus N}, in part order

    def __repr__(self):
        orders = ",".join(str(p.order) for p in self.parts)
        return f"<Factorization {self.kind} parts=[{orders}]>"


def _check_parts(amb: Subgroup, parts: Sequence[Subgroup]) -> list[Subgroup]:
    for p in parts:
        if p.parent is not amb.parent:
            raise NotNormal("factorization part lives in a different group")
        if not is_normal_in(p, amb):
            raise NotNormal("factorization parts must be normal")
    return list(parts)


def _meet_index(amb: Subgroup, subs: Sequence[Subgroup]) -> int:
    lat = normal_subgroups(amb)
    return lat.meet(*[lat.index_of(s) for s in subs])


def complements_of(amb: Subgroup, parts: Sequence[Subgroup]) -> list[Subgroup]:
    """G_{S minus N} for each part N, in part order."""
    lat = normal_subgroups(amb)
    idx = [lat.index_of(p) for p in parts]
    return [lat.nodes[lat.join(*idx[:i], *idx[i + 1:])]
            for i in range(len(parts))]


def parts_commute(amb: Subgroup, parts: Sequence[Subgroup]) -> bool:
    g = amb.parent
    for a, b in itertools.combinations(parts, 2):
        for x in a.gens:
            for y in b.gens:
                if g.mul(x, y) != g.mul(y, x):
                    return False
    return True


def classify_factorization(ambient, parts: Sequence[Subgroup]
                           ) -> Factorization:
    """Validate the parts once, then classify them with their complements.

    Generalized central: the parts generate the ambient and pairwise
    commute.  Quasi-direct: additionally the complements meet trivially.
    For at most one part that second condition holds whenever the parts
    generate, so a single part is quasi-direct exactly when it is the
    ambient.
    """
    amb = ambient_subgroup(ambient)
    parts = _check_parts(amb, parts)
    lat = normal_subgroups(amb)
    comps = complements_of(amb, parts)
    span = lat.join(*[lat.index_of(p) for p in parts])
    if span != len(lat) - 1 or not parts_commute(amb, parts):
        kind = "neither"
    elif _meet_index(amb, comps) == 0:
        kind = "quasi-direct"
    else:
        kind = "generalized-central"
    return Factorization(amb, parts, kind, comps)


def is_generalized_central_factorization(ambient, parts: Sequence[Subgroup]
                                         ) -> bool:
    """Parts generate the ambient and pairwise commute."""
    return classify_factorization(ambient, parts).kind != "neither"


def single_intersection_trivial(ambient, parts: Sequence[Subgroup]) -> bool:
    amb = ambient_subgroup(ambient)
    return _meet_index(amb, complements_of(amb, _check_parts(amb, parts))) == 0


def is_quasi_direct_factorization(ambient, parts: Sequence[Subgroup]) -> bool:
    """Generalized central plus trivially intersecting complements.

    For two or more parts the single-intersection criterion captures the
    full independence property.
    """
    return classify_factorization(ambient, parts).kind == "quasi-direct"


class DiagonalMapResult:
    """Outcome of the diagonal map into the product of complement quotients."""

    def __init__(self, kernel: Subgroup, injective: bool,
                 codomain_order: int, hom: Optional[Homomorphism]):
        self.kernel = kernel
        self.injective = injective
        self.codomain_order = codomain_order
        self.hom = hom


def diagonal_map(ambient, parts: Sequence[Subgroup],
                 cap: int = DEFAULT_ELEMENT_CAP) -> DiagonalMapResult:
    """g |-> (g G_{S minus N})_N, with verified kernel facts.

    The kernel is the intersection of the complements and is central; the
    map is injective exactly when the parts are quasi-direct.  The codomain
    is only materialized when its order fits under the cap; the kernel facts
    are checked either way.
    """
    fact = classify_factorization(ambient, parts)
    amb, comps = fact.ambient, fact.complements
    if len(fact.parts) < 2:
        raise NotGeneralizedCentral("diagonal map needs at least two parts")
    if fact.kind == "neither":
        raise NotGeneralizedCentral(
            "diagonal map needs a generalized central factorization")
    kernel = normal_subgroups(amb).nodes[_meet_index(amb, comps)]
    injective = kernel.order == 1
    if injective != (fact.kind == "quasi-direct"):
        raise InternalCheckError("kernel triviality must match quasi-directness")
    # Central kernel: every part centralizes it, and the parts generate.
    if not kernel.members <= center(amb).members:
        raise InternalCheckError("diagonal-map kernel must be central")

    amb_group, embed = subgroup_as_group(amb)
    quots = []
    for c in comps:
        csub = Subgroup(amb_group,
                        frozenset(amb_group.coset_of[x] for x in c.members))
        quots.append(quotient(amb_group, csub))
    total = 1
    for q, _ in quots:
        total *= q.order
    if total > cap:
        return DiagonalMapResult(kernel, injective, total, None)
    codomain = quots[0][0]
    for q, _ in quots[1:]:
        codomain = direct_product(codomain, q, cap)
    mapping = []
    for x in amb_group.elements():
        code = 0
        for q, proj in quots:
            code = code * q.order + proj(x)
        mapping.append(code)
    hom = Homomorphism(amb_group, codomain, mapping, "diagonal").validate()
    if hom.is_injective != injective:
        raise InternalCheckError("materialized injectivity disagrees")
    image = set(mapping)
    sizes = [q.order for q, _ in quots]
    for i, (q, _) in enumerate(quots):
        # ids of the i-th coordinate subgroup inside the iterated product
        coord = set()
        for v in range(q.order):
            code = 0
            for j, size in enumerate(sizes):
                code = code * size + (v if j == i else 0)
            coord.add(code)
        if not coord <= image:
            raise InternalCheckError(
                "diagonal image must meet each coordinate factor fully")
    return DiagonalMapResult(kernel, injective, total, hom)


def subdirect_quasi_factorization(delta: Homomorphism,
                                  factors: Sequence[Subgroup]
                                  ) -> Factorization:
    """Pull coordinate factors back through an injective map into a product.

    Each listed factor must be met by the image in all of itself; the
    preimages then form a quasi-direct factorization of the subgroup they
    generate, which is verified before returning.
    """
    if not delta.is_injective:
        raise NotInjective("subdirect factorization needs an injective map")
    src = delta.source
    image = set(delta.mapping)
    parts = []
    for k in factors:
        if k.parent is not delta.target:
            raise ImageNotFullOnFactor("factor lives outside the codomain")
        if not k.members <= image:
            raise ImageNotFullOnFactor(
                "image must meet each coordinate factor in all of it")
        pre = frozenset(x for x in src.elements()
                        if delta.mapping[x] in k.members)
        parts.append(Subgroup(src, pre, None, True))
    span = Subgroup(src, close_under_mul(
        src, [x for p in parts for x in p.gens]))
    fact = classify_factorization(span, parts)
    if fact.kind != "quasi-direct":
        raise InternalCheckError(
            "preimages of coordinate factors must be quasi-direct")
    return fact


def central_quotient_factorization(ambient, parts: Sequence[Subgroup],
                                   n: Subgroup) -> tuple:
    """Quotient a generalized central factorization to a quasi-direct one.

    M is the intersection of the complement-times-N subgroups; M/N is central
    in G/N.  When M is proper, the surviving part images form a verified
    quasi-direct factorization of G/M.  Returns (M, factorization-or-None).
    """
    fact = classify_factorization(ambient, parts)
    amb, parts = fact.ambient, fact.parts
    if len(parts) < 2:
        raise NotGeneralizedCentral("need a non-trivial factorization")
    if fact.kind == "neither":
        raise NotGeneralizedCentral("parts are not generalized central")
    if not is_normal_in(n, amb) or not n.members < amb.members:
        raise NotNormal("need a proper normal subgroup to quotient by")
    g = amb.parent
    lat = normal_subgroups(amb)
    m = lat.nodes[lat.meet(*[lat.join(lat.index_of(c), lat.index_of(n))
                             for c in fact.complements])]
    # M/N central in G/N: [M, ambient] must land in N.
    for x in m.gens:
        for y in amb.gens:
            if g.comm(x, y) not in n.members:
                raise InternalCheckError("M/N must be central in G/N")
    if m.members == amb.members:
        return m, None
    amb_group, embed = subgroup_as_group(amb)

    def local(ids):
        return frozenset(amb_group.coset_of[i] for i in ids)

    q, proj = quotient(amb_group, Subgroup(amb_group, local(m.members)))
    images = []
    seen = set()
    for p in parts:
        if p.members <= m.members:
            continue
        img = frozenset(proj(x) for x in local(p.members))
        if img in seen:
            continue
        seen.add(img)
        images.append(Subgroup(q, img, None, True))
    fact = classify_factorization(q, images)
    if fact.kind != "quasi-direct":
        raise InternalCheckError(
            "image parts must be quasi-direct in the quotient")
    return m, fact


class CompressionSemidirect:
    """The semidirect factorization of an injective map with normal image."""

    def __init__(self, product: SemidirectProductGroup, pi: Homomorphism,
                 iota: Homomorphism, ker_pi: Subgroup, proper: bool,
                 pi_image: Subgroup):
        self.product = product
        self.pi = pi
        self.iota = iota
        self.ker_pi = ker_pi
        # An injective map between finite groups with dense (= full) normal
        # image is an isomorphism, so a proper compression never happens
        # here; the flag documents that fact for callers.
        self.proper = proper
        self.pi_image = pi_image


def compression_semidirect(psi: Homomorphism,
                           over: Optional[Subgroup] = None
                           ) -> CompressionSemidirect:
    """Factor psi: G -> H through the equivariant semidirect product.

    Builds P = G x| O for the conjugation action pulled back through psi,
    given by one table per generator of O, where O defaults to all of H.  pi(g, o) = psi(g) o maps P onto the span
    of psi(G) and O with kernel {(g^-1, psi(g)) : psi(g) in O}; iota embeds G
    with psi = pi o iota.  All stated kernel and intersection facts are
    verified on the constructed group.
    """
    g_grp, h_grp = psi.source, psi.target
    if not psi.is_injective:
        raise NotInjective("compression map must be injective")
    image = psi.image()
    if not is_normal_in(image, h_grp.whole()):
        raise ImageNotNormal("compression image must be normal")
    o_sub = over if over is not None else h_grp.whole()
    if o_sub.parent is not h_grp:
        raise ImageNotNormal("the open subgroup must live in the codomain")
    o_grp, o_embed = subgroup_as_group(o_sub)
    if g_grp.order * o_grp.order > DEFAULT_ELEMENT_CAP:
        raise CapExceeded("semidirect factorization exceeds the element cap")

    back = {psi.mapping[x]: x for x in g_grp.elements()}
    tables = [[back[h_grp.conj(o_embed(o), psi.mapping[x])]
               for x in g_grp.elements()]
              for o in o_grp.generators]
    prod = semidirect_product(g_grp, o_grp, tables,
                              name=f"{g_grp.name}:|{o_grp.name}")

    pi = Homomorphism(
        prod, h_grp,
        [h_grp.mul(psi.mapping[n], o_embed(h))
         for n, h in (prod.split(x) for x in prod.elements())],
        "pi").validate()
    iota = Homomorphism(g_grp, prod, list(prod.embed_base.mapping),
                        "iota").validate()
    # psi = pi o iota
    if any(pi(iota(x)) != psi.mapping[x] for x in g_grp.elements()):
        raise InternalCheckError("pi o iota must equal the compression map")
    ker = pi.kernel()
    expected = frozenset(
        prod.mul(prod.embed_base(g_grp.inv(x)),
                 prod.embed_top(o_grp.coset_of[psi.mapping[x]]))
        for x in g_grp.elements() if psi.mapping[x] in o_sub.members)
    if ker.members != expected:
        raise InternalCheckError("kernel of pi has the wrong element set")
    if ker.members & iota.image().members != {0}:
        raise InternalCheckError("iota(G) must meet ker(pi) trivially")
    # iota(G) and ker(pi) commute elementwise: check on generators.
    for a in iota.image().gens:
        for b in ker.gens:
            if prod.mul(a, b) != prod.mul(b, a):
                raise InternalCheckError("iota(G) and ker(pi) must commute")
    pi_image = pi.image()
    span = product_of_subgroups(Subgroup(h_grp, image.members),
                                Subgroup(h_grp, o_sub.members))
    if pi_image.members != span:
        raise InternalCheckError("pi must map onto the span of image and O")
    proper = image.order < h_grp.order
    if o_sub.order == h_grp.order and image.order == h_grp.order:
        iso = Homomorphism(
            g_grp, prod,
            [prod.mul(prod.embed_base(g_grp.inv(x)),
                      prod.embed_top(o_grp.coset_of[psi.mapping[x]]))
             for x in g_grp.elements()], "kernel iso").validate()
        if not iso.is_injective or set(iso.mapping) != ker.members:
            raise InternalCheckError("ker(pi) must be isomorphic to G")
    return CompressionSemidirect(prod, pi, iota, ker, proper, pi_image)
