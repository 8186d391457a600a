"""Presheaves over a finite site: the +-construction, sheafification as two
plus passes, sheafified representables, and the cover-factorization lemmas.

Element ids of plus-carriers are canonical: a section of P⁺(x) is its
matching family over the least covering sieve J₀(x), numbered in
lexicographic order, so every downstream table is bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fincat import (CONTRAVARIANT, FinCategory, NatTransData, SetValuedFunctor,
                     all_nat_transformations, check_nat, compatible_families,
                     compose_nat, kept, op_category, order_closure,
                     representable_presheaf)
from .site import Sieve, SieveTopology, SiteSpec, site_topology


class FactorizationError(Exception):
    """Raised when a transformation is not natural enough to factor (FAILED)."""


def enumerate_presheaves(cat: FinCategory, bound: int):
    """All presheaves with carriers <= bound, via the covariant enumerator on
    the opposite category (the action tables transfer unchanged)."""
    from .models import enumerate_set_functors
    for fn in enumerate_set_functors(op_category(cat), bound):
        yield SetValuedFunctor(cat, CONTRAVARIANT, fn.sizes, fn.action)


def _sorted_arrows(sieve: Sieve) -> tuple[int, ...]:
    return tuple(sorted(sieve.arrows))


@kept
def _equations(cat: FinCategory, sieve: Sieve):
    """The sieve's arrows f_k ascending and (k, g, j) for each g ≠ id into
    dom f_k, where f_k∘g = f_j; kept on the category, per sieve."""
    arrows = _sorted_arrows(sieve)
    position = {f: k for k, f in enumerate(arrows)}
    dom = cat.dom
    return arrows, tuple([(k, g, position[cat.comp[f][g]]) for k, f in enumerate(arrows)
                          for g in cat.into(dom[f]) if g != cat.identity[dom[f]]])


def matching_families(p: SetValuedFunctor, sieve: Sieve):
    """All compatible assignments over the sieve, lexicographic in arrow order.

    An assignment gives each arrow f in the sieve an element of P(dom f);
    compatibility demands assignment(f∘g) = P(g)(assignment(f)).
    """
    arrows, skeleton = _equations(p.cat, sieve)
    dom, action = p.cat.dom, p.action
    return arrows, compatible_families([p.sizes[dom[f]] for f in arrows],
                                       [(k, action[g], j) for k, g, j in skeleton])


@kept
def _plan(topology: SieveTopology):
    """What the +-construction reads off the topology alone: per object
    J₀(x) ascending and whether it starts with id_x, and per arrow f: z -> x
    the positions in J₀(x) of f∘g for g in J₀(z)."""
    cat = topology.cat
    least = tuple(_sorted_arrows(sieve) for sieve in topology.least)
    position = [{f: k for k, f in enumerate(arrows)} for arrows in least]
    direct = tuple(bool(arrows) and arrows[0] == cat.identity[x]
                   for x, arrows in enumerate(least))
    through = tuple(tuple([position[cat.cod[f]][cat.comp[f][g]] for g in least[cat.dom[f]]])
                    for f in cat.morphisms)  # J₀(dom f) ⊆ f*J₀(cod f)
    return least, direct, through


@dataclass(frozen=True)
class PlusData:
    """P⁺ with its unit.  Section k of P⁺(x) is the matching family
    ``families[x][k]`` over J₀(x), and ``index[x]`` maps it back to k."""

    presheaf: SetValuedFunctor
    unit: NatTransData
    families: tuple[tuple[tuple[int, ...], ...], ...]
    index: tuple[dict[tuple[int, ...], int], ...] = field(compare=False, repr=False)


def plus(p: SetValuedFunctor, topology: SieveTopology) -> PlusData:
    """The +-construction: P⁺(x) is the matching families over the least
    covering sieve J₀(x), in lexicographic order.

    P⁺(x) is the colimit of the matching families over the covering sieves on
    x under reverse inclusion, identified on common refining covers (Mac
    Lane-Moerdijk III.5).  J₀(x) is the least covering sieve, so two families
    are identified iff they agree on J₀(x), and each class holds exactly one
    family on J₀(x).  J₀(x) also comes first in ``Sieve.sort_key`` order, so
    that family is the least one of its class.  Restriction and the unit
    restrict to J₀ of the domain and look the result up, except where J₀(x)
    starts with id_x: the family of s then starts with s, so P⁺(x) is P(x)
    and the unit is the identity.  The result is kept on the topology, per
    presheaf value.
    """
    return _plus(topology, p)


@kept
def _plus(topology: SieveTopology, p: SetValuedFunctor) -> PlusData:
    cat = p.cat
    least, direct, through = _plan(topology)
    families = []
    for x in cat.objects:
        if cat.identity[x] not in topology.least[x].arrows:
            families.append(matching_families(p, topology.least[x])[1])
        else:  # maximal: its families are read off P(x), in order when direct
            fams = list(zip(*[p.action[f] for f in least[x]]))
            families.append(fams if direct[x] else sorted(fams))
    index = tuple([dict(zip(fams, range(len(fams)))) for fams in families])
    sizes = tuple([len(fams) for fams in families])

    # tuples are built from lists: the plus table keeps them, and a tuple
    # built from a generator can keep an over-allocated block
    action = []
    for f in cat.morphisms:
        x, z = cat.cod[f], cat.dom[f]  # contravariant: restrict along f: z -> x
        if not direct[z]:
            action.append(tuple([index[z][tuple([m[k] for k in through[f]])]
                                 for m in families[x]]))
        elif direct[x]:
            action.append(p.action[f])
        else:  # the family restricts to its entry at f∘id_z
            action.append(tuple([m[through[f][0]] for m in families[x]]))
    plus_presheaf = SetValuedFunctor(cat, CONTRAVARIANT, sizes, tuple(action))

    unit_components = tuple(
        tuple(range(p.sizes[x])) if direct[x] else
        tuple([index[x][tuple([p.action[f][s] for f in least[x]])] for s in p.carrier(x)])
        for x in cat.objects)
    unit = NatTransData(p, plus_presheaf, unit_components)
    return PlusData(plus_presheaf, unit, tuple(map(tuple, families)), index)


def plus_map(theta: NatTransData, topology: SieveTopology) -> NatTransData:
    """Functorial action of the +-construction on a map of presheaves: each
    J₀(x) family of the source, pushed along theta, is a J₀(x) family of the
    target.  Raises ValueError when a pushed family does not match, which
    only a non-natural theta can cause."""
    src_plus = plus(theta.source, topology)
    tgt_plus = plus(theta.target, topology)
    cat = theta.source.cat
    least = _plan(topology)[0]
    components = []
    for x in cat.objects:
        pushes = [theta.components[cat.dom[f]] for f in least[x]]
        column = []
        for m in src_plus.families[x]:
            k = tgt_plus.index[x].get(tuple([push[v] for push, v in zip(pushes, m)]))
            if k is None:
                raise ValueError("theta is not natural: a pushed family does not match")
            column.append(k)
        components.append(tuple(column))
    return NatTransData(src_plus.presheaf, tgt_plus.presheaf, tuple(components))


def _unit_failure(p: SetValuedFunctor, topology: SieveTopology) -> int | None:
    """The least object at which the unit P => P⁺ is not a bijection, or
    None when there is none."""
    unit = plus(p, topology).unit
    for x, component in enumerate(unit.components):
        if not len(set(component)) == len(component) == unit.target.sizes[x]:
            return x
    return None


def is_sheaf(p: SetValuedFunctor, topology: SieveTopology) -> bool:
    """P is a sheaf iff its unit P => P⁺ is a bijection at every object
    (Mac Lane-Moerdijk III.5)."""
    return _unit_failure(p, topology) is None


@dataclass(frozen=True)
class SheafObject:
    """A presheaf checked to be a sheaf, and how many covering sieves that
    check certifies."""

    presheaf: SetValuedFunctor
    certified_sieves: int

    @staticmethod
    def build(p: SetValuedFunctor, topology: SieveTopology) -> "SheafObject":
        """Check the sheaf condition by the unit criterion of ``is_sheaf``,
        which gives it on every covering sieve, then count the covering
        sieves."""
        x = _unit_failure(p, topology)
        if x is not None:
            raise ValueError(f"sheaf condition fails at object {x}")
        return SheafObject(p, topology.covering_sieve_count())


@dataclass(frozen=True)
class Sheafification:
    sheaf: SheafObject
    unit: NatTransData  # P => aP, the composite of the two plus units


def sheafify(p: SetValuedFunctor, topology: SieveTopology) -> Sheafification:
    """a = (+)(+); both passes always run, idempotence is a test not an assumption."""
    first = plus(p, topology)
    second = plus(first.presheaf, topology)
    unit = compose_nat(second.unit, first.unit)
    return Sheafification(SheafObject.build(second.presheaf, topology), unit)


def sheafify_map(theta: NatTransData, topology: SieveTopology) -> NatTransData:
    return plus_map(plus_map(theta, topology), topology)


@kept
def ay(site: SiteSpec, x: int) -> Sheafification:
    """Sheafification of the representable at x, kept on the site."""
    return sheafify(representable_presheaf(site.cat, x), site_topology(site))


def postcompose_nat(cat: FinCategory, g: int) -> NatTransData:
    """(g)_*: y(dom g) => y(cod g), h |-> g∘h."""
    u, x = cat.dom[g], cat.cod[g]
    src = representable_presheaf(cat, u)
    tgt = representable_presheaf(cat, x)
    components = []
    for w in cat.objects:
        hom_u = cat.hom(w, u)
        index = {m: k for k, m in enumerate(cat.hom(w, x))}
        components.append(tuple(index[cat.comp[g][h]] for h in hom_u))
    return NatTransData(src, tgt, tuple(components))


@kept
def sheafified_postcompose(site: SiteSpec, g: int) -> NatTransData:
    """a((g)_*): ay(dom g) => ay(cod g), kept on the site."""
    return sheafify_map(postcompose_nat(site.cat, g), site_topology(site))


def _unit_tables(site: SiteSpec, x: int):
    """Per object w: map from ay(x)(w) elements back to the least morphism
    g: w -> x whose unit image they are (None for glued-only sections)."""
    cat = site.cat
    sh = ay(site, x)
    tables = []
    for w in cat.objects:
        table = [None] * sh.sheaf.presheaf.sizes[w]
        for k, g in reversed(list(enumerate(cat.hom(w, x)))):
            table[sh.unit.components[w][k]] = g  # least g wins
        tables.append(tuple(table))
    return tuple(tables)


def extremal_epi_in_sh(topology: SieveTopology, legs) -> bool:
    """Every section of the common target lifts through the legs on J₀(x):
    a section that lifts on some covering sieve lifts on J₀(x) inside it."""
    legs = list(legs)
    if not legs:
        raise ValueError("need the codomain; pass at least one leg or use the family form")
    target = legs[0].target
    if any(leg.target != target for leg in legs):
        raise ValueError("legs do not share a codomain")
    cat = target.cat
    hit = [set() for _ in cat.objects]
    for leg in legs:
        for z in cat.objects:
            hit[z].update(leg.components[z])
    for x in cat.objects:
        least = topology.least[x].arrows
        for s in target.carrier(x):
            if not all(target.action[f][s] in hit[cat.dom[f]] for f in least):
                return False
    return True


def extremal_epi_family_in_sh(topology, legs, target: SetValuedFunctor) -> bool:
    """Family form of extremal_epi_in_sh: tolerates the empty family, which
    lifts every section of F(x) exactly when J₀(x) is empty."""
    if legs:
        return extremal_epi_in_sh(topology, legs)
    return all(target.sizes[x] == 0 or not topology.least[x].arrows
               for x in target.cat.objects)


@dataclass(frozen=True)
class CoverFactorization:
    family: tuple[int, ...]   # legs f_i: u_i -> x, a covering family
    arrows: tuple[int, ...]   # g_i: u_i -> x' with alpha ∘ a((f_i)_*) = a((g_i)_*)


def factor_through_cover(site: SiteSpec, alpha: NatTransData,
                         x: int, x_prime: int) -> CoverFactorization:
    """Lemma: any map of sheafified representables is cover-locally a
    sheafified post-composition.

    The arrows along which the transported generic section is a unit image
    form a sieve; it covers exactly when alpha is natural.  If the identity
    is among them the identity family is returned, otherwise the
    factoring-maximal arrows (which generate the same sieve).
    """
    cat = site.cat
    topology = site_topology(site)
    sh_x = ay(site, x)
    unit_back = _unit_tables(site, x_prime)
    id_pos = cat.hom(x, x).index(cat.identity[x])
    generic = sh_x.unit.components[x][id_pos]
    e0 = alpha.components[x][generic]
    target = alpha.target
    sieve_arrows = [f for f in cat.into(x)
                    if unit_back[cat.dom[f]][target.action[f][e0]] is not None]
    sieve = Sieve(x, frozenset(sieve_arrows))
    if not topology.covers(sieve):
        if not check_nat(alpha):
            raise FactorizationError("transformation is not natural")
        raise FactorizationError("generic section is not locally a unit image")
    if cat.identity[x] in sieve.arrows:
        legs = (cat.identity[x],)
    else:  # sieve_arrows is ascending, so each mutual class keeps its least id
        legs = tuple(_maximal(sieve_arrows, {
            f: {g for g in sieve_arrows if cat.factors_through(f, g) is not None}
            for f in sieve_arrows}))
    gs = tuple(unit_back[cat.dom[f]][target.action[f][e0]] for f in legs)
    for f, g in zip(legs, gs):
        lhs = compose_nat(alpha, sheafified_postcompose(site, f))
        rhs = sheafified_postcompose(site, g)
        if lhs.components != rhs.components:
            raise FactorizationError("factorization equations fail; alpha is not natural")
    return CoverFactorization(legs, gs)


def _maximal(items, above) -> list:
    """The items not strictly below another, and of each class of mutually
    related items only the first; ``above[i]`` is the set of items at or
    above i in a preorder."""
    keep = []
    for i in items:
        if any(j in above[i] and i not in above[j] for j in items):
            continue  # strictly below j
        if any(k in above[i] and i in above[k] for k in keep):
            continue  # its class is already represented
        keep.append(i)
    return keep


def representable_map_into(site: SiteSpec, z: int, target: SetValuedFunctor,
                           section: int) -> NatTransData:
    """The map ay(z) => F classified by a section of F(z): the first
    transformation in ``all_nat_transformations`` order that sends the
    generic point to it (unique when F is a sheaf)."""
    cat = site.cat
    sh_z = ay(site, z)
    id_pos = cat.hom(z, z).index(cat.identity[z])
    generic = sh_z.unit.components[z][id_pos]
    for beta in all_nat_transformations(sh_z.sheaf.presheaf, target):
        if beta.components[z][generic] == section:
            return beta
    raise ValueError(f"no map ay({z}) => F hits the given section")


@dataclass(frozen=True)
class RepresentableCoverEntry:
    object: int
    beta: NatTransData  # ay(object) => F
    arrow: int          # g: object -> x with iota ∘ beta = a((g)_*)


def cover_mono_by_representables(site: SiteSpec, iota: NatTransData,
                                 x: int) -> list[RepresentableCoverEntry]:
    """Cover the domain of a mono into ay(x) with sheafified representables
    whose composites into ay(x) are sheafified post-compositions."""
    cat = site.cat
    f_obj = iota.source
    if any(len(set(iota.components[z])) != f_obj.sizes[z] for z in cat.objects):
        raise ValueError("iota is not pointwise injective")
    unit_back = _unit_tables(site, x)
    elements = [(z, s) for z in cat.objects for s in f_obj.carrier(z)]
    index = {elt: k for k, elt in enumerate(elements)}
    # k <= l when element k is a restriction of element l
    leq = order_closure(len(elements), [
        (index[z, s], index[cat.cod[h], t]) for z, s in elements for h in cat.out_of(z)
        for t in f_obj.carrier(cat.cod[h]) if f_obj.action[h][t] == s])
    above = [{j for j, up in enumerate(row) if up} for row in leq]
    entries = []
    # keep the elements that are not strictly a restriction of another
    for k in _maximal(range(len(elements)), above):
        z, s = elements[k]
        beta = representable_map_into(site, z, f_obj, s)
        e = iota.components[z][s]
        g = unit_back[z][e]
        if g is not None:
            entries.append(RepresentableCoverEntry(z, beta, g))
            continue
        factored = factor_through_cover(site, compose_nat(iota, beta), z, x)
        for f, g_leg in zip(factored.family, factored.arrows):
            entries.append(RepresentableCoverEntry(
                cat.dom[f], compose_nat(beta, sheafified_postcompose(site, f)), g_leg))
    return entries
