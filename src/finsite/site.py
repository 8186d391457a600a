"""Sites (C, E): pullback closure, pasting saturation at stage omega,
and the generated Grothendieck topology in sieve form.

Families are sets of legs, never multisets: covering is repetition
invariant, and subsets of a finite morphism set make every fixpoint here
terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import limits
from .fincat import FinCategory, FunctorData, kept, validate_category, validate_functor

# guard for the per-object sieve enumeration, on the arrows outside the
# sieve it starts from; fixtures stay far below it
MAX_ARROWS_FOR_SIEVES = 20


class TooManySievesError(ValueError):
    """A valid site with too many arrows into an object to list its sieves."""


class MissingPullbackError(Exception):
    def __init__(self, f, g):
        super().__init__(f"MISSING_PULLBACK for cospan ({f}, {g})")
        self.cospan = (f, g)


@dataclass(frozen=True)
class Family:
    """A set of arrows with a common codomain; legs sorted and deduplicated."""

    codomain: int
    legs: tuple[int, ...]

    @staticmethod
    def make(codomain, legs) -> "Family":
        return Family(codomain, tuple(sorted(set(legs))))

    def sort_key(self):
        return (self.codomain, self.legs)


@dataclass(frozen=True)
class SiteSpec:
    cat: FinCategory
    covers: tuple[Family, ...]

    @staticmethod
    def make(cat, covers) -> "SiteSpec":
        return SiteSpec(cat, tuple(sorted(set(covers), key=Family.sort_key)))


def validate_site(site: SiteSpec) -> list[str]:
    report = validate_category(site.cat)
    if report:
        return report
    cat = site.cat
    for fam in site.covers:
        if not 0 <= fam.codomain < cat.n_objects:
            report.append(f"cover codomain {fam.codomain} is not an object")
        elif any(cat.cod[f] != fam.codomain for f in fam.legs):
            report.append(f"cover on {fam.codomain} has a leg with the wrong codomain")
    terminal = limits.terminal_object(cat)
    if terminal is None:
        report.append("no terminal object (the site must contain id: 1 -> 1)")
    elif Family.make(terminal, [cat.identity[terminal]]) not in site.covers:
        report.append("the identity family on the terminal object is missing from E")
    return report


def pullback_closure(site: SiteSpec) -> list[Family]:
    """E^pb: every E-family pulled back along every map into its codomain.

    Pulling back along the identity keeps E itself in the result.
    """
    cat = site.cat
    out = set()
    for fam in site.covers:
        for h in cat.into(fam.codomain):
            legs = []
            for f in fam.legs:
                square = limits.pullback(cat, f, h)
                if square is None:
                    raise MissingPullbackError(f, h)
                legs.append(square.to_right)
            out.add(Family.make(cat.dom[h], legs))
    return sorted(out, key=Family.sort_key)


@dataclass(frozen=True)
class SaturationResult:
    families: tuple[Family, ...]
    rounds: int
    pastings: int = field(default=0, compare=False)  # pastings tried


def _mask(ids) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    """The ids set in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def tree_saturation(site: SiteSpec) -> SaturationResult:
    """<E> at stage omega: least pasting-closed set over E^pb plus iso singletons.

    Pasting replaces one leg f by {f∘g} over a saturated family on dom(f);
    iterated to a fixpoint this realizes every finite-height cotree, which is
    all of them at kappa = aleph_0 (no infinite branches exist).

    Each round visits the families known at its start in ``Family.sort_key``
    order and pastes every family on dom(f) into every leg f.  Families are
    int masks of morphism ids, and each codomain keeps its families in
    insertion order.  The evaluation is semi-naive: a (family, leg) pair
    remembers how many families lay on dom(leg) when its previous inner loop
    started, and pastes only those inserted since.  Pasting is a function of
    (family, leg, inner), so a skipped pasting would only rediscover a known
    family; every round therefore adds the same families in the same order
    as pasting all pairs, and ``rounds`` is unchanged.  The rule is not "new
    in the previous round": inner loops later in a round already see the
    families added earlier in it, and that rule would defer those pastings
    to the next round, which can change ``rounds``.
    """
    cat = site.cat
    by_codomain = {y: [] for y in cat.objects}  # masks in insertion order
    known = {y: set() for y in cat.objects}  # the same masks, for membership
    sort_key = {}  # (codomain, mask) -> Family.sort_key, computed once

    def insert(codomain, mask):
        if mask not in known[codomain]:
            known[codomain].add(mask)
            by_codomain[codomain].append(mask)
            sort_key[codomain, mask] = (codomain, _bits(mask))

    for fam in pullback_closure(site):
        insert(fam.codomain, _mask(fam.legs))
    for f in cat.morphisms:
        if cat.is_iso(f):
            insert(cat.cod[f], 1 << f)
    seen = {}  # (family, leg) -> families on dom(leg) already pasted into it
    image = {f: {} for f in cat.morphisms}  # leg -> inner mask -> leg∘inner
    rounds = pastings = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for fam in sorted(sort_key, key=sort_key.__getitem__):
            codomain, mask = fam
            on_codomain = known[codomain]
            for leg in sort_key[fam][1]:
                dom = cat.dom[leg]
                inners = by_codomain[dom]
                stop = len(inners)
                start = seen.get((fam, leg), 0)
                if start == stop:
                    continue
                seen[fam, leg] = stop
                pastings += stop - start
                base = mask & ~(1 << leg)
                images = image[leg]
                for inner in inners[start:stop]:
                    pasted = images.get(inner)
                    if pasted is None:
                        pasted = images[inner] = _mask(
                            cat.comp[leg][g] for g in sort_key[dom, inner][1])
                    if base | pasted not in on_codomain:
                        insert(codomain, base | pasted)
                        changed = True
    families = tuple(Family(*key) for key in sorted(sort_key.values()))
    return SaturationResult(families, rounds, pastings)


@dataclass(frozen=True)
class Sieve:
    target: int
    arrows: frozenset[int]

    def sort_key(self):
        return (len(self.arrows), tuple(sorted(self.arrows)))


def is_sieve(cat: FinCategory, target: int, arrows) -> bool:
    arrows = frozenset(arrows)
    if any(cat.cod[f] != target for f in arrows):
        return False
    return all(cat.comp[f][g] in arrows
               for f in arrows for g in cat.into(cat.dom[f]))


def maximal_sieve(cat: FinCategory, y: int) -> Sieve:
    return Sieve(y, frozenset(cat.into(y)))


def generated_sieve(cat: FinCategory, fam: Family) -> Sieve:
    arrows = set()
    for f in fam.legs:
        arrows.add(f)
        arrows.update(cat.comp[f][g] for g in cat.into(cat.dom[f]))
    return Sieve(fam.codomain, frozenset(arrows))


def pull_sieve(cat: FinCategory, sieve: Sieve, h: int) -> Sieve:
    """h*S = {g into dom(h) : h∘g ∈ S}."""
    if cat.cod[h] != sieve.target:
        raise ValueError("cannot pull a sieve back along a map into another object")
    z = cat.dom[h]
    return Sieve(z, frozenset(g for g in cat.into(z) if cat.comp[h][g] in sieve.arrows))


def all_sieves(cat: FinCategory, y: int) -> tuple[Sieve, ...]:
    """Every sieve on y, in ``Sieve.sort_key`` order."""
    return sieves_containing(cat, Sieve(y, frozenset()))


def _factor_masks(cat: FinCategory, start: Sieve):
    """into(y) for y = start.target, start's arrows as a mask, and per arrow
    i the masks of the arrows below and above it, by position in into(y).
    Only the arrows outside start count against the guard."""
    arrows = cat.into(start.target)
    if len(arrows) - len(start.arrows) > MAX_ARROWS_FOR_SIEVES:
        raise TooManySievesError(f"too many arrows into {start.target} to enumerate sieves")
    position = {f: i for i, f in enumerate(arrows)}
    below = [0] * len(arrows)  # bit j: arrow j factors through arrow i
    above = [0] * len(arrows)  # bit j: arrow i factors through arrow j
    for i, f in enumerate(arrows):
        for g in cat.into(cat.dom[f]):
            j = position[cat.comp[f][g]]
            below[i] |= 1 << j
            above[j] |= 1 << i
    return arrows, _mask(position[f] for f in start.arrows), below, above


@kept
def sieves_containing(cat: FinCategory, start: Sieve) -> tuple[Sieve, ...]:
    """Every sieve on y = start.target that contains ``start``, in
    ``Sieve.sort_key`` order: the down-sets of into(y) under factorization.

    Keep start's arrows, then take the first undecided arrow f: either keep
    it with its principal sieve {f∘g}, or drop it with every arrow that f
    factors through.  Each leaf is a distinct down-set containing start.
    The result is kept on the category, per start sieve.
    """
    arrows, held, below, above = _factor_masks(cat, start)
    everything = (1 << len(arrows)) - 1
    out = []
    stack = [(held, 0)]  # (held, dropped)
    while stack:
        held, dropped = stack.pop()
        undecided = everything & ~(held | dropped)
        if not undecided:
            out.append(Sieve(start.target, frozenset(arrows[i] for i in _bits(held))))
            continue
        i = (undecided & -undecided).bit_length() - 1
        stack.append((held | below[i], dropped))
        stack.append((held, dropped | above[i]))
    return tuple(sorted(out, key=Sieve.sort_key))


def count_sieves_containing(cat: FinCategory, start: Sieve) -> int:
    """``len(sieves_containing(cat, start))`` under the same guard: the same
    search, memoised on the undecided mask, which alone fixes a node's leaves."""
    arrows, held, below, above = _factor_masks(cat, start)
    counts = {0: 1}

    def count(undecided):
        if undecided not in counts:
            i = (undecided & -undecided).bit_length() - 1
            counts[undecided] = count(undecided & ~below[i]) + count(undecided & ~above[i])
        return counts[undecided]
    return count(((1 << len(arrows)) - 1) & ~held)


@dataclass(frozen=True)
class SieveTopology:
    """A Grothendieck topology on a finite category, by its least covering
    sieve J₀(x) on each object.

    The covering sieves on x are finitely many and closed under intersection,
    so their intersection J₀(x) covers, and a sieve covers x iff it contains
    J₀(x) (Mac Lane-Moerdijk, Sheaves in Geometry and Logic, III.2).
    """

    cat: FinCategory
    least: tuple[Sieve, ...]  # J₀(x) per object

    def covers(self, sieve: Sieve) -> bool:
        return self.least[sieve.target].arrows <= sieve.arrows

    def covering_sieves(self, y: int) -> list[Sieve]:
        """Every covering sieve on y in ``Sieve.sort_key`` order, J₀(y) first:
        the sieves that contain J₀(y)."""
        return list(sieves_containing(self.cat, self.least[y]))

    @kept
    def covering_sieve_count(self) -> int:
        """How many sieves cover some object, counted, not listed; kept."""
        return sum(count_sieves_containing(self.cat, sieve) for sieve in self.least)


def generate_sieve_topology(site: SiteSpec) -> SieveTopology:
    """Least Grothendieck topology whose covers include the E-generated sieves.

    A decreasing fixpoint on one int mask of morphism ids per object: start
    from the maximal sieves cut down to every E-generated sieve, then repeat
    until stable

    - J₀(z) &= f*J₀(x) for every f: z -> x (stability), and
    - J₀(x) = {h∘k : h ∈ J₀(x), k ∈ J₀(dom h)} (local character).

    Each step keeps every mask a covering sieve: an intersection of covering
    sieves covers, and the composite sieve pulls back along each h ∈ J₀(x)
    to a sieve containing J₀(dom h).  At the fixpoint the sieves containing
    J₀ satisfy the axioms, so the masks are the least covering sieves.
    """
    cat = site.cat
    least = [_mask(cat.into(x)) for x in cat.objects]
    for fam in site.covers:
        least[fam.codomain] &= _mask(generated_sieve(cat, fam).arrows)
    changed = True
    while changed:
        changed = False
        for f in cat.morphisms:
            z, x = cat.dom[f], cat.cod[f]
            after = cat.comp[f]
            pulled = _mask(g for g in cat.into(z) if least[x] >> after[g] & 1)
            if least[z] & ~pulled:
                least[z] &= pulled
                changed = True
        for x in cat.objects:
            composed = _mask(cat.comp[h][k] for h in _bits(least[x])
                             for k in _bits(least[cat.dom[h]]))
            if composed != least[x]:
                least[x] = composed
                changed = True
    for x in cat.objects:
        if any(least[x] >> cat.comp[h][g] & 1 == 0
               for h in _bits(least[x]) for g in cat.into(cat.dom[h])):
            raise AssertionError(f"the least covering sieve on {x} is not a sieve")
    return SieveTopology(cat, tuple(Sieve(x, frozenset(_bits(least[x])))
                                    for x in cat.objects))


@kept
def site_topology(site: SiteSpec) -> SieveTopology:
    """The site's generated sieve topology, kept on the site."""
    return generate_sieve_topology(site)


def family_covers(site: SiteSpec, topology: SieveTopology, fam: Family) -> bool:
    return topology.covers(generated_sieve(site.cat, fam))


def is_site_morphism(fun: FunctorData, source: SiteSpec, target: SiteSpec) -> bool:
    """fun is lex and sends E-families to covering families.

    Lex is read off ``limits._lex_probes`` of the source: the image of its
    terminal object is terminal and the image of each probe square is a
    pullback.  A source without a terminal object is not a site."""
    if fun.source != source.cat or fun.target != target.cat:
        raise ValueError("functor does not match the given sites")
    terminal, squares = limits._lex_probes(source.cat)
    if terminal is None:
        raise ValueError("the source category has no terminal object")
    if validate_functor(fun):
        return False
    cat, obj, mor = target.cat, fun.obj_map, fun.mor_map
    if cat._hom_counts[obj[terminal]] != [1] * cat.n_objects:
        return False
    if not all(limits.is_pullback(cat, mor[f], mor[g], mor[square.to_left],
                                  mor[square.to_right]) for f, g, square in squares):
        return False
    topology = site_topology(target)
    return all(family_covers(target, topology, Family.make(
        obj[fam.codomain], [mor[f] for f in fam.legs])) for fam in source.covers)
