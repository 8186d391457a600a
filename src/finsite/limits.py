"""Finite limits, subobject lattices, image factorizations and
extremal/effective-epi detection.

Pullbacks and the terminal object are read straight off the hom tables.
General limits (and the oracle for those two) use the exhaustive
terminal-cone search of ``limit``."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import FinCategory, FunctorData, NatTransData, SetValuedFunctor
from .fincat import is_mono, make_category, validate_functor

# the shapes • -> • <- • and • ⇉ •, built once
COSPAN_SHAPE = make_category(3, [(0, 2), (1, 2)], {})
PARALLEL_PAIR_SHAPE = make_category(2, [(0, 1), (0, 1)], {})


@dataclass(frozen=True)
class Diagram:
    shape: FinCategory
    labeling: FunctorData

    def __post_init__(self):
        if self.labeling.source != self.shape:
            raise ValueError("labeling does not start at the shape")


@dataclass(frozen=True)
class Cone:
    apex: int
    legs: tuple[int, ...]  # one leg per shape object


def empty_diagram(cat: FinCategory) -> Diagram:
    shape = FinCategory(dom=(), cod=(), identity=(), comp=())
    return Diagram(shape, FunctorData(shape, cat, (), ()))


def discrete_diagram(cat: FinCategory, objs) -> Diagram:
    objs = tuple(objs)
    n = len(objs)
    shape = FinCategory(
        dom=tuple(range(n)), cod=tuple(range(n)),
        identity=tuple(range(n)),
        comp=tuple(tuple(f if g == f else -1 for f in range(n)) for g in range(n)))
    return Diagram(shape, FunctorData(shape, cat, objs, tuple(cat.identity[x] for x in objs)))


def cospan_diagram(cat: FinCategory, f: int, g: int) -> Diagram:
    """Shape • -> • <- • labeled by f: a -> c and g: b -> c."""
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    a, b, c = cat.dom[f], cat.dom[g], cat.cod[f]
    return Diagram(COSPAN_SHAPE, FunctorData(
        COSPAN_SHAPE, cat, (a, b, c),
        (cat.identity[a], cat.identity[b], cat.identity[c], f, g)))


def parallel_pair_diagram(cat: FinCategory, f: int, g: int) -> Diagram:
    if cat.dom[f] != cat.dom[g] or cat.cod[f] != cat.cod[g]:
        raise ValueError("morphisms are not parallel")
    x, y = cat.dom[f], cat.cod[f]
    return Diagram(PARALLEL_PAIR_SHAPE, FunctorData(
        PARALLEL_PAIR_SHAPE, cat, (x, y), (cat.identity[x], cat.identity[y], f, g)))


def cones(cat: FinCategory, diagram: Diagram):
    """All cones on the diagram, ascending by (apex, legs)."""
    shape, lab = diagram.shape, diagram.labeling
    out = []
    for apex in cat.objects:
        choices = [cat.hom(apex, lab.obj_map[i]) for i in shape.objects]
        for legs in itertools.product(*choices):
            ok = True
            for m in shape.morphisms:
                i, j = shape.dom[m], shape.cod[m]
                if cat.comp[lab.mor_map[m]][legs[i]] != legs[j]:
                    ok = False
                    break
            if ok:
                out.append(Cone(apex, legs))
    return out


def factorizations(cat: FinCategory, cone_from: Cone, cone_to: Cone):
    """Morphisms h: apex(cone_from) -> apex(cone_to) with legs_to ∘ h = legs_from."""
    return [h for h in cat.hom(cone_from.apex, cone_to.apex)
            if all(cat.comp[leg][h] == cone_from.legs[i]
                   for i, leg in enumerate(cone_to.legs))]


def limit(cat: FinCategory, diagram: Diagram):
    """Terminal cone on the diagram, or None.

    Of the terminal cones (all mutually isomorphic) the first in ascending
    (apex, legs) order is returned, so repeated runs agree on ids.
    """
    if validate_functor(diagram.labeling):
        raise ValueError("invalid diagram labeling")
    all_cones = cones(cat, diagram)
    for cone in all_cones:
        if all(len(factorizations(cat, other, cone)) == 1 for other in all_cones):
            return cone
    return None


@dataclass(frozen=True)
class PullbackSquare:
    apex: int
    to_left: int   # apex -> dom(f)
    to_right: int  # apex -> dom(g)


def pullback(cat: FinCategory, f: int, g: int):
    """Canonical pullback of the cospan (f, g), or None if absent.

    The square is the cone ``limit(cat, cospan_diagram(cat, f, g))`` returns,
    found without building the diagram or listing cones.  A cone (p, q) on
    apex x is terminal iff, for every w, h |-> (p∘h, q∘h) maps hom(w, x)
    bijectively onto the cones over w.  So only an apex whose hom-count
    column equals the cone counts can carry one, and on such an apex the
    map is a bijection as soon as it is injective.

    On a thin category the square depends on the leg domains alone: the
    cone counts, so the apex, and the unique legs are all read off
    hom(-, dom f) and hom(-, dom g).  Cospans with the same leg domains
    share one square there.
    """
    cache = cat._pullback_table
    key = _pullback_key(cat, f, g)
    if key not in cache:
        cache[key] = _pullback_square(cat, f, g)
    return cache[key]


def _pullback_key(cat: FinCategory, f: int, g: int):
    """The key of the cospan (f, g) in ``cat._pullback_table``: (dom f, dom g)
    on a thin category, once the codomains are checked, else (f, g)."""
    if not cat._thin:
        return f, g
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    return cat.dom[f], cat.dom[g]


def _pullback_square(cat: FinCategory, f: int, g: int):
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    a, b = cat.dom[f], cat.dom[g]
    comp, hom = cat.comp, cat._hom_table
    comp_f, comp_g = comp[f], comp[g]
    counts = [sum(comp_f[p] == comp_g[q] for p in row[a] for q in row[b])
              for row in hom]
    for x, column in enumerate(cat._hom_counts):
        if column != counts:
            continue
        for p in hom[x][a]:
            for q in hom[x][b]:
                if comp_f[p] == comp_g[q] and all(
                        n < 2 or len({(comp[p][h], comp[q][h]) for h in hom[w][x]}) == n
                        for w, n in enumerate(counts)):
                    return PullbackSquare(x, p, q)
    return None


def terminal_object(cat: FinCategory):
    """The least object with exactly one arrow from every object, or None."""
    ones = [1] * cat.n_objects
    return next((x for x, column in enumerate(cat._hom_counts) if column == ones),
                None)


def strict_initial(cat: FinCategory):
    """The initial object all of whose incoming morphisms are isos, or None."""
    for x in cat.objects:
        if all(len(cat.hom(x, y)) == 1 for y in cat.objects):
            if all(cat.is_iso(f) for f in cat.into(x)):
                return x
            return None  # initial objects are unique up to iso; one scan settles it
    return None


@dataclass(frozen=True)
class SubobjectLattice:
    """Monos into an object up to mutual factorization.

    ``representatives`` holds the least mor id of each class, ascending;
    ``order[i][j]`` is True iff class i factors through class j.
    """

    object: int
    representatives: tuple[int, ...]
    order: tuple[tuple[bool, ...], ...]

    @property
    def top(self) -> int:
        return next(i for i, row in enumerate(self.order)
                    if all(other[i] for other in self.order))


def subobject_lattice(cat: FinCategory, x: int) -> SubobjectLattice:
    monos = [f for f in cat.into(x) if is_mono(cat, f)]
    below = {u: {v for v in monos if cat.factors_through(u, v) is not None}
             for u in monos}
    classes = []
    seen = set()
    for u in monos:  # ascending, so each class is keyed by its least member
        if u in seen:
            continue
        cls = frozenset(v for v in monos if v in below[u] and u in below[v])
        seen |= cls
        classes.append(cls)
    reps = tuple(min(cls) for cls in classes)
    order = tuple(
        tuple(reps[j] in below[reps[i]] for j in range(len(reps)))
        for i in range(len(reps)))
    return SubobjectLattice(x, reps, order)


def is_extremal_epi_family(cat: FinCategory, y: int, legs) -> bool:
    """No proper subobject of y admits factorizations of every leg.

    The empty family is legal (and extremal epi iff y has no proper
    subobject, the paper's gamma = 0 reading).
    """
    legs = tuple(legs)
    if any(cat.cod[f] != y for f in legs):
        raise ValueError("mixed codomains in family")
    lat = subobject_lattice(cat, x=y)
    top = lat.top
    for i, rep in enumerate(lat.representatives):
        if i == top:
            continue
        if all(cat.factors_through(f, rep) is not None for f in legs):
            return False
    return True


def coequalizer(cat: FinCategory, p1: int, p2: int):
    """Initial coequalizing morphism of the parallel pair, or None."""
    if cat.dom[p1] != cat.dom[p2] or cat.cod[p1] != cat.cod[p2]:
        raise ValueError("not a parallel pair")
    x = cat.cod[p1]
    candidates = [q for q in cat.out_of(x) if cat.comp[q][p1] == cat.comp[q][p2]]
    for q in candidates:
        ok = True
        for r in candidates:
            hs = [h for h in cat.hom(cat.cod[q], cat.cod[r])
                  if cat.comp[h][q] == r]
            if len(hs) != 1:
                ok = False
                break
        if ok:
            return q
    return None


def is_effective_epi(cat: FinCategory, f: int) -> bool:
    """f is a coequalizer of its kernel pair (False when the pair is absent)."""
    square = pullback(cat, f, f)
    if square is None:
        return False
    p1, p2 = square.to_left, square.to_right
    if cat.comp[f][p1] != cat.comp[f][p2]:
        return False
    for r in cat.out_of(cat.dom[f]):
        if cat.comp[r][p1] != cat.comp[r][p2]:
            continue
        hs = [h for h in cat.hom(cat.cod[f], cat.cod[r]) if cat.comp[h][f] == r]
        if len(hs) != 1:
            return False
    return True


def image_factorization_abstract(cat: FinCategory, f: int):
    """(effective epi, mono) with mono ∘ epi = f, or None when the needed
    (co)limits are missing.  Never guesses: every required property is
    re-verified on the found candidates."""
    square = pullback(cat, f, f)
    if square is None:
        return None
    q = coequalizer(cat, square.to_left, square.to_right)
    if q is None:
        return None
    ms = [m for m in cat.hom(cat.cod[q], cat.cod[f]) if cat.comp[m][q] == f]
    if len(ms) != 1:
        return None
    m = ms[0]
    if not is_mono(cat, m) or not is_effective_epi(cat, q):
        return None
    return q, m


def image_factorization_pointwise(alpha: NatTransData):
    """Pointwise image of a map of set-valued functors.

    Returns (epi, image functor, mono); the epi is pointwise surjective, the
    mono pointwise injective, and their composite equals alpha.
    """
    src, tgt = alpha.source, alpha.target
    cat = src.cat
    hit = [sorted(set(alpha.components[x])) for x in cat.objects]
    index = [{e: k for k, e in enumerate(h)} for h in hit]
    sizes = tuple(len(h) for h in hit)
    action = []
    for fmor in cat.morphisms:
        a = src.source_obj(fmor)
        b = src.target_obj(fmor)
        action.append(tuple(index[b][tgt.action[fmor][e]] for e in hit[a]))
    image = SetValuedFunctor(cat, src.variance, sizes, tuple(action))
    epi = NatTransData(src, image, tuple(
        tuple(index[x][alpha.components[x][e]] for e in src.carrier(x))
        for x in cat.objects))
    mono = NatTransData(image, tgt, tuple(tuple(h) for h in hit))
    return epi, image, mono
