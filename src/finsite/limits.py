"""Finite limits, subobject lattices, image factorizations and
extremal/effective-epi detection, all read off the hom tables.

Each universal property has one predicate, ``is_pullback`` and
``is_coequalizer``; the searches and checks all use it.  ``_lex_probes``
lists what a lex functor must preserve.  The exhaustive cone search is the
oracle in ``tests/helpers.py``."""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import FinCategory, NatTransData, SetValuedFunctor, is_mono, kept


@dataclass(frozen=True)
class PullbackSquare:
    apex: int
    to_left: int   # apex -> dom(f)
    to_right: int  # apex -> dom(g)


def pullback(cat: FinCategory, f: int, g: int):
    """Canonical pullback of the cospan (f, g), or None if absent: the
    least-apex, then least-legs, cone that ``is_pullback`` accepts, which is
    the terminal cone the exhaustive search meets first.  Kept on the
    category, per cospan, or per pair of leg domains on a thin category.
    """
    if not cat._thin:
        return _pullback_square(cat, f, g)
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    return _meet_square(cat, cat.dom[f], cat.dom[g])


@kept
def _meet_square(cat: FinCategory, a: int, b: int):
    """The pullback of any cospan a -> y <- b of a thin category.  The cones
    on w number |hom(w, a)|·|hom(w, b)|, so the apex is the first object
    with that hom-count column, and its legs are the unique arrows."""
    hom = cat._hom_table
    counts = [len(row[a]) * len(row[b]) for row in hom]
    x = next((x for x, column in enumerate(cat._hom_counts) if column == counts), None)
    return None if x is None else PullbackSquare(x, hom[x][a][0], hom[x][b][0])


def _cone_counts(cat: FinCategory, f: int, g: int) -> list[int]:
    """w -> the number of cones (p, q) with apex w over the cospan (f, g)."""
    a, b = cat.dom[f], cat.dom[g]
    comp_f, comp_g = cat.comp[f], cat.comp[g]
    return [sum(comp_f[p] == comp_g[q] for p in row[a] for q in row[b])
            for row in cat._hom_table]


def _terminal_cone(cat: FinCategory, counts: list[int], p: int, q: int) -> bool:
    """A cone (p, q) on x over a cospan with cone counts ``counts`` is
    terminal iff h |-> (p∘h, q∘h) maps each hom(w, x) bijectively onto the
    cones on w: iff x's hom-count column is ``counts`` and the map is
    injective."""
    x = cat.dom[p]
    if cat._hom_counts[x] != counts:
        return False
    comp_p, comp_q, hom = cat.comp[p], cat.comp[q], cat._hom_table
    return all(n < 2 or len({(comp_p[h], comp_q[h]) for h in hom[w][x]}) == n
               for w, n in enumerate(counts))


def is_pullback(cat: FinCategory, f: int, g: int, p: int, q: int) -> bool:
    """The square f∘p = g∘q is a pullback of the cospan (f, g)."""
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    if cat.dom[p] != cat.dom[q] or cat.cod[p] != cat.dom[f] or cat.cod[q] != cat.dom[g]:
        raise ValueError("the legs do not form a cone over the cospan")
    return cat.comp[f][p] == cat.comp[g][q] \
        and _terminal_cone(cat, _cone_counts(cat, f, g), p, q)


@kept
def _pullback_square(cat: FinCategory, f: int, g: int):
    """The first cone, by (apex, legs), that ``is_pullback`` accepts, trying
    only the apexes whose column equals the cone counts."""
    if cat.cod[f] != cat.cod[g]:
        raise ValueError("cospan legs must share a codomain")
    a, b = cat.dom[f], cat.dom[g]
    comp_f, comp_g, hom = cat.comp[f], cat.comp[g], cat._hom_table
    counts = _cone_counts(cat, f, g)
    for x, column in enumerate(cat._hom_counts):
        if column != counts:
            continue
        for p in hom[x][a]:
            for q in hom[x][b]:
                if comp_f[p] == comp_g[q] and _terminal_cone(cat, counts, p, q):
                    return PullbackSquare(x, p, q)
    return None


def terminal_object(cat: FinCategory):
    """The least object with exactly one arrow from every object, or None."""
    ones = [1] * cat.n_objects
    return next((x for x, column in enumerate(cat._hom_counts) if column == ones),
                None)


@kept
def _lex_probes(cat: FinCategory):
    """Terminal object plus one canonical pullback square per unordered
    cospan: (f, g, square) for f <= g by id, since the squares of (f, g)
    and (g, f) are isomorphic limits.  At fixture scale these generate all
    finite limits; binary products are the cospans over the terminal object.
    A functor is lex when it sends the terminal object to a terminal one and
    each of these squares to a pullback.

    On a thin category with a terminal object T only the cospans into T are
    kept.  Limits there are meets, so the pullback of a -> y <- b has the
    apex a ∧ b of the product.  A functor F that preserves that product
    preserves the pullback too: a cone over F(a) -> F(y) <- F(b) is a pair
    of arrows into F(a) and F(b), so it factors through F(a ∧ b), and
    uniquely.
    """
    terminal = terminal_object(cat)
    products_only = terminal is not None and cat._thin
    squares = []
    for f in cat.into(terminal) if products_only else cat.morphisms:
        into = cat.into(cat.cod[f])
        for g in into[into.index(f):]:
            square = pullback(cat, f, g)
            if square is not None:
                squares.append((f, g, square))
    return terminal, tuple(squares)


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


def is_coequalizer(cat: FinCategory, p1: int, p2: int, q: int) -> bool:
    """q coequalizes the parallel pair (p1, p2) universally: q∘p1 = q∘p2,
    and every r with r∘p1 = r∘p2 is h∘q for exactly one h."""
    if cat.dom[q] != cat.cod[p1]:
        raise ValueError("q does not start at the codomain of the pair")
    comp = cat.comp
    return comp[q][p1] == comp[q][p2] and all(
        sum(comp[h][q] == r for h in cat.hom(cat.cod[q], cat.cod[r])) == 1
        for r in cat.out_of(cat.dom[q]) if comp[r][p1] == comp[r][p2])


def coequalizer(cat: FinCategory, p1: int, p2: int):
    """The least-id coequalizer of the parallel pair, or None."""
    if cat.dom[p1] != cat.dom[p2] or cat.cod[p1] != cat.cod[p2]:
        raise ValueError("not a parallel pair")
    return next((q for q in cat.out_of(cat.cod[p1]) if is_coequalizer(cat, p1, p2, q)),
                None)


def is_effective_epi(cat: FinCategory, f: int) -> bool:
    """f is a coequalizer of its kernel pair (False when the pair is absent)."""
    square = pullback(cat, f, f)
    return square is not None and is_coequalizer(cat, square.to_left, square.to_right, f)


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
