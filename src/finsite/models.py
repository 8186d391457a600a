"""Models of a finite site: lex, cover-preserving set-valued functors.

Enumeration, the category of elements, the lex-cover-preserving hull, and
the Kan-extension point functor (a union-find colimit over elements).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import limits
from .fincat import COVARIANT, FinCategory, NatTransData, SetValuedFunctor
from .site import SiteSpec


@dataclass(frozen=True)
class ModelBound:
    max_carrier: int

    def __post_init__(self):
        if self.max_carrier < 1:
            raise ValueError("bound must be at least 1")


@dataclass(frozen=True)
class Model:
    functor: SetValuedFunctor
    is_lex: bool
    preserves_covers: bool


def _square_holds(action, f, g, square) -> bool:
    """The action tables send the pullback square over the cospan (f, g)
    to a bijection onto the set-level fiber product."""
    image = set(zip(action[square.to_left], action[square.to_right]))
    if len(image) != len(action[square.to_left]):
        return False
    act_g = action[g]
    return image == {(a, b) for a, fa in enumerate(action[f])
                     for b, gb in enumerate(act_g) if fa == gb}


def is_lex(cat: FinCategory, m: SetValuedFunctor) -> bool:
    """m sends the terminal object to a point and every canonical pullback
    square to a bijection onto the set-level fiber product.

    Only the squares of ``limits._lex_probes`` are checked; the others
    hold with them."""
    if m.variance != COVARIANT:
        raise ValueError("lexness is checked for covariant functors")
    terminal, squares = limits._lex_probes(cat)
    if terminal is None or m.sizes[terminal] != 1:
        return False
    return all(_square_holds(m.action, f, g, square) for f, g, square in squares)


def preserves_covers(m: SetValuedFunctor, site: SiteSpec) -> bool:
    """Every E-family maps to a jointly surjective family (the empty family
    asks for an empty image carrier)."""
    for fam in site.covers:
        hit = set()
        for f in fam.legs:
            hit.update(m.action[f])
        if len(hit) != m.sizes[fam.codomain]:
            return False
    return True


def enumerate_set_functors(cat: FinCategory, bound: int, prune=None, squares=()):
    """All covariant functors with carriers <= bound, by backtracking.

    They come in lexicographic order of the size vector (object 0 most
    significant, as ``itertools.product`` gives them), then of the action
    tables of the non-identity morphisms in ascending id.

    ``squares`` holds ``(f, g, square)`` pullback squares, as
    ``limits._lex_probes`` gives them, that the functor must send to
    set-level pullbacks.  Size
    vectors are built object by object, and a prefix is cut as soon as an
    arrow between two decided objects admits no function: from a non-empty
    carrier to an empty one, or to a smaller carrier when a square with
    identity legs says the arrow is mono.  ``prune(sizes)`` may reject a
    complete size vector before actions are tried.  Each composition fact
    g∘f = h (h an identity included) and each square is checked once, when
    the last of its non-identity arrows is assigned.
    """
    nonid = [f for f in cat.morphisms if not cat.is_identity(f)]
    position = {f: k for k, f in enumerate(nonid)}

    def level(*arrows):
        return max((position[a] for a in arrows if a in position), default=None)

    comp_facts = [[] for _ in nonid]
    for g in nonid:
        for f in nonid:
            if cat.cod[f] == cat.dom[g]:
                h = cat.comp[g][f]
                comp_facts[level(g, f, h)].append((g, f, h))
    square_facts = [[] for _ in nonid]
    for f, g, square in squares:
        k = level(f, g, square.to_left, square.to_right)
        if k is not None:  # an all-identity square is the diagonal: always a bijection
            square_facts[k].append((f, g, square))
    # a square with identity legs says that f is mono: M(f) must be injective
    monos = {f for f, g, square in squares
             if cat.is_identity(square.to_left) and cat.is_identity(square.to_right)}

    def fits(f, sizes):  # some function (injection if mono) dom f -> cod f exists
        s, t = sizes[cat.dom[f]], sizes[cat.cod[f]]
        return s <= t if f in monos else s == 0 or t > 0

    # the arrows between x and the objects decided before it
    between = [[f for f in cat.morphisms if cat.dom[f] != cat.cod[f]
                and max(cat.dom[f], cat.cod[f]) == x] for x in cat.objects]

    def size_vectors(sizes):
        x = len(sizes)
        if x == cat.n_objects:
            yield tuple(sizes)
            return
        for s in range(bound + 1):
            grown = sizes + [s]
            if all(fits(f, grown) for f in between[x]):
                yield from size_vectors(grown)

    def consistent(action, k):
        for g, f, h in comp_facts[k]:
            act_g = action[g]
            if tuple([act_g[v] for v in action[f]]) != action[h]:
                return False
        return all(_square_holds(action, f, g, square)
                   for f, g, square in square_facts[k])

    for sizes in size_vectors([]):
        if prune is not None and not prune(sizes):
            continue
        action = [None] * cat.n_morphisms
        for x in cat.objects:
            action[cat.identity[x]] = tuple(range(sizes[x]))

        def assign(k):
            if k == len(nonid):
                yield SetValuedFunctor(cat, COVARIANT, sizes, tuple(action))
                return
            f = nonid[k]
            for table in itertools.product(range(sizes[cat.cod[f]]),
                                           repeat=sizes[cat.dom[f]]):
                action[f] = table
                if consistent(action, k):
                    yield from assign(k + 1)

        yield from assign(0)


def _thin_functors(cat: FinCategory, terminal: int, squares, skip=()):
    """The lex functors of a thin category with a terminal object, in the
    order ``enumerate_set_functors`` gives them.

    Here every lex functor has carriers of size at most one: the pullback
    of x -> T <- x has equal legs, so F(x) ≅ F(x) × F(x).  A functor with
    such carriers is its support U, and it is lex iff U is an up-set that
    contains T and the apex of every square whose two leg domains lie in U.
    Those sets are the closed sets of the closure below, found by
    NextClosure (Ganter, "Two basic algorithms in concept analysis", 1984)
    in lectic order.  A set is an int with object x at bit
    n-1-x, so lectic order is integer order, which is the enumerator's
    size-vector order.  Closed sets that meet ``skip`` are left out.
    """
    n = cat.n_objects

    def bit(x):
        return 1 << (n - 1 - x)

    avoid = sum(bit(x) for x in set(skip))
    up = [0] * n
    for f in cat.morphisms:
        up[cat.dom[f]] |= bit(cat.cod[f])
    needs = {}  # two leg domains -> the up-set of their apex
    for f, g, square in squares:
        a, b, apex = cat.dom[f], cat.dom[g], up[square.apex]
        if apex != up[a] and apex != up[b]:  # else the up-closure adds it
            needs[bit(a) | bit(b)] = apex
    needs = list(needs.items())

    def closure(s):
        closed = up[terminal]
        for x in cat.objects:
            if s & bit(x):
                closed |= up[x]
        grown = True
        while grown:
            grown = False
            for legs, apex in needs:
                if closed & legs == legs and closed & apex != apex:
                    closed |= apex
                    grown = True
        return closed

    current = closure(0)
    while True:
        if not current & avoid:
            sizes = tuple(current >> (n - 1 - x) & 1 for x in cat.objects)
            yield SetValuedFunctor(cat, COVARIANT, sizes, tuple(
                tuple(range(sizes[cat.dom[f]])) for f in cat.morphisms))
        for i in range(n):  # the least significant missing bit first
            b = 1 << i
            if current & b:
                continue
            high = current & ~(2 * b - 1)  # the members more significant than b
            nxt = closure(high | b)
            if nxt & ~(2 * b - 1) == high:
                current = nxt
                break
        else:
            return


def _lex_candidates(cat: FinCategory, bound: int, skip=()):
    """Functors with carriers <= bound that send the terminal object to a
    point and every ``limits._lex_probes`` square to a set-level pullback,
    with the objects in ``skip`` sent to the empty set, in the enumerator's
    order.  A thin category takes ``_thin_functors``, any other the
    backtracking search."""
    terminal, squares = limits._lex_probes(cat)
    if terminal is None or bound < 1:
        return iter(())
    if cat._thin:
        return _thin_functors(cat, terminal, squares, skip)

    def prune(sizes):
        return sizes[terminal] == 1 and all(sizes[x] == 0 for x in skip)
    return enumerate_set_functors(cat, bound, prune, squares)


def enumerate_models(site: SiteSpec, bound: ModelBound) -> list[Model]:
    """All lex cover-preserving functors with carriers <= B, up to table
    equality, lexicographically.

    A thin category with a terminal object takes its closed up-sets from
    ``_thin_functors``; any other category the backtracking search, with
    terminal preservation pruning the sizes and the pullback squares
    checked during it.  Either way an empty cover forces an empty carrier,
    and each candidate is confirmed by ``is_lex`` and ``preserves_covers``."""
    empty = [fam.codomain for fam in site.covers if not fam.legs]
    return [Model(functor, True, True)
            for functor in _lex_candidates(site.cat, bound.max_carrier, empty)
            if is_lex(site.cat, functor) and preserves_covers(functor, site)]


def enumerate_lex_functors(cat: FinCategory, bound: int) -> list[SetValuedFunctor]:
    """Lex functors with carriers <= B, no cover condition (feeds C-tilde).

    Same candidates as ``enumerate_models`` (closed up-sets on a thin
    category with a terminal object, the backtracking search otherwise),
    each confirmed by ``is_lex``; [] when B < 1."""
    return [fn for fn in _lex_candidates(cat, bound) if is_lex(cat, fn)]


def elements_category(m: SetValuedFunctor):
    """Objects of ∫M as (object, point) pairs in ascending order."""
    return [(x, p) for x in m.cat.objects for p in m.carrier(x)]


def lex_hull(site: SiteSpec, m: SetValuedFunctor, seed) -> tuple[tuple[int, ...], ...]:
    """Least sub-collection of M containing the seed and stable under the
    three closure operators: M(f)-images, one canonical cover preimage per
    element, and elements forced by limit cones over already-kept points.

    The cover preimage is the least element of the least-id leg that hits
    the point; the choice depends only on M, which keeps the closure
    extensive, monotone and idempotent.
    """
    cat = site.cat
    kept = [set(seed[x]) if x < len(seed) else set() for x in cat.objects] \
        if not isinstance(seed, dict) else [set(seed.get(x, ())) for x in cat.objects]
    for x in cat.objects:
        if not all(0 <= e < m.sizes[x] for e in kept[x]):
            raise ValueError("seed escapes the carriers of M")
    terminal, squares = limits._lex_probes(cat)
    changed = True
    while changed:
        changed = False
        for f in cat.morphisms:
            x, y = cat.dom[f], cat.cod[f]
            for e in list(kept[x]):
                if m.action[f][e] not in kept[y]:
                    kept[y].add(m.action[f][e])
                    changed = True
        for fam in site.covers:
            if not fam.legs:
                continue
            for e in list(kept[fam.codomain]):
                pre = next(((cat.dom[leg], cand) for leg in fam.legs
                            for cand in m.carrier(cat.dom[leg])
                            if m.action[leg][cand] == e), None)
                if pre is not None and pre[1] not in kept[pre[0]]:
                    kept[pre[0]].add(pre[1])
                    changed = True
        if terminal is not None and m.sizes[terminal] == 1 and 0 not in kept[terminal]:
            kept[terminal].add(0)  # the empty compatible family forces the point
            changed = True
        for f, g, square in squares:
            over = list(zip(m.action[square.to_left], m.action[square.to_right]))
            for a in list(kept[cat.dom[f]]):
                for b in list(kept[cat.dom[g]]):
                    if m.action[f][a] == m.action[g][b] and (a, b) in over:
                        p = over.index((a, b))  # the least apex point over (a, b)
                        if p not in kept[square.apex]:
                            kept[square.apex].add(p)
                            changed = True
    return tuple(tuple(sorted(k)) for k in kept)


def subfunctor(m: SetValuedFunctor, kept) -> SetValuedFunctor:
    """M restricted to the kept elements, carriers renumbered densely."""
    cat = m.cat
    index = [{e: k for k, e in enumerate(kept[x])} for x in cat.objects]
    sizes = tuple(len(kept[x]) for x in cat.objects)
    action = []
    for f in cat.morphisms:
        x, y = m.source_obj(f), m.target_obj(f)
        action.append(tuple(index[y][m.action[f][e]] for e in kept[x]))
    return SetValuedFunctor(cat, m.variance, sizes, tuple(action))


class UnionFind:
    """Path halving; the smaller root wins a union, so roots are class minima."""

    def __init__(self, items):
        self.parent = {item: item for item in items}

    def find(self, item):
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class LanResult:
    """colim over ∫F of M: zig-zag classes of (object, section, point), in
    least-member order, and each triple's class."""

    classes: tuple[tuple[tuple[int, int, int], ...], ...]
    index: dict[tuple[int, int, int], int] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.classes)

    def class_of(self, x: int, s: int, point: int) -> int:
        return self.index[x, s, point]


def lan_ay(m: SetValuedFunctor, f_presheaf: SetValuedFunctor) -> LanResult:
    """The Kan-extension point functor on one presheaf, by union-find.

    Triples (x, s ∈ F(x), p ∈ M(x)) are glued along every arrow of the base:
    for h: x -> y and t ∈ F(y), (x, F(h)(t), p) ~ (y, t, M(h)(p)).
    """
    cat = m.cat
    triples = [(x, s, p) for x in cat.objects
               for s in f_presheaf.carrier(x) for p in m.carrier(x)]
    uf = UnionFind(triples)
    for h in cat.morphisms:
        x, y = cat.dom[h], cat.cod[h]
        for t in f_presheaf.carrier(y):
            s = f_presheaf.action[h][t]  # restriction along h
            for p in m.carrier(x):
                uf.union((x, s, p), (y, t, m.action[h][p]))
    buckets = {}  # triples ascend and a root is its class's least triple: least-member order
    for triple in triples:
        buckets.setdefault(uf.find(triple), []).append(triple)
    classes = tuple(map(tuple, buckets.values()))
    return LanResult(classes, {t: k for k, cls in enumerate(classes) for t in cls})


def lan_map(m: SetValuedFunctor, theta: NatTransData) -> dict[int, int]:
    """Map induced on lan_ay classes by a presheaf map theta: F => G."""
    src = lan_ay(m, theta.source)
    tgt = lan_ay(m, theta.target)
    out = {}
    for k, cls in enumerate(src.classes):
        x, s, p = cls[0]
        out[k] = tgt.class_of(x, theta.components[x][s], p)
    return out


def eta_check(site: SiteSpec, m: SetValuedFunctor) -> bool:
    """lan_ay(M, ay(x)) is naturally isomorphic to M(x), componentwise.

    The canonical comparison sends p to the class of (x, unit(id_x), p);
    bijectivity at every x plus naturality along every base morphism is the
    finite content of the eta-is-iso claim.  Along f: x -> y the induced
    map sends the class of (x, generic, p) to the class of
    (x, a(f_*)(generic), p) in the Lan at y, so each Lan is computed once.
    """
    from .presheaf import ay, sheafified_postcompose
    cat = site.cat
    lans = {}
    generic = {}
    can = {}
    for x in cat.objects:
        sh = ay(site, x)
        lans[x] = lan_ay(m, sh.sheaf.presheaf)
        id_pos = cat.hom(x, x).index(cat.identity[x])
        generic[x] = sh.unit.components[x][id_pos]
        can[x] = [lans[x].class_of(x, generic[x], p) for p in m.carrier(x)]
        if len(set(can[x])) != m.sizes[x] or lans[x].size != m.sizes[x]:
            return False
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        pushed = sheafified_postcompose(site, f).components[x][generic[x]]
        for p in m.carrier(x):
            if lans[y].class_of(x, pushed, p) != can[y][m.action[f][p]]:
                return False
    return True
