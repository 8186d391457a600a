"""Shared builders and slow independent oracles for the test suite.

The oracles here deliberately avoid the library's pruned/backtracking code
paths: functors are generated by full cartesian products and filtered by the
raw definitions, so agreement tests compare genuinely different deciders.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from finsite import limits
from finsite.fincat import (COVARIANT, FinCategory, SetValuedFunctor,
                            make_category, poset_category, validate_set_functor)
from finsite.lattice import FinLattice, downset_lattice
from finsite.site import (Family, SaturationResult, Sieve, SiteSpec, is_sieve,
                          pullback_closure)


def fork_category() -> FinCategory:
    """Two parallel arrows f, g: x -> y merged by q: y -> z (q∘f = q∘g = h)."""
    # objects x=0, y=1, z=2; arrows f=3, g=4, q=5, h=6
    return make_category(
        3, [(0, 1), (0, 1), (1, 2), (0, 2)],
        {(5, 3): 6, (5, 4): 6},
        ("x", "y", "z"), ("f", "g", "q", "h"))


def discrete2_category() -> FinCategory:
    return make_category(2, [], {}, ("x", "y"), ())


def cospan_only_category() -> FinCategory:
    """u -> w <- v and nothing else: the cospan has no cone at all."""
    return make_category(3, [(0, 2), (1, 2)], {}, ("u", "v", "w"), ("f", "g"))


def left_zero_monoid() -> FinCategory:
    """One object with endomorphisms a, b composing by left projection."""
    return make_category(1, [(0, 0), (0, 0)],
                         {(1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 2},
                         ("pt",), ("a", "b"))


def iso_pair_category() -> FinCategory:
    """Mutually inverse i: x -> y, j: y -> x under a terminal object T."""
    # objects x=0, y=1, T=2; arrows i=3, j=4, tx=5, ty=6
    return make_category(
        3, [(0, 1), (1, 0), (0, 2), (1, 2)],
        {(4, 3): 0, (3, 4): 1, (6, 3): 5, (5, 4): 6},
        ("x", "y", "T"), ("i", "j", "tx", "ty"))


@st.composite
def posets(draw, max_objects):
    """A leq matrix on 1..max_objects points: random pairs i < j, closed
    transitively."""
    n = draw(st.integers(min_value=1, max_value=max_objects))
    bits = draw(st.lists(
        st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    leq = [[i == j for j in range(n)] for i in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits[k]:
                leq[i][j] = True
            k += 1
    for m in range(n):  # close transitively
        for i in range(n):
            for j in range(n):
                if leq[i][m] and leq[m][j]:
                    leq[i][j] = True
    return leq


def boolean_leq(k):
    """The subsets of k points under inclusion, as a leq matrix."""
    return [[a & b == a for b in range(2 ** k)] for a in range(2 ** k)]


def poset_site(leq) -> SiteSpec:
    """The poset with every element covered by its immediate predecessors
    when it has at least two, and the identity cover on a top if any."""
    cat = poset_category(leq)
    n = len(leq)
    covers = [Family.make(y, [cat.identity[y]]) for y in range(n)
              if all(leq[x][y] for x in range(n))]
    for y in range(n):
        below = [x for x in range(n) if x != y and leq[x][y]]
        preds = [x for x in below
                 if not any(z != x and leq[x][z] for z in below)]
        if len(preds) >= 2:
            covers.append(Family.make(y, [cat.hom(x, y)[0] for x in preds]))
    return SiteSpec.make(cat, covers)


def slow_tree_saturation(site: SiteSpec) -> SaturationResult:
    """Naive pasting rounds: every round re-pastes every family on dom(f)
    into every leg f of every known family."""
    cat = site.cat
    fams = set(pullback_closure(site))
    for f in cat.morphisms:
        if cat.is_iso(f):
            fams.add(Family.make(cat.cod[f], [f]))
    by_codomain = {}

    def index(fam):
        by_codomain.setdefault(fam.codomain, set()).add(fam)

    for fam in fams:
        index(fam)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for fam in sorted(fams, key=Family.sort_key):
            for leg in fam.legs:
                dom = cat.dom[leg]
                for inner in sorted(by_codomain.get(dom, ()), key=Family.sort_key):
                    pasted_legs = set(fam.legs)
                    pasted_legs.discard(leg)
                    pasted_legs.update(cat.comp[leg][g] for g in inner.legs)
                    pasted = Family.make(fam.codomain, pasted_legs)
                    if pasted not in fams:
                        fams.add(pasted)
                        index(pasted)
                        changed = True
    return SaturationResult(tuple(sorted(fams, key=Family.sort_key)), rounds)


def slow_sieves(cat: FinCategory, y: int) -> tuple[Sieve, ...]:
    """Every subset of into(y) that passes ``is_sieve``."""
    arrows = cat.into(y)
    out = []
    for k in range(len(arrows) + 1):
        for subset in itertools.combinations(arrows, k):
            if is_sieve(cat, y, subset):
                out.append(Sieve(y, frozenset(subset)))
    return tuple(sorted(out, key=Sieve.sort_key))


def glue_site() -> SiteSpec:
    """Poset 0 < a,b < p < m,c < T with the (non-extremal) cover {a,b} -> m.

    hom(m, c) is empty while a, b both map to c, so ay(m) => ay(c) has a
    glued-only section; exactly the shape the cover-factorization lemma eats.
    """
    names = ("0", "a", "b", "p", "m", "c", "T")
    ups = {"0": set(names), "a": {"a", "p", "m", "c", "T"},
           "b": {"b", "p", "m", "c", "T"}, "p": {"p", "m", "c", "T"},
           "m": {"m", "T"}, "c": {"c", "T"}, "T": {"T"}}
    leq = [[names[j] in ups[names[i]] for j in range(7)] for i in range(7)]
    cat = poset_category(leq, names)
    idx = {n: i for i, n in enumerate(names)}
    return SiteSpec.make(cat, [
        Family.make(idx["T"], [cat.identity[idx["T"]]]),
        Family.make(idx["m"], [cat.hom(idx["a"], idx["m"])[0],
                               cat.hom(idx["b"], idx["m"])[0]]),
    ])


def slow_enumerate_functors(cat: FinCategory, bound: int):
    """Every covariant functor with carriers <= bound by raw product-and-filter."""
    for sizes in itertools.product(range(bound + 1), repeat=cat.n_objects):
        tables = []
        for f in cat.morphisms:
            src, tgt = sizes[cat.dom[f]], sizes[cat.cod[f]]
            tables.append(list(itertools.product(range(tgt), repeat=src)))
        for action in itertools.product(*tables):
            fn = SetValuedFunctor(cat, COVARIANT, sizes, action)
            if not validate_set_functor(fn):
                yield fn


def slow_is_lex(cat: FinCategory, fn: SetValuedFunctor) -> bool:
    """Definition-based lex check: terminal to a point, each canonical
    pullback square to a square with the set-level universal property."""
    terminal = limits.terminal_object(cat)
    if terminal is None or fn.sizes[terminal] != 1:
        return False
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.cod[f] != cat.cod[g]:
                continue
            square = limits.pullback(cat, f, g)
            if square is None:
                continue
            pairs = {}
            for p in fn.carrier(square.apex):
                key = (fn.action[square.to_left][p], fn.action[square.to_right][p])
                if key in pairs:
                    return False  # comparison not injective
                pairs[key] = p
            for a in fn.carrier(cat.dom[f]):
                for b in fn.carrier(cat.dom[g]):
                    if fn.action[f][a] == fn.action[g][b] and (a, b) not in pairs:
                        return False  # comparison not surjective
    return True


def slow_preserves_covers(fn: SetValuedFunctor, site: SiteSpec) -> bool:
    for fam in site.covers:
        for target in fn.carrier(fam.codomain):
            if not any(fn.action[leg][e] == target
                       for leg in fam.legs for e in fn.carrier(fn.cat.dom[leg])):
                return False
    return True


def slow_models(site: SiteSpec, bound: int):
    return [fn for fn in slow_enumerate_functors(site.cat, bound)
            if slow_is_lex(site.cat, fn) and slow_preserves_covers(fn, site)]


def injective(components, sizes_at) -> bool:
    return len(set(components)) == len(components) == sizes_at


def nat_is_pointwise_injective(alpha) -> bool:
    return all(len(set(alpha.components[x])) == alpha.source.sizes[x]
               for x in alpha.source.cat.objects)


def nat_is_pointwise_bijective(alpha) -> bool:
    return nat_is_pointwise_injective(alpha) and all(
        alpha.source.sizes[x] == alpha.target.sizes[x]
        for x in alpha.source.cat.objects)


def slow_canonical_form(lat: FinLattice):
    """Isomorphism invariant by brute force: the lexicographically least leq
    matrix over all n! relabelings."""
    n = lat.n
    best = None
    for perm in itertools.permutations(range(n)):
        mat = tuple(tuple(lat.leq[perm[a]][perm[b]] for b in range(n))
                    for a in range(n))
        if best is None or mat < best:
            best = mat
    return best


def slow_distributive_catalogue(max_size: int = 6) -> list[FinLattice]:
    """Every distributive lattice with at most max_size elements, one per
    isomorphism class, via Birkhoff duality: downset lattices of all posets
    on at most max_size - 1 points (relations within a linear extension)."""
    seen = {}
    max_points = max_size - 1
    for n_points in range(max_points + 1):
        pairs = [(i, j) for i in range(n_points) for j in range(i + 1, n_points)]
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            relation = [p for p, bit in zip(pairs, bits) if bit]
            rel_set = set(relation)
            ok = all((i, k) in rel_set
                     for i, j in relation for j2, k in relation if j2 == j)
            if not ok:
                continue
            lat = downset_lattice(n_points, relation)
            if lat.n > max_size:
                continue
            key = (lat.n, slow_canonical_form(lat))
            if key not in seen:
                seen[key] = lat
    return [seen[key] for key in sorted(seen)]
