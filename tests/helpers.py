"""Shared builders and slow independent oracles for the test suite.

The oracles here deliberately avoid the library's pruned/backtracking code
paths: functors are generated by full cartesian products and filtered by the
raw definitions, so agreement tests compare genuinely different deciders.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import re
from dataclasses import dataclass

from hypothesis import strategies as st

from finsite import limits
from finsite.chase import (BUDGET_EXCEEDED, CONTAINED, INCONCLUSIVE, STABILIZED,
                           WITNESS, Cotree, SeparationResult, _task_list,
                           branch_colimit, run_branch, unpairing)
from finsite.eventual import CTilde, NatTable
from finsite.fileformat import (ParseError, ValidationError, _SiteBuilder,
                                _assemble_site, _logical_lines)
from finsite.fincat import (CONTRAVARIANT, COVARIANT, UNDEFINED, FinCategory,
                            FunctorData, NatTransData, SetValuedFunctor, check_nat,
                            identity_nat, kept, make_category, order_closure,
                            poset_category, validate_functor, validate_set_functor)
from finsite.lattice import (FinLattice, _canonical_form, downset_lattice,
                             validate_lattice)
from finsite.models import UnionFind, elements_category
from finsite.presheaf import _sorted_arrows, matching_families
from finsite.site import (Family, SaturationResult, Sieve, SiteSpec, all_sieves,
                          family_covers, generated_sieve, is_sieve, maximal_sieve,
                          pull_sieve, pullback_closure, site_topology)


def fork_category() -> FinCategory:
    """Two parallel arrows f, g: x -> y merged by q: y -> z (q∘f = q∘g = h)."""
    # objects x=0, y=1, z=2; arrows f=3, g=4, q=5, h=6
    return make_category(
        3, [(0, 1), (0, 1), (1, 2), (0, 2)],
        {(5, 3): 6, (5, 4): 6},
        ("x", "y", "z"), ("f", "g", "q", "h"))


def equalized_fork_category() -> FinCategory:
    """The fork f, g: x -> y, q: y -> z (q∘f = q∘g = h) with an equalizer
    i: e -> x of f and g.  Not thin, and z is terminal."""
    # objects e=0, x=1, y=2, z=3; arrows i=4, f=5, g=6, q=7, h=8, r=9, u=10
    return make_category(
        4, [(0, 1), (1, 2), (1, 2), (2, 3), (1, 3), (0, 2), (0, 3)],
        {(5, 4): 9, (6, 4): 9, (7, 5): 8, (7, 6): 8, (7, 9): 10, (8, 4): 10},
        ("e", "x", "y", "z"), ("i", "f", "g", "q", "h", "r", "u"))


def fresh_site(site: SiteSpec) -> SiteSpec:
    """The same site over a new, equal category: every table starts empty."""
    return SiteSpec(dataclasses.replace(site.cat), site.covers)


def kept_entries(owner, fn) -> dict:
    """The live table that ``fn``, a ``fincat.kept`` function, keeps on
    ``owner``: the arguments after the owner, as a tuple -> value.  A test
    may read it or seed it."""
    return vars(owner).setdefault(f"{fn.__module__}.{fn.__qualname__}", {})


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


def involution_category() -> FinCategory:
    """An involution s on x over a terminal object T: t∘s = t."""
    # objects x=0, T=1; arrows s=2, t=3
    return make_category(2, [(0, 0), (0, 1)], {(2, 2): 0, (3, 2): 3},
                         ("x", "T"), ("s", "t"))


def top_covered_site(cat: FinCategory, top: str) -> SiteSpec:
    """``cat`` as a site whose one cover is the identity of the object named
    ``top``."""
    x = next(x for x in cat.objects if cat.obj_name(x) == top)
    return SiteSpec.make(cat, [Family.make(x, [cat.identity[x]])])


def product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """C × D, objects and morphisms numbered pairwise in lexicographic order."""
    nd = d.n_morphisms

    def pair_comp(g, f):
        h1, h2 = c.comp[g // nd][f // nd], d.comp[g % nd][f % nd]
        return UNDEFINED if UNDEFINED in (h1, h2) else h1 * nd + h2

    n = c.n_morphisms * nd
    return FinCategory(
        dom=tuple(c.dom[f // nd] * d.n_objects + d.dom[f % nd] for f in range(n)),
        cod=tuple(c.cod[f // nd] * d.n_objects + d.cod[f % nd] for f in range(n)),
        identity=tuple(c.identity[x] * nd + d.identity[y]
                       for x in c.objects for y in d.objects),
        comp=tuple(tuple(pair_comp(g, f) for f in range(n)) for g in range(n)))


def reversed_ids(cat: FinCategory) -> FinCategory:
    """The same category with morphism f renumbered n-1-f, so identities
    come last in every hom set and ascending scans meet them last."""
    n = cat.n_morphisms

    def flip(f):
        return f if f == UNDEFINED else n - 1 - f

    return FinCategory(
        dom=cat.dom[::-1], cod=cat.cod[::-1],
        identity=tuple(flip(i) for i in cat.identity),
        comp=tuple(tuple(flip(h) for h in row[::-1]) for row in cat.comp[::-1]))


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


def grid_leq(a, b):
    """The product of the chains 0..a-1 and 0..b-1, as a leq matrix."""
    cells = [(i, j) for i in range(a) for j in range(b)]
    return [[p[0] <= q[0] and p[1] <= q[1] for q in cells] for p in cells]


def poset_site(leq, obj_names=()) -> SiteSpec:
    """The poset with every element covered by its immediate predecessors
    when it has at least two, and the identity cover on a top if any."""
    cat = poset_category(leq, obj_names)
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


def random_covers_site(cat: FinCategory, seed: int) -> SiteSpec:
    """The category with up to three random families, each leg kept with
    probability 0.4, so some families are empty."""
    rng = random.Random(seed)
    covers = []
    for _ in range(rng.randrange(4)):
        y = rng.randrange(cat.n_objects)
        covers.append(Family.make(y, [f for f in cat.into(y) if rng.random() < 0.4]))
    return SiteSpec.make(cat, covers)


def oracle_sites(fixture_sites) -> dict[str, SiteSpec]:
    """The fixtures, ``glue_site``, bool_3 and grid_3x4 with their poset
    covers and with random ones, and the fork, left-zero-monoid, iso-pair,
    cospan-only and discrete categories with random covers."""
    sites = dict(fixture_sites, glue=glue_site(), bool_3=poset_site(boolean_leq(3)),
                 grid_3x4=poset_site(grid_leq(3, 4)))
    for name, cat in (("bool_3", poset_category(boolean_leq(3))),
                      ("grid_3x4", poset_category(grid_leq(3, 4)))):
        for seed in range(2):
            sites[f"{name}:random{seed}"] = random_covers_site(cat, seed)
    for name, cat in (("fork", fork_category()), ("left_zero_monoid", left_zero_monoid()),
                      ("iso_pair", iso_pair_category()),
                      ("cospan_only", cospan_only_category()),
                      ("discrete", discrete2_category())):
        for seed in range(6):
            sites[f"{name}:random{seed}"] = random_covers_site(cat, seed)
    return sites


@dataclass(frozen=True)
class SlowTopology:
    """A sieve topology as the full set of covering sieves per object."""

    cat: FinCategory
    covering: tuple[frozenset[Sieve], ...]  # per object

    def covers(self, sieve: Sieve) -> bool:
        return sieve in self.covering[sieve.target]

    def covering_sieves(self, y: int) -> list[Sieve]:
        return sorted(self.covering[y], key=Sieve.sort_key)


def slow_sieve_topology(site: SiteSpec) -> SlowTopology:
    """Least Grothendieck topology whose covers include the E-generated sieves.

    Fixpoint over the materialized finite sieve lattice: seed with maximal and
    generated sieves, then close under pullback and local character until
    stable.
    """
    cat = site.cat
    universe = {y: all_sieves(cat, y) for y in cat.objects}
    j = {y: set() for y in cat.objects}
    for y in cat.objects:
        j[y].add(maximal_sieve(cat, y))
    for fam in site.covers:
        j[fam.codomain].add(generated_sieve(cat, fam))
    changed = True
    while changed:
        changed = False
        for y in cat.objects:
            for sieve in list(j[y]):
                for h in cat.into(y):
                    pulled = pull_sieve(cat, sieve, h)
                    if pulled not in j[cat.dom[h]]:
                        j[cat.dom[h]].add(pulled)
                        changed = True
        for y in cat.objects:
            for sieve in universe[y]:
                if sieve in j[y]:
                    continue
                for cover in j[y]:
                    if all(pull_sieve(cat, sieve, h) in j[cat.dom[h]]
                           for h in cover.arrows):
                        j[y].add(sieve)
                        changed = True
                        break
    return SlowTopology(cat, tuple(frozenset(j[y]) for y in cat.objects))


def slow_all_nat_transformations(src: SetValuedFunctor, tgt: SetValuedFunctor):
    """Every natural transformation src => tgt, by brute force over component
    tuples in lexicographic order with a full naturality filter."""
    if src.cat != tgt.cat or src.variance != tgt.variance:
        raise ValueError("source and target must share base and variance")
    cat = src.cat
    per_object = [
        list(itertools.product(range(tgt.sizes[x]), repeat=src.sizes[x]))
        for x in cat.objects]
    for components in itertools.product(*per_object):
        alpha = NatTransData(src, tgt, components)
        if check_nat(alpha):
            yield alpha


def slow_nat_via_limit(m: SetValuedFunctor, n: SetValuedFunctor) -> list[tuple[int, ...]]:
    """lim over ∫M of N(x): families (a_(x,p)) with N(f)(a_(x,p)) = a_(y,M(f)p).

    Returned in lexicographic order over the ascending element list.
    """
    cat = m.cat
    elems = elements_category(m)
    position = {e: k for k, e in enumerate(elems)}
    out = []
    for values in itertools.product(*[n.carrier(x) for x, _ in elems]):
        ok = True
        for f in cat.morphisms:
            x, y = cat.dom[f], cat.cod[f]
            for p in m.carrier(x):
                if n.action[f][values[position[(x, p)]]] \
                        != values[position[(y, m.action[f][p])]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(values)
    return out


def ctilde_category(ct: CTilde) -> FinCategory:
    """Every arrow of C-tilde numbered, hom set after hom set in (i, j)
    order, with the whole composition table; for checking the category laws
    only."""
    n, table = len(ct.functors), ct.table
    first, arrows = {}, []
    for i, j in itertools.product(range(n), repeat=2):
        first[i, j] = len(arrows)
        arrows += [(i, j)] * len(table.hom(j, i))
    comp = [[UNDEFINED] * len(arrows) for _ in arrows]
    for i, j, k in itertools.product(range(n), repeat=3):
        # b: j -> k after a: i -> j is the transformation a after b
        for b, row in enumerate(table.composites(k, j, i)):
            for a, c in enumerate(row):
                comp[first[j, k] + b][first[i, j] + a] = first[i, k] + c
    identity = tuple(first[i, i] + table.index(i, i)[identity_nat(fn).family]
                     for i, fn in enumerate(ct.functors))
    return FinCategory(dom=tuple(i for i, _ in arrows), cod=tuple(j for _, j in arrows),
                       identity=identity, comp=tuple(tuple(row) for row in comp))


def ctilde_phi_mor(ct: CTilde) -> tuple[int, ...]:
    """``ct.phi_arrows`` as arrow numbers of ``ctilde_category(ct)``."""
    category = ctilde_category(ct)
    arrows = list(zip(category.dom, category.cod))
    return tuple(arrows.index((i, j)) + a for i, j, a in ct.phi_arrows)


class KeptCompositesTable(NatTable):
    """A Nat table that keeps every composite table it forms, because
    ``slow_ev_colimit_holds`` rereads one per point."""

    @kept
    def composites(self, i: int, j: int, k: int):
        return tuple(super().composites(i, j, k))


def slow_ev_colimit_holds(table: NatTable, v: int, t: int) -> bool:
    """The triples (i, p, alpha) with p in F_i(v) and alpha: F_i => F_t,
    glued along every beta: F_i => F_j, map by alpha_v(p) well defined and
    bijectively onto F_t(v): the colimit built by union-find."""
    functors = table.functors
    first, values = {}, []  # the triple (i, p, a) is numbered first[i, p] + a
    for i, fn in enumerate(functors):
        for p in fn.carrier(v):
            first[i, p] = len(values)
            values += [alpha.components[v][p] for alpha in table.hom(i, t)]
    uf = UnionFind(range(len(values)))
    for (i, p), here in first.items():
        for j in range(len(functors)):
            # alpha after beta, for beta: F_i => F_j, alpha: F_j => F_t
            for beta, row in zip(table.hom(i, j), table.composites(i, j, t)):
                there = first[j, beta.components[v][p]]
                for a, c in enumerate(row):
                    uf.union(there + a, here + c)
    classes = {}
    for number, value in enumerate(values):
        classes.setdefault(uf.find(number), set()).add(value)
    images = [vals.pop() if len(vals) == 1 else None for vals in classes.values()]
    return None not in images and sorted(images) == list(functors[t].carrier(v))


def slow_matching_families(p: SetValuedFunctor, sieve: Sieve):
    """All compatible assignments over the sieve, lexicographic in arrow order.

    An assignment gives each arrow f in the sieve an element of P(dom f);
    compatibility demands assignment(f∘g) = P(g)(assignment(f)).
    """
    cat = p.cat
    arrows = _sorted_arrows(sieve)
    position = {f: k for k, f in enumerate(arrows)}
    out = []
    for values in itertools.product(*[p.carrier(cat.dom[f]) for f in arrows]):
        ok = True
        for f in arrows:
            for g in cat.into(cat.dom[f]):
                if values[position[cat.comp[f][g]]] != p.action[g][values[position[f]]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(values)
    return arrows, out


def _agrees_on_refinement(cat, topology, x, fam1, fam2):
    """(S1,m1) ~ (S2,m2): agreement on some covering sieve inside S1 ∩ S2."""
    (s1, pos1, m1), (s2, pos2, m2) = fam1, fam2
    meet = s1.arrows & s2.arrows
    for s3 in topology.covering_sieves(x):
        if not s3.arrows <= meet:
            continue
        if all(m1[pos1[f]] == m2[pos2[f]] for f in s3.arrows):
            return True
    return False


@dataclass(frozen=True)
class SlowPlus:
    """The oracle's P⁺ and unit, and per object one (sieve, arrows,
    assignment) representative per class: its first family over the covering
    sieves in their order."""

    presheaf: SetValuedFunctor
    unit: NatTransData
    representatives: tuple[tuple[tuple[Sieve, tuple[int, ...], tuple[int, ...]], ...], ...]


def slow_plus(p: SetValuedFunctor, topology: SlowTopology) -> SlowPlus:
    """The +-construction: sections are classes of matching families over
    covering sieves, identified on common refining covers."""
    cat = p.cat
    fams_by_obj = []
    classes_by_obj = []
    for x in cat.objects:
        fams = []
        for sieve in topology.covering_sieves(x):
            arrows, assignments = slow_matching_families(p, sieve)
            pos = {f: k for k, f in enumerate(arrows)}
            for assignment in assignments:
                fams.append((sieve, arrows, pos, assignment))
        classes = []  # list of lists of family indices
        for i, (s1, a1, p1, m1) in enumerate(fams):
            placed = False
            for cls in classes:
                s2, a2, p2, m2 = fams[cls[0]]
                if _agrees_on_refinement(cat, topology, x, (s1, p1, m1), (s2, p2, m2)):
                    cls.append(i)
                    placed = True
                    break
            if not placed:
                classes.append([i])
        fams_by_obj.append(fams)
        classes_by_obj.append(classes)

    reps = tuple(
        tuple((fams[cls[0]][0], fams[cls[0]][1], fams[cls[0]][3]) for cls in classes)
        for fams, classes in zip(fams_by_obj, classes_by_obj))
    sizes = tuple(len(classes) for classes in classes_by_obj)

    def locate(x, sieve, assignment):
        pos = {f: k for k, f in enumerate(_sorted_arrows(sieve))}
        for k, (rs, ra, rm) in enumerate(reps[x]):
            rpos = {f: i for i, f in enumerate(ra)}
            if _agrees_on_refinement(cat, topology, x,
                                     (sieve, pos, assignment), (rs, rpos, rm)):
                return k
        raise AssertionError("matching family escaped its own classes")

    action = []
    for f in cat.morphisms:
        x, z = cat.cod[f], cat.dom[f]  # contravariant: restrict along f: z -> x
        column = []
        for rs, ra, rm in reps[x]:
            pulled = Sieve(z, frozenset(
                g for g in cat.into(z) if cat.comp[f][g] in rs.arrows))
            pos = {a: k for k, a in enumerate(ra)}
            assignment = tuple(rm[pos[cat.comp[f][g]]]
                               for g in _sorted_arrows(pulled))
            column.append(locate(z, pulled, assignment))
        action.append(tuple(column))
    plus_presheaf = SetValuedFunctor(cat, CONTRAVARIANT, sizes, tuple(action))

    unit_components = []
    for x in cat.objects:
        maximal = Sieve(x, frozenset(cat.into(x)))
        arrows = _sorted_arrows(maximal)
        unit_components.append(tuple(
            locate(x, maximal, tuple(p.action[f][s] for f in arrows))
            for s in p.carrier(x)))
    unit = NatTransData(p, plus_presheaf, tuple(unit_components))
    return SlowPlus(plus_presheaf, unit, reps)


def slow_is_sheaf(p: SetValuedFunctor, topology: SlowTopology) -> bool:
    """For every covering sieve the canonical comparison map is a bijection."""
    cat = p.cat
    for x in cat.objects:
        for sieve in topology.covering_sieves(x):
            arrows, fams = slow_matching_families(p, sieve)
            images = {tuple(p.action[f][s] for f in arrows) for s in p.carrier(x)}
            if len(images) != p.sizes[x] or len(fams) != p.sizes[x]:
                return False
    return True


def sheaf_for_family(p: SetValuedFunctor, cat: FinCategory, fam) -> bool:
    """Descent along one family, phrased over the sieve it generates."""
    sieve = generated_sieve(cat, fam)
    arrows, fams = matching_families(p, sieve)
    images = {tuple(p.action[f][s] for f in arrows) for s in p.carrier(fam.codomain)}
    return len(images) == p.sizes[fam.codomain] and len(fams) == p.sizes[fam.codomain]


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
            if not tables[-1]:
                break  # no function into the empty set: no functor has these sizes
        for action in itertools.product(*tables):
            fn = SetValuedFunctor(cat, COVARIANT, sizes, action)
            if not validate_set_functor(fn):
                yield fn


@functools.cache
def slow_pullback_squares(cat: FinCategory):
    """(f, g, square) for every cospan with a pullback, each square computed
    on its own by ``limits._pullback_square``, not read from a shared table."""
    squares = []
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.cod[f] == cat.cod[g]:
                square = limits._pullback_square(cat, f, g)
                if square is not None:
                    squares.append((f, g, square))
    return squares


def slow_is_lex(cat: FinCategory, fn: SetValuedFunctor) -> bool:
    """Definition-based lex check: terminal to a point, each canonical
    pullback square to a square with the set-level universal property."""
    terminal = limits.terminal_object(cat)
    if terminal is None or fn.sizes[terminal] != 1:
        return False
    for f, g, square in slow_pullback_squares(cat):
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


def slow_validate_category(cat: FinCategory) -> list[str]:
    """Every law instance, the associativity triples among all n³ triples of
    morphisms: ``fincat.validate_category`` as it was before it listed the
    composable triples only."""
    report = []
    n_obj, n_mor = cat.n_objects, cat.n_morphisms
    for f in cat.morphisms:
        if not (0 <= cat.dom[f] < n_obj and 0 <= cat.cod[f] < n_obj):
            report.append(f"dom/cod out of range for morphism {f}")
    for x in cat.objects:
        i = cat.identity[x]
        if not (0 <= i < n_mor):
            report.append(f"identity of object {x} is not a morphism")
        elif cat.dom[i] != x or cat.cod[i] != x:
            report.append(f"identity of object {x} is not an endomorphism of it")
    if report:
        return report  # comp scans below assume well-formed indices
    for g in cat.morphisms:
        for f in cat.morphisms:
            h = cat.comp[g][f]
            composable = cat.cod[f] == cat.dom[g]
            if not composable:
                if h != UNDEFINED:
                    report.append(f"comp defined on non-composable pair ({g},{f})")
                continue
            if h == UNDEFINED:
                report.append(f"comp missing on composable pair ({g},{f})")
            elif not (0 <= h < n_mor):
                report.append(f"comp not closed at ({g},{f})")
            elif cat.dom[h] != cat.dom[f] or cat.cod[h] != cat.cod[g]:
                report.append(f"comp has wrong dom/cod at ({g},{f})")
    if report:
        return report
    for f in cat.morphisms:
        if cat.comp[cat.identity[cat.cod[f]]][f] != f:
            report.append(f"left identity law fails at {f}")
        if cat.comp[f][cat.identity[cat.dom[f]]] != f:
            report.append(f"right identity law fails at {f}")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if cat.cod[g] != cat.dom[h]:
                continue
            hg = cat.comp[h][g]
            for f in cat.morphisms:
                if cat.cod[f] != cat.dom[g]:
                    continue
                if cat.comp[h][cat.comp[g][f]] != cat.comp[hg][f]:
                    report.append(f"associativity fails at ({h},{g},{f})")
    return report


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


def complements(lat: FinLattice):
    """Complement table, or None where no (unique) complement exists."""
    out = []
    for a in lat.elements:
        cands = [b for b in lat.elements
                 if lat.meet[a][b] == lat.bottom and lat.join[a][b] == lat.top]
        out.append(cands[0] if len(cands) == 1 else None)
    return tuple(out)


def is_2_distributive_identity(lat: FinLattice, pairs) -> bool:
    """The Boolean identity  ⋂_i (b_i0 ∨ b_i1) = ⋃_{h: I -> 2} ⋂_i b_ih(i),
    checked by computing both sides outright."""
    comp = complements(lat)
    if any(c is None for c in comp):
        raise ValueError("the identity needs a Boolean lattice with complements")
    pairs = list(pairs)
    lhs = lat.meet_of(lat.join[b0][b1] for b0, b1 in pairs)
    rhs = lat.join_of(
        lat.meet_of(pair[h] for pair, h in zip(pairs, choice))
        for choice in itertools.product((0, 1), repeat=len(pairs)))
    return lhs == rhs


def natural_posets(n_points: int):
    """Every transitive relation within the order 0 < 1 < ... as (relation,
    predecessor masks), in ``itertools.product`` order over the pairs
    (i, j), i < j, with the first pair most significant.

    A pair (i, j) is decided after every pair into i and every (h, j) with
    h < i, so adding it keeps the relation transitive exactly when the
    predecessors of i already precede j; other prefixes are never extended.
    """
    pairs = [(i, j) for i in range(n_points) for j in range(i + 1, n_points)]
    below = [0] * n_points
    relation = []

    def extend(t):
        if t == len(pairs):
            yield list(relation), list(below)
            return
        yield from extend(t + 1)
        i, j = pairs[t]
        if below[i] & ~below[j] == 0:
            below[j] |= 1 << i
            relation.append((i, j))
            yield from extend(t + 1)
            relation.pop()
            below[j] &= ~(1 << i)

    return extend(0)


def downset_count(below, limit: int) -> int:
    """Downsets of a naturally labelled poset given as predecessor masks
    (bit j of below[i] when j < i), counted up to limit + 1: point i joins
    every downset of points < i that holds its predecessors."""
    downsets = [0]
    for i, mask in enumerate(below):
        downsets += [d | 1 << i for d in downsets if mask & ~d == 0]
        if len(downsets) > limit:
            return limit + 1
    return len(downsets)


def leafwise_distributive_catalogue(max_size: int = 6) -> list[FinLattice]:
    """Every distributive lattice with at most max_size elements, one per
    isomorphism class, via Birkhoff duality: downset lattices of all posets
    on at most max_size - 1 points (relations within a linear extension).

    Downsets are counted on bitmasks first, so only posets with at most
    max_size downsets reach ``downset_lattice`` and the canonical form, in
    enumeration order, and the first of each class is kept."""
    seen = {}
    for n_points in range(max_size):
        for relation, below in natural_posets(n_points):
            if downset_count(below, max_size) > max_size:
                continue
            lat = downset_lattice(n_points, relation)
            key = (lat.n, _canonical_form(lat))
            if key not in seen:
                seen[key] = lat
    return [seen[key] for key in sorted(seen)]


def slow_explore_cotree(site: SiteSpec, root: int, budget: int = 64,
                        width: int | None = None) -> Cotree:
    """Expand the leg options of every scheduled task, depth-limited by the
    budget and breadth-limited by the width (all legs when width is None).

    A node is a branch prefix; it becomes a leaf once the branch run under
    that prefix terminates without consuming more choices.  Every node
    replays its branch from the root, and nothing is memoised.
    """
    leaves = []
    pruned = [False]

    def expand(prefix):
        branch = run_branch(site, root, strategy=tuple(prefix), budget=budget)
        depth = len(prefix)
        if len(branch.choices) <= depth:
            leaves.append(branch)
            return
        alpha, beta = unpairing(depth)
        column = _task_list(site, branch.chain[beta][0])
        n_legs = len(column[alpha % len(column)].family.legs)
        take = n_legs if width is None else min(width, n_legs)
        if take < n_legs:
            pruned[0] = True
        for leg in range(take):
            expand(prefix + [leg])

    expand([])
    terminated = all(leaf.status != BUDGET_EXCEEDED for leaf in leaves)
    return Cotree(tuple(leaves), terminated, pruned[0])


def slow_separate_subobjects(site: SiteSpec, x: int, u: int, v: int,
                             budget: int = 64,
                             width: int | None = None) -> SeparationResult:
    """``chase.separate_subobjects`` on the replaying ``slow_explore_cotree``."""
    cat = site.cat
    if cat.cod[u] != x or cat.cod[v] != x:
        raise ValueError("u and v must be subobjects of x")
    if cat.factors_through(u, v) is not None:
        return SeparationResult(CONTAINED)
    tree = slow_explore_cotree(site, root=cat.dom[u], budget=budget, width=width)
    explored = len(tree.leaves)
    for branch in tree.leaves:
        if branch.status != STABILIZED:
            continue
        model = branch_colimit(branch)
        w = branch.current
        connect = branch.composite_to(0)   # w -> dom(u)
        point = cat.comp[u][connect]       # [1_u] pushed into M(x)
        if not any(cat.comp[v][d] == point for d in cat.hom(w, cat.dom[v])):
            assert model.is_lex and model.preserves_covers
            return SeparationResult(WITNESS, model, branch, explored)
    return SeparationResult(INCONCLUSIVE, leaves=explored)


# The exhaustive terminal-cone search: the limit oracle.

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


def preserves_limit_cone(fun: FunctorData, diagram, cone) -> bool:
    """The image of the given limit cone is again terminal among cones."""
    cat = fun.target
    image_diagram = Diagram(diagram.shape, FunctorData(
        diagram.shape, cat,
        tuple(fun.obj_map[x] for x in diagram.labeling.obj_map),
        tuple(fun.mor_map[f] for f in diagram.labeling.mor_map)))
    image_cone = Cone(fun.obj_map[cone.apex],
                      tuple(fun.mor_map[leg] for leg in cone.legs))
    for other in cones(cat, image_diagram):
        if len(factorizations(cat, other, image_cone)) != 1:
            return False
    return True


@functools.cache
def generating_diagrams(cat: FinCategory):
    """Terminal, binary products, equalizers and pullbacks with their limits."""
    out = []
    diagram = empty_diagram(cat)
    cone = limit(cat, diagram)
    if cone is not None:
        out.append((diagram, cone))
    for x, y in itertools.combinations_with_replacement(cat.objects, 2):
        diagram = discrete_diagram(cat, (x, y))
        cone = limit(cat, diagram)
        if cone is not None:
            out.append((diagram, cone))
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.dom[f] == cat.dom[g] and cat.cod[f] == cat.cod[g] and f <= g:
                diagram = parallel_pair_diagram(cat, f, g)
                cone = limit(cat, diagram)
                if cone is not None:
                    out.append((diagram, cone))
            if cat.cod[f] == cat.cod[g]:
                diagram = cospan_diagram(cat, f, g)
                cone = limit(cat, diagram)
                if cone is not None:
                    out.append((diagram, cone))
    return out


@functools.cache
def slow_preserves_finite_limits(fun: FunctorData) -> bool:
    """fun sends every terminal object, binary product, equalizer and
    pullback that its source has, each found by the exhaustive ``limit``
    search, to a terminal cone."""
    return all(preserves_limit_cone(fun, diagram, cone)
               for diagram, cone in generating_diagrams(fun.source))


def slow_is_site_morphism(fun: FunctorData, source: SiteSpec, target: SiteSpec) -> bool:
    """fun preserves finite limits and sends E-families to covering
    families: ``site.is_site_morphism`` as it was before it read the lex
    probes."""
    if fun.source != source.cat or fun.target != target.cat:
        raise ValueError("functor does not match the given sites")
    if validate_functor(fun) or not slow_preserves_finite_limits(fun):
        return False
    topology = site_topology(target)
    for fam in source.covers:
        image = Family.make(fun.obj_map[fam.codomain],
                            [fun.mor_map[f] for f in fam.legs])
        if not family_covers(target, topology, image):
            return False
    return True


def slow_coequalizer(cat: FinCategory, p1: int, p2: int):
    """Initial coequalizing morphism of the parallel pair, or None:
    ``limits.coequalizer`` as it was before ``is_coequalizer``."""
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


def slow_is_effective_epi(cat: FinCategory, f: int) -> bool:
    """f is a coequalizer of its kernel pair (False when the pair is
    absent): ``limits.is_effective_epi`` as it was before ``is_coequalizer``."""
    square = limits.pullback(cat, f, f)
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


# The reader of site and lattice files as fileformat wrote it with regular
# expressions, kept verbatim as the oracle of its str-method line parsers.
# Both share the logical-line split and the site assembly.

_NAME = r"[A-Za-z0-9_★∅]+"
_RELATION = re.compile(rf"({_NAME})\s*<\s*({_NAME})")


def _regex_relations(lines):
    """The ``A < B`` relations in ``lines``, (physical line, text) pairs read
    as one space-joined chunk, as [(A, B, line)]; and the line where other
    content starts with the text of all of it, or None."""
    block = "\n".join(text for _, text in lines)
    chunk = block.replace("\n", " ")

    def line_at(pos):
        return lines[block.count("\n", 0, pos)][0]
    relations = [(rel.group(1), rel.group(2), line_at(rel.start()))
                 for rel in _RELATION.finditer(chunk)]
    stray = re.search(r"\S", _RELATION.sub(lambda rel: " " * len(rel.group(0)), chunk))
    if stray is None:
        return relations, None
    return relations, (line_at(stray.start()), _RELATION.sub("", chunk).strip())


def regex_parse_document(text: str):
    """``fileformat.parse_document`` with the regular-expression line parsers."""
    lines = _logical_lines(text)
    for lineno, body in lines:
        if body.startswith("lattice"):
            return _regex_parse_lattice_block(lineno, body)
    return _regex_parse_site_lines(lines)


def _regex_parse_site_lines(lines) -> SiteSpec:
    builder = _SiteBuilder([], [], [], [], [])
    for lineno, body in lines:
        if body.startswith("object "):
            name = body[len("object "):].strip()
            if not re.fullmatch(_NAME, name):
                raise ParseError(lineno, len("object ") + 1, f"bad object name {name!r}")
            if name in builder.objects:
                raise ParseError(lineno, 1, f"duplicate object {name!r}")
            builder.objects.append(name)
        elif body.startswith("arrow "):
            m = re.fullmatch(
                rf"arrow\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})", body)
            if not m:
                raise ParseError(lineno, 1, "expected: arrow NAME : A -> B")
            builder.arrows.append((m.group(1), m.group(2), m.group(3), lineno))
        elif body.startswith("compose "):
            m = re.fullmatch(
                rf"compose\s+({_NAME})\s*\.\s*({_NAME})\s*=\s*({_NAME})", body)
            if not m:
                raise ParseError(lineno, 1, "expected: compose G . F = H")
            builder.composites.append((m.group(1), m.group(2), m.group(3), lineno))
        elif body.startswith("poset"):
            m = re.fullmatch(r"poset\s*\{(.*)\}", body, re.DOTALL)
            if not m:
                raise ParseError(lineno, 1, "expected: poset { A < B ... }")
            relations, leftover = _regex_relations(  # the block's k-th line is lineno + k
                [(lineno + k, text.replace(";", " "))
                 for k, text in enumerate(m.group(1).split("\n"))])
            builder.poset_relations.extend(relations)
            if leftover:
                raise ParseError(leftover[0], 1,
                                 f"unrecognized poset content {leftover[1]!r}")
        elif body.startswith("cover "):
            m = re.fullmatch(
                rf"cover\s+({_NAME})\s*<-\s*\[([^\]]*)\]", body)
            if not m:
                raise ParseError(lineno, 1, "expected: cover B <- [F1, F2, ...]")
            legs = [s.strip() for s in m.group(2).split(",") if s.strip()]
            builder.covers.append((m.group(1), legs, lineno))
        else:
            raise ParseError(lineno, 1, f"unrecognized directive {body.split()[0]!r}")
    return _assemble_site(builder)


def _regex_parse_lattice_block(lineno: int, body: str):
    m = re.fullmatch(r"lattice\s*\{(.*)\}", body, re.DOTALL)
    if not m:
        raise ParseError(lineno, 1, "expected: lattice { ... }")
    element_lines = []  # each (physical line, text); the block's k-th line is lineno + k
    relation_lines = []
    join_lines = []
    for k, line in enumerate(m.group(1).splitlines()):
        line = line.strip()
        if not line:
            continue
        if line.startswith("elements"):
            element_lines.append((lineno + k, line))
        elif line.startswith("join"):
            join_lines.append((lineno + k, line))
        else:
            relation_lines.append((lineno + k, line))
    if len(element_lines) != 1:
        at = element_lines[1][0] if element_lines else lineno
        raise ParseError(at, 1, "lattice block needs one elements: list")
    at, line = element_lines[0]
    em = re.fullmatch(rf"elements\s*:\s*((?:{_NAME}\s*)+)", line)
    if not em:
        raise ParseError(at, 1, "bad elements: list")
    names = em.group(1).split()
    index = {name: i for i, name in enumerate(names)}
    prescribed = []
    for at, line in join_lines:
        jm = re.fullmatch(rf"join\s+({_NAME})\s*<-\s*\[([^\]]*)\]", line)
        if not jm:
            raise ParseError(at, 1, "expected: join J <- [A, B, ...]")
        target = jm.group(1)
        members = [s.strip() for s in jm.group(2).split(",") if s.strip()]
        for name in [target] + members:
            if name not in index:
                raise ParseError(at, 1, f"unknown lattice element {name!r}")
        prescribed.append((index[target], tuple(index[name] for name in members)))
    relation = []
    relations, leftover = _regex_relations(relation_lines)
    for a, b, at in relations:
        if a not in index or b not in index:
            raise ParseError(at, 1, f"unknown lattice element in {a!r} < {b!r}")
        relation.append((index[a], index[b]))
    if leftover:
        raise ParseError(leftover[0], 1, f"unrecognized lattice content {leftover[1]!r}")
    leq = order_closure(len(names), relation)
    lat = FinLattice(tuple(tuple(row) for row in leq), tuple(names))
    violations = validate_lattice(lat)
    if violations:
        raise ValidationError(violations)
    for target, members in prescribed:
        if lat.join_of(members) != target:
            raise ValidationError(
                [f"declared join of {members} is not {lat.name(target)}"])
    return lat, tuple(members for _, members in prescribed)
