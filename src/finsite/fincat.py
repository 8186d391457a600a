"""Finite categories as composition tables, plus functors and set-valued functors.

Objects and morphisms are dense non-negative integer ids.  Every operation
iterates in ascending id order, so results are reproducible across runs.
Fields never change after construction; ``kept`` memoises derived tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, wraps

UNDEFINED = -1

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"


def kept(fn):
    """Memoise ``fn(owner, *args)`` on the owner, in a dict keyed by ``args``
    that ``owner.__dict__`` holds under fn's module and qualified name.  A
    lookup never hashes the owner, and a value lives as long as its owner, so
    equal but distinct owners keep separate tables.  A call that raises keeps
    nothing; racing threads may compute an entry twice, with equal values."""
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def lookup(owner, *args):
        try:
            return owner.__dict__[name][args]
        except KeyError:
            pass
        value = owner.__dict__.setdefault(name, {})[args] = fn(owner, *args)
        return value
    return lookup


@dataclass(frozen=True)
class FinCategory:
    """A finite category: dom/cod tables, identity picks, dense comp table.

    ``comp[g][f]`` is the composite g∘f when cod(f) = dom(g) and the
    UNDEFINED sentinel everywhere else.
    """

    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]          # object id -> mor id
    comp: tuple[tuple[int, ...], ...]  # comp[g][f]
    obj_names: tuple[str, ...] = field(default=(), compare=True)
    mor_names: tuple[str, ...] = field(default=(), compare=True)

    @property
    def n_objects(self) -> int:
        return len(self.identity)

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def morphisms(self) -> range:
        return range(self.n_morphisms)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The field hash, taken once: it walks the whole comp table, and
        every lookup keyed by a category or a functor on it asks for it.
        Equality stays structural."""
        return hash((self.dom, self.cod, self.identity, self.comp,
                     self.obj_names, self.mor_names))

    def obj_name(self, x: int) -> str:
        return self.obj_names[x] if self.obj_names else str(x)

    def mor_name(self, f: int) -> str:
        return self.mor_names[f] if self.mor_names else str(f)

    def hom(self, x: int, y: int) -> tuple[int, ...]:
        return self._hom_table[x][y]

    def into(self, y: int) -> tuple[int, ...]:
        """All morphisms with codomain y, ascending."""
        return self._into_table[y]

    def out_of(self, x: int) -> tuple[int, ...]:
        return self._out_table[x]

    @cached_property
    def _hom_table(self):
        table = [[[] for _ in self.objects] for _ in self.objects]
        for f in self.morphisms:
            table[self.dom[f]][self.cod[f]].append(f)
        return tuple(tuple(tuple(cell) for cell in row) for row in table)

    @cached_property
    def _hom_counts(self) -> tuple[list[int], ...]:
        """x -> the column [|hom(w, x)| for every object w].  Lists, as are
        the vectors limits compares them with: CPython keeps up to 2,000
        freed tuples of each small length for reuse, so a tuple per call
        would hold memory after the calls end."""
        return tuple([len(row[x]) for row in self._hom_table] for x in self.objects)

    @cached_property
    def _thin(self) -> bool:
        """Every hom set has at most one arrow: the category is a preorder."""
        return all(count <= 1 for column in self._hom_counts for count in column)

    @cached_property
    def _into_table(self):
        table = [[] for _ in self.objects]
        for f in self.morphisms:
            table[self.cod[f]].append(f)
        return tuple(tuple(cell) for cell in table)

    @cached_property
    def _out_table(self):
        table = [[] for _ in self.objects]
        for f in self.morphisms:
            table[self.dom[f]].append(f)
        return tuple(tuple(cell) for cell in table)

    def is_identity(self, f: int) -> bool:
        return self.identity[self.dom[f]] == f

    def is_iso(self, f: int) -> bool:
        return f in self._iso_set

    @cached_property
    def _iso_set(self) -> frozenset[int]:
        isos = set()
        for f in self.morphisms:
            x, y = self.dom[f], self.cod[f]
            for g in self.hom(y, x):
                if (self.comp[f][g] == self.identity[y]
                        and self.comp[g][f] == self.identity[x]):
                    isos.add(f)
                    break
        return frozenset(isos)

    def factors_through(self, h: int, f: int) -> int | None:
        """Least d with f∘d = h, or None.  h and f must share a codomain."""
        if self.cod[h] != self.cod[f]:
            return None
        for d in self.hom(self.dom[h], self.dom[f]):
            if self.comp[f][d] == h:
                return d
        return None


def make_category(n_objects, arrows, composites, obj_names=(), arrow_names=()):
    """Assemble a FinCategory from non-identity arrow data.

    ``arrows`` lists (dom, cod) pairs; identities get ids 0..n_objects-1 and
    the arrows follow in the given order.  ``composites`` maps non-identity
    composable pairs (g, f) to their composite; identity composites are
    filled in automatically.
    """
    dom = list(range(n_objects))
    cod = list(range(n_objects))
    for d, c in arrows:
        dom.append(d)
        cod.append(c)
    n = len(dom)
    identity = tuple(range(n_objects))
    table = [[UNDEFINED] * n for _ in range(n)]
    for g in range(n):
        for f in range(n):
            if dom[g] != cod[f]:
                continue
            if g < n_objects:
                table[g][f] = f
            elif f < n_objects:
                table[g][f] = g
    for (g, f), h in composites.items():
        table[g][f] = h
    names = ()
    if obj_names:
        base = tuple(f"id_{name}" for name in obj_names)
        names = base + tuple(arrow_names) if arrow_names else base + tuple(
            f"m{k}" for k in range(n_objects, n))
    return FinCategory(
        dom=tuple(dom), cod=tuple(cod), identity=identity,
        comp=tuple(tuple(row) for row in table),
        obj_names=tuple(obj_names), mor_names=names)


def op_category(cat: FinCategory) -> FinCategory:
    """The opposite category: same ids, dom/cod swapped, comp transposed.

    Presheaves on C are exactly covariant functors on op(C) with identical
    action tables, which lets one enumerator serve both variances.
    """
    n = cat.n_morphisms
    comp = tuple(tuple(cat.comp[f][g] for f in range(n)) for g in range(n))
    return FinCategory(dom=cat.cod, cod=cat.dom, identity=cat.identity,
                       comp=comp, obj_names=cat.obj_names, mor_names=cat.mor_names)


def order_closure(n: int, pairs) -> list[list[bool]]:
    """The reflexive-transitive closure of a relation on range(n), as a
    boolean leq matrix: leq[i][j] iff j is reachable from i along pairs."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        leq[i][j] = True
    for k in range(n):  # Warshall: paths through 0..k
        for row in leq:
            if row[k]:
                row[:] = [a or b for a, b in zip(row, leq[k])]
    return leq


def poset_category(leq, obj_names=()):
    """Category of a finite poset given as a boolean leq matrix.

    One arrow per comparable pair; all composites are forced.
    """
    n = len(leq)
    arrows = [(x, y) for x in range(n) for y in range(n) if x != y and leq[x][y]]
    arrow_ids = {pair: n + k for k, pair in enumerate(arrows)}

    def mor(x, y):
        return x if x == y else arrow_ids[(x, y)]

    composites = {}
    for (y, z), g in arrow_ids.items():
        for (x, y2), f in arrow_ids.items():
            if y2 == y:
                composites[(g, f)] = mor(x, z)
    names = ()
    if obj_names:
        names = tuple(
            obj_names[x] + "_to_" + obj_names[y] for (x, y) in arrows)
    return make_category(n, arrows, composites, obj_names, names)


def validate_category(cat: FinCategory) -> list[str]:
    """Scan every law instance; the report is empty iff the tables form a category."""
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
    for h in cat.morphisms:  # composable triples only, ascending in (h, g, f)
        for g in cat.into(cat.dom[h]):
            hg = cat.comp[h][g]
            for f in cat.into(cat.dom[g]):
                if cat.comp[h][cat.comp[g][f]] != cat.comp[hg][f]:
                    report.append(f"associativity fails at ({h},{g},{f})")
    return report


def hom_set(cat: FinCategory, x: int, y: int) -> list[int]:
    if not (0 <= x < cat.n_objects and 0 <= y < cat.n_objects):
        raise ValueError(f"unknown object id in ({x},{y})")
    return list(cat.hom(x, y))


def is_mono(cat: FinCategory, f: int) -> bool:
    """f is mono iff f∘g = f∘h implies g = h, scanned over all parallel pairs."""
    if not 0 <= f < cat.n_morphisms:
        raise ValueError(f"unknown morphism id {f}")
    x = cat.dom[f]
    for w in cat.objects:
        pairs = cat.hom(w, x)
        for g, h in itertools.combinations(pairs, 2):
            if cat.comp[f][g] == cat.comp[f][h]:
                return False
    return True


def is_epi(cat: FinCategory, f: int) -> bool:
    if not 0 <= f < cat.n_morphisms:
        raise ValueError(f"unknown morphism id {f}")
    y = cat.cod[f]
    for w in cat.objects:
        pairs = cat.hom(y, w)
        for g, h in itertools.combinations(pairs, 2):
            if cat.comp[g][f] == cat.comp[h][f]:
                return False
    return True


@dataclass(frozen=True)
class FunctorData:
    """A functor between finite categories, as object and morphism tables."""

    source: FinCategory
    target: FinCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]


def validate_functor(fun: FunctorData) -> list[str]:
    report = []
    src, tgt = fun.source, fun.target
    if len(fun.obj_map) != src.n_objects or len(fun.mor_map) != src.n_morphisms:
        return ["object or morphism table has wrong length"]
    for f in src.morphisms:
        ff = fun.mor_map[f]
        if tgt.dom[ff] != fun.obj_map[src.dom[f]] or tgt.cod[ff] != fun.obj_map[src.cod[f]]:
            report.append(f"dom/cod not preserved at {f}")
    for x in src.objects:
        if fun.mor_map[src.identity[x]] != tgt.identity[fun.obj_map[x]]:
            report.append(f"identity not preserved at {x}")
    for g in src.morphisms:
        for f in src.morphisms:
            if src.cod[f] != src.dom[g]:
                continue
            if fun.mor_map[src.comp[g][f]] != tgt.comp[fun.mor_map[g]][fun.mor_map[f]]:
                report.append(f"composition not preserved at ({g},{f})")
    return report


def identity_functor(cat: FinCategory) -> FunctorData:
    return FunctorData(cat, cat,
                       tuple(cat.objects), tuple(cat.morphisms))


@dataclass(frozen=True)
class SetValuedFunctor:
    """A finite-set-valued functor with explicit action tables.

    Carriers are ranges: object x carries {0, ..., sizes[x]-1}.  For a
    covariant F and f: x -> y, ``action[f]`` maps carrier(x) into carrier(y);
    contravariance swaps the two.  Tables, not closures, because every
    downstream fixpoint scans them exhaustively anyway.
    """

    cat: FinCategory
    variance: str
    sizes: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]

    def carrier(self, x: int) -> range:
        return range(self.sizes[x])

    def source_obj(self, f: int) -> int:
        return self.cat.dom[f] if self.variance == COVARIANT else self.cat.cod[f]

    def target_obj(self, f: int) -> int:
        return self.cat.cod[f] if self.variance == COVARIANT else self.cat.dom[f]


def validate_set_functor(fn: SetValuedFunctor) -> list[str]:
    report = []
    cat = fn.cat
    if fn.variance not in (COVARIANT, CONTRAVARIANT):
        return [f"unknown variance {fn.variance!r}"]
    if len(fn.sizes) != cat.n_objects or len(fn.action) != cat.n_morphisms:
        return ["carrier or action table has wrong length"]
    for f in cat.morphisms:
        src, tgt = fn.source_obj(f), fn.target_obj(f)
        if len(fn.action[f]) != fn.sizes[src]:
            report.append(f"action table of {f} has wrong length")
            continue
        if any(not 0 <= v < fn.sizes[tgt] for v in fn.action[f]):
            report.append(f"action of {f} escapes the target carrier")
    if report:
        return report
    for x in cat.objects:
        i = cat.identity[x]
        if fn.action[i] != tuple(range(fn.sizes[x])):
            report.append(f"action of id_{x} is not the identity")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if cat.cod[f] != cat.dom[g]:
                continue
            h = cat.comp[g][f]
            if fn.variance == COVARIANT:
                expected = tuple(fn.action[g][v] for v in fn.action[f])
            else:
                expected = tuple(fn.action[f][v] for v in fn.action[g])
            if fn.action[h] != expected:
                report.append(f"action not functorial at ({g},{f})")
    return report


def constant_singleton(cat: FinCategory, variance=COVARIANT) -> SetValuedFunctor:
    """The terminal copresheaf (or presheaf): one point everywhere."""
    sizes = tuple(1 for _ in cat.objects)
    action = tuple((0,) for _ in cat.morphisms)
    return SetValuedFunctor(cat, variance, sizes, action)


def covariant_representable(cat: FinCategory, u: int) -> SetValuedFunctor:
    """C(u,-) with carrier(x) indexing hom(u,x) in ascending id order."""
    homs = [cat.hom(u, x) for x in cat.objects]
    index = [{m: k for k, m in enumerate(h)} for h in homs]
    sizes = tuple(len(h) for h in homs)
    action = tuple(
        tuple(index[cat.cod[f]][cat.comp[f][m]] for m in homs[cat.dom[f]])
        for f in cat.morphisms)
    return SetValuedFunctor(cat, COVARIANT, sizes, action)


def representable_presheaf(cat: FinCategory, x: int) -> SetValuedFunctor:
    """y(x) = C(-,x) with carrier(z) indexing hom(z,x) in ascending id order."""
    homs = [cat.hom(z, x) for z in cat.objects]
    index = [{m: k for k, m in enumerate(h)} for h in homs]
    sizes = tuple(len(h) for h in homs)
    action = tuple(
        tuple(index[cat.dom[f]][cat.comp[m][f]] for m in homs[cat.cod[f]])
        for f in cat.morphisms)
    return SetValuedFunctor(cat, CONTRAVARIANT, sizes, action)


@dataclass(frozen=True)
class NatTransData:
    """Components of a natural transformation between same-variance functors."""

    source: SetValuedFunctor
    target: SetValuedFunctor
    components: tuple[tuple[int, ...], ...]  # per object, element -> element

    @property
    def family(self) -> tuple[int, ...]:
        """The components as one ``nat_via_limit`` family over ∫source."""
        return tuple(itertools.chain.from_iterable(self.components))


def check_nat(alpha: NatTransData) -> bool:
    """True iff every naturality square commutes (full scan)."""
    src, tgt = alpha.source, alpha.target
    if src.cat != tgt.cat or src.variance != tgt.variance:
        raise ValueError("source and target must share base and variance")
    if len(alpha.components) != src.cat.n_objects:
        raise ValueError("component missing for some object")
    for x in src.cat.objects:
        if len(alpha.components[x]) != src.sizes[x]:
            raise ValueError(f"component at {x} has wrong length")
        if any(not 0 <= v < tgt.sizes[x] for v in alpha.components[x]):
            return False
    for f in src.cat.morphisms:
        a, b = src.source_obj(f), src.target_obj(f)
        for e in src.carrier(a):
            if tgt.action[f][alpha.components[a][e]] != alpha.components[b][src.action[f][e]]:
                return False
    return True


def compatible_families(domains, equations) -> list[tuple[int, ...]]:
    """Every v with v[k] in range(domains[k]) and v[j] == row[v[i]] for each
    equation (i, row, j), in lexicographic (``itertools.product``) order:
    backtracking over the variables in order, values ascending, with each
    equation tested once its later end is set.  The search keeps its own
    stack, so no recursion limit bounds the number of variables."""
    if not domains:
        return [()]
    checks = [[] for _ in domains]
    for eq in equations:
        checks[max(eq[0], eq[2])].append(eq)
    last, out, v = len(domains) - 1, [], [0] * len(domains)
    stack = [iter(range(domains[0]))]   # stack[k]: the values left for v[k]
    while stack:
        k = len(stack) - 1
        for v[k] in stack[k]:
            for i, row, j in checks[k]:
                if v[j] != row[v[i]]:
                    break
            else:
                if k == last:
                    out.append(tuple(v))
                    continue
                stack.append(iter(range(domains[k + 1])))
                break
        else:
            stack.pop()
    return out


def nat_via_limit(src: SetValuedFunctor, tgt: SetValuedFunctor) -> list[tuple[int, ...]]:
    """lim over ∫src of tgt: the families (a_(x,e)) over the points of ∫src,
    ascending, with tgt(f)(a_(a,e)) = a_(b,src(f)e) for each f from a to b in
    the variance, lexicographic.  Each is one transformation src => tgt."""
    if src.cat != tgt.cat or src.variance != tgt.variance:
        raise ValueError("source and target must share base and variance")
    start = list(itertools.accumulate(src.sizes, initial=0))
    equations = [(start[src.source_obj(f)] + e, tgt.action[f], start[src.target_obj(f)] + t)
                 for f, moved in enumerate(src.action) for e, t in enumerate(moved)]
    return compatible_families(
        [tgt.sizes[x] for x in src.cat.objects for _ in src.carrier(x)], equations)


def nat_from_families(src: SetValuedFunctor, tgt: SetValuedFunctor, families):
    """The transformations src => tgt of ``nat_via_limit`` families, in order."""
    start = list(itertools.accumulate(src.sizes, initial=0))
    for values in families:
        yield NatTransData(src, tgt, tuple(values[start[x]:start[x + 1]]
                                           for x in src.cat.objects))


def all_nat_transformations(src: SetValuedFunctor, tgt: SetValuedFunctor):
    """Every natural transformation src => tgt, lexicographic in its components."""
    yield from nat_from_families(src, tgt, nat_via_limit(src, tgt))


def identity_nat(fn: SetValuedFunctor) -> NatTransData:
    return NatTransData(fn, fn, tuple(tuple(range(s)) for s in fn.sizes))


def compose_nat(beta: NatTransData, alpha: NatTransData) -> NatTransData:
    """beta∘alpha (apply alpha first)."""
    if alpha.target != beta.source:
        raise ValueError("natural transformations not composable")
    comps = tuple(
        tuple(beta.components[x][v] for v in alpha.components[x])
        for x in alpha.source.cat.objects)
    return NatTransData(alpha.source, beta.target, comps)
