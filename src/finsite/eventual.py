"""Desk-scale probes of the enlarged site: the category of bounded lex
functors over one table of natural transformations, the limit-of-representables
object of a model with its universal-property certificate, and the canonical
colimit presentation of the evaluation functors."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .fincat import (FinCategory, NatTransData, SetValuedFunctor, UNDEFINED,
                     all_nat_transformations, compose_nat, covariant_representable,
                     identity_nat, kept, nat_via_limit)
from .models import (ModelBound, UnionFind, elements_category,
                     enumerate_lex_functors)
from .site import SiteSpec


class NatTable:
    """Natural transformations between the functors of a list, per ordered
    pair (i, j) of positions, each query answered once, on first use.
    ``hom(i, j)`` is Nat(F_i, F_j) in ``all_nat_transformations`` order and
    the only enumeration of it; ``index``, ``composites`` and ``pairing``
    are read off it and off ``limit``.  ``hom`` and ``limit`` solve the same
    equations, so ``pairing`` checks the bookkeeping, not the search."""

    def __init__(self, functors):
        self.functors = tuple(functors)

    @kept
    def hom(self, i: int, j: int):
        """Nat(F_i, F_j) as a tuple of ``NatTransData``."""
        return tuple(all_nat_transformations(self.functors[i], self.functors[j]))

    @kept
    def index(self, i: int, j: int) -> dict:
        """Components -> position in ``hom(i, j)``."""
        return {alpha.components: a for a, alpha in enumerate(self.hom(i, j))}

    @kept
    def composites(self, i: int, j: int, k: int):
        """Row a, column b: the position in ``hom(i, k)`` of hom(j, k)[b]
        after hom(i, j)[a], or None when the composite is not listed."""
        index = self.index(i, k)
        objects = range(len(self.functors[i].sizes))
        return tuple(
            tuple(index.get(tuple(tuple(beta.components[x][v] for v in alpha.components[x])
                                  for x in objects))
                  for beta in self.hom(j, k))
            for alpha in self.hom(i, j))

    @kept
    def limit(self, i: int, j: int) -> list[tuple[int, ...]]:
        """lim over ∫F_i of F_j, as ``nat_via_limit`` lists it."""
        return nat_via_limit(self.functors[i], self.functors[j])

    @kept
    def pairing(self, i: int, j: int):
        """The canonical map Nat(F_i, F_j) -> lim over ∫F_i of F_j,
        alpha |-> (alpha_x(p)), as positions in ``limit(i, j)``; None unless
        it is a bijection."""
        position = {fam: k for k, fam in enumerate(self.limit(i, j))}
        elems = elements_category(self.functors[i])
        images = [position.get(tuple(alpha.components[x][p] for x, p in elems))
                  for alpha in self.hom(i, j)]
        if None in images or not len(set(images)) == len(images) == len(position):
            return None
        return tuple(images)


@dataclass(frozen=True)
class CTilde:
    """Bounded lex functors as a finite category, arrows opposite to Nat.

    The hom set from object i to object j is ``table.hom(j, i)``, composed
    on demand by ``table.composites``.  ``phi_arrows[f]`` is the image of
    the base morphism f as (i, j, position in ``table.hom(j, i)``).
    """

    table: NatTable
    phi_obj: tuple[int, ...]
    phi_arrows: tuple[tuple[int, int, int], ...]

    @property
    def functors(self) -> tuple[SetValuedFunctor, ...]:
        return self.table.functors

    @cached_property
    def category(self) -> FinCategory:
        """Every arrow numbered, hom set after hom set in (i, j) order, with
        the whole composition table; for checking the category laws only."""
        n, table = len(self.functors), self.table
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
        identity = tuple(first[i, i] + table.index(i, i)[identity_nat(fn).components]
                         for i, fn in enumerate(self.functors))
        return FinCategory(dom=tuple(i for i, _ in arrows), cod=tuple(j for _, j in arrows),
                           identity=identity, comp=tuple(tuple(row) for row in comp))

    @property
    def phi_mor(self) -> tuple[int, ...]:
        """``phi_arrows`` as arrow numbers of ``category``."""
        arrows = list(zip(self.category.dom, self.category.cod))
        return tuple(arrows.index((i, j)) + a for i, j, a in self.phi_arrows)


class BoundTooSmallError(Exception):
    """A representable escaped the bound, so phi cannot land in C-tilde."""


def build_ctilde(site: SiteSpec, bound: ModelBound) -> CTilde:
    """The lex-functor category at the bound with the base embedded into it
    by representables; fullness and faithfulness are by Yoneda and re-checked
    by the callers' tests."""
    cat = site.cat
    table = NatTable(enumerate_lex_functors(cat, bound.max_carrier))
    phi_obj = []
    for x in cat.objects:
        rep = covariant_representable(cat, x)
        if rep not in table.functors:
            raise BoundTooSmallError(
                f"representable at {cat.obj_name(x)} escapes the bound")
        phi_obj.append(table.functors.index(rep))
    phi_arrows = []
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        # phi(f): phi(x) -> phi(y) is precomposition C(y,-) => C(x,-)
        components = tuple(tuple(cat.hom(x, z).index(cat.comp[g][f]) for g in cat.hom(y, z))
                           for z in cat.objects)
        i, j = phi_obj[x], phi_obj[y]
        phi_arrows.append((i, j, table.index(j, i)[components]))
    return CTilde(table, tuple(phi_obj), tuple(phi_arrows))


@dataclass(frozen=True)
class DeltaResult:
    object_index: int
    certified: bool
    failures: tuple[str, ...]


def delta(ct: CTilde, m: SetValuedFunctor) -> DeltaResult:
    """The limit of representables over ∫M, located inside C-tilde.

    Its underlying functor is M itself; the certificate checks the cone of
    point-picking transformations and the universal property against every
    object of C-tilde.  Failures are reported, never patched.
    """
    cat = m.cat
    if m not in ct.functors:
        raise BoundTooSmallError("the functor is not an object of C-tilde")
    index = ct.functors.index(m)
    failures = []
    # Yoneda: the transformation C(x,-) => M picking p
    legs = {(x, p): NatTransData(ct.functors[ct.phi_obj[x]], m, tuple(
                tuple(m.action[g][p] for g in cat.hom(x, z)) for z in cat.objects))
            for x, p in elements_category(m)}
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        i, j, a = ct.phi_arrows[f]
        phi_f = ct.table.hom(j, i)[a]  # C(y,-) => C(x,-)
        for p in m.carrier(x):
            q = m.action[f][p]
            if compose_nat(legs[(x, p)], phi_f).components != legs[(y, q)].components:
                failures.append(f"cone condition fails along morphism {f} at point {p}")
    failures += [f"universal property fails against object {k}"
                 for k in range(len(ct.functors)) if ct.table.pairing(index, k) is None]
    return DeltaResult(index, not failures, tuple(failures))


def delta_iso_check(table: NatTable, i: int, j: int) -> bool:
    """The bijection Nat(F_i, F_j) = lim over ∫F_i of F_j, natural in both
    slots along every transformation between functors of the table.

    The bijection sends alpha to its family (alpha_x(p)), and a composite
    to the composite family, so naturality holds once every composite with
    a transformation out of F_j or into F_i is listed in its hom set and
    that hom set pairs with its limit."""
    if table.pairing(i, j) is None:
        return False
    for k in range(len(table.functors)):
        # postcompose with F_j => F_k, precompose with F_k => F_i
        for a, b, c in ((i, j, k), (k, i, j)):
            if table.hom(a, b) and table.hom(b, c) and (
                    table.pairing(a, c) is None
                    or any(None in row for row in table.composites(a, b, c))):
                return False
    return True


def eta_component_check(site: SiteSpec,
                        functors: list[SetValuedFunctor]) -> dict[int, bool]:
    """Per base object v: the evaluation functor on the given models (all
    models at some bound) is the canonical colimit of corepresentables over
    its category of elements, checked by a union-find colimit against every
    model."""
    table = NatTable(functors)
    return {v: all(_ev_colimit_holds(table, v, t) for t in range(len(functors)))
            for v in site.cat.objects}


def _ev_colimit_holds(table: NatTable, v: int, t: int) -> bool:
    """The triples (i, p, alpha) with p in F_i(v) and alpha: F_i => F_t,
    glued along every beta: F_i => F_j, map by alpha_v(p) well defined and
    bijectively onto F_t(v)."""
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
