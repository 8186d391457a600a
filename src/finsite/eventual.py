"""Desk-scale probes of the enlarged site over one table of natural
transformations: the category of bounded lex functors, limit-of-representables
certificates, and evaluation functors as colimits of corepresentables, certified
by co-Yoneda once every identity and every composite is listed in the table."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import (NatTransData, SetValuedFunctor, compose_nat, covariant_representable,
                     identity_nat, kept, nat_from_families, nat_via_limit)
from .models import ModelBound, elements_category, enumerate_lex_functors
from .site import SiteSpec


class NatTable:
    """Natural transformations between the functors of a list, per ordered
    pair (i, j) of positions, each query answered once, on first use.
    ``limit(i, j)`` is the one solve of the pair and ``hom(i, j)`` its cut
    into Nat(F_i, F_j); the rest is read off them, so ``pairing`` checks the
    bookkeeping, not the search."""

    def __init__(self, functors):
        self.functors = tuple(functors)

    @kept
    def limit(self, i: int, j: int) -> list[tuple[int, ...]]:
        """lim over ∫F_i of F_j, as ``nat_via_limit`` lists it."""
        return nat_via_limit(self.functors[i], self.functors[j])

    @kept
    def hom(self, i: int, j: int):
        """Nat(F_i, F_j) as a tuple of ``NatTransData``, in ``limit`` order."""
        return tuple(nat_from_families(self.functors[i], self.functors[j], self.limit(i, j)))

    @kept
    def index(self, i: int, j: int) -> dict:
        """``family`` -> position in ``hom(i, j)``."""
        return {alpha.family: a for a, alpha in enumerate(self.hom(i, j))}

    def composites(self, i: int, j: int, k: int):
        """Row a, column b: the position in ``hom(i, k)`` of hom(j, k)[b] after
        hom(i, j)[a], or None when it is not listed; yielded row by row, never kept."""
        index = self.index(i, k)
        start = list(itertools.accumulate(self.functors[j].sizes, initial=0))
        families = [beta.family for beta in self.hom(j, k)]
        for alpha in self.hom(i, j):
            image = [start[x] + q for x, column in enumerate(alpha.components) for q in column]
            yield tuple(index.get(tuple(map(family.__getitem__, image))) for family in families)

    @kept
    def closed(self, i: int, j: int, k: int) -> bool:
        """Every composite of hom(i, j) with hom(j, k) is listed in hom(i, k)."""
        return all(None not in row for row in self.composites(i, j, k))

    @kept
    def pairing(self, i: int, j: int):
        """The canonical map Nat(F_i, F_j) -> lim over ∫F_i of F_j,
        alpha |-> (alpha_x(p)), as positions in ``limit(i, j)``; None unless
        it is a bijection."""
        position = {fam: k for k, fam in enumerate(self.limit(i, j))}
        images = tuple(position.get(alpha.family) for alpha in self.hom(i, j))
        bijective = None not in images and len(set(images)) == len(images) == len(position)
        return images if bijective else None


@dataclass(frozen=True)
class CTilde:
    """Bounded lex functors as a finite category, arrows opposite to Nat:
    the hom set from object i to object j is ``table.hom(j, i)``, and
    ``phi_arrows[f]`` is the image of the base morphism f as (i, j, position
    in ``table.hom(j, i)``)."""

    table: NatTable
    phi_obj: tuple[int, ...]
    phi_arrows: tuple[tuple[int, int, int], ...]

    @property
    def functors(self) -> tuple[SetValuedFunctor, ...]:
        return self.table.functors


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
            raise BoundTooSmallError(f"representable at {cat.obj_name(x)} escapes the bound")
        phi_obj.append(table.functors.index(rep))
    phi_arrows = []
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        # phi(f): phi(x) -> phi(y) is precomposition C(y,-) => C(x,-)
        family = tuple(cat.hom(x, z).index(cat.comp[g][f])
                       for z in cat.objects for g in cat.hom(y, z))
        i, j = phi_obj[x], phi_obj[y]
        phi_arrows.append((i, j, table.index(j, i)[family]))
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
    # postcompose with F_j => F_k, precompose with F_k => F_i
    return all(not (table.hom(a, b) and table.hom(b, c))
               or table.pairing(a, c) is not None and table.closed(a, b, c)
               for k in range(len(table.functors)) for a, b, c in ((i, j, k), (k, i, j)))


def eta_component_check(site: SiteSpec,
                        functors: list[SetValuedFunctor]) -> dict[int, bool]:
    """Per base object v: the evaluation functor on the given models (all
    models at some bound) is the canonical colimit of corepresentables over
    its category of elements.  By co-Yoneda that colimit glues each point
    (i, p, alpha: F_i => F_t) to (t, alpha_v(p), id), so it is F_t(v) at every
    v when hom(t, t) lists the identity and ``closed(i, j, t)`` holds for all i, j."""
    table = NatTable(functors)
    positions = range(len(table.functors))
    ok = all(identity_nat(fn).family in table.index(t, t)
             and all(table.closed(i, j, t) for i in positions for j in positions)
             for t, fn in enumerate(table.functors))
    return {v: ok for v in site.cat.objects}
