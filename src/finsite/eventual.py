"""Desk-scale probes of the enlarged site: the category of bounded lex
functors materialized as a composition table, the limit-of-representables
object of a model with its universal-property certificate, and the canonical
colimit presentation of the evaluation functors."""

from __future__ import annotations

from dataclasses import dataclass

from .fincat import (FinCategory, NatTransData, SetValuedFunctor, UNDEFINED,
                     all_nat_transformations, compose_nat, covariant_representable)
from .models import (ModelBound, UnionFind, delta_pairing, elements_category,
                     enumerate_lex_functors, nat_via_limit)
from .site import SiteSpec


@dataclass(frozen=True)
class CTilde:
    """Bounded lex functors as a finite category, arrows opposite to Nat.

    Morphism k is (dom_obj, cod_obj, alpha) where alpha is a transformation
    from the cod functor to the dom functor.
    """

    category: FinCategory
    functors: tuple[SetValuedFunctor, ...]
    arrows: tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]
    phi_obj: tuple[int, ...]
    phi_mor: tuple[int, ...]

    def functor_index(self, fn: SetValuedFunctor):
        try:
            return self.functors.index(fn)
        except ValueError:
            return None

    def hom_nat(self, mor: int) -> NatTransData:
        i, j, components = self.arrows[mor]
        return NatTransData(self.functors[j], self.functors[i], components)


class BoundTooSmallError(Exception):
    """A representable escaped the bound, so phi cannot land in C-tilde."""


def build_ctilde(site: SiteSpec, bound: ModelBound) -> CTilde:
    """Materialize the lex-functor category at the bound and embed the base
    into it by representables; fullness and faithfulness are by Yoneda and
    re-checked by the callers' tests."""
    cat = site.cat
    functors = tuple(enumerate_lex_functors(cat, bound.max_carrier))
    arrows = []
    arrow_index = {}
    for i, fi in enumerate(functors):
        for j, fj in enumerate(functors):
            for alpha in all_nat_transformations(fj, fi):
                arrow_index[(i, j, alpha.components)] = len(arrows)
                arrows.append((i, j, alpha.components))
    dom = tuple(a[0] for a in arrows)
    cod = tuple(a[1] for a in arrows)
    identity = []
    for i, fi in enumerate(functors):
        ident = tuple(tuple(range(s)) for s in fi.sizes)
        identity.append(arrow_index[(i, i, ident)])
    n = len(arrows)
    comp = [[UNDEFINED] * n for _ in range(n)]
    for b in range(n):  # b: j -> k composed after a: i -> j
        jb, kb, beta = arrows[b]
        for a in range(n):
            ia, ja, alpha = arrows[a]
            if ja != jb:
                continue
            # beta: F_k => F_j, alpha: F_j => F_i; composite arrow i -> k
            composite = tuple(
                tuple(alpha[x][v] for v in beta[x])
                for x in cat.objects)
            comp[b][a] = arrow_index[(ia, kb, composite)]
    ct_cat = FinCategory(dom=dom, cod=cod, identity=tuple(identity),
                         comp=tuple(tuple(row) for row in comp))
    phi_obj = []
    for x in cat.objects:
        rep = covariant_representable(cat, x)
        if rep not in functors:
            raise BoundTooSmallError(
                f"representable at {cat.obj_name(x)} escapes the bound")
        phi_obj.append(functors.index(rep))
    phi_mor = []
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        rep_x = functors[phi_obj[x]]
        rep_y = functors[phi_obj[y]]
        # phi(f): phi(x) -> phi(y) is precomposition C(y,-) => C(x,-)
        components = []
        for z in cat.objects:
            hom_y = cat.hom(y, z)
            index = {m: k for k, m in enumerate(cat.hom(x, z))}
            components.append(tuple(index[cat.comp[g][f]] for g in hom_y))
        phi_mor.append(arrow_index[(phi_obj[x], phi_obj[y], tuple(components))])
    return CTilde(ct_cat, functors, tuple(arrows),
                  tuple(phi_obj), tuple(phi_mor))


@dataclass(frozen=True)
class DeltaResult:
    object_index: int
    certified: bool
    failures: tuple[str, ...]


def delta(ct: CTilde, m: SetValuedFunctor) -> DeltaResult:
    """The limit of representables over ∫M, located inside C-tilde.

    Its underlying functor is M itself; the certificate checks the cone of
    point-picking transformations and the universal property against every
    materialized object.  Failures are reported, never patched.
    """
    cat = m.cat
    index = ct.functor_index(m)
    if index is None:
        raise BoundTooSmallError("the functor is not an object of C-tilde")
    failures = []
    elems = elements_category(m)
    legs = {}
    for x, p in elems:
        rep = ct.functors[ct.phi_obj[x]]
        # Yoneda: the transformation C(x,-) => M picking p
        components = tuple(
            tuple(m.action[g][p] for g in cat.hom(x, z)) for z in cat.objects)
        legs[(x, p)] = NatTransData(rep, m, components)
    for f in cat.morphisms:
        x, y = cat.dom[f], cat.cod[f]
        for p in m.carrier(x):
            q = m.action[f][p]
            phi_f = ct.hom_nat(ct.phi_mor[f])  # C(y,-) => C(x,-)
            if compose_nat(legs[(x, p)], phi_f).components != legs[(y, q)].components:
                failures.append(f"cone condition fails along morphism {f} at point {p}")
    for k, n_fun in enumerate(ct.functors):
        nats, families, pairing = delta_pairing(m, n_fun)
        if pairing is None or len(set(pairing)) != len(pairing) \
                or len(nats) != len(families):
            failures.append(f"universal property fails against object {k}")
    return DeltaResult(index, not failures, tuple(failures))


def delta_iso_check(m: SetValuedFunctor, n: SetValuedFunctor, others=()) -> bool:
    """The bijection Nat(M,N) = lim over ∫M of N, natural in both slots
    across all transformations reachable at this scale."""
    nats, families, pairing = delta_pairing(m, n)
    if pairing is None or len(nats) != len(families) \
            or len(set(pairing)) != len(nats):
        return False
    elems_m = elements_category(m)
    position_m = {e: k for k, e in enumerate(elems_m)}
    for other in others:
        # naturality in the target slot: postcompose with beta: N => N'
        limit2 = None  # lim over ∫M of N', taken once the first beta exists
        for beta in all_nat_transformations(n, other):
            if limit2 is None:
                limit2 = set(nat_via_limit(m, other))
            for alpha, fam_idx in zip(nats, pairing):
                post = compose_nat(beta, alpha)
                lhs = tuple(post.components[x][p] for x, p in elems_m)
                rhs = tuple(beta.components[x][families[fam_idx][k]]
                            for k, (x, p) in enumerate(elems_m))
                if lhs != rhs or lhs not in limit2:
                    return False
        # naturality in the source slot: precompose with gamma: M' => M
        elems_o = elements_category(other)
        limit3 = None  # lim over ∫M' of N, taken once the first gamma exists
        for gamma in all_nat_transformations(other, m):
            if limit3 is None:
                limit3 = set(nat_via_limit(other, n))
            moved = [position_m[x, gamma.components[x][p]] for x, p in elems_o]
            for alpha, fam_idx in zip(nats, pairing):
                pre = compose_nat(alpha, gamma)
                lhs = tuple(pre.components[x][p] for x, p in elems_o)
                rhs = tuple(families[fam_idx][k] for k in moved)
                if lhs != rhs or lhs not in limit3:
                    return False
    return True


def eta_component_check(site: SiteSpec,
                        functors: list[SetValuedFunctor]) -> dict[int, bool]:
    """Per base object v: the evaluation functor on the given models (all
    models at some bound) is the canonical colimit of corepresentables over
    its category of elements, checked by a union-find colimit against every
    model."""
    cat = site.cat
    homs = {(i, j): list(all_nat_transformations(fi, fj))
            for i, fi in enumerate(functors) for j, fj in enumerate(functors)}
    hom_index = {}  # (i, j) -> components -> first index in homs[(i, j)]
    for key, hom in homs.items():
        index = hom_index[key] = {}
        for k, alpha in enumerate(hom):
            index.setdefault(alpha.components, k)
    report = {}
    for v in cat.objects:
        elems = [(i, p) for i, fn in enumerate(functors) for p in fn.carrier(v)]
        ok = True
        for t, target in enumerate(functors):
            triples = [(i, p, a) for i, p in elems
                       for a, _ in enumerate(homs[(i, t)])]
            uf = UnionFind(triples)
            for i, p in elems:
                for j, fj in enumerate(functors):
                    for beta in homs[(i, j)]:
                        q = beta.components[v][p]
                        for a, alpha in enumerate(homs[(j, t)]):
                            composed = compose_nat(alpha, beta)
                            a_index = hom_index[(i, t)][composed.components]
                            uf.union((j, q, a), (i, p, a_index))
            classes = {}
            for tr in triples:
                classes.setdefault(uf.find(tr), []).append(tr)
            values = {}
            for root, members in classes.items():
                vals = {homs[(i, t)][a].components[v][p] for i, p, a in members}
                if len(vals) != 1:
                    ok = False  # comparison map not even well defined
                    break
                values[root] = vals.pop()
            if not ok:
                break
            image = sorted(values.values())
            if image != sorted(target.carrier(v)) or len(values) != target.sizes[v]:
                ok = False
                break
        report[v] = ok
    return report
