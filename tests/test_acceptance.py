"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances are exact (set/table equality) throughout; runtime
ceilings are asserted where the criterion states one.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import time

from finsite import fixtures
from finsite.chase import (BUDGET_EXCEEDED, CONTAINED, INCONCLUSIVE, STABILIZED,
                           branch_colimit, explore_cotree, family_jointly_covers,
                           pairing, separate_subobjects, unpairing)
from finsite.eventual import NatTable, delta_iso_check, eta_component_check
from finsite.fincat import (CONTRAVARIANT, NatTransData, SetValuedFunctor,
                            all_nat_transformations, check_nat, compose_nat,
                            validate_category)
from finsite.lattice import (NonDistributiveError, birkhoff_embed,
                             distributive_catalogue, m3, model_embed, n5)
from finsite.limits import subobject_lattice
from finsite.models import (ModelBound, enumerate_models, eta_check, lan_ay,
                            is_lex, preserves_covers)
from finsite.presheaf import (ay, enumerate_presheaves,
                              cover_mono_by_representables,
                              extremal_epi_family_in_sh, extremal_epi_in_sh,
                              factor_through_cover, is_sheaf, plus,
                              sheafified_postcompose, sheafify)
from finsite.site import Family, site_topology, tree_saturation

from helpers import (nat_is_pointwise_bijective, nat_is_pointwise_injective,
                     sheaf_for_family, slow_is_lex, slow_enumerate_functors,
                     slow_preserves_covers)
from test_fincat import _mutate, left_zero_monoid

ALL_SITES = fixtures.all_sites()
DIAMOND_SITE = ALL_SITES["diamond"]
DIAMOND = DIAMOND_SITE.cat


def _report(number, elapsed, detail):
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {detail}")


def test_acceptance_01_category_laws():
    start = time.time()
    for name, site in ALL_SITES.items():
        assert validate_category(site.cat) == [], name
    monoid = left_zero_monoid()
    mutations = []
    comp = [list(r) for r in monoid.comp]
    comp[1][1] = 9
    mutations.append((_mutate(monoid, comp=tuple(map(tuple, comp))), "comp not closed"))
    comp = [list(r) for r in monoid.comp]
    comp[0][1] = 2
    mutations.append((_mutate(monoid, comp=tuple(map(tuple, comp))), "identity law"))
    comp = [list(r) for r in monoid.comp]
    comp[1][1] = 2
    mutations.append((_mutate(monoid, comp=tuple(map(tuple, comp))), "associativity"))
    comp = [list(r) for r in DIAMOND.comp]
    comp[1][2] = 1
    mutations.append((_mutate(DIAMOND, comp=tuple(map(tuple, comp))), "non-composable"))
    comp = [list(r) for r in DIAMOND.comp]
    comp[7][1] = -1
    mutations.append((_mutate(DIAMOND, comp=tuple(map(tuple, comp))), "comp missing"))
    for mutated, law in mutations:
        assert any(law in violation for violation in validate_category(mutated)), law
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(1, elapsed, f"{len(ALL_SITES)} fixtures valid, 5 mutations each name a law")


def test_acceptance_02_topology_agreement():
    start = time.time()
    total = 0
    for name, site in ALL_SITES.items():
        topology = site_topology(site)
        families = tree_saturation(site).families
        for p in enumerate_presheaves(site.cat, 2):
            by_sieves = is_sheaf(p, topology)
            by_families = all(sheaf_for_family(p, site.cat, fam)
                              for fam in families)
            assert by_sieves == by_families, (name, p)
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, elapsed, f"{total} presheaves over {len(ALL_SITES)} sites classified identically")


def test_acceptance_03_sheafification_laws():
    start = time.time()
    topology = site_topology(DIAMOND_SITE)
    count = 0
    for p in enumerate_presheaves(DIAMOND, 2):
        result = sheafify(p, topology)
        again = sheafify(result.sheaf.presheaf, topology)
        assert nat_is_pointwise_bijective(again.unit), p  # idempotence
        unit_bijective = nat_is_pointwise_bijective(plus(p, topology).unit)
        assert is_sheaf(p, topology) == unit_bijective, p
        count += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(3, elapsed, f"idempotence and unit criterion on {count} presheaves")


def test_acceptance_04_ay_images_extremal_epi():
    start = time.time()
    checked = 0
    for name, site in ALL_SITES.items():
        topology = site_topology(site)
        for fam in site.covers:
            legs = [sheafified_postcompose(site, leg) for leg in fam.legs]
            target = ay(site, fam.codomain).sheaf.presheaf
            assert extremal_epi_family_in_sh(topology, legs, target), (name, fam)
            checked += 1
    elapsed = time.time() - start
    _report(4, elapsed, f"{checked} E-families map to extremal epis under ay")


def test_acceptance_05_model_count_oracle():
    start = time.time()
    fast = enumerate_models(DIAMOND_SITE, ModelBound(1))
    assert len(fast) == 3
    slow = []
    for candidate in slow_enumerate_functors(DIAMOND, 1):
        lex = slow_is_lex(DIAMOND, candidate)
        covers = slow_preserves_covers(candidate, DIAMOND_SITE)
        assert is_lex(DIAMOND, candidate) == lex
        assert preserves_covers(candidate, DIAMOND_SITE) == covers
        if lex and covers:
            slow.append(candidate)
    assert sorted(slow, key=lambda f: (f.sizes, f.action)) \
        == [m.functor for m in fast]
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(5, elapsed, "3 models at B=1, flags agree with the slow oracle on every candidate")


def test_acceptance_06_completeness_at_omega_scale():
    start = time.time()
    colimits = 0
    for name, site in ALL_SITES.items():
        for root in site.cat.objects:
            tree = explore_cotree(site, root, budget=64)
            assert tree.all_terminated, (name, root)
            for leaf in tree.leaves:
                if leaf.status == STABILIZED:
                    model = branch_colimit(leaf)
                    assert model.is_lex and model.preserves_covers, (name, root)
                    colimits += 1
    pairs = 0
    for name, site in ALL_SITES.items():
        cat = site.cat
        for x in cat.objects:
            lattice = subobject_lattice(cat, x)
            for i, u in enumerate(lattice.representatives):
                for j, v in enumerate(lattice.representatives):
                    outcome = separate_subobjects(site, x, u, v, budget=64)
                    assert outcome.verdict != INCONCLUSIVE, (name, x, u, v)
                    assert (outcome.verdict == CONTAINED) == lattice.order[i][j]
                    pairs += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(6, elapsed,
            f"{colimits} stabilized colimits pass; separation agrees on {pairs} pairs, 0 inconclusive")


def test_acceptance_07_chase_cover_detection():
    start = time.time()
    topology = site_topology(DIAMOND_SITE)
    both = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7, 8]))
    assert both.verdict is True
    assert extremal_epi_in_sh(topology, [sheafified_postcompose(DIAMOND_SITE, 7),
                                         sheafified_postcompose(DIAMOND_SITE, 8)])
    single = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7]))
    assert single.verdict is False
    counter = single.countermodel.functor
    assert counter.sizes == (0, 0, 1, 1)
    assert not set(counter.action[7]) >= set(counter.carrier(3))
    assert not extremal_epi_in_sh(topology, [sheafified_postcompose(DIAMOND_SITE, 7)])
    elapsed = time.time() - start
    _report(7, elapsed, "cover detection true/false both cross-validated")


def _diamond_subsheaf_monos():
    """Every subsheaf inclusion into a sheafified representable: sub-presheaves
    of y(x) correspond to sieves on x; keep the ones satisfying descent."""
    topology = site_topology(DIAMOND_SITE)
    from finsite.site import all_sieves
    out = []
    for x in DIAMOND.objects:
        sheaf = ay(DIAMOND_SITE, x).sheaf.presheaf
        for sieve in all_sieves(DIAMOND, x):
            sizes = tuple(
                sum(1 for f in sieve.arrows if DIAMOND.dom[f] == z)
                for z in DIAMOND.objects)
            assert all(s <= 1 for s in sizes)  # poset homs are subsingletons
            action = []
            for f in DIAMOND.morphisms:
                src, tgt = DIAMOND.cod[f], DIAMOND.dom[f]
                action.append(tuple(0 for _ in range(sizes[src]))
                              if sizes[tgt] else tuple())
            candidate = SetValuedFunctor(DIAMOND, CONTRAVARIANT, sizes,
                                         tuple(action))
            ok = all(len(a) == sizes[DIAMOND.cod[f]]
                     for f, a in zip(DIAMOND.morphisms, action))
            if not ok or not is_sheaf(candidate, topology):
                continue
            iota = NatTransData(candidate, sheaf, tuple(
                tuple(0 for _ in range(sizes[z])) for z in DIAMOND.objects))
            if check_nat(iota):
                out.append((iota, x))
    return out


def test_acceptance_08_factorization_lemmas_bit_exact():
    start = time.time()
    sample = 0
    for x in DIAMOND.objects:
        for xp in DIAMOND.objects:
            shx = ay(DIAMOND_SITE, x).sheaf.presheaf
            shxp = ay(DIAMOND_SITE, xp).sheaf.presheaf
            for alpha in all_nat_transformations(shx, shxp):
                result = factor_through_cover(DIAMOND_SITE, alpha, x, xp)
                assert family_covers_check(x, result.family)
                for f, g in zip(result.family, result.arrows):
                    lhs = compose_nat(alpha, sheafified_postcompose(DIAMOND_SITE, f))
                    rhs = sheafified_postcompose(DIAMOND_SITE, g)
                    assert lhs.components == rhs.components
                sample += 1
    topology = site_topology(DIAMOND_SITE)
    for iota, x in _diamond_subsheaf_monos():
        entries = cover_mono_by_representables(DIAMOND_SITE, iota, x)
        assert extremal_epi_family_in_sh(topology,
                                         [e.beta for e in entries], iota.source)
        for entry in entries:
            lhs = compose_nat(iota, entry.beta)
            rhs = sheafified_postcompose(DIAMOND_SITE, entry.arrow)
            assert lhs.components == rhs.components
        sample += 1
    assert sample >= 20
    elapsed = time.time() - start
    _report(8, elapsed, f"{sample} transformations/monos satisfy the equations bit-exactly")


def family_covers_check(x, legs):
    from finsite.site import family_covers
    return family_covers(DIAMOND_SITE, site_topology(DIAMOND_SITE),
                         Family.make(x, legs))


def test_acceptance_09_enough_points_at_desk_scale():
    start = time.time()
    topology = site_topology(DIAMOND_SITE)
    sheaves = sorted({sheafify(p, topology).sheaf.presheaf
                      for p in enumerate_presheaves(DIAMOND, 2)},
                     key=lambda f: (f.sizes, f.action))
    candidates = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(2))]
    for root in DIAMOND.objects:
        for leaf in explore_cotree(DIAMOND_SITE, root).leaves:
            if leaf.status != BUDGET_EXCEEDED:
                functor = branch_colimit(leaf).functor
                if functor not in candidates:
                    candidates.append(functor)
    proper = 0
    for source, target in itertools.product(sheaves, repeat=2):
        if any(source.sizes[x] > target.sizes[x] for x in DIAMOND.objects):
            continue
        for iota in all_nat_transformations(source, target):
            if not nat_is_pointwise_injective(iota):
                continue
            if source.sizes == target.sizes:
                continue  # pointwise injective with equal sizes is an iso
            proper += 1
            assert _some_model_keeps_proper(candidates, iota), \
                (source.sizes, target.sizes)
    elapsed = time.time() - start
    _report(9, elapsed, f"{proper} proper monos all kept proper by some model")


def _some_model_keeps_proper(candidates, iota):
    for m in candidates:
        lan_source = lan_ay(m, iota.source)
        lan_target = lan_ay(m, iota.target)
        image = set()
        injective = True
        for cls in lan_source.classes:
            x, section, point = cls[0]
            mapped = lan_target.class_of(x, iota.components[x][section], point)
            if mapped in image:
                injective = False
                break
            image.add(mapped)
        if injective and len(image) < lan_target.size:
            return True
    return False


def test_acceptance_10_delta_and_eta():
    start = time.time()
    pairs = 0
    for name, site in ALL_SITES.items():
        models = [m.functor for m in enumerate_models(site, ModelBound(2))]
        table = NatTable(models)
        for i, m in enumerate(models):
            for j, n in enumerate(models):
                assert delta_iso_check(table, i, j), (name, m.sizes, n.sizes)
                pairs += 1
        for m in models:
            assert eta_check(site, m), (name, m.sizes)
        report = eta_component_check(site, models)
        assert all(report.values()), (name, report)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(10, elapsed, f"delta iso on {pairs} pairs; eta and ev-colimit on all objects")


def test_acceptance_11_pairing():
    start = time.time()
    seen = set()
    for alpha in range(100):
        for beta in range(100):
            n = pairing(alpha, beta)
            assert n >= beta and n not in seen
            seen.add(n)
            assert unpairing(n) == (alpha, beta)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(11, elapsed, "pairing bijective with f(a,b) >= b for a,b < 100")


def test_acceptance_12_lattice_corollary():
    start = time.time()
    catalogue = distributive_catalogue(6)
    assert len(catalogue) == 13
    for lat in catalogue:
        prescribed = [(a, b) for a in lat.elements for b in lat.elements
                      if a < b and not lat.leq[a][b] and not lat.leq[b][a]]
        for embedding in (birkhoff_embed(lat, prescribed),
                          model_embed(lat, prescribed, budget=64)):
            assert embedding.verify(lat, prescribed) == [], lat.leq
    for bad in (m3(), n5()):
        for route in (birkhoff_embed, model_embed):
            try:
                route(bad)
            except NonDistributiveError:
                continue
            raise AssertionError("non-distributive lattice accepted")
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(12, elapsed,
            f"both embeddings verified on {len(catalogue)} lattices; M3/N5 rejected")
