"""Closures E^pb and the pasting saturation, sieve topologies, agreement."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fixtures
from finsite.fincat import (FinCategory, FunctorData, identity_functor, poset_category,
                            validate_functor)
from finsite.site import (MAX_ARROWS_FOR_SIEVES, Family, MissingPullbackError,
                          Sieve, SiteSpec, TooManySievesError, all_sieves,
                          count_sieves_containing, family_covers,
                          generate_sieve_topology, generated_sieve, is_sieve,
                          is_site_morphism, maximal_sieve, pull_sieve,
                          pullback_closure, sieves_containing, site_topology,
                          tree_saturation, validate_site)

from helpers import (boolean_leq, cospan_only_category, discrete2_category,
                     equalized_fork_category, fork_category, grid_leq,
                     involution_category, iso_pair_category, kept_entries,
                     left_zero_monoid, oracle_sites, poset_site, posets,
                     random_covers_site, slow_is_site_morphism, slow_sieve_topology,
                     slow_sieves, slow_tree_saturation)

ALL_SITES = fixtures.all_sites()
DIAMOND_SITE = ALL_SITES["diamond"]
POINT_SITE = ALL_SITES["point"]


def test_validate_site_demands_identity_family_on_terminal():
    cat = DIAMOND_SITE.cat
    no_id = SiteSpec.make(cat, [Family.make(3, [7, 8])])
    assert any("identity family" in v for v in validate_site(no_id))
    assert validate_site(DIAMOND_SITE) == []


def test_pullback_closure_point_and_identity():
    assert pullback_closure(POINT_SITE) == [Family.make(0, [0])]
    closure = pullback_closure(DIAMOND_SITE)
    for fam in DIAMOND_SITE.covers:  # pulling along the identity keeps E
        assert fam in closure
    # the cover pulled back along a_to_1 is {id_a, 0_to_a}
    assert Family.make(1, [1, 4]) in closure


def test_pullback_closure_missing_pullback():
    vee = cospan_only_category()
    site = SiteSpec.make(vee, [Family.make(2, [3, 4])])
    with pytest.raises(MissingPullbackError):
        pullback_closure(site)


def _slow_saturation(site):
    """Independent route to <E>: close E^pb + iso singletons under full
    multi-leg pasting (every leg replaced simultaneously by any choice of
    already-known family on its domain, or kept)."""
    cat = site.cat
    fams = set(pullback_closure(site))
    fams |= {Family.make(cat.cod[f], [f]) for f in cat.morphisms if cat.is_iso(f)}
    changed = True
    while changed:
        changed = False
        for fam in list(fams):
            per_leg = []
            for leg in fam.legs:
                options = [(leg,)]
                for inner in fams:
                    if inner.codomain == cat.dom[leg]:
                        options.append(tuple(cat.comp[leg][g] for g in inner.legs))
                per_leg.append(options)
            for choice in itertools.product(*per_leg):
                new = Family.make(fam.codomain,
                                  [m for legs in choice for m in legs])
                if new not in fams:
                    fams.add(new)
                    changed = True
    return fams


def test_tree_saturation_against_full_pasting_oracle():
    for name, site in ALL_SITES.items():
        got = set(tree_saturation(site).families)
        assert got == _slow_saturation(site), name


def _iso_pair_site():
    cat = iso_pair_category()
    return SiteSpec.make(cat, [Family.make(2, [cat.identity[2]]),
                               Family.make(2, [5, 6])])


def test_tree_saturation_matches_naive_rounds():
    sites = dict(ALL_SITES, grid_3x4=poset_site(grid_leq(3, 4)),
                 bool_3=poset_site(boolean_leq(3)), iso_pair=_iso_pair_site())
    for name, site in sites.items():
        # equal families in the same order, and the same number of rounds
        assert tree_saturation(site) == slow_tree_saturation(site), name


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=6))
def test_tree_saturation_matches_naive_rounds_on_random_posets(leq):
    site = poset_site(leq)
    try:
        expected = slow_tree_saturation(site)
    except MissingPullbackError:
        with pytest.raises(MissingPullbackError):
            tree_saturation(site)
        return
    assert tree_saturation(site) == expected


def test_tree_saturation_examples():
    assert [f.legs for f in tree_saturation(POINT_SITE).families] == [(0,)]
    diamond = set(tree_saturation(DIAMOND_SITE).families)
    assert Family.make(3, [7, 8]) in diamond
    assert Family.make(1, [1, 4]) in diamond        # pulled-back family
    assert Family.make(3, [6, 7, 8]) in diamond     # pasted variant


def test_saturation_on_iso_only_site():
    cat = POINT_SITE.cat
    sat = tree_saturation(SiteSpec.make(cat, [Family.make(0, [0])]))
    assert all(all(cat.is_iso(f) for f in fam.legs) for fam in sat.families)


def test_tree_saturation_is_a_closure_operator():
    for name, site in ALL_SITES.items():
        sat = tree_saturation(site)
        fams = set(sat.families)
        for fam in site.covers:  # extensive
            assert fam in fams, name
        resaturated = tree_saturation(SiteSpec.make(site.cat, sat.families))
        assert set(resaturated.families) == fams, name  # idempotent
        enlarged = SiteSpec.make(
            site.cat, site.covers + (Family.make(
                site.cat.n_objects - 1, [site.cat.identity[site.cat.n_objects - 1]]),))
        assert fams <= set(tree_saturation(enlarged).families), name  # monotone


def test_saturation_rounds_bounded_by_morphism_count():
    for name, site in ALL_SITES.items():
        assert tree_saturation(site).rounds <= site.cat.n_morphisms, name


def test_all_sieves_matches_subset_oracle():
    cats = {name: site.cat for name, site in ALL_SITES.items()}
    cats.update(fork=fork_category(), left_zero_monoid=left_zero_monoid(),
                iso_pair=iso_pair_category(), cospan_only=cospan_only_category(),
                discrete=discrete2_category(), bool_3=poset_category(boolean_leq(3)))
    for name, cat in cats.items():
        for y in cat.objects:
            assert all_sieves(cat, y) == slow_sieves(cat, y), (name, y)


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=6))
def test_all_sieves_matches_subset_oracle_on_random_posets(leq):
    cat = poset_category(leq)
    for y in cat.objects:
        assert all_sieves(cat, y) == slow_sieves(cat, y)


def test_all_sieves_guard_on_a_long_chain():
    n = MAX_ARROWS_FOR_SIEVES + 1
    cat = poset_category([[i <= j for j in range(n)] for i in range(n)])
    assert len(all_sieves(cat, n - 2)) == n  # the n - 1 arrows form a chain
    with pytest.raises(ValueError):
        all_sieves(cat, n - 1)
    assert count_sieves_containing(cat, Sieve(n - 2, frozenset())) == n
    with pytest.raises(TooManySievesError):
        count_sieves_containing(cat, Sieve(n - 1, frozenset()))
    with pytest.raises(TooManySievesError):
        sieves_containing(cat, Sieve(n - 1, frozenset()))


def test_covering_sieves_are_searched_from_the_least_covering_sieve():
    """The arrows of J₀(y) are kept from the start: the guard counts only
    the arrows outside it, and the table holds one list per (y, start)."""
    n = MAX_ARROWS_FOR_SIEVES + 2
    site = poset_site([[i <= j for j in range(n)] for i in range(n)])
    top = n - 1
    with pytest.raises(ValueError, match="too many arrows"):
        all_sieves(site.cat, top)
    assert site_topology(site).covering_sieves(top) == [maximal_sieve(site.cat, top)]
    assert set(kept_entries(site.cat, sieves_containing)) == {(maximal_sieve(site.cat, top),)}


def test_kept_values_belong_to_one_owner_and_failures_keep_nothing():
    """``fincat.kept`` keeps a value per owner object: an equal copy of a
    category starts with an empty table and computes its own value.  A
    call that raises keeps nothing, so the 22-chain guard raises again."""
    n = MAX_ARROWS_FOR_SIEVES + 2
    cat = poset_category([[i <= j for j in range(n)] for i in range(n)])
    assert all_sieves(cat, 0) is all_sieves(cat, 0)
    copy = dataclasses.replace(cat)
    assert copy == cat and kept_entries(copy, sieves_containing) == {}
    assert all_sieves(copy, 0) == all_sieves(cat, 0)
    assert all_sieves(copy, 0) is not all_sieves(cat, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="too many arrows"):
            all_sieves(cat, n - 1)
    assert set(kept_entries(cat, sieves_containing)) == {(Sieve(0, frozenset()),)}


def test_sieves_containing_a_sieve_are_the_filtered_sieves():
    """For every sieve S on every object, the sieves that contain S, in
    order, on the fixtures, bool_3 and the non-poset categories."""
    cats = [site.cat for site in ALL_SITES.values()]
    cats += [poset_category(boolean_leq(3)), fork_category(), left_zero_monoid(),
             iso_pair_category(), involution_category(), equalized_fork_category()]
    for cat in cats:
        for y in cat.objects:
            every = slow_sieves(cat, y)
            for start in every:
                assert sieves_containing(cat, start) == tuple(
                    sieve for sieve in every if start.arrows <= sieve.arrows), (cat, start)


def test_counted_sieves_are_the_listed_sieves():
    """For every sieve S on every object, ``count_sieves_containing`` is the
    length of ``sieves_containing``, on the fixtures, bool_3, bool_4 and
    the non-poset categories; a topology's count sums its covering sieves."""
    cats = [site.cat for site in ALL_SITES.values()]
    cats += [poset_category(boolean_leq(3)), poset_category(boolean_leq(4)),
             fork_category(), left_zero_monoid(), iso_pair_category(),
             involution_category(), equalized_fork_category(),
             cospan_only_category(), discrete2_category()]
    for cat in cats:
        for y in cat.objects:
            for start in all_sieves(cat, y):
                assert count_sieves_containing(cat, start) \
                    == len(sieves_containing(cat, start)), (cat, start)
    for name, site in oracle_sites(ALL_SITES).items():
        topology = site_topology(site)
        assert topology.covering_sieve_count() == sum(
            len(topology.covering_sieves(y)) for y in site.cat.objects), name


def test_bool_4_builds_only_the_covering_sieves():
    """Listing the covering sieves of every bool_4 object builds 167 sieves;
    filtering all of them built 298."""
    site = poset_site(boolean_leq(4))
    topology = site_topology(site)
    listed = [topology.covering_sieves(y) for y in site.cat.objects]
    assert sum(map(len, kept_entries(site.cat, sieves_containing).values())) \
        == sum(map(len, listed)) == 167
    assert sum(len(all_sieves(site.cat, y)) for y in site.cat.objects) == 298


def test_warm_covering_sieves_hash_no_category(monkeypatch):
    site = poset_site(boolean_leq(3))
    topology = site_topology(site)
    cold = {y: topology.covering_sieves(y) for y in site.cat.objects}
    calls = []
    original = FinCategory.__hash__
    monkeypatch.setattr(FinCategory, "__hash__",
                        lambda self: calls.append(1) or original(self))
    hash(site.cat)
    assert calls == [1]  # the wrapper is live
    calls.clear()
    for y in site.cat.objects:
        assert topology.covering_sieves(y) == cold[y]
        assert all_sieves(site.cat, y) is all_sieves(site.cat, y)
    assert calls == []


def test_sieve_topology_point():
    topology = generate_sieve_topology(POINT_SITE)
    assert topology.covering_sieves(0) == [maximal_sieve(POINT_SITE.cat, 0)]


def test_sieve_topology_diamond():
    topology = site_topology(DIAMOND_SITE)
    cat = DIAMOND_SITE.cat
    on_top = topology.covering_sieves(3)
    assert [sorted(s.arrows) for s in on_top] == [[6, 7, 8], [3, 6, 7, 8]]
    for x in (0, 1, 2):
        assert topology.covering_sieves(x) == [maximal_sieve(cat, x)]


def test_sieve_topology_empty_cover_makes_every_sieve_cover():
    site = ALL_SITES["diamond_empty"]
    topology = site_topology(site)
    assert len(topology.covering_sieves(0)) == len(all_sieves(site.cat, 0))


def _assert_topology_matches_oracle(site, label):
    fast, slow = site_topology(site), slow_sieve_topology(site)
    for y in site.cat.objects:
        listed = slow.covering_sieves(y)
        assert fast.covering_sieves(y) == listed, (label, y)
        assert fast.least[y] == listed[0], (label, y)
        for sieve in all_sieves(site.cat, y):
            assert fast.covers(sieve) == slow.covers(sieve), (label, y, sieve)


def test_sieve_topology_matches_the_sieve_lattice_fixpoint():
    for name, site in oracle_sites(ALL_SITES).items():
        _assert_topology_matches_oracle(site, name)


@settings(max_examples=60, deadline=None)
@given(posets(max_objects=6), st.integers(min_value=0, max_value=2 ** 32))
def test_sieve_topology_matches_the_sieve_lattice_fixpoint_on_random_posets(leq, seed):
    _assert_topology_matches_oracle(random_covers_site(poset_category(leq), seed), seed)


def test_bool_5_gets_a_topology():
    site = poset_site(boolean_leq(5))
    cat = site.cat
    top = cat.n_objects - 1
    assert len(cat.into(top)) > MAX_ARROWS_FOR_SIEVES
    topology = site_topology(site)
    cover = next(fam for fam in site.covers if fam.codomain == top and len(fam.legs) > 1)
    assert topology.covers(maximal_sieve(cat, top))
    assert topology.covers(generated_sieve(cat, cover))
    assert not topology.covers(generated_sieve(cat, Family.make(top, cover.legs[:1])))
    with pytest.raises(ValueError, match="too many arrows"):
        topology.covering_sieves(top)


def test_topology_belongs_to_the_site_not_the_category(monkeypatch):
    cat = DIAMOND_SITE.cat
    other = SiteSpec.make(cat, [Family.make(3, [cat.identity[3]])])
    assert other.cat is DIAMOND_SITE.cat
    assert site_topology(DIAMOND_SITE) != site_topology(other)
    for site in (DIAMOND_SITE, other, DIAMOND_SITE):
        fresh = SiteSpec(dataclasses.replace(site.cat), site.covers)
        assert site_topology(site) == generate_sieve_topology(fresh)
    calls = []
    original = SiteSpec.__hash__
    monkeypatch.setattr(SiteSpec, "__hash__",
                        lambda self: calls.append(1) or original(self))
    assert site_topology(other) is site_topology(other)
    assert calls == []  # a warm lookup hashes no site


def test_grothendieck_axioms_exhaustively():
    for name, site in ALL_SITES.items():
        cat = site.cat
        topology = site_topology(site)
        for y in cat.objects:
            assert topology.covers(maximal_sieve(cat, y)), name
            for sieve in topology.covering_sieves(y):
                assert is_sieve(cat, y, sieve.arrows), name
                for h in cat.into(y):  # pullback stability
                    assert topology.covers(pull_sieve(cat, sieve, h)), name
            for sieve in all_sieves(cat, y):  # local character
                for cover in topology.covering_sieves(y):
                    if all(topology.covers(pull_sieve(cat, sieve, h))
                           for h in cover.arrows):
                        assert topology.covers(sieve), (name, y, sieve)
                        break


def test_family_covers_examples():
    topology = site_topology(DIAMOND_SITE)
    assert family_covers(DIAMOND_SITE, topology, Family.make(3, [3, 7]))
    assert family_covers(DIAMOND_SITE, topology, Family.make(3, [7, 8]))
    assert not family_covers(DIAMOND_SITE, topology, Family.make(3, [7]))


def test_saturated_families_cover_in_the_sieve_topology():
    for name, site in ALL_SITES.items():
        topology = site_topology(site)
        for fam in tree_saturation(site).families:
            assert family_covers(site, topology, fam), (name, fam)


def test_identity_site_morphism():
    for name, site in ALL_SITES.items():
        assert is_site_morphism(identity_functor(site.cat), site, site), name


def test_collapse_to_point_is_site_morphism():
    cat = DIAMOND_SITE.cat
    collapse = FunctorData(cat, POINT_SITE.cat,
                           (0, 0, 0, 0), tuple(0 for _ in cat.morphisms))
    assert is_site_morphism(collapse, DIAMOND_SITE, POINT_SITE)


def test_cover_dropping_functor_is_not_site_morphism():
    cat = DIAMOND_SITE.cat
    trivial = SiteSpec.make(cat, [Family.make(3, [3])])
    assert not is_site_morphism(identity_functor(cat), DIAMOND_SITE, trivial)


def _functors(source: FinCategory, target: FinCategory):
    """Every functor, as object maps times hom choices filtered by
    ``validate_functor``."""
    for obj in itertools.product(target.objects, repeat=source.n_objects):
        choices = [target.hom(obj[source.dom[f]], obj[source.cod[f]])
                   for f in source.morphisms]
        for mor in itertools.product(*choices):
            fun = FunctorData(source, target, obj, mor)
            if not validate_functor(fun):
                yield fun


def test_site_morphisms_agree_with_the_limit_search_oracle():
    """On every functor between the fixtures, bool_2, the fork, the
    equalized fork, the iso pair and the involution, each with three
    random-cover sites, the lex probes give the verdict of the exhaustive
    limit search."""
    cats = {name: site.cat for name, site in ALL_SITES.items()}
    cats.update(bool_2=poset_category(boolean_leq(2)), fork=fork_category(),
                equalized_fork=equalized_fork_category(),
                iso_pair=iso_pair_category(), involution=involution_category())
    sites = {name: [random_covers_site(cat, seed) for seed in range(3)]
             for name, cat in cats.items()}
    verdicts = []
    for name, source in cats.items():
        for other, target in cats.items():
            for fun in _functors(source, target):
                for s in sites[name]:
                    for t in sites[other]:
                        verdict = slow_is_site_morphism(fun, s, t)
                        assert is_site_morphism(fun, s, t) == verdict, (name, other, fun)
                        verdicts.append(verdict)
    assert len(verdicts) > 25000 and verdicts.count(True) > 5000


def test_site_morphism_source_needs_a_terminal_object():
    discrete = SiteSpec.make(discrete2_category(), [])
    assert validate_site(discrete)
    with pytest.raises(ValueError, match="no terminal object"):
        is_site_morphism(identity_functor(discrete.cat), discrete, discrete)


def test_site_morphism_checks_the_image_of_the_terminal_object():
    """Sending the point to a non-terminal object of the diamond preserves
    every (trivial) pullback of the point but not its terminal object."""
    cat = DIAMOND_SITE.cat
    for x in cat.objects:
        fun = FunctorData(POINT_SITE.cat, cat, (x,), (cat.identity[x],))
        assert is_site_morphism(fun, POINT_SITE, DIAMOND_SITE) == (x == 3), x
