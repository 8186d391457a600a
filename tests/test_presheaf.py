"""The +-construction, sheafification, ay, and the cover-factorization lemmas."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fixtures
from finsite.fincat import (CONTRAVARIANT, FinCategory, NatTransData,
                            SetValuedFunctor, all_nat_transformations, check_nat,
                            compose_nat, identity_nat, poset_category,
                            representable_presheaf, validate_set_functor)
from finsite.presheaf import (FactorizationError, SheafObject, _maximal, _plan,
                              cover_mono_by_representables, enumerate_presheaves,
                              extremal_epi_family_in_sh, extremal_epi_in_sh,
                              factor_through_cover, is_sheaf, matching_families,
                              plus, plus_map, sheafified_postcompose, sheafify, ay)
from finsite.site import (Family, Sieve, SiteSpec, all_sieves, sieves_containing,
                          site_topology, tree_saturation)

from helpers import (boolean_leq, equalized_fork_category, fork_category, fresh_site,
                     glue_site, involution_category, iso_pair_category, kept_entries,
                     left_zero_monoid, nat_is_pointwise_bijective,
                     nat_is_pointwise_injective, oracle_sites, poset_site, posets,
                     random_covers_site, reversed_ids, sheaf_for_family,
                     slow_all_nat_transformations, slow_is_sheaf,
                     slow_matching_families, slow_plus, slow_sieve_topology)

DIAMOND_SITE = fixtures.load_site("diamond")
DIAMOND = DIAMOND_SITE.cat
TOPOLOGY = site_topology(DIAMOND_SITE)
EMPTY_SITE = fixtures.load_site("diamond_empty")


def empty_presheaf(cat):
    return SetValuedFunctor(cat, CONTRAVARIANT,
                            tuple(0 for _ in cat.objects),
                            tuple(() for _ in cat.morphisms))


def glued_presheaf():
    """P(1) empty, a point everywhere below: the classic glueable example."""
    return SetValuedFunctor(DIAMOND, CONTRAVARIANT, (1, 1, 1, 0),
                            ((0,), (0,), (0,), (), (0,), (0,), (), (), ()))


def test_plus_on_a_sheaf_is_a_pointwise_bijection():
    y1 = representable_presheaf(DIAMOND, 3)
    assert is_sheaf(y1, TOPOLOGY)
    data = plus(y1, TOPOLOGY)
    assert nat_is_pointwise_bijective(data.unit)


def test_plus_glues_the_missing_section():
    p = glued_presheaf()
    assert validate_set_functor(p) == []
    assert not is_sheaf(p, TOPOLOGY)
    data = plus(p, TOPOLOGY)
    assert data.presheaf.sizes[3] == 1  # one glued section over the cover
    assert is_sheaf(data.presheaf, TOPOLOGY)


def test_plus_on_constant_empty_presheaf():
    # sections appear exactly where the empty sieve covers
    for site in (DIAMOND_SITE, EMPTY_SITE):
        topology = site_topology(site)
        data = plus(empty_presheaf(site.cat), topology)
        for x in site.cat.objects:
            empty_covers = any(len(s.arrows) == 0
                               for s in topology.covering_sieves(x))
            assert (data.presheaf.sizes[x] > 0) == empty_covers


def test_sheafify_unit_bijective_iff_sheaf():
    for p in itertools.islice(enumerate_presheaves(DIAMOND, 2), 120):
        result = sheafify(p, TOPOLOGY)
        assert is_sheaf(result.sheaf.presheaf, TOPOLOGY)
        unit_bijective = nat_is_pointwise_bijective(result.unit)
        assert unit_bijective == is_sheaf(p, TOPOLOGY)


def test_sheafify_idempotent_over_every_fixture():
    from helpers import nat_is_pointwise_bijective as bijective
    for name, site in fixtures.all_sites().items():
        topology = site_topology(site)
        for p in enumerate_presheaves(site.cat, 2):
            once = sheafify(p, topology)
            twice = sheafify(once.sheaf.presheaf, topology)
            assert bijective(twice.unit), (name, p)


def test_sheaf_object_build_rejects_non_sheaves():
    with pytest.raises(ValueError, match="object 3"):
        SheafObject.build(glued_presheaf(), TOPOLOGY)


def _first_failure_on_least_sieves(p, topology):
    """The least object x at which the comparison map from P(x) to the
    matching families over J₀(x) is not a bijection, by a direct scan."""
    for x in p.cat.objects:
        arrows, fams = matching_families(p, topology.least[x])
        images = {tuple(p.action[f][s] for f in arrows) for s in p.carrier(x)}
        if len(images) != p.sizes[x] or len(fams) != p.sizes[x]:
            return x
    return None


def test_sheaf_object_build_matches_the_covering_sieve_oracle():
    """build accepts exactly the sheaves, names the least object whose J₀
    fails, and certifies every covering sieve."""
    for name, site in oracle_sites(fixtures.all_sites()).items():
        fast, slow = site_topology(site), slow_sieve_topology(site)
        cat = site.cat
        bound = 1 if cat.n_objects > 6 else 2  # glue_site, bool_3, grid_3x4
        for p in enumerate_presheaves(cat, bound):
            failing = _first_failure_on_least_sieves(p, fast)
            assert (failing is None) == slow_is_sheaf(p, slow), (name, p)
            if failing is not None:
                with pytest.raises(ValueError, match=f"object {failing}$"):
                    SheafObject.build(p, fast)
            else:
                sheaf = SheafObject.build(p, fast)
                assert sheaf.certified_sieves == sum(
                    len(slow.covering_sieves(x)) for x in cat.objects), (name, p)


def test_sheafify_counts_the_covering_sieves_without_listing_them():
    """bool_4 has 167 covering sieves; ``ay`` certifies them all and lists
    none."""
    site = poset_site(boolean_leq(4))
    assert ay(site, site.cat.n_objects - 1).sheaf.certified_sieves == 167
    assert kept_entries(site.cat, sieves_containing) == {}


def test_two_point_discrepancy_presheaf_is_not_a_sheaf():
    # two sections of P(1) with equal restrictions along the cover
    p = SetValuedFunctor(DIAMOND, CONTRAVARIANT, (1, 1, 1, 2),
                         ((0,), (0,), (0,), (0, 1),
                          (0,), (0,), (0, 0), (0, 0), (0, 0)))
    assert validate_set_functor(p) == []
    assert not is_sheaf(p, TOPOLOGY)


def test_everything_is_a_sheaf_for_the_trivial_topology():
    site = fixtures.load_site("chain3")
    topology = site_topology(site)
    assert all(is_sheaf(p, topology)
               for p in enumerate_presheaves(site.cat, 2))


def test_ay_point_is_terminal_sheaf():
    site = fixtures.load_site("point")
    sheaf = ay(site, 0).sheaf.presheaf
    assert sheaf.sizes == (1,)


def test_ay_diamond_top_is_the_representable_itself():
    assert ay(DIAMOND_SITE, 3).sheaf.presheaf == representable_presheaf(DIAMOND, 3)


def test_ay_on_empty_covered_object_is_initial():
    initial = sheafify(empty_presheaf(EMPTY_SITE.cat),
                       site_topology(EMPTY_SITE)).sheaf.presheaf
    assert ay(EMPTY_SITE, 0).sheaf.presheaf == initial


def test_sheafified_representables_belong_to_the_site_not_the_category():
    names = {DIAMOND.obj_name(x): x for x in DIAMOND.objects}
    top, a, b = names["1"], names["a"], names["b"]
    other = SiteSpec.make(DIAMOND, [Family.make(top, [DIAMOND.identity[top]]),
                                    Family.make(a, [])])
    assert other.cat is DIAMOND_SITE.cat
    b_to_top = DIAMOND.hom(b, top)[0]
    # the two sites differ here, so a table shared through the category would
    # be wrong for one of them
    assert ay(DIAMOND_SITE, b) != ay(other, b)
    assert sheafified_postcompose(DIAMOND_SITE, b_to_top) \
        != sheafified_postcompose(other, b_to_top)
    for site in (DIAMOND_SITE, other, DIAMOND_SITE):
        fresh = fresh_site(site)
        for x in DIAMOND.objects:
            assert ay(site, x) == ay(fresh, x)
        for g in DIAMOND.morphisms:
            assert sheafified_postcompose(site, g) == sheafified_postcompose(fresh, g)


def test_plus_is_kept_on_its_topology():
    p = glued_presheaf()
    topology = site_topology(fresh_site(DIAMOND_SITE))
    assert plus(p, topology) is plus(p, topology)
    assert plus(p, topology) == plus(p, TOPOLOGY)
    assert plus(p, topology) is not plus(p, TOPOLOGY)


def test_maximal_keeps_the_first_of_each_mutual_class():
    # preorder: 0 <= everything; 1 and 2 above each other; 3 apart; 4 <= 3
    above = {0: {0, 1, 2, 3, 4}, 1: {1, 2}, 2: {1, 2}, 3: {3}, 4: {3, 4}}
    assert _maximal([0, 1, 2, 3, 4], above) == [1, 3]
    assert _maximal([2, 1, 0, 4, 3], above) == [2, 3]


def test_warm_sheafified_representables_hash_no_site(monkeypatch):
    site = fresh_site(DIAMOND_SITE)

    def lookups():
        for x in site.cat.objects:
            ay(site, x)
        for g in site.cat.morphisms:
            sheafified_postcompose(site, g)

    lookups()
    calls = []

    def counting(cls):
        original = cls.__hash__

        def wrapper(self):
            calls.append(cls.__name__)
            return original(self)
        return wrapper

    for cls in (SiteSpec, FinCategory):
        monkeypatch.setattr(cls, "__hash__", counting(cls))
    hash(site)
    assert calls == ["SiteSpec", "FinCategory"]  # the wrappers are live
    calls.clear()
    lookups()
    assert calls == []


def test_matching_families_over_empty_sieve_is_a_point():
    arrows, fams = matching_families(empty_presheaf(DIAMOND),
                                     Sieve(0, frozenset()))
    assert arrows == () and fams == [()]


def test_extremal_epi_in_sh():
    sh1 = ay(DIAMOND_SITE, 3).sheaf.presheaf
    assert extremal_epi_in_sh(TOPOLOGY, [identity_nat(sh1)])
    image_a = sheafified_postcompose(DIAMOND_SITE, 7)   # ay(a) => ay(1)
    image_b = sheafified_postcompose(DIAMOND_SITE, 8)
    assert extremal_epi_in_sh(TOPOLOGY, [image_a, image_b])
    assert not extremal_epi_in_sh(TOPOLOGY, [image_a])
    assert extremal_epi_family_in_sh(
        site_topology(EMPTY_SITE), [], ay(EMPTY_SITE, 0).sheaf.presheaf)


def test_factor_identity_like_transformations():
    for x in DIAMOND.objects:
        for xp in DIAMOND.objects:
            shx = ay(DIAMOND_SITE, x).sheaf.presheaf
            shxp = ay(DIAMOND_SITE, xp).sheaf.presheaf
            for alpha in all_nat_transformations(shx, shxp):
                result = factor_through_cover(DIAMOND_SITE, alpha, x, xp)
                # on DIAMOND every map is a(h_*): identity family, g = h
                assert result.family == (DIAMOND.identity[x],)
                assert len(DIAMOND.hom(x, xp)) == 1
                assert result.arrows == (DIAMOND.hom(x, xp)[0],)


def _factor_equations_hold(site, alpha, x, xp):
    result = factor_through_cover(site, alpha, x, xp)
    topology = site_topology(site)
    from finsite.site import Family, family_covers
    assert family_covers(site, topology, Family.make(x, result.family))
    for f, g in zip(result.family, result.arrows):
        lhs = compose_nat(alpha, sheafified_postcompose(site, f))
        rhs = sheafified_postcompose(site, g)
        assert lhs.components == rhs.components  # bit-exact tables
    return result


def test_factor_glued_transformation_on_glue_site():
    site = glue_site()
    cat = site.cat
    m_idx, c_idx = 4, 5
    shm = ay(site, m_idx).sheaf.presheaf
    shc = ay(site, c_idx).sheaf.presheaf
    assert cat.hom(m_idx, c_idx) == ()  # the section exists only by gluing
    nats = list(all_nat_transformations(shm, shc))
    assert len(nats) == 1
    result = _factor_equations_hold(site, nats[0], m_idx, c_idx)
    assert [cat.mor_name(f) for f in result.family] == ["p_to_m"]
    assert [cat.mor_name(g) for g in result.arrows] == ["p_to_c"]


def test_factor_rejects_unnatural_input():
    sh1 = ay(DIAMOND_SITE, 3).sheaf.presheaf
    shb = ay(DIAMOND_SITE, 2).sheaf.presheaf
    from finsite.fincat import NatTransData
    bogus = NatTransData(sh1, shb, ((0,), (), (0,), ()))
    with pytest.raises((FactorizationError, IndexError, ValueError)):
        factor_through_cover(DIAMOND_SITE, bogus, 3, 2)


def test_cover_identity_mono_by_single_representable():
    sh1 = ay(DIAMOND_SITE, 3).sheaf.presheaf
    entries = cover_mono_by_representables(DIAMOND_SITE, identity_nat(sh1), 3)
    assert len(entries) == 1
    assert entries[0].object == 3
    assert entries[0].arrow == DIAMOND.identity[3]
    assert nat_is_pointwise_bijective(entries[0].beta)


def test_cover_initial_sheaf_is_empty_list():
    empty = empty_presheaf(DIAMOND)
    sh1 = ay(DIAMOND_SITE, 3).sheaf.presheaf
    from finsite.fincat import NatTransData
    iota = NatTransData(empty, sh1, ((), (), (), ()))
    entries = cover_mono_by_representables(DIAMOND_SITE, iota, 3)
    assert entries == []
    assert extremal_epi_family_in_sh(TOPOLOGY, [], empty)


def test_cover_image_of_two_representables():
    """The pointwise image of ay(a) ⊔ ay(b) in ay(1): entries for a and b."""
    sh1 = ay(DIAMOND_SITE, 3).sheaf.presheaf
    image_sizes = (1, 1, 1, 0)
    image = SetValuedFunctor(DIAMOND, CONTRAVARIANT, image_sizes,
                             ((0,), (0,), (0,), (), (0,), (0,), (), (), ()))
    iota_components = tuple(
        tuple(0 for _ in range(image_sizes[x])) for x in DIAMOND.objects)
    from finsite.fincat import NatTransData, check_nat
    iota = NatTransData(image, sh1, iota_components)
    assert check_nat(iota) and nat_is_pointwise_injective(iota)
    entries = cover_mono_by_representables(DIAMOND_SITE, iota, 3)
    assert sorted((e.object, e.arrow) for e in entries) == [(1, 7), (2, 8)]
    assert extremal_epi_in_sh(TOPOLOGY, [e.beta for e in entries])
    for e in entries:  # each composite is the sheafified post-composition
        lhs = compose_nat(iota, e.beta)
        rhs = sheafified_postcompose(DIAMOND_SITE, e.arrow)
        assert lhs.components == rhs.components


def test_sheaf_condition_agrees_between_sieves_and_families():
    for name, site in fixtures.all_sites().items():
        topology = site_topology(site)
        families = tree_saturation(site).families
        for p in itertools.islice(enumerate_presheaves(site.cat, 2), 150):
            by_sieves = is_sheaf(p, topology)
            by_families = all(sheaf_for_family(p, site.cat, fam)
                              for fam in families)
            assert by_sieves == by_families, (name, p)


def test_limits_of_sheaves_are_pointwise():
    """The pointwise product of sheaves is again a sheaf."""
    sheaves = []
    for p in enumerate_presheaves(DIAMOND, 2):
        sh = sheafify(p, TOPOLOGY).sheaf.presheaf
        if sh not in sheaves:
            sheaves.append(sh)
    for f1, f2 in itertools.islice(itertools.product(sheaves, repeat=2), 200):
        sizes = tuple(f1.sizes[x] * f2.sizes[x] for x in DIAMOND.objects)
        pairs = [list(itertools.product(f1.carrier(x), f2.carrier(x)))
                 for x in DIAMOND.objects]
        index = [{pair: k for k, pair in enumerate(per)} for per in pairs]
        action = []
        for f in DIAMOND.morphisms:
            src, tgt = DIAMOND.cod[f], DIAMOND.dom[f]
            action.append(tuple(
                index[tgt][(f1.action[f][u], f2.action[f][v])]
                for u, v in pairs[src]))
        product = SetValuedFunctor(DIAMOND, CONTRAVARIANT, sizes, tuple(action))
        assert validate_set_functor(product) == []
        assert is_sheaf(product, TOPOLOGY)


def _assert_plus_matches_oracle(site, bound, label):
    """Both plus passes and the sheaf verdict of every presheaf at the bound
    agree with the construction over all covering sieves."""
    fast, slow = site_topology(site), slow_sieve_topology(site)
    for p in enumerate_presheaves(site.cat, bound):
        assert is_sheaf(p, fast) == slow_is_sheaf(p, slow), (label, p)
        for _ in range(2):
            got, expected = plus(p, fast), slow_plus(p, slow)
            assert got.presheaf == expected.presheaf, (label, p)
            assert got.unit == expected.unit, (label, p)
            for x, reps in enumerate(expected.representatives):
                least = fast.least[x]
                assert all((sieve, arrows) == (least, tuple(sorted(least.arrows)))
                           for sieve, arrows, _ in reps), (label, p, x)
                assert got.families[x] == tuple(m for _, _, m in reps), (label, p, x)
                assert got.index[x] == {m: k for k, m in enumerate(got.families[x])}
            p = got.presheaf


def test_plus_and_is_sheaf_match_the_covering_sieve_oracle():
    for name, site in oracle_sites(fixtures.all_sites()).items():
        bound = 1 if site.cat.n_objects > 6 else 2  # glue_site, bool_3, grid_3x4
        _assert_plus_matches_oracle(site, bound, name)


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=6), st.integers(min_value=0, max_value=2 ** 32))
def test_plus_and_is_sheaf_match_the_covering_sieve_oracle_on_random_posets(leq, seed):
    site = random_covers_site(poset_category(leq), seed)
    bound = 2 if len(leq) <= 4 else 1
    _assert_plus_matches_oracle(site, bound, seed)


def _relabelled(site):
    """The site over ``reversed_ids`` of its category, covers carried along."""
    n = site.cat.n_morphisms
    return SiteSpec.make(reversed_ids(site.cat), [
        Family.make(fam.codomain, [n - 1 - f for f in fam.legs]) for fam in site.covers])


def test_plus_matches_the_oracle_on_non_thin_categories():
    """The involution, fork, equalized fork and iso pair with random covers,
    at B <= 2."""
    cats = dict(involution=involution_category(), fork=fork_category(),
                equalized_fork=equalized_fork_category(), iso_pair=iso_pair_category())
    for name, cat in cats.items():
        for seed in range(6):
            for bound in (1, 2):
                _assert_plus_matches_oracle(random_covers_site(cat, seed), bound,
                                            (name, seed, bound))


def test_plus_matches_the_oracle_where_identities_are_not_least():
    """With morphism ids reversed, a maximal J₀(x) with an arrow from another
    object starts with that arrow, not id_x, so P⁺(x) takes the sorted path."""
    sites = {name: _relabelled(fixtures.load_site(name)) for name in ("diamond", "wide5")}
    for name, make in (("fork", fork_category), ("iso_pair", iso_pair_category),
                       ("involution", involution_category)):
        for seed in range(3):
            sites[f"{name}:random{seed}"] = random_covers_site(reversed_ids(make()), seed)
    sorted_path = 0
    for name, site in sites.items():
        topology, cat = site_topology(site), site.cat
        least, direct, _ = _plan(topology)
        sorted_path += sum(cat.identity[x] in least[x] and not direct[x] for x in cat.objects)
        _assert_plus_matches_oracle(site, 2, name)
    assert sorted_path > 0


def test_plus_matches_the_oracle_on_an_empty_least_sieve():
    """An empty cover makes J₀ empty: P⁺ there is one point, the empty family."""
    topology = site_topology(EMPTY_SITE)
    empty = [x for x in EMPTY_SITE.cat.objects if not topology.least[x].arrows]
    assert empty
    _assert_plus_matches_oracle(EMPTY_SITE, 2, "diamond_empty")
    for p in enumerate_presheaves(EMPTY_SITE.cat, 2):
        assert all(plus(p, topology).presheaf.sizes[x] == 1 for x in empty)


def test_matching_families_match_the_brute_force_on_every_sieve():
    cats = {name: fixtures.load_site(name).cat for name in ("diamond", "wide5")}
    cats.update(involution=involution_category(), fork=fork_category(),
                left_zero_monoid=left_zero_monoid())
    for name, cat in cats.items():
        sieves = [sieve for y in cat.objects for sieve in all_sieves(cat, y)]
        for p in enumerate_presheaves(cat, 2):
            for sieve in sieves:
                assert matching_families(p, sieve) == slow_matching_families(p, sieve), \
                    (name, p.sizes, sorted(sieve.arrows))


def test_maps_between_sheafified_representables_match_the_brute_force():
    for name, site in fixtures.all_sites().items():
        sheaves = [ay(site, x).sheaf.presheaf for x in site.cat.objects]
        for source in sheaves:
            for target in sheaves:
                assert list(all_nat_transformations(source, target)) \
                    == list(slow_all_nat_transformations(source, target)), name


def test_covering_families_restrict_to_listed_least_sieve_families():
    """A matching family over any covering sieve on x restricts to one over
    J₀(x), and that restriction is listed in P⁺(x): it is the section."""
    for p in [glued_presheaf(), *itertools.islice(enumerate_presheaves(DIAMOND, 2), 120)]:
        data = plus(p, TOPOLOGY)
        for x in DIAMOND.objects:
            least = sorted(TOPOLOGY.least[x].arrows)
            for sieve in TOPOLOGY.covering_sieves(x):
                arrows, fams = matching_families(p, sieve)
                for assignment in fams:
                    restricted = tuple(assignment[arrows.index(f)] for f in least)
                    assert data.families[x][data.index[x][restricted]] == restricted


def _assert_plus_map_is_natural_and_commutes_with_units(site, presheaves):
    """For every theta: P => Q, plus_map(theta) is natural and
    plus_map(theta) ∘ η_P = η_Q ∘ theta, which pins it down: every section of
    P⁺ is locally a unit image."""
    topology = site_topology(site)
    for p in presheaves:
        for q in presheaves:
            for theta in all_nat_transformations(p, q):
                mapped = plus_map(theta, topology)
                assert check_nat(mapped), (p, q, theta)
                assert compose_nat(mapped, plus(p, topology).unit) \
                    == compose_nat(plus(q, topology).unit, theta), (p, q, theta)


def test_plus_map_is_natural_and_commutes_with_units():
    for name in ("diamond", "wide5"):
        site = fixtures.load_site(name)
        _assert_plus_map_is_natural_and_commutes_with_units(
            site, list(enumerate_presheaves(site.cat, 1)))
    # every fifth presheaf at bound 2: about 10,000 transformations
    _assert_plus_map_is_natural_and_commutes_with_units(
        DIAMOND_SITE, list(enumerate_presheaves(DIAMOND, 2))[::5])


def test_plus_map_rejects_a_non_natural_transformation():
    """The point sent to point 1 of the two-point constant presheaf at b and
    to point 0 elsewhere: pushed along it, the family over J₀(b) takes 1 at
    id_b and 0 at 0 -> b, and 1 does not restrict to 0."""
    point = SetValuedFunctor(DIAMOND, CONTRAVARIANT, (1, 1, 1, 1),
                             tuple((0,) for _ in DIAMOND.morphisms))
    two = SetValuedFunctor(DIAMOND, CONTRAVARIANT, (2, 2, 2, 2),
                           tuple((0, 1) for _ in DIAMOND.morphisms))
    theta = NatTransData(point, two, ((0,), (0,), (1,), (0,)))
    assert not check_nat(theta)
    with pytest.raises(ValueError, match="does not match"):
        plus_map(theta, TOPOLOGY)


def _lifts_on_some_covering_sieve(topology, legs, target):
    """Every section lifts through the legs on some covering sieve."""
    cat = target.cat
    hit = [set() for _ in cat.objects]
    for leg in legs:
        for z in cat.objects:
            hit[z].update(leg.components[z])
    return all(any(all(target.action[f][s] in hit[cat.dom[f]] for f in sieve.arrows)
                   for sieve in topology.covering_sieves(x))
               for x in cat.objects for s in target.carrier(x))


def test_extremal_epi_matches_the_covering_sieve_oracle():
    for name, site in oracle_sites(fixtures.all_sites()).items():
        topology, slow = site_topology(site), slow_sieve_topology(site)
        for y in site.cat.objects:
            target = ay(site, y).sheaf.presheaf
            families = [()] + [(f,) for f in site.cat.into(y)]
            families += [fam.legs for fam in site.covers if fam.codomain == y]
            for fam in families:
                legs = [sheafified_postcompose(site, f) for f in fam]
                expected = _lifts_on_some_covering_sieve(slow, legs, target)
                assert extremal_epi_family_in_sh(topology, legs, target) == expected, \
                    (name, y, fam)
