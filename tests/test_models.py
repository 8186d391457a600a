"""Model enumeration against the slow oracle, the Nat-limit bijection,
the lex hull, and the Kan-extension point functor."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fixtures, limits, models
from finsite.fincat import (COVARIANT, SetValuedFunctor,
                            all_nat_transformations, nat_via_limit,
                            poset_category, validate_set_functor)
from finsite.eventual import NatTable
from finsite.models import (ModelBound, _square_holds,
                            elements_category, enumerate_lex_functors,
                            enumerate_models, enumerate_set_functors,
                            eta_check, is_lex, lan_ay, lan_map, lex_hull,
                            preserves_covers, subfunctor)
from finsite.limits import _lex_probes, pullback, terminal_object
from finsite.presheaf import ay, enumerate_presheaves
from finsite.site import Family, SiteSpec

from helpers import (boolean_leq, cospan_only_category, discrete2_category,
                     equalized_fork_category, fork_category, grid_leq, involution_category,
                     iso_pair_category, left_zero_monoid, poset_site, posets,
                     random_covers_site, slow_all_nat_transformations,
                     slow_enumerate_functors, slow_is_lex, slow_models,
                     slow_nat_via_limit, slow_preserves_covers)

ALL_SITES = fixtures.all_sites()
DIAMOND_SITE = ALL_SITES["diamond"]
DIAMOND = DIAMOND_SITE.cat


def test_point_has_one_model():
    site = ALL_SITES["point"]
    models = enumerate_models(site, ModelBound(1))
    assert len(models) == 1
    assert models[0].functor.sizes == (1,)


def test_diamond_count_matches_slow_oracle():
    fast = enumerate_models(DIAMOND_SITE, ModelBound(1))
    slow = slow_models(DIAMOND_SITE, 1)
    assert len(fast) == 3
    assert [m.functor for m in fast] == sorted(
        slow, key=lambda f: (f.sizes, f.action))
    sizes = sorted(m.functor.sizes for m in fast)
    assert sizes == [(0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 1, 1)]


def test_flags_agree_with_oracle_on_every_candidate():
    for fn in slow_enumerate_functors(DIAMOND, 1):
        assert is_lex(DIAMOND, fn) == slow_is_lex(DIAMOND, fn)
        assert preserves_covers(fn, DIAMOND_SITE) \
            == slow_preserves_covers(fn, DIAMOND_SITE)


def test_empty_cover_cuts_the_full_model():
    site = ALL_SITES["diamond_empty"]
    fast = enumerate_models(site, ModelBound(1))
    slow = slow_models(site, 1)
    assert len(fast) == len(slow) == 2
    assert all(m.functor.sizes[0] == 0 for m in fast)


def test_constant_singleton_is_a_model_of_sites_with_nonempty_covers():
    for name in ("point", "arrow", "diamond", "chain3", "wide5"):
        site = ALL_SITES[name]
        from finsite.fincat import constant_singleton
        one = constant_singleton(site.cat)
        assert is_lex(site.cat, one) and preserves_covers(one, site), name


def test_lex_fails_when_meet_carrier_is_wrong():
    fn = SetValuedFunctor(DIAMOND, COVARIANT, (0, 1, 1, 1),
                          ((), (0,), (0,), (0,), (), (), (), (0,), (0,)))
    assert validate_set_functor(fn) == []
    assert not is_lex(DIAMOND, fn)
    assert preserves_covers(fn, DIAMOND_SITE)


def test_square_check_demands_an_injective_comparison():
    """With M(0) = 2 over one-point carriers elsewhere, the comparison onto
    the fiber product of a -> 1 <- b is onto but sends both points to one."""
    meet = next(probe for probe in _lex_probes(DIAMOND)[1] if probe[:2] == (7, 8))
    one_point = ((0,), (0,), (0,), (0,), (0,), (0,), (0,), (0,), (0,))
    two_points = ((0, 1), (0,), (0,), (0,), (0, 0), (0, 0), (0, 0), (0,), (0,))
    assert meet[2].apex == 0 and _square_holds(one_point, *meet)
    assert not _square_holds(two_points, *meet)


def _assert_table_matches_the_oracles(table, label):
    """Each hom set and limit of the table equals its brute force, in order,
    and the pairing between them is a bijection."""
    for i, m in enumerate(table.functors):
        for j, n in enumerate(table.functors):
            assert [alpha.components for alpha in table.hom(i, j)] \
                == [alpha.components for alpha in slow_all_nat_transformations(m, n)], label
            assert table.limit(i, j) == slow_nat_via_limit(m, n), label
            assert table.pairing(i, j) is not None, label


def test_nat_counts_and_limit_formula_agree():
    models = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(1))]
    _assert_table_matches_the_oracles(NatTable(models), "diamond")
    # frozen counts: models sorted as (0,0,1,1), (0,1,0,1), (1,1,1,1)
    grid = [[len(list(all_nat_transformations(m, n))) for n in models] for m in models]
    assert grid == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    assert [len(nat_via_limit(m, n)) for m in models for n in models] \
        == [1, 0, 1, 0, 1, 1, 0, 0, 1]


def test_nat_formula_on_all_pairs_of_all_fixtures():
    for name, site in ALL_SITES.items():
        models = [m.functor for m in enumerate_models(site, ModelBound(2))]
        _assert_table_matches_the_oracles(NatTable(models), name)


def test_lex_hull_of_everything_is_everything():
    model = enumerate_models(DIAMOND_SITE, ModelBound(1))[2].functor
    kept = lex_hull(DIAMOND_SITE, model,
                    {x: range(model.sizes[x]) for x in DIAMOND.objects})
    assert kept == tuple(tuple(model.carrier(x)) for x in DIAMOND.objects)


def test_lex_hull_of_empty_seed_is_least_submodel():
    model = enumerate_models(DIAMOND_SITE, ModelBound(1))[2].functor  # all ones
    kept = lex_hull(DIAMOND_SITE, model, {})
    # the forced terminal point plus one canonical cover preimage at a
    assert kept == ((), (0,), (), (0,))
    sub = subfunctor(model, kept)
    assert is_lex(DIAMOND, sub) and preserves_covers(sub, DIAMOND_SITE)


def test_lex_hull_of_single_element_contains_its_images():
    model = enumerate_models(DIAMOND_SITE, ModelBound(1))[2].functor
    kept = lex_hull(DIAMOND_SITE, model, {1: [0]})  # one element of M(a)
    assert 0 in kept[3]   # image under a -> 1
    assert 0 in kept[1]
    sub = subfunctor(model, kept)
    assert is_lex(DIAMOND, sub) and preserves_covers(sub, DIAMOND_SITE)


def _all_seeds(model):
    subsets = [[set(c) for c in
                itertools.chain.from_iterable(
                    itertools.combinations(model.carrier(x), k)
                    for k in range(model.sizes[x] + 1))]
               for x in model.cat.objects]
    for choice in itertools.product(*subsets):
        yield {x: sorted(choice[x]) for x in model.cat.objects}


def test_lex_hull_is_a_closure_operator():
    for name in ("point", "diamond", "wide5"):
        site = ALL_SITES[name]
        for model in enumerate_models(site, ModelBound(2)):
            fn = model.functor
            hulls = {}
            for seed in _all_seeds(fn):
                key = tuple(tuple(seed[x]) for x in site.cat.objects)
                kept = lex_hull(site, fn, seed)
                hulls[key] = kept
                for x in site.cat.objects:  # extensive
                    assert set(seed[x]) <= set(kept[x]), name
                again = lex_hull(site, fn, {x: kept[x] for x in site.cat.objects})
                assert again == kept, name  # idempotent
                sub = subfunctor(fn, kept)
                assert is_lex(site.cat, sub), name
                assert preserves_covers(sub, site), name
            keys = list(hulls)
            for k1 in keys:  # monotone
                for k2 in keys:
                    if all(set(a) <= set(b) for a, b in zip(k1, k2)):
                        assert all(set(a) <= set(b) for a, b in
                                   zip(hulls[k1], hulls[k2])), name


def test_lan_on_terminal_representable_is_a_point():
    for name, site in ALL_SITES.items():
        from finsite.limits import terminal_object
        terminal = terminal_object(site.cat)
        sheaf = ay(site, terminal).sheaf.presheaf
        for model in enumerate_models(site, ModelBound(1)):
            assert lan_ay(model.functor, sheaf).size == 1, name


def test_lan_classes_are_ordered_glued_and_indexed():
    """On functors M and presheaves F with carriers <= 2 on the involution,
    and every fifth of each on the diamond: the classes come ascending, in least-member order, and
    hold every triple once; ``class_of`` reads the class that holds a
    triple; and the two ends of every gluing lie in one class."""
    for cat, stride in ((DIAMOND, 5), (involution_category(), 1)):
        functors = list(enumerate_set_functors(cat, 2))[::stride]
        presheaves = list(enumerate_presheaves(cat, 2))[::stride]
        for m, f in itertools.product(functors, presheaves):
            lan = lan_ay(m, f)
            assert list(lan.classes) == sorted(tuple(sorted(c)) for c in lan.classes)
            triples = [t for cls in lan.classes for t in cls]
            assert sorted(triples) == [(x, s, p) for x in cat.objects
                                       for s in f.carrier(x) for p in m.carrier(x)]
            assert all(t in lan.classes[lan.class_of(*t)] for t in triples)
            for h in cat.morphisms:
                x, y = cat.dom[h], cat.cod[h]
                assert all(lan.class_of(x, f.action[h][t], p)
                           == lan.class_of(y, t, m.action[h][p])
                           for t in f.carrier(y) for p in m.carrier(x))


def test_lan_sizes_on_diamond_representables():
    models = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(1))]
    m10 = models[1]  # (0,1,0,1): M(a) = 1, M(b) = 0
    assert lan_ay(m10, ay(DIAMOND_SITE, 1).sheaf.presheaf).size == m10.sizes[1]
    assert lan_ay(m10, ay(DIAMOND_SITE, 2).sheaf.presheaf).size == m10.sizes[2]


def test_eta_check_on_all_models_of_all_fixtures():
    for name, site in ALL_SITES.items():
        for model in enumerate_models(site, ModelBound(2)):
            assert eta_check(site, model.functor), name


def test_lan_map_functorial_on_sheafified_postcompositions():
    from finsite.presheaf import sheafified_postcompose
    models = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(1))]
    theta = sheafified_postcompose(DIAMOND_SITE, 7)  # ay(a) => ay(1)
    for m in models:
        mapped = lan_map(m, theta)
        assert set(mapped) == set(range(lan_ay(m, theta.source).size))


def test_models_closed_under_chain_unions():
    """A pointwise-increasing chain of submodels tops out in a model."""
    for name, site in ALL_SITES.items():
        models = [m.functor for m in enumerate_models(site, ModelBound(2))]
        for small in models:
            for big in models:
                if small.sizes == big.sizes:
                    continue
                inclusions = [alpha for alpha
                              in all_nat_transformations(small, big)
                              if all(len(set(alpha.components[x])) == small.sizes[x]
                                     for x in site.cat.objects)]
                if not inclusions:
                    continue
                # the chain small <= big has pointwise union big: still a model
                assert is_lex(site.cat, big) and preserves_covers(big, site)


def _site_on(cat):
    """The category with the identity cover on every object."""
    return SiteSpec.make(cat, [Family.make(x, [cat.identity[x]]) for x in cat.objects])


def _assert_agrees_with_oracles(site, bound):
    """Functors, lex functors and models come out as the slow oracles give
    them, as sequences: same members, same order."""
    cat = site.cat
    slow = list(slow_enumerate_functors(cat, bound))
    assert list(enumerate_set_functors(cat, bound)) == slow
    slow_lex = [fn for fn in slow if slow_is_lex(cat, fn)]
    assert enumerate_lex_functors(cat, bound) == slow_lex
    terminal, squares = _lex_probes(cat)
    if terminal is not None:  # the squares alone, without the is_lex confirmation
        assert [fn for fn in enumerate_set_functors(cat, bound, squares=squares)
                if fn.sizes[terminal] == 1] == slow_lex
    assert [m.functor for m in enumerate_models(site, ModelBound(bound))] \
        == [fn for fn in slow_lex if slow_preserves_covers(fn, site)]  # as slow_models


def test_enumerators_match_oracles_in_order_on_small_categories():
    for make in (fork_category, cospan_only_category, discrete2_category,
                 left_zero_monoid, iso_pair_category):
        for bound in (1, 2):
            _assert_agrees_with_oracles(_site_on(make()), bound)


def test_enumerators_match_oracles_on_a_site_without_pullbacks():
    elements = range(1, 8)  # nonempty subsets of 3 points: disjoint pairs have no meet
    site = poset_site([[a & b == a for b in elements] for a in elements])
    cat = site.cat
    assert any(len(fam.legs) > 1 for fam in site.covers)
    assert any(pullback(cat, f, g) is None for f in cat.morphisms
               for g in cat.morphisms if cat.cod[f] == cat.cod[g])
    _assert_agrees_with_oracles(site, 1)


@settings(max_examples=25, deadline=None)
@given(posets(max_objects=5))
def test_enumerators_match_oracles_on_random_posets_at_bound_one(leq):
    _assert_agrees_with_oracles(poset_site(leq), 1)


@settings(max_examples=15, deadline=None)
@given(posets(max_objects=3))
def test_enumerators_match_oracles_on_random_posets_at_bound_two(leq):
    _assert_agrees_with_oracles(poset_site(leq), 2)


def test_size_search_meets_only_the_up_sets():
    """On bool_4 at B=1 a size vector admits a functor iff its support is an
    up-set; the search reaches exactly those, in product order."""
    elements = range(16)
    cat = poset_category([[a & b == a for b in elements] for a in elements])
    seen = []
    assert list(enumerate_set_functors(  # the prune records and rejects each vector
        cat, 1, prune=lambda sizes: seen.append(sizes))) == []
    up_sets = [sizes for sizes in itertools.product((0, 1), repeat=16)
               if all(sizes[b] for a in elements for b in elements
                      if sizes[a] and a & b == a)]
    assert seen == up_sets and len(seen) == 168


def _every_square(cat):
    """The terminal object and the canonical square of every cospan that has
    a pullback, (f, g) ascending: the squares ``_lex_probes`` keeps and
    those that hold with them."""
    squares = ((f, g, pullback(cat, f, g))
               for f in cat.morphisms for g in cat.into(cat.cod[f]))
    return terminal_object(cat), tuple(s for s in squares if s[2] is not None)


def _general_path(site, bound):
    """Lex functors and models from the backtracking search alone, as
    ``enumerate_lex_functors`` and ``enumerate_models`` find them on a
    category that is not thin.  The search reads every square: those over
    objects below the top say which arrows are mono, which prunes it."""
    cat = site.cat
    terminal, squares = _every_square(cat)
    empty = [fam.codomain for fam in site.covers if not fam.legs]
    lex = [fn for fn in enumerate_set_functors(
               cat, bound, lambda sizes: sizes[terminal] == 1, squares)
           if is_lex(cat, fn)]
    return lex, [fn for fn in lex if all(fn.sizes[x] == 0 for x in empty)
                 and preserves_covers(fn, site)]


def _assert_thin_path_agrees(site, bound):
    """The thin path gives the general search's lists, order included, and
    its candidates are exactly the lex functors (with the empty covers'
    codomains left empty), so ``is_lex`` confirms every one."""
    lex, found = _general_path(site, bound)
    empty = [fam.codomain for fam in site.covers if not fam.legs]
    assert list(models._lex_candidates(site.cat, bound)) == lex
    assert list(models._lex_candidates(site.cat, bound, empty)) \
        == [fn for fn in lex if all(fn.sizes[x] == 0 for x in empty)]
    assert enumerate_lex_functors(site.cat, bound) == lex
    assert [m.functor for m in enumerate_models(site, ModelBound(bound))] == found


def _punctured_boolean_leq(k):
    """The nonempty subsets of k points: disjoint pairs have no meet."""
    elements = range(1, 2 ** k)
    return [[a & b == a for b in elements] for a in elements]


def test_thin_path_matches_oracles_on_ladder_sites():
    for leq in (boolean_leq(4), _punctured_boolean_leq(4), grid_leq(3, 4)):
        _assert_agrees_with_oracles(poset_site(leq), 1)


def test_thin_path_matches_the_general_search_at_bound_two():
    for leq in (boolean_leq(3), _punctured_boolean_leq(3), grid_leq(2, 3),
                boolean_leq(4), _punctured_boolean_leq(4)):
        _assert_thin_path_agrees(poset_site(leq), 2)


def test_thin_path_matches_oracles_on_random_covers_over_bool_3():
    cat = poset_category(boolean_leq(3))
    sites = [random_covers_site(cat, seed) for seed in range(12)]
    assert any(not fam.legs for site in sites for fam in site.covers)
    for site in sites:
        _assert_agrees_with_oracles(site, 1)
        _assert_thin_path_agrees(site, 2)
        for model in enumerate_models(site, ModelBound(1)):  # empty covers stay empty
            assert all(model.functor.sizes[fam.codomain] == 0
                       for fam in site.covers if not fam.legs)


def _with_top(leq):
    """The poset with a new greatest element appended."""
    return [row + [True] for row in leq] + [[False] * len(leq) + [True]]


@settings(max_examples=25, deadline=None)
@given(posets(max_objects=5), st.integers(min_value=0, max_value=2 ** 16))
def test_thin_path_matches_oracles_on_random_covers_over_random_posets(leq, seed):
    site = random_covers_site(poset_category(_with_top(leq)), seed)
    _assert_agrees_with_oracles(site, 1)
    _assert_thin_path_agrees(site, 2)


def test_thin_path_is_taken_exactly_on_thin_categories_with_a_terminal(monkeypatch):
    calls = []

    def sentinel(name):
        search = getattr(models, name)

        def recording(cat, *args, **kwargs):
            calls.append(name)
            return search(cat, *args, **kwargs)
        monkeypatch.setattr(models, name, recording)

    sentinel("enumerate_set_functors")
    sentinel("_thin_functors")

    def paths(make):
        site = _site_on(make())
        calls.clear()
        enumerate_models(site, ModelBound(2))
        enumerate_lex_functors(site.cat, 2)
        return calls[:]

    general = ["enumerate_set_functors"] * 2
    assert paths(fork_category) == general
    assert paths(involution_category) == general
    assert paths(left_zero_monoid) == []  # no terminal object: no lex functor
    # x ≅ y under T has one arrow per hom set: it is thin, with a terminal object
    assert paths(iso_pair_category) == ["_thin_functors"] * 2
    assert paths(lambda: DIAMOND) == ["_thin_functors"] * 2
    monkeypatch.undo()
    for bound in (1, 2, 3):
        _assert_thin_path_agrees(_site_on(iso_pair_category()), bound)


def test_lex_functors_at_bound_zero_are_none():
    for cat in (DIAMOND, iso_pair_category(), fork_category(), involution_category()):
        assert enumerate_lex_functors(cat, 0) == []


def test_five_point_boolean_sites_have_six_models_and_32_lex_functors():
    """Both have a terminal object and 32 (resp. 31) principal up-sets; the
    general search is too slow to be their oracle."""
    for leq in (boolean_leq(5), _punctured_boolean_leq(5)):
        site = poset_site(leq)
        found = enumerate_models(site, ModelBound(1))
        lex = enumerate_lex_functors(site.cat, 1)
        assert len(found) == 6 and len(lex) == 32
        assert list(models._lex_candidates(site.cat, 1)) == lex
        assert all(max(fn.sizes) <= 1 for fn in lex)
        assert [m.functor for m in found] \
            == [fn for fn in lex if preserves_covers(fn, site)]
        assert lex == sorted(lex, key=lambda fn: fn.sizes)



def _chain_leq(n):
    return [[i <= j for j in range(n)] for i in range(n)]


# name -> (category, bounds) on whose every functor is_lex is checked
LEX_CHECK_CASES = {
    "bool_2": (poset_category(boolean_leq(2)), (1, 2)),
    "chain_4": (poset_category(_chain_leq(4)), (1, 2)),
    "iso_pair": (iso_pair_category(), (1, 2, 3)),
    "pbool_3": (poset_category(_punctured_boolean_leq(3)), (1,)),
    "fork": (fork_category(), (1, 2)),
    "equalized_fork": (equalized_fork_category(), (1, 2)),
    "involution": (involution_category(), (1, 2)),
    "left_zero_monoid": (left_zero_monoid(), (1, 2)),
}


def _is_lex_verdicts(cat, bounds, name=""):
    """``is_lex``, which checks only the ``_lex_probes`` squares, gives the
    verdict of ``slow_is_lex``, which checks every square, on every functor
    with carriers within the bounds; returns the verdicts seen."""
    verdicts = set()
    for bound in bounds:
        for fn in enumerate_set_functors(cat, bound):
            verdict = slow_is_lex(cat, fn)
            assert is_lex(cat, fn) == verdict, (name, fn.sizes, fn.action)
            verdicts.add(verdict)
    return verdicts


def test_is_lex_agrees_with_every_square_on_every_functor():
    for name, (cat, bounds) in LEX_CHECK_CASES.items():
        expected = {False} if name == "left_zero_monoid" else {False, True}
        assert _is_lex_verdicts(cat, bounds, name) == expected, name


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=3))
def test_is_lex_agrees_with_every_square_on_random_posets_with_a_top(leq):
    assert True in _is_lex_verdicts(poset_category(_with_top(leq)), (1, 2))


NON_POSET_CATEGORIES = (fork_category, equalized_fork_category, involution_category,
                        left_zero_monoid, iso_pair_category)


def test_lex_probes_are_one_square_per_unordered_cospan():
    """``_lex_probes`` keeps, in order, the squares of the cospans f <= g
    by id, and on a thin category with a terminal object only those into
    it: 136 binary products on bool_4 and 528 on bool_5.  A category that
    is not thin keeps one of the squares of (f, g) and (g, f), the diagonal
    included."""
    cats = {"bool_4": poset_category(boolean_leq(4)),
            "bool_5": poset_category(boolean_leq(5)),
            "pbool_4": poset_category(_punctured_boolean_leq(4))}
    cats.update((name, site.cat) for name, site in ALL_SITES.items())
    cats.update((make.__name__, make()) for make in NON_POSET_CATEGORIES)
    for name, cat in cats.items():
        terminal, squares = _every_square(cat)
        products_only = terminal is not None and cat._thin
        assert _lex_probes(cat) == (terminal, tuple(
            (f, g, square) for f, g, square in squares
            if f <= g and not (products_only and cat.cod[f] != terminal))), name
    assert [len(_lex_probes(cats[name])[1]) for name in ("bool_4", "bool_5")] \
        == [136, 528]


def test_lex_probes_ask_for_one_pullback_per_product_on_bool_5(monkeypatch):
    calls = []
    original = limits.pullback
    monkeypatch.setattr(limits, "pullback",
                        lambda cat, f, g: calls.append((f, g)) or original(cat, f, g))
    _lex_probes(poset_category(boolean_leq(5)))
    assert len(calls) == len(set(calls)) == 528


def test_lex_hull_is_the_same_under_every_square(monkeypatch):
    """``lex_hull`` closes each one-point seed of each functor with carriers
    of at most two points (one on wide5) under the ``_lex_probes`` squares
    to the hull that every cospan's square gives."""
    sites = list(ALL_SITES.values()) + [_site_on(make()) for make in NON_POSET_CATEGORIES]
    cases = []
    for site in sites:
        bound = 1 if site.cat.n_objects > 4 else 2
        for fn in enumerate_set_functors(site.cat, bound):
            for x, e in elements_category(fn):
                cases.append((site, fn, {x: (e,)}))
    hulls = [lex_hull(*case) for case in cases]
    monkeypatch.setattr(limits, "_lex_probes", _every_square)
    assert [lex_hull(*case) for case in cases] == hulls
    assert len(cases) > 1000
