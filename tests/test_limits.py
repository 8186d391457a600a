"""Pullbacks and coequalizers against the limit-search oracle, subobjects,
extremal families, factorizations."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings

from finsite import fixtures, limits
from finsite.fincat import all_nat_transformations, check_nat, poset_category
from finsite.limits import (PullbackSquare, _meet_square, _pullback_square,
                            coequalizer, image_factorization_abstract,
                            image_factorization_pointwise, is_effective_epi,
                            is_extremal_epi_family, is_pullback, pullback,
                            strict_initial, subobject_lattice, terminal_object)
from finsite.models import ModelBound, enumerate_models
from finsite.presheaf import enumerate_presheaves

from helpers import (Cone, boolean_leq, cones, cospan_diagram, cospan_only_category,
                     discrete2_category, discrete_diagram, empty_diagram,
                     equalized_fork_category, factorizations, fork_category,
                     grid_leq, involution_category, iso_pair_category, kept_entries,
                     left_zero_monoid, limit, posets, product_category,
                     reversed_ids, slow_coequalizer, slow_is_effective_epi)

DIAMOND = fixtures.load_site("diamond").cat
POINT = fixtures.load_site("point").cat
ARROW = fixtures.load_site("arrow").cat
ALL_SITES = fixtures.all_sites()
NON_POSETS = {"fork": fork_category(), "left_zero_monoid": left_zero_monoid(),
              "iso_pair": iso_pair_category(), "involution": involution_category()}
# With identities numbered last, the first cone on a pullback apex can fail
# to be terminal, so these exercise the bijection test, not only the counts.
NON_POSETS.update({f"{name}_reversed": reversed_ids(cat)
                   for name, cat in list(NON_POSETS.items())})
NON_POSETS["left_zero_monoid_x_involution_reversed"] = reversed_ids(
    product_category(left_zero_monoid(), involution_category()))
CATALOGUE = {
    **{name: site.cat for name, site in ALL_SITES.items()},
    "bool_3": poset_category(boolean_leq(3)),
    "bool_4": poset_category(boolean_leq(4)),
    "pbool_4": poset_category([row[1:] for row in boolean_leq(4)[1:]]),
    "grid_3x4": poset_category(grid_leq(3, 4)),
    **NON_POSETS,
    "cospan_only": cospan_only_category(),
    "discrete": discrete2_category(),
}


def _assert_hom_table_limits_match_oracle(cat, name=""):
    """pullback and terminal_object, answered on a fresh copy of cat so no
    cache entry filled on one side answers for the other, equal the cones
    the exhaustive limit search returns."""
    fresh = dataclasses.replace(cat)
    cone = limit(cat, empty_diagram(cat))
    assert terminal_object(fresh) == (None if cone is None else cone.apex), name
    for f in cat.morphisms:
        for g in cat.morphisms:
            if cat.cod[f] != cat.cod[g]:
                continue
            cone = limit(cat, cospan_diagram(cat, f, g))
            square = pullback(fresh, f, g)
            assert (square is None) == (cone is None), (name, f, g)
            if square is not None:
                assert (square.apex, square.to_left, square.to_right) \
                    == (cone.apex, cone.legs[0], cone.legs[1]), (name, f, g)


def test_limit_of_empty_diagram_is_terminal():
    cone = limit(DIAMOND, empty_diagram(DIAMOND))
    assert cone == Cone(apex=3, legs=())


def test_limit_of_diamond_cospan_is_meet():
    cone = limit(DIAMOND, cospan_diagram(DIAMOND, 7, 8))
    assert cone.apex == 0
    assert cone.legs == (4, 5, 6)  # 0->a, 0->b, 0->1


def test_limit_absent_when_no_cone_exists():
    discrete = discrete2_category()
    assert limit(discrete, discrete_diagram(discrete, (0, 1))) is None
    vee = cospan_only_category()
    assert limit(vee, cospan_diagram(vee, 3, 4)) is None


def test_poset_limits_are_meets():
    for name in ("diamond", "wide5", "chain3"):
        cat = fixtures.load_site(name).cat
        for objs in itertools.product(cat.objects, repeat=2):
            cone = limit(cat, discrete_diagram(cat, objs))
            lower = [m for m in cat.objects if all(cat.hom(m, o) for o in objs)]
            meet = [m for m in lower if all(cat.hom(l, m) for l in lower)]
            assert cone is not None and [cone.apex] == meet, (name, objs)


def test_pullback_matches_cospan_limit():
    for name, cat in CATALOGUE.items():
        _assert_hom_table_limits_match_oracle(cat, name)


@settings(max_examples=60, deadline=None)
@given(posets(max_objects=6))
def test_pullback_matches_cospan_limit_on_random_posets(leq):
    _assert_hom_table_limits_match_oracle(poset_category(leq))


def test_is_pullback_is_the_terminal_cone_test():
    """On every cone over every cospan, ``is_pullback`` accepts exactly the
    cones that every cone factors through uniquely."""
    accepted = 0
    for name, cat in CATALOGUE.items():
        if cat.n_objects > 8:
            continue
        for f, g in _cospans(cat):
            every = cones(cat, cospan_diagram(cat, f, g))
            for cone in every:
                terminal = all(len(factorizations(cat, other, cone)) == 1
                               for other in every)
                assert is_pullback(cat, f, g, *cone.legs[:2]) == terminal, (name, f, g)
                accepted += terminal
    assert accepted > 100


def test_is_pullback_examples():
    # diamond: 7 = a -> 1, 8 = b -> 1, 4 = 0 -> a, 5 = 0 -> b, 1 = id_a
    assert is_pullback(DIAMOND, 7, 8, 4, 5)      # the meet 0 of a and b
    assert is_pullback(DIAMOND, 7, 7, 1, 1)      # a -> 1 is mono
    assert not is_pullback(DIAMOND, 7, 7, 4, 4)  # a cone, not the terminal one
    with pytest.raises(ValueError):
        is_pullback(DIAMOND, 7, 8, 5, 4)
    with pytest.raises(ValueError):
        is_pullback(DIAMOND, 7, 4, 4, 5)


def test_coequalizers_and_effective_epis_are_unchanged():
    """``coequalizer`` on every parallel pair, and ``is_effective_epi`` and
    ``image_factorization_abstract`` on every morphism of the catalogue,
    equal the searches that did not share ``is_coequalizer``."""
    for name, cat in CATALOGUE.items():
        for p1 in cat.morphisms:
            for p2 in cat.hom(cat.dom[p1], cat.cod[p1]):
                assert coequalizer(cat, p1, p2) == slow_coequalizer(cat, p1, p2), name
        fast = [(is_effective_epi(cat, f), image_factorization_abstract(cat, f))
                for f in cat.morphisms]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(limits, "coequalizer", slow_coequalizer)
            patch.setattr(limits, "is_effective_epi", slow_is_effective_epi)
            slow = [(limits.is_effective_epi(cat, f),
                     limits.image_factorization_abstract(cat, f)) for f in cat.morphisms]
        assert fast == slow, name


def test_equalized_fork_coequalizer_without_a_kernel_pair():
    """q: y -> z coequalizes f and g, but q has no kernel pair, so it is not
    an effective epi: only the identities are."""
    cat = equalized_fork_category()
    f, g, q = 5, 6, 7
    assert coequalizer(cat, f, g) == q and pullback(cat, q, q) is None
    assert [h for h in cat.morphisms if is_effective_epi(cat, h)] \
        == [cat.identity[x] for x in cat.objects]


def _cospans(cat):
    return [(f, g) for f in cat.morphisms for g in cat.morphisms
            if cat.cod[f] == cat.cod[g]]


def _assert_table_squares_are_fresh_squares(cat, name=""):
    """Whichever cospan fills a table entry first, ``pullback`` answers every
    cospan with the square ``_pullback_square`` computes for it alone."""
    cospans = _cospans(cat)
    for order in (cospans, cospans[::-1]):
        table = dataclasses.replace(cat)
        for f, g in order:
            assert pullback(table, f, g) == _pullback_square(cat, f, g), (name, f, g)
        keys = {(cat.dom[f], cat.dom[g]) if cat._thin else (f, g) for f, g in order}
        kept = _meet_square if cat._thin else _pullback_square
        assert set(kept_entries(table, kept)) == keys, name


def test_pullback_table_gives_the_fresh_square_of_every_cospan():
    for name, cat in CATALOGUE.items():
        _assert_table_squares_are_fresh_squares(cat, name)


@settings(max_examples=60, deadline=None)
@given(posets(max_objects=6))
def test_pullback_table_gives_the_fresh_square_on_random_posets(leq):
    _assert_table_squares_are_fresh_squares(poset_category(leq))


def test_thin_table_is_keyed_by_leg_domains():
    """bool_3 shares a square among the cospans with the same leg domains:
    one entry per ordered pair of objects, not one per cospan."""
    cat = dataclasses.replace(CATALOGUE["bool_3"])
    for f, g in _cospans(cat):
        pullback(cat, f, g)
    assert len(_cospans(cat)) == 125 and len(kept_entries(cat, _meet_square)) == 64
    assert not CATALOGUE["fork"]._thin and CATALOGUE["iso_pair"]._thin


def test_thin_pullback_rejects_mismatched_legs_after_the_table_fills():
    """A pair of arrows with different codomains raises even when a cospan
    with the same leg domains is already in the table."""
    for name in ("bool_3", "pbool_4", "iso_pair", "diamond"):
        cat = dataclasses.replace(CATALOGUE[name])
        for f, g in _cospans(cat):
            pullback(cat, f, g)
        mismatched = [(f, g) for f in cat.morphisms for g in cat.morphisms
                      if cat.cod[f] != cat.cod[g]]
        assert mismatched, name
        for f, g in mismatched:
            with pytest.raises(ValueError):
                pullback(cat, f, g)


def test_pullback_rejects_legs_with_different_codomains():
    for cat in (DIAMOND, dataclasses.replace(DIAMOND)):
        f, g = DIAMOND.hom(0, 1)[0], DIAMOND.hom(0, 2)[0]
        with pytest.raises(ValueError):
            pullback(cat, f, g)


def test_effective_epis_and_images_unchanged_on_oracle_squares():
    """With every kernel pair taken from the limit oracle instead, the
    effective-epi verdicts and abstract image factorizations are the same."""
    for name, cat in {**{n: s.cat for n, s in ALL_SITES.items()}, **NON_POSETS}.items():
        oracle = dataclasses.replace(cat)
        for f in cat.morphisms:
            cone = limit(cat, cospan_diagram(cat, f, f))
            kept, key = (_meet_square, (cat.dom[f],) * 2) if cat._thin \
                else (_pullback_square, (f, f))
            kept_entries(oracle, kept)[key] = None if cone is None else \
                PullbackSquare(cone.apex, cone.legs[0], cone.legs[1])
        for f in cat.morphisms:
            assert is_effective_epi(cat, f) == is_effective_epi(oracle, f), (name, f)
            assert image_factorization_abstract(cat, f) \
                == image_factorization_abstract(oracle, f), (name, f)


def test_pullback_examples():
    # f along itself in a poset: the idempotent meet
    assert pullback(DIAMOND, 7, 7).apex == 1
    assert pullback(DIAMOND, 7, 8).apex == 0
    # pullback of an identity along h is the domain of h with an identity leg
    square = pullback(DIAMOND, 3, 7)  # id_1 along a_to_1
    assert square.apex == 1 and square.to_right == DIAMOND.identity[1]


def test_pullback_determinism():
    first = pullback(DIAMOND, 7, 8)
    again = pullback(DIAMOND, 7, 8)
    assert first == again


def test_subobject_lattices():
    point = subobject_lattice(POINT, 0)
    assert point.representatives == (0,)
    top = subobject_lattice(DIAMOND, 3)
    assert len(top.representatives) == 4
    assert {DIAMOND.dom[r] for r in top.representatives} == {0, 1, 2, 3}
    mid = subobject_lattice(DIAMOND, 1)
    assert len(mid.representatives) == 2


def test_extremal_epi_family():
    assert is_extremal_epi_family(DIAMOND, 0, [])        # strict initial
    assert not is_extremal_epi_family(DIAMOND, 3, [])    # 1 has proper subobjects
    assert is_extremal_epi_family(DIAMOND, 3, [7, 8])
    assert not is_extremal_epi_family(DIAMOND, 3, [7])
    with pytest.raises(ValueError):
        is_extremal_epi_family(DIAMOND, 3, [1])


def test_extremal_epi_family_monotone():
    for name, site in ALL_SITES.items():
        cat = site.cat
        for y in cat.objects:
            arrows = cat.into(y)
            for k in range(min(len(arrows), 3)):
                for legs in itertools.combinations(arrows, k):
                    if not is_extremal_epi_family(cat, y, legs):
                        continue
                    for extra in arrows:
                        assert is_extremal_epi_family(cat, y, set(legs) | {extra}), \
                            (name, y, legs, extra)


def test_strict_initial():
    assert strict_initial(DIAMOND) == 0
    assert strict_initial(POINT) == 0
    assert strict_initial(ARROW) == 0  # s
    assert strict_initial(discrete2_category()) is None


def test_effective_epi_in_posets_only_identities():
    for f in DIAMOND.morphisms:
        assert is_effective_epi(DIAMOND, f) == DIAMOND.is_identity(f)


def test_abstract_image_factorization_in_poset():
    # kernel pair is (id, id), its coequalizer the identity: (id, f) always
    for f in DIAMOND.morphisms:
        q, m = image_factorization_abstract(DIAMOND, f)
        assert DIAMOND.is_identity(q) and m == f


def test_abstract_image_factorization_absent_without_kernel_pair():
    fork = fork_category()
    assert pullback(fork, 5, 5) is None
    assert image_factorization_abstract(fork, 5) is None
    assert not is_effective_epi(fork, 5)


def test_identity_factorization():
    q, m = image_factorization_abstract(DIAMOND, DIAMOND.identity[1])
    assert DIAMOND.is_identity(q) and DIAMOND.is_identity(m)


def test_pointwise_image_factorization_laws():
    cat = DIAMOND
    presheaves = [p for p in enumerate_presheaves(cat, 2)][:40]
    checked = 0
    for src in presheaves:
        for tgt in presheaves:
            for alpha in itertools.islice(all_nat_transformations(src, tgt), 4):
                epi, image, mono = image_factorization_pointwise(alpha)
                assert check_nat(epi) and check_nat(mono)
                for x in cat.objects:
                    assert set(epi.components[x]) == set(image.carrier(x))
                    assert len(set(mono.components[x])) == image.sizes[x]
                    composite = tuple(mono.components[x][v]
                                      for v in epi.components[x])
                    assert composite == alpha.components[x]
                checked += 1
    assert checked > 50


def test_pointwise_image_on_model_maps():
    site = fixtures.load_site("diamond")
    models = [m.functor for m in enumerate_models(site, ModelBound(1))]
    for m in models:
        for n in models:
            for alpha in all_nat_transformations(m, n):
                epi, image, mono = image_factorization_pointwise(alpha)
                assert all(set(epi.components[x]) == set(image.carrier(x))
                           for x in site.cat.objects)


def test_terminal_objects():
    assert terminal_object(DIAMOND) == 3
    assert terminal_object(POINT) == 0
    assert terminal_object(discrete2_category()) is None
