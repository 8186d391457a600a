"""Category-kernel laws: validation, hom partitions, mono/epi, naturality."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fixtures
from finsite.fincat import (COVARIANT, UNDEFINED, FinCategory, NatTransData,
                            SetValuedFunctor, all_nat_transformations, check_nat,
                            compatible_families, constant_singleton, hom_set,
                            identity_nat, is_epi, is_mono, make_category,
                            nat_via_limit, op_category, order_closure,
                            poset_category, validate_category)
from finsite.models import (ModelBound, enumerate_lex_functors, enumerate_models,
                            enumerate_set_functors)

from helpers import (boolean_leq, equalized_fork_category, fork_category,
                     involution_category, iso_pair_category, left_zero_monoid,
                     posets, slow_all_nat_transformations, slow_nat_via_limit,
                     slow_validate_category)

POINT = fixtures.load_site("point").cat
DIAMOND = fixtures.load_site("diamond").cat
ALL_SITES = fixtures.all_sites()


def test_fixtures_validate():
    for name, site in ALL_SITES.items():
        assert validate_category(site.cat) == [], name


def test_point_with_redirected_comp_reports_closure():
    bad = FinCategory(dom=(0,), cod=(0,), identity=(0,), comp=((7,),))
    report = validate_category(bad)
    assert any("comp not closed" in line for line in report)


def _mutate(cat: FinCategory, **changes) -> FinCategory:
    fields = dict(dom=cat.dom, cod=cat.cod, identity=cat.identity, comp=cat.comp,
                  obj_names=cat.obj_names, mor_names=cat.mor_names)
    fields.update(changes)
    return FinCategory(**fields)


def test_five_mutations_each_name_a_law():
    monoid = left_zero_monoid()
    assert validate_category(monoid) == []

    comp = [list(row) for row in monoid.comp]
    comp[1][1] = 9  # a ∘ a points outside the morphism list
    assert any("comp not closed" in v for v in validate_category(
        _mutate(monoid, comp=tuple(tuple(r) for r in comp))))

    comp = [list(row) for row in monoid.comp]
    comp[0][1] = 2  # id ∘ a redirected to b
    assert any("identity law" in v for v in validate_category(
        _mutate(monoid, comp=tuple(tuple(r) for r in comp))))

    comp = [list(row) for row in monoid.comp]
    comp[1][1] = 2  # a ∘ a = b breaks (a∘a)∘a = a∘(a∘a)
    assert any("associativity" in v for v in validate_category(
        _mutate(monoid, comp=tuple(tuple(r) for r in comp))))

    comp = [list(row) for row in DIAMOND.comp]
    comp = [list(row) for row in comp]
    comp[1][2] = 1  # id_a ∘ id_b is not composable
    assert any("non-composable" in v for v in validate_category(
        _mutate(DIAMOND, comp=tuple(tuple(r) for r in comp))))

    comp = [list(row) for row in DIAMOND.comp]
    comp[7][1] = UNDEFINED  # erase a_to_1 ∘ id_a
    assert any("comp missing" in v for v in validate_category(
        _mutate(DIAMOND, comp=tuple(tuple(r) for r in comp))))


def _one_entry_changed(cat: FinCategory):
    """Every table with one comp entry, one identity or one dom/cod entry of
    ``cat`` replaced by another value in or just out of range."""
    n, values = cat.n_morphisms, (UNDEFINED, *range(cat.n_morphisms + 1))
    for g, f in itertools.product(range(n), repeat=2):
        for h in values:
            if h != cat.comp[g][f]:
                comp = [list(row) for row in cat.comp]
                comp[g][f] = h
                yield _mutate(cat, comp=tuple(tuple(row) for row in comp))
    for x in cat.objects:
        for i in range(n + 1):
            if i != cat.identity[x]:
                identity = list(cat.identity)
                identity[x] = i
                yield _mutate(cat, identity=tuple(identity))
    for name in ("dom", "cod"):
        for f in range(n):
            for x in range(cat.n_objects + 1):
                if x != getattr(cat, name)[f]:
                    table = list(getattr(cat, name))
                    table[f] = x
                    yield _mutate(cat, **{name: tuple(table)})


def test_validation_reports_match_the_all_triples_scan():
    """Listing only composable triples gives the reports of the scan over
    all triples, in the same order, on valid tables and on every table with
    one entry changed."""
    cats = [site.cat for site in ALL_SITES.values()]
    cats += [fork_category(), equalized_fork_category(), involution_category(),
             iso_pair_category(), left_zero_monoid(), poset_category(boolean_leq(3))]
    for cat in cats:
        assert validate_category(cat) == slow_validate_category(cat) == []
    laws = set()
    for cat in cats[:-1]:
        for broken in _one_entry_changed(cat):
            report = validate_category(broken)
            assert report == slow_validate_category(broken), broken
            laws.update(line.split(" at ")[0] for line in report if " at " in line)
    assert {"associativity fails", "left identity law fails",
            "right identity law fails", "comp not closed"} <= laws


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=5), st.data())
def test_validation_reports_match_on_random_posets_with_a_changed_entry(leq, data):
    cat = poset_category(leq)
    assert validate_category(cat) == slow_validate_category(cat) == []
    comp = [list(row) for row in cat.comp]
    n = cat.n_morphisms
    g, f = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    comp[g][f] = data.draw(st.integers(UNDEFINED, n))
    broken = _mutate(cat, comp=tuple(tuple(row) for row in comp))
    assert validate_category(broken) == slow_validate_category(broken)


def test_hom_set_examples():
    assert hom_set(POINT, 0, 0) == [0]
    assert hom_set(DIAMOND, 0, 1) == [4]   # the unique arrow 0 -> a
    assert hom_set(DIAMOND, 1, 0) == []
    with pytest.raises(ValueError):
        hom_set(DIAMOND, 0, 17)


def test_hom_sets_partition_morphisms():
    for name, site in ALL_SITES.items():
        cat = site.cat
        seen = []
        for x in cat.objects:
            for y in cat.objects:
                seen.extend(hom_set(cat, x, y))
        assert sorted(seen) == list(cat.morphisms), name


def test_mono_epi_against_cancellation_scan():
    for name, site in ALL_SITES.items():
        cat = site.cat
        for f in cat.morphisms:
            mono = all(
                g == h
                for w in cat.objects
                for g in cat.hom(w, cat.dom[f]) for h in cat.hom(w, cat.dom[f])
                if cat.comp[f][g] == cat.comp[f][h])
            epi = all(
                g == h
                for w in cat.objects
                for g in cat.hom(cat.cod[f], w) for h in cat.hom(cat.cod[f], w)
                if cat.comp[g][f] == cat.comp[h][f])
            assert is_mono(cat, f) == mono, (name, f)
            assert is_epi(cat, f) == epi, (name, f)


def test_poset_morphisms_are_mono_and_identity_is_mono():
    for f in DIAMOND.morphisms:
        assert is_mono(DIAMOND, f) and is_epi(DIAMOND, f)
    assert is_mono(POINT, 0)


def test_coequalizing_arrow_is_not_mono():
    fork = fork_category()
    assert validate_category(fork) == []
    assert not is_mono(fork, 5)  # q merges the parallel pair
    assert is_mono(fork, 3) and is_mono(fork, 4)


def test_check_nat_identity_and_forced_violation():
    site = fixtures.load_site("diamond")
    full = enumerate_models(site, ModelBound(1))[2].functor
    assert check_nat(identity_nat(full))
    # two-point carriers on ARROW: swapping one component breaks the square
    arrow = fixtures.load_site("arrow").cat
    from finsite.fincat import COVARIANT, SetValuedFunctor
    two = SetValuedFunctor(arrow, COVARIANT, (2, 2), ((0, 1), (0, 1), (0, 1)))
    assert check_nat(identity_nat(two))
    swapped = NatTransData(two, two, ((1, 0), (0, 1)))
    assert not check_nat(swapped)


def test_check_nat_agrees_with_raw_square_scan():
    site = fixtures.load_site("diamond")
    models = [m.functor for m in enumerate_models(site, ModelBound(1))]
    cat = site.cat
    for m in models:
        for n in models:
            for components in itertools.product(
                    *[list(itertools.product(range(n.sizes[x]), repeat=m.sizes[x]))
                      for x in cat.objects]):
                alpha = NatTransData(m, n, components)
                raw = all(
                    n.action[f][components[cat.dom[f]][e]]
                    == components[cat.cod[f]][m.action[f][e]]
                    for f in cat.morphisms for e in m.carrier(cat.dom[f]))
                assert check_nat(alpha) == raw


def test_check_nat_raises_on_missing_component():
    site = fixtures.load_site("diamond")
    full = enumerate_models(site, ModelBound(1))[2].functor
    with pytest.raises(ValueError):
        check_nat(NatTransData(full, full, ((0,), (0,), (0,))))


def test_brute_force_nat_enumeration_matches_filter():
    site = fixtures.load_site("diamond")
    models = [m.functor for m in enumerate_models(site, ModelBound(1))]
    counts = [[len(list(all_nat_transformations(m, n))) for n in models]
              for m in models]
    assert counts == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]


def _assert_nat_matches_the_oracles(functors, label):
    """Nat and lim over ∫M, lists in order, against the brute forces on
    every ordered pair of ``functors``."""
    for m in functors:
        for n in functors:
            assert list(all_nat_transformations(m, n)) \
                == list(slow_all_nat_transformations(m, n)), label
            assert nat_via_limit(m, n) == slow_nat_via_limit(m, n), label


NON_THIN = {"fork": fork_category, "equalized_fork": equalized_fork_category,
            "involution": involution_category, "iso_pair": iso_pair_category,
            "left_zero_monoid": left_zero_monoid}


def test_nat_matches_the_brute_force_on_lex_functor_pairs():
    cats = {name: site.cat for name, site in ALL_SITES.items()}
    cats.update((name, make()) for name, make in NON_THIN.items())
    for name, cat in cats.items():
        _assert_nat_matches_the_oracles(enumerate_lex_functors(cat, 3), name)
    # the left-zero monoid has no lex functor: take every functor there
    for name in ("involution", "iso_pair", "left_zero_monoid"):
        functors = list(enumerate_set_functors(NON_THIN[name](), 2))
        assert functors, name
        _assert_nat_matches_the_oracles(functors, name)


@settings(max_examples=25, deadline=None)
@given(posets(max_objects=5))
def test_nat_matches_the_brute_force_on_random_posets(leq):
    _assert_nat_matches_the_oracles(enumerate_lex_functors(poset_category(leq), 2), leq)


def test_nat_out_of_a_large_carrier_needs_no_recursion_per_element():
    cat = make_category(1, [], {})
    big = SetValuedFunctor(cat, COVARIANT, (1500,), (tuple(range(1500)),))
    only = list(all_nat_transformations(big, constant_singleton(cat)))
    assert [alpha.components for alpha in only] == [((0,) * 1500,)]


@st.composite
def equation_systems(draw):
    """Domains of up to five variables and equations v[j] = row[v[i]] among
    them, self-equations included."""
    domains = draw(st.lists(st.integers(0, 3), max_size=5))
    equations = []
    if domains:
        ends = st.integers(0, len(domains) - 1)
        for i, j in draw(st.lists(st.tuples(ends, ends), max_size=6)):
            if domains[i] and not domains[j]:
                continue  # no function into an empty domain
            row = draw(st.lists(st.integers(0, max(domains[j] - 1, 0)),
                                min_size=domains[i], max_size=domains[i]))
            equations.append((i, tuple(row), j))
    return domains, equations


@settings(max_examples=200, deadline=None)
@given(equation_systems())
def test_compatible_families_is_the_filtered_product(system):
    domains, equations = system
    expected = [v for v in itertools.product(*map(range, domains))
                if all(v[j] == row[v[i]] for i, row, j in equations)]
    assert compatible_families(domains, equations) == expected


def test_op_category_involutive_and_valid():
    for name, site in ALL_SITES.items():
        cat = site.cat
        assert validate_category(op_category(cat)) == [], name
        assert op_category(op_category(cat)) == cat, name


@settings(max_examples=25, deadline=None)
@given(posets(max_objects=5))
def test_random_posets_validate(leq):
    assert validate_category(poset_category(leq)) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                   st.integers(0, max(n - 1, 0))),
                         max_size=12 if n else 0))))
def test_order_closure_is_reachability(case):
    n, pairs = case
    leq = order_closure(n, pairs)
    for i in range(n):
        reached, frontier = {i}, [i]
        while frontier:
            k = frontier.pop()
            for a, b in pairs:
                if a == k and b not in reached:
                    reached.add(b)
                    frontier.append(b)
        assert leq[i] == [j in reached for j in range(n)], (pairs, i)


def test_category_hash_is_taken_once_and_equality_stays_structural():
    cat = poset_category([[a & b == a for b in range(8)] for a in range(8)])
    twin = dataclasses.replace(cat)
    assert "_hash" not in vars(cat)
    assert hash(cat) == hash(twin) == hash(
        (cat.dom, cat.cod, cat.identity, cat.comp, cat.obj_names, cat.mor_names))
    vars(cat)["_hash"] = 12345  # a second hash reads the stored value
    assert hash(cat) == 12345
    assert cat == twin and hash(twin) != 12345
    assert cat != dataclasses.replace(cat, obj_names=tuple("abcdefgh"))
