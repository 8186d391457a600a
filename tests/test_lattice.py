"""Distributive lattices: both powerset-embedding routes and their laws."""

import itertools

import pytest
from hypothesis import given, settings

from finsite.lattice import (FinLattice, InconclusiveError,
                             NonDistributiveError, _canonical_form,
                             _lattice_of, _posets_within, birkhoff_embed,
                             distributive_catalogue, downset_lattice,
                             has_forbidden_sublattice, is_distributive,
                             join_irreducibles, lattice_site, m3, model_embed,
                             n5, validate_lattice)
from finsite.site import validate_site

from helpers import (complements, downset_count, is_2_distributive_identity,
                     leafwise_distributive_catalogue, natural_posets, posets,
                     slow_canonical_form, slow_distributive_catalogue)


def chain(n):
    return FinLattice(tuple(tuple(i <= j for j in range(n)) for i in range(n)))


def diamond_lattice():
    leq = [[i == j for j in range(4)] for i in range(4)]
    for k in range(4):
        leq[0][k] = True
        leq[k][3] = True
    return FinLattice(tuple(tuple(r) for r in leq), ("bot", "a", "b", "top"))


def incomparable_pairs(lat):
    return [(a, b) for a in lat.elements for b in lat.elements
            if a < b and not lat.leq[a][b] and not lat.leq[b][a]]


def test_validate_and_distributivity_basics():
    assert validate_lattice(chain(2)) == []
    assert is_distributive(chain(2))
    assert not is_distributive(m3())
    assert not is_distributive(n5())
    assert validate_lattice(m3()) == [] and validate_lattice(n5()) == []


def test_distributivity_matches_forbidden_sublattice_oracle():
    samples = distributive_catalogue(6) + [m3(), n5()]
    for lat in samples:
        assert is_distributive(lat) == (not has_forbidden_sublattice(lat))


def test_two_distributive_identity_on_powerset():
    cube = downset_lattice(3, [])  # 2^3 as downsets of the 3-antichain
    assert all(c is not None for c in complements(cube))
    elements_as_sets = {a: frozenset(
        i for i in range(3) if cube.leq[_atom(cube, i)][a])
        for a in cube.elements}
    for size in range(4):
        for pairs in itertools.islice(
                itertools.combinations(
                    itertools.product(cube.elements, repeat=2), size), 40):
            lhs_set = frozenset(range(3))
            for b0, b1 in pairs:
                lhs_set &= elements_as_sets[b0] | elements_as_sets[b1]
            rhs_set = frozenset()
            for h in itertools.product((0, 1), repeat=len(pairs)):
                meet = frozenset(range(3))
                for (b0, b1), bit in zip(pairs, h):
                    meet &= elements_as_sets[(b0, b1)[bit]]
                rhs_set |= meet
            assert is_2_distributive_identity(cube, pairs) == (lhs_set == rhs_set)
            assert is_2_distributive_identity(cube, pairs)


def _atom(lat, i):
    """The i-th atom of a downset lattice of an antichain."""
    atoms = [a for a in lat.elements
             if lat.leq[lat.bottom][a] and a != lat.bottom
             and all(not (lat.leq[b][a] and b not in (lat.bottom, a))
                     for b in lat.elements)]
    return atoms[i]


def test_two_distributive_identity_on_two_element_lattice():
    two = chain(2)
    assert is_distributive(two)
    assert is_2_distributive_identity(two, [(0, 1)])
    assert is_2_distributive_identity(two, [])


def test_identity_requires_complements():
    with pytest.raises(ValueError):
        is_2_distributive_identity(chain(3), [(0, 2)])


def test_birkhoff_on_two_element_lattice():
    emb = birkhoff_embed(chain(2))
    assert emb.points == (1,)
    assert emb.images == (frozenset(), frozenset({1}))


def test_birkhoff_on_diamond_with_prescribed_join():
    lat = diamond_lattice()
    emb = birkhoff_embed(lat, [(1, 2)])
    assert set(emb.points) == {1, 2}
    assert emb.images == (frozenset(), frozenset({1}), frozenset({2}),
                          frozenset({1, 2}))
    assert emb.verify(lat, [(1, 2)]) == []


def test_birkhoff_on_chain_is_an_order_embedding():
    lat = chain(4)
    emb = birkhoff_embed(lat)
    assert emb.verify(lat, []) == []
    for a in lat.elements:
        for b in lat.elements:
            assert (emb.images[a] <= emb.images[b]) == lat.leq[a][b]


def test_birkhoff_rejects_non_distributive():
    for bad in (m3(), n5()):
        with pytest.raises(NonDistributiveError):
            birkhoff_embed(bad)
        with pytest.raises(NonDistributiveError):
            model_embed(bad)


def test_lattice_site_validates():
    lat = diamond_lattice()
    site = lattice_site(lat, [(1, 2)])
    assert validate_site(site) == []


def test_model_embed_two_element():
    emb = model_embed(chain(2))
    assert len(emb.points) == 1
    assert emb.images == (frozenset(), frozenset(emb.points))


def test_model_embed_diamond_matches_birkhoff_shape():
    lat = diamond_lattice()
    prescribed = [(1, 2)]
    by_models = model_embed(lat, prescribed)
    by_irreducibles = birkhoff_embed(lat, prescribed)
    assert by_models.verify(lat, prescribed) == []
    # the two routes induce order-isomorphic images
    for a in lat.elements:
        for b in lat.elements:
            assert (by_models.images[a] <= by_models.images[b]) \
                == (by_irreducibles.images[a] <= by_irreducibles.images[b])


def test_model_embed_inconclusive_on_zero_budget():
    with pytest.raises(InconclusiveError):
        model_embed(diamond_lattice(), [(1, 2)], budget=1)


def test_catalogue_has_thirteen_lattices_up_to_six_elements():
    catalogue = distributive_catalogue(6)
    assert len(catalogue) == 13
    assert sorted(lat.n for lat in catalogue) \
        == [1, 2, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 6]
    assert all(is_distributive(lat) for lat in catalogue)


def test_catalogue_has_twenty_one_lattices_up_to_seven_elements():
    catalogue = distributive_catalogue(7)
    sizes = [lat.n for lat in catalogue]
    assert {n: sizes.count(n) for n in set(sizes)} \
        == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8}  # OEIS A006982
    assert all(is_distributive(lat) for lat in catalogue)


def test_canonical_form_matches_brute_force_on_lattices():
    for lat in distributive_catalogue(7) + [m3(), n5()]:
        assert _canonical_form(lat) == slow_canonical_form(lat), lat.leq


@settings(max_examples=60, deadline=None)
@given(posets(6))
def test_canonical_form_matches_brute_force_on_posets(leq):
    lat = FinLattice(tuple(tuple(row) for row in leq))
    assert _canonical_form(lat) == slow_canonical_form(lat)


@pytest.mark.parametrize("max_size", range(1, 8))
def test_catalogue_matches_brute_force_in_order(max_size):
    assert [lat.leq for lat in distributive_catalogue(max_size)] \
        == [lat.leq for lat in slow_distributive_catalogue(max_size)]


@pytest.mark.parametrize("max_size", range(1, 9))
def test_catalogue_matches_leafwise_oracle_in_order(max_size):
    assert [lat.leq for lat in distributive_catalogue(max_size)] \
        == [lat.leq for lat in leafwise_distributive_catalogue(max_size)]


def test_column_cut_keeps_exactly_the_posets_that_fit():
    for n_points in range(7):
        oracle = [tuple(below) for _, below in natural_posets(n_points)]
        for max_size in range(9):
            fits = {below for below in oracle
                    if downset_count(below, max_size) <= max_size}
            leaves = list(_posets_within(n_points, max_size))
            assert len(leaves) == len(fits)
            assert {below for below, _ in leaves} == fits
            for below, downsets in leaves:
                assert len(downsets) == downset_count(below, max_size)


def test_catalogue_sizes_follow_a006982_up_to_twelve():
    sizes = [lat.n for lat in distributive_catalogue(12)]
    assert {n: sizes.count(n) for n in set(sizes)} == {
        1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 8, 8: 15, 9: 26, 10: 47,
        11: 82, 12: 151}


def test_lattice_from_masks_is_the_downset_lattice_of_its_poset():
    max_size = 9
    least = {}
    for n_points in range(max_size):
        pairs = [(i, j) for i in range(n_points)
                 for j in range(i + 1, n_points)]
        for below, downsets in _posets_within(n_points, max_size):
            relation = [(i, j) for i, j in pairs if below[j] >> i & 1]
            lat = downset_lattice(n_points, relation)
            assert _lattice_of(downsets) == lat
            key = (lat.n, _canonical_form(lat))
            bits = [(i, j) in relation for i, j in pairs]
            if key not in least or bits < least[key][0]:
                least[key] = bits, lat
    assert distributive_catalogue(max_size) \
        == [least[key][1] for key in sorted(least)]


def test_both_routes_verify_on_the_whole_catalogue():
    for lat in distributive_catalogue(6):
        prescribed = [tuple(p) for p in incomparable_pairs(lat)]
        for emb in (birkhoff_embed(lat, prescribed),
                    model_embed(lat, prescribed)):
            assert emb.verify(lat, prescribed) == [], lat.leq


def test_join_irreducibles_of_chain():
    assert join_irreducibles(chain(4)) == [1, 2, 3]
