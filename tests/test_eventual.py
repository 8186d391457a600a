"""The lex-functor category over its Nat table, delta certificates, ev colimits."""

import dataclasses
import json
from collections import Counter

import pytest

from finsite import eventual, fincat, fixtures
from finsite.cli import main
from finsite.eventual import (BoundTooSmallError, NatTable, build_ctilde, delta,
                              delta_iso_check, eta_component_check)
from finsite.fincat import (COVARIANT, SetValuedFunctor, constant_singleton,
                            covariant_representable, nat_via_limit, validate_category)
from finsite.models import (ModelBound, enumerate_lex_functors, enumerate_models,
                            preserves_covers)

from helpers import (KeptCompositesTable, ctilde_category, ctilde_phi_mor,
                     equalized_fork_category, fork_category, involution_category,
                     iso_pair_category, slow_enumerate_functors, slow_ev_colimit_holds,
                     slow_is_lex, top_covered_site)
from record_cli_documents import fixture_path, write_sites

ALL_SITES = fixtures.all_sites()
DIAMOND_SITE = ALL_SITES["diamond"]
DIAMOND = DIAMOND_SITE.cat
POINT_SITE = ALL_SITES["point"]


def test_point_ctilde_has_one_object():
    ct = build_ctilde(POINT_SITE, ModelBound(1))
    assert len(ct.functors) == 1
    assert validate_category(ctilde_category(ct)) == []


def test_diamond_lex_functor_count_matches_slow_oracle():
    fast = enumerate_lex_functors(DIAMOND, 1)
    slow = [fn for fn in slow_enumerate_functors(DIAMOND, 1)
            if slow_is_lex(DIAMOND, fn)]
    assert len(fast) == len(slow) == 4
    assert set(fast) == set(slow)


def test_diamond_ctilde_contains_all_representables():
    ct = build_ctilde(DIAMOND_SITE, ModelBound(1))
    assert len(ct.functors) == 4
    assert validate_category(ctilde_category(ct)) == []
    for x in DIAMOND.objects:
        rep = covariant_representable(DIAMOND, x)
        assert ct.functors[ct.phi_obj[x]] == rep


def test_phi_is_full_and_faithful_by_hom_counts():
    for name in ("point", "arrow", "diamond", "wide5"):
        site = ALL_SITES[name]
        cat = site.cat
        ct = build_ctilde(site, ModelBound(1))
        category = ctilde_category(ct)
        for x in cat.objects:
            for y in cat.objects:
                base = len(cat.hom(x, y))
                image = len(category.hom(ct.phi_obj[x], ct.phi_obj[y]))
                assert base == image, (name, x, y)


def test_phi_preserves_composition():
    ct = build_ctilde(DIAMOND_SITE, ModelBound(1))
    category, phi_mor = ctilde_category(ct), ctilde_phi_mor(ct)
    for g in DIAMOND.morphisms:
        for f in DIAMOND.morphisms:
            if DIAMOND.cod[f] != DIAMOND.dom[g]:
                continue
            assert category.comp[phi_mor[g]][phi_mor[f]] == phi_mor[DIAMOND.comp[g][f]]


def test_bound_too_small_is_reported():
    # hom(s, t) in ARROW has one element, so bound 1 suffices; force failure
    # with a site whose representables need two points: the fork has none,
    # so instead drop the bound to zero-like by removing the representable.
    ct = build_ctilde(POINT_SITE, ModelBound(1))
    other = constant_singleton(DIAMOND)
    with pytest.raises(BoundTooSmallError):
        delta(ct, other)


def test_delta_on_representables_is_phi():
    ct = build_ctilde(DIAMOND_SITE, ModelBound(1))
    for x in DIAMOND.objects:
        result = delta(ct, covariant_representable(DIAMOND, x))
        assert result.object_index == ct.phi_obj[x]
        assert result.certified, result.failures


def test_delta_certified_for_all_models():
    for name in ("point", "arrow", "diamond", "chain3", "wide5", "diamond_empty"):
        site = ALL_SITES[name]
        ct = build_ctilde(site, ModelBound(1))
        for model in enumerate_models(site, ModelBound(1)):
            result = delta(ct, model.functor)
            assert result.certified, (name, result.failures)


def test_delta_iso_check_on_all_diamond_pairs():
    models = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(1))]
    assert len(models) == 3
    table = NatTable(models)
    for i in range(len(models)):
        for j in range(len(models)):
            assert delta_iso_check(table, i, j)


def test_delta_iso_check_is_natural_along_a_swap():
    """On one object, the two-point set has the swap as an automorphism:
    precomposing with it moves the elements of ∫M out of ascending order."""
    cat = POINT_SITE.cat
    two = SetValuedFunctor(cat, COVARIANT, (2,), ((0, 1),))
    one = constant_singleton(cat)
    table = NatTable([two, one])
    for i, m in enumerate(table.functors):
        for j, n in enumerate(table.functors):
            assert delta_iso_check(table, i, j), (m.sizes, n.sizes)


def test_delta_iso_yoneda_case():
    models = [m.functor for m in enumerate_models(DIAMOND_SITE, ModelBound(1))]
    for x in DIAMOND.objects:
        table = NatTable([covariant_representable(DIAMOND, x)] + models)
        for k, n in enumerate(models, start=1):
            nats, families, pairing = table.hom(0, k), table.limit(0, k), table.pairing(0, k)
            assert len(nats) == n.sizes[x]  # Yoneda
            assert pairing is not None and len(families) == len(nats)


def test_eta_component_check_point():
    models = [m.functor for m in enumerate_models(POINT_SITE, ModelBound(1))]
    assert eta_component_check(POINT_SITE, models) == {0: True}


def test_eta_component_check_all_fixtures():
    for name, site in ALL_SITES.items():
        models = [m.functor for m in enumerate_models(site, ModelBound(1))]
        report = eta_component_check(site, models)
        assert all(report.values()), (name, report)


INVOLUTION_SITE = top_covered_site(involution_category(), "T")
FORK_SITE = top_covered_site(fork_category(), "z")
EQUALIZED_FORK_SITE = top_covered_site(equalized_fork_category(), "z")
ISO_PAIR_SITE = top_covered_site(iso_pair_category(), "T")
ETA_SITES = dict(ALL_SITES, fork=FORK_SITE, equalized_fork=EQUALIZED_FORK_SITE,
                 involution=INVOLUTION_SITE, iso_pair=ISO_PAIR_SITE)


@pytest.mark.parametrize("name, bound", [
    *((name, bound) for name in ETA_SITES for bound in (1, 2, 3)), ("involution", 4)])
def test_eta_certificate_is_the_union_find_colimit(name, bound):
    """The closure certificate agrees at every object with the colimit
    glued by union-find over every target."""
    site = ETA_SITES[name]
    models = [m.functor for m in enumerate_models(site, ModelBound(bound))]
    table = KeptCompositesTable(models)
    slow = {v: all(slow_ev_colimit_holds(table, v, t) for t in range(len(models)))
            for v in site.cat.objects}
    assert eta_component_check(site, models) == slow, (name, bound)


class _Dropping(NatTable):
    """A table whose hom set at one pair lacks its first transformation."""

    def __init__(self, functors, pair):
        super().__init__(functors)
        self.pair = pair

    def hom(self, i, j):
        hom = super().hom(i, j)
        return hom[1:] if (i, j) == self.pair else hom


def test_a_dropped_transformation_fails_delta_and_delta_iso_check():
    ct = build_ctilde(INVOLUTION_SITE, ModelBound(2))
    point = next(fn for fn in ct.functors if fn.sizes == (1, 1))
    i = ct.functors.index(point)
    assert i not in ct.phi_obj  # no phi arrow lies in its hom sets
    assert delta_iso_check(ct.table, i, i)
    assert delta(ct, point).certified
    broken = dataclasses.replace(ct, table=_Dropping(ct.functors, (i, i)))
    assert not delta_iso_check(broken.table, i, i)
    assert f"universal property fails against object {i}" in delta(broken, point).failures


def _drop_the_point(functors):
    """The table of ``functors`` without the identity of the one-point
    functor, the only transformation in its hom set."""
    i = next(i for i, fn in enumerate(functors) if set(fn.sizes) == {1})
    return _Dropping(functors, (i, i))


def test_a_dropped_transformation_fails_eta_component_check(monkeypatch, tmp_path,
                                                           capsys):
    models = [m.functor for m in enumerate_models(INVOLUTION_SITE, ModelBound(2))]
    assert eta_component_check(INVOLUTION_SITE, models) == {0: True, 1: True}
    monkeypatch.setattr(eventual, "NatTable", _drop_the_point)
    assert eta_component_check(INVOLUTION_SITE, models) == {0: False, 1: False}
    path = write_sites(tmp_path)["involution.site"]
    capsys.readouterr()
    assert main(["eta-check", path, "--bound", "2", "--json"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["all_pass"] is False
    assert result["ev_colimit_per_object"] == {"x": False, "T": False}


@pytest.mark.parametrize("argv", [
    ["delta-check", "--bound", "3"], ["eta-check", "--bound", "3"]])
def test_one_run_enumerates_each_hom_set_at_most_once(monkeypatch, tmp_path,
                                                     capsys, argv):
    """Every solve of lim over ∫F_i of F_j, under either name, is counted:
    one run solves each ordered pair of functors at most once."""
    calls = Counter()

    def counted(src, tgt):
        calls[src, tgt] += 1
        return nat_via_limit(src, tgt)
    monkeypatch.setattr(fincat, "nat_via_limit", counted)
    monkeypatch.setattr(eventual, "nat_via_limit", counted)
    paths = write_sites(tmp_path)
    for path in [paths["involution.site"], paths["fork.site"], fixture_path("wide5.site")]:
        calls.clear()
        assert main([argv[0], path, *argv[1:]]) == 0
        assert calls and max(calls.values()) == 1, path
    capsys.readouterr()


def test_models_taken_from_ctilde_are_enumerate_models():
    sites = dict(ALL_SITES, involution=INVOLUTION_SITE, fork=FORK_SITE)
    for name, site in sites.items():
        for bound in (1, 2):
            taken = [fn for fn in enumerate_lex_functors(site.cat, bound)
                     if preserves_covers(fn, site)]
            assert taken == [m.functor for m in enumerate_models(site, ModelBound(bound))], \
                (name, bound)
