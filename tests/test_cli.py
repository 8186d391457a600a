"""Text-format round trips, JSON stability, and the exit-code contract."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from finsite import chase, fixtures, lattice
from finsite.cli import COMMANDS, build_parser, main
from finsite.fincat import compose_nat, make_category, representable_presheaf
from finsite.fileformat import (ParseError, ValidationError, parse_document,
                                parse_site, print_site)

from hypothesis import given, settings
from hypothesis import strategies as st

from finsite.fincat import poset_category
from finsite.limits import terminal_object
from finsite.site import Family, SiteSpec, validate_site

from helpers import (boolean_leq, cospan_only_category, discrete2_category,
                     equalized_fork_category, fork_category, involution_category,
                     iso_pair_category, left_zero_monoid, poset_site, posets,
                     random_covers_site, slow_plus, slow_sieve_topology)
from record_cli_documents import (DOCUMENTS, chase_cli_cases, digest,
                                  error_cli_cases, eventual_cli_cases,
                                  factor_cli_cases, models_cli_cases,
                                  topology_cli_cases, write_sites)


def fixture_path(name):
    from importlib import resources
    return str(resources.files("finsite") / "fixtures" / name)


def test_round_trip_all_fixtures():
    for name in fixtures.SITE_NAMES:
        site = fixtures.load_site(name)
        assert parse_site(print_site(site)) == site, name


def test_unnamed_sites_round_trip_through_print_site():
    """Identity legs and identity composites of a category without names
    print as ``id_<object>``, which the parser reads back."""
    chain = poset_category([[True, True], [False, True]])
    sites = [SiteSpec.make(chain, [Family.make(1, [1])]),
             SiteSpec.make(chain, [Family.make(1, [1]), Family.make(1, [1, 2])])]
    # an involution s on object 0 over object 1, with s∘s = id
    involution = make_category(2, [(0, 0), (0, 1)], {(2, 2): 0, (3, 2): 3})
    sites.append(SiteSpec.make(involution, [Family.make(0, [0, 2]),
                                            Family.make(1, [1])]))
    for site in sites:
        text = print_site(site)
        parsed = parse_site(text)
        cat, back = site.cat, parsed.cat
        assert (back.dom, back.cod, back.identity, back.comp) \
            == (cat.dom, cat.cod, cat.identity, cat.comp), text
        assert parsed.covers == site.covers, text
        assert print_site(parsed) == text


def _assert_round_trip(site):
    """A site with an empty ``validate_site`` report parses back equal from
    its printed form; any other raises ``ValidationError`` with the same
    report.  Returns whether the site was valid."""
    report = validate_site(site)
    if not report:
        assert parse_site(print_site(site)) == site
        return True
    with pytest.raises(ValidationError) as err:
        parse_site(print_site(site))
    assert err.value.violations == report
    return False


def _with_terminal_cover(site):
    """The site with the identity cover of its terminal object added, when
    it has one."""
    cat = site.cat
    terminal = terminal_object(cat)
    if terminal is None:
        return site
    return SiteSpec.make(cat, site.covers + (Family.make(terminal, [cat.identity[terminal]]),))


ROUND_TRIP_CATEGORIES = (fork_category, equalized_fork_category, iso_pair_category,
                         involution_category, left_zero_monoid, discrete2_category,
                         cospan_only_category)


def test_round_trip_random_covers_on_non_poset_categories():
    valid = []
    for make in ROUND_TRIP_CATEGORIES:
        for seed in range(8):
            site = random_covers_site(make(), seed)
            valid += [_assert_round_trip(site), _assert_round_trip(_with_terminal_cover(site))]
    assert True in valid and False in valid


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=5), st.integers(min_value=0, max_value=2 ** 32))
def test_round_trip_random_covers_on_random_posets(leq, seed):
    cat = poset_category(leq, tuple(f"p{x}" for x in range(len(leq))))
    site = random_covers_site(cat, seed)
    _assert_round_trip(site)
    _assert_round_trip(_with_terminal_cover(site))


def test_parse_point_from_minimal_text():
    site = parse_site("object X\ncover X <- [id_X]\n")
    assert site.cat.n_objects == 1 and site.cat.n_morphisms == 1


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_site("object X\narrow f : X -> Y\ncover X <- [id_X]")
    assert err.value.line >= 1
    with pytest.raises(ParseError):
        parse_site("arrow f X to Y")


def test_validation_error_for_missing_terminal_cover():
    with pytest.raises(ValidationError) as err:
        parse_site("object X")
    assert any("identity family" in v for v in err.value.violations)


def test_poset_shorthand_closes_the_order_and_rejects_cycles():
    site = parse_site("poset { a < b  b < c }\ncover c <- [id_c]\n")
    names = {site.cat.obj_name(x): x for x in site.cat.objects}
    assert site.cat.hom(names["a"], names["c"]) == (site.cat.mor_names.index("a_to_c"),)
    with pytest.raises(ParseError, match="cycle through 'a'"):
        parse_site("poset { a < b  b < c  c < a }\ncover c <- [id_c]\n")


def _parse_error_line(text):
    with pytest.raises(ParseError) as err:
        parse_site(text)
    assert err.value.column == 1
    return err.value.line


def test_mixing_poset_and_arrows_is_reported_at_the_later_kind():
    assert _parse_error_line(
        "object x\nobject y\nposet { x < y }\narrow f : x -> y\n") == 4
    assert _parse_error_line(
        "object x\nobject y\narrow f : x -> y\n\nposet {\n  x < y\n}\n") == 6


def test_poset_cycle_is_reported_at_the_relation_that_closes_it():
    assert _parse_error_line(
        "# a chain\nposet { a < b }\nposet { b < c }\nposet { c < a }\n") == 4
    assert _parse_error_line(  # inside a block, blank and comment lines count
        "poset {\n  a < b\n\n  # then\n  b < a\n  b < c\n}\n") == 5


def test_duplicate_arrow_name_is_reported_at_the_second_arrow():
    assert _parse_error_line(
        "object x\nobject y\narrow f : x -> y\n\narrow f : y -> x\n") == 5
    assert _parse_error_line("object x\nobject f\narrow f : x -> x\n") == 3


def test_dangling_arrow_endpoint_is_reported_at_its_arrow():
    assert _parse_error_line(
        "object x\narrow f : x -> x\narrow g : x -> y\ncover x <- [id_x]\n") == 3


def test_unknown_morphism_in_compose_is_reported_at_its_line():
    text = ("object x\narrow f : x -> x\ncompose f . f = f\n"
            "compose f . g = f\ncover x <- [id_x]\n")
    assert _parse_error_line(text) == 4


@pytest.mark.parametrize("text, line", [
    # unknown element in a join
    ("lattice {\n elements: a b c\n a < b\n join c <- [a, z]\n}", 4),
    # malformed join
    ("lattice {\n elements: a b\n a < b\n join b a\n}", 4),
    # unknown element in a relation, in a block that starts on line 3
    ("# a comment\n\nlattice {\n elements: a b c\n a < z\n}", 5),
    # content that is not a relation
    ("lattice {\n elements: a b\n a < b\n b ? a\n}", 4),
    # a second elements list
    ("lattice {\n elements: a b\n\n elements: c\n}", 4),
    # a malformed elements list
    ("lattice {\n a < b\n elements: a ?\n}", 3),
    # poset content that is not a relation
    ("poset {\n a < b\n b ? c\n}", 3),
])
def test_block_errors_are_reported_at_their_own_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.line, err.value.column) == (line, 1)


def test_explicit_category_with_compose_facts():
    text = """
object x
object y
object z
arrow f : x -> y
arrow q : y -> z
arrow h : x -> z
compose q . f = h
cover z <- [id_z]
"""
    site = parse_site(text)
    assert site.cat.comp[4][3] == 5  # q ∘ f = h
    assert parse_site(print_site(site)) == site


def test_lattice_document_parses():
    with open(fixture_path("diamond.lat")) as handle:
        lat, prescribed = parse_document(handle.read())
    assert lat.n == 4
    assert prescribed == ((1, 2),)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_check_exit_codes(capsys, tmp_path):
    code, _ = run_cli(capsys, "check", fixture_path("diamond.site"))
    assert code == 0
    bad = tmp_path / "bad.site"
    bad.write_text("object X\ncover Y <- []\n")
    code = main(["check", str(bad)])
    capsys.readouterr()
    assert code == 3


INVALID_DOCUMENTS = {
    "site": ("object X\nobject Y\n", "no terminal object"),
    "lattice": ("lattice {\n  elements: bot a b top\n"
                "  bot < a  bot < b  a < top  b < top\n  join a <- [a, b]\n}\n",
                "declared join"),
}


@pytest.mark.parametrize("kind", sorted(INVALID_DOCUMENTS))
def test_check_reports_validation_failures_as_refuted(capsys, tmp_path, kind):
    """A file that parses but fails validation: ``check`` exits 1 with the
    violations and the digest of the file; every other subcommand still
    treats it as an input error."""
    text, needle = INVALID_DOCUMENTS[kind]
    with pytest.raises(ValidationError) as err:
        parse_document(text)
    path = tmp_path / f"bad.{kind}"
    path.write_text(text)
    code, out = run_cli(capsys, "check", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {
        "command": "check", "input_digest": hashlib.sha256(text.encode()).hexdigest(),
        "result": {"valid": False, "violations": err.value.violations},
        "witnesses": err.value.violations, "timings": {}}
    assert any(needle in v for v in err.value.violations)
    code, out = run_cli(capsys, "check", str(path))
    assert code == 1 and out.startswith('check: {"valid": false, "violations": [')
    command = "models" if kind == "site" else "lattice-embed"
    code, out = run_cli(capsys, command, str(path), "--json")
    assert code == 3 and json.loads(out)["input_digest"] is None


def test_separate_returns_witness_and_exit_one(capsys):
    code, out = run_cli(capsys, "separate", fixture_path("diamond.site"),
                        "--object", "1", "--u", "a", "--v", "b",
                        "--budget", "32", "--json")
    assert code == 1
    document = json.loads(out)
    assert document["command"] == "separate"
    assert document["result"]["verdict"] == "WITNESS"
    assert document["witnesses"][0]["carriers"] == {"0": 0, "1": 1, "a": 1, "b": 0}


def test_separate_contained_exit_zero(capsys):
    code, _ = run_cli(capsys, "separate", fixture_path("diamond.site"),
                      "--object", "1", "--u", "0", "--v", "a")
    assert code == 0


def test_saturate_json_stable_across_runs(capsys):
    code1, out1 = run_cli(capsys, "saturate", fixture_path("point.site"), "--json")
    code2, out2 = run_cli(capsys, "saturate", fixture_path("point.site"), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    document = json.loads(out1)
    assert set(document) == {"command", "input_digest", "result",
                             "witnesses", "timings"}
    assert len(document["result"]["sieves"]["star"]) == 1


def test_saturate_json_on_diamond_is_byte_identical(capsys):
    code1, out1 = run_cli(capsys, "saturate", fixture_path("diamond.site"), "--json")
    code2, out2 = run_cli(capsys, "saturate", fixture_path("diamond.site"), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    document = json.loads(out1)
    assert set(document["timings"]) == {"rounds", "families", "pastings"}
    assert document["timings"]["rounds"] == document["result"]["rounds"] == 2
    assert document["timings"]["families"] == len(document["result"]["families"]) == 8
    assert document["timings"]["pastings"] > 0


def test_sheafify_json_on_every_fixture_object_is_byte_identical(capsys):
    """Two runs print the same bytes, and the document is the one the
    covering-sieve oracles give: a(P) = P⁺⁺ with the composite unit and one
    certified entry per covering sieve."""
    for name in fixtures.SITE_NAMES:
        site = fixtures.load_site(name)
        cat = site.cat
        topology = slow_sieve_topology(site)
        for x in cat.objects:
            argv = ("sheafify", fixture_path(f"{name}.site"),
                    "--object", cat.obj_name(x), "--json")
            code1, out1 = run_cli(capsys, *argv)
            code2, out2 = run_cli(capsys, *argv)
            assert code1 == code2 == 0
            assert out1 == out2, (name, x)
            first = slow_plus(representable_presheaf(cat, x), topology)
            second = slow_plus(first.presheaf, topology)
            sheaf = second.presheaf
            unit = compose_nat(second.unit, first.unit)
            certified = sum(len(topology.covering_sieves(y)) for y in cat.objects)
            assert json.loads(out1)["result"] == {
                "object": cat.obj_name(x),
                "sheaf": {"carriers": {cat.obj_name(y): sheaf.sizes[y] for y in cat.objects},
                          "actions": {cat.mor_name(f): list(sheaf.action[f])
                                      for f in cat.morphisms}},
                "unit": {cat.obj_name(y): list(unit.components[y]) for y in cat.objects},
                "certified_sieves": certified,
            }, (name, x)


def test_separate_json_on_diamond_is_byte_identical(capsys):
    argv = ("separate", fixture_path("diamond.site"), "--object", "1",
            "--u", "a", "--v", "b", "--budget", "32", "--json")
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 1
    assert out1 == out2
    timings = json.loads(out1)["timings"]
    assert "budget" not in timings
    assert timings == {"leaves": 1}
    _, out = run_cli(capsys, "separate", fixture_path("diamond.site"),
                     "--object", "1", "--u", "0", "--v", "a", "--json")
    assert json.loads(out)["timings"] == {"leaves": 0}  # contained by factorization


def test_chase_and_separate_json_match_the_recorded_documents(capsys):
    """``separate --json`` on every subobject pair of every fixture top at
    widths 0 and 1, and ``chase --json`` from every fixture root, print the
    bytes recorded in ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    cases = chase_cli_cases()
    assert sorted(" ".join(case) for case in cases + eventual_cli_cases()
                  + models_cli_cases() + topology_cli_cases()
                  + factor_cli_cases() + error_cli_cases()) == sorted(recorded)
    for case in cases:
        code, out = run_cli(capsys, case[0], fixture_path(case[1]), *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case


def test_delta_and_eta_json_match_the_recorded_documents(capsys, tmp_path):
    """``delta-check --json`` and ``eta-check --json`` on the non-thin
    involution (bounds 1-3, bound 1 too small for a representable), fork and
    equalized fork (bounds 1-3) sites, and on the chain_6 (bound 2) and bool_3
    (bound 1) poset sites, print the bytes recorded in ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    paths = write_sites(tmp_path)
    for case in eventual_cli_cases():
        code, out = run_cli(capsys, case[0], paths[case[1]], *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case
    code, out = run_cli(capsys, "delta-check", paths["involution.site"],
                        "--bound", "1", "--json")
    assert code == 2
    assert json.loads(out)["result"]["detail"] \
        == "representable at x escapes the bound"


def test_thin_models_json_match_the_recorded_documents(capsys, tmp_path):
    """``models --json`` on bool_4, pbool_4 and bool_5 at bound 1 and on
    pbool_3 and chain_6 at bound 2, which take the thin path and its
    product-only lex checks, print the bytes recorded in
    ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    paths = write_sites(tmp_path)
    for case in models_cli_cases():
        code, out = run_cli(capsys, case[0], paths[case[1]], *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case


def test_saturate_and_sheafify_json_match_the_recorded_documents(capsys, tmp_path):
    """``saturate --json`` on every fixture, bool_3, grid_3x4 and pbool_3
    (no pullback of two atoms: exit 3), and ``sheafify --json`` on every
    object of bool_3, bool_4 and the wide5 and diamond fixtures, print the
    bytes recorded in ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    paths = write_sites(tmp_path)
    for case in topology_cli_cases():
        path = paths.get(case[1]) or fixture_path(case[1])
        code, out = run_cli(capsys, case[0], path, *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case


def test_error_json_match_the_recorded_documents(capsys, tmp_path):
    """``check --json`` and ``saturate --json`` on one malformed file per
    ``ParseError`` message (exit 3) and on one that fails validation (check
    exits 1, saturate 3) print the bytes recorded in ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    paths = write_sites(tmp_path)
    for case in error_cli_cases():
        code, out = run_cli(capsys, case[0], paths[case[1]], *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case


def test_factor_json_match_the_recorded_documents(capsys):
    """``factor --json`` for every ordered pair of objects of every fixture,
    which lists Nat(ay(x), ay(x')) in enumeration order, prints the bytes
    recorded in ``cli_documents.json``."""
    recorded = json.loads(DOCUMENTS.read_text())
    cases = factor_cli_cases()
    assert len(cases) == 71
    for case in cases:
        code, out = run_cli(capsys, case[0], fixture_path(case[1]), *case[2:])
        assert {"code": code, "sha256": digest(out)} == recorded[" ".join(case)], case


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", fixture_path("point.site"), "--seed", "1"])
    assert err.value.code == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["check"],                                           # missing file
    ["models", "diamond.site", "--bound", "x"],          # not an integer
    ["frobnicate", "diamond.site"],                      # unknown subcommand
    ["models", "diamond.site", "--frobnicate"],          # unknown flag
])
def test_usage_errors_exit_three_with_usage_on_stderr(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: finsite")


def _parsed(capsys, parser, argv):
    """What parsing argv prints to stdout and stderr, and its exit code or
    the parsed arguments."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, outcome


def _required(command):
    """The required flags of a command, each given the value ``a``."""
    return [word for flag, kwargs in COMMANDS[command][1].items()
            if kwargs.get("required") for word in (flag, "a")]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_reads_its_argv_as_the_full_parser(capsys, command):
    """``main`` builds only the invoked command's subparser; help, the four
    usage errors, an extra argument and a good argv come out byte-identical
    to the parser of every command."""
    one = build_parser(command)
    subparsers = next(action for action in one._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == [command]
    path = fixture_path("diamond.site")
    for argv in ([command, "-h"],
                 [command],                                # missing file
                 [command, path, "--bound", "x"],          # not an integer or unread
                 [command + "x", path],                    # unknown subcommand
                 [command, path, "--frobnicate"],          # unknown flag
                 [command, path, "extra"],
                 [command, path, "--json", "--bound", "2"],
                 [command, path, *_required(command), "--json"]):
        expected = _parsed(capsys, build_parser(), argv)
        assert _parsed(capsys, build_parser(argv[0]), argv) == expected, argv
    _, err, code = _parsed(capsys, one, [command, path, *_required(command),
                                         "--frobnicate"])
    assert code == 3 and "{" + ",".join(COMMANDS) + "}" in err  # every command


SHARED_FLAGS = {"--bound": ("2", 2), "--budget": ("5", 5), "--width": ("3", 3),
                "--strategy": ("choices=0,1", "choices=0,1")}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_takes_only_the_flags_it_reads(capsys, command):
    """Of the four flags that every command used to take, one that the
    command's handler does not read is a usage error; one that it reads
    parses to its value."""
    path = fixture_path("diamond.site")
    flags = COMMANDS[command][1]
    for flag, (text, value) in SHARED_FLAGS.items():
        argv = [command, path, *_required(command), flag, text]
        if flag in flags:
            assert getattr(build_parser(command).parse_args(argv), flag[2:]) == value
            continue
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: finsite"), argv
        assert f"unrecognized arguments: {flag} {text}" in captured.err


class _ReadRecorder:
    """Parsed arguments that record the name of each one a handler reads."""

    def __init__(self, args):
        self._args, self.read = args, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


HANDLER_ARGVS = {
    "check": ["diamond.site"],
    "saturate": ["diamond.site"],
    "models": ["diamond.site"],
    "chase": ["diamond.site", "--root", "1"],
    "separate": ["diamond.site", "--object", "1", "--u", "a", "--v", "b"],
    "sheafify": ["diamond.site", "--object", "1"],
    "factor": ["diamond.site", "--source", "a", "--target", "1"],
    "lattice-embed": ["diamond.lat"],
    "delta-check": ["diamond.site"],
    "eta-check": ["diamond.site"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_handler_reads_exactly_the_flags_of_its_command(command):
    """``COMMANDS`` gives each handler the flags it reads and no other; the
    file and ``--json`` are read by ``main``."""
    name, *rest = HANDLER_ARGVS[command]
    path = fixture_path(name)
    handler, flags = COMMANDS[command]
    args = _ReadRecorder(build_parser(command).parse_args([command, path, *rest]))
    with open(path, encoding="utf-8") as handle:
        handler(args, parse_document(handle.read()))
    assert args.read == {flag[2:] for flag in flags}


@pytest.mark.parametrize("argv", [
    ["separate", "diamond.site", "--object", "1", "--u", "a", "--v", "b", "--width", "-1"],
    ["separate", "diamond.site", "--object", "1", "--u", "a", "--v", "b", "--budget", "-1"],
    ["chase", "diamond.site", "--root", "1", "--budget", "-1"],
    ["lattice-embed", "diamond.lat", "--budget", "-1"],
])
def test_a_negative_budget_or_width_is_a_usage_error(capsys, argv):
    """A negative width used to mean "unlimited" and a negative budget an
    INCONCLUSIVE verdict with no search."""
    with pytest.raises(SystemExit) as err:
        main([argv[0], fixture_path(argv[1]), *argv[2:]])
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: finsite")
    assert f"argument {argv[-2]}: invalid non-negative int value: '-1'" in captured.err


def test_a_zero_budget_or_width_keeps_its_meaning(capsys):
    """Budget 0 runs no chase step; width 0 is unlimited, the default."""
    path = fixture_path("diamond.site")
    separate = ["separate", path, "--object", "1", "--u", "a", "--v", "b", "--json"]
    assert run_cli(capsys, *separate, "--width", "0") == run_cli(capsys, *separate)
    code, out = run_cli(capsys, *separate, "--budget", "0")
    assert code == 2 and json.loads(out)["result"]["verdict"] == "INCONCLUSIVE"
    code, out = run_cli(capsys, "chase", path, "--root", "1", "--budget", "0", "--json")
    assert code == 2 and json.loads(out)["result"]["steps"] == 0
    code, out = run_cli(capsys, "lattice-embed", fixture_path("diamond.lat"),
                        "--budget", "0", "--json")
    assert code == 2 and json.loads(out)["result"]["verdict"] == "INCONCLUSIVE"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as err:
        main(["models", "-h"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: finsite models")


def test_models_subcommand_count(capsys):
    code, out = run_cli(capsys, "models", fixture_path("diamond.site"),
                        "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 3


def test_chase_budget_exit_two(capsys):
    code, _ = run_cli(capsys, "chase", fixture_path("diamond.site"),
                      "--root", "1", "--budget", "1")
    assert code == 2
    code, out = run_cli(capsys, "chase", fixture_path("diamond.site"),
                        "--root", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["status"] == "STABILIZED"


def test_chase_choices_strategy(capsys):
    code, out = run_cli(capsys, "chase", fixture_path("diamond.site"),
                        "--root", "1", "--strategy", "choices=0,1,0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["result"]["status"] == "DEAD"


def test_sheafify_subcommand(capsys):
    code, out = run_cli(capsys, "sheafify", fixture_path("diamond.site"),
                        "--object", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["sheaf"]["carriers"] \
        == {"0": 1, "1": 1, "a": 1, "b": 1}


def test_factor_subcommand(capsys):
    code, out = run_cli(capsys, "factor", fixture_path("diamond.site"),
                        "--source", "a", "--target", "1", "--json")
    assert code == 0
    entries = json.loads(out)["result"]["transformations"]
    assert entries == [{"components": {"0": [0], "1": [], "a": [0], "b": []},
                        "family": ["id_a"], "arrows": ["a_to_1"]}]


def test_lattice_embed_subcommand(capsys):
    code, out = run_cli(capsys, "lattice-embed", fixture_path("diamond.lat"),
                        "--json")
    assert code == 0
    document = json.loads(out)
    assert set(document["result"]["embeddings"]) == {"birkhoff", "models"}


def test_lattice_embed_rejects_m3(capsys, tmp_path):
    text = """lattice {
  elements: bot x y z top
  bot < x  bot < y  bot < z
  x < top  y < top  z < top
}
"""
    path = tmp_path / "m3.lat"
    path.write_text(text)
    code, out = run_cli(capsys, "lattice-embed", str(path), "--json")
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "NON_DISTRIBUTIVE"


def test_lattice_embed_failed_verification_exits_refuted(capsys, monkeypatch):
    """A route whose embedding fails its own check ends in exit 1 and an
    EMBEDDING_FAILED document naming the route, not a traceback."""
    monkeypatch.setattr(lattice.Embedding, "verify",
                        lambda self, lat, prescribed: ["meet not preserved at (1,2)"])
    code, out = run_cli(capsys, "lattice-embed", fixture_path("diamond.lat"), "--json")
    assert code == 1
    document = json.loads(out)
    assert document["result"] == {"verdict": "EMBEDDING_FAILED", "method": "birkhoff",
                                  "detail": "meet not preserved at (1,2)"}
    assert document["witnesses"] == [] and document["input_digest"] is not None


def test_lattice_embed_order_disagreement_exits_refuted(capsys, monkeypatch):
    """model_embed's order check: a chase that finds a non-contained pair
    contained ends in the same documented exit."""
    monkeypatch.setattr(lattice, "separate_subobjects",
                        lambda *args, **kwargs: SimpleNamespace(verdict=chase.CONTAINED))
    code, out = run_cli(capsys, "lattice-embed", fixture_path("diamond.lat"),
                        "--method", "models", "--json")
    assert code == 1
    result = json.loads(out)["result"]
    assert result["verdict"] == "EMBEDDING_FAILED" and result["method"] == "models"
    assert result["detail"].startswith("order disagrees with mono factorization at (")


def test_delta_and_eta_check_subcommands(capsys):
    code, out = run_cli(capsys, "delta-check", fixture_path("diamond.site"),
                        "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["all_isomorphisms"] is True
    code, out = run_cli(capsys, "eta-check", fixture_path("diamond.site"),
                        "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["result"]["all_pass"] is True


def test_missing_file_exit_three(capsys):
    assert main(["check", "/nonexistent/site.site"]) == 3
    capsys.readouterr()


FORK_SITE = """
object x
object y
object z
arrow f : x -> y
arrow g : x -> y
arrow q : y -> z
arrow h : x -> z
compose q . f = h
compose q . g = h
cover z <- [id_z]
"""


def test_delta_check_bound_too_small_is_inconclusive(capsys, tmp_path):
    path = tmp_path / "fork.site"
    path.write_text(FORK_SITE)  # hom(x, y) has two arrows: C(x,-) needs B >= 2
    code, out = run_cli(capsys, "delta-check", str(path), "--bound", "1", "--json")
    assert code == 2
    result = json.loads(out)["result"]
    assert result["verdict"] == "INCONCLUSIVE"
    assert "escapes the bound" in result["detail"]


def test_sheafify_past_the_sieve_guard_is_inconclusive(capsys, tmp_path):
    """bool_5 is a valid site, but its top object has too many arrows into
    it to list its covering sieves: sheafify reports INCONCLUSIVE with the
    input's digest and exits 2, for the bottom and the top object alike."""
    text = print_site(poset_site(boolean_leq(5)))
    path = tmp_path / "bool_5.site"
    path.write_text(text)
    for obj in ("0", "31"):
        code, out = run_cli(capsys, "sheafify", str(path), "--object", obj, "--json")
        assert code == 2
        assert json.loads(out) == {
            "command": "sheafify", "input_digest": hashlib.sha256(text.encode()).hexdigest(),
            "result": {"verdict": "INCONCLUSIVE",
                       "detail": "too many arrows into 31 to enumerate sieves"},
            "witnesses": [], "timings": {}}


def test_saturate_missing_pullback_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "cospan.site"
    path.write_text("poset { a < T  b < T }\ncover T <- [id_T]\n"
                    "cover T <- [a_to_T, b_to_T]\n")
    code = main(["saturate", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "a_to_T" in captured.err and "b_to_T" in captured.err


def test_handler_error_prints_the_json_error_document(capsys):
    code, out = run_cli(capsys, "models", fixture_path("diamond.site"),
                        "--bound", "0", "--json")
    assert code == 3
    assert json.loads(out) == {"command": "models", "input_digest": None,
                               "result": {"error": "bound must be at least 1"},
                               "witnesses": [], "timings": {}}


def test_models_counter_counts_models(capsys):
    code, out = run_cli(capsys, "models", fixture_path("diamond.site"),
                        "--bound", "1", "--json")
    assert code == 0
    assert json.loads(out)["timings"] == {"models": 3}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# as a benchmark worker does: put src/ on the path, then import the CLI
RUN_MAIN = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from finsite.cli import main; sys.exit(main(sys.argv[2:]))")


@pytest.mark.parametrize("command, name", [("models", "wide5"),
                                           ("delta-check", "chain3"),
                                           ("eta-check", "chain3")])
def test_a_fresh_isolated_process_prints_the_in_process_document(capsys, command, name):
    """``python -I`` ignores the environment, so strings hash with a random
    seed; ``-s`` runs pin the seed to 0 and to 1.  Each fresh process exits
    0, writes nothing to stderr and prints the bytes ``main`` prints here."""
    argv = [command, fixture_path(f"{name}.site"), "--bound", "2", "--json"]
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    runs = [("-I", None)] + [("-s", {**os.environ, "PYTHONHASHSEED": seed})
                             for seed in ("0", "1")]
    for flag, env in runs:
        proc = subprocess.run([sys.executable, flag, "-c", RUN_MAIN, SRC, *argv],
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) \
            == (0, b"", expected.encode()), (flag, env and env["PYTHONHASHSEED"])
