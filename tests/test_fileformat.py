"""The str-method reader of site and lattice files against the
regular-expression reader it replaced, and the parts of the format that need
no regular expression."""

from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import fileformat, fixtures
from finsite.fileformat import (ParseError, ValidationError, parse_document, parse_site,
                                print_site)
from finsite.fincat import poset_category

from helpers import (cospan_only_category, discrete2_category, equalized_fork_category,
                     fork_category, involution_category, iso_pair_category,
                     left_zero_monoid, poset_site, posets, random_covers_site,
                     regex_parse_document, top_covered_site)
from record_cli_documents import MALFORMED_FILES, POSET_SITES


def _poset_site(name):
    """A poset site of the benchmark's ladder, as record_cli_documents names it."""
    names, leq = POSET_SITES[name]()
    return poset_site(leq, names)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its error's type,
    message, position and violations; any other exception fails the test."""
    try:
        return parse(text)
    except (ParseError, ValidationError) as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None), getattr(exc, "violations", None))


def _assert_agrees_with_the_oracle(text):
    assert _outcome(parse_document, text) == _outcome(regex_parse_document, text), text


LATTICE_TEXTS = (
    (resources.files("finsite") / "fixtures" / "diamond.lat").read_text(),
    "lattice {\n  elements: bot a b top\n  bot < a  bot < b  a < top  b < top\n"
    "  join a <- [a, b]\n}\n",
    "lattice{elements:a}",
    "lattice {\n elements:\tb0 b1 b2 b3\n b0<b1; b1 < b2\n b2 < b3\n"
    " join b3 <- [b1,b2, ]\n join\tb1 <- []\n}\n",
)

# the fixtures, explicit-form sites as print_site writes them, the lattices
# and the malformed files
SEED_TEXTS = (
    tuple(fixtures.fixture_text(name) for name in fixtures.SITE_NAMES)
    + tuple(print_site(top_covered_site(make(), top))
            for make, top in ((fork_category, "z"), (involution_category, "T"),
                              (equalized_fork_category, "z")))
    + (print_site(_poset_site("chain_6")),
       "poset { a < b; b < c }\nposet {\n\n  c<d\n}\ncover d <- [ id_d ]\n")
    + LATTICE_TEXTS + tuple(MALFORMED_FILES.values()))

MUTATION_CHARS = tuple(":.=<->[],{}#★∅-é") + (" ", "\t", "\xa0", "\u2003")


def _edits(line):
    """Every line one edit from ``line``: a mutation character inserted or
    put in place of a character, or a character deleted."""
    for i in range(len(line) + 1):
        for char in MUTATION_CHARS:
            yield line[:i] + char + line[i:]
            if i < len(line):
                yield line[:i] + char + line[i + 1:]
        if i < len(line):
            yield line[:i] + line[i + 1:]


@st.composite
def mutated_texts(draw):
    """A seed text with one to three of its directive lines edited once."""
    lines = draw(st.sampled_from(SEED_TEXTS)).split("\n")
    directives = [k for k, line in enumerate(lines)
                  if line.strip() and not line.lstrip().startswith("#")]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.sampled_from(directives))
        lines[k] = draw(st.sampled_from(list(_edits(lines[k]))))
    return "\n".join(lines)


def test_seed_texts_agree_with_the_oracle():
    for text in SEED_TEXTS:
        _assert_agrees_with_the_oracle(text)


@pytest.mark.parametrize("text", [
    "object x\nobject y\narrow f : x -> y\ncompose f . id_x = f\ncover y <- [id_y, f]\n",
    "poset { a < b; b < c }\ncover c <- [id_c]\n",
    "lattice {\n elements: a b\n a < b\n join b <- [a, b]\n}\n",
])
def test_every_single_edit_of_a_small_file_agrees_with_the_oracle(text):
    lines = text.split("\n")
    for k, line in enumerate(lines):
        for edited in _edits(line):
            _assert_agrees_with_the_oracle("\n".join(lines[:k] + [edited] + lines[k + 1:]))


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_mutated_directive_lines_agree_with_the_oracle(text):
    _assert_agrees_with_the_oracle(text)


@settings(max_examples=40, deadline=None)
@given(posets(max_objects=5), st.integers(min_value=0, max_value=2 ** 32))
def test_printed_random_poset_sites_agree_with_the_oracle(leq, seed):
    cat = poset_category(leq, tuple(f"p{x}" for x in range(len(leq))))
    _assert_agrees_with_the_oracle(print_site(random_covers_site(cat, seed)))


def test_printed_non_poset_sites_agree_with_the_oracle():
    for make in (fork_category, equalized_fork_category, iso_pair_category,
                 involution_category, left_zero_monoid, discrete2_category,
                 cospan_only_category):
        for seed in range(4):
            _assert_agrees_with_the_oracle(print_site(random_covers_site(make(), seed)))


def test_explicit_form_files_parse_without_regular_expressions(monkeypatch):
    """Only the ``A < B`` chunk of a poset or lattice block is read with a
    regular expression: the explicit form print_site writes parses with no
    ``re`` at all, and the poset shorthand needs it."""
    texts = {name: print_site(_poset_site(name))
             for name in ("bool_4", "grid_3x4")}
    expected = {name: parse_site(text) for name, text in texts.items()}
    monkeypatch.setattr(fileformat, "re", None)
    for name, text in texts.items():
        assert parse_site(text) == expected[name], name
    with pytest.raises(AttributeError):
        parse_site(fixtures.fixture_text("diamond"))


def test_an_arrow_named_for_an_identity_is_a_duplicate_arrow_name():
    """``id_<object>`` names the identity of a declared object, so an arrow
    may not take it; ``id_`` before any other name is an ordinary name."""
    with pytest.raises(ParseError) as err:
        parse_site("object a\narrow id_a : a -> a\ncover a <- [id_a]\n")
    assert (err.value.line, err.value.column, str(err.value)) \
        == (2, 1, "PARSE_ERROR at 2:1: duplicate arrow name 'id_a'")
    site = parse_site("object a\nobject b\narrow id_c : a -> b\ncover b <- [id_b]\n")
    assert site.cat.mor_name(2) == "id_c"
