"""Record the CLI documents that ``tests/test_cli.py`` compares against.

The chase cases are ``separate --json`` for every pair of subobjects of the
top of every fixture, at ``--width 0`` and ``--width 1``, and ``chase --json``
from every object of every fixture.  The eventual cases are
``delta-check --json`` and ``eta-check --json`` on three non-thin sites that
are not fixtures, the involution, the fork and the equalized fork at bounds
1-3, and on two poset sites, chain_6 at bound 2 and bool_3 at bound 1.  The thin
cases are ``models --json`` on bool_4, pbool_4 and bool_5 at bound 1,
pbool_3 and chain_6 at bound 2.  The topology cases are ``saturate --json``
on every fixture, bool_3, grid_3x4 and pbool_3, and ``sheafify --json`` on
every object of bool_3, bool_4 and the wide5 and diamond fixtures.  The factor cases are ``factor --json`` for every
ordered pair of objects of every fixture, the only documents that list
natural transformations in enumeration order.  The poset sites are named
and covered as the benchmark's ladder writes them; every site that is not
a fixture is written to a temporary file.  Each document is kept as its exit code and
the SHA-256 of its stdout bytes.

Run from the root of a checkout, only when a change to the chase, the
eventual, the models, the topology or the factor output is intended:

    PYTHONPATH=src python tests/record_cli_documents.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from finsite import fixtures, limits
from finsite.fileformat import print_site

from helpers import (equalized_fork_category, fork_category, involution_category,
                     poset_site, top_covered_site)

DOCUMENTS = Path(__file__).with_name("cli_documents.json")


def fixture_path(name):
    return str(resources.files("finsite") / "fixtures" / name)


def chase_cli_cases() -> list[tuple[str, ...]]:
    """argv tuples, with the fixture file given by its name."""
    cases = []
    for name in fixtures.SITE_NAMES:
        cat = fixtures.load_site(name).cat
        top = limits.terminal_object(cat)
        subobjects = limits.subobject_lattice(cat, top).representatives
        for width in ("0", "1"):
            for u in subobjects:
                for v in subobjects:
                    cases.append(("separate", f"{name}.site", "--object",
                                  cat.obj_name(top), "--u", cat.mor_name(u),
                                  "--v", cat.mor_name(v), "--width", width, "--json"))
        for root in cat.objects:
            cases.append(("chase", f"{name}.site", "--root", cat.obj_name(root),
                          "--json"))
    return cases


# name -> (category, the object whose identity is its one cover)
EVENTUAL_SITES = {
    "involution": (involution_category, "T"),
    "fork": (fork_category, "z"),
    "equalized_fork": (equalized_fork_category, "z"),
}

# site name -> bounds of the delta-check and eta-check cases
EVENTUAL_BOUNDS = {"involution": (1, 2, 3), "fork": (1, 2, 3),
                   "equalized_fork": (1, 2, 3), "chain_6": (2,), "bool_3": (1,)}


def eventual_cli_cases() -> list[tuple[str, ...]]:
    """argv tuples, with the site file given by its name."""
    return [(command, f"{name}.site", "--bound", str(bound), "--json")
            for name, bounds in EVENTUAL_BOUNDS.items()
            for bound in bounds
            for command in ("delta-check", "eta-check")]


def _chain(n):
    return [f"c{i}" for i in range(n)], [[i <= j for j in range(n)] for i in range(n)]


def _grid(a, b):
    cells = [(i, j) for i in range(a) for j in range(b)]
    return ([f"g{i}_{j}" for i, j in cells],
            [[p[0] <= q[0] and p[1] <= q[1] for q in cells] for p in cells])


def _boolean(k, punctured=False):
    """The subsets of k points, without the empty one when ``punctured``."""
    elements = [e for e in range(2 ** k) if not (punctured and e == 0)]
    return ([f"s{e:0{k}b}" for e in elements],
            [[a & b == a for b in elements] for a in elements])


# name -> (object names, leq matrix) of the poset sites
POSET_SITES = {
    "bool_3": lambda: _boolean(3),
    "bool_4": lambda: _boolean(4),
    "pbool_4": lambda: _boolean(4, punctured=True),
    "pbool_3": lambda: _boolean(3, punctured=True),
    "chain_6": lambda: _chain(6),
    "bool_5": lambda: _boolean(5),
    "grid_3x4": lambda: _grid(3, 4),
}

# site name -> bounds of the thin models cases
MODELS_BOUNDS = {"bool_4": (1,), "pbool_4": (1,), "pbool_3": (2,),
                 "chain_6": (2,), "bool_5": (1,)}


def models_cli_cases() -> list[tuple[str, ...]]:
    """argv tuples, with the site file given by its name."""
    return [("models", f"{name}.site", "--bound", str(bound), "--json")
            for name, bounds in MODELS_BOUNDS.items() for bound in bounds]


def topology_cli_cases() -> list[tuple[str, ...]]:
    """argv tuples, with the site file given by its name."""
    cases = [("saturate", f"{name}.site", "--json")
             for name in (*fixtures.SITE_NAMES, "bool_3", "grid_3x4", "pbool_3")]
    for name in ("bool_3", "bool_4"):
        names, _ = POSET_SITES[name]()
        cases += [("sheafify", f"{name}.site", "--object", x, "--json") for x in names]
    for name in ("wide5", "diamond"):
        cat = fixtures.load_site(name).cat
        cases += [("sheafify", f"{name}.site", "--object", cat.obj_name(x), "--json")
                  for x in cat.objects]
    return cases


def factor_cli_cases() -> list[tuple[str, ...]]:
    """argv tuples, with the fixture file given by its name."""
    cases = []
    for name in fixtures.SITE_NAMES:
        cat = fixtures.load_site(name).cat
        names = [cat.obj_name(x) for x in cat.objects]
        cases.extend(("factor", f"{name}.site", "--source", x, "--target", y, "--json")
                     for x in names for y in names)
    return cases


def write_sites(directory) -> dict[str, str]:
    """Print each site that is not a fixture into ``directory``; file name
    -> path."""
    sites = {name: top_covered_site(make(), top)
             for name, (make, top) in EVENTUAL_SITES.items()}
    for name, make in POSET_SITES.items():
        names, leq = make()
        sites[name] = poset_site(leq, names)
    paths = {}
    for name, site in sites.items():
        path = Path(directory) / f"{name}.site"
        path.write_text(print_site(site), encoding="utf-8")
        paths[path.name] = str(path)
    return paths


def run_case(case, paths=None) -> tuple[int, str]:
    """Run one case; ``paths`` resolves site files that are not fixtures."""
    from finsite.cli import main
    path = (paths or {}).get(case[1]) or fixture_path(case[1])
    argv = [case[0], path, *case[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def main():
    documents = {}
    with tempfile.TemporaryDirectory() as directory:
        paths = write_sites(directory)
        for case in (chase_cli_cases() + eventual_cli_cases() + models_cli_cases()
                     + topology_cli_cases() + factor_cli_cases()):
            code, stdout = run_case(case, paths)
            documents[" ".join(case)] = {"code": code, "sha256": digest(stdout)}
    DOCUMENTS.write_text(json.dumps(documents, indent=1, sort_keys=True) + "\n")
    print(f"{len(documents)} documents written to {DOCUMENTS}")


if __name__ == "__main__":
    main()
