"""Record the chase CLI documents that ``tests/test_cli.py`` compares against.

The cases are ``separate --json`` for every pair of subobjects of the top of
every fixture, at ``--width 0`` and ``--width 1``, and ``chase --json`` from
every object of every fixture.  Each document is kept as its exit code and
the SHA-256 of its stdout bytes.

Run from the root of a checkout, only when a change to the chase output is
intended:

    PYTHONPATH=src python tests/record_cli_documents.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from importlib import resources
from pathlib import Path

from finsite import fixtures, limits

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


def run_case(case) -> tuple[int, str]:
    from finsite.cli import main
    argv = [case[0], fixture_path(case[1]), *case[2:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def main():
    documents = {}
    for case in chase_cli_cases():
        code, stdout = run_case(case)
        documents[" ".join(case)] = {"code": code, "sha256": digest(stdout)}
    DOCUMENTS.write_text(json.dumps(documents, indent=1, sort_keys=True) + "\n")
    print(f"{len(documents)} documents written to {DOCUMENTS}")


if __name__ == "__main__":
    main()
