"""Input generators for the benchmark: a fixed ladder of poset sites plus one
seeded random poset with a top.

Every generated site goes through ``fileformat.print_site`` and is guarded by
``parse_site(print_site(s)) == s`` before it is written, so the program only
ever sees canonical site text.  Object counts are fixed per ladder rung, so
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import json
import os
import random

from finsite.fileformat import parse_site, print_site
from finsite.fincat import poset_category
from finsite.fixtures import SITE_NAMES, fixture_text
from finsite.site import Family, SiteSpec, family_covers, site_topology, validate_site

RANDOM_OBJECTS = 8
RANDOM_EDGE_CHANCE = 0.3
COVER_QUERY_SITES = ("bool_3",)


def _immediate_predecessors(leq, y):
    n = len(leq)
    return [x for x in range(n)
            if x != y and leq[x][y]
            and not any(z not in (x, y) and leq[x][z] and leq[z][y] for z in range(n))]


def _has_meets(leq) -> bool:
    """Every pair with a common upper bound has a greatest lower bound, i.e.
    every cospan of the poset category has a pullback."""
    n = len(leq)
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            if not any(all(leq[c][m] for c in lower) for m in lower):
                return False
    return True


def poset_site(names, leq, covers=True):
    """The poset as a site: the identity cover on the top and, when ``covers``
    is set, every element with at least two immediate predecessors covered
    by them."""
    cat = poset_category(leq, tuple(names))
    n = len(names)
    top = next(y for y in range(n) if all(leq[x][y] for x in range(n)))
    families = [Family.make(top, [cat.identity[top]])]
    if covers:
        for y in range(n):
            preds = _immediate_predecessors(leq, y)
            if len(preds) >= 2:
                families.append(Family.make(y, [cat.hom(x, y)[0] for x in preds]))
    site = SiteSpec.make(cat, families)
    problems = validate_site(site)
    if problems:
        raise ValueError("; ".join(problems))
    return site


def chain(n):
    return [f"c{i}" for i in range(n)], [[i <= j for j in range(n)] for i in range(n)]


def boolean(k, punctured=False):
    """Subsets of k points under inclusion; ``punctured`` drops the empty set,
    which leaves a terminal object but removes the meets of disjoint sets."""
    elements = [e for e in range(2 ** k) if not (punctured and e == 0)]
    names = ["s" + format(e, f"0{k}b") for e in elements]
    return names, [[a & b == a for b in elements] for a in elements]


def grid(a, b):
    """The product of the chains 0..a-1 and 0..b-1."""
    cells = [(i, j) for i in range(a) for j in range(b)]
    names = [f"g{i}_{j}" for i, j in cells]
    return names, [[p[0] <= q[0] and p[1] <= q[1] for q in cells] for p in cells]


def random_poset_with_top(rng: random.Random, n: int):
    """A random order on n - 1 points (edges only from lower to higher index,
    then transitively closed) with a top element added above all of them."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n - 1):
            if rng.random() < RANDOM_EDGE_CHANCE:
                leq[i][j] = True
        leq[i][n - 1] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if leq[i][k] and leq[k][j]:
                    leq[i][j] = True
    return [f"r{i}" for i in range(n)], leq


LADDER = {
    "chain_6": lambda: chain(6),
    "bool_3": lambda: boolean(3),
    "bool_4": lambda: boolean(4),
    "pbool_3": lambda: boolean(3, punctured=True),
    "pbool_4": lambda: boolean(4, punctured=True),
    "grid_3x4": lambda: grid(3, 4),
    "grid_3x5": lambda: grid(3, 5),
}


def cover_queries(site: SiteSpec):
    """Every declared cover, and every one-leg part of a cover with several
    legs, each with its verdict under the generated sieve topology, which
    the chase-based cover check must reproduce."""
    cat = site.cat
    topology = site_topology(site)
    families = list(site.covers)
    for fam in site.covers:
        if len(fam.legs) >= 2:
            families.extend(Family.make(fam.codomain, [leg]) for leg in fam.legs)
    return [{"codomain": cat.obj_name(fam.codomain),
             "legs": [cat.mor_name(f) for f in fam.legs],
             "covers": family_covers(site, topology, fam)} for fam in families]


def _site_text(site: SiteSpec) -> str:
    text = print_site(site)
    if parse_site(text) != site:
        raise AssertionError("parse_site(print_site(s)) does not reproduce s")
    return text


def write_inputs(workdir: str, seed: int) -> str:
    """Write every input site into ``workdir`` and return the manifest path.

    The manifest lists, per site, its file, its object names, its order as
    (lower, upper) name pairs and whether all pullbacks exist ("complete").
    The worker checks chase verdicts against that order, not against the
    parsed site, and saturates only complete sites: a missing pullback makes
    `saturate` raise MissingPullbackError.
    """
    manifest = {}

    def add(name, names, leq, text, site):
        path = os.path.join(workdir, f"{name}.site")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        order = [[names[a], names[b]] for a in range(len(names))
                 for b in range(len(names)) if leq[a][b]]
        manifest[name] = {"file": path, "objects": names, "order": order,
                          "complete": _has_meets(leq)}
        if name in COVER_QUERY_SITES:
            manifest[name]["cover_queries"] = cover_queries(site)

    for name, build in LADDER.items():
        names, leq = build()
        site = poset_site(names, leq)
        add(name, names, leq, _site_text(site), site)
    names, leq = random_poset_with_top(random.Random(seed), RANDOM_OBJECTS)
    site = poset_site(names, leq, covers=False)
    add("random_8", names, leq, _site_text(site), site)
    for name in SITE_NAMES:
        text = fixture_text(name)
        site = parse_site(text)
        cat = site.cat  # every fixture is a poset category
        names = [cat.obj_name(x) for x in cat.objects]
        leq = [[bool(cat.hom(a, b)) for b in cat.objects] for a in cat.objects]
        add(f"fixture_{name}", names, leq, text, site)
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True)
    return path
