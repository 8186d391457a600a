"""Line-oriented text format for sites and lattices.

    object NAME
    arrow NAME : A -> B
    compose G . F = H
    poset { A < B  A < C ... }
    cover B <- [F1, F2, ...]
    lattice { elements: A B C ...  A < B ...  join J <- [A, B] }
    # comment

Poset shorthand expands to a category with all composites inferred; explicit
arrows cannot be mixed with it.  Printing emits the expanded canonical form,
and parse(print(site)) reproduces the tables bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .fincat import make_category, order_closure, poset_category
from .lattice import FinLattice, validate_lattice
from .site import Family, SiteSpec, validate_site


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"PARSE_ERROR at {line}:{column}: {message}")
        self.line = line
        self.column = column


class ValidationError(Exception):
    def __init__(self, violations):
        super().__init__("VALIDATION_ERROR: " + "; ".join(violations))
        self.violations = list(violations)


_NAME = r"[A-Za-z0-9_★∅]+"
_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_★∅")
# compiled on first use, through re's own cache: explicit-form files never use it
_RELATION = rf"({_NAME})\s*<\s*({_NAME})"


def _is_name(text: str) -> bool:
    return bool(text) and _NAME_CHARS.issuperset(text)


def _cut(text: str, *separators):
    """``text`` cut at the first of each separator in turn, every piece
    stripped; None when a separator is missing."""
    pieces = []
    for separator in separators:
        piece, found, text = text.partition(separator)
        if not found:
            return None
        pieces.append(piece.strip())
    pieces.append(text.strip())
    return pieces


def _names(text: str, *separators):
    """The names between ``separators`` in ``text``, or None unless every
    piece is a name."""
    pieces = _cut(text, *separators)
    if pieces is None or not all(map(_is_name, pieces)):
        return None
    return pieces


def _legs(text: str):
    """``B <- [F1, F2, ...]`` as (B, [F1, F2, ...]), or None."""
    pieces = _cut(text, "<-", "[", "]")
    if pieces is None or not _is_name(pieces[0]) or pieces[1] or pieces[3]:
        return None
    return pieces[0], [s.strip() for s in pieces[2].split(",") if s.strip()]


def _block(body: str, keyword: str):
    """The text between the braces of ``keyword { ... }``, which runs to the
    last ``}``, or None."""
    rest = body[len(keyword):].lstrip()
    if not (rest.startswith("{") and rest.endswith("}")):
        return None
    return rest[1:-1]


def _relations(lines):
    """The ``A < B`` relations in ``lines``, (physical line, text) pairs read
    as one space-joined chunk, as [(A, B, line)]; and the line where other
    content starts with the text of all of it, or None."""
    block = "\n".join(text for _, text in lines)
    chunk = block.replace("\n", " ")

    def line_at(pos):
        return lines[block.count("\n", 0, pos)][0]
    relations = [(rel.group(1), rel.group(2), line_at(rel.start()))
                 for rel in re.finditer(_RELATION, chunk)]
    masked = re.sub(_RELATION, lambda rel: " " * len(rel.group(0)), chunk)
    if not masked.strip():
        return relations, None
    stray = len(masked) - len(masked.lstrip())
    return relations, (line_at(stray), re.sub(_RELATION, "", chunk).strip())


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _logical_lines(text: str):
    """Physical lines with comments stripped; brace blocks are joined with
    newlines preserved so block grammars can stay line-oriented."""
    lines = []
    buffer = ""
    start = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).strip()
        if buffer:  # blank lines stay, so a block keeps its line offsets
            buffer += "\n" + body
            if "}" in body:
                lines.append((start, buffer))
                buffer = ""
            continue
        if not body:
            continue
        if "{" in body and "}" not in body:
            buffer = body
            start = lineno
            continue
        lines.append((lineno, body))
    if buffer:
        raise ParseError(start, 1, "unterminated block")
    return lines


@dataclass
class _SiteBuilder:
    objects: list
    arrows: list          # (name, dom name, cod name, line)
    composites: list      # (g name, f name, h name, line)
    covers: list          # (cod name, [leg names], line)
    poset_relations: list  # (lower name, upper name, line)


def parse_document(text: str):
    """Parse a site or a lattice file; returns SiteSpec or (FinLattice, prescribed)."""
    lines = _logical_lines(text)
    for lineno, body in lines:
        if body.startswith("lattice"):
            return _parse_lattice_block(lineno, body)
    return _parse_site_lines(lines)


def parse_site(text: str) -> SiteSpec:
    parsed = parse_document(text)
    if not isinstance(parsed, SiteSpec):
        raise ParseError(1, 1, "expected a site, found a lattice block")
    return parsed


def _parse_site_lines(lines) -> SiteSpec:
    builder = _SiteBuilder([], [], [], [], [])
    for lineno, body in lines:
        if body.startswith("object "):
            name = body[len("object "):].strip()
            if not _is_name(name):
                raise ParseError(lineno, len("object ") + 1, f"bad object name {name!r}")
            if name in builder.objects:
                raise ParseError(lineno, 1, f"duplicate object {name!r}")
            builder.objects.append(name)
        elif body.startswith("arrow "):
            names = _names(body[len("arrow "):], ":", "->")
            if names is None:
                raise ParseError(lineno, 1, "expected: arrow NAME : A -> B")
            builder.arrows.append((*names, lineno))
        elif body.startswith("compose "):
            names = _names(body[len("compose "):], ".", "=")
            if names is None:
                raise ParseError(lineno, 1, "expected: compose G . F = H")
            builder.composites.append((*names, lineno))
        elif body.startswith("poset"):
            inner = _block(body, "poset")
            if inner is None:
                raise ParseError(lineno, 1, "expected: poset { A < B ... }")
            relations, leftover = _relations(  # the block's k-th line is lineno + k
                [(lineno + k, text.replace(";", " "))
                 for k, text in enumerate(inner.split("\n"))])
            builder.poset_relations.extend(relations)
            if leftover:
                raise ParseError(leftover[0], 1,
                                 f"unrecognized poset content {leftover[1]!r}")
        elif body.startswith("cover "):
            cover = _legs(body[len("cover "):])
            if cover is None:
                raise ParseError(lineno, 1, "expected: cover B <- [F1, F2, ...]")
            builder.covers.append((*cover, lineno))
        else:
            raise ParseError(lineno, 1, f"unrecognized directive {body.split()[0]!r}")
    return _assemble_site(builder)


def _assemble_site(builder: _SiteBuilder) -> SiteSpec:
    if builder.poset_relations and builder.arrows:  # at the later of the two kinds
        line = max(builder.poset_relations[0][2], builder.arrows[0][3])
        raise ParseError(line, 1, "cannot mix poset shorthand with explicit arrows")
    if builder.poset_relations:
        names = list(builder.objects)
        for a, b, _ in builder.poset_relations:
            for name in (a, b):
                if name not in names:
                    names.append(name)
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        leq = order_closure(n, [(index[a], index[b]) for a, b, _ in builder.poset_relations])
        for i in range(n):
            cycle = {j for j in range(n) if leq[i][j] and leq[j][i]}
            if len(cycle) > 1:  # reported at the last relation inside it
                line = max(line for a, b, line in builder.poset_relations
                           if a != b and {index[a], index[b]} <= cycle)
                raise ParseError(line, 1, f"poset relation has a cycle through {names[i]!r}")
        cat = poset_category(leq, tuple(names))
    else:
        index = {name: i for i, name in enumerate(builder.objects)}
        identities = {f"id_{obj}": index[obj] for obj in builder.objects}
        arrow_ids = {}
        for name, _, _, lineno in builder.arrows:
            if name in arrow_ids or name in index or name in identities:
                raise ParseError(lineno, 1, f"duplicate arrow name {name!r}")
            arrow_ids[name] = len(builder.objects) + len(arrow_ids)
        arrow_ids.update(identities)

        def mor_id(name, lineno):
            if name not in arrow_ids:
                raise ParseError(lineno, 1, f"unknown morphism {name!r}")
            return arrow_ids[name]

        arrow_pairs = []
        for name, dom, cod, lineno in builder.arrows:
            if dom not in index or cod not in index:
                raise ParseError(lineno, 1, f"arrow {name!r} has a dangling endpoint")
            arrow_pairs.append((index[dom], index[cod]))
        composites = {}
        for g, f, h, lineno in builder.composites:
            composites[(mor_id(g, lineno), mor_id(f, lineno))] = mor_id(h, lineno)
        cat = make_category(len(builder.objects), arrow_pairs, composites,
                            tuple(builder.objects),
                            tuple(name for name, _, _, _ in builder.arrows))
    name_to_obj = {cat.obj_name(x): x for x in cat.objects}
    name_to_mor = {cat.mor_name(f): f for f in cat.morphisms}
    covers = []
    for cod_name, leg_names, lineno in builder.covers:
        if cod_name not in name_to_obj:
            raise ParseError(lineno, 1, f"cover on unknown object {cod_name!r}")
        legs = []
        for leg in leg_names:
            if leg not in name_to_mor:
                raise ParseError(lineno, 1, f"cover leg {leg!r} is not a morphism")
            legs.append(name_to_mor[leg])
        covers.append(Family.make(name_to_obj[cod_name], legs))
    site = SiteSpec.make(cat, covers)
    violations = validate_site(site)
    if violations:
        raise ValidationError(violations)
    return site


def print_site(site: SiteSpec) -> str:
    """Canonical expanded form; parsing it reproduces the tables exactly."""
    cat = site.cat
    # identities by the names the parser gives them
    name = [f"id_{cat.obj_name(cat.dom[f])}" if cat.is_identity(f) else cat.mor_name(f)
            for f in cat.morphisms]
    out = [f"object {cat.obj_name(x)}" for x in cat.objects]
    for f in cat.morphisms:
        if not cat.is_identity(f):
            out.append(f"arrow {name[f]} : "
                       f"{cat.obj_name(cat.dom[f])} -> {cat.obj_name(cat.cod[f])}")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if not (cat.is_identity(g) or cat.is_identity(f) or cat.cod[f] != cat.dom[g]):
                out.append(f"compose {name[g]} . {name[f]} = {name[cat.comp[g][f]]}")
    out += [f"cover {cat.obj_name(fam.codomain)} <- [{', '.join(name[f] for f in fam.legs)}]"
            for fam in site.covers]
    return "\n".join(out) + "\n"


def _parse_lattice_block(lineno: int, body: str):
    inner = _block(body, "lattice")
    if inner is None:
        raise ParseError(lineno, 1, "expected: lattice { ... }")
    element_lines = []  # each (physical line, text); the block's k-th line is lineno + k
    relation_lines = []
    join_lines = []
    for k, line in enumerate(inner.splitlines()):
        line = line.strip()
        if not line:
            continue
        if line.startswith("elements"):
            element_lines.append((lineno + k, line))
        elif line.startswith("join"):
            join_lines.append((lineno + k, line))
        else:
            relation_lines.append((lineno + k, line))
    if len(element_lines) != 1:
        at = element_lines[1][0] if element_lines else lineno
        raise ParseError(at, 1, "lattice block needs one elements: list")
    at, line = element_lines[0]
    pieces = _cut(line[len("elements"):], ":")
    names = pieces[1].split() if pieces and not pieces[0] else []
    if not (names and all(map(_is_name, names))):
        raise ParseError(at, 1, "bad elements: list")
    index = {name: i for i, name in enumerate(names)}
    prescribed = []
    for at, line in join_lines:
        rest = line[len("join"):]
        join = _legs(rest) if rest[:1].isspace() else None
        if join is None:
            raise ParseError(at, 1, "expected: join J <- [A, B, ...]")
        target, members = join
        for name in [target] + members:
            if name not in index:
                raise ParseError(at, 1, f"unknown lattice element {name!r}")
        prescribed.append((index[target], tuple(index[name] for name in members)))
    relation = []
    relations, leftover = _relations(relation_lines)
    for a, b, at in relations:
        if a not in index or b not in index:
            raise ParseError(at, 1, f"unknown lattice element in {a!r} < {b!r}")
        relation.append((index[a], index[b]))
    if leftover:
        raise ParseError(leftover[0], 1, f"unrecognized lattice content {leftover[1]!r}")
    leq = order_closure(len(names), relation)
    lat = FinLattice(tuple(tuple(row) for row in leq), tuple(names))
    violations = validate_lattice(lat)
    if violations:
        raise ValidationError(violations)
    for target, members in prescribed:
        if lat.join_of(members) != target:
            raise ValidationError(
                [f"declared join of {members} is not {lat.name(target)}"])
    return lat, tuple(members for _, members in prescribed)
