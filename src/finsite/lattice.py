"""Finite distributive lattices: the powerset embedding through
join-irreducibles and the same embedding recovered from two-valued
chase models — the corollary's two routes, cross-validated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .chase import CONTAINED, WITNESS, separate_subobjects
from .fincat import order_closure, poset_category
from .site import Family, SiteSpec


class NonDistributiveError(Exception):
    pass


class InconclusiveError(Exception):
    """A chase budget ran out before the embedding could be certified."""


class EmbeddingError(Exception):
    """An embedding route gave a map that fails the corollary's checks."""


@dataclass(frozen=True)
class FinLattice:
    """A finite lattice as a leq matrix; meets and joins are table lookups."""

    leq: tuple[tuple[bool, ...], ...]
    names: tuple[str, ...] = ()

    @property
    def n(self) -> int:
        return len(self.leq)

    @property
    def elements(self) -> range:
        return range(self.n)

    def name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)

    @cached_property
    def meet(self):
        return self._bound_table(lower=True)

    @cached_property
    def join(self):
        return self._bound_table(lower=False)

    def _bound_table(self, lower: bool):
        table = []
        for a in self.elements:
            row = []
            for b in self.elements:
                if lower:
                    bounds = [c for c in self.elements
                              if self.leq[c][a] and self.leq[c][b]]
                    best = [c for c in bounds
                            if all(self.leq[d][c] for d in bounds)]
                else:
                    bounds = [c for c in self.elements
                              if self.leq[a][c] and self.leq[b][c]]
                    best = [c for c in bounds
                            if all(self.leq[c][d] for d in bounds)]
                row.append(best[0] if best else None)
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def bottom(self):
        for a in self.elements:
            if all(self.leq[a][b] for b in self.elements):
                return a
        return None

    @cached_property
    def top(self):
        for a in self.elements:
            if all(self.leq[b][a] for b in self.elements):
                return a
        return None

    def join_of(self, subset) -> int | None:
        out = self.bottom
        for a in subset:
            if out is None:
                return None
            out = self.join[out][a]
        return out

    def meet_of(self, subset) -> int | None:
        out = self.top
        for a in subset:
            if out is None:
                return None
            out = self.meet[out][a]
        return out


def validate_lattice(lat: FinLattice) -> list[str]:
    report = []
    n = lat.n
    for a in range(n):
        if not lat.leq[a][a]:
            report.append(f"order not reflexive at {a}")
    for a in range(n):
        for b in range(n):
            if a != b and lat.leq[a][b] and lat.leq[b][a]:
                report.append(f"order not antisymmetric at ({a},{b})")
            for c in range(n):
                if lat.leq[a][b] and lat.leq[b][c] and not lat.leq[a][c]:
                    report.append(f"order not transitive at ({a},{b},{c})")
    if report:
        return report
    for a in range(n):
        for b in range(n):
            if lat.meet[a][b] is None:
                report.append(f"meet missing for ({a},{b})")
            if lat.join[a][b] is None:
                report.append(f"join missing for ({a},{b})")
    return report


def is_distributive(lat: FinLattice) -> bool:
    """Full triple scan of a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c)."""
    for a, b, c in itertools.product(lat.elements, repeat=3):
        lhs = lat.meet[a][lat.join[b][c]]
        rhs = lat.join[lat.meet[a][b]][lat.meet[a][c]]
        if lhs != rhs:
            return False
    return True


def join_irreducibles(lat: FinLattice) -> list[int]:
    """Non-bottom elements that are not proper joins."""
    out = []
    for p in lat.elements:
        if p == lat.bottom:
            continue
        if any(lat.join[a][b] == p for a in lat.elements for b in lat.elements
               if a != p and b != p):
            continue
        out.append(p)
    return out


@dataclass(frozen=True)
class Embedding:
    """An order map into a powerset: element -> frozenset over the index set."""

    points: tuple  # the index set X
    images: tuple[frozenset, ...]

    def verify(self, lat: FinLattice, prescribed) -> list[str]:
        report = []
        if len(set(self.images)) != lat.n:
            report.append("not injective")
        for a in lat.elements:
            for b in lat.elements:
                if self.images[lat.meet[a][b]] != self.images[a] & self.images[b]:
                    report.append(f"meet not preserved at ({a},{b})")
        top_image = frozenset(self.points)
        if lat.top is not None and self.images[lat.top] != top_image:
            report.append("empty meet (top) not preserved")
        for subset in prescribed:
            join = lat.join_of(subset)
            union = frozenset().union(*(self.images[a] for a in subset)) \
                if subset else frozenset()
            if self.images[join] != union:
                report.append(f"prescribed join of {tuple(subset)} not preserved")
        return report


def birkhoff_embed(lat: FinLattice, prescribed=()) -> Embedding:
    """a |-> {join-irreducible p : p <= a}; injective and meet-preserving on
    any finite distributive lattice, and join-preserving outright there."""
    if not is_distributive(lat):
        raise NonDistributiveError("NON_DISTRIBUTIVE")
    for subset in prescribed:
        if lat.join_of(subset) is None:
            raise ValueError("a prescribed subset has no join")
    points = tuple(join_irreducibles(lat))
    images = tuple(frozenset(p for p in points if lat.leq[p][a])
                   for a in lat.elements)
    return Embedding(points, images)


def lattice_site(lat: FinLattice, prescribed=()) -> SiteSpec:
    """The lattice as a poset site whose covers are the prescribed joins."""
    cat = poset_category([list(row) for row in lat.leq],
                         tuple(lat.name(a) for a in lat.elements))
    terminal = lat.top
    covers = [Family.make(terminal, [cat.identity[terminal]])]
    for subset in prescribed:
        join = lat.join_of(subset)
        legs = []
        for a in subset:
            legs.append(cat.identity[a] if a == join
                        else cat.hom(a, join)[0])
        covers.append(Family.make(join, legs))
    return SiteSpec.make(cat, covers)


def model_embed(lat: FinLattice, prescribed=(), budget: int = 64) -> Embedding:
    """The corollary's model route: separate every non-contained pair by a
    chase witness; the two-valued witnesses index the powerset.

    A poset-site branch colimit is a representable, so each witness is the
    indicator of a principal filter; the map sends a to the set of witnesses
    that contain it.
    """
    if not is_distributive(lat):
        raise NonDistributiveError("NON_DISTRIBUTIVE")
    site = lattice_site(lat, prescribed)
    cat = site.cat
    top = lat.top
    witnesses = {}  # stabilized object -> model
    for a in lat.elements:
        for b in lat.elements:
            if lat.leq[a][b]:
                continue
            u = cat.identity[a] if a == top else cat.hom(a, top)[0]
            v = cat.identity[b] if b == top else cat.hom(b, top)[0]
            result = separate_subobjects(site, top, u, v, budget=budget)
            if result.verdict == CONTAINED:
                raise EmbeddingError(f"order disagrees with mono factorization "
                                     f"at ({lat.name(a)}, {lat.name(b)})")
            if result.verdict != WITNESS:
                raise InconclusiveError(f"budget exhausted separating ({a},{b})")
            witnesses[result.witness_branch.current] = result.witness
    points = tuple(sorted(witnesses))
    images = tuple(frozenset(w for w in points
                             if witnesses[w].functor.sizes[a] > 0)
                   for a in lat.elements)
    return Embedding(points, images)


def downset_lattice(n_points: int, relation) -> FinLattice:
    """The lattice of downsets of a poset given by its strict relation pairs."""
    leq_pts = order_closure(n_points, relation)
    downsets = []
    for bits in itertools.product((0, 1), repeat=n_points):
        members = {i for i in range(n_points) if bits[i]}
        if all(j in members for i in members
               for j in range(n_points) if leq_pts[j][i]):
            downsets.append(frozenset(members))
    downsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    leq = tuple(tuple(a <= b for b in downsets) for a in downsets)
    return FinLattice(leq)


def _canonical_form(lat: FinLattice):
    """Isomorphism invariant: the lexicographically least row-major leq
    matrix over all n! relabelings, built row by row by individualization
    and refinement.

    The unplaced elements form an ordered partition whose blocks agree on
    every placed row.  Placing p from the first block and splitting each
    block into the elements p is not below, then those it is below, fixes
    row k.  Only the candidates with the least row are branched on, and a
    branch is cut once its rows exceed those of the best matrix found.
    Any relation matrix works, not only orders: nothing assumes a lattice.
    """
    leq = lat.leq
    n = len(leq)
    best = []

    def extend(placed, blocks, rows):
        if len(placed) == n:
            if not best or rows < best:
                best[:] = rows
            return
        first, rest = blocks[0], blocks[1:]
        candidates = []
        for p in first:
            row_p = leq[p]
            split = []
            for block in [[x for x in first if x != p], *rest]:
                split.append([x for x in block if not row_p[x]])
                split.append([x for x in block if row_p[x]])
            split = [block for block in split if block]
            row = (tuple(row_p[q] for q in placed) + (row_p[p],)
                   + tuple(row_p[block[0]] for block in split for _ in block))
            candidates.append((row, p, split))
        least = min(row for row, _, _ in candidates)
        rows = rows + [least]
        if best and rows > best[:len(rows)]:
            return
        for row, p, split in candidates:
            if row == least:
                extend(placed + [p], split, rows)

    extend([], [list(range(n))], [])
    return tuple(best)


def _posets_within(n_points: int, max_size: int):
    """Every naturally labelled poset on n_points points with at most
    max_size downsets, as (predecessor masks, downsets as bitmasks).

    Column j picks the strict predecessors of point j: any downset of the
    finished prefix {0..j-1}, that is, any mask on the prefix's downset list.
    The list then gains d | 1 << j for each downset d holding that mask.  The
    prefix is a downset of the final poset and every later point adds at
    least one downset, so a prefix that leaves no room for them is cut.
    """
    below = []

    def extend(j, downsets):
        if len(downsets) + n_points - j > max_size:
            return
        if j == n_points:
            yield tuple(below), downsets
            return
        for mask in downsets:
            below.append(mask)
            yield from extend(j + 1, downsets + [
                d | 1 << j for d in downsets if mask & ~d == 0])
            below.pop()

    return extend(0, [0])


def _lattice_of(downsets) -> FinLattice:
    """The lattice of downsets given as bitmasks, ordered as in
    ``downset_lattice``: by size, then by members ascending."""
    downsets = sorted(downsets, key=lambda d: (
        d.bit_count(), [i for i in range(d.bit_length()) if d >> i & 1]))
    return FinLattice(tuple(tuple(a & ~b == 0 for b in downsets)
                            for a in downsets))


def distributive_catalogue(max_size: int = 6) -> list[FinLattice]:
    """Every distributive lattice with at most max_size elements, one per
    isomorphism class, via Birkhoff duality: downset lattices of the posets
    on at most max_size - 1 points, labelled within a linear extension.

    ``_posets_within`` decides the posets column by column and cuts a prefix
    once its downset count plus one per point still to come passes max_size,
    so each lattice is read off the downset bitmasks of a poset that fits.
    Each class keeps the poset whose bit vector over the pairs (0, 1),
    (0, 2), ..., (1, 2), ... (bit set when i precedes j) is least: the first
    in ``itertools.product`` order, whatever order the posets come in."""
    seen = {}
    for n_points in range(max_size):
        pairs = [(i, j) for i in range(n_points) for j in range(i + 1, n_points)]
        for below, downsets in _posets_within(n_points, max_size):
            lat = _lattice_of(downsets)
            key = (lat.n, _canonical_form(lat))
            bits = tuple(below[j] >> i & 1 for i, j in pairs)
            if key not in seen or bits < seen[key][0]:
                seen[key] = bits, lat
    return [seen[key][1] for key in sorted(seen)]


def m3() -> FinLattice:
    """The diamond M3: bottom, three incomparable atoms, top."""
    leq = [[i == j for j in range(5)] for i in range(5)]
    for a in range(5):
        leq[0][a] = True
        leq[a][4] = True
    return FinLattice(tuple(tuple(row) for row in leq),
                      ("bot", "x", "y", "z", "top"))


def n5() -> FinLattice:
    """The pentagon N5: 0 < a < b < 1 and 0 < c < 1 with c incomparable to a, b."""
    names = ("bot", "a", "b", "c", "top")
    leq = [[i == j for j in range(5)] for i in range(5)]
    for a in range(5):
        leq[0][a] = True
        leq[a][4] = True
    leq[1][2] = True
    return FinLattice(tuple(tuple(row) for row in leq), names)


def has_forbidden_sublattice(lat: FinLattice) -> bool:
    """Independent distributivity oracle: an M3 or N5 sublattice exists.

    A subset counts when it is closed under the ambient meet and join and its
    induced order matches one of the two forbidden shapes.
    """
    targets = {_canonical_form(m3()), _canonical_form(n5())}
    for subset in itertools.combinations(lat.elements, 5):
        closed = all(lat.meet[a][b] in subset and lat.join[a][b] in subset
                     for a in subset for b in subset)
        if not closed:
            continue
        sub_leq = FinLattice(tuple(
            tuple(lat.leq[a][b] for b in subset) for a in subset))
        if _canonical_form(sub_leq) in targets:
            return True
    return False
