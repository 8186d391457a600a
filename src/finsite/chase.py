"""The completeness chase: fairly scheduled pullback refinements whose branch
colimits of representables are models, subobject separation, and chase-based
cover detection.

Budgets are honest: BUDGET_EXCEEDED is a first-class outcome and no colimit
is ever extrapolated from an unfinished branch.

The per-site tables (task lists, dead and stable objects, verified branch
colimits, explored cotrees) are kept on the site by ``fincat.kept`` at first
use, so a chase step never hashes the site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import limits
from .fincat import constant_singleton, covariant_representable, kept
from .models import Model, is_lex, preserves_covers
from .site import Family, MissingPullbackError, SiteSpec

STABILIZED = "STABILIZED"
DEAD = "DEAD"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"

FIRST_LEG = "first-leg"


def pairing(alpha: int, beta: int) -> int:
    """Cantor pairing; satisfies pairing(alpha, beta) >= beta, which is what
    fair scheduling needs (a task is never solved before it is enqueued)."""
    if alpha < 0 or beta < 0:
        raise ValueError("pairing is defined on non-negative integers")
    return (alpha + beta) * (alpha + beta + 1) // 2 + beta


def unpairing(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("unpairing is defined on non-negative integers")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    beta = n - w * (w + 1) // 2
    return w - beta, beta


@dataclass(frozen=True)
class Task:
    arrow: int    # u -> y, u the object whose task list holds the task
    family: Family


@dataclass(frozen=True)
class ChaseBranch:
    site: SiteSpec
    root: int
    chain: tuple[tuple[int, int], ...]    # (object, connecting mor into previous)
    choices: tuple[tuple[int, int], ...]  # per solved step: (task index, leg index)
    columns: tuple[tuple[Task, ...], ...]  # column n: the task list of u_n
    status: str

    @property
    def current(self) -> int:
        return self.chain[-1][0]

    def composite_to(self, stage: int) -> int:
        """Connecting composite from the newest object back to stage."""
        return _composite_to(self.site.cat, self.chain, stage)


def _composite_to(cat, chain, stage: int) -> int:
    """Composite of the connecting arrows of ``chain`` from its newest
    object back to the object of ``stage``."""
    out = cat.identity[chain[-1][0]]
    for _, connect in reversed(chain[stage + 1:]):
        out = cat.comp[connect][out]
    return out


def nonempty_covers(site: SiteSpec) -> list[Family]:
    """E^-: the covers actually scheduled; empty ones route through DEAD
    detection instead, exactly as the construction cancels them."""
    return [fam for fam in site.covers if fam.legs]


@kept
def _task_list(site: SiteSpec, u: int) -> tuple[Task, ...]:
    """T_u: every (arrow out of u, nonempty family on its codomain) diagram,
    ordered by (arrow id, family position)."""
    cat = site.cat
    fams = nonempty_covers(site)
    return tuple(Task(arrow, fam) for arrow in cat.out_of(u)
                 for fam in fams if fam.codomain == cat.cod[arrow])


@kept
def _dead_objects(site: SiteSpec) -> frozenset[int]:
    """Objects whose branches are written off: the strict initial (unless the
    site is degenerate and it is also terminal, where the dichotomy is
    non-exclusive) and everything that maps into an empty-covered object."""
    cat = site.cat
    dead = set()
    initial = limits.strict_initial(cat)
    terminal = limits.terminal_object(cat)
    if initial is not None and initial != terminal:
        dead.add(initial)
    empty_covered = {fam.codomain for fam in site.covers if not fam.legs}
    for x in cat.objects:
        if any(cat.hom(x, z) for z in empty_covered):
            dead.add(x)
    return frozenset(dead)


@kept
def _stabilized_objects(site: SiteSpec) -> frozenset[int]:
    """u is stable when every arrow out of u factors through a leg of every
    scheduled family on its codomain: from such a u every present and future
    task admits an identity refinement, so the branch colimit is C(u,-).

    Quantifying over earlier stages is subsumed: composites out of u_n are
    themselves arrows out of u_n.
    """
    cat = site.cat
    fams = nonempty_covers(site)
    return frozenset(
        u for u in cat.objects
        if all(any(cat.factors_through(h, leg) is not None for leg in fam.legs)
               for h in cat.out_of(u)
               for fam in fams if fam.codomain == cat.cod[h]))


def solve_task(site: SiteSpec, branch_chain, stage: int, task: Task, leg_index: int):
    """One pullback step: refine the newest object along the chosen leg of
    a task from column ``stage``, whose arrow starts at the object of that
    stage.

    When the composite already factors through the chosen leg the stage is an
    identity stage: the pullback would be an iso anyway, and identity stages
    are what make stabilization detectable.
    """
    cat = site.cat
    if leg_index >= len(task.family.legs):
        raise ValueError("leg index out of range")
    leg = task.family.legs[leg_index]
    current = branch_chain[-1][0]
    composite = _composite_to(cat, branch_chain, stage)
    arrow = cat.comp[task.arrow][composite]  # current -> y
    if cat.factors_through(arrow, leg) is not None:
        return current, cat.identity[current]
    square = limits.pullback(cat, leg, arrow)
    if square is None:
        raise MissingPullbackError(leg, arrow)
    return square.apex, square.to_right


def run_branch(site: SiteSpec, root: int, strategy=FIRST_LEG,
               budget: int = 64) -> ChaseBranch:
    """Run one branch for at most ``budget`` solving steps.

    Step n fills column n with T_{u_n} and solves task unpairing(n); the task
    index addresses its column cyclically, realizing the construction's
    padding of task lists by repetition.  An explicit choice sequence defers
    the stabilization certificate until its choices are spent, so prescribed
    leg choices can still walk a stable object into a refinement.
    """
    explicit = None if strategy == FIRST_LEG else tuple(strategy)
    return _continue_branch(site, root, [(root, site.cat.identity[root])], [], [],
                            explicit, budget)


def _continue_branch(site: SiteSpec, root: int, chain: list, columns: list,
                     choices: list, explicit, budget: int) -> ChaseBranch:
    """Run a branch on from the state after step n = len(choices): chain
    holds n + 1 objects and columns n columns.  The lists are extended in
    place."""
    cat = site.cat
    dead = _dead_objects(site)
    stable = _stabilized_objects(site)
    status = BUDGET_EXCEEDED
    for n in range(len(choices), budget):
        u = chain[-1][0]
        if u in dead:
            status = DEAD
            break
        deferred = explicit is not None and len(choices) < len(explicit)
        if not deferred and len(chain) >= 2 and chain[-1][0] == chain[-2][0] \
                and cat.is_identity(chain[-1][1]) and u in stable:
            status = STABILIZED
            break
        columns.append(_task_list(site, u))
        alpha, beta = unpairing(n)
        column = columns[beta]
        if not column:
            raise ValueError("empty task list; the site is missing id: 1 -> 1")
        task = column[alpha % len(column)]
        leg_index = explicit[len(choices)] % len(task.family.legs) if deferred else 0
        obj, connect = solve_task(site, chain, beta, task, leg_index)
        chain.append((obj, connect))
        choices.append((alpha % len(column), leg_index))
    return ChaseBranch(site, root, tuple(chain), tuple(choices),
                       tuple(columns), status)


def branch_colimit(branch: ChaseBranch) -> Model:
    """DEAD branches yield the terminal copresheaf; stabilized ones the
    representable at the stable object, which is lex and preserves every
    nonempty cover (the empty ones were cancelled from the list).

    The model depends only on the status and, when stabilized, the current
    object, so it is built and checked once per site and kept on it.
    """
    if branch.status == DEAD:
        return _colimit(branch.site, None)
    if branch.status == STABILIZED:
        return _colimit(branch.site, branch.current)
    raise ValueError("branch exceeded its budget; no colimit is computed")


@kept
def _colimit(site: SiteSpec, stable: int | None) -> Model:
    """The checked colimit of a DEAD branch (None) or one stable at ``stable``."""
    functor = constant_singleton(site.cat) if stable is None \
        else covariant_representable(site.cat, stable)
    nonempty = SiteSpec.make(site.cat, nonempty_covers(site))
    return Model(functor, is_lex(site.cat, functor), preserves_covers(functor, nonempty))


@dataclass(frozen=True)
class CotreeNode:
    branch: ChaseBranch
    children: tuple[tuple[int, "CotreeNode"], ...]  # (leg index, subtree)


@dataclass(frozen=True)
class Cotree:
    root: CotreeNode
    leaves: tuple[ChaseBranch, ...]
    all_terminated: bool
    has_live_branch: bool
    pruned: bool  # a width limit actually cut leg options somewhere


def explore_cotree(site: SiteSpec, root: int, budget: int = 64,
                   width: int | None = None) -> Cotree:
    """Expand the leg options of every scheduled task, depth-limited by the
    budget and breadth-limited by the width (all legs when width is None).

    A node is a branch prefix; it becomes a leaf once the branch run under
    that prefix terminates without consuming more choices.

    A child shares its parent's first d steps, d the parent's depth, and the
    parent took leg 0 at step d, so child 0 is the parent's branch itself
    and child k >= 1 runs on from the parent's state before step d.  The
    cotree is kept on the site, one per (root, budget, width).
    """
    return _cotree(site, root, budget, width)


@kept
def _cotree(site: SiteSpec, root: int, budget: int, width: int | None) -> Cotree:
    leaves = []
    pruned = False

    def expand(prefix, branch):
        nonlocal pruned
        depth = len(prefix)
        if len(branch.choices) <= depth:
            leaves.append(branch)
            return CotreeNode(branch, ())
        alpha, beta = unpairing(depth)
        column = branch.columns[beta]
        n_legs = len(column[alpha % len(column)].family.legs)
        take = n_legs if width is None else min(width, n_legs)
        if take < n_legs:
            pruned = True
        children = [(0, expand(prefix + (0,), branch))]
        for leg in range(1, take):
            child_prefix = prefix + (leg,)
            child = _continue_branch(site, root, list(branch.chain[:depth + 1]),
                                     list(branch.columns[:depth]),
                                     list(branch.choices[:depth]),
                                     child_prefix, budget)
            children.append((leg, expand(child_prefix, child)))
        return CotreeNode(branch, tuple(children))

    root_node = expand((), run_branch(site, root, strategy=(), budget=budget))
    terminated = all(leaf.status != BUDGET_EXCEEDED for leaf in leaves)
    live = any(leaf.status == STABILIZED for leaf in leaves)
    return Cotree(root_node, tuple(leaves), terminated, live, pruned)


CONTAINED = "CONTAINED"
WITNESS = "WITNESS"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SeparationResult:
    verdict: str
    witness: Model | None = None
    witness_branch: ChaseBranch | None = None
    leaves: int = field(default=0, compare=False)  # cotree leaves explored


def separate_subobjects(site: SiteSpec, x: int, u: int, v: int,
                        budget: int = 64, width: int | None = None) -> SeparationResult:
    """u <= v iff u factors through v; when it does not, some stabilized
    branch colimit rooted at dom(u) keeps the generic point of u outside the
    image of v, and that witness is returned re-verified."""
    cat = site.cat
    if cat.cod[u] != x or cat.cod[v] != x:
        raise ValueError("u and v must be subobjects of x")
    if cat.factors_through(u, v) is not None:
        return SeparationResult(CONTAINED)
    tree = explore_cotree(site, root=cat.dom[u], budget=budget, width=width)
    explored = len(tree.leaves)
    for branch in tree.leaves:
        if branch.status != STABILIZED:
            continue
        model = branch_colimit(branch)
        w = branch.current
        connect = branch.composite_to(0)   # w -> dom(u)
        point = cat.comp[u][connect]       # [1_u] pushed into M(x)
        if not any(cat.comp[v][d] == point for d in cat.hom(w, cat.dom[v])):
            if not (model.is_lex and model.preserves_covers):
                raise AssertionError("the separating colimit is not a model")
            return SeparationResult(WITNESS, model, branch, explored)
    return SeparationResult(INCONCLUSIVE, leaves=explored)


@dataclass(frozen=True)
class CoverCheckResult:
    verdict: bool | None  # None encodes INCONCLUSIVE
    countermodel: Model | None = None


def family_jointly_covers(site: SiteSpec, fam: Family, budget: int = 64,
                          width: int | None = None) -> CoverCheckResult:
    """Chase-based cover detection: the family covers iff the generic point
    of every terminating branch colimit is hit by the family's image."""
    cat = site.cat
    x = fam.codomain
    if any(cat.cod[f] != x for f in fam.legs):
        raise ValueError("family has mixed codomains")
    tree = explore_cotree(site, root=x, budget=budget, width=width)
    for branch in tree.leaves:
        if branch.status != STABILIZED:
            continue
        w = branch.current
        generic = branch.composite_to(0)   # class of 1_x in M(x)
        hit = any(cat.comp[leg][d] == generic
                  for leg in fam.legs for d in cat.hom(w, cat.dom[leg]))
        if not hit:
            model = branch_colimit(branch)
            if not (model.is_lex and model.preserves_covers):
                raise AssertionError("the refuting colimit is not a model")
            return CoverCheckResult(False, model)
    if not tree.all_terminated or tree.pruned:
        return CoverCheckResult(None)  # an unexplored branch could refute
    return CoverCheckResult(True)
