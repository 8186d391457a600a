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
    """A branch is its chain: column n is ``_task_list(site, chain[n][0])``
    and the root is ``chain[0][0]``."""
    site: SiteSpec
    chain: tuple[tuple[int, int], ...]    # (object, connecting mor into previous)
    choices: tuple[tuple[int, int], ...]  # per solved step: (task index, leg index)
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

    Step n solves task (alpha, beta) = unpairing(n) from column beta, the
    task list T_{u_beta} of the object at stage beta; the task index
    addresses its column cyclically, realizing the construction's
    padding of task lists by repetition.  An explicit choice sequence defers
    the stabilization certificate until its choices are spent, so prescribed
    leg choices can still walk a stable object into a refinement.
    """
    explicit = None if strategy == FIRST_LEG else tuple(strategy)
    return _continue_branch(site, [(root, site.cat.identity[root])], [],
                            explicit, budget)


def _continue_branch(site: SiteSpec, chain: list, choices: list, explicit,
                     budget: int) -> ChaseBranch:
    """Run a branch on from the state after step n = len(choices), when
    chain holds n + 1 objects.  The lists are extended in place."""
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
        alpha, beta = unpairing(n)
        column = _task_list(site, chain[beta][0])
        if not column:
            raise ValueError("empty task list; the site is missing id: 1 -> 1")
        task = column[alpha % len(column)]
        leg_index = explicit[len(choices)] % len(task.family.legs) if deferred else 0
        obj, connect = solve_task(site, chain, beta, task, leg_index)
        chain.append((obj, connect))
        choices.append((alpha % len(column), leg_index))
    return ChaseBranch(site, tuple(chain), tuple(choices), status)


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
class Cotree:
    leaves: tuple[ChaseBranch, ...]  # in depth-first order, leg 0 first
    all_terminated: bool
    pruned: bool  # a width limit actually cut leg options somewhere


def explore_cotree(site: SiteSpec, root: int, budget: int = 64,
                   width: int | None = None) -> Cotree:
    """Expand the leg options of every scheduled task, depth-limited by the
    budget and breadth-limited by the width (all legs when width is None),
    and keep the leaves.

    A node is a branch prefix; it becomes a leaf once the branch run under
    that prefix terminates without consuming more choices.  Child 0 of a
    node at depth d is the node's branch itself, which took leg 0 at step
    d; child k >= 1 runs on from that branch's chain and choices before
    step d.  So the leaves are every branch the tree holds.  The cotree is
    kept on the site, one per (root, budget, width).
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
            return
        _, beta = unpairing(depth)
        task = _task_list(site, branch.chain[beta][0])[branch.choices[depth][0]]
        n_legs = len(task.family.legs)
        take = n_legs if width is None else min(width, n_legs)
        if take < n_legs:
            pruned = True
        expand(prefix + (0,), branch)
        for leg in range(1, take):
            child_prefix = prefix + (leg,)
            child = _continue_branch(site, list(branch.chain[:depth + 1]),
                                     list(branch.choices[:depth]), child_prefix, budget)
            expand(child_prefix, child)

    expand((), run_branch(site, root, strategy=(), budget=budget))
    terminated = all(leaf.status != BUDGET_EXCEEDED for leaf in leaves)
    return Cotree(tuple(leaves), terminated, pruned)


def _escaping_leaf(site: SiteSpec, leaves: tuple[ChaseBranch, ...], point: int,
                   legs: tuple[int, ...]) -> tuple[ChaseBranch | None, Model | None]:
    """The first leaf whose colimit M keeps the class of ``point`` outside
    the image of every leg, with M re-checked to be a model, or (None,
    None).  A STABILIZED leaf escapes when ``point ∘ composite_to(0)``
    factors through no leg.  A DEAD leaf's M is terminal: it escapes only
    an empty family, and is a model only when the site has no empty cover."""
    cat = site.cat
    for leaf in leaves:
        if leaf.status == STABILIZED:
            pushed = cat.comp[point][leaf.composite_to(0)]
            for leg in legs:
                if cat.factors_through(pushed, leg) is not None:
                    break
            else:  # through no leg; a plain loop, as any() over a genexpr costs more
                break
        elif leaf.status == DEAD and not legs and all(f.legs for f in site.covers):
            break
    else:
        return None, None
    model = branch_colimit(leaf)
    if not (model.is_lex and model.preserves_covers):
        if limits.terminal_object(cat) is None:  # then no colimit is lex
            raise ValueError("the site has no terminal object, so no colimit is a model")
        raise AssertionError("the escaping colimit is not a model")
    return leaf, model


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
    leaf, model = _escaping_leaf(site, tree.leaves, u, (v,))
    return SeparationResult(INCONCLUSIVE if leaf is None else WITNESS, model, leaf,
                            len(tree.leaves))


@dataclass(frozen=True)
class CoverCheckResult:
    verdict: bool | None  # None encodes INCONCLUSIVE
    countermodel: Model | None = None


def family_jointly_covers(site: SiteSpec, fam: Family, budget: int = 64,
                          width: int | None = None) -> CoverCheckResult:
    """Chase-based cover detection: the family covers iff, in every branch
    colimit that is a model, the family's image holds the generic point,
    the class of 1_x; the scan is separation's, at 1_x against every leg."""
    cat = site.cat
    x = fam.codomain
    if any(cat.cod[f] != x for f in fam.legs):
        raise ValueError("family has mixed codomains")
    tree = explore_cotree(site, root=x, budget=budget, width=width)
    leaf, model = _escaping_leaf(site, tree.leaves, cat.identity[x], fam.legs)
    if leaf is not None:
        return CoverCheckResult(False, model)
    if not tree.all_terminated or tree.pruned:
        return CoverCheckResult(None)  # an unexplored branch could refute
    return CoverCheckResult(True)
