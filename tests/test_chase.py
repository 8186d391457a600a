"""The chase: pairing fairness, branch runs, colimits, separation, covers."""

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsite import chase, fixtures
from finsite.chase import (BUDGET_EXCEEDED, CONTAINED, DEAD, INCONCLUSIVE,
                           STABILIZED, WITNESS, ChaseBranch, Task,
                           _dead_objects, _stabilized_objects, _task_list,
                           branch_colimit, explore_cotree,
                           family_jointly_covers, nonempty_covers, pairing,
                           run_branch, separate_subobjects, solve_task,
                           unpairing)
from finsite.fincat import (FinCategory, constant_singleton,
                            covariant_representable, poset_category)
from finsite.limits import strict_initial, subobject_lattice, terminal_object
from finsite.models import (Model, ModelBound, enumerate_models, is_lex,
                            preserves_covers)
from finsite.presheaf import extremal_epi_in_sh, sheafified_postcompose
from finsite.site import (Family, MissingPullbackError, SiteSpec, family_covers,
                          site_topology)

from helpers import (boolean_leq, fresh_site, iso_pair_category, left_zero_monoid,
                     poset_site, posets, random_covers_site, slow_explore_cotree,
                     slow_separate_subobjects)

ALL_SITES = fixtures.all_sites()
DIAMOND_SITE = ALL_SITES["diamond"]
DIAMOND = DIAMOND_SITE.cat
POINT_SITE = ALL_SITES["point"]


def test_pairing_exhaustive_under_100():
    seen = {}
    for alpha in range(100):
        for beta in range(100):
            n = pairing(alpha, beta)
            assert n >= beta
            assert n not in seen
            seen[n] = (alpha, beta)
            assert unpairing(n) == (alpha, beta)
    assert pairing(0, 0) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6))
def test_pairing_properties(alpha, beta):
    n = pairing(alpha, beta)
    assert n >= beta
    assert unpairing(n) == (alpha, beta)


def test_solve_task_identity_cover_is_identity_stage():
    chain = [(3, DIAMOND.identity[3])]
    task = Task(DIAMOND.identity[3], Family.make(3, [3]))
    obj, connect = solve_task(DIAMOND_SITE, chain, 0, task, 0)
    assert obj == 3 and DIAMOND.is_identity(connect)


def test_solve_task_pullback_steps():
    chain = [(3, DIAMOND.identity[3])]
    task = Task(DIAMOND.identity[3], Family.make(3, [7, 8]))
    obj, connect = solve_task(DIAMOND_SITE, chain, 0, task, 0)
    assert obj == 1 and connect == 7  # pull the a-leg: land on a
    chain = [(3, DIAMOND.identity[3]), (1, 7)]
    task = Task(7, Family.make(3, [7, 8]))  # arrow a -> 1 at stage 1
    obj, connect = solve_task(DIAMOND_SITE, chain, 1, task, 1)
    assert obj == 0  # the b-leg against a -> 1 lands on the meet


def test_point_stabilizes_after_one_identity_step():
    branch = run_branch(POINT_SITE, 0)
    assert branch.status == STABILIZED
    assert len(branch.choices) == 1
    assert branch_colimit(branch).functor.sizes == (1,)


def test_diamond_first_leg_stabilizes_at_a():
    branch = run_branch(DIAMOND_SITE, 3)
    assert branch.status == STABILIZED
    assert branch.current == 1
    model = branch_colimit(branch)
    assert model.functor == covariant_representable(DIAMOND, 1)
    assert model.functor.sizes == (0, 1, 0, 1)
    assert model.is_lex and model.preserves_covers


def test_diamond_prescribed_choices_reach_the_strict_initial():
    branch = run_branch(DIAMOND_SITE, 3, strategy=(0, 1, 0, 0, 0))
    assert branch.status == DEAD
    assert branch.current == 0
    assert branch_colimit(branch).functor == constant_singleton(DIAMOND)


def test_budget_exceeded_is_honest():
    branch = run_branch(DIAMOND_SITE, 3, budget=1)
    assert branch.status == BUDGET_EXCEEDED
    with pytest.raises(ValueError):
        branch_colimit(branch)


def test_fair_schedule_solves_enqueued_cells():
    for name, site in ALL_SITES.items():
        for root in site.cat.objects:
            branch = run_branch(site, root)
            if branch.status == BUDGET_EXCEEDED:
                continue
            for step, (task_index, _) in enumerate(branch.choices):
                alpha, beta = unpairing(step)
                assert beta <= step, name  # column beta was enqueued by then
                column = _task_list(site, branch.chain[beta][0])
                assert task_index == alpha % len(column), name


def test_cotree_on_point_is_a_single_stabilized_branch():
    tree = explore_cotree(POINT_SITE, 0)
    assert [leaf.status for leaf in tree.leaves] == [STABILIZED]
    assert tree.all_terminated


def test_cotree_on_diamond_explores_both_legs():
    tree = explore_cotree(DIAMOND_SITE, 3)
    assert sorted((leaf.status, leaf.current) for leaf in tree.leaves) \
        == [(STABILIZED, 1), (STABILIZED, 2)]
    assert tree.all_terminated


def test_cotree_on_iso_only_cover_is_linear():
    cat = POINT_SITE.cat
    site = SiteSpec.make(cat, [Family.make(0, [0])])
    tree = explore_cotree(site, 0)
    assert len(tree.leaves) == 1 and tree.leaves[0].status == STABILIZED


def test_live_branch_exists_whenever_root_is_not_written_off():
    for name, site in ALL_SITES.items():
        from finsite.chase import _dead_objects
        for root in site.cat.objects:
            tree = explore_cotree(site, root)
            if tree.all_terminated and root not in _dead_objects(site):
                assert any(leaf.status == STABILIZED for leaf in tree.leaves), \
                    (name, root)


def test_stabilized_colimits_are_lex_and_preserve_nonempty_covers():
    for name, site in ALL_SITES.items():
        for root in site.cat.objects:
            tree = explore_cotree(site, root)
            for leaf in tree.leaves:
                if leaf.status == STABILIZED:
                    model = branch_colimit(leaf)
                    assert model.is_lex and model.preserves_covers, (name, root)


def test_separation_examples():
    assert separate_subobjects(DIAMOND_SITE, 3, 7, 7).verdict == CONTAINED
    result = separate_subobjects(DIAMOND_SITE, 3, 7, 8)
    assert result.verdict == WITNESS
    assert result.witness.functor.sizes == (0, 1, 0, 1)
    assert separate_subobjects(DIAMOND_SITE, 3, 6, 7).verdict == CONTAINED


def test_separation_agrees_with_subobject_order_everywhere():
    for name, site in ALL_SITES.items():
        cat = site.cat
        for x in cat.objects:
            lattice = subobject_lattice(cat, x)
            for i, u in enumerate(lattice.representatives):
                for j, v in enumerate(lattice.representatives):
                    outcome = separate_subobjects(site, x, u, v, budget=64)
                    assert outcome.verdict != INCONCLUSIVE, (name, x, u, v)
                    assert (outcome.verdict == CONTAINED) == lattice.order[i][j], \
                        (name, x, u, v)


def test_separation_agrees_with_model_image_containment():
    for name, site in ALL_SITES.items():
        cat = site.cat
        models = [m.functor for m in enumerate_models(site, ModelBound(1))]
        for x in cat.objects:
            lattice = subobject_lattice(cat, x)
            for u in lattice.representatives:
                for v in lattice.representatives:
                    by_chase = separate_subobjects(site, x, u, v).verdict
                    by_models = all(
                        set(m.action[u]) <= set(m.action[v]) for m in models)
                    assert (by_chase == CONTAINED) == by_models, (name, x, u, v)


def test_witnesses_are_sound():
    for name, site in ALL_SITES.items():
        cat = site.cat
        for x in cat.objects:
            lattice = subobject_lattice(cat, x)
            for u in lattice.representatives:
                for v in lattice.representatives:
                    outcome = separate_subobjects(site, x, u, v)
                    if outcome.verdict != WITNESS:
                        continue
                    m = outcome.witness.functor
                    assert not set(m.action[u]) <= set(m.action[v]), (name, x)


def test_family_jointly_covers_examples():
    assert family_jointly_covers(DIAMOND_SITE, Family.make(3, [3])).verdict is True
    both = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7, 8]))
    assert both.verdict is True
    single = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7]))
    assert single.verdict is False
    assert single.countermodel.functor.sizes == (0, 0, 1, 1)  # stabilized at b
    # the bottom is strict initial and its one leaf DEAD: with no empty cover
    # on the site the terminal copresheaf is a model and refutes the empty family
    empty = family_jointly_covers(DIAMOND_SITE, Family.make(0, []))
    assert empty.verdict is False
    assert empty.countermodel.functor == constant_singleton(DIAMOND)
    # with an empty cover every dead object is covered by the empty family
    assert family_jointly_covers(ALL_SITES["diamond_empty"], Family.make(0, [])).verdict


def test_family_cover_cross_check_in_the_sheaf_topos():
    topology = site_topology(DIAMOND_SITE)
    for legs in ([3], [7, 8], [6, 7, 8]):
        verdict = family_jointly_covers(DIAMOND_SITE, Family.make(3, legs)).verdict
        ay_image = [sheafified_postcompose(DIAMOND_SITE, leg) for leg in legs]
        assert verdict is True
        assert extremal_epi_in_sh(topology, ay_image)
    refuted = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7]))
    assert refuted.verdict is False
    assert not extremal_epi_in_sh(
        topology, [sheafified_postcompose(DIAMOND_SITE, 7)])


def test_family_cover_inconclusive_on_zero_budget():
    result = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7, 8]), budget=1)
    assert result.verdict is None


def test_width_pruning_never_fakes_a_positive():
    # width 1 hides the refuting b-branch, so the answer degrades honestly
    full = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7]))
    assert full.verdict is False
    narrow = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7]), width=1)
    assert narrow.verdict in (False, None)
    covered = family_jointly_covers(DIAMOND_SITE, Family.make(3, [7, 8]), width=1)
    assert covered.verdict is not True  # pruned trees cannot certify True


def test_degenerate_point_root_is_not_dead():
    # the strict initial of POINT is also terminal; the dichotomy collapses
    assert strict_initial(POINT_SITE.cat) == 0
    assert run_branch(POINT_SITE, 0).status == STABILIZED


def test_empty_cover_reachability_kills_branches():
    site = ALL_SITES["diamond_empty"]
    branch = run_branch(site, 0)
    assert branch.status == DEAD
    # and stabilized witnesses therefore satisfy the full E, empty covers included
    tree = explore_cotree(site, 3)
    for leaf in tree.leaves:
        if leaf.status == STABILIZED:
            assert branch_colimit(leaf).functor.sizes[0] == 0


def _stopped_at(site, obj, status):
    """A terminated branch at obj; branch_colimit reads only these fields."""
    return ChaseBranch(site, ((obj, site.cat.identity[obj]),), (), status)


def test_chase_tables_belong_to_the_site_not_the_category():
    names = {DIAMOND.obj_name(x): x for x in DIAMOND.objects}
    top, a = names["1"], names["a"]
    other = SiteSpec.make(DIAMOND, [Family.make(top, [DIAMOND.identity[top]]),
                                    Family.make(a, [])])
    assert other.cat is DIAMOND_SITE.cat
    # the two sites differ in every table, so a shared one would be wrong for one
    assert _dead_objects(DIAMOND_SITE) != _dead_objects(other)
    assert _stabilized_objects(DIAMOND_SITE) != _stabilized_objects(other)
    assert _task_list(DIAMOND_SITE, a) != _task_list(other, a)
    assert branch_colimit(_stopped_at(DIAMOND_SITE, top, STABILIZED)) \
        != branch_colimit(_stopped_at(other, top, STABILIZED))
    assert explore_cotree(DIAMOND_SITE, top) != explore_cotree(other, top)
    for site in (DIAMOND_SITE, other, DIAMOND_SITE):
        fresh = fresh_site(site)
        assert explore_cotree(site, top) == explore_cotree(fresh, top)
        assert _dead_objects(site) == _dead_objects(fresh)
        assert _stabilized_objects(site) == _stabilized_objects(fresh)
        for x in DIAMOND.objects:
            assert _task_list(site, x) == _task_list(fresh, x)
            for status in (STABILIZED, DEAD):
                assert branch_colimit(_stopped_at(site, x, status)) \
                    == branch_colimit(_stopped_at(fresh, x, status))


def test_memoised_branch_colimits_equal_fresh_models():
    sites = dict(ALL_SITES, bool_3=poset_site(boolean_leq(3)))
    for name, site in sites.items():
        cat = site.cat
        nonempty = SiteSpec.make(cat, nonempty_covers(site))
        for root in cat.objects:
            for leaf in explore_cotree(site, root).leaves:
                if leaf.status == BUDGET_EXCEEDED:
                    continue
                if leaf.status == DEAD:
                    functor = constant_singleton(cat)
                else:
                    functor = covariant_representable(cat, leaf.current)
                fresh = Model(functor, is_lex(cat, functor),
                              preserves_covers(functor, nonempty))
                assert branch_colimit(leaf) == fresh, (name, root)
                assert branch_colimit(leaf) is branch_colimit(leaf)


def test_warm_cotree_exploration_hashes_no_site(monkeypatch):
    site = poset_site(boolean_leq(3))
    for root in site.cat.objects:
        explore_cotree(site, root)
    calls = []

    def counting(cls):
        original = cls.__hash__

        def wrapper(self):
            calls.append(cls.__name__)
            return original(self)
        return wrapper

    for cls in (SiteSpec, FinCategory):
        monkeypatch.setattr(cls, "__hash__", counting(cls))
    hash(site)
    assert calls == ["SiteSpec", "FinCategory"]  # the wrappers are live
    calls.clear()
    for root in site.cat.objects:
        explore_cotree(site, root)
    assert calls == []


def _assert_cotree_matches_oracle(site, root, budget, width, label):
    """Equal cotrees, leaf by leaf in order (an interior node's branch is
    its child 0's, so the leaves are every branch the tree holds), or the
    same error on both sides: a missing pullback, or a task list left empty
    by a random cover list without the identity cover on the terminal
    object."""
    label = (label, root, budget, width)
    try:
        slow = slow_explore_cotree(site, root, budget, width)
    except (MissingPullbackError, ValueError) as exc:
        with pytest.raises(type(exc)) as raised:
            explore_cotree(site, root, budget, width)
        assert str(raised.value) == str(exc), label
        return
    fast = explore_cotree(site, root, budget, width)
    assert fast.leaves == slow.leaves, label
    assert (fast.all_terminated, fast.pruned) == (slow.all_terminated, slow.pruned), label
    assert fast == slow, label


ORACLE_SITES = dict(ALL_SITES, bool_3=poset_site(boolean_leq(3)))


@pytest.mark.parametrize("budget", [8, 64])
@pytest.mark.parametrize("width", [None, 1])
def test_cotree_matches_the_replaying_oracle(budget, width):
    for name, site in ORACLE_SITES.items():
        for root in site.cat.objects:
            _assert_cotree_matches_oracle(site, root, budget, width, name)


@pytest.mark.parametrize("width", [None, 1])
def test_cotree_matches_the_replaying_oracle_on_bool_4(width):
    site = poset_site(boolean_leq(4))
    for root in site.cat.objects:
        _assert_cotree_matches_oracle(site, root, 8, width, "bool_4")


@settings(max_examples=80, deadline=None)
@given(posets(max_objects=6), st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from([8, 64]), st.sampled_from([None, 1]))
def test_cotree_matches_the_replaying_oracle_on_random_posets(leq, seed, budget, width):
    site = random_covers_site(poset_category(leq), seed)
    cat = site.cat
    maximal = [y for y in cat.objects if all(cat.cod[f] == y for f in cat.out_of(y))]
    # with the identity family on every maximal object no task list is empty
    topped = SiteSpec.make(cat, site.covers + tuple(
        Family.make(y, [cat.identity[y]]) for y in maximal))
    for root in cat.objects:
        _assert_cotree_matches_oracle(site, root, budget, width, seed)
        _assert_cotree_matches_oracle(topped, root, budget, width, (seed, "topped"))


@pytest.mark.parametrize("make_cat", [iso_pair_category, left_zero_monoid])
def test_cotree_matches_the_replaying_oracle_on_non_posets(make_cat):
    cat = make_cat()
    for seed in range(24):
        site = random_covers_site(cat, seed)
        for budget in (8, 64):
            for width in (None, 1):
                for root in cat.objects:
                    _assert_cotree_matches_oracle(site, root, budget, width,
                                                  (make_cat.__name__, seed))


@pytest.mark.parametrize("width", [None, 1])
def test_separation_matches_the_replaying_oracle(width):
    for name, site in ORACLE_SITES.items():
        cat = site.cat
        for x in cat.objects:
            subobjects = subobject_lattice(cat, x).representatives
            for u in subobjects:
                for v in subobjects:
                    fast = separate_subobjects(site, x, u, v, width=width)
                    slow = slow_separate_subobjects(site, x, u, v, width=width)
                    label = (name, x, u, v)
                    assert fast.verdict == slow.verdict, label
                    assert fast.witness == slow.witness, label
                    assert fast.witness_branch == slow.witness_branch, label
                    assert fast.leaves == slow.leaves, label


def _assert_covers_agree_with_topology(site, budget, label):
    """Every family of at most two legs, the empty one included: a chase
    verdict on it is the generated sieve topology's."""
    topology = site_topology(site)
    cat = site.cat
    for x in cat.objects:
        for fam in (Family.make(x, legs) for k in range(3)
                    for legs in itertools.combinations(cat.into(x), k)):
            for width in (None, 1):
                try:
                    verdict = family_jointly_covers(site, fam, budget, width).verdict
                except MissingPullbackError:
                    continue  # a cospan without a pullback
                except ValueError as err:
                    if "empty task list" not in str(err):
                        # with no terminal object no colimit is lex, so none refutes
                        assert terminal_object(cat) is None, (label, fam, width)
                        assert str(err) == NO_TERMINAL, (label, fam, width)
                    continue
                if verdict is not None:
                    assert verdict == family_covers(site, topology, fam), \
                        (label, fam, width)


NO_TERMINAL = "the site has no terminal object, so no colimit is a model"


def test_chase_checks_name_a_missing_terminal_object():
    """On the left-zero monoid, which has no terminal object, the first
    escaping leaf's colimit is not lex, and the checks say why."""
    site = random_covers_site(left_zero_monoid(), 1)  # covered by its identity
    with pytest.raises(ValueError) as separation:
        separate_subobjects(site, 0, 0, 1)
    with pytest.raises(ValueError) as cover:
        family_jointly_covers(site, Family.make(0, [1]))
    assert str(separation.value) == str(cover.value) == NO_TERMINAL


def test_cover_checks_agree_with_the_sieve_topology():
    for name, site in ORACLE_SITES.items():
        _assert_covers_agree_with_topology(site, 64, name)
    _assert_covers_agree_with_topology(poset_site(boolean_leq(4)), 8, "bool_4")


@pytest.mark.parametrize("make_cat", [iso_pair_category, left_zero_monoid])
def test_cover_checks_agree_with_the_sieve_topology_on_non_posets(make_cat):
    for seed in range(24):
        site = random_covers_site(make_cat(), seed)
        _assert_covers_agree_with_topology(site, 64, (make_cat.__name__, seed))


def _count_steps_and_cotrees(monkeypatch):
    steps, trees = [], []
    solve, explore = chase.solve_task, chase.explore_cotree

    def counting_solve(*args):
        steps.append(1)
        return solve(*args)

    def recording_explore(*args, **kwargs):
        trees.append(explore(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(chase, "solve_task", counting_solve)
    monkeypatch.setattr(chase, "explore_cotree", recording_explore)
    return steps, trees


def test_warm_separation_runs_no_chase_step(monkeypatch):
    site = fresh_site(DIAMOND_SITE)
    steps, trees = _count_steps_and_cotrees(monkeypatch)
    cold = separate_subobjects(site, 3, 7, 8)
    assert steps and len(trees) == 1  # the cold call ran the chase
    steps.clear()
    warm = separate_subobjects(site, 3, 7, 8)
    assert steps == []
    assert trees[1] is trees[0]
    assert warm == cold and warm.leaves == cold.leaves


def test_warm_cover_check_runs_no_chase_step(monkeypatch):
    site = fresh_site(DIAMOND_SITE)
    steps, trees = _count_steps_and_cotrees(monkeypatch)
    fam = Family.make(3, [7])
    cold = family_jointly_covers(site, fam)
    assert steps and len(trees) == 1
    steps.clear()
    warm = family_jointly_covers(site, fam)
    assert steps == []
    assert trees[1] is trees[0]
    assert warm == cold
    separate_subobjects(site, 3, 3, 7)  # the same (root, budget, width) cotree
    assert steps == []
    assert trees[2] is trees[0]


# a fresh process that makes every branch colimit claim it is not lex, then
# asks for a separating witness and for two refuting countermodels: one from
# a stabilized leaf, and the terminal copresheaf of the dead bottom, which
# refutes the empty family
NON_LEX_WITNESSES = """
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
from finsite import chase, fixtures
from finsite.site import Family
real = chase.branch_colimit
chase.branch_colimit = lambda branch: dataclasses.replace(real(branch), is_lex=False)
site = fixtures.load_site("diamond")
if not sys.flags.optimize:
    sys.exit("not run under python -O")
for check in (lambda: chase.separate_subobjects(site, 3, 7, 8),
              lambda: chase.family_jointly_covers(site, Family.make(3, [7])),
              lambda: chase.family_jointly_covers(site, Family.make(0, []))):
    try:
        check()
    except AssertionError:
        continue
    sys.exit("a witness that is not a model was returned")
"""


def test_witness_rechecks_survive_python_O():
    """Under ``python -O``, which strips ``assert`` statements, a separation
    witness or a refuting countermodel that is not a lex, cover-preserving
    model still raises AssertionError instead of being returned."""
    src = os.path.dirname(os.path.dirname(chase.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", NON_LEX_WITNESSES, src],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
