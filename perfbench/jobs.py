"""The jobs of each workload, with the answers they are checked against.

A job is timed from the start of ``run`` to its return; ``answer`` and
``oracle`` run after the clock stops.  ``answer`` reduces the output to a
value compared with the one recorded in answers.json for the same job id
(CLI jobs digest ``result``, ``witnesses`` and the exit code, never
``timings``).  ``oracle`` is an independent check that returns a problem
string or None.

Library calls go through module attributes (``presheaf.sheafify``, not a
name imported from it), so that a tracer installed after this module is
imported still sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from finsite import chase, cli, lattice, presheaf
from finsite import site as site_mod
from finsite.fileformat import parse_site

ANSWERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "answers.json")
SEPARATION_BUDGET = 8      # bool_4 at the default 64 does not finish in minutes
EMBED_BUDGET = 64
CATALOGUE_SIZES = {6: 13, 7: 21}   # distributive lattices with <= n elements, OEIS A006982
MODEL_COUNTS = {"fixture_wide5": 4, "chain_6": 6}   # at every bound


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    answer: Callable[[object], object] | None = None
    oracle: Callable[[object], str | None] | None = None


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_answers() -> dict:
    with open(ANSWERS, encoding="utf-8") as handle:
        return json.load(handle)


def judge(job: Job, output, answers: dict) -> str | None:
    """The first problem with a job's output, or None when it is correct."""
    if job.oracle is not None:
        problem = job.oracle(output)
        if problem:
            return problem
    if job.answer is not None:
        if job.id not in answers:
            return "no recorded answer"
        if job.answer(output) != answers[job.id]:
            return "answer differs from the recorded one"
    return None


# ---------------------------------------------------------------- CLI jobs

def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, json.loads(buffer.getvalue())


def _cli_answer(output):
    code, document = output
    return digest({"exit": code, "result": document["result"],
                   "witnesses": document["witnesses"]})


def _cli_job(job_id, argv, oracle=None):
    def checked(output):
        code, document = output
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        return oracle(document["result"]) if oracle else None
    return Job(job_id, lambda: _run_cli(argv + ["--json"]), _cli_answer, checked)


def _expect(key, expected):
    def oracle(result):
        if result[key] != expected:
            return f"{key} is {result[key]!r}, expected {expected!r}"
        return None
    return oracle


def _load(inputs, name):
    with open(inputs[name]["file"], encoding="utf-8") as handle:
        return parse_site(handle.read())


def models_jobs(inputs, rng):
    """One-shot CLI jobs dominated by model enumeration.  An odd job count
    keeps the median job time on one job instead of between two.  ``wide5``
    runs at B=2: at B=3 it alone takes ~5 s, which would leave too few
    repetitions of every job in a run to measure it steadily."""
    jobs = []
    for name, bound in (("fixture_wide5", 2), ("chain_6", 2), ("bool_4", 1),
                        ("pbool_3", 2), ("pbool_4", 1)):
        count = MODEL_COUNTS.get(name)
        jobs.append(_cli_job(f"models:{name}:B{bound}",
                             ["models", inputs[name]["file"], "--bound", str(bound)],
                             _expect("count", count) if count else None))
    for name, bound in (("chain_6", 2), ("bool_3", 1)):
        jobs.append(_cli_job(f"delta-check:{name}:B{bound}",
                             ["delta-check", inputs[name]["file"], "--bound", str(bound)],
                             _expect("all_isomorphisms", True)))
        jobs.append(_cli_job(f"eta-check:{name}:B{bound}",
                             ["eta-check", inputs[name]["file"], "--bound", str(bound)],
                             _expect("all_pass", True)))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------ topology jobs

def _representable_oracle(entry, x):
    """bool_k's cover topology is subcanonical, so ay(x) is y(x): one
    section at every z <= x and none elsewhere."""
    below = {lower for lower, upper in entry["order"] if upper == x}
    expected = {z: int(z in below) for z in entry["objects"]}

    def oracle(result):
        if result["sheaf"]["carriers"] != expected:
            return f"ay({x}) is not the representable y({x})"
        return None
    return oracle


def _sweep(name, site, bound, state):
    """Enumerate every presheaf on the site, then sheafify and is_sheaf-check
    each; the enumeration is a job of its own, so its time is counted."""
    cat = site.cat
    key = f"presheaves:{name}"

    def enumerate_all():
        state[key] = list(presheaf.enumerate_presheaves(cat, bound))
        return state[key]

    yield Job(f"enumerate:{name}:B{bound}", enumerate_all,
              lambda ps: digest([[p.sizes, p.action] for p in ps]))
    for k, p in enumerate(state[key]):
        def sheafify_and_check(p=p):
            topology = site_mod.site_topology(site)
            return presheaf.sheafify(p, topology), presheaf.is_sheaf(p, topology)
        yield Job(f"sweep:{name}:B{bound}:{k}", sheafify_and_check,
                  _sweep_answer, lambda output, p=p: _unit_oracle(p, output))


def _sweep_answer(output):
    sheafification, verdict = output
    sheaf = sheafification.sheaf.presheaf
    return digest([verdict, sheaf.sizes, sheaf.action])


def _unit_oracle(p, output):
    """P is a sheaf iff its unit P => aP is a bijection at every object."""
    sheafification, verdict = output
    sizes = sheafification.sheaf.presheaf.sizes
    bijective = all(len(set(component)) == len(component) == sizes[x]
                    for x, component in enumerate(sheafification.unit.components))
    return None if bijective == verdict else "is_sheaf disagrees with the unit"


def topology_jobs(inputs, rng):
    """Saturation and sieve search, then sheafification of every object of
    bool_4 and a sweep over every small presheaf of two fixtures."""
    jobs = []
    for name in ("grid_3x5", "grid_3x4", "bool_3") + tuple(
            n for n in inputs if n.startswith("fixture_")):
        if not inputs[name]["complete"]:
            raise ValueError(f"{name} misses a pullback; saturate would fail on it")
        jobs.append(_cli_job(f"saturate:{name}", ["saturate", inputs[name]["file"]]))
    for x in inputs["bool_4"]["objects"]:
        jobs.append(_cli_job(f"sheafify:bool_4:{x}",
                             ["sheafify", inputs["bool_4"]["file"], "--object", x],
                             _representable_oracle(inputs["bool_4"], x)))
    rng.shuffle(jobs)
    sweeps = [(name, _load(inputs, name)) for name in ("fixture_wide5", "fixture_diamond")]
    rng.shuffle(sweeps)
    state = {}
    return itertools.chain(jobs, *(_sweep(name, site, 2, state) for name, site in sweeps))


# --------------------------------------------------------------- chase jobs

def _separation_queries(entry, site):
    """Every ordered pair (u, v) of subobjects of the top, with the verdict
    the order demands: in a poset u <= v exactly when dom u <= dom v, so the
    chase must answer CONTAINED then and WITNESS otherwise."""
    cat = site.cat
    order = {tuple(pair) for pair in entry["order"]}
    top = next(x for x in cat.objects if len(cat.into(x)) == cat.n_objects)
    for u in cat.into(top):
        for v in cat.into(top):
            a, b = cat.obj_name(cat.dom[u]), cat.obj_name(cat.dom[v])
            expected = chase.CONTAINED if (a, b) in order else chase.WITNESS
            yield f"{a}:{b}", (lambda u=u, v=v: chase.separate_subobjects(
                site, top, u, v, budget=SEPARATION_BUDGET)), expected


def _verdict_oracle(expected):
    def oracle(outcome):
        if outcome.verdict != expected:
            return f"verdict {outcome.verdict}, expected {expected}"
        return None
    return oracle


def _witness_answer(outcome):
    witness = outcome.witness
    return digest([outcome.verdict,
                   witness and [witness.functor.sizes, witness.functor.action]])


def _separation_jobs(name, entry, site):
    for pair, run, expected in _separation_queries(entry, site):
        yield Job(f"separate:{name}:{pair}", run, _witness_answer,
                  _verdict_oracle(expected))


def _random_separation_job(name, entry, site):
    """All pairs of the seeded poset as one job: how many pairs are
    comparable depends on the seed, and as separate jobs they would move
    the job-time quantiles from seed to seed."""
    queries = list(_separation_queries(entry, site))

    def oracle(outcomes):
        for (pair, _, expected), outcome in zip(queries, outcomes):
            problem = _verdict_oracle(expected)(outcome)
            if problem:
                return f"{pair}: {problem}"
        return None

    return Job(f"separate:{name}:all", lambda: [run() for _, run, _ in queries],
               None, oracle)


def _cover_jobs(name, entry, site):
    cat = site.cat
    objects = {cat.obj_name(x): x for x in cat.objects}
    arrows = {cat.mor_name(f): f for f in cat.morphisms}
    for query in entry["cover_queries"]:
        fam = site_mod.Family.make(objects[query["codomain"]],
                                   [arrows[leg] for leg in query["legs"]])

        def oracle(outcome, expected=query["covers"]):
            if outcome.verdict is not expected:
                return f"chase says {outcome.verdict}, sieve topology says {expected}"
            return None

        yield Job(f"covers:{name}:{query['codomain']}:{'+'.join(query['legs'])}",
                  lambda fam=fam: chase.family_jointly_covers(site, fam), None, oracle)


def _images(embedding, lat):
    return [sorted(str(p) for p in embedding.images[a]) for a in lat.elements]


def _catalogue_job(size, state):
    def run():
        state[size] = lattice.distributive_catalogue(size)
        return state[size]

    def oracle(lats, count=CATALOGUE_SIZES[size]):
        return None if len(lats) == count else f"{len(lats)} lattices, expected {count}"

    return Job(f"catalogue:{size}", run,
               lambda lats: digest([lat.leq for lat in lats]), oracle)


def _embed_job(k, state):
    """Both routes of the lattice corollary on one catalogue lattice, with
    every incomparable pair prescribed as a join to preserve."""
    def run():
        lat = state[7][k]
        prescribed = [(a, b) for a in lat.elements for b in lat.elements
                      if a < b and not lat.leq[a][b] and not lat.leq[b][a]]
        return (lat, prescribed, lattice.birkhoff_embed(lat, prescribed),
                lattice.model_embed(lat, prescribed, budget=EMBED_BUDGET))

    def oracle(output):
        lat, prescribed, birkhoff, model = output
        problems = birkhoff.verify(lat, prescribed) + model.verify(lat, prescribed)
        if problems:
            return "; ".join(problems)
        if _images(birkhoff, lat) != _images(model, lat):
            return "the Birkhoff and model routes give different images"
        return None

    return Job(f"embed:catalogue7:{k}", run,
               lambda output: digest(_images(output[2], output[0])), oracle)


def chase_jobs(inputs, rng):
    """A library session: sites are parsed once, then many small queries run
    against them, so the chase's caches are hit over and over."""
    sites = {name: _load(inputs, name) for name in ("bool_4", "bool_3", "random_8")}
    queries = [_random_separation_job("random_8", inputs["random_8"], sites["random_8"])]
    for name in ("bool_4", "bool_3"):
        queries.extend(_separation_jobs(name, inputs[name], sites[name]))
    rng.shuffle(queries)
    covers = list(_cover_jobs("bool_3", inputs["bool_3"], sites["bool_3"]))
    rng.shuffle(covers)
    state = {}
    catalogues = [_catalogue_job(size, state) for size in CATALOGUE_SIZES]
    embeds = [_embed_job(k, state) for k in range(CATALOGUE_SIZES[7])]
    rng.shuffle(embeds)
    return itertools.chain(queries, covers, catalogues, embeds)


WORKLOADS = {"models": models_jobs, "topology": topology_jobs, "chase": chase_jobs}


def workload_jobs(workload: str, manifest_path: str, seed: int, order: int = 0):
    """The jobs of one workload, in the order that the seed and the order
    number give them; each pass of a run takes the next order number, so
    that a run's medians span several orders.  Sites that library sessions
    share are parsed here, before any job runs."""
    with open(manifest_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    return WORKLOADS[workload](inputs, random.Random(f"{seed}:{order}"))
