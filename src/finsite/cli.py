"""Command-line workbench over the site/lattice text format.

Exit codes: 0 success or property holds, 1 property refuted with witness,
2 inconclusive (budget), 3 input error.  With --json a single schema-stable
document is printed; timings report logical step counters, never wall-clock,
so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chase, eventual, lattice, models, presheaf, site as site_mod
from .fileformat import ParseError, ValidationError, parse_document
from .fincat import all_nat_transformations
from .models import ModelBound
from .site import Family, SiteSpec

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _digest(text: str) -> str:
    import hashlib  # only a JSON document prints the digest
    return hashlib.sha256(text.encode()).hexdigest()


def _model_json(cat, functor):
    return {
        "carriers": {cat.obj_name(x): functor.sizes[x] for x in cat.objects},
        "actions": {cat.mor_name(f): list(functor.action[f])
                    for f in cat.morphisms},
    }


def _family_json(cat, fam: Family):
    return {"codomain": cat.obj_name(fam.codomain),
            "legs": [cat.mor_name(f) for f in fam.legs]}


def _resolve_object(cat, name):
    for x in cat.objects:
        if cat.obj_name(x) == name:
            return x
    raise ValueError(f"unknown object {name!r}")


def _resolve_subobject(cat, x, name):
    """A morphism name with codomain x, or an object name with a unique
    arrow into x (the poset reading of `--u a`)."""
    for f in cat.morphisms:
        if cat.mor_name(f) == name and cat.cod[f] == x:
            return f
    for z in cat.objects:
        if cat.obj_name(z) == name:
            arrows = cat.hom(z, x)
            if len(arrows) == 1:
                return arrows[0]
    raise ValueError(f"{name!r} does not name a subobject of {cat.obj_name(x)}")


def _read(path) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _require_site(parsed) -> SiteSpec:
    if not isinstance(parsed, SiteSpec):
        raise ValueError("this subcommand needs a site file")
    return parsed


def cmd_check(args, parsed):
    """``parsed`` is the document, or the ``ValidationError`` it raised."""
    violations = parsed.violations if isinstance(parsed, ValidationError) else []
    result = {"valid": not violations, "violations": violations}
    code = EXIT_OK if not violations else EXIT_REFUTED
    return code, result, list(violations), {}


def cmd_saturate(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    saturation = site_mod.tree_saturation(spec)
    topology = site_mod.site_topology(spec)
    result = {
        "families": [_family_json(cat, fam) for fam in saturation.families],
        "rounds": saturation.rounds,
        "sieves": {cat.obj_name(x): [sorted(cat.mor_name(f) for f in sieve.arrows)
                                     for sieve in topology.covering_sieves(x)]
                   for x in cat.objects},
    }
    return EXIT_OK, result, [], {"rounds": saturation.rounds,
                                 "families": len(saturation.families),
                                 "pastings": saturation.pastings}


def cmd_models(args, parsed):
    spec = _require_site(parsed)
    found = models.enumerate_models(spec, ModelBound(args.bound))
    result = {"bound": args.bound, "count": len(found),
              "models": [_model_json(spec.cat, m.functor) for m in found]}
    return EXIT_OK, result, [], {"models": len(found)}


def cmd_chase(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    root = _resolve_object(cat, args.root)
    strategy = chase.FIRST_LEG
    if args.strategy != chase.FIRST_LEG:
        if not args.strategy.startswith("choices="):
            raise ValueError("strategy must be first-leg or choices=0,1,...")
        strategy = tuple(int(s) for s in args.strategy[len("choices="):].split(",") if s)
    branch = chase.run_branch(spec, root, strategy=strategy, budget=args.budget)
    result = {
        "status": branch.status,
        "chain": [{"object": cat.obj_name(obj), "connect": cat.mor_name(con)}
                  for obj, con in branch.chain],
        "steps": len(branch.choices),
    }
    if branch.status in (chase.STABILIZED, chase.DEAD):
        model = chase.branch_colimit(branch)
        result["colimit"] = _model_json(cat, model.functor)
        result["is_lex"] = model.is_lex
        result["preserves_nonempty_covers"] = model.preserves_covers
    code = EXIT_OK if branch.status != chase.BUDGET_EXCEEDED else EXIT_INCONCLUSIVE
    return code, result, [], {"steps": len(branch.choices)}


def cmd_separate(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    x = _resolve_object(cat, args.object)
    u = _resolve_subobject(cat, x, args.u)
    v = _resolve_subobject(cat, x, args.v)
    width = args.width if args.width > 0 else None
    outcome = chase.separate_subobjects(spec, x, u, v, budget=args.budget,
                                        width=width)
    result = {"verdict": outcome.verdict,
              "u": cat.mor_name(u), "v": cat.mor_name(v)}
    witnesses = []
    if outcome.verdict == chase.WITNESS:
        witnesses.append(_model_json(cat, outcome.witness.functor))
        code = EXIT_REFUTED
    elif outcome.verdict == chase.CONTAINED:
        code = EXIT_OK
    else:
        code = EXIT_INCONCLUSIVE
    return code, result, witnesses, {"leaves": outcome.leaves}


def cmd_sheafify(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    x = _resolve_object(cat, args.object)
    sheafified = presheaf.ay(spec, x)
    result = {
        "object": cat.obj_name(x),
        "sheaf": _model_json(cat, sheafified.sheaf.presheaf),
        "unit": {cat.obj_name(z): list(sheafified.unit.components[z])
                 for z in cat.objects},
        "certified_sieves": sheafified.sheaf.certified_sieves,
    }
    return EXIT_OK, result, [], {"certified_sieves": sheafified.sheaf.certified_sieves}


def cmd_factor(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    x = _resolve_object(cat, args.source)
    x_prime = _resolve_object(cat, args.target)
    sh_x = presheaf.ay(spec, x).sheaf.presheaf
    sh_xp = presheaf.ay(spec, x_prime).sheaf.presheaf
    entries = []
    for alpha in all_nat_transformations(sh_x, sh_xp):
        factored = presheaf.factor_through_cover(spec, alpha, x, x_prime)
        entries.append({
            "components": {cat.obj_name(z): list(alpha.components[z])
                           for z in cat.objects},
            "family": [cat.mor_name(f) for f in factored.family],
            "arrows": [cat.mor_name(g) for g in factored.arrows],
        })
    result = {"source": cat.obj_name(x), "target": cat.obj_name(x_prime),
              "transformations": entries}
    return EXIT_OK, result, [], {"transformations": len(entries)}


def cmd_lattice_embed(args, parsed):
    if isinstance(parsed, SiteSpec):
        raise ValueError("lattice-embed needs a lattice file")
    lat, prescribed = parsed
    methods = ("birkhoff", "models") if args.method == "both" else (args.method,)
    result = {"elements": [lat.name(a) for a in lat.elements], "embeddings": {}}
    witnesses = []
    try:
        for method in methods:
            if method == "birkhoff":
                emb = lattice.birkhoff_embed(lat, prescribed)
            else:
                emb = lattice.model_embed(lat, prescribed, budget=args.budget)
            problems = emb.verify(lat, prescribed)
            if problems:
                raise lattice.EmbeddingError("; ".join(problems))
            result["embeddings"][method] = {
                "points": [str(p) for p in emb.points],
                "images": {lat.name(a): sorted(str(p) for p in emb.images[a])
                           for a in lat.elements},
            }
    except lattice.NonDistributiveError:
        witnesses.append({"reason": "NON_DISTRIBUTIVE",
                          "forbidden_sublattice": lattice.has_forbidden_sublattice(lat)})
        return EXIT_REFUTED, {"verdict": "NON_DISTRIBUTIVE"}, witnesses, {}
    except lattice.EmbeddingError as exc:
        return EXIT_REFUTED, {"verdict": "EMBEDDING_FAILED", "method": method,
                              "detail": str(exc)}, [], {}
    return EXIT_OK, result, witnesses, {}


def cmd_delta_check(args, parsed):
    spec = _require_site(parsed)
    ct = eventual.build_ctilde(spec, ModelBound(args.bound))
    # enumerate_models' functors in its order: an empty cover forces an empty carrier
    indices = [i for i, fn in enumerate(ct.functors)
               if models.preserves_covers(fn, spec)]
    pairs = len(indices) ** 2
    isomorphisms = [eventual.delta_iso_check(ct.table, i, j)
                    for i in indices for j in indices]
    certificates = {str(k): eventual.delta(ct, ct.functors[i]).certified
                    for k, i in enumerate(indices)}
    ok = all(isomorphisms) and all(certificates.values())
    result = {"bound": args.bound, "pairs_checked": pairs,
              "all_isomorphisms": ok, "delta_certificates": certificates}
    return (EXIT_OK if ok else EXIT_REFUTED), result, [], {"pairs": pairs}


def cmd_eta_check(args, parsed):
    spec = _require_site(parsed)
    cat = spec.cat
    mods = models.enumerate_models(spec, ModelBound(args.bound))
    per_model = {str(k): models.eta_check(spec, m.functor)
                 for k, m in enumerate(mods)}
    per_object = {cat.obj_name(v): ok
                  for v, ok in eventual.eta_component_check(
                      spec, [m.functor for m in mods]).items()}
    ok = all(per_model.values()) and all(per_object.values())
    result = {"bound": args.bound, "eta_per_model": per_model,
              "ev_colimit_per_object": per_object, "all_pass": ok}
    return (EXIT_OK if ok else EXIT_REFUTED), result, [], {"models": len(mods)}


def _non_negative(text: str) -> int:
    """An argparse type for a budget or a width: an int, 0 or more."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_non_negative.__name__ = "non-negative int"  # argparse's "invalid ... value" names it


_REQUIRED = {"required": True}
_BOUND = {"type": int, "default": 1}
_BUDGET = {"type": _non_negative, "default": chase.BUDGET}

# command -> (handler, the flags it reads beyond the file and --json)
COMMANDS = {
    "check": (cmd_check, {}),
    "saturate": (cmd_saturate, {}),
    "models": (cmd_models, {"--bound": _BOUND}),
    "chase": (cmd_chase, {"--root": _REQUIRED, "--budget": _BUDGET,
                          "--strategy": {"default": chase.FIRST_LEG}}),
    "separate": (cmd_separate, {"--object": _REQUIRED, "--u": _REQUIRED,
                                "--v": _REQUIRED, "--budget": _BUDGET,
                                "--width": {"type": _non_negative, "default": 0}}),
    "sheafify": (cmd_sheafify, {"--object": _REQUIRED}),
    "factor": (cmd_factor, {"--source": _REQUIRED, "--target": _REQUIRED}),
    "lattice-embed": (cmd_lattice_embed, {
        "--method": {"choices": ["birkhoff", "models", "both"], "default": "both"},
        "--budget": _BUDGET}),
    "delta-check": (cmd_delta_check, {"--bound": _BOUND}),
    "eta-check": (cmd_eta_check, {"--bound": _BOUND}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # an input error, not argparse's 2 (inconclusive)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command's name, of that one
    command alone.  The one-command parser reads that command's argument
    lists as the full parser does, with the same help, usage lines (they
    still name every command), errors and exit codes."""
    parser = _Parser(prog="finsite")
    if command in COMMANDS:
        names = [command]
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        for flag, kwargs in COMMANDS[name][1].items():
            p.add_argument(flag, **kwargs)
    return parser


def _emit(args, command, text, code, result, witnesses, timings):
    if args.json:
        document = {"command": command, "input_digest": _digest(text),
                    "result": result, "witnesses": witnesses, "timings": timings}
        sys.stdout.write(json.dumps(document, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(f"{command}: " + json.dumps(result, sort_keys=True) + "\n")
        for witness in witnesses:
            sys.stdout.write("witness: " + json.dumps(witness, sort_keys=True) + "\n")
    return code


def _input_error(args, command, message):
    if args.json:
        sys.stdout.write(json.dumps(
            {"command": command, "input_digest": None,
             "result": {"error": message}, "witnesses": [], "timings": {}},
            sort_keys=True, indent=2) + "\n")
    sys.stderr.write(message + "\n")
    return EXIT_INPUT


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    command = args.command
    try:
        text = _read(args.file)
        parsed = parse_document(text)
    except ValidationError as exc:
        if command != "check":  # check reports a well-formed file that fails validation
            return _input_error(args, command, str(exc))
        parsed = exc
    except (OSError, ParseError) as exc:
        return _input_error(args, command, str(exc))
    try:
        code, result, witnesses, timings = COMMANDS[command][0](args, parsed)
    except (site_mod.TooManySievesError, eventual.BoundTooSmallError,
            lattice.InconclusiveError) as exc:  # a valid input the search cannot settle
        code, result, witnesses, timings = EXIT_INCONCLUSIVE, {
            "verdict": "INCONCLUSIVE", "detail": str(exc)}, [], {}
    except (ValueError, ValidationError) as exc:
        return _input_error(args, command, str(exc))
    except site_mod.MissingPullbackError as exc:
        f, g = (parsed.cat.mor_name(arrow) for arrow in exc.cospan)
        return _input_error(args, command,
                            f"the site has no pullback of the cospan ({f}, {g})")
    return _emit(args, command, text, code, result, witnesses, timings)


if __name__ == "__main__":
    sys.exit(main())
