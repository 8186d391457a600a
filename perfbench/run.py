"""finsite benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {models,topology,chase} --seed N \
        --seconds S --trace {0,1}

The inputs are generated from the seed into a scratch directory inside
perfbench/.  A pass runs every job of the workload once, one job after
another (a closed loop with one client), in a fresh worker process; on
``models`` every job of a pass gets a fresh worker of its own, as a CLI user
runs it.  Passes repeat while the next one is expected to end within
``--seconds``; there is at least one, and with ``--trace 1`` at least one
untraced and one traced pass, alternating.  Each pass takes the jobs in
another order drawn from the seed, so that a run's medians span several
orders.  Every job time is scaled to a reference host speed by host-speed
probes taken between jobs (calibrate.py), and the job-time metrics are taken
from each job's median scaled time over the passes.  Set-up time is sampled
from every worker spawn, plus spawns after each single-worker pass that only
import the CLI.  Every job's output is checked; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCE_S
from tracer import CALLS, ITEMS, LAYERS, SELF, SIZE

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("models", "topology", "chase")
ONE_SHOT = ("models",)  # workloads whose jobs each run in a worker of their own
SETUP_SPAWNS = 4        # set-up samples after each single-worker pass
PASS_TIMEOUT_S = 120
WINDOW = 3              # host-speed probes on each side of a job that scale its time

# per-layer counters: metric -> (function key, field of the tracer's totals)
COUNTERS = {
    "models.lex_checks": ("models.is_lex", CALLS),
    "models.found": ("models.enumerate_models", SIZE),
    "site.sieve_tests": ("site.is_sieve", CALLS),
    "site.families": ("site.tree_saturation", SIZE),
    "presheaf.matching_family_calls": ("presheaf.matching_families", CALLS),
    "presheaf.plus_calls": ("presheaf.plus", CALLS),
    "chase.branches": ("chase.run_branch", CALLS),
    "chase.steps": ("chase.solve_task", CALLS),
    "limits.pullback_calls": ("limits.pullback", CALLS),
    "limits.limit_calls": ("limits.limit", CALLS),
    "fincat.nat_candidates": ("fincat.check_nat", CALLS),
    "fincat.nat_found": ("fincat.all_nat_transformations", ITEMS),
}


class BenchmarkError(Exception):
    pass


def spawn(config):
    """Run one worker; return (set-up seconds, its result or None for a
    set-up spawn)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, json.dumps(config)],
                            cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {PASS_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:     # timed out or interrupted: stop the worker
            proc.kill()
            proc.communicate()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchmarkError(f"worker failed (exit {proc.returncode}): {err.strip()}")
    return setup, json.loads(out.splitlines()[-1]) if config["workload"] else None


def _scaled(result):
    """A pass result with every job time scaled to the reference host speed
    by the mean of the host-speed probes nearest the job, ``WINDOW`` before
    and ``WINDOW`` after it (see calibrate.py); the measured times are kept
    as ``raw``."""
    positions = [position for position, _ in result["probes"]]
    kernel_s = [seconds for _, seconds in result["probes"]]
    scaled = []
    for k, (job_id, seconds, problem) in enumerate(result["jobs"]):
        after = bisect.bisect_right(positions, k)   # first probe after job k
        near = kernel_s[max(0, after - WINDOW):after + WINDOW]
        scaled.append([job_id, seconds * REFERENCE_S / statistics.fmean(near), problem])
    return dict(result, jobs=scaled, raw=result["jobs"])


def _merge(parts):
    """The results of the one-job workers of a pass, as one pass result."""
    probes, done = [], 0
    for part in parts:
        probes.extend([position + done, seconds] for position, seconds in part["probes"])
        done += len(part["jobs"])
    trace = None
    if parts[0]["trace"] is not None:
        trace = {}
        for part in parts:
            for key, values in part["trace"].items():
                trace[key] = [a + b for a, b in zip(trace.get(key, [0] * len(values)), values)]
    return {"jobs": [job for part in parts for job in part["jobs"]],
            "probes": probes,
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts), "trace": trace}


def run_pass(config, n_jobs):
    """Every job once, in one worker or, when ``n_jobs`` is set, in one
    worker per job; return the set-up samples and the pass result."""
    if n_jobs is None:
        setup, result = spawn(config)
        return [setup], _scaled(result)
    runs = [spawn(dict(config, job=k)) for k in range(n_jobs)]
    return [setup for setup, _ in runs], _scaled(_merge([part for _, part in runs]))


def measure(workload, manifest, seed, seconds, trace):
    """Run passes until the budget is spent; return the untraced and traced
    pass results and every set-up sample."""
    deadline = time.perf_counter() + seconds
    spawn({"workload": None})   # first spawn in a checkout compiles bytecode
    n_jobs = None
    if workload in ONE_SHOT:
        import jobs
        n_jobs = len(jobs.workload_jobs(workload, manifest, seed))
    setups = []
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    durations = []
    for k in itertools.count():
        traced = kinds[k % len(kinds)]
        start = time.perf_counter()
        samples, result = run_pass({"workload": workload, "manifest": manifest,
                                    "seed": seed, "order": k, "trace": traced}, n_jobs)
        setups.extend(samples)
        if n_jobs is None:
            setups.extend(spawn({"workload": None})[0] for _ in range(SETUP_SPAWNS))
        durations.append(time.perf_counter() - start)
        passes[traced].append(result)
        if (k + 1 >= len(kinds)
                and time.perf_counter() + statistics.fmean(durations) > deadline):
            break
    return passes[False], passes[True], setups


def _wall(result, key="jobs"):
    return sum(job[1] for job in result[key])


def _per_job(results):
    """Each job's median scaled time over the passes."""
    times = {}
    for result in results:
        for job_id, seconds, _ in result["jobs"]:
            times.setdefault(job_id, []).append(seconds)
    return [statistics.median(values) for values in times.values()]


def end_to_end(untraced, setups):
    times = _per_job(untraced)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(times), "s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MiB"),
    }, len(times)


def per_layer(untraced, traced):
    metrics = {}
    for layer in LAYERS:
        spans = [{k: v for k, v in r["trace"].items() if k.startswith(layer + ".")}
                 for r in traced]
        metrics[f"{layer}.self_s"] = (statistics.median(
            sum(v[SELF] for v in s.values()) for s in spans), "s")
        metrics[f"{layer}.calls"] = (statistics.median(
            sum(v[CALLS] for v in s.values()) for s in spans), "count")
    for name, (key, field) in COUNTERS.items():
        metrics[name] = (statistics.median(
            r["trace"].get(key, [0] * 4)[field] for r in traced), "count")
    checks = metrics["models.lex_checks"][0]
    metrics["models.yield"] = (metrics["models.found"][0] / checks if checks else 0.0,
                               "ratio")
    metrics["trace.overhead_s"] = (sum(_per_job(traced)) - sum(_per_job(untraced)), "s")
    return metrics


def _top_functions(traced, limit=12):
    totals = {}
    for result in traced:
        for key, value in result["trace"].items():
            entry = totals.setdefault(key, [0, 0.0])
            entry[0] += value[CALLS]
            entry[1] += value[SELF]
    ranked = sorted(totals.items(), key=lambda item: -item[1][1])[:limit]
    return [f"  {key:<40} self {self_s / len(traced):9.4f} s  calls {calls // len(traced)}"
            for key, (calls, self_s) in ranked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopped from outside: unwind, so that the worker is killed and the
    # scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "finsite", "cli.py")):
        print(f"no finsite sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import inputs

    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        manifest = inputs.write_inputs(workdir, args.seed)
        untraced, traced, setups = measure(args.workload, manifest, args.seed,
                                           args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [job for result in untraced + traced for job in result["jobs"]]
    failures = [job for job in records if job[2] is not None]
    for job_id, _, problem in failures[:20]:
        print(f"FAILED {job_id}: {problem}")
    e2e, n_times = end_to_end(untraced, setups)
    print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{n_times} jobs per pass, {len(setups)} set-up samples")
    print("untraced pass walls, measured (s): "
          + " ".join(f"{_wall(r, 'raw'):.3f}" for r in untraced))
    print("untraced pass walls, scaled (s):   " + " ".join(f"{_wall(r):.3f}" for r in untraced))
    probes = [p for r in untraced + traced for _, p in r["probes"]]
    print(f"host-speed kernel: median {statistics.median(probes) * 1e3:.3f} ms over "
          f"{len(probes)} probes, reference {REFERENCE_S * 1e3:.3f} ms")
    if args.trace:
        metrics = per_layer(untraced, traced)
        print("top functions by self time per traced pass:")
        print("\n".join(_top_functions(traced)))
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
