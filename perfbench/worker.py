"""One pass of one workload in a fresh process, so every pass starts with
cold caches.

Usage: python3 -I perfbench/worker.py '<json config>'

The worker imports ``finsite.cli`` from the checkout's ``src`` and writes
"ready" as soon as it is imported; the parent times set-up up to that line.
A set-up spawn (``"workload": null``) stops there.  Otherwise the worker runs every
job of the workload, or only the one numbered ``"job"`` when that is set,
optionally traced, and writes one JSON line with the per-job times and
verdicts, the host-speed probes taken between jobs (``calibrate.py``), its
peak resident memory and the trace totals.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_EVERY_S = 0.1     # host-speed probes at least this far apart, between jobs
sys.path.insert(0, SRC)

import finsite.cli  # noqa: E402  (set-up ends here)


def main(config):
    if not os.path.abspath(finsite.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"finsite was imported from {finsite.cli.__file__}, not {SRC}")
    if config["workload"] is None:
        return
    sys.path.insert(0, HERE)
    import resource
    import time

    import jobs
    from calibrate import probe
    from tracer import Tracer

    answers = jobs.load_answers()
    job_list = jobs.workload_jobs(config["workload"], config["manifest"], config["seed"],
                                  config["order"])
    if config.get("job") is not None:
        job_list = [list(job_list)[config["job"]]]
    tracer = None
    if config["trace"]:
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    records = []
    probes = []     # [number of jobs run before it, kernel seconds]
    probed = -PROBE_EVERY_S
    for job in job_list:
        if clock() - probed >= PROBE_EVERY_S:
            probes.append([len(records), probe()])
            probed = clock()
        start = clock()
        try:
            output = job.run()
        except Exception as exc:  # a job that raises is a failed job, not a failed pass
            records.append([job.id, clock() - start, f"raised {exc!r}"])
            continue
        elapsed = clock() - start
        records.append([job.id, elapsed, jobs.judge(job, output, answers)])
    probes.append([len(records), probe()])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"jobs": records, "probes": probes, "peak_rss_mb": peak_kib / 1024,
                      "trace": tracer.snapshot() if tracer else None}), flush=True)


if __name__ == "__main__":
    print("ready", flush=True)
    main(json.loads(sys.argv[1]))
