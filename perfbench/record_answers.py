"""Record the answers every job is checked against into answers.json.

Usage, from the root of a checkout: python3 perfbench/record_answers.py

Run it only when a change is meant to alter the program's output; the diff
of answers.json then shows which jobs changed.  Every independent check
must pass before anything is written.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import jobs  # noqa: E402


def main():
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        manifest = inputs.write_inputs(workdir, seed=0)
        answers = {}
        for workload in jobs.WORKLOADS:
            for job in jobs.workload_jobs(workload, manifest, seed=0):
                output = job.run()
                problem = job.oracle(output) if job.oracle else None
                if problem:
                    raise SystemExit(f"{job.id}: {problem}")
                if job.answer is not None:
                    answers[job.id] = job.answer(output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(jobs.ANSWERS, "w", encoding="utf-8") as handle:
        json.dump(answers, handle, sort_keys=True, indent=0)
        handle.write("\n")
    print(f"recorded {len(answers)} answers")


if __name__ == "__main__":
    main()
