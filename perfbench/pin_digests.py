"""Rewrite digests.json: SHA-256 of every job's output for the default seed.

    python3 perfbench/pin_digests.py

Runs each workload's job list for the default seed
(`qalcove.suite.DEFAULT_SEED`), requires every job to pass its seed-independent
check, and pins the digest of its output under the job's name.  Jobs with
fixed inputs appear under the same name for every seed, so their digests are
checked on every run.  Run it only when an output is meant to change.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main() -> int:
    run.load_program()
    import checks
    import jobs as joblist
    from qalcove import suite

    pinned = {}
    for workload in run.WORKLOADS:
        run.setup_in_process(joblist.TYPES[workload])
        for job in joblist.make_jobs(workload, random.Random(suite.DEFAULT_SEED)):
            rc, result = job.run()
            text = job.render(result)
            problems, _ = checks.check(job, text, {})
            if rc != 0 or problems:
                sys.exit(f"{job.name}: exit code {rc}, {problems}")
            pinned[job.name] = checks.sha256(text)
    checks.DIGESTS_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pinned)} digests in {checks.DIGESTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
