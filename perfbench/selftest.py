"""Self-test of the benchmark's checks and tracing.

    python3 perfbench/selftest.py

Shows that a corrupted output is counted as failed, that the orbit-size
table behind the coefficient-sum check matches the enumerator, and that
installing and removing the tracer leaves every qalcove function as it was.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import replace

import run


def corrupt(job, mutate):
    """The same job, with its output text changed by `mutate`."""
    def corrupted_run():
        rc, result = job.run()
        return rc, mutate(job.render(result))

    return replace(job, run=corrupted_run, render=str)


def flip_coefficient(text: str) -> str:
    items = json.loads(text)
    items[len(items) // 2]["q"][0][1] += 1
    return json.dumps(items, indent=1) + "\n"


def expect(what: str, ok: bool):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def main() -> int:
    run.load_program()
    import checks
    import jobs as joblist
    import tracing
    from qalcove import alcove, suite
    from qalcove.rootsys import build_root_system

    for label, sizes in joblist.ORBIT_SIZES.items():
        rs = build_root_system(label)
        got = tuple(
            len(alcove.enumerate_admissible(alcove.lex_chain(rs, rs.fundamental_weight(i)),
                                            rs.identity))
            for i in range(rs.rank)
        )
        expect(f"{label} orbit sizes {got} == {sizes}", got == sizes)

    digests = checks.load_digests()
    seed = suite.DEFAULT_SEED
    gf_jobs = joblist.make_jobs("gf-enumerate", random.Random(seed))
    ghat_jobs = joblist.make_jobs("ghat-partitions", random.Random(seed))
    verify_jobs = {j.name: j for j in joblist.make_jobs("verify-ops", random.Random(seed))}
    gf_mixed = next(j for j in gf_jobs if j.kind == "gf-mixed")
    cases = [
        ("flipped gf coefficient", corrupt(gf_jobs[3], flip_coefficient)),
        ("flipped mixed-sign coefficient", corrupt(gf_mixed, flip_coefficient)),
        ("flipped Ghat coefficient", corrupt(ghat_jobs[2], flip_coefficient)),
        ("Yang-Baxter violation", corrupt(verify_jobs["qalcove ops yang-baxter --type G2"],
                                          lambda t: t.replace("violations=0", "violations=1"))),
        ("failed criterion", corrupt(verify_jobs[f"suite.criterion_symmetry seed={seed}"],
                                     lambda t: re.sub("^PASS", "FAIL", t))),
        ("truncated output", corrupt(ghat_jobs[3], lambda t: t[: len(t) // 2])),
    ]
    for what, job in cases:
        _, _, failed = run.run_pass([job], run.OutputChecker(checks, digests))
        expect(f"{what} is counted as failed", failed == 1)
    originals = [gf_jobs[3], gf_mixed, ghat_jobs[2]]
    _, _, failed = run.run_pass(originals, run.OutputChecker(checks, digests))
    expect("the same jobs uncorrupted pass", failed == 0)
    check = run.OutputChecker(checks, digests)
    run.run_pass([gf_jobs[3]], check)
    _, _, failed = run.run_pass([corrupt(gf_jobs[3], flip_coefficient)], check)
    expect("a later pass whose output changed is counted as failed", failed == 1)

    def bindings():
        return {
            (name, key): value
            for name, module in sys.modules.items()
            if name.startswith("qalcove")
            for key, value in vars(module).items()
            if callable(value)
        }

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    patched = sum(1 for k, v in bindings().items() if before[k] is not v)
    tracer.uninstall()
    expect(f"tracer patches {patched} bindings and restores them", patched > 0
           and bindings() == before)
    return 0


if __name__ == "__main__":
    sys.exit(main())
