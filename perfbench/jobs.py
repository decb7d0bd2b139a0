"""Seeded job lists for the three workloads.

A job is one user request: either a `qalcove` command line, run in-process
through `qalcove.cli.main` with its stdout captured, or one call into the
public API where the CLI has no command for it.  `make_jobs` draws a
workload's job list from a seeded generator, so the same seed gives the same
jobs; a run repeats that list pass after pass.

Every job builds its chains itself, as a fresh CLI process would, so no
admissible-subset cache is carried from one job to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from qalcove import alcove, charident, cli, suite
from qalcove.rootsys import Coroot, build_root_system

# `from qalcove import genfun` yields the function the package re-exports
genfun_mod = sys.modules["qalcove.genfun"]

# d_i = |A(e, lex(omega_i))|.  For dominant lambda every admissible subset
# has sign +1, so G's coefficients sum to prod_i d_i^lambda_i at q = 1.
ORBIT_SIZES = {"G2": (7, 15), "B3": (7, 22, 8), "A3": (4, 6, 4), "C2": (4, 5)}

GF_DOMINANT = (("G2", (2, 2)), ("B3", (2, 1, 1)), ("A3", (2, 2, 2)), ("C2", (3, 3)))
GF_MIXED = ("G2", (1, -2), "s2s1")
COMPOSE = ("C2", (2, 1), (1, 1))
VANISH = ("G2", (-2, -1))
# (type, lambda, depth below G's top q-exponent); w = e.  G's top exponent
# at (e, xi) is -<lambda, xi>, because the empty subset is the highest one.
GHAT = (("C2", (2, 2), 10), ("G2", (1, 1), 16), ("A2", (2, 1), 10))
GHAT_COMPOSE = ("A2", (2, 0), (0, -2), -8)
CHEV_RHS = ("C2", (1, 1), (2, 1), -8)
CHEV_FACTOR = ("C2", (1, 1), (-1, 2), -8)
VERIFY_ARGV = (
    "ops yang-baxter --type C3",
    "ops yang-baxter --type G2",
    "qbg shell-check --type A3",
    "ops verify-props --type G2",
    "ops golden --type C2",
    "ops golden --type G2",
)
CRITERIA = (
    "criterion_golden",
    "criterion_a2_example",
    "criterion_c2_tables",
    "criterion_shellability",
    "criterion_yang_baxter",
    "criterion_matrix_props",
    "criterion_sijection",
    "criterion_genfun_invariance",
    "criterion_commutativity",
    "criterion_vanishing",
    "criterion_symmetry",
)

# root-system types each workload builds, in set-up and in its jobs
TYPES = {
    "gf-enumerate": ("G2", "B3", "A3", "C2"),
    "ghat-partitions": ("C2", "G2", "A2"),
    "verify-ops": ("C3", "G2", "A3", "C2", "A1xA1", "A2", "A1"),
}


@dataclass
class Job:
    name: str  # every input of the job; also the key of its pinned digest
    kind: str  # selects the output check
    run: Callable[[], tuple[int, object]]  # timed: (exit code, result)
    render: Callable[[object], str] = str  # untimed: result -> output text
    spec: dict = field(default_factory=dict)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if err.getvalue():
        sys.stderr.write(err.getvalue())
    return rc, out.getvalue()


def cli_job(kind: str, argv: list[str], **spec) -> Job:
    return Job(" ".join(["qalcove"] + argv), kind, partial(_run_cli, argv), spec=spec)


def _gf_json(g) -> str:
    return json.dumps(g.to_json())


def _x(rs, word, xi):
    return genfun_mod.AffineWeylElt(rs.element_from_word(word), Coroot(tuple(xi)))


def _lex(rs, lam):
    return alcove.lex_chain(rs, rs.weight(lam))


def _weyl_words(label: str) -> list[str]:
    """Canonical words of W, in ShortLex order independent of the build."""
    rs = build_root_system(label)
    return sorted((w.word_str for w in rs.weyl_elements), key=lambda s: (len(s), s))


def _xi(rng: random.Random, rank: int) -> tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(rank))


def _pair(lam, xi) -> int:
    return sum(a * b for a, b in zip(lam, xi))


# -- workloads ------------------------------------------------------------------


def _gf_enumerate(rng: random.Random) -> list[Job]:
    jobs = []
    for label, lam in GF_DOMINANT:
        w = rng.choice(_weyl_words(label))
        xi = _xi(rng, len(lam))
        argv = ["gf", "eval", "--type", label, "--lambda", _csv(lam), "--w", w,
                "--xi", _csv(xi), "--format", "json"]
        subsets = 1
        for d, m in zip(ORBIT_SIZES[label], lam):
            subsets *= d ** m
        jobs.append(cli_job("gf-dominant", argv, subsets=subsets))

    label, lam, w = GF_MIXED
    argv = ["gf", "eval", "--type", label, "--lambda", _csv(lam), "--w", w, "--format", "json"]
    jobs.append(cli_job("gf-mixed", argv))

    label, lam1, lam2 = COMPOSE
    w = rng.choice(_weyl_words(label))
    xi = _xi(rng, len(lam1))
    d = ORBIT_SIZES[label]
    subsets = d[0] ** (lam1[0] + lam2[0]) * d[1] ** (lam1[1] + lam2[1])
    jobs.append(Job(f"compose {label} lex{lam1} o lex{lam2} w={w} xi={xi}", "gf-dominant",
                    partial(_compose, label, lam1, lam2, w, xi), _gf_json,
                    {"subsets": subsets}))

    label, lam = VANISH
    jobs.append(Job(f"verify_vanishing {label} {lam} all w", "vanish",
                    partial(_vanish, label, lam),
                    lambda rows: "".join(f"w={w}\t{ok}\n" for w, ok in rows)))
    return jobs


def _compose(label, lam1, lam2, w, xi):
    rs = build_root_system(label)
    return 0, genfun_mod.compose(_lex(rs, lam1), _lex(rs, lam2), _x(rs, w, xi))


def _vanish(label, lam):
    rs = build_root_system(label)
    weight = rs.weight(lam)
    return 0, [(w.word_str, charident.verify_vanishing(rs, weight, w))
               for w in rs.weyl_elements]


def _ghat_compose(label, lam1, lam2, floor):
    rs = build_root_system(label)
    x = _x(rs, "e", (0,) * rs.rank)
    return 0, genfun_mod.ghat_compose(_lex(rs, lam1), _lex(rs, lam2), x, floor)


def _criterion(name):
    result = getattr(suite, name)(suite.DEFAULT_SEED)
    return (0 if result.passed else 1), result


def _ghat_partitions(rng: random.Random) -> list[Job]:
    jobs = []
    for label, lam, depth in GHAT:
        xi = _xi(rng, len(lam))
        floor = -_pair(lam, xi) - depth
        argv = ["gf", "ghat", "--type", label, "--lambda", _csv(lam), "--xi", _csv(xi),
                "--floor", str(floor), "--format", "json"]
        jobs.append(cli_job("ghat", argv, type=label, lam=lam, xi=xi, floor=floor))

    label, lam1, lam2, floor = GHAT_COMPOSE
    jobs.append(Job(f"ghat_compose {label} lex{lam1} o lex{lam2} floor={floor}", "floored",
                    partial(_ghat_compose, label, lam1, lam2, floor), _gf_json,
                    {"floor": floor}))

    label, mu, lam, floor = CHEV_RHS
    argv = ["chev", "rhs", "--type", label, "--mu", _csv(mu), "--lambda", _csv(lam),
            "--floor", str(floor), "--format", "json"]
    jobs.append(cli_job("floored", argv, floor=floor))

    label, mu, lam, floor = CHEV_FACTOR
    argv = ["chev", "factor", "--type", label, "--mu", _csv(mu), "--lambda", _csv(lam),
            "--floor", str(floor)]
    jobs.append(cli_job("verdict", argv))
    return jobs


def _verify_ops(rng: random.Random) -> list[Job]:
    jobs = [cli_job("verdict", line.split()) for line in VERIFY_ARGV]
    for name in CRITERIA:
        jobs.append(Job(f"suite.{name} seed={suite.DEFAULT_SEED}", "criterion",
                        partial(_criterion, name), lambda r: r.line(with_time=False) + "\n"))
    rng.shuffle(jobs)
    return jobs


_MAKERS = {
    "gf-enumerate": _gf_enumerate,
    "ghat-partitions": _ghat_partitions,
    "verify-ops": _verify_ops,
}


def make_jobs(workload: str, rng: random.Random) -> list[Job]:
    """The workload's job list, drawn from `rng`."""
    return _MAKERS[workload](rng)
