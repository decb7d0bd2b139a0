"""qalcove benchmark: one closed-loop, single-threaded client per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  A run draws the workload's job list from the seed (see
jobs.py), sets up, then repeats passes over the list until the next pass
would end after S seconds.  Outputs are checked outside the timed region:
fully on the first pass, and against the first pass's bytes after that.

Times are reported in quiet-host seconds (see speed.py): each job time is
scaled by the host-speed reference measured beside it, wall_s is the sum
over jobs of each job's median over the passes, and setup_s the median over
fresh interpreters; slowest_job_s is the largest per-job median.  The raw
per-job fastest times, the per-pass walls and their median are printed
above the result.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end ones.
With --trace 1 untraced and traced passes alternate, and the metrics are the
per-layer ones (see tracing.py), each the fastest over the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_STARTS = 15  # fresh interpreters per run; setup_s is their median
SPANS_DIR = HERE / "out"

WORKLOADS = ("gf-enumerate", "ghat-partitions", "verify-ops")

# count metric -> functions whose return values it sums
COUNT_METRICS = {
    "qbg.paths": ("pi_compatible_paths",),
    "alcove.subsets": ("enumerate_admissible",),
    "genfun.g_terms": ("genfun",),
    "genfun.par_tuples": ("par_enumerate",),
    "genfun.ghat_terms": ("ghat", "ghat_compose"),
    "charident.terms": ("rhs_chevalley",),
}
# count metric -> function whose calls it counts
CALL_METRICS = {
    "alcove.adm_calls": "enumerate_admissible",
    "qbops.matrices": "operator_matrix",
    "ybmoves.sijections": "build_sijection",
}
RATIOS = ("alcove.adm_cache_hit_ratio", "genfun.ghat_yield")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import qalcove from this checkout's src/, and nowhere else."""
    package = SRC / "qalcove"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qalcove sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qalcove

    if Path(qalcove.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported qalcove from {qalcove.__file__}, not {package}")


# -- set-up ----------------------------------------------------------------------


def measure_setup(types) -> float:
    """Median over fresh interpreters of start to ready, in quiet-host seconds."""
    samples = []
    reference = speed.reference_s()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), str(SRC), *types],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(proc.stdout) - t0
        after = speed.reference_s()
        samples.append(seconds * speed.quiet_factor((reference + after) / 2))
        reference = after
    return statistics.median(samples)


def setup_in_process(types, tracer=None):
    """Build the workload's root systems and QBG edge tables in this process."""
    rootsys = sys.modules["qalcove.rootsys"]
    qbg = sys.modules["qalcove.qbg"]
    for label in types:
        rs = rootsys.build_root_system(label)
        sid = tracer.begin("qbg.edge_table", "out_edges") if tracer else None
        qbg.out_edges(rs, rs.identity)
        if tracer:
            tracer.end(sid)


# -- passes ----------------------------------------------------------------------


def run_pass(jobs, check, tracer=None):
    """Run the jobs once, then check their outputs outside the timed region.

    `check(i, job, text)` returns a list of problems.  Returns (per-job
    seconds, per-job quiet-host seconds, failed jobs).  The host-speed
    reference is measured before the first job and after each one; a job's
    quiet-host time uses the mean of the two next to it.  Results are dropped
    before returning, so they do not stay live, and traversed by the garbage
    collector, in the next pass.
    """
    gc.collect()
    rows = []
    references = [speed.reference_s()]
    for job in jobs:
        sid = tracer.begin("job", job.name) if tracer else None
        t0 = time.perf_counter()
        try:
            rc, result = job.run()
            error = None
        except Exception:  # a job that raises is counted as failed
            rc, result, error = None, None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.end(sid)
        rows.append((rc, result, error, seconds))
        references.append(speed.reference_s())
    if tracer:
        tracer.uninstall()
    failed = 0
    for i, (job, (rc, result, error, _)) in enumerate(zip(jobs, rows)):
        if error is not None:
            sys.stderr.write(error)
            problems = [error.strip().splitlines()[-1]]
        elif rc != 0:
            problems = [f"exit code {rc}"]
        else:
            try:
                problems = check(i, job, job.render(result))
            except Exception as exc:  # malformed output fails its check
                problems = [f"check raised {exc!r}"]
        if problems:
            failed += 1
            print(f"FAILED {job.name}: {'; '.join(problems)}", file=sys.stderr)
    seconds = [row[3] for row in rows]
    quiet = [
        t * speed.quiet_factor((references[i] + references[i + 1]) / 2)
        for i, t in enumerate(seconds)
    ]
    return seconds, quiet, failed


class OutputChecker:
    """Full checks on a job's first output; byte equality with it afterwards."""

    def __init__(self, checks, digests):
        self.checks = checks
        self.digests = digests
        self.first: dict = {}  # job index -> sha256 of its first output
        self.sizes: dict = {}  # job index -> output sizes from the full check

    def __call__(self, i, job, text):
        digest = self.checks.sha256(text)
        if i in self.first:
            return [] if digest == self.first[i] else ["output differs from the first pass"]
        self.first[i] = digest
        problems, self.sizes[i] = self.checks.check(job, text, self.digests)
        return problems


def job_counts(spans) -> dict:
    """Per-job work counts from one traced pass, keyed by job name."""
    out: dict = {}
    current = None
    for _sid, parent, name, func, _t0, _t1, n, hit in spans:
        if name == "job" and parent == -1:
            current = out.setdefault(func, dict.fromkeys(
                ("subsets", "paths", "g_terms", "tuples", "matrices"), 0))
        elif current is not None:
            if func == "enumerate_admissible" and not hit:
                current["subsets"] += n
            elif func == "pi_compatible_paths":
                current["paths"] += n
            elif func == "genfun":
                current["g_terms"] += n
            elif func == "par_enumerate":
                current["tuples"] += n
            elif func == "operator_matrix":
                current["matrices"] += 1
    return out


def per_layer(totals: dict, setup: dict) -> dict:
    """Per-layer metric values of one traced pass; set-up spans are added in."""
    from tracing import SPAN_POINTS

    layers = ["qbg.edge_table"] + [
        name for points in SPAN_POINTS.values() for name in points.values() if name != "cli"
    ]
    values = {}
    for layer in dict.fromkeys(layers):
        values[f"{layer}_s"] = totals["self_s"].get(layer, 0.0) + setup["self_s"].get(layer, 0.0)
    values["cli.self_s"] = totals["self_s"].get("cli", 0.0)
    for name, funcs in COUNT_METRICS.items():
        values[name] = sum(totals["count"].get(f, 0) for f in funcs)
    for name, func in CALL_METRICS.items():
        values[name] = totals["calls"].get(func, 0)
    calls = values["alcove.adm_calls"]
    values["alcove.adm_cache_hit_ratio"] = totals["adm_hits"] / calls if calls else 0.0
    base = totals["ghat_base"]
    values["genfun.ghat_yield"] = totals["ghat_out"] / base if base else 0.0
    values["genfun.ghat_yield_base"] = base
    return values


def metric(name, value):
    unit = "s" if name.endswith("_s") else "ratio" if name in RATIOS else "count"
    return {"value": value, "unit": unit}


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import checks
    import jobs as joblist
    from tracing import Tracer, layer_totals

    os.environ.pop("QALCOVE_OUTDIR", None)  # else every CLI job writes a report
    types = joblist.TYPES[args.workload]
    tracer = Tracer() if args.trace else None

    setup_s = None if tracer else measure_setup(types)
    setup_totals = {"self_s": {}}
    if tracer:
        tracer.install()
        setup_in_process(types, tracer)
        tracer.uninstall()
        setup_totals = layer_totals(tracer.spans)
    else:
        setup_in_process(types)

    jobs = joblist.make_jobs(args.workload, random.Random(args.seed))
    check = OutputChecker(checks, checks.load_digests())
    untraced, quiet, traced_quiet = [], [], []  # per pass: per-job seconds
    layer_rows = []
    spans_json, counts = "[]", {}
    failed = 0
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        seconds, quiet_seconds, bad = run_pass(jobs, check)
        untraced.append(seconds)
        quiet.append(quiet_seconds)
        failed += bad
        if tracer:
            tracer.spans = []
            tracer.install()
            _, quiet_seconds, bad = run_pass(jobs, check, tracer)
            traced_quiet.append(quiet_seconds)
            failed += bad
            row = per_layer(layer_totals(tracer.spans), setup_totals)
            row["trace.spans"] = len(tracer.spans)
            layer_rows.append(row)
            counts = job_counts(tracer.spans)
            spans_json = json.dumps(tracer.spans)  # one string: nothing for gc to traverse
            tracer.spans = []
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t_round) > args.seconds:
            break

    best = [min(col) for col in zip(*untraced)]
    typical = [statistics.median(col) for col in zip(*quiet)]
    for i, job in enumerate(jobs):
        sizes = {**check.sizes.get(i, {}), **{k: v for k, v in counts.get(job.name, {}).items() if v}}
        extra = "  ".join(f"{k}={v}" for k, v in sizes.items())
        print(f"job {typical[i]:8.4f}s quiet {best[i]:8.4f}s fastest  {job.name}  {extra}")
    walls = [sum(p) for p in untraced]
    print(f"passes={len(walls)} pass walls={[round(w, 3) for w in walls]} "
          f"median={statistics.median(walls):.4f}s fastest-per-job sum={sum(best):.4f}s "
          f"quiet-host sum={sum(typical):.4f}s")

    if tracer:
        metrics = {name: metric(name, min(row[name] for row in layer_rows))
                   for name in layer_rows[0]}
        overhead = sum(statistics.median(col) for col in zip(*traced_quiet)) - sum(typical)
        metrics["trace.overhead_s"] = metric("trace.overhead_s", overhead)
        SPANS_DIR.mkdir(exist_ok=True)
        (SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            '{"fields": ["id", "parent", "name", "function", "start", "end", "count", "hit"],'
            f' "spans": {spans_json}}}\n'
        )
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(typical), "unit": "s"},
            "slowest_job_s": {"value": max(typical), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs) * (len(untraced) + len(traced_quiet)),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
