"""Output checks, run outside the timed region.

`check(job, text, digests)` returns (problems, sizes): a list of mismatch messages
(empty when the output is right) and the job's output sizes.  Every job whose
name has a pinned digest in digests.json must reproduce it byte for byte; on
top of that each kind of job has a check that holds for every seed.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

from qalcove.rootsys import Coroot, build_root_system

DIGESTS_FILE = Path(__file__).with_name("digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


def _gf_dominant(job, text):
    items = json.loads(text)
    coeffs = [c for item in items for _e, c in item["q"]]
    problems = []
    if any(c <= 0 for c in coeffs):
        problems.append("a coefficient is not positive")
    if sum(coeffs) != job.spec["subsets"]:
        problems.append(f"coefficients sum to {sum(coeffs)}, expected {job.spec['subsets']}")
    return problems, {"out_terms": len(items), "coeff_sum": sum(coeffs)}


def _json_terms(job, text):
    return [], {"out_terms": len(json.loads(text))}


def _floored(job, text):
    items = json.loads(text)
    floor = job.spec["floor"]
    if any(e < floor for item in items for e, _c in item["q"]):
        return [f"an exponent lies below the floor {floor}"], {"out_terms": len(items)}
    return [], {"out_terms": len(items)}


def _vanish(job, text):
    rows = text.splitlines()
    if not rows or any(not row.endswith("\tTrue") for row in rows):
        return ["a vanishing sum is nonzero"], {"cases": len(rows)}
    return [], {"cases": len(rows)}


def convolve(g_items: list, tuples: list, floor: int) -> list:
    """Ghat from G's JSON terms and (size, iota) partition tuples, in to_json form."""
    acc: dict = {}
    for item in g_items:
        mu, w, xi = tuple(item["mu"]), tuple(item["w"]), item["xi"]
        for size, iota in tuples:
            poly = acc.setdefault((mu, w, tuple(a + b for a, b in zip(xi, iota))), {})
            for e, c in item["q"]:
                if e - size >= floor:
                    poly[e - size] = poly.get(e - size, 0) + c
    out = []
    for (mu, w, xi), poly in acc.items():
        q = sorted([e, c] for e, c in poly.items() if c != 0)
        if q:
            out.append({"q": q, "mu": list(mu), "w": list(w), "xi": list(xi)})
    out.sort(key=lambda d: (d["mu"], d["w"], d["xi"]))
    return out


def _ghat(job, text):
    spec = job.spec
    genfun_mod = sys.modules["qalcove.genfun"]
    alcove = sys.modules["qalcove.alcove"]
    rs = build_root_system(spec["type"])
    lam = rs.weight(spec["lam"])
    x = genfun_mod.AffineWeylElt(rs.identity, Coroot(tuple(spec["xi"])))
    g = genfun_mod.genfun(alcove.lex_chain(rs, lam), x)
    top = g.max_exponent()
    tuples = [
        (t.size, t.iota().coeffs)
        for t in genfun_mod.par_enumerate(rs, lam, top - spec["floor"])
    ]
    items = json.loads(text)
    sizes = {"g_terms": len(g.terms), "tuples": len(tuples), "out_terms": len(items)}
    problems = []
    if top != -sum(a * b for a, b in zip(spec["lam"], spec["xi"])):
        problems.append(f"G's top exponent is {top}")
    if items != convolve(g.to_json(), tuples, spec["floor"]):
        problems.append("Ghat differs from the reference convolution of G")
    return problems, sizes


_VERDICTS = {
    "ops yang-baxter": re.compile(r"pairs=(\d+) violations=0\n"),
    "qbg shell-check": re.compile(r"orders=\d+ pairs=(\d+) violations=0\n"),
    "chev factor": re.compile(r"factorization holds\n"),
}


def _verdict(job, text):
    words = job.name.split()
    command = " ".join(words[1:3])
    if command == "ops verify-props":
        lines = text.splitlines()
        ok = bool(lines) and all(re.fullmatch(r"k=\d+ reverse=\w+: ok.*", ln) for ln in lines)
        return ([] if ok else ["a matrix property is violated"]), {"checks": len(lines)}
    if command == "ops golden":
        m = re.search(r"(\d+)/(\d+) matrices match\n$", text)
        ok = m is not None and m.group(1) == m.group(2) and "FAIL" not in text
        return ([] if ok else ["a golden matrix differs"]), {"golden": int(m.group(2)) if m else 0}
    m = _VERDICTS[command].fullmatch(text)
    if m is None:
        return [f"unexpected verdict {text.strip()!r}"], {}
    return [], {"pairs": int(m.group(1))} if m.groups() else {}


def _criterion(job, text):
    ok = text.startswith("PASS ")
    return ([] if ok else [f"criterion failed: {text.strip()}"]), {}


_CHECKS = {
    "gf-dominant": _gf_dominant,
    "gf-mixed": _json_terms,
    "floored": _floored,
    "vanish": _vanish,
    "ghat": _ghat,
    "verdict": _verdict,
    "criterion": _criterion,
}


def check(job, text: str, digests: dict) -> tuple[list[str], dict]:
    problems, sizes = _CHECKS[job.kind](job, text)
    want = digests.get(job.name)
    if want is not None and sha256(text) != want:
        problems.append("output differs from its pinned digest")
    return problems, sizes
