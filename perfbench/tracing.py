"""Span tracing of qalcove's public functions, installed from outside the package.

`Tracer.install` replaces each function named in `SPAN_POINTS` by a wrapper
that records one span per call.  The replacement is made on the defining module and on every
``qalcove`` module that bound the same function object at import (``genfun``,
``charident``, ``cli`` and ``suite`` import names such as
``enumerate_admissible`` or ``ghat`` directly).  `Tracer.uninstall` restores
the originals, so untraced passes run the unmodified program.

Spans are kept in memory; `layer_totals` turns one pass's spans into self
times (span duration minus the time covered by its direct children),
call counts, and counts read off return values.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> {public function: span name}.  Span names are the per-layer
# metric names without their "_s" suffix.
SPAN_POINTS = {
    "rootsys": {
        "build_root_system": "rootsys.build",
        "root_system_from_cartan": "rootsys.build",
    },
    "qbg": {
        "pi_compatible_paths": "qbg.paths",
        "label_increasing_path": "qbg.shell",
        "shortest_stats": "qbg.shell",
        "reflection_orders": "qbg.reflection_orders",
    },
    "alcove": {
        "lex_chain": "alcove.chain",
        "segment_chain": "alcove.chain",
        "compute_levels": "alcove.chain",
        "concat_chains": "alcove.chain",
        "chain_with_segment": "alcove.chain",
        "insert_pair": "alcove.chain",
        "enumerate_admissible": "alcove.enumerate",
        "admissible_from_indices": "alcove.enumerate",
    },
    "genfun": {
        "genfun": "genfun.assemble",
        "genfun_extend": "genfun.assemble",
        "compose": "genfun.assemble",
        "ghat": "genfun.ghat",
        "ghat_compose": "genfun.ghat",
        "par_enumerate": "genfun.par_enumerate",
    },
    "charident": {
        "rhs_chevalley": "charident.rhs",
        "verify_factorization": "charident.factor",
        "verify_vanishing": "charident.vanish",
    },
    "qbops": {
        "operator_matrix": "qbops.matrix",
        "check_yang_baxter": "qbops.matrix",
        "apply_R_sequence": "qbops.apply_R",
        "verify_matrix_props": "qbops.props",
        "check_golden": "qbops.golden",
    },
    "ybmoves": {
        "find_yb_segments": "ybmoves.segments",
        "make_context": "ybmoves.context",
        "yb_transform": "ybmoves.context",
        "delete_pair": "ybmoves.context",
        "build_sijection": "ybmoves.sijection",
        "yb_Y": "ybmoves.sijection",
        "yb_I1": "ybmoves.sijection",
        "yb_I2": "ybmoves.sijection",
    },
    "suite": {
        name: f"suite.c{k:02d}"
        for k, name in enumerate(
            (
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
            ),
            start=1,
        )
    },
    "cli": {"main": "cli"},
}


def _terms(result):
    return len(result.terms)


# function -> how one call's count is read off its return value
_COUNTS = {
    "pi_compatible_paths": len,
    "enumerate_admissible": len,
    "par_enumerate": len,
    "genfun": _terms,
    "ghat": _terms,
    "ghat_compose": _terms,
    "rhs_chevalley": _terms,
}


class Tracer:
    """Records spans for the wrapped qalcove functions while installed.

    A span is the list [id, parent id, span name, function, start, end,
    count, cache hit]; the benchmark's own job spans use the job name as
    their function.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []  # (module, attribute, original)

    def begin(self, name: str, func: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, parent, name, func, time.perf_counter(), None, None, False])
        self._stack.append(sid)
        return sid

    def end(self, sid: int):
        self.spans[sid][5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        func = fn.__name__
        counter = _COUNTS.get(func)
        adm = func == "enumerate_admissible"
        tracer = self

        def traced(*args, **kwargs):
            # a cache hit returns the list the chain already holds for w
            hit = adm and args[1] in getattr(args[0], "_adm_cache", {})
            sid = tracer.begin(name, func)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            span = tracer.spans[sid]
            span[7] = hit
            if counter is not None and not hit:
                span[6] = counter(result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "qalcove" or key.startswith("qalcove."))
        ]
        for short, points in SPAN_POINTS.items():
            home = sys.modules[f"qalcove.{short}"]
            for attr, name in points.items():
                original = getattr(home, attr)
                wrapper = self._wrap(original, name)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []


def layer_totals(spans: list) -> dict:
    """Totals of one pass's spans.

    Returns {"self_s": {span name: seconds}, "calls": {function: n},
    "count": {function: n}, "adm_hits": n, "ghat_out": n, "ghat_base": n}.
    ghat_base sums, over `ghat` calls, G-terms x partition tuples of that
    call's own child spans; ghat_out sums the same calls' output terms.
    """
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for sid, parent, _name, _func, t0, t1, _n, _hit in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
            children[parent].append(sid)
    self_s: dict = {}
    calls: dict = {}
    count: dict = {}
    adm_hits = ghat_out = ghat_base = 0
    for sid, _parent, name, func, t0, t1, n, hit in spans:
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[sid]
        calls[func] = calls.get(func, 0) + 1
        adm_hits += hit
        if n is not None:
            count[func] = count.get(func, 0) + n
        if func == "ghat":
            kids = [spans[c] for c in children[sid]]
            g_terms = sum(k[6] for k in kids if k[3] == "genfun")
            tuples = sum(k[6] for k in kids if k[3] == "par_enumerate")
            ghat_base += g_terms * tuples
            ghat_out += n
    return {
        "self_s": self_s,
        "calls": calls,
        "count": count,
        "adm_hits": adm_hits,
        "ghat_out": ghat_out,
        "ghat_base": ghat_base,
    }
