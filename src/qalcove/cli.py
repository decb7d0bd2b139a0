"""Command-line driver: construction, enumeration, transformation, verification.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error.  Weights and translations are comma-separated integers in the
fundamental / simple-coroot bases; Weyl elements are words like s1s2s1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import alcove, qbg, qbops, suite, ybmoves
from .charident import rhs_chevalley, vanishes, verify_factorization
from .genfun import AffineWeylElt, compose, genfun, genfun_equal, ghat, table_json
from .rootsys import Coroot, RootSystemError, build_root_system


class CliError(Exception):
    pass


def _parse_ints(text):
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise CliError(f"not a comma-separated list of integers: {text!r}") from None


def _parsed(make, *args):
    """make(*args), with a RootSystemError or ChainError reported as a usage error.

    Only for calls that check user input, never for a chain's validation.
    """
    try:
        return make(*args)
    except (RootSystemError, alcove.ChainError) as exc:
        raise CliError(exc) from exc


def _required(args, name, flag):
    """args.<name>, a usage error naming flag when the option was not given."""
    value = getattr(args, name)
    if value is None:
        raise CliError(f"{args.command} {args.action} needs {flag}")
    return value


# options that an action never reads, by (command, action), as argparse dests
_UNREAD = {
    ("chain", "lex"): ("chain", "t", "q", "delete"),
    ("chain", "validate"): ("t", "q", "delete"),
    ("adm", "enumerate"): ("indices",),
    ("yb", "segments"): ("w", "t", "q"),
    ("yb", "apply"): ("w",),
    ("ops", "matrix"): ("k",),
    ("ops", "yang-baxter"): ("seq", "k"),
    ("ops", "verify-props"): ("seq",),
    ("ops", "golden"): ("seq", "k"),
    ("gf", "eval"): ("floor", "chain1", "chain2"),
    ("gf", "compare"): ("lam", "chain"),
    ("gf", "compose"): ("lam", "chain", "floor"),
    ("gf", "ghat"): ("chain1", "chain2"),
    ("chev", "vanish"): ("chain", "w", "xi", "floor", "mu"),
    ("chev", "factor"): ("chain",),
}


def _unread(args, *names):
    """Usage error naming the first given option that the action never
    reads (_UNREAD, or names), so that none is silently ignored."""
    for name in _UNREAD.get((args.command, args.action), ()) + names:
        if getattr(args, name) is not None:
            flag = "--lambda" if name == "lam" else f"--{name}"
            raise CliError(f"{args.command} {args.action} does not take {flag}")


def _rs(args):
    return _parsed(build_root_system, args.type)


def _weight(rs, text):
    return _parsed(rs.weight, _parse_ints(text))


def _dominant_mu(rs, args):
    """The weight of --mu, a usage error unless it is dominant."""
    mu = _weight(rs, _required(args, "mu", "--mu"))
    if not mu.is_dominant:
        raise CliError(f"{args.command} {args.action} needs a dominant --mu")
    return mu


def _lex_weight(rs, text):
    lam = _weight(rs, text)
    if not (lam.is_dominant or lam.is_antidominant):
        raise CliError("lex chains need a dominant or antidominant weight")
    return lam


def _w(rs, args):
    """The Weyl element of --w, the identity when it is not given."""
    return _parsed(rs.element_from_word, "e" if args.w is None else args.w)


def _coroot(rs, text):
    if text is None:
        return Coroot((0,) * rs.rank)
    vals = _parse_ints(text)
    if len(vals) != rs.rank:
        raise CliError("xi length mismatch")
    return Coroot(tuple(vals))


def _chain(rs, args):
    """Chain from --chain (path or @path), else the lex chain of --lam."""
    spec = getattr(args, "chain", None)
    if spec:
        return _load(rs, spec[1:] if spec.startswith("@") else spec)
    if getattr(args, "lam", None) is None:
        raise CliError("need --lambda or --chain")
    lam = _weight(rs, args.lam)
    plus, minus = alcove.lambda_pm(lam)
    if minus.is_zero() or plus.is_zero():
        return alcove.lex_chain(rs, lam)
    return alcove.concat_chains(
        alcove.lex_chain(rs, plus), alcove.lex_chain(rs, minus)
    )


def _load(rs, path):
    """The chain file at path, read in rs; a file of another type or with a
    field of the wrong shape is a usage error, while one that fails
    validation stays a failed check."""
    try:
        return alcove.LambdaChain.load(path, rs)
    except alcove.ChainFieldError as exc:
        raise CliError(exc) from exc


def _emit(args, payload, text=None):
    """Print payload as indented JSON under --format json, else text.

    text defaults to compact JSON, serialized only when it is printed.
    """
    if args.format == "json":
        _write(args, json.dumps(payload, indent=1))
    else:
        _write(args, json.dumps(payload) if text is None else text)


def _emit_terms(args, f):
    """Print a GenFun or FormalChar f as _emit(args, f.to_json()) would, in
    either layout written straight from f's term table by `table_json`."""
    indent = 1 if args.format == "json" else None
    _write(args, table_json(f.table, f.rs._json_words, f.ROW_NAMES, indent))


def _write(args, out):
    """Print out; with QALCOVE_OUTDIR set, also write it to
    <command>-<action>.json (or .txt) there."""
    outdir = os.environ.get("QALCOVE_OUTDIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        ext = "json" if args.format == "json" else "txt"
        path = os.path.join(outdir, f"{args.command}-{args.action}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    print(out)


# -- subcommand handlers --------------------------------------------------------


def cmd_qbg(args):
    rs = _rs(args)
    if args.action == "export":
        print(qbg.to_dot(rs))
        return 0
    # shell-check: exhaustive over all reflection orders
    orders = qbg.reflection_orders(rs)
    bad = sum(
        not minimal
        for order in orders
        for _, _, minimal in qbg.shellability_pairs(rs, order)
    )
    print(f"orders={len(orders)} pairs={len(rs.weyl_elements)**2} violations={bad}")
    return 0 if bad == 0 else 1


def cmd_chain(args):
    _unread(args)
    rs = _rs(args)
    if args.action == "lex":
        lam = _lex_weight(rs, _required(args, "lam", "--lambda"))
        _emit(args, alcove.lex_chain(rs, lam).to_json())
        return 0
    if args.action == "validate":
        _text_only(args)
        chain = _chain(rs, args)
        kind = "reduced" if alcove.is_reduced(chain) else (
            "weakly-reduced" if alcove.is_weakly_reduced(chain) else "generic"
        )
        print(f"valid {kind} chain of length {len(chain)}")
        return 0
    # transform
    chain = _chain(rs, args)
    if args.delete is not None:
        _unread(args, "t", "q")
        # deleting a (beta, -beta) pair leaves a valid chain valid, so a
        # ChainError here can only be a bad position
        out = _parsed(ybmoves.delete_pair, chain, args.delete)
    else:
        if args.t is None or args.q is None:
            raise CliError("transform needs --t and --q (or --delete)")
        _check_segment(chain, args)
        out = ybmoves.yb_transform(chain, args.t, args.q)
    _emit(args, out.to_json())
    return 0


def _text_only(args):
    """Usage error for --format json on an action that prints text only."""
    if args.format == "json":
        raise CliError(f"{args.command} {args.action} has no JSON output")


def _check_segment(chain, args):
    """Usage error unless --t/--q name a Yang-Baxter segment of the chain."""
    if (args.t, args.q) not in {(t, q) for t, q, _, _ in ybmoves.find_yb_segments(chain)}:
        raise CliError(f"--t {args.t} --q {args.q} is not a Yang-Baxter segment of the chain")


def cmd_adm(args):
    _unread(args)
    if args.action == "stats":
        # --indices "" is the empty subset; a missing --indices is named
        text = _required(args, "indices", "--indices")
    rs = _rs(args)
    chain = _chain(rs, args)
    w = _w(rs, args)
    if args.action == "stats":
        # an index set that is out of range or not admissible is bad input
        subsets = [_parsed(alcove.admissible_from_indices, chain, w, _parse_ints(text))]
    else:
        subsets = alcove.enumerate_admissible(chain, w)
    payload = [{"indices": list(a.indices), **a.stats_json()} for a in subsets]
    _emit(args, payload, alcove.report_tsv(subsets))
    return 0


def cmd_yb(args):
    _unread(args)
    rs = _rs(args)
    chain = _chain(rs, args)
    if args.action == "segments":
        rows = [
            {"t": t, "q": q, "alpha": list(a.coeffs), "beta": list(b.coeffs)}
            for t, q, a, b in ybmoves.find_yb_segments(chain)
        ]
        _emit(args, rows, "\n".join(f"{r['t']}\t{r['q']}\t{r['alpha']}\t{r['beta']}" for r in rows))
        return 0
    if args.t is None or args.q is None:
        raise CliError("need --t and --q")
    _check_segment(chain, args)
    if args.action == "apply":
        _emit(args, ybmoves.yb_transform(chain, args.t, args.q).to_json())
        return 0
    # sijection: indented JSON, to a .json file, with or without --format json
    if args.format == "tsv":
        raise CliError("yb sijection has no TSV output")
    args.format = "json"
    ctx = ybmoves.make_context(chain, args.t, args.q)
    _emit(args, ybmoves.build_sijection(ctx, _w(rs, args)).report_json())
    return 0


def cmd_ops(args):
    _unread(args)
    rs = _rs(args)
    if args.action == "matrix":
        parts = _required(args, "seq", "--seq").split(";")
        seq = tuple(_parsed(rs.root, _parse_ints(part)) for part in parts)
        mat = qbops.operator_matrix(rs, seq)
        print(mat.to_tsv())
        return 0
    if args.action == "yang-baxter":
        checks = list(qbops.yang_baxter_checks(rs))
        bad = sum(not ok for _, _, ok in checks)
        print(f"pairs={len(checks)} violations={bad}")
        return 0 if bad == 0 else 1
    if args.action == "verify-props":
        if rs.rank != 2:
            raise CliError("verify-props takes rank-2 types only")
        q = len(rs.positive_roots)
        if args.k is not None and not 0 <= args.k <= q:
            raise CliError(f"--k must be within 0..{q}")
        ks = [args.k] if args.k is not None else list(range(q + 1))
        failures = 0
        tables: dict = {}  # S_k of one chain is S'_{q-k} of the other
        for reverse in (False, True):
            for k in ks:
                rep = qbops.verify_matrix_props(rs, k, reverse, tables)
                status = "ok" if rep.passed else "VIOLATION"
                extra = f" coeff3={rep.coeff3_positions}" if rep.coeff3_positions else ""
                print(f"k={k} reverse={reverse}: {status}{extra}")
                failures += not rep.passed
        return 0 if failures == 0 else 1
    # golden
    types = sorted({item["type"] for item in qbops.load_golden_manifest()})
    if rs.type_label not in types:
        raise CliError(f"no golden matrices for {rs.type_label}; golden data covers {', '.join(types)}")
    results = qbops.check_golden(rs)
    for name, ok in results:
        print(f"{name}\t{'PASS' if ok else 'FAIL'}")
    good = sum(1 for _, ok in results if ok)
    print(f"{good}/{len(results)} matrices match")
    return 0 if good == len(results) else 1


def cmd_gf(args):
    if args.action in ("compare", "compose"):
        # a missing chain file is named before an option given in its place,
        # as in cmd_chev
        paths = _required(args, "chain1", "--chain1"), _required(args, "chain2", "--chain2")
    _unread(args)
    rs = _rs(args)
    x = AffineWeylElt(_w(rs, args), _coroot(rs, args.xi))
    if args.action == "eval":
        _emit_terms(args, genfun(_chain(rs, args), x))
        return 0
    if args.action in ("compare", "compose"):
        c1, c2 = (_load(rs, path) for path in paths)
    if args.action == "compare":
        same = genfun_equal(genfun(c1, x), genfun(c2, x), args.floor)
        print("equal" if same else "different")
        return 0 if same else 1
    if args.action == "compose":
        _emit_terms(args, compose(c1, c2, x))
        return 0
    # ghat
    g = ghat(_chain(rs, args), x, args.floor if args.floor is not None else -8)
    _emit_terms(args, g)
    return 0


def cmd_chev(args):
    # a missing --lambda is named before an option given in its place
    lam_text = _required(args, "lam", "--lambda")
    _unread(args)
    rs = _rs(args)
    x = AffineWeylElt(_w(rs, args), _coroot(rs, args.xi))
    floor = args.floor if args.floor is not None else -8
    if args.action == "rhs":
        mu = _dominant_mu(rs, args)
        lam = _weight(rs, lam_text)
        chain = _chain(rs, args)
        if chain.lam != lam:
            found = ",".join(map(str, chain.lam.coeffs))
            raise CliError(f"the --chain file is a chain for lambda {found}, not --lambda {lam_text}")
        _emit_terms(args, rhs_chevalley(rs, mu, lam, chain, x, floor))
        return 0
    _text_only(args)
    if args.action == "vanish":
        lam = _lex_weight(rs, lam_text)
        if not lam.is_antidominant or lam.is_zero():
            raise CliError("chev vanish needs an antidominant nonzero --lambda")
        chain = alcove.lex_chain(rs, lam)
        rows = ["case\tresult\tmax_abs_qexp\tseconds"]
        all_ok = True
        for w in rs.weyl_elements:
            t0 = time.perf_counter()
            taken, heights = alcove.admissible_support(chain, w)
            ok = vanishes(chain, w, taken)
            all_ok &= ok
            maxexp = max(abs(h) for h in heights)
            rows.append(
                f"w={w.word_str}\t{'zero' if ok else 'NONZERO'}\t{maxexp}\t{time.perf_counter() - t0:.4f}"
            )
        print("\n".join(rows))
        return 0 if all_ok else 1
    # factor
    mu = _dominant_mu(rs, args)
    lam = _weight(rs, lam_text)
    ok = verify_factorization(rs, mu, lam, x, floor)
    print("factorization holds" if ok else "FACTORIZATION FAILS")
    return 0 if ok else 1


def cmd_suite(args):
    # report is byte-identical for a fixed seed; wall times go to stderr
    results = suite.run_all(seed=args.seed)
    for r in results:
        print(r.line(with_time=False))
    print(
        "timings: " + " ".join(f"{r.criterion}:{r.seconds:.2f}s" for r in results),
        file=sys.stderr,
    )
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------------


def build_parser():
    """The argument parser; main builds it once per process (`_parser`)."""
    p = argparse.ArgumentParser(prog="qalcove", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, lam=True, chain=True, w=False, xi=False, floor=False, fmt=True):
        sp.add_argument("--type", required=True, help="root-system label, e.g. A2, C2, G2")
        if fmt:
            # None when not given, so that an action with one format can
            # reject the other (_text_only, yb sijection)
            sp.add_argument("--format", choices=("json", "tsv"), default=None)
        if lam:
            sp.add_argument("--lambda", dest="lam", help="weight, comma-separated")
        if chain:
            sp.add_argument("--chain", help="chain JSON path (or @path)")
        if w:
            sp.add_argument("--w", default=None, help="Weyl word, e.g. s1s2 (default e)")
        if xi:
            sp.add_argument("--xi", default=None, help="coroot translation part")
        if floor:
            sp.add_argument("--floor", type=int, default=None, help="q-exponent floor")

    sp = sub.add_parser("qbg", help="graph export and shellability check")
    sp.add_argument("action", choices=("export", "shell-check"))
    common(sp, lam=False, chain=False, fmt=False)
    sp.set_defaults(fn=cmd_qbg)

    sp = sub.add_parser("chain", help="lex chains, validation, transforms")
    sp.add_argument("action", choices=("lex", "validate", "transform"))
    common(sp)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--delete", type=int, default=None, help="prefix length before a (beta,-beta) pair")
    sp.set_defaults(fn=cmd_chain)

    sp = sub.add_parser("adm", help="admissible subsets and statistics")
    sp.add_argument("action", choices=("enumerate", "stats"))
    common(sp, w=True)
    sp.add_argument("--indices", default=None, help="1-based index set for stats")
    sp.set_defaults(fn=cmd_adm)

    sp = sub.add_parser("yb", help="Yang-Baxter segments, moves and sijections")
    sp.add_argument("action", choices=("segments", "apply", "sijection"))
    common(sp, w=True)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(fn=cmd_yb)

    sp = sub.add_parser("ops", help="operator matrices and their laws")
    sp.add_argument("action", choices=("matrix", "yang-baxter", "verify-props", "golden"))
    common(sp, lam=False, chain=False, fmt=False)
    sp.add_argument("--seq", help="semicolon-separated signed root coefficient vectors, application order")
    sp.add_argument("--k", type=int, default=None)
    sp.set_defaults(fn=cmd_ops)

    sp = sub.add_parser("gf", help="generating functions")
    sp.add_argument("action", choices=("eval", "compare", "compose", "ghat"))
    common(sp, w=True, xi=True, floor=True)
    sp.add_argument("--chain1")
    sp.add_argument("--chain2")
    sp.set_defaults(fn=cmd_gf)

    sp = sub.add_parser("chev", help="character expansion checks")
    sp.add_argument("action", choices=("rhs", "vanish", "factor"))
    common(sp, w=True, xi=True, floor=True)
    sp.add_argument("--mu", default=None, help="dominant weight, comma-separated")
    sp.set_defaults(fn=cmd_chev)

    sp = sub.add_parser("suite", help="run the verification suite")
    sp.add_argument("action", choices=("all",))
    sp.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    sp.set_defaults(fn=cmd_suite)

    return p


# built at the first main call, not at import, and reused by later calls
_parser = functools.cache(build_parser)


def _merge_negative_values(argv):
    """Turn '--lambda -2,1' into '--lambda=-2,1' so argparse accepts it."""
    flags = {"--lambda", "--mu", "--xi", "--seq"}
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    code = None
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must raise here, not at exit
        return code
    except (CliError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): point fd 1 at devnull so
        # the flush at interpreter exit does not raise again; a command cut
        # short exits as if killed by SIGPIPE (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141 if code is None else code
    except Exception as exc:
        if os.environ.get("QALCOVE_DEBUG"):
            import traceback  # only the debug branch prints a traceback

            print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
