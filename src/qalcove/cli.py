"""Command-line driver: construction, enumeration, transformation, verification.

Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error.  Weights and translations are comma-separated integers in the
fundamental / simple-coroot bases; Weyl elements are words like s1s2s1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import alcove, qbg, qbops, suite, ybmoves
from .charident import rhs_chevalley, verify_factorization, verify_vanishing
from .genfun import AffineWeylElt, compose, genfun, genfun_equal, ghat
from .rootsys import Coroot, RootSystemError, build_root_system


class CliError(Exception):
    pass


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x != ""]


def _parsed(make, *args):
    """make(*args), with a RootSystemError reported as a usage error."""
    try:
        return make(*args)
    except RootSystemError as exc:
        raise CliError(exc) from exc


def _rs(args):
    return _parsed(build_root_system, args.type, getattr(args, "rank", None))


def _weight(rs, text):
    return _parsed(rs.weight, _parse_ints(text))


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
        path = spec[1:] if spec.startswith("@") else spec
        return alcove.LambdaChain.load(path, rs)
    if getattr(args, "lam", None) is None:
        raise CliError("need --lambda or --chain")
    lam = _weight(rs, args.lam)
    plus, minus = alcove.lambda_pm(lam)
    if minus.is_zero() or plus.is_zero():
        return alcove.lex_chain(rs, lam)
    return alcove.concat_chains(
        alcove.lex_chain(rs, plus), alcove.lex_chain(rs, minus)
    )


def _emit(args, payload, text):
    out = text if args.format != "json" else json.dumps(payload, indent=1)
    outdir = os.environ.get("QALCOVE_OUTDIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        name = getattr(args, "outfile", None) or "report.txt"
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
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
    bad = 0
    for order in orders:
        for v in rs.weyl_elements:
            for w in rs.weyl_elements:
                path = qbg.label_increasing_path(rs, v, w, order)
                if path.length != qbg.shortest_stats(rs, v, w)[0]:
                    bad += 1
    print(f"orders={len(orders)} pairs={len(rs.weyl_elements)**2} violations={bad}")
    return 0 if bad == 0 else 1


def cmd_chain(args):
    rs = _rs(args)
    if args.action == "lex":
        lam = _weight(rs, args.lam)
        if not (lam.is_dominant or lam.is_antidominant):
            raise CliError("lex chains need a dominant or antidominant weight")
        chain = alcove.lex_chain(rs, lam)
        _emit(args, chain.to_json(), json.dumps(chain.to_json()))
        return 0
    if args.action == "validate":
        chain = _chain(rs, args)
        kind = "reduced" if alcove.is_reduced(chain) else (
            "weakly-reduced" if alcove.is_weakly_reduced(chain) else "generic"
        )
        print(f"valid {kind} chain of length {len(chain)}")
        return 0
    # transform
    chain = _chain(rs, args)
    if args.delete is not None:
        out = ybmoves.delete_pair(chain, args.delete)
    else:
        if args.t is None or args.q is None:
            raise CliError("transform needs --t and --q (or --delete)")
        out = ybmoves.yb_transform(chain, args.t, args.q)
    _emit(args, out.to_json(), json.dumps(out.to_json()))
    return 0


def cmd_adm(args):
    rs = _rs(args)
    chain = _chain(rs, args)
    w = _parsed(rs.element_from_word, args.w)
    subsets = alcove.enumerate_admissible(chain, w)
    if args.action == "stats":
        subsets = [
            alcove.admissible_from_indices(chain, w, _parse_ints(args.indices))
        ]
    payload = [
        {
            "indices": list(a.indices),
            "wt": list(a.wt.coeffs),
            "ed": a.ed.word_str,
            "down": list(a.down.coeffs),
            "height": a.height,
            "n": a.n,
        }
        for a in subsets
    ]
    _emit(args, payload, alcove.report_tsv(subsets))
    return 0


def cmd_yb(args):
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
    if args.action == "apply":
        out = ybmoves.yb_transform(chain, args.t, args.q)
        _emit(args, out.to_json(), json.dumps(out.to_json()))
        return 0
    # sijection
    ctx = ybmoves.make_context(chain, args.t, args.q)
    sij = ybmoves.build_sijection(ctx, _parsed(rs.element_from_word, args.w))
    _emit(args, sij.report_json(), json.dumps(sij.report_json(), indent=1))
    return 0


def cmd_ops(args):
    rs = _rs(args)
    if args.action == "matrix":
        seq = tuple(
            _parsed(rs.root, _parse_ints(part)) for part in args.seq.split(";")
        )
        mat = qbops.operator_matrix(rs, seq)
        print(mat.to_tsv())
        return 0
    if args.action == "yang-baxter":
        bad = 0
        total = 0
        for alpha in rs.all_roots:
            for beta in rs.all_roots:
                if alpha in (beta, -beta):
                    continue
                if rs.root_pair(alpha, rs.coroot(beta)) > 0:
                    continue
                total += 1
                if not qbops.check_yang_baxter(rs, alpha, beta):
                    bad += 1
        print(f"pairs={total} violations={bad}")
        return 0 if bad == 0 else 1
    if args.action == "verify-props":
        ks = [args.k] if args.k is not None else list(range(len(rs.positive_roots) + 1))
        failures = 0
        for reverse in (False, True):
            for k in ks:
                rep = qbops.verify_matrix_props(rs, k, reverse)
                status = "ok" if rep.passed else "VIOLATION"
                extra = f" coeff3={rep.coeff3_positions}" if rep.coeff3_positions else ""
                print(f"k={k} reverse={reverse}: {status}{extra}")
                failures += not rep.passed
        return 0 if failures == 0 else 1
    # golden
    results = qbops.check_golden(rs)
    for name, ok in results:
        print(f"{name}\t{'PASS' if ok else 'FAIL'}")
    good = sum(1 for _, ok in results if ok)
    print(f"{good}/{len(results)} matrices match")
    return 0 if good == len(results) else 1


def cmd_gf(args):
    rs = _rs(args)
    x = AffineWeylElt(_parsed(rs.element_from_word, args.w), _coroot(rs, args.xi))
    if args.action == "eval":
        g = genfun(_chain(rs, args), x)
        _emit(args, g.to_json(), json.dumps(g.to_json()))
        return 0
    if args.action == "compare":
        c1 = alcove.LambdaChain.load(args.chain1, rs)
        c2 = alcove.LambdaChain.load(args.chain2, rs)
        same = genfun_equal(genfun(c1, x), genfun(c2, x), args.floor)
        print("equal" if same else "different")
        return 0 if same else 1
    if args.action == "compose":
        c1 = alcove.LambdaChain.load(args.chain1, rs)
        c2 = alcove.LambdaChain.load(args.chain2, rs)
        g = compose(c1, c2, x)
        _emit(args, g.to_json(), json.dumps(g.to_json()))
        return 0
    # ghat
    g = ghat(_chain(rs, args), x, args.floor if args.floor is not None else -8)
    _emit(args, g.to_json(), json.dumps(g.to_json()))
    return 0


def cmd_chev(args):
    rs = _rs(args)
    x = AffineWeylElt(_parsed(rs.element_from_word, args.w), _coroot(rs, args.xi))
    floor = args.floor if args.floor is not None else -8
    if args.action == "rhs":
        mu = _weight(rs, args.mu)
        lam = _weight(rs, args.lam)
        chain = _chain(rs, args)
        f = rhs_chevalley(rs, mu, lam, chain, x, floor)
        _emit(args, f.to_json(), json.dumps(f.to_json()))
        return 0
    if args.action == "vanish":
        import time as _time

        lam = _weight(rs, args.lam)
        rows = ["case\tresult\tmax_abs_qexp\tseconds"]
        all_ok = True
        for w in rs.weyl_elements:
            t0 = _time.time()
            chain = alcove.lex_chain(rs, lam)
            ok = verify_vanishing(rs, lam, w, chain)
            all_ok &= ok
            maxexp = max(abs(h) for h in alcove.admissible_support(chain, w)[1])
            rows.append(
                f"w={w.word_str}\t{'zero' if ok else 'NONZERO'}\t{maxexp}\t{_time.time() - t0:.4f}"
            )
        print("\n".join(rows))
        return 0 if all_ok else 1
    # factor
    mu = _weight(rs, args.mu)
    lam = _weight(rs, args.lam)
    ok = verify_factorization(rs, mu, lam, x, floor)
    print("factorization holds" if ok else "FACTORIZATION FAILS")
    return 0 if ok else 1


def cmd_suite(args):
    # report is byte-identical for a fixed seed; wall times go to stderr
    results = suite.run_all(seed=args.seed, workers=args.workers)
    for r in results:
        print(r.line(with_time=False))
    print(
        "timings: " + " ".join(f"{r.criterion}:{r.seconds:.2f}s" for r in results),
        file=sys.stderr,
    )
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="qalcove", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, lam=True, chain=True, w=False, xi=False, floor=False):
        sp.add_argument("--type", required=True, help="root-system label, e.g. A2, C2, G2")
        sp.add_argument("--rank", type=int, default=None)
        sp.add_argument("--format", choices=("json", "tsv", "dot"), default="tsv")
        sp.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
        if lam:
            sp.add_argument("--lambda", dest="lam", help="weight, comma-separated")
        if chain:
            sp.add_argument("--chain", help="chain JSON path (or @path)")
        if w:
            sp.add_argument("--w", default="e", help="Weyl word, e.g. s1s2")
        if xi:
            sp.add_argument("--xi", default=None, help="coroot translation part")
        if floor:
            sp.add_argument("--floor", type=int, default=None, help="q-exponent floor")

    sp = sub.add_parser("qbg", help="graph export and shellability check")
    sp.add_argument("action", choices=("export", "shell-check"))
    common(sp, lam=False, chain=False)
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
    sp.add_argument("--indices", default="", help="1-based index set for stats")
    sp.set_defaults(fn=cmd_adm)

    sp = sub.add_parser("yb", help="Yang-Baxter segments, moves and sijections")
    sp.add_argument("action", choices=("segments", "apply", "sijection"))
    common(sp, w=True)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--q", type=int, default=None)
    sp.set_defaults(fn=cmd_yb)

    sp = sub.add_parser("ops", help="operator matrices and their laws")
    sp.add_argument("action", choices=("matrix", "yang-baxter", "verify-props", "golden"))
    common(sp, lam=False, chain=False)
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
    sp.add_argument("--mu", default="", help="dominant weight, comma-separated")
    sp.set_defaults(fn=cmd_chev)

    sp = sub.add_parser("suite", help="run the verification suite")
    sp.add_argument("action", choices=("all",))
    sp.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    sp.add_argument("--workers", type=int, default=4)
    sp.set_defaults(fn=cmd_suite)

    return p


def _merge_negative_values(argv):
    """Turn '--lambda -2,1' into '--lambda=-2,1' so argparse accepts it."""
    flags = {"--lambda", "--mu", "--xi"}
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, FileNotFoundError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
