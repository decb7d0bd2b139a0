"""The verification suite: one runner per acceptance criterion.

Each check returns a CheckResult; `run_all` runs the checks one after the
other, so each criterion's time is its own.  Randomized case
selection is driven entirely by the seed recorded in the result details.
"""

from __future__ import annotations

import random
import time

from . import alcove, qbg, qbops, ybmoves
from .alcove import (
    chain_with_segment,
    concat_chains,
    enumerate_admissible,
    insert_pair,
    is_weakly_reduced,
    lambda_pm,
    lex_chain,
    segment_chain,
)
from .charident import rhs_chevalley, specialize_trivial, verify_vanishing
from .genfun import (
    AffineWeylElt,
    compose,
    genfun as genfun_at,
    genfun_equal,
    ghat,
    ghat_compose,
    is_weyl_invariant,
    weight_orbit_sum,
)
from .records import Record
from .rootsys import Coroot, build_root_system

DEFAULT_SEED = 20260809


class CheckResult(Record):
    __slots__ = _fields = ("criterion", "name", "passed", "detail", "seconds")

    def __init__(self, criterion: int, name: str, passed: bool, detail: str, seconds: float):
        self.criterion = criterion
        self.name = name
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self, with_time: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        base = f"{status} criterion {self.criterion:2d} [{self.name}]: {self.detail}"
        return f"{base} ({self.seconds:.2f}s)" if with_time else base


def _result(criterion, name, fn):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a raised check is a failed check
        passed, detail = False, f"exception: {exc!r}"
    return CheckResult(criterion, name, passed, detail, time.perf_counter() - t0)


def _zero_x(rs, word="e"):
    return AffineWeylElt(rs.element_from_word(word), Coroot((0,) * rs.rank))


# -- criterion 1: golden matrices ----------------------------------------------


def criterion_golden(seed=DEFAULT_SEED):
    def run():
        results = []
        for label in ("C2", "G2"):
            results += qbops.check_golden(build_root_system(label))
        bad = [name for name, ok in results if not ok]
        return not bad and len(results) == 16, f"{len(results)} matrices, failures: {bad}"

    return _result(1, "golden matrices", run)


# -- criterion 2: the worked A2 example -----------------------------------------


def _a2_example_chains():
    rs = build_root_system("A2")
    lam = rs.weight([-2, 1])
    roots = (rs.root([0, 1]), rs.root([-1, 0]), rs.root([-1, -1]), rs.root([-1, 0]))
    chain1 = alcove.compute_levels(rs, roots, lam)
    chain2 = ybmoves.yb_transform(chain1, 0, 3)
    return rs, chain1, chain2


_A2_SETS_1 = [
    (), (1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 4), (3, 4),
    (1, 2, 3), (1, 2, 4), (1, 2, 3, 4),
]
_A2_SETS_2 = [
    (), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
    (3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4),
]


def criterion_a2_example(seed=DEFAULT_SEED):
    def run():
        rs, chain1, chain2 = _a2_example_chains()
        w = rs.element_from_word("s2")
        got1 = sorted(a.indices for a in enumerate_admissible(chain1, w))
        got2 = sorted(a.indices for a in enumerate_admissible(chain2, w))
        ok = got1 == sorted(_A2_SETS_1) and got2 == sorted(_A2_SETS_2)
        return ok, f"|A|={len(got1)},{len(got2)} index sets exact"

    return _result(2, "A2 admissible sets", run)


# -- criterion 3: the C2 path tables and move tables ----------------------------

_TABLE1 = {  # path labels -> (ed word, down coeffs)
    ((0, 1),): ("e", (0, 1)),
    (): ("s2", (0, 0)),
    ((1, 1),): ("s1s2", (0, 0)),
    ((1, 0),): ("s2s1", (0, 0)),
    ((1, 0), (1, 1)): ("s1s2s1", (0, 0)),
    ((1, 0), (0, 1)): ("s2s1s2", (0, 0)),
}
_TABLE2 = {
    ((1, 1), (0, 1), (1, 0)): ("e", (1, 1)),
    ((1, 1), (1, 0), (2, 1)): ("e", (1, 1)),
    ((0, 1),): ("e", (0, 1)),
    ((1, 1), (0, 1)): ("s1", (0, 1)),
    ((0, 1), (1, 0)): ("s1", (0, 1)),
    (): ("s2", (0, 0)),
    ((1, 1),): ("s1s2", (0, 0)),
    ((1, 1), (0, 1), (2, 1)): ("s2s1", (0, 1)),
    ((0, 1), (1, 0), (2, 1)): ("s2s1", (0, 1)),
    ((1, 0),): ("s2s1", (0, 0)),
    ((1, 1), (1, 0)): ("s1s2s1", (0, 0)),
    ((1, 1), (2, 1)): ("s2s1s2", (0, 0)),
}
_TABLE3 = {  # segment index set of A -> segment index set of Y(A), 1-based
    (): (),
    (2,): (3,),
    (3,): (2,),
    (4,): (1,),
    (2, 3): (1, 4),
    (2, 4): (1, 3),
}
_TABLE4 = [  # unordered I2 pairs of segment index sets
    ((1, 2), (2, 3)),
    ((1, 2, 3), (1, 3, 4)),
    ((1, 2, 4), (2, 3, 4)),
]


def criterion_c2_tables(seed=DEFAULT_SEED):
    def run():
        rs = build_root_system("C2")
        v = rs.element_from_word("s2")
        pi = (-rs.root([2, 1]), -rs.root([1, 0]), rs.root([0, 1]), rs.root([1, 1]))
        pi_prime = tuple(reversed(pi))
        paths1 = qbg.pi_compatible_paths(rs, v, pi)
        paths2 = qbg.pi_compatible_paths(rs, v, pi_prime)
        if len(paths1) != 6 or len(paths2) != 12:
            return False, f"path counts {len(paths1)}, {len(paths2)}"
        for paths, table in ((paths1, _TABLE1), (paths2, _TABLE2)):
            got = {
                tuple(s.edge.label.coeffs for s in p.steps): (
                    p.end.word_str,
                    p.wt(rs).coeffs,
                )
                for p in paths
            }
            if got != table:
                return False, "path statistics differ from the tables"

        chain, t = chain_with_segment(rs, pi)
        ctx = ybmoves.make_context(chain, t, 4)
        w = v
        for a_seg, b_seg in _TABLE3.items():
            a = alcove.admissible_from_indices(chain, w, [t + j for j in a_seg])
            b = ybmoves.yb_Y(a, ctx)
            got = tuple(j - t for j in b.indices)
            if got != b_seg:
                return False, f"Y({a_seg}) = {got}, expected {b_seg}"
        for left, right in _TABLE4:
            bl = alcove.admissible_from_indices(
                ctx.chain2, w, [t + j for j in left]
            )
            br = ybmoves.yb_I2(bl, ctx)
            if tuple(j - t for j in br.indices) != right:
                return False, f"I2({left}) mismatch"
            back = ybmoves.yb_I2(br, ctx)
            if tuple(j - t for j in back.indices) != left:
                return False, "I2 not involutive"
        return True, "tables of 6 and 12 paths plus Y and I2 maps exact"

    return _result(3, "C2 move tables", run)


# -- criterion 4: shellability ---------------------------------------------------


def criterion_shellability(seed=DEFAULT_SEED):
    def run():
        total = 0
        for label in ("A1xA1", "A2", "C2", "G2"):
            rs = build_root_system(label)
            orders = qbg.reflection_orders(rs)
            if len(orders) < 2:
                return False, f"{label}: fewer than two reflection orders"
            for order in orders:
                for v, w, minimal in qbg.shellability_pairs(rs, order):
                    if not minimal:
                        return False, f"{label}: non-minimal path {v}->{w}"
                    total += 1
        return True, f"{total} (order, v, w) triples, unique and minimal"

    return _result(4, "shellability", run)


# -- criterion 5: Yang-Baxter equation -------------------------------------------


def criterion_yang_baxter(seed=DEFAULT_SEED):
    def run():
        total = 0
        for label in ("A2", "C2", "G2"):
            rs = build_root_system(label)
            for alpha, beta, ok in qbops.yang_baxter_checks(rs):
                if not ok:
                    return False, f"{label}: fails at {alpha}, {beta}"
                total += 1
        return True, f"{total} sign patterns"

    return _result(5, "Yang-Baxter equation", run)


# -- criterion 6: operator matrix multiplicity laws --------------------------------------------


def criterion_matrix_props(seed=DEFAULT_SEED):
    def run():
        m3 = []
        n3 = []
        for label in ("A1xA1", "A2", "C2", "G2"):
            rs = build_root_system(label)
            q = len(rs.positive_roots)
            tables: dict = {}  # S_k of one chain is S'_{q-k} of the other
            for reverse in (False, True):
                for k in range(q + 1):
                    rep = qbops.verify_matrix_props(rs, k, reverse, tables)
                    if not rep.passed:
                        return False, f"{label} k={k} rev={reverse}: {rep.violations[:2]}"
                    m3 += [(label, k, reverse, p) for p in rep.m3_positions]
                    n3 += [(label, k, reverse, p) for p in rep.n3_positions]
        want_m3 = [
            ("G2", 2, True, ("s2s1s2", "s2s1s2s1")),
            ("G2", 4, False, ("s1s2", "s1s2s1")),
        ]
        want_n3 = [
            ("G2", 2, True, ("s1s2", "s1s2s1")),
            ("G2", 4, False, ("s2s1s2", "s2s1s2s1")),
        ]
        ok = sorted(m3) == want_m3 and sorted(n3) == want_n3
        return ok, f"coefficient-3 entries exactly at the two stated positions"

    return _result(6, "matrix multiplicity laws", run)


# -- criterion 7: sijection sweep -------------------------------------------------


def _g2_exceptional_contexts():
    rs = build_root_system("G2")
    r = rs.root
    seg_a = (r([1, 1]), r([0, 1]), r([-1, 0]), r([-3, -1]), r([-2, -1]), r([-3, -2]))
    seg_b = (r([3, 2]), r([2, 1]), r([3, 1]), r([1, 0]), r([0, -1]), r([-1, -1]))
    out = []
    for seg in (seg_a, seg_b):
        chain, t = chain_with_segment(rs, seg)
        out.append(ybmoves.make_context(chain, t, 6))
    return rs, out


def criterion_sijection(seed=DEFAULT_SEED):
    def run():
        rng = random.Random(seed)
        cases = 0
        classes_seen = set()
        exceptional_seen = set()

        rs_g2, ctxs = _g2_exceptional_contexts()
        for ctx in ctxs:
            for word in ("s1s2s1", "s2s1s2s1", "e", "s2s1", "s1s2"):
                w = rs_g2.element_from_word(word)
                counts1, counts2 = ybmoves.check_sijection(ctx, w)
                cases += 1
                cls = set(counts1) | set(counts2)
                classes_seen |= cls
                kind = ybmoves._pattern_kind(ctx.pi)
                for c in cls & {3, 4, 5}:
                    exceptional_seen.add((kind, word, c))

        lambdas = {
            "A2": ([-2, 1], [1, 1], [2, -1], [-1, -1], [0, 2], [1, -2]),
            "C2": ([-1, 1], [1, 1], [1, -1], [0, 2], [-2, 1], [2, 0]),
        }
        for label, lams in lambdas.items():
            rs = build_root_system(label)
            for lc in lams:
                lam = rs.weight(lc)
                plus, minus = lambda_pm(lam)
                for chain in (
                    concat_chains(lex_chain(rs, plus), lex_chain(rs, minus)),
                    segment_chain(rs, lam),
                ):
                    segments = ybmoves.find_yb_segments(chain)
                    if not segments:
                        continue
                    rng.shuffle(segments)
                    for t, q, _, _ in segments[:2]:
                        ctx = ybmoves.make_context(chain, t, q)
                        words = list(rs.weyl_elements)
                        rng.shuffle(words)
                        for w in words[:4]:
                            counts1, _ = ybmoves.check_sijection(ctx, w)
                            cases += 1
                            classes_seen |= set(counts1)
        covered = {c for (_, _, c) in exceptional_seen}
        sides = {k for (k, _, _) in exceptional_seen}
        ok = (
            cases >= 50
            and classes_seen >= {1, 2, 3, 4, 5}
            and covered == {3, 4, 5}
            and sides == {"E13", "E24"}
        )
        return ok, (
            f"{cases} cases, classes {sorted(classes_seen)}, "
            f"exceptional families on both patterns (seed {seed})"
        )

    return _result(7, "sijection sweep", run)


# -- criterion 8: generating-function invariance ----------------------------------


def criterion_genfun_invariance(seed=DEFAULT_SEED):
    def run():
        rng = random.Random(seed)
        pairs = 0
        for label in ("A2", "C2"):
            rs = build_root_system(label)
            nonsimple = [
                b for b in rs.positive_roots
                if sum(b.coeffs) > 1
            ]
            for lc in ([-2, 1], [1, 1], [1, -1], [-1, -1], [2, 0]):
                lam = rs.weight(lc)
                plus, minus = lambda_pm(lam)
                base = concat_chains(lex_chain(rs, plus), lex_chain(rs, minus))
                other = concat_chains(lex_chain(rs, minus), lex_chain(rs, plus))
                variants = [other]
                current = base
                for _ in range(3):
                    moves = ybmoves.find_yb_segments(current)
                    if moves and rng.random() < 0.7:
                        t, q, _, _ = rng.choice(moves)
                        current = ybmoves.yb_transform(current, t, q)
                    else:
                        for _attempt in range(30):
                            beta = rng.choice(nonsimple)
                            u = rng.randrange(len(current) + 1)
                            try:
                                current = insert_pair(current, u, beta)
                                break
                            except alcove.ChainError:
                                continue
                    variants.append(current)
                x = _zero_x(rs, rng.choice(["e", "s1", "s2s1"]))
                g0 = genfun_at(base, x)
                for var in variants:
                    if not is_weakly_reduced(var):
                        return False, f"{label} {lc}: variant not weakly reduced"
                    if not genfun_equal(g0, genfun_at(var, x)):
                        return False, f"{label} {lc}: invariance fails"
                    pairs += 1
        return pairs >= 20, f"{pairs} chain pairs agree exactly (seed {seed})"

    return _result(8, "generating-function invariance", run)


# -- criterion 9: commutativity ---------------------------------------------------


def criterion_commutativity(seed=DEFAULT_SEED):
    def run():
        rng = random.Random(seed)
        count = 0
        floor = -8
        for label in ("A2", "C2"):
            rs = build_root_system(label)
            tried = 0
            while tried < 6:
                signs = [rng.choice((-1, 1)) for _ in range(rs.rank)]
                mu = rs.weight([s * rng.randrange(0, 2) for s in signs])
                nu = rs.weight([s * rng.randrange(0, 3) for s in signs])
                if mu.is_zero() and nu.is_zero():
                    continue
                tried += 1
                cmu = segment_chain(rs, mu)
                cnu = segment_chain(rs, nu)
                x = _zero_x(rs, rng.choice(["e", "s1s2"]))
                lhs = compose(cmu, cnu, x)
                rhs = compose(cnu, cmu, x)
                cc = genfun_at(concat_chains(cmu, cnu), x)
                if not (lhs == rhs == cc):
                    return False, f"{label}: G composition differs for {mu}, {nu}"
                h12 = ghat_compose(cmu, cnu, x, floor)
                h21 = ghat_compose(cnu, cmu, x, floor)
                hc = ghat(concat_chains(cmu, cnu), x, floor)
                if not (genfun_equal(h12, h21, floor) and genfun_equal(h12, hc, floor)):
                    return False, f"{label}: Ghat composition differs for {mu}, {nu}"
                count += 1
        return count >= 10, f"{count} cancellation-free splits, Ghat floor {floor} (seed {seed})"

    return _result(9, "composition commutativity", run)


# -- criterion 10: vanishing at mu = 0 ---------------------------------------------


def criterion_vanishing(seed=DEFAULT_SEED):
    def run():
        checked = 0
        for label in ("A1", "A2", "C2"):
            rs = build_root_system(label)
            if rs.rank == 1:
                lams = ([-1], [-2])
            else:
                lams = ([-1, 0], [0, -1], [-1, -1], [-2, 0])
            for lc in lams:
                lam = rs.weight(lc)
                for w in rs.weyl_elements:
                    if not verify_vanishing(rs, lam, w):
                        return False, f"{label} {lc} {w}: nonzero sum"
                    checked += 1
        rs = build_root_system("A2")
        mixed = ([-1, 1], [1, -1], [-2, 1], [2, -1], [-1, 2])
        floor = -8
        for lc in mixed:
            lam = rs.weight(lc)
            chain = segment_chain(rs, lam)
            f = rhs_chevalley(rs, rs.weight([0, 0]), lam, chain, _zero_x(rs), floor)
            if any(e >= floor for p in specialize_trivial(f).values() for e in p):
                return False, f"mixed {lc}: specialization not zero above {floor}"
            checked += 1
        return True, f"{checked} vanishing cases, all exact"

    return _result(10, "mu=0 vanishing", run)


# -- criterion 11: dominant symmetry ------------------------------------------------


def criterion_symmetry(seed=DEFAULT_SEED):
    def run():
        for label in ("A2", "C2"):
            rs = build_root_system(label)
            for lc in ([1, 0], [0, 1], [1, 1]):
                chain = lex_chain(rs, rs.weight(lc))
                if not is_weyl_invariant(rs, weight_orbit_sum(chain)):
                    return False, f"{label} {lc}: not W-invariant"
        return True, "6 dominant specializations W-invariant"

    return _result(11, "dominant symmetry", run)


_CRITERIA = [
    criterion_golden,
    criterion_a2_example,
    criterion_c2_tables,
    criterion_shellability,
    criterion_yang_baxter,
    criterion_matrix_props,
    criterion_sijection,
    criterion_genfun_invariance,
    criterion_commutativity,
    criterion_vanishing,
    criterion_symmetry,
]


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Every criterion's result, in criterion order, run one after the other.

    The checks are pure Python, so a thread pool would only interleave them
    under the interpreter lock, which makes the suite no faster and each
    criterion's measured time longer.
    """
    return [fn(seed) for fn in _CRITERIA]
