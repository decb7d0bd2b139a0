import hashlib
import json
import random
import shutil

import pytest

import qalcove as qa
from qalcove import qbg, qbops
from qalcove.qbops import (
    MatrixPropReport,
    OperatorMatrix,
    QPoly,
    cell_str,
    operator_matrix,
    rank2_chain,
    same_operator,
    verify_matrix_props,
    yang_baxter_pairs,
)


# -- oracles -------------------------------------------------------------------
#
# The package checks golden files by bytes and the multiplicity laws on sparse
# {(v, w): {exponent: coefficient}} tables.  The parser and the per-cell QPoly
# version of the laws stay here, as the oracles those checks are held to.


def parse_qpoly(rank: int, text: str) -> QPoly:
    """Parse the canonical polynomial string form back into a QPoly."""
    s = text.strip().replace(" ", "")
    if s in ("0", ""):
        return QPoly.zero(rank)
    out = QPoly.zero(rank)
    i = 0
    while i < len(s):
        sign = 1
        if s[i] == "+":
            i += 1
        elif s[i] == "-":
            sign = -1
            i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        out = out + _parse_term(rank, s[i:j], sign)
        i = j
    return out


def _parse_term(rank: int, term: str, sign: int) -> QPoly:
    coeff = 1
    exps = [0] * rank
    for factor in term.split("*"):
        if factor.isdigit():
            coeff *= int(factor)
            continue
        if not factor.startswith("Q"):
            raise ValueError(f"bad factor {factor!r}")
        if "^" in factor:
            var, p = factor.split("^")
            power = int(p)
        else:
            var, power = factor, 1
        exps[int(var[1:]) - 1] += power
    return QPoly.monomial(rank, exps, sign * coeff)


def matrix_from_tsv(rs, text: str) -> OperatorMatrix:
    rows = []
    for line in text.strip().splitlines():
        rows.append(tuple(parse_qpoly(rs.rank, cell) for cell in line.split("\t")))
    n = len(rs.weyl_elements)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("golden matrix has the wrong shape")
    table = {(v, w): p.terms for v, row in enumerate(rows) for w, p in enumerate(row) if p.terms}
    return OperatorMatrix(rs, table)


def oracle_golden(rs) -> list:
    """check_golden by checksum, parse and QPoly comparison of every cell."""
    results = []
    for item in qbops.load_golden_manifest():
        if item["type"] != rs.type_label:
            continue
        blob = qbops._golden_root().joinpath(item["file"]).read_bytes()
        if hashlib.sha256(blob).hexdigest() != item["sha256"]:
            results.append((item["name"], False))
            continue
        golden = matrix_from_tsv(rs, blob.decode("utf-8"))
        seq = tuple(rs.root(c) for c in item["sequence"])
        results.append((item["name"], operator_matrix(rs, seq) == golden))
    return results


def oracle_matrix_props(rs, k: int, reverse: bool = False) -> MatrixPropReport:
    """verify_matrix_props on dense QPoly matrices, cell by cell."""
    chain = rank2_chain(rs, reverse)
    g2 = rs.type_label == "G2"
    allowed = {1, 2, 3} if g2 else {1, 2}
    s = operator_matrix(rs, qbops._sk_sequence(chain, k))
    tp = operator_matrix(rs, qbops._tk_sequence(chain, k, plus=True))
    tm = operator_matrix(rs, qbops._tk_sequence(chain, k, plus=False))
    sp = operator_matrix(rs, qbops._sprime_sequence(chain, k))
    violations = []
    m3 = []
    n3 = []
    basis = rs.weyl_elements
    for v in basis:
        for w in basis:
            entry = s.entry(v, w)
            signed_p = tp.entry(v, w)
            signed_m = tm.entry(v, w)
            swept = sp.entry(v, w)
            where = (v.word_str, w.word_str)
            for exp, m in entry.terms.items():
                if m not in allowed:
                    violations.append((where, "multiplicity", exp, m))
                    continue
                np_, nm = signed_p.terms.get(exp, 0), signed_m.terms.get(exp, 0)
                ns = swept.terms.get(exp, 0)
                if m == 2:
                    if np_ != 0 or nm != 0:
                        violations.append((where, "signed-not-zero", exp, (np_, nm)))
                    if (ns not in (0, 2)) if g2 else (ns != 0):
                        violations.append((where, "sweep", exp, ns))
                elif m == 1:
                    if np_ not in (1, -1) or nm not in (1, -1):
                        violations.append((where, "signed-unit", exp, (np_, nm)))
                    if (ns not in (1, 3)) if g2 else (ns != 1):
                        violations.append((where, "sweep", exp, ns))
                    if ns == 3:
                        n3.append(where)
                else:  # m == 3, G2 only
                    m3.append(where)
                    if np_ not in (1, -1) or nm not in (1, -1):
                        violations.append((where, "signed-unit", exp, (np_, nm)))
                    if ns != 1:
                        violations.append((where, "sweep", exp, ns))
            for exp, c in signed_p.terms.items():
                if exp not in entry.terms and c != 0:
                    violations.append((where, "signed-outside", exp, c))
            for exp, c in signed_m.terms.items():
                if exp not in entry.terms and c != 0:
                    violations.append((where, "signed-outside", exp, c))
    return MatrixPropReport(rs.type_label, k, reverse, violations, m3, n3)


PROP_TYPES = ("A1xA1", "A2", "C2", "G2")


def test_qpoly_arithmetic_and_canonical_form():
    p = QPoly.monomial(2, (1, 1)) + QPoly.monomial(2, (1, 0), -1)
    assert str(p) == "Q1*Q2-Q1"
    q = QPoly.monomial(2, (0, 1), 2) + QPoly.const(2, 1)
    assert str(q) == "2*Q2+1"
    assert str(QPoly.zero(2)) == "0"
    assert str(QPoly.monomial(2, (2, 3)) - QPoly.monomial(2, (2, 2))) == "Q1^2*Q2^3-Q1^2*Q2^2"
    prod = QPoly.monomial(2, (1, 0)) * QPoly.monomial(2, (0, 2), 3)
    assert str(prod) == "3*Q1*Q2^2"
    # cancellation drops to zero
    assert (p - p).is_zero()


def test_parse_round_trip():
    for text in ("0", "1", "-1", "Q1*Q2-Q1", "-Q1*Q2+Q1", "2*Q1*Q2+Q2", "Q1^2*Q2^3-Q1^2*Q2^2"):
        assert str(parse_qpoly(2, text)) == text


def test_cell_str_round_trip():
    # the one renderer draws a term table as the text QPoly prints and the
    # oracle parser reads back
    rng = random.Random(11)
    for _ in range(300):
        rank = rng.randint(1, 3)
        terms = {
            tuple(rng.randint(0, 3) for _ in range(rank)): rng.choice((-3, -2, -1, 1, 2, 5))
            for _ in range(rng.randint(0, 4))
        }
        text = cell_str(terms)
        assert str(QPoly(rank, terms)) == text
        assert parse_qpoly(rank, text).terms == terms


def test_apply_q_examples():
    a2 = qa.build_root_system("A2")
    e, w0 = a2.identity, a2.longest_element
    theta = a2.highest_root
    s1 = a2.element_from_word("s1")
    out = qa.apply_Q(a2, a2.simple_root(0), e)
    assert out.terms == {s1: QPoly.const(2, 1)}
    out = qa.apply_Q(a2, theta, w0)
    assert out.terms == {e: QPoly.monomial(2, (1, 1))}
    assert qa.apply_Q(a2, theta, e).terms == {}
    # negated root flips the sign
    out = qa.apply_Q(a2, -a2.simple_root(0), e)
    assert out.terms == {s1: QPoly.const(2, -1)}
    # on a sum with polynomial coefficients: w0 -> w0 s1 = s1s2 is quantum
    c = QPoly.monomial(2, (1, 0)) + QPoly.const(2, 2)
    elt = qa.GroupAlgebraElt(a2, {e: c, w0: QPoly.const(2, -1)})
    assert qa.apply_Q(a2, theta, elt).terms == {e: QPoly.monomial(2, (1, 1), -1)}
    out = qa.apply_Q(a2, a2.simple_root(0), elt)
    s1s2 = a2.element_from_word("s1s2")
    assert out.terms == {s1: c, s1s2: QPoly.monomial(2, (1, 0), -1)}


def path_sum(rs, seq, v, signed=True):
    """{w: sum over compatible paths v -> w of (+-1) Q^wt}, zero sums dropped."""
    out = {}
    for p in qa.pi_compatible_paths(rs, v, seq):
        sign = (-1) ** p.nega if signed else 1
        term = QPoly.monomial(rs.rank, p.wt(rs).coeffs, sign)
        out[p.end] = out.get(p.end, QPoly.zero(rs.rank)) + term
    return {w: c for w, c in out.items() if not c.is_zero()}


def test_operator_product_lemma_oracle():
    # both halves of the product law against the path-sum oracle, for single
    # columns (apply_R_sequence) and for whole matrices (operator_matrix)
    rng = random.Random(3)
    for label in ("A2", "C2", "G2", "A3", "B3"):
        rs = qa.build_root_system(label)
        for _ in range(6):
            k = rng.randint(1, min(len(rs.all_roots) // 2, 7))
            seq = tuple(rng.sample(rs.all_roots, k))
            unsigned = tuple(abs(g) for g in seq)
            for v in rng.sample(rs.weyl_elements, 3):
                assert qa.apply_R_sequence(rs, seq, v).terms == path_sum(rs, seq, v)
                got_abs = qa.apply_R_sequence(rs, unsigned, v)
                assert got_abs.terms == path_sum(rs, seq, v, signed=False)
            for s, signed in ((seq, True), (unsigned, False)):
                mat = operator_matrix(rs, s)
                for v in rs.weyl_elements:
                    want = path_sum(rs, seq, v, signed)
                    for w in rs.weyl_elements:
                        assert mat.entry(w, v) == want.get(w, QPoly.zero(rs.rank))


def test_empty_sequence_is_identity():
    rs = qa.build_root_system("C2")
    mat = operator_matrix(rs, ())
    for i in range(len(rs.weyl_elements)):
        for j in range(len(rs.weyl_elements)):
            want = QPoly.const(2, 1) if i == j else QPoly.zero(2)
            assert mat.entries[i][j] == want


def test_paper_matrix_entries():
    c2 = qa.build_root_system("C2")
    seq = (-c2.root([2, 1]), -c2.root([1, 0]), c2.root([0, 1]), c2.root([1, 1]))
    mat = operator_matrix(c2, seq)
    e = c2.identity
    s1 = c2.element_from_word("s1")
    assert str(mat.entry(e, s1)) == "Q1*Q2-Q1"
    g2 = qa.build_root_system("G2")
    seq9 = tuple(
        g2.root(c) for c in ((3, 2), (2, 1), (3, 1), (1, 0), (0, 1), (1, 1))
    )
    mat9 = operator_matrix(g2, seq9)
    v = g2.element_from_word("s1s2")
    w = g2.element_from_word("s1s2s1")
    assert str(mat9.entry(v, w)) == "3*Q1*Q2+Q1"


def test_yang_baxter_equation():
    a2 = qa.build_root_system("A2")
    assert qa.check_yang_baxter(a2, a2.simple_root(0), a2.simple_root(1))
    c2 = qa.build_root_system("C2")
    assert qa.check_yang_baxter(c2, -c2.simple_root(0), -c2.simple_root(1))
    g2 = qa.build_root_system("G2")
    assert qa.check_yang_baxter(g2, g2.simple_root(0), g2.simple_root(1))
    with pytest.raises(Exception):
        qa.check_yang_baxter(a2, a2.simple_root(0), -a2.simple_root(0))


def test_same_operator_tells_products_apart():
    # R_a1 R_a2 != R_a2 R_a1 in A2: the comparison check_yang_baxter makes
    # must see it, as the matrices do
    a2 = qa.build_root_system("A2")
    a1, a2_ = a2.simple_root(0), a2.simple_root(1)
    assert operator_matrix(a2, (a1, a2_)) != operator_matrix(a2, (a2_, a1))
    assert not same_operator(a2, (a1, a2_), (a2_, a1))
    assert not same_operator(a2, (a1,), (-a1,))
    assert same_operator(a2, (a1, a2_), (a1, a2_))
    seg = a2.rank2_subsystem(a1, a2_).segment
    assert not same_operator(a2, seg, seg[1:])


@pytest.mark.parametrize("label, pairs", [("A3", 72), ("B3", 192), ("C3", 192)])
def test_yang_baxter_rank3(label, pairs):
    rs = qa.build_root_system(label)
    todo = list(yang_baxter_pairs(rs))
    assert len(todo) == pairs
    for alpha, beta in todo:
        assert qa.check_yang_baxter(rs, alpha, beta), (alpha, beta)


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3", "B3", "C3"])
def test_yang_baxter_pair_reversal(label):
    # (beta, alpha) is a pair with (alpha, beta), and its segment is the
    # reversed one, so both orders compare the same two products
    rs = qa.build_root_system(label)
    pairs = set(yang_baxter_pairs(rs))
    for alpha, beta in pairs:
        assert (beta, alpha) in pairs
        seg = rs.rank2_subsystem(alpha, beta).segment
        assert rs.rank2_subsystem(beta, alpha).segment == tuple(reversed(seg))


def test_yang_baxter_checks_once_per_unordered_pair(monkeypatch):
    rs = qa.build_root_system("G2")
    pairs = list(yang_baxter_pairs(rs))
    bad = frozenset(pairs[5])
    calls = []
    memos = []

    def check(rs_, alpha, beta, cosets):
        calls.append(frozenset((alpha, beta)))
        memos.append(cosets)
        return frozenset((alpha, beta)) != bad

    monkeypatch.setattr(qbops, "check_yang_baxter", check)
    got = list(qbops.yang_baxter_checks(rs))
    assert [(a, b) for a, b, _ in got] == pairs
    assert [ok for a, b, ok in got] == [frozenset((a, b)) != bad for a, b in pairs]
    assert len(calls) == len(set(calls)) == len(pairs) // 2
    # one memo of coset starts, shared by the checks of this call only
    assert all(m is memos[0] for m in memos)
    list(qbops.yang_baxter_checks(rs))
    assert memos[-1] is not memos[0]
    monkeypatch.undo()
    assert all(ok for _, _, ok in qbops.yang_baxter_checks(rs))


D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
F4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
C4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))


def _segment_positives(rs, seg) -> tuple:
    return tuple(sorted(qbg._root_step(rs, gamma)[1] for gamma in seg))


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3", "B3", "C3", "D4"])
def test_blocked_yang_baxter_against_full_sweep(label):
    # the full sweep over every start column is the oracle of the blocked
    # check, on every pair; yang_baxter_checks gives the same verdicts
    rs = qa.root_system_from_cartan(D4, label) if label == "D4" else qa.build_root_system(label)
    verdicts = {}
    cosets: dict = {}
    n = len(rs.weyl_elements)
    for alpha, beta in yang_baxter_pairs(rs):
        seg = rs.rank2_subsystem(alpha, beta).segment
        full = same_operator(rs, seg, tuple(reversed(seg)))
        assert qa.check_yang_baxter(rs, alpha, beta) == full, (alpha, beta)
        assert qa.check_yang_baxter(rs, alpha, beta, cosets) == full, (alpha, beta)
        verdicts[alpha, beta] = full
    assert [ok for a, b, ok in qbops.yang_baxter_checks(rs)] == list(verdicts.values())
    # every memo entry is a union of whole cosets of W', one per signature
    _, _, right = qbg._columns(rs)
    for ps, starts in cosets.items():
        assert starts == sorted(set(starts)) and 0 < len(starts) <= n
        assert all(right[p][x] in starts for x in starts for p in ps)
    if rs.rank > 2:
        assert sum(map(len, cosets.values())) < n * len(cosets)


@pytest.mark.parametrize("label, cartan, pairs", [("C4", C4, 672), ("F4", F4, 1536)], ids=["C4", "F4"])
def test_yang_baxter_holds_in_rank_4(label, cartan, pairs):
    # the sweeps hold only their occupied vertices, here the coset columns of
    # each pair: on the rank-4 types from their Cartan matrices, every pair's
    # two products agree
    rs = qa.root_system_from_cartan(cartan, label)
    got = list(qbops.yang_baxter_checks(rs))
    assert len(got) == pairs and all(ok for *_, ok in got)


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_coset_starts_decide_unequal_products(label):
    # products of R_gamma over one rank-2 subsystem, most of them unequal:
    # compared from the coset starts, they are equal exactly when the full
    # sweep says so
    rs = qa.build_root_system(label)
    rng = random.Random(label)
    seen = set()
    outcomes = set()
    for alpha, beta in yang_baxter_pairs(rs):
        seg = rs.rank2_subsystem(alpha, beta).segment
        ps = _segment_positives(rs, seg)
        if ps in seen:
            continue
        seen.add(ps)
        starts = qbops._coset_starts(rs, ps)
        signed = list(seg) + [-gamma for gamma in seg]
        for _ in range(4):
            seq1 = tuple(rng.choice(signed) for _ in range(rng.randint(1, 5)))
            seq2 = tuple(rng.sample(seq1, len(seq1))) if rng.random() < 0.5 else tuple(
                rng.choice(signed) for _ in range(rng.randint(1, 5))
            )
            full = same_operator(rs, seq1, seq2)
            assert same_operator(rs, seq1, seq2, starts) == full, (seq1, seq2)
            outcomes.add(full)
    assert outcomes == {True, False}


@pytest.mark.parametrize("label", ["A3", "B3", "C3"])
def test_blocked_yang_baxter_sees_flipped_quantum_flag(label):
    # one quantum flag flipped in one coset outside the representatives: the
    # coset's signature changes, so the blocked check sweeps it and must
    # agree with the full sweep, which the flip breaks on most pairs
    rs = qa.root_system_from_cartan(qa.build_root_system(label).cartan, label)
    tables = qbg._columns(rs)
    column, quantum, right = tables
    tried = broken = 0
    done = set()
    for alpha, beta in yang_baxter_pairs(rs):
        if frozenset((alpha, beta)) in done:
            continue
        done.add(frozenset((alpha, beta)))
        seg = rs.rank2_subsystem(alpha, beta).segment
        ps = _segment_positives(rs, seg)
        starts = qbops._coset_starts(rs, ps)
        x = next(x for x in range(len(rs.weyl_elements)) if x not in starts)
        for p in ps:
            if column[p][x] < 0:
                continue
            flipped = [list(row) for row in quantum]
            flipped[p][x] = not flipped[p][x]
            # a fresh shifts cache: the packed coroot shifts read the flags
            rs._columns, rs._shifts = (column, tuple(map(tuple, flipped)), right), {}
            try:
                full = same_operator(rs, seg, tuple(reversed(seg)))
                assert qa.check_yang_baxter(rs, alpha, beta) == full, (alpha, beta, x, p)
            finally:
                rs._columns, rs._shifts = tables, {}
            tried += 1
            broken += not full
    assert tried and broken > tried // 2


def _root_pair_filter(rs) -> list:
    """yang_baxter_pairs by Root objects and root_pair, as it was first written."""
    return [
        (alpha, beta)
        for alpha in rs.all_roots
        for beta in rs.all_roots
        if alpha not in (beta, -beta) and rs.root_pair(alpha, rs.coroot(beta)) <= 0
    ]


def test_yang_baxter_pairs_integer_filter():
    types = [qa.build_root_system(label) for label in ("A1", "A1xA1", "A2", "C2", "G2", "A3", "B3", "C3")]
    types += [qa.root_system_from_cartan(D4, "D4"), qa.root_system_from_cartan(F4, "F4")]
    for rs in types:
        assert list(yang_baxter_pairs(rs)) == _root_pair_filter(rs), rs.type_label


@pytest.mark.parametrize("label", PROP_TYPES)
def test_reverse_chain_swaps_s_and_s_prime(label):
    # rank2_chain(rs, True) is the forward chain reversed, so S_k(rev) is
    # S'_{q-k}(fwd) and S'_k(rev) is S_{q-k}(fwd), as sequences and as tables
    rs = qa.build_root_system(label)
    fwd, rev = rank2_chain(rs), rank2_chain(rs, True)
    q = len(fwd)
    assert rev == tuple(reversed(fwd))
    for k in range(q + 1):
        s_rev, sp_rev = qbops._sk_sequence(rev, k), qbops._sprime_sequence(rev, k)
        assert s_rev == qbops._sprime_sequence(fwd, q - k)
        assert sp_rev == qbops._sk_sequence(fwd, q - k)
        assert qbops._table(rs, s_rev) == qbops._table(rs, qbops._sprime_sequence(fwd, q - k))
        assert qbops._table(rs, sp_rev) == qbops._table(rs, qbops._sk_sequence(fwd, q - k))


def _distinct_sequences(rs) -> set:
    """The sequences a run of the multiplicity laws over both chains and
    every k reads, each once."""
    q = len(rs.positive_roots)
    out = set()
    for reverse in (False, True):
        chain = rank2_chain(rs, reverse)
        for k in range(q + 1):
            out.update((
                qbops._sk_sequence(chain, k),
                qbops._tk_sequence(chain, k, plus=True),
                qbops._tk_sequence(chain, k, plus=False),
                qbops._sprime_sequence(chain, k),
            ))
    return out


def test_multiplicity_runs_build_each_table_once(monkeypatch, capsys):
    # criterion 6 and ops verify-props share one table memo per root system:
    # a table per distinct sequence, at most 6(q+1) per type (S_k of one
    # chain is S'_{q-k} of the other; S_0 = S_q = T_0^+ = T_q^- besides)
    # instead of 8(q+1), and the same reports
    from qalcove import cli, suite

    sizes = {}
    for label in PROP_TYPES:
        rs = qa.build_root_system(label)
        sizes[label] = len(_distinct_sequences(rs))
        assert sizes[label] <= 6 * (len(rs.positive_roots) + 1)
    assert sizes == {"A1xA1": 8, "A2": 16, "C2": 22, "G2": 34}

    real = qbops._table
    built = []

    def counted(rs_, seq):
        built.append((rs_.type_label, seq))
        return real(rs_, seq)

    monkeypatch.setattr(qbops, "_table", counted)
    assert cli.main(["ops", "verify-props", "--type", "G2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and all(": ok" in line for line in lines)
    assert len(built) == len(set(built)) == sizes["G2"]
    built.clear()
    assert suite.criterion_matrix_props().passed
    assert len(built) == len(set(built)) == sum(sizes.values())
    g2 = qa.build_root_system("G2")
    tables: dict = {}
    for reverse in (False, True):
        for k in range(7):
            assert verify_matrix_props(g2, k, reverse, tables) == verify_matrix_props(g2, k, reverse)


def test_sweep_endpoints_match_shellability():
    # k = 0: every entry is the single monomial Q^{wt(v => w)}
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        chain = rank2_chain(rs)
        seq = tuple(reversed(chain))
        mat = operator_matrix(rs, seq)
        for v in rs.weyl_elements:
            for w in rs.weyl_elements:
                # columns index the start: the (w, v)-entry is Q^{wt(v => w)}
                _, wt = qa.shortest_stats(rs, v, w)
                assert mat.entry(w, v) == QPoly.monomial(rs.rank, wt.coeffs)
        # signed variant carries (-1)^{l(v => w)}
        signed = operator_matrix(rs, tuple(-b for b in seq))
        for v in rs.weyl_elements:
            for w in rs.weyl_elements:
                l, wt = qa.shortest_stats(rs, v, w)
                assert signed.entry(w, v) == QPoly.monomial(
                    rs.rank, wt.coeffs, (-1) ** l
                )


def test_matrix_props_instances():
    c2 = qa.build_root_system("C2")
    rep0 = verify_matrix_props(c2, 0)
    assert rep0.passed and not rep0.coeff3_positions
    rep2 = verify_matrix_props(c2, 2)
    assert rep2.passed
    # the k = 2 sweep really contains a multiplicity-2 entry
    chain = rank2_chain(c2)
    from qalcove.qbops import _sk_sequence

    mat = operator_matrix(c2, _sk_sequence(chain, 2))
    assert any(
        2 in entry.terms.values() for row in mat.entries for entry in row
    )
    g2 = qa.build_root_system("G2")
    rep = verify_matrix_props(g2, 4)
    assert rep.passed
    assert rep.m3_positions == [("s1s2", "s1s2s1")]
    assert rep.n3_positions == [("s2s1s2", "s2s1s2s1")]


@pytest.mark.parametrize("label", PROP_TYPES)
def test_matrix_props_match_oracle(label):
    rs = qa.build_root_system(label)
    for reverse in (False, True):
        for k in range(len(rs.positive_roots) + 1):
            assert verify_matrix_props(rs, k, reverse) == oracle_matrix_props(rs, k, reverse)


def _inject(table, rng, n, rank):
    """table with one coefficient set to another value, still sparse and in
    (row, column) order."""
    out = {cell: dict(terms) for cell, terms in table.items()}
    cell = rng.choice(list(out)) if out and rng.random() < 0.8 else (rng.randrange(n), rng.randrange(n))
    terms = out.setdefault(cell, {})
    if terms and rng.random() < 0.8:
        exp = rng.choice(list(terms))
    else:
        exp = tuple(rng.randrange(3) for _ in range(rank))
    c = rng.choice([x for x in (-2, -1, 0, 1, 2, 3, 4) if x != terms.get(exp, 0)])
    if c:
        terms[exp] = c
    else:
        terms.pop(exp, None)
    if not terms:
        del out[cell]
    return dict(sorted(out.items()))


def test_matrix_props_match_oracle_on_wrong_tables(monkeypatch):
    # one to three coefficients of the four tables set wrong: the sparse
    # check and the per-cell oracle see the same tables and must report the
    # same violations in the same order, and every violation kind must occur
    real = qbops._table
    kinds = set()
    for label in PROP_TYPES:
        rs = qa.build_root_system(label)
        n = len(rs.weyl_elements)
        rng = random.Random(label)
        for _ in range(60):
            k = rng.randint(0, len(rs.positive_roots))
            reverse = rng.random() < 0.5
            chain = rank2_chain(rs, reverse)
            seqs = (
                qbops._sk_sequence(chain, k),
                qbops._tk_sequence(chain, k, plus=True),
                qbops._tk_sequence(chain, k, plus=False),
                qbops._sprime_sequence(chain, k),
            )
            wrong = [rng.choice(seqs) for _ in range(rng.randint(1, 3))]
            tables: dict = {}

            def table(rs_, seq):
                if seq not in tables:
                    tables[seq] = real(rs_, seq)
                    for _ in range(wrong.count(seq)):
                        tables[seq] = _inject(tables[seq], rng, n, rs.rank)
                return tables[seq]

            monkeypatch.setattr(qbops, "_table", table)
            got = verify_matrix_props(rs, k, reverse)
            assert got == oracle_matrix_props(rs, k, reverse), (label, k, reverse)
            kinds.update(kind for _, kind, _, _ in got.violations)
    assert kinds == {"multiplicity", "signed-not-zero", "signed-unit", "sweep", "signed-outside"}


def test_checks_build_no_qpoly(monkeypatch):
    # the multiplicity laws and the golden check read the sparse tables only
    def no_qpoly(*args, **kwargs):
        raise AssertionError("a QPoly was built")

    monkeypatch.setattr(qbops, "QPoly", no_qpoly)
    g2 = qa.build_root_system("G2")
    assert verify_matrix_props(g2, 4).m3_positions == [("s1s2", "s1s2s1")]
    assert all(ok for _, ok in qa.check_golden(g2))


def test_golden_files():
    for label in ("C2", "G2"):
        rs = qa.build_root_system(label)
        results = qa.check_golden(rs)
        assert results and all(ok for _, ok in results)
        assert results == oracle_golden(rs)


def test_golden_files_are_canonical():
    # every shipped file is its own parse rendered again, so comparing bytes
    # gives the verdict that parsing and comparing polynomials gives
    root = qbops._golden_root()
    items = qbops.load_golden_manifest()
    assert len(items) == 16
    for item in items:
        rs = qa.build_root_system(item["type"])
        blob = root.joinpath(item["file"]).read_bytes()
        assert (matrix_from_tsv(rs, blob.decode("utf-8")).to_tsv() + "\n").encode("utf-8") == blob


@pytest.fixture
def golden_copy(tmp_path, monkeypatch):
    """The golden directory copied to tmp_path, which check_golden then reads."""
    for item in qbops._golden_root().iterdir():
        shutil.copyfile(item, tmp_path / item.name)
    monkeypatch.setattr(qbops, "_golden_root", lambda: tmp_path)
    return tmp_path


def _change_cell(path):
    """Add Q1 to the first cell of a rank-2 file's second row, in canonical form."""
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[1].split("\t")
    cells[0] = str(parse_qpoly(2, cells[0]) + QPoly.monomial(2, (1, 0)))
    lines[1] = "\t".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def test_golden_changed_cell_fails(golden_copy):
    g2 = qa.build_root_system("G2")
    manifest = json.loads((golden_copy / "manifest.json").read_text(encoding="utf-8"))
    item = next(i for i in manifest if i["name"] == "g2_r03")
    _change_cell(golden_copy / item["file"])
    item["sha256"] = hashlib.sha256((golden_copy / item["file"]).read_bytes()).hexdigest()
    (golden_copy / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    results = qa.check_golden(g2)
    assert [name for name, ok in results if not ok] == ["g2_r03"]
    assert results == oracle_golden(g2)


def test_golden_checksum_mismatch_fails(golden_copy):
    c2 = qa.build_root_system("C2")
    path = golden_copy / "c2_r2.tsv"
    blob = path.read_bytes()
    assert all(ok for _, ok in qa.check_golden(c2))  # the copy itself passes
    path.write_bytes(blob + b"\n")  # the matrix parses as before, the checksum differs
    results = qa.check_golden(c2)
    assert [name for name, ok in results if not ok] == ["c2_r2"]
    assert results == oracle_golden(c2)


def test_tsv_round_trip():
    c2 = qa.build_root_system("C2")
    seq = (c2.root([1, 0]), c2.root([0, 1]))
    mat = operator_matrix(c2, seq)
    again = matrix_from_tsv(c2, mat.to_tsv())
    assert again == mat
