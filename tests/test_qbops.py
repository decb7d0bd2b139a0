import random

import pytest

import qalcove as qa
from qalcove import qbops
from qalcove.qbops import (
    QPoly,
    operator_matrix,
    parse_qpoly,
    rank2_chain,
    same_operator,
    verify_matrix_props,
    yang_baxter_pairs,
)


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

    def check(rs_, alpha, beta):
        calls.append(frozenset((alpha, beta)))
        return frozenset((alpha, beta)) != bad

    monkeypatch.setattr(qbops, "check_yang_baxter", check)
    got = list(qbops.yang_baxter_checks(rs))
    assert [(a, b) for a, b, _ in got] == pairs
    assert [ok for a, b, ok in got] == [frozenset((a, b)) != bad for a, b in pairs]
    assert len(calls) == len(set(calls)) == len(pairs) // 2
    monkeypatch.undo()
    assert all(ok for _, _, ok in qbops.yang_baxter_checks(rs))


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


def test_golden_files():
    for label in ("C2", "G2"):
        rs = qa.build_root_system(label)
        results = qa.check_golden(rs)
        assert results and all(ok for _, ok in results)


def test_tsv_round_trip():
    c2 = qa.build_root_system("C2")
    seq = (c2.root([1, 0]), c2.root([0, 1]))
    mat = operator_matrix(c2, seq)
    from qalcove.qbops import OperatorMatrix

    again = OperatorMatrix.from_tsv(c2, mat.to_tsv())
    assert again == mat
