import pytest

import qalcove as qa
from qalcove.charident import (
    FormalChar,
    rhs_chevalley,
    specialize_trivial,
    vanishes,
    verify_factorization,
    verify_vanishing,
)
from qalcove.alcove import admissible_support, sweep_seeded
from qalcove.genfun import AffineWeylElt
from qalcove.rootsys import Coroot
from polys import add


def x_at(rs, word="e", xi=None):
    return AffineWeylElt(
        rs.element_from_word(word), Coroot(tuple(xi or (0,) * rs.rank))
    )


def test_lambda_zero_single_symbol():
    rs = qa.build_root_system("A2")
    mu = rs.weight([1, 1])
    chain = qa.compute_levels(rs, (), rs.weight([0, 0]))
    x = x_at(rs, "s1s2", [1, 0])
    f = rhs_chevalley(rs, mu, rs.weight([0, 0]), chain, x, -10)
    assert len(f.terms) == 1
    key = (rs.weight([0, 0]), rs.element_from_word("s1s2"))
    # gch[w t_xi] = q^{-<mu, xi>} gch[w]; here <mu, xi> = 1
    assert f.terms[key] == {-1: 1}


def test_translation_normalization_idempotent():
    rs = qa.build_root_system("A2")
    mu = rs.weight([2, 0])
    f = FormalChar(rs, mu)
    x = x_at(rs, "s1", [1, 1])
    f.add_symbol(rs.weight([0, 0]), x, {0: 1})
    key = (rs.weight([0, 0]), rs.element_from_word("s1"))
    assert f.terms[key] == {-2: 1}
    # adding the already-normalized symbol shifts nothing further
    g = FormalChar(rs, mu)
    g.add_symbol(
        rs.weight([0, 0]), x_at(rs, "s1"), f.terms[key]
    )
    assert g.terms[key] == f.terms[key]


def test_specialize_trivial():
    rs = qa.build_root_system("A2")
    f = FormalChar(rs, rs.weight([0, 0]))
    f.add_symbol(rs.weight([0, 0]), x_at(rs, "s1"), {0: 1})
    spec = specialize_trivial(f)
    assert spec[rs.weight([0, 0])] == {0: 1}
    g = FormalChar(rs, rs.weight([0, 0]))
    g.add_symbol(rs.weight([1, 0]), x_at(rs, "s1"), {-2: 1})
    spec = specialize_trivial(g)
    assert spec[rs.weight([1, 0])] == {-2: 1}
    # symbols of one weight add up across w, and a zero count or sum is dropped
    h = FormalChar(rs, rs.weight([0, 0]))
    h.add_symbol(rs.weight([1, 0]), x_at(rs, "s1"), {0: 1, -1: 2})
    h.add_symbol(rs.weight([1, 0]), x_at(rs, "s2"), {0: -1, -3: 1})
    h.add_symbol(rs.weight([0, 1]), x_at(rs, "s1"), {-1: 1})
    h.add_symbol(rs.weight([0, 1]), x_at(rs, "s2s1"), {-1: -1})
    assert specialize_trivial(h) == {rs.weight([1, 0]): {-1: 2, -3: 1}}
    bad = FormalChar(rs, rs.weight([1, 0]))
    with pytest.raises(ValueError):
        specialize_trivial(bad)


def test_vanishing_small_cases():
    a1 = qa.build_root_system("A1")
    for w in a1.weyl_elements:
        assert verify_vanishing(a1, a1.weight([-1]), w)
    a2 = qa.build_root_system("A2")
    for w in a2.weyl_elements:
        assert verify_vanishing(a2, a2.weight([-1, 0]), w)
    c2 = qa.build_root_system("C2")
    for w in c2.weyl_elements:
        assert verify_vanishing(c2, c2.weight([0, -1]), w)
    with pytest.raises(ValueError):
        verify_vanishing(a2, a2.weight([1, 0]), a2.identity)
    with pytest.raises(ValueError):
        verify_vanishing(a2, a2.weight([0, 0]), a2.identity)
    # criterion 10's weights and G2 (-2,-1), every w: vanishes agrees with
    # the sum refolded by (wt, exponent) from sweep_seeded's term table
    cases = [("A1", [-1]), ("A1", [-2]), ("G2", [-2, -1])]
    cases += [(label, lc) for label in ("A2", "C2") for lc in ([-1, 0], [0, -1], [-1, -1], [-2, 0])]
    for label, lc in cases:
        rs = qa.build_root_system(label)
        chain = qa.lex_chain(rs, rs.weight(lc))
        zero = (0,) * rs.rank
        for w in rs.weyl_elements:
            acc = {}
            for (wt, _ed), block in sweep_seeded(chain, {(zero, w.index): {(zero,): {0: 1}}}).items():
                for poly in block.values():
                    for e, count in poly.items():
                        acc[wt, e] = acc.get((wt, e), 0) + count
            assert vanishes(chain, w, admissible_support(chain, w)[0]) is (not any(acc.values()))


def test_vanishing_rejects_positive_entries():
    # an inserted (beta, -beta) pair gives subsets a positive entry to take
    rs = qa.build_root_system("A2")
    lam = rs.weight([-1, 0])
    chain = qa.insert_pair(qa.lex_chain(rs, lam), 1, rs.highest_root)
    for w in rs.weyl_elements:
        positive = any(
            len(a.indices) != a.n for a in qa.enumerate_admissible(chain, w)
        )
        if positive:
            with pytest.raises(RuntimeError):
                verify_vanishing(rs, lam, w, chain)
        else:
            assert verify_vanishing(rs, lam, w, chain)


def test_vanishing_skips_support_sweep_without_positive_roots(monkeypatch):
    # an antidominant lex chain holds no positive root, so no taken position
    # can be positive and verify_vanishing sweeps no support; the inserted
    # (beta, -beta) chain holds one, and its support is swept for every w
    from qalcove import charident

    calls = []

    def counted(chain, w):
        calls.append(w.index)
        return admissible_support(chain, w)

    monkeypatch.setattr(charident, "admissible_support", counted)
    for label, lam in (("A2", (-1, 0)), ("C2", (-1, -1)), ("G2", (-2, -1)), ("B3", (0, -1, 0))):
        rs = qa.build_root_system(label)
        chain = qa.lex_chain(rs, rs.weight(lam))
        assert not any(beta.is_positive for beta in chain.roots)
        assert all(verify_vanishing(rs, rs.weight(lam), w) for w in rs.weyl_elements)
        assert all(verify_vanishing(rs, rs.weight(lam), w, chain) for w in rs.weyl_elements)
    assert calls == []
    rs = qa.build_root_system("A2")
    lam = rs.weight([-1, 0])
    chain = qa.insert_pair(qa.lex_chain(rs, lam), 1, rs.highest_root)
    for w in rs.weyl_elements:
        try:
            verify_vanishing(rs, lam, w, chain)
        except RuntimeError:
            pass
    assert calls == list(range(len(rs.weyl_elements)))


def test_vanishing_oracle_two_terms():
    # A1, lambda = -varpi: the two admissible subsets cancel exactly
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([-1]))
    for w in rs.weyl_elements:
        subsets = qa.enumerate_admissible(chain, w)
        assert len(subsets) == 2
        (a, b) = subsets
        assert a.wt == b.wt and a.height == b.height
        assert (-1) ** a.n == -((-1) ** b.n)


def test_rhs_chain_independence():
    rs = qa.build_root_system("A2")
    mu = rs.weight([1, 0])
    lam = rs.weight([-1, 1])
    plus, minus = qa.lambda_pm(lam)
    c1 = qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))
    c2 = qa.concat_chains(qa.lex_chain(rs, minus), qa.lex_chain(rs, plus))
    c3 = qa.segment_chain(rs, lam)
    x = x_at(rs, "s2", [0, 1])
    fs = [rhs_chevalley(rs, mu, lam, c, x, -7) for c in (c1, c2, c3)]
    assert fs[0] == fs[1] == fs[2]


def test_factorization_trivial_sides():
    rs = qa.build_root_system("A2")
    x = x_at(rs)
    assert verify_factorization(rs, rs.weight([1, 1]), rs.weight([1, 0]), x, -6)
    assert verify_factorization(rs, rs.weight([1, 1]), rs.weight([-1, 0]), x, -6)


def test_factorization_mixed():
    rs = qa.build_root_system("A2")
    x = x_at(rs)
    assert verify_factorization(rs, rs.weight([2, 0]), rs.weight([-2, 1]), x, -6)
    c2 = qa.build_root_system("C2")
    assert verify_factorization(
        c2, c2.weight([1, 1]), c2.weight([1, -1]), x_at(c2, "s1"), -6
    )


def test_mixed_sign_specialization_vanishes():
    rs = qa.build_root_system("A2")
    for coeffs in ([-1, 1], [1, -1], [-2, 1]):
        lam = rs.weight(coeffs)
        chain = qa.segment_chain(rs, lam)
        f = rhs_chevalley(rs, rs.weight([0, 0]), lam, chain, x_at(rs), -8)
        spec = specialize_trivial(f)
        spec = {k: v.truncated(-8) for k, v in spec.items()}
        assert all(v.is_zero() for v in spec.values())


def test_dominant_expansion_oracle():
    # mu = 0, dominant lambda, x = e: the specialization equals the direct
    # double sum over subsets and partition tuples, computed independently
    from qalcove.genfun import par_enumerate

    rs = qa.build_root_system("A2")
    lam = rs.weight([1, 1])
    chain = qa.lex_chain(rs, lam)
    floor = -5
    f = rhs_chevalley(rs, rs.weight([0, 0]), lam, chain, x_at(rs), floor)
    spec = specialize_trivial(f)
    expect = {}
    subsets = qa.enumerate_admissible(chain, rs.identity)
    bound = max(-a.height for a in subsets) - floor
    for a in subsets:
        for chi in par_enumerate(rs, lam, bound):
            e = -a.height - chi.size
            if e < floor:
                continue
            expect[a.wt] = add(expect.get(a.wt, {}), {e: a.sign})
    expect = {k: v for k, v in expect.items() if v}
    assert spec == expect
    # dominant chains have no signs: every coefficient is nonnegative
    assert all(c >= 0 for v in spec.values() for c in v.values())


def test_rhs_requires_dominant_mu():
    rs = qa.build_root_system("A2")
    chain = qa.lex_chain(rs, rs.weight([1, 0]))
    with pytest.raises(ValueError):
        rhs_chevalley(rs, rs.weight([-1, 0]), rs.weight([1, 0]), chain, x_at(rs), -4)


def test_formal_char_json():
    rs = qa.build_root_system("A2")
    chain = qa.lex_chain(rs, rs.weight([1, 0]))
    f = rhs_chevalley(rs, rs.weight([1, 0]), rs.weight([1, 0]), chain, x_at(rs), -5)
    data = f.to_json()
    assert data and {"q", "mu", "gch_w"} <= set(data[0])
