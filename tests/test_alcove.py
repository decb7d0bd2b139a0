import random
from fractions import Fraction

import pytest

import qalcove as qa
from qalcove.alcove import (
    ChainError,
    admissible_support,
    chain_with_segment,
    report_tsv,
    straight_crossings,
)


def walk_oracle(rs, roots, lam):
    """Independent level computation: reflect the base point step by step."""
    point = list(rs.nu0.coeffs)
    levels = []
    for beta in roots:
        cor = rs.coroot(beta).coeffs
        p = sum(a * b for a, b in zip(point, cor))
        m = p.numerator // p.denominator
        bw = rs.root_to_weight(beta).coeffs
        point = [c - (p - m) * a for c, a in zip(point, bw)]
        levels.append(-m)
    target = [c - l for c, l in zip(rs.nu0.coeffs, lam.coeffs)]
    assert [Fraction(c) for c in point] == [Fraction(c) for c in target]
    return tuple(levels)


def a2_gamma1():
    rs = qa.build_root_system("A2")
    lam = rs.weight([-2, 1])
    roots = (rs.root([0, 1]), rs.root([-1, 0]), rs.root([-1, -1]), rs.root([-1, 0]))
    return rs, qa.compute_levels(rs, roots, lam)


def test_compute_levels_examples():
    rs = qa.build_root_system("A2")
    empty = qa.compute_levels(rs, (), rs.weight([0, 0]))
    assert len(empty) == 0

    lam = rs.weight([1, 0])
    roots = (rs.root([1, 0]), rs.root([1, 1]))
    chain = qa.compute_levels(rs, roots, lam)
    assert chain.levels == (0, 0)
    assert chain.tilde_levels == (1, 1)
    assert chain.levels == walk_oracle(rs, roots, lam)

    rs2, g1 = a2_gamma1()
    assert g1.levels == walk_oracle(rs2, g1.roots, g1.lam)


def test_compute_levels_rejects():
    rs = qa.build_root_system("A2")
    with pytest.raises(ChainError):
        qa.compute_levels(rs, (rs.root([1, 0]),), rs.weight([0, 1]))
    with pytest.raises(ChainError):
        qa.compute_levels(rs, (rs.root([1, 0]),), rs.weight([1, 0]))


def test_lex_chain():
    rs = qa.build_root_system("A2")
    assert len(qa.lex_chain(rs, rs.weight([0, 0]))) == 0
    chain = qa.lex_chain(rs, rs.weight([1, 0]))
    assert sorted(r.coeffs for r in chain.roots) == [(1, 0), (1, 1)]
    assert qa.is_reduced(chain)
    rev = qa.lex_chain(rs, rs.weight([-1, 0]))
    assert rev.roots == tuple(-b for b in reversed(chain.roots))
    with pytest.raises(ChainError):
        qa.lex_chain(rs, rs.weight([1, -1]))


def test_lex_chain_counting_oracle():
    for label in ("A1", "A1xA1", "A2", "C2", "G2", "A3", "B3", "C3"):
        rs = qa.build_root_system(label)
        for scale in (1, 2):  # lambda = rho and 2 rho
            lam = rs.weight([scale] * rs.rank)
            chain = qa.lex_chain(rs, lam)
            for alpha in rs.positive_roots:
                mult = sum(1 for b in chain.roots if b == alpha)
                assert mult == rs.pair(lam, rs.coroot(alpha))
            assert qa.is_reduced(chain)


def test_segment_chain_reduced_everywhere():
    for label in ("A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        for coeffs in ([1, 0], [2, 1], [-1, 2], [1, -1], [-2, -1]):
            chain = qa.segment_chain(rs, rs.weight(coeffs))
            assert qa.is_reduced(chain)


def test_reduced_flags():
    rs, g1 = a2_gamma1()
    assert qa.is_reduced(g1)
    assert qa.is_weakly_reduced(g1)
    bad = qa.insert_pair(g1, 0, rs.simple_root(0))
    assert not qa.is_weakly_reduced(bad)
    ins = qa.insert_pair(g1, 1, rs.highest_root)
    assert qa.is_weakly_reduced(ins) and not qa.is_reduced(ins)


def test_admissible_worked_example():
    rs, g1 = a2_gamma1()
    w = rs.element_from_word("s2")
    got = sorted(a.indices for a in qa.enumerate_admissible(g1, w))
    assert len(got) == 12
    assert (1, 2, 3, 4) in got and (2, 3) not in got
    g2 = qa.yb_transform(g1, 0, 3)
    assert [r.coeffs for r in g2.roots] == [(-1, -1), (-1, 0), (0, 1), (-1, 0)]
    assert len(qa.enumerate_admissible(g2, w)) == 16


def test_empty_chain_admissible():
    rs = qa.build_root_system("A2")
    chain = qa.compute_levels(rs, (), rs.weight([0, 0]))
    for w in rs.weyl_elements:
        subsets = qa.enumerate_admissible(chain, w)
        assert len(subsets) == 1
        a = subsets[0]
        assert a.wt == a.chain.lam and a.ed == w
        assert a.down.is_zero() and a.height == 0 and a.n == 0


def test_statistics_a1():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    s1 = rs.element_from_word("s1")
    quantum = qa.admissible_from_indices(chain, s1, [1])
    assert quantum.down == qa.Coroot((1,))
    assert quantum.height == 1
    assert quantum.wt == rs.weight([1])
    assert quantum.ed == rs.identity
    bruhat = qa.admissible_from_indices(chain, rs.identity, [1])
    assert bruhat.down.is_zero() and bruhat.height == 0
    assert bruhat.wt == rs.weight([-1]) and bruhat.ed == s1


def test_coheight_domain():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    e, s1 = rs.identity, rs.element_from_word("s1")
    a = qa.admissible_from_indices(chain, e, [1])
    assert a.coheight() == 0
    b = qa.admissible_from_indices(chain, s1, [1])
    with pytest.raises(ValueError):
        b.coheight()
    anti = qa.lex_chain(rs, rs.weight([-1]))
    c = qa.enumerate_admissible(anti, e)[0]
    with pytest.raises(ValueError):
        c.coheight()


def test_dominant_chain_invariants():
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        lam = rs.weight([1, 1])
        chain = qa.lex_chain(rs, lam)
        assert all(b.is_positive for b in chain.roots)
        for k, b in enumerate(chain.roots):
            assert 1 <= chain.tilde_levels[k] <= rs.pair(lam, rs.coroot(b))
        for w in rs.weyl_elements:
            assert all(a.n == 0 for a in qa.enumerate_admissible(chain, w))


def test_concat_statistics_lemma():
    rng = random.Random(7)
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        mu, nu = rs.weight([1, 0]), rs.weight([0, 1])
        c1, c2 = qa.lex_chain(rs, mu), qa.lex_chain(rs, nu)
        cc = qa.concat_chains(c1, c2)
        total = 0
        for w in rs.weyl_elements:
            for a in qa.enumerate_admissible(c1, w):
                for b in qa.enumerate_admissible(c2, a.ed):
                    ab = qa.concat_admissible(a, b, cc)
                    assert ab.n == a.n + b.n
                    assert ab.ed == b.ed
                    assert ab.down == a.down + b.down
                    assert ab.wt == a.wt + b.wt
                    assert ab.height == a.height + b.height + rs.pair(nu, a.down)
                    total += 1
            # the concatenation is a bijection onto A(w, c1 * c2)
            count = sum(
                len(qa.enumerate_admissible(c2, a.ed))
                for a in qa.enumerate_admissible(c1, w)
            )
            assert count == len(qa.enumerate_admissible(cc, w))
        assert total > 0


def test_concat_requires_matching_ends():
    rs = qa.build_root_system("A2")
    c1 = qa.lex_chain(rs, rs.weight([1, 0]))
    c2 = qa.lex_chain(rs, rs.weight([0, 1]))
    a = qa.enumerate_admissible(c1, rs.identity)[1]
    wrong_start = rs.mult(a.ed, rs.simple_reflection(0))
    b = qa.enumerate_admissible(c2, wrong_start)[0]
    with pytest.raises(ChainError):
        qa.concat_admissible(a, b)


def test_split_indices():
    assert qa.split_admissible((1, 3, 4), 1, 2) == ((1,), (3,), (4,))
    assert qa.split_admissible((), 2, 2) == ((), (), ())


def test_lambda_pm_and_cancellation():
    rs = qa.build_root_system("A2")
    lam = rs.weight([-2, 1])
    plus, minus = qa.lambda_pm(lam)
    assert plus == rs.weight([0, 1]) and minus == rs.weight([-2, 0])
    assert plus + minus == lam
    assert qa.is_cancellation_free([plus, minus])
    assert not qa.is_cancellation_free([rs.weight([1, 0]), rs.weight([-1, 0])])
    assert qa.is_cancellation_free([rs.weight([1, 0]), rs.weight([1, 0])])


def test_weakly_reduced_concat_criterion():
    rng = random.Random(11)
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        for _ in range(12):
            mu = rs.weight([rng.randint(-1, 2), rng.randint(-1, 2)])
            nu = rs.weight([rng.randint(-1, 2), rng.randint(-1, 2)])
            chains = []
            for lam in (mu, nu):
                p, m = qa.lambda_pm(lam)
                chains.append(
                    qa.concat_chains(qa.lex_chain(rs, p), qa.lex_chain(rs, m))
                )
            cc = qa.concat_chains(*chains)
            expect = qa.is_cancellation_free([mu, nu]) and all(
                qa.is_weakly_reduced(c) for c in chains
            )
            assert qa.is_weakly_reduced(cc) == expect


def test_chain_json_round_trip(tmp_path):
    rs, g1 = a2_gamma1()
    path = tmp_path / "chain.json"
    import json

    path.write_text(json.dumps(g1.to_json()))
    loaded = qa.LambdaChain.load(str(path))
    assert loaded == g1 and loaded.levels == g1.levels


def test_report_tsv():
    rs, g1 = a2_gamma1()
    text = report_tsv(qa.enumerate_admissible(g1, rs.element_from_word("s2")))
    assert text.splitlines()[0] == "indices\twt\ted\tdown\theight\tn"
    assert len(text.splitlines()) == 13


def test_chain_with_segment_hosts():
    c2 = qa.build_root_system("C2")
    pi = (-c2.root([2, 1]), -c2.root([1, 0]), c2.root([0, 1]), c2.root([1, 1]))
    chain, t = chain_with_segment(c2, pi)
    assert chain.roots[t : t + 4] == pi
    # genuine chain: straight pieces agree with the independent walk oracle
    assert chain.levels == walk_oracle(c2, chain.roots, chain.lam)


def test_straight_crossings_match_segment_chain():
    rs = qa.build_root_system("A2")
    lam = rs.weight([2, 1])
    from qalcove.rootsys import RationalPoint

    target = RationalPoint(
        tuple(c - l for c, l in zip(rs.nu0.coeffs, lam.coeffs))
    )
    roots = straight_crossings(rs, rs.nu0, target)
    chain = qa.compute_levels(rs, roots, lam)
    assert qa.is_reduced(chain)
    # the symmetric weight rho does tie; the caller is asked to perturb
    sym = RationalPoint(tuple(c - 1 for c in rs.nu0.coeffs))
    with pytest.raises(ChainError):
        straight_crossings(rs, rs.nu0, sym)


def test_enumerate_admissible_cache_is_immutable():
    rs, g1 = a2_gamma1()
    w = rs.element_from_word("s2")
    subsets = qa.enumerate_admissible(g1, w)
    assert isinstance(subsets, tuple)
    assert qa.enumerate_admissible(g1, w) is subsets


def enumerated_states(chain, w):
    """The sweep's result, summed from the listed subsets."""
    acc = {}
    for a in qa.enumerate_admissible(chain, w):
        key = (a.ed, a.wt, a.down, a.height)
        acc[key] = acc.get(key, 0) + a.sign
    return {k: v for k, v in acc.items() if v}


def test_sweep_matches_enumeration():
    rs, g1 = a2_gamma1()
    g2 = qa.build_root_system("G2")
    chains = [
        g1,
        qa.insert_pair(g1, 1, rs.highest_root),
        qa.segment_chain(g2, g2.weight([1, -1])),
        qa.lex_chain(g2, g2.weight([-1, 0])),
    ]
    for chain in chains:
        for w in chain.rs.weyl_elements:
            assert qa.sweep_admissible(chain, w) == enumerated_states(chain, w)
            subsets = qa.enumerate_admissible(chain, w)
            taken, heights = admissible_support(chain, w)
            assert taken == {j for a in subsets for j in a.indices}
            assert heights == {a.height for a in subsets}


def test_sweep_merges_states():
    # dominant lambda: every sign is +1, so the counts add up to |A(e, Gamma)|
    rs = qa.build_root_system("G2")
    chain = qa.lex_chain(rs, rs.weight([2, 2]))
    states = qa.sweep_admissible(chain, rs.identity)
    assert sum(states.values()) == 7**2 * 15**2
    assert len(states) == 4199
