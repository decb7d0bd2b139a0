import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

import qalcove as qa
from qalcove.alcove import (
    ChainError,
    _walk,
    admissible_support,
    chain_with_segment,
    report_tsv,
    straight_crossings,
)


def _pair(point, rs, beta):
    return sum(a * b for a, b in zip(point, rs.coroot(beta).coeffs))


def certificate_oracle(rs, point, beta):
    """Fraction form of the adjacency certificate: the midpoint of the step
    across beta's wall lies on no hyperplane of another positive root."""
    p = _pair(point, rs, beta)
    f = p - (p.numerator // p.denominator)
    bw = rs.root_to_weight(beta).coeffs
    mid = [c - f / 2 * a for c, a in zip(point, bw)]
    return all(
        Fraction(_pair(mid, rs, gamma)).denominator != 1
        for gamma in rs.positive_roots
        if gamma != abs(beta)
    )


def reflect_oracle(rs, point, beta):
    """(level, next point) of one step of the Fraction walk."""
    p = _pair(point, rs, beta)
    m = p.numerator // p.denominator
    bw = rs.root_to_weight(beta).coeffs
    return -m, [c - (p - m) * a for c, a in zip(point, bw)]


def base_point(rs):
    """rho/h in Fractions."""
    return [Fraction(1, rs.coxeter_number)] * rs.rank


def point_repr(point):
    return "Point(" + ", ".join(str(Fraction(c)) for c in point) + ")"


def walk_oracle(rs, roots, lam, certify=False):
    """Independent level computation: reflect the base point rho/h step by
    step in Fractions; raises compute_levels' ChainError, with its message,
    where the sequence is no lambda-chain."""
    point = base_point(rs)
    levels = []
    for beta in roots:
        if Fraction(_pair(point, rs, beta)).denominator == 1:
            raise ChainError("walk point landed on a wall; corrupt chain")
        if certify and not certificate_oracle(rs, point, beta):
            raise ChainError("step is not certified as a facet crossing")
        level, point = reflect_oracle(rs, point, beta)
        levels.append(level)
    target = [c - l for c, l in zip(base_point(rs), lam.coeffs)]
    if point != target:
        raise ChainError(
            f"walk ends at {point_repr(point)}, expected {point_repr(target)}: not a {lam}-chain"
        )
    for alpha in rs.positive_roots:
        if roots.count(alpha) - roots.count(-alpha) != rs.pair(lam, rs.coroot(alpha)):
            raise ChainError(f"counting fact fails at root {alpha}")
    return tuple(levels)


def insert_oracle(chain, u, beta):
    """insert_pair's levels from the Fraction walk and certificate."""
    rs = chain.rs
    point = base_point(rs)
    for gamma in chain.roots[:u]:
        _, point = reflect_oracle(rs, point, gamma)
    if not certificate_oracle(rs, point, beta):
        raise ChainError("inserted pair is not a facet crossing here")
    return walk_oracle(rs, chain.roots[:u] + (beta, -beta) + chain.roots[u:], chain.lam)


def outcome(fn, *args, **kw):
    """Levels of the chain fn returns (or the tuple it returns), or the
    message of its ChainError."""
    try:
        got = fn(*args, **kw)
    except ChainError as exc:
        return "ChainError: " + str(exc)
    return got if isinstance(got, tuple) else got.levels


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


def segment_chain_oracle(rs, lam):
    """segment_chain by its own key sort: the crossings of rho/h -> rho/h - lam
    keyed by (time, slope), both scaled by L h or L, for perturbations p =
    (m^i + i) until the keys are distinct and the sequence validates."""
    h = rs.coxeter_number
    cs = [rs.pair(lam, rs.coroot(alpha)) for alpha in rs.positive_roots]
    lcm = math.lcm(*(c for c in cs if c))
    for m in range(1, 60):
        p = tuple(m**i + i for i in range(rs.rank))
        crossings = []
        for alpha, c in zip(rs.positive_roots, cs):
            cor = rs.coroot(alpha)
            s = lcm // c if c else 0
            slope = sum(x * y for x, y in zip(p, cor.coeffs))
            ks = range(0, -c, -1) if c > 0 else range(1, -c + 1)
            for k in ks:
                crossings.append((((cor.height - k * h) * s, slope * s), alpha if c > 0 else -alpha))
        if len({key for key, _ in crossings}) < len(crossings):
            continue
        crossings.sort(key=lambda t: t[0])
        try:
            return qa.compute_levels(rs, tuple(b for _, b in crossings), lam)
        except ChainError:
            continue
    raise ChainError(f"no generic segment chain found for {lam}")


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]


def test_segment_chain_against_key_sort():
    # 740 weights: rank 1-2 over {-3..3}^n, rank 3 over {-2..2}^3, D4 and F4
    # over {-1..1}^4
    boxes = [(qa.build_root_system(label), 3) for label in ("A1", "A1xA1", "A2", "C2", "G2")]
    boxes += [(qa.build_root_system(label), 2) for label in ("A3", "B3", "C3")]
    boxes += [(qa.root_system_from_cartan(D4, "D4"), 1), (qa.root_system_from_cartan(F4, "F4"), 1)]
    count = 0
    for rs, r in boxes:
        for coeffs in itertools.product(range(-r, r + 1), repeat=rs.rank):
            lam = rs.weight(coeffs)
            got, want = qa.segment_chain(rs, lam), segment_chain_oracle(rs, lam)
            assert (got.roots, got.levels) == (want.roots, want.levels), (rs.type_label, coeffs)
            count += 1
    assert count == 740


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


# pinned at the tuple-statistics implementation: SHA-256 of report_tsv over
# A(w, lex(lambda+) lex(lambda-))
REPORT_TSV = {
    ("G2", (1, -2), "s2s1"): "01eb3c7a25fc7cd6d4b0d8b65b07da9d1dee2fcbfd109638dcd712a098f895c2",
    ("C3", (1, -1, 0), "s3s2"): "e6ebe4bc76ace020528e122d09c55344b86af85b19d8c0bad6e16321763c2fd3",
}


def test_admissible_subset_record():
    for (label, coeffs, word), digest in REPORT_TSV.items():
        rs = qa.build_root_system(label)
        plus, minus = qa.lambda_pm(rs.weight(coeffs))
        lex = (qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))
        chain, twin = qa.concat_chains(*lex), qa.concat_chains(*lex)
        w = rs.element_from_word(word)
        subsets = qa.enumerate_admissible(chain, w)
        text = report_tsv(subsets)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, label
    a = subsets[-1]
    # read-only: no public name can be assigned, and no new one added
    assert a.key[-2:] == (a.height, a.n)
    for name in ("chain", "w", "indices", "vertices", "key", "wt", "ed", "down", "height", "n", "sign", "path"):
        value = getattr(a, name)
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    # equal, with equal hashes, exactly when (chain, w, indices) are
    assert twin is not chain and twin == chain
    b = qa.admissible_from_indices(twin, w, a.indices)
    assert b == a and hash(b) == hash(a) and len({a, b}) == 1
    assert repr(a) == f"A{list(a.indices)}"
    assert a != qa.admissible_from_indices(chain, w, a.indices[:-1])
    other_w = [x for x in rs.weyl_elements if x != w]
    assert all(a != s for x in other_w for s in qa.enumerate_admissible(chain, x) if s.indices == a.indices)
    reversed_chain = qa.concat_chains(*reversed(lex))
    assert a not in qa.enumerate_admissible(reversed_chain, w)


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
    h = rs.coxeter_number
    # from rho/h to rho/h - lam, both scaled by d = h
    target = tuple(1 - h * l for l in lam.coeffs)
    roots = straight_crossings(rs, (1, 1), target, h)
    chain = qa.compute_levels(rs, roots, lam)
    assert qa.is_reduced(chain)
    # the symmetric weight rho does tie; the caller is asked to perturb
    with pytest.raises(ChainError, match="simultaneous"):
        straight_crossings(rs, (1, 1), (1 - h, 1 - h), h)
    with pytest.raises(ChainError, match="wall"):
        straight_crossings(rs, (1, 1), (h, 1), h)


def crossings_oracle(rs, start, end):
    """straight_crossings on Fraction points: crossing times as Fractions."""
    crossings = []
    seen = set()
    for alpha in rs.positive_roots:
        pa, pb = Fraction(_pair(start, rs, alpha)), Fraction(_pair(end, rs, alpha))
        if pa.denominator == 1 or pb.denominator == 1:
            raise ChainError("endpoint lies on a wall")
        if pa == pb:
            continue
        lo, hi = min(pa, pb), max(pa, pb)
        for kk in range(math.floor(lo) + 1, math.ceil(hi)):
            t = (pa - kk) / (pa - pb)
            if t in seen:
                raise ChainError("simultaneous crossings; perturb an endpoint")
            seen.add(t)
            crossings.append((t, alpha if pb < pa else -alpha))
    crossings.sort(key=lambda c: c[0])
    return tuple(beta for _, beta in crossings)


def hosting_oracle(rs, segment, lam):
    """chain_with_segment on Fraction points: (roots, levels, t), or the
    message of its ChainError.  The sweep and the straight pieces run in
    Fractions; the hosted sequence is validated by compute_levels, which
    the tests above check against the Fraction walk."""
    c1, c6 = rs.coroot(segment[0]).coeffs, rs.coroot(segment[-1]).coeffs
    det = c1[0] * c6[1] - c1[1] * c6[0]
    for p1, p6 in ((5, 7), (7, 5), (9, 11), (11, 13), (13, 17)):
        v1, v6 = Fraction(1, p1), Fraction(1, p6)
        start = [(v1 * c6[1] - v6 * c1[1]) / det, (c1[0] * v6 - c6[0] * v1) / det]
        point = start
        try:
            for gamma in segment:
                if Fraction(_pair(point, rs, gamma)).denominator == 1:
                    raise ChainError("sweep point on a wall")
                point = reflect_oracle(rs, point, gamma)[1]
            prefix = crossings_oracle(rs, base_point(rs), start)
            target = [c - l for c, l in zip(base_point(rs), lam.coeffs)]
            roots = prefix + segment + crossings_oracle(rs, point, target)
            return roots, qa.compute_levels(rs, roots, lam, certify=True).levels, len(prefix)
        except ChainError:
            continue
    return "ChainError: could not host the segment in a genuine chain"


def test_hosting_matches_fraction_oracle():
    # every Yang-Baxter segment of the rank-2 types, at three weights; both
    # outcomes occur
    from qalcove.qbops import yang_baxter_pairs

    kinds = set()
    for label in ("A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        for alpha, beta in yang_baxter_pairs(rs):
            seg = rs.rank2_subsystem(alpha, beta).segment
            for coeffs in ((0, 0), (1, 0), (-1, 2)):
                lam = rs.weight(coeffs)
                want = hosting_oracle(rs, seg, lam)
                try:
                    chain, t = chain_with_segment(rs, seg, lam)
                    got = chain.roots, chain.levels, t
                except ChainError as exc:
                    got = "ChainError: " + str(exc)
                assert got == want
                kinds.add(isinstance(want, str))
    assert kinds == {False, True}


def test_straight_crossings_match_fraction_oracle():
    # random integer endpoints and denominators: crossings, walls and ties
    rng = random.Random(5)
    kinds = set()
    for label in ("A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        for _ in range(300):
            d = rng.randint(1, 12)
            start, end = ([rng.randint(-4 * d, 4 * d) for _ in range(2)] for _ in range(2))
            want = outcome(crossings_oracle, rs, [Fraction(c, d) for c in start],
                              [Fraction(c, d) for c in end])
            assert outcome(straight_crossings, rs, start, end, d) == want
            kinds.add(want if isinstance(want, str) else "ok")
    assert len(kinds) == 3


def test_walk_step_and_back():
    # a step along beta and back along -beta returns to the start, from any
    # interior point; the step from rho/h across a linear wall is s_beta
    rng = random.Random(3)
    for label in ("A2", "C2", "G2", "B3"):
        rs = qa.build_root_system(label)
        h = rs.coxeter_number
        for k, beta in enumerate(rs.all_roots):
            back = rs._root_index[-beta]
            if beta.is_positive:
                levels, x = _walk(rs, [k])
                assert levels == (0,) and x == rs.act(rs.reflection(beta), rs.rho).coeffs
            d = h * rng.randint(1, 30)
            start = tuple(rng.randint(-3 * d, 3 * d) for _ in range(rs.rank))
            try:
                levels, x = _walk(rs, [k, back], start, d)
            except ChainError:
                # the start lies on a wall of beta
                assert _pair(start, rs, beta) % d == 0
                continue
            assert x == start and levels[0] == -levels[1]
            mid = _walk(rs, [k], start, d)[1]
            want = reflect_oracle(rs, [Fraction(c, d) for c in start], beta)[1]
            assert [Fraction(c, d) for c in mid] == want
    # a walk scaled by any multiple of h, certified or not, is the walk from
    # rho/h: the same levels and verdicts, the end scaled; both verdicts occur
    g2 = qa.build_root_system("G2")
    h = g2.coxeter_number
    ks = [g2._root_index[b] for b in qa.lex_chain(g2, g2.weight([2, 1])).roots]
    verdicts = set()
    for certify in (False, True):
        for u in range(len(ks)):
            seq = ks[:u] + ks[-1:]
            want = outcome(_walk, g2, seq, certify=certify)
            verdicts.add(isinstance(want, str))
            for e in (2, 35):
                got = outcome(_walk, g2, seq, (e, e), h * e, certify=certify)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert got == (want[0], tuple(e * c for c in want[1]))
    assert verdicts == {False, True}
    # a start on a wall raises
    a2 = qa.build_root_system("A2")
    with pytest.raises(ChainError, match="wall"):
        _walk(a2, [a2._root_index[a2.simple_root(0)]], (0, 1), 3)


def test_enumerate_admissible_cache_is_immutable():
    rs, g1 = a2_gamma1()
    w = rs.element_from_word("s2")
    subsets = qa.enumerate_admissible(g1, w)
    assert isinstance(subsets, tuple)


def test_enumerate_admissible_leaves_no_cyclic_garbage():
    # after a warm-up fills the chain's step cache, the enumeration frees
    # everything it made by reference counting alone, and so do the
    # partition counting behind Ghat, the QBG path walk, the reflection
    # orders and the sweep without down
    rs = qa.build_root_system("A2")
    chain = qa.lex_chain(rs, rs.weight([2, 1]))
    lam = rs.weight([2, 2])
    b3 = qa.build_root_system("B3")

    def run():
        for w in rs.weyl_elements:
            assert qa.enumerate_admissible(chain, w) and qa.weight_sums(chain, w)
        assert qa.genfun.par_groups(rs, lam, 6) and qa.par_enumerate(rs, lam, 4)
        assert len(qa.qbg.index_paths(rs, rs.identity.index, chain.roots)) > 1
        assert len(qa.reflection_orders(b3)) == 42

    run()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def enumerated_states(chain, w):
    """The sweep's result, summed from the listed subsets."""
    acc = {}
    for a in qa.enumerate_admissible(chain, w):
        key = (a.ed.index, a.wt.coeffs, a.down.coeffs, a.height)
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


# -- differential tests: the integer walk against the Fraction walk ----------


def corrupted(roots, rng):
    """Three corruptions of a root sequence: two entries swapped, one
    dropped, one negated."""
    if not roots:
        return []
    i, j = rng.randrange(len(roots)), rng.randrange(len(roots))
    swapped = list(roots)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return [
        tuple(swapped),
        roots[:i] + roots[i + 1 :],
        roots[:j] + (-roots[j],) + roots[j + 1 :],
    ]


def sample_chains(rs, rng):
    """Lex, segment, concatenated, inserted and YB-transformed chains."""
    n = rs.rank
    chains = []
    for coeffs in ((1,) * n, (2,) + (0,) * (n - 1), (-1,) * n):
        chains.append(qa.lex_chain(rs, rs.weight(coeffs)))
    for _ in range(2):
        lam = rs.weight([rng.randint(-2, 2) for _ in range(n)])
        chains.append(qa.segment_chain(rs, lam))
        plus, minus = qa.lambda_pm(lam)
        chains.append(qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus)))
    for chain in list(chains[:4]):
        for t, q, _, _ in qa.find_yb_segments(chain)[:1]:
            chains.append(qa.yb_transform(chain, t, q))
        inserted = []
        for _ in range(20):
            u = rng.randrange(len(chain) + 1)
            try:
                inserted.append(qa.insert_pair(chain, u, rng.choice(rs.all_roots)))
            except ChainError:
                continue
            if len(inserted) == 2:
                break
        chains += inserted
    return chains


@pytest.mark.parametrize("label", ["A2", "C2", "G2", "A3", "B3", "C3"])
def test_integer_walk_matches_fraction_walk(label):
    rs = qa.build_root_system(label)
    rng = random.Random(label)
    kinds = set()
    for chain in sample_chains(rs, rng):
        assert chain.levels == walk_oracle(rs, chain.roots, chain.lam)
        for roots in [chain.roots] + corrupted(chain.roots, rng):
            for certify in (False, True):
                want = outcome(walk_oracle, rs, roots, chain.lam, certify=certify)
                got = outcome(qa.compute_levels, rs, roots, chain.lam, certify=certify)
                assert got == want
                kinds.add(("walk", certify, want if isinstance(want, str) else "ok"))
        for u in rng.sample(range(len(chain) + 1), min(4, len(chain) + 1)):
            beta = rng.choice(rs.all_roots)
            want = outcome(insert_oracle, chain, u, beta)
            assert outcome(qa.insert_pair, chain, u, beta) == want
            kinds.add(("insert", isinstance(want, str)))
    # both walks accepted and rejected sequences, with and without certify
    assert ("insert", False) in kinds
    for certify in (False, True):
        assert ("walk", certify, "ok") in kinds
        assert any(k[:2] == ("walk", certify) and k[2] != "ok" for k in kinds)


def test_insert_pair_matches_fraction_walk_everywhere():
    # every position and root on chains whose certificate both accepts and rejects
    for label in ("A2", "G2"):
        rs = qa.build_root_system(label)
        chain = qa.lex_chain(rs, rs.weight([2, 1]))
        rejected = 0
        for u in range(len(chain) + 1):
            for beta in rs.all_roots:
                want = outcome(insert_oracle, chain, u, beta)
                assert outcome(qa.insert_pair, chain, u, beta) == want
                rejected += isinstance(want, str)
        assert rejected > 0


def test_hosted_segments_match_fraction_walk():
    # chain_with_segment validates with certify=True; a segment it cannot
    # host fails the same way on both walks
    from qalcove.qbops import yang_baxter_pairs

    for label in ("A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        hosted = 0
        for alpha, beta in yang_baxter_pairs(rs):
            seg = rs.rank2_subsystem(alpha, beta).segment
            try:
                chain, t = chain_with_segment(rs, seg)
            except ChainError:
                continue
            assert chain.roots[t : t + len(seg)] == seg
            assert chain.levels == walk_oracle(rs, chain.roots, chain.lam, certify=True)
            hosted += 1
        assert hosted > 0


def test_insert_position_out_of_range():
    rs, g1 = a2_gamma1()
    for u in (-1, len(g1) + 1):
        with pytest.raises(ChainError, match="insert position"):
            qa.insert_pair(g1, u, rs.highest_root)


def test_validation_uses_integers_only(monkeypatch):
    """Chain construction, hosting and straight crossings build neither QBG
    nor a Fraction."""
    from qalcove.rootsys import _CARTAN

    def no_fraction(cls, *args, **kw):
        raise AssertionError("Fraction built during chain construction")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    with pytest.raises(AssertionError):
        Fraction(1, 2)
    for label in ("A2", "C2", "G2", "B3"):
        rs = qa.root_system_from_cartan(_CARTAN[label], label)
        n = rs.rank
        chains = [
            qa.lex_chain(rs, rs.weight((1,) * n)),
            qa.lex_chain(rs, rs.weight((-2,) + (0,) * (n - 1))),
            qa.segment_chain(rs, rs.weight((1, -1) + (0,) * (n - 2))),
        ]
        if n == 2:
            seg = rs.rank2_subsystem(rs.simple_root(0), rs.simple_root(1)).segment
            chains.append(chain_with_segment(rs, seg, rs.weight((1, 1)))[0])
        for chain in chains:
            qa.compute_levels(rs, chain.roots, chain.lam)
            for u in range(len(chain) + 1):
                try:
                    qa.insert_pair(chain, u, rs.positive_roots[-1])
                except ChainError:
                    pass
        assert rs._columns is None


def test_admissible_from_indices_rejects_non_subsets():
    rs, g1 = a2_gamma1()
    w = rs.element_from_word("s2")
    for bad in ([-1], [0], [5], [1, 1], [2, 3, 3]):
        with pytest.raises(ChainError, match="outside|repeated"):
            qa.admissible_from_indices(g1, w, bad)
    assert qa.admissible_from_indices(g1, w, [4, 1]).indices == (1, 4)
