import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qalcove as qa
from qalcove.charident import verify_vanishing
from qalcove.genfun import (
    AffineWeylElt,
    GenFun,
    Laurent,
    ParTuple,
    compose,
    genfun,
    genfun_equal,
    genfun_extend,
    ghat,
    ghat_compose,
    is_weyl_invariant,
    par_concat,
    par_enumerate,
    weight_orbit_sum,
)
from qalcove.rootsys import Coroot


def x_at(rs, word="e", xi=None):
    return AffineWeylElt(
        rs.element_from_word(word), Coroot(tuple(xi or (0,) * rs.rank))
    )


def term(g, mu, word, xi):
    rs = g.rs
    key = (rs.weight(mu), rs.element_from_word(word), Coroot(tuple(xi)))
    return g.terms.get(key)


def test_laurent_basics():
    a = Laurent.q_power(-2) + Laurent.q_power(0, 3)
    assert str(a) == "q^-2+3"
    assert str(-a) == "-q^-2-3"
    assert (a - a).is_zero()
    assert a.truncated(0).terms == {0: 3}
    assert (Laurent.q_power(1) * Laurent.q_power(-1)).terms == {0: 1}


def test_genfun_a1_examples():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    g = genfun(chain, x_at(rs))
    assert len(g.terms) == 2
    assert term(g, [1], "e", [0]).terms == {0: 1}
    assert term(g, [-1], "s1", [0]).terms == {0: 1}
    g = genfun(chain, x_at(rs, "s1"))
    assert term(g, [-1], "s1", [0]).terms == {0: 1}
    assert term(g, [1], "e", [1]).terms == {-1: 1}


def test_genfun_zero_chain():
    rs = qa.build_root_system("A2")
    chain = qa.compute_levels(rs, (), rs.weight([0, 0]))
    x = x_at(rs, "s1s2", [1, 0])
    g = genfun(chain, x)
    assert len(g.terms) == 1
    assert term(g, [0, 0], "s1s2", [1, 0]).terms == {0: 1}


def test_extend_linearity_base_case():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    x = x_at(rs, "s1")
    single = GenFun(rs)
    single.add_term(rs.weight([0]), x, Laurent.q_power(0))
    assert genfun_extend(chain, single) == genfun(chain, x)


def test_yb_and_deletion_invariance():
    rs = qa.build_root_system("A2")
    lam = rs.weight([-2, 1])
    roots = (rs.root([0, 1]), rs.root([-1, 0]), rs.root([-1, -1]), rs.root([-1, 0]))
    g1 = qa.compute_levels(rs, roots, lam)
    g2c = qa.yb_transform(g1, 0, 3)
    for word in ("e", "s2", "s1s2s1"):
        x = x_at(rs, word)
        assert genfun_equal(genfun(g1, x), genfun(g2c, x))
    # deletion of a non-simple pair
    ins = qa.insert_pair(g1, 1, rs.highest_root)
    x = x_at(rs, "s2")
    assert genfun_equal(genfun(ins, x), genfun(g1, x))


def test_simple_root_insertion_factor():
    # inserting (beta, -beta) for beta simple multiplies by 1 - q^{-h} t_{beta^vee}
    rs = qa.build_root_system("A1")
    beta = rs.simple_root(0)
    base = qa.lex_chain(rs, rs.weight([1]))
    ins = qa.insert_pair(base, 1, beta)
    for word in ("e", "s1"):
        x = x_at(rs, word)
        big = genfun(ins, x)
        small = genfun(base, x)
        # find the height contribution h of the inserted pair
        marked = [
            a
            for a in qa.enumerate_admissible(ins, x.w)
            if {2, 3} <= set(a.indices)
        ]
        base_map = {
            tuple(sorted(j if j < 2 else j - 2 for j in a.indices if j not in (2, 3)))
            for a in marked
        }
        assert marked
        hvals = set()
        for a in marked:
            rest = tuple(j if j < 2 else j - 2 for j in a.indices if j not in (2, 3))
            b = qa.admissible_from_indices(base, x.w, rest)
            hvals.add(a.height - b.height)
        assert len(hvals) == 1
        h = hvals.pop()
        corrected = GenFun(rs)
        for (mu, w, xi), c in small.terms.items():
            corrected.add_term(mu, AffineWeylElt(w, xi), c)
            corrected.add_term(
                mu,
                AffineWeylElt(w, xi + rs.coroot(beta)),
                c * Laurent.q_power(-h, -1),
            )
        assert genfun_equal(big, corrected)


def test_chain_independence_weakly_reduced():
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        for coeffs in ([1, 1], [-1, 2], [2, -1]):
            lam = rs.weight(coeffs)
            plus, minus = qa.lambda_pm(lam)
            c1 = qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))
            c2 = qa.concat_chains(qa.lex_chain(rs, minus), qa.lex_chain(rs, plus))
            c3 = qa.segment_chain(rs, lam)
            x = x_at(rs, "s1")
            g = genfun(c1, x)
            assert genfun_equal(g, genfun(c2, x))
            assert genfun_equal(g, genfun(c3, x))


def test_g2_invariance_through_exceptional_host():
    # invariance under one move holds for arbitrary chains, including the
    # hosts whose reversal exercises the special G2 families
    from qalcove.alcove import chain_with_segment

    rs = qa.build_root_system("G2")
    seg = (
        rs.root([1, 1]), rs.root([0, 1]), rs.root([-1, 0]),
        rs.root([-3, -1]), rs.root([-2, -1]), rs.root([-3, -2]),
    )
    chain, t = chain_with_segment(rs, seg)
    other = qa.yb_transform(chain, t, 6)
    for word in ("s1s2s1", "s2s1s2s1"):
        x = x_at(rs, word)
        assert genfun_equal(genfun(chain, x), genfun(other, x))


def test_g2_chain_independence_dominant():
    rs = qa.build_root_system("G2")
    lam = rs.weight([0, 1])
    c1 = qa.lex_chain(rs, lam)
    moves = qa.find_yb_segments(c1)
    assert moves
    t, q, _, _ = moves[0]
    c2 = qa.yb_transform(c1, t, q)
    assert c1.roots != c2.roots and qa.is_reduced(c2)
    for word in ("e", "s2s1"):
        x = x_at(rs, word)
        assert genfun_equal(genfun(c1, x), genfun(c2, x))


def test_compose_theorem():
    rs = qa.build_root_system("A2")
    mu, nu = rs.weight([1, 0]), rs.weight([0, 1])
    cm, cn = qa.lex_chain(rs, mu), qa.lex_chain(rs, nu)
    for word in ("e", "s2s1"):
        x = x_at(rs, word)
        assert compose(cm, cn, x) == compose(cn, cm, x) == genfun(
            qa.concat_chains(cm, cn), x
        )


def test_three_factor_invariance():
    import itertools

    rs = qa.build_root_system("A2")
    weights = [rs.weight([1, 0]), rs.weight([0, 1]), rs.weight([1, 1])]
    chains = [qa.lex_chain(rs, w) for w in weights]
    x = x_at(rs, "s1")
    reference = None
    for perm in itertools.permutations(chains):
        g = genfun(perm[2], x)
        g = genfun_extend(perm[1], g)
        g = genfun_extend(perm[0], g)
        if reference is None:
            reference = g
        assert g == reference


def test_par_enumerate():
    rs = qa.build_root_system("A2")
    anti = rs.weight([-1, 0])
    assert par_enumerate(rs, anti, 5) == [ParTuple(((), ()))]
    lam = rs.weight([1, 0])
    tuples = par_enumerate(rs, lam, 2)
    parts = sorted(t.parts for t in tuples)
    assert parts == [((), ()), (((1,), ())), (((2,), ()))]
    sizes = sorted(t.size for t in tuples)
    assert sizes == [0, 1, 2]
    iotas = sorted(t.iota().coeffs for t in tuples)
    assert iotas == [(0, 0), (1, 0), (2, 0)]


def test_par_concat_example():
    rs = qa.build_root_system("A1")
    mu = nu = rs.weight([1])
    psi = ParTuple(((2,),))
    omega = ParTuple(((1,),))
    chi = par_concat(psi, omega, mu, nu)
    assert chi.parts == ((3, 2),)
    assert chi.size == 5 and chi.iota() == Coroot((3,))


@settings(max_examples=60, deadline=None)
@given(
    m1=st.integers(0, 2),
    m2=st.integers(0, 2),
    rows1=st.lists(st.integers(1, 4), max_size=2),
    rows2=st.lists(st.integers(1, 4), max_size=2),
)
def test_par_concat_statistics_property(m1, m2, rows1, rows2):
    rs = qa.build_root_system("A1")
    mu, nu = rs.weight([m1]), rs.weight([m2])
    psi = ParTuple((tuple(sorted(rows1, reverse=True)[:m1]),))
    omega = ParTuple((tuple(sorted(rows2, reverse=True)[:m2]),))
    chi = par_concat(psi, omega, mu, nu)
    # partition shape is valid and bounded
    rows = chi.parts[0]
    assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))
    assert len(rows) <= m1 + m2
    assert chi.iota() == psi.iota() + omega.iota()
    assert chi.size == psi.size + omega.size + rs.pair(nu, psi.iota())


def test_par_concat_requires_cancellation_free():
    rs = qa.build_root_system("A2")
    with pytest.raises(ValueError):
        par_concat(
            ParTuple(((), ())),
            ParTuple(((), ())),
            rs.weight([1, 0]),
            rs.weight([-1, 0]),
        )


def test_ghat_trivial_cases():
    rs = qa.build_root_system("A2")
    anti = qa.lex_chain(rs, rs.weight([-1, 0]))
    x = x_at(rs, "s1")
    assert ghat(anti, x, -10) == genfun(anti, x).truncated(-10)
    zero = qa.compute_levels(rs, (), rs.weight([0, 0]))
    g = ghat(zero, x, -10)
    assert len(g.terms) == 1 and term(g, [0, 0], "s1", [0, 0]).terms == {0: 1}


def test_ghat_a1_expansion():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    x = x_at(rs)
    g = ghat(chain, x, -3)
    # G + q^{-1} G t_{a^vee} + q^{-2} G t_{2a^vee} + q^{-3} G t_{3a^vee}
    expect = GenFun(rs)
    base = genfun(chain, x)
    for k in range(0, 4):
        expect = expect + base.scaled(
            Laurent.q_power(-k), rs.weight([0]), Coroot((k,))
        )
    assert genfun_equal(g, expect.truncated(-3), -3)


def test_ghat_compose_floor_consistency():
    # a deeper floor must restrict to the shallower computation exactly
    rs = qa.build_root_system("A2")
    mu, nu = rs.weight([1, 0]), rs.weight([1, 1])
    cm, cn = qa.lex_chain(rs, mu), qa.lex_chain(rs, nu)
    x = x_at(rs, "s2")
    shallow = ghat_compose(cm, cn, x, -4)
    deep = ghat_compose(cm, cn, x, -7)
    assert genfun_equal(deep, shallow, -4)
    assert genfun_equal(
        ghat_compose(cn, cm, x, -6), ghat(qa.concat_chains(cm, cn), x, -6), -6
    )


def test_genfun_equal_with_floor():
    rs = qa.build_root_system("A1")
    f = GenFun(rs)
    x = x_at(rs)
    f.add_term(rs.weight([0]), x, Laurent.q_power(-9))
    g = GenFun(rs)
    assert genfun_equal(f, g, -5)
    assert not genfun_equal(f, g, -10)
    assert genfun_equal(f, f)


def test_dominant_specialization_invariant():
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        for coeffs in ([1, 0], [0, 1], [1, 1]):
            chain = qa.lex_chain(rs, rs.weight(coeffs))
            f = weight_orbit_sum(chain)
            assert is_weyl_invariant(rs, f)
    # a non-invariant sum is recognized
    rs = qa.build_root_system("A2")
    bogus = {rs.weight([1, 0]): Laurent.q_power(0)}
    assert not is_weyl_invariant(rs, bogus)


def test_genfun_json_deterministic():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    g = genfun(chain, x_at(rs))
    assert g.to_json() == genfun(chain, x_at(rs)).to_json()
    assert g.to_json()[0]["mu"] == [-1]


# -- differential test: the subset enumerator as oracle for the sweep ---------


def reference_genfun(chain, x):
    """G_Gamma(x) summed over the listed admissible subsets."""
    rs = chain.rs
    base = -rs.pair(chain.lam, x.xi)
    out = GenFun(rs)
    for a in qa.enumerate_admissible(chain, x.w):
        coeff = Laurent.q_power(base - a.height, a.sign)
        out.add_term(a.wt, AffineWeylElt(a.ed, x.xi + a.down), coeff)
    return out


def reference_vanishing(chain, w):
    """verify_vanishing's verdict from the listed subsets ("raises" on a positive entry)."""
    acc = {}
    for a in qa.enumerate_admissible(chain, w):
        if len(a.indices) != a.n:
            return "raises"
        acc[a.wt, a.height] = acc.get((a.wt, a.height), 0) + (-1) ** len(a.indices)
    return not any(acc.values())


def count_admissible(chain, w):
    """|A(w, Gamma)|, by counting QBG paths vertex by vertex."""
    counts = {w: 1}
    for beta in chain.roots:
        for v, c in list(counts.items()):
            edge = qa.qbg_edge(chain.rs, v, abs(beta))
            if edge:
                counts[edge.target] = counts.get(edge.target, 0) + c
    return sum(counts.values())


# |lambda_i| bounds per type; the rare case above 2,000 subsets is rejected
WEIGHT_BOUND = {"A2": 2, "C2": 2, "G2": 1, "A3": 1, "B3": 1}


@st.composite
def sweep_cases(draw):
    label = draw(st.sampled_from(sorted(WEIGHT_BOUND)))
    rs = qa.build_root_system(label)
    m = WEIGHT_BOUND[label]
    shape = draw(st.sampled_from(("dominant", "antidominant", "mixed")))
    lo, hi = {"dominant": (0, m), "antidominant": (-m, 0), "mixed": (-m, m)}[shape]
    coeffs = draw(st.lists(st.integers(lo, hi), min_size=rs.rank, max_size=rs.rank))
    if rs.rank == 3 and sum(map(abs, coeffs)) > 2:  # keep most cases small
        coeffs = [c if k < 2 else 0 for k, c in enumerate(coeffs)]
    lam = rs.weight(coeffs)
    kind = draw(st.sampled_from(("lex", "segment", "insert", "yb")))
    if kind == "lex":
        plus, minus = qa.lambda_pm(lam)
        chain = qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))
    else:
        chain = qa.segment_chain(rs, lam)
    if kind == "insert":
        u = draw(st.integers(0, len(chain)))
        beta = draw(st.sampled_from(rs.positive_roots))
        try:
            chain = qa.insert_pair(chain, u, beta)
        except qa.ChainError:
            pass
    if kind == "yb":
        segments = qa.find_yb_segments(chain)
        if segments:
            t, q, _, _ = draw(st.sampled_from(segments))
            chain = qa.yb_transform(chain, t, q)
    w = draw(st.sampled_from(rs.weyl_elements))
    assume(count_admissible(chain, w) <= 2000)
    xi = draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    return chain, AffineWeylElt(w, Coroot(tuple(xi)))


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
def test_sweep_against_enumerator(case):
    chain, x = case
    rs, lam = chain.rs, chain.lam
    assert genfun(chain, x).to_json() == reference_genfun(chain, x).to_json()
    if lam.is_antidominant and not lam.is_zero():
        try:
            got = verify_vanishing(rs, lam, x.w, chain)
        except RuntimeError:
            got = "raises"
        assert got == reference_vanishing(chain, x.w)
