import copy
import json
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qalcove as qa
from qalcove import qbg
from qalcove.charident import (
    FormalChar,
    _expand,
    rhs_chevalley,
    verify_factorization,
    verify_vanishing,
)
from qalcove.genfun import (
    AffineWeylElt,
    GenFun,
    ParTuple,
    add_block,
    compose,
    genfun,
    genfun_equal,
    genfun_extend,
    ghat,
    ghat_compose,
    is_weyl_invariant,
    par_enumerate,
    par_convolve,
    par_groups,
    q_str,
    table_json,
    weight_orbit_sum,
)
from qalcove.rootsys import Coroot, Weight, WeylElement
from polys import add, shift
from table_shapes import blocks, flat


def x_at(rs, word="e", xi=None):
    return AffineWeylElt(
        rs.element_from_word(word), Coroot(tuple(xi or (0,) * rs.rank))
    )


def term(g, mu, word, xi):
    rs = g.rs
    key = (rs.weight(mu), rs.element_from_word(word), Coroot(tuple(xi)))
    return g.terms.get(key)


def test_q_str_canonical_form():
    a = add({-2: 1}, {0: 3})
    assert q_str(a) == "q^-2+3"
    assert q_str(shift(a, 0, -1)) == "-q^-2-3"
    assert q_str(add(a, shift(a, 0, -1))) == "0"
    assert q_str({e: c for e, c in a.items() if e >= 0}) == "3"
    assert q_str(shift({1: 1}, -1)) == "1"
    assert q_str({1: -1, 2: 1, -1: 5, 3: -12}) == "5*q^-1-q+q^2-12*q^3"


def parse_q(text):
    """The {exponent: count} of q_str's text, read back."""
    if text == "0":
        return {}
    out = {}
    for sign, coeff, mono, power in re.findall(r"([+-]?)(?:(\d+)\*?)?(q(?:\^(-?\d+))?)?", text):
        if not (coeff or mono):
            continue
        e = (int(power) if power else 1) if mono else 0
        out[e] = (-1 if sign == "-" else 1) * int(coeff or 1)
    return out


def test_q_str_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        poly = {rng.randint(-12, 12): rng.choice((-13, -2, -1, 1, 2, 7)) for _ in range(rng.randint(0, 4))}
        text = q_str(poly)
        assert (text == "0") == (not poly)
        assert parse_q(text) == poly


def test_genfun_a1_examples():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    g = genfun(chain, x_at(rs))
    assert len(g.terms) == 2
    assert term(g, [1], "e", [0]) == {0: 1}
    assert term(g, [-1], "s1", [0]) == {0: 1}
    g = genfun(chain, x_at(rs, "s1"))
    assert term(g, [-1], "s1", [0]) == {0: 1}
    assert term(g, [1], "e", [1]) == {-1: 1}


def test_genfun_zero_chain():
    rs = qa.build_root_system("A2")
    chain = qa.compute_levels(rs, (), rs.weight([0, 0]))
    x = x_at(rs, "s1s2", [1, 0])
    g = genfun(chain, x)
    assert len(g.terms) == 1
    assert term(g, [0, 0], "s1s2", [1, 0]) == {0: 1}


def test_extend_linearity_base_case():
    rs = qa.build_root_system("A1")
    chain = qa.lex_chain(rs, rs.weight([1]))
    x = x_at(rs, "s1")
    single = GenFun(rs)
    single.add_term(rs.weight([0]), x, {0: 1})
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
                shift(c, -h, -1),
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


def par_concat(psi: ParTuple, omega: ParTuple, mu: Weight, nu: Weight) -> ParTuple:
    """The concatenation psi * omega for a cancellation-free mu + nu: on each
    node, psi's first part added to each of omega's rows (max(nu_i, 0) of
    them), then psi's rows."""
    if not qa.is_cancellation_free([mu, nu]):
        raise ValueError("decomposition must be cancellation free")
    parts = []
    for i in range(len(mu.coeffs)):
        m1, m2 = mu.coeffs[i], nu.coeffs[i]
        p, o = psi.parts[i], omega.parts[i]
        if m1 <= 0 and m2 <= 0:
            if p or o:
                raise ValueError("nonempty partition on a nonpositive node")
            parts.append(())
            continue
        width = p[0] if p else 0
        rows = [width + (o[r] if r < len(o) else 0) for r in range(max(m2, 0))]
        rows.extend(p)
        parts.append(tuple(r for r in rows if r > 0))
    return ParTuple(tuple(parts))


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
    assert len(g.terms) == 1 and term(g, [0, 0], "s1", [0, 0]) == {0: 1}


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
            {-k: 1}, rs.weight([0]), Coroot((k,))
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
    f.add_term(rs.weight([0]), x, {-9: 1})
    g = GenFun(rs)
    assert genfun_equal(f, g, -5)
    assert not genfun_equal(f, g, -10)
    assert genfun_equal(f, f)


def test_sums_of_different_root_systems_differ():
    # the tables hold element indices, and an index means a different
    # element in another root system
    a2, c2 = qa.build_root_system("A2"), qa.build_root_system("C2")
    f, g = GenFun(a2), GenFun(c2)
    fc, gc = FormalChar(a2, a2.weight([0, 0])), FormalChar(c2, c2.weight([0, 0]))
    for rs, h, hc in ((a2, f, fc), (c2, g, gc)):
        h.add_term(rs.weight([1, 0]), x_at(rs, "s1"), {-1: 1})
        hc.add_symbol(rs.weight([1, 0]), x_at(rs, "s1"), {-1: 1})
    assert f.table == g.table and f != g
    assert fc.table == gc.table and fc != gc


def random_genfun(rng, rs, terms):
    f = GenFun(rs)
    for _ in range(terms):
        mu = rs.weight([rng.randint(-1, 1) for _ in range(rs.rank)])
        x = AffineWeylElt(rng.choice(rs.weyl_elements), Coroot((rng.randint(-1, 1),) * rs.rank))
        f.add_term(mu, x, {rng.randint(-6, 2): rng.choice((-2, -1, 1, 2))})
    return f


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), floor=st.integers(-6, 3))
def test_genfun_equal_against_truncated(seed, floor):
    rng = random.Random(seed)
    rs = qa.build_root_system(rng.choice(("A1", "A2")))
    f = random_genfun(rng, rs, rng.randint(0, 6))
    g = random_genfun(rng, rs, rng.randint(0, 6))
    # g2 differs from f only below the floor; g3 loses one term of f above it
    g2 = GenFun(rs, dict(f.terms))
    g2.add_term(rs.weight([0] * rs.rank), x_at(rs), {floor - 1: 3})
    g3 = GenFun(rs, dict(f.terms))
    above = [(k, e) for k, c in f.terms.items() for e in c if e >= floor]
    if above:
        (mu, w, xi), e = rng.choice(above)
        g3.add_term(mu, AffineWeylElt(w, xi), {e: -f.terms[mu, w, xi][e]})
    for a, b in ((f, g), (f, g2), (g2, f), (f, g3), (g3, f), (f, f)):
        expect = a.truncated(floor) == b.truncated(floor)
        assert genfun_equal(a, b, floor) == expect
    assert genfun_equal(f, g2, floor)
    assert genfun_equal(f, g3, floor) == (not above)


def test_dominant_specialization_invariant():
    for label, weights in (
        ("A2", ([1, 0], [0, 1], [1, 1])),
        ("C2", ([1, 0], [0, 1], [1, 1])),
        ("G2", ([1, 0], [1, 1])),
        ("B3", ([0, 0, 1], [1, 0, 1])),
    ):
        rs = qa.build_root_system(label)
        for coeffs in weights:
            chain = qa.lex_chain(rs, rs.weight(coeffs))
            f = weight_orbit_sum(chain)
            assert is_weyl_invariant(rs, f)
            expect = {}
            for a in qa.enumerate_admissible(chain, rs.identity):
                expect[a.wt] = add(expect.get(a.wt, {}), {a.height: 1})
            assert f == expect
    # a non-invariant sum is recognized, also one holding a zero coefficient
    rs = qa.build_root_system("A2")
    bogus = {rs.weight([1, 0]): {0: 1}}
    assert not is_weyl_invariant(rs, bogus)
    assert not is_weyl_invariant(rs, {rs.weight([1, 0]): {0: 1, 2: 0}, rs.weight([0, 1]): {0: 0}})


def test_zero_coefficient_is_absent():
    # a zero count that a caller passes counts as absent: the table, the
    # character and the invariance verdict are those of the input without it
    rs = qa.build_root_system("A2")
    x, y = x_at(rs, "s1", [1, 0]), x_at(rs, "s2")
    mu, nu = rs.weight([1, 0]), rs.weight([0, -1])
    f, g = GenFun(rs), GenFun(rs)
    f.add_term(mu, x, {-1: 2, 3: 0})
    f.add_term(nu, y, {0: 0})
    g.add_term(mu, x, {-1: 2})
    assert f == g and len(f.terms) == 1 and f.terms[mu, x.w, x.xi] == {-1: 2}
    assert f.scaled({0: 1, 5: 0}, mu, x.xi) == g.scaled({0: 1}, mu, x.xi)
    char, plain = FormalChar(rs, mu), FormalChar(rs, mu)
    char.add_symbol(mu, x, {-1: 2, 0: 0})
    char.add_symbol(nu, y, {4: 0})
    plain.add_symbol(mu, x, {-1: 2})
    assert char == plain and len(char.terms) == 1
    orbit = weight_orbit_sum(qa.lex_chain(rs, rs.weight([1, 0])))
    assert is_weyl_invariant(rs, orbit)
    padded = {w: {**p, 7: 0} for w, p in orbit.items()}
    padded[rs.weight([3, -1])] = {0: 0}
    assert is_weyl_invariant(rs, padded)
    # a zero count does not hide a term that breaks the invariance
    broken = {w: dict(p) for w, p in padded.items()}
    broken[rs.weight([1, 0])][-9] = 1
    assert not is_weyl_invariant(rs, broken)
    assert is_weyl_invariant(rs, {rs.weight([0, 0]): {0: 0}}) and is_weyl_invariant(rs, {})


def test_weight_orbit_sum_needs_positive_roots():
    # a negative root would give signed counts, which may cancel
    rs = qa.build_root_system("A2")
    for chain in (
        qa.lex_chain(rs, rs.weight([-1, 0])),
        qa.segment_chain(rs, rs.weight([1, -1])),
        lex_pm(rs, rs.weight([2, -1])),
    ):
        assert not all(beta.is_positive for beta in chain.roots)
        with pytest.raises(ValueError):
            weight_orbit_sum(chain)


def q1_character(chain):
    """sum over A(e, chain) of e^{wt(A)}: G at x = e t_0, coefficients summed per mu."""
    return {mu.coeffs: sum(c.values()) for mu, c in weight_orbit_sum(chain).items()}


def char_product(f, g):
    out = {}
    for mu, a in f.items():
        for nu, b in g.items():
            key = tuple(x + y for x, y in zip(mu, nu))
            out[key] = out.get(key, 0) + a * b
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize(
    "label, coeffs",
    [
        ("A1xA1", (2, 1)), ("A2", (2, 1)), ("C2", (1, 1)), ("C2", (2, 1)), ("G2", (1, 1)),
        ("G2", (2, 0)), ("A3", (1, 0, 1)), ("B3", (1, 0, 1)), ("C3", (0, 1, 1)),
    ],
)
def test_q1_character_factors_over_fundamental_chains(label, coeffs):
    # at q = 1 (the t = 0 Macdonald specialization) the weights of A(e, lex
    # lambda) sum to the product over i of the same sum for omega_i, taken
    # lambda_i times: the level-zero fundamental modules' tensor product
    rs = qa.build_root_system(label)
    want = {(0,) * rs.rank: 1}
    for i, m in enumerate(coeffs):
        omega = [int(j == i) for j in range(rs.rank)]
        for _ in range(m):
            want = char_product(want, q1_character(qa.lex_chain(rs, rs.weight(omega))))
    got = q1_character(qa.lex_chain(rs, rs.weight(list(coeffs))))
    assert got == want
    if (label, coeffs) == ("C2", (1, 1)):
        # the enumerator as the slow oracle: every subset of a dominant
        # chain counts +1
        slow = {}
        for a in qa.enumerate_admissible(qa.lex_chain(rs, rs.weight([1, 1])), rs.identity):
            assert a.sign == 1
            slow[a.wt.coeffs] = slow.get(a.wt.coeffs, 0) + 1
        assert slow == got


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
        coeff = {base - a.height: a.sign}
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
def sweep_cases(draw, bounds=WEIGHT_BOUND):
    label = draw(st.sampled_from(sorted(bounds)))
    rs = qa.build_root_system(label)
    m = bounds[label]
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


def reference_weight_sums(chain, w):
    """sum of (-1)^n over the listed subsets of A(w, chain), by (wt, height)."""
    acc = {}
    for a in qa.enumerate_admissible(chain, w):
        key = (a.wt.coeffs, a.height)
        acc[key] = acc.get(key, 0) + a.sign
    return {k: c for k, c in acc.items() if c}


# a dominant, an antidominant and a mixed weight per type; the mixed chain is
# lex(lambda+) lex(lambda-), and the dominant chain is also taken with a
# pair (theta, -theta) inserted, so that signed counts cancel in nonzero sums
WEIGHT_SUM_CASES = {
    "A2": ((2, 1), (-1, -2), (2, -1)),
    "C2": ((1, 2), (-2, -1), (-1, 2)),
    "G2": ((1, 1), (-2, -1), (1, -1)),
    "A3": ((1, 0, 1), (0, -1, -1), (1, -1, 0)),
    "B3": ((1, 0, 1), (-1, 0, -1), (0, 1, -1)),
}


def with_highest_pair(chain):
    """chain with (theta, -theta) inserted at the first position that takes it."""
    for u in range(len(chain) + 1):
        try:
            return qa.insert_pair(chain, u, chain.rs.highest_root)
        except qa.ChainError:
            continue
    raise AssertionError("no position takes the pair")


@pytest.mark.parametrize("label", sorted(WEIGHT_SUM_CASES))
def test_weight_sums_against_enumerator(label):
    # every w with at most 2,000 subsets, as in test_sweep_against_enumerator;
    # the nonzero sums must match, not only their vanishing
    rs = qa.build_root_system(label)
    dom, anti, mixed = (rs.weight(list(c)) for c in WEIGHT_SUM_CASES[label])
    chains = [qa.lex_chain(rs, dom), qa.lex_chain(rs, anti)]
    chains.append(qa.concat_chains(*(qa.lex_chain(rs, part) for part in qa.lambda_pm(mixed))))
    chains.append(with_highest_pair(chains[0]))
    nonzero = set()
    for k, chain in enumerate(chains):
        for w in rs.weyl_elements:
            if count_admissible(chain, w) <= 2000:
                got = qa.weight_sums(chain, w)
                assert got == reference_weight_sums(chain, w)
                if got:
                    nonzero.add(k)
    assert nonzero == {0, 3}


# -- differential test: the enumerator as oracle for the seeded sweep ---------


def reference_extend(chain, f):
    """G_Gamma over a formal sum, one (term, subset) at a time."""
    rs = chain.rs
    out = GenFun(rs)
    for (mu, w, xi), c in f.terms.items():
        base = -rs.pair(chain.lam, xi)
        for a in qa.enumerate_admissible(chain, w):
            coeff = shift(c, base - a.height, a.sign)
            out.add_term(mu + a.wt, AffineWeylElt(a.ed, xi + a.down), coeff)
    return out


def reference_nested(rs, mu, lam, x, q_floor):
    """The nested side of verify_factorization, one (A, B, chi) at a time."""
    lam_p, lam_m = qa.lambda_pm(lam)
    chain_p, chain_m = qa.lex_chain(rs, lam_p), qa.lex_chain(rs, lam_m)
    pairs = []
    for a in qa.enumerate_admissible(chain_p, x.w):
        for b in qa.enumerate_admissible(chain_m, a.ed):
            c = (
                -a.height
                - rs.pair(lam_p, x.xi)
                - b.height
                - rs.pair(lam_m, x.xi + a.down)
                - rs.pair(mu, x.xi + a.down + b.down)
            )
            pairs.append((a.wt + b.wt, b.ed, c, a.sign * b.sign))
    out = FormalChar(rs, mu)
    tuples = par_enumerate(rs, lam_p, max(c for *_k, c, _s in pairs) - q_floor)
    for wt, ed, c, sign in pairs:
        for chi in tuples:
            e = c - chi.size - rs.pair(lam_m + mu, chi.iota())
            if e >= q_floor:
                out.add_symbol(wt, AffineWeylElt(ed, Coroot((0,) * rs.rank)), {e: sign})
    return out


@st.composite
def seeded_cases(draw, label):
    rs = qa.build_root_system(label)
    m = WEIGHT_BOUND[label]

    def vector(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=rs.rank, max_size=rs.rank))

    def chain(size):
        coeffs = vector(-m, m)
        if rs.rank == 3 and sum(map(abs, coeffs)) > size:  # keep most cases small
            coeffs = [c if k < size else 0 for k, c in enumerate(coeffs)]
        lam = rs.weight(coeffs)
        return lex_pm(rs, lam) if draw(st.booleans()) else qa.segment_chain(rs, lam)

    def point():
        return AffineWeylElt(draw(st.sampled_from(rs.weyl_elements)), Coroot(tuple(vector(-2, 2))))

    chain1, chain2, x = chain(2), chain(1), point()
    # a formal sum with nonzero mu and xi and polynomial coefficients
    f = GenFun(rs)
    for _ in range(draw(st.integers(1, 3))):
        mu = vector(-2, 2)
        assume(any(mu))
        poly = draw(st.dictionaries(st.integers(-3, 3), st.sampled_from((-2, -1, 1, 3)), min_size=1, max_size=3))
        f.add_term(rs.weight(mu), point(), poly)
    assume(sum(count_admissible(chain1, w) for _mu, w, _xi in f.terms) <= 2000)
    # one term whose empty subset cancels a term of another's image
    image = reference_extend(chain1, f).terms
    assume(image)
    (wt, ed, xi), c = draw(st.sampled_from(sorted(
        image.items(), key=lambda kv: (kv[0][0].coeffs, kv[0][1].index, kv[0][2].coeffs)
    )))
    e = draw(st.sampled_from(sorted(c)))
    mu = wt - rs.act(ed, chain1.lam)
    assume((mu, ed, xi) not in f.terms)
    f.add_term(mu, AffineWeylElt(ed, xi), {e + rs.pair(chain1.lam, xi): -c[e]})
    assume(count_admissible(qa.concat_chains(chain2, chain1), x.w) <= 2000)
    return chain1, chain2, x, f


@pytest.mark.parametrize("label", sorted(WEIGHT_BOUND))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_seeded_sweep_against_enumerator(label, data):
    chain1, chain2, x, f = data.draw(seeded_cases(label))
    assert genfun_extend(chain1, f) == reference_extend(chain1, f)
    assert compose(chain1, chain2, x) == reference_extend(chain1, reference_genfun(chain2, x))


@st.composite
def factorization_cases(draw, label):
    rs = qa.build_root_system(label)
    m = WEIGHT_BOUND[label]
    coeffs = draw(st.lists(st.integers(-m, m), min_size=rs.rank, max_size=rs.rank))
    if rs.rank == 3 and sum(map(abs, coeffs)) > 2:
        coeffs = [c if k < 2 else 0 for k, c in enumerate(coeffs)]
    lam = rs.weight(coeffs)
    mu = rs.weight(draw(st.lists(st.integers(0, 1), min_size=rs.rank, max_size=rs.rank)))
    w = draw(st.sampled_from(rs.weyl_elements))
    xi = draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    assume(count_admissible(lex_pm(rs, lam), w) <= 2000)
    return rs, mu, lam, AffineWeylElt(w, Coroot(tuple(xi))), draw(st.integers(0, 4))


@pytest.mark.parametrize("label", sorted(WEIGHT_BOUND))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_factorization_nested_side_against_enumerator(label, data):
    rs, mu, lam, x, depth = data.draw(factorization_cases(label))
    lam_p, lam_m = qa.lambda_pm(lam)
    g = compose(qa.lex_chain(rs, lam_m), qa.lex_chain(rs, lam_p), x)
    assume(g.terms)
    floor = max(e - rs.pair(mu, xi) for (_wt, _ed, xi), c in g.terms.items() for e in c) - depth
    nested = _expand(rs, mu, g, lam_p, lam_m + mu, floor)
    assert nested == reference_nested(rs, mu, lam, x, floor)
    assert nested == rhs_chevalley(rs, mu, lam, lex_pm(rs, lam), x, floor)
    assert verify_factorization(rs, mu, lam, x, floor)


# -- differential test: per-tuple sums as oracle for the grouped convolution --


# mixed-sign weights per type, small enough that par_enumerate lists every
# tuple up to size 14
PAR_GROUP_LAMBDAS = {
    "A1": ([-1], [0], [1], [3]),
    "A2": ([2, 1], [-1, 0], [2, -1], [0, 0]),
    "C2": ([2, 2], [1, -1], [-2, 3]),
    "G2": ([1, 1], [0, -1], [3, 0]),
    "A3": ([1, -1, 1], [0, 2, 0]),
    "B3": ([1, 1, 1], [-1, 0, 2]),
    "C3": ([1, 0, 1], [2, -1, -1]),
}


def test_par_groups_count_tuples():
    for label, lambdas in PAR_GROUP_LAMBDAS.items():
        rs = qa.build_root_system(label)
        for coeffs in lambdas:
            lam = rs.weight(coeffs)
            for bound in range(-1, 15):
                tuples = par_enumerate(rs, lam, bound)
                groups = par_groups(rs, lam, bound)
                assert sum(m for _iota, _size, m in groups) == len(tuples)
                expect = {}
                for chi in tuples:
                    expect[chi.iota(), chi.size] = expect.get((chi.iota(), chi.size), 0) + 1
                assert {(iota, size): m for iota, size, m in groups} == expect
                assert len(groups) == len(expect)
                sizes = [size for _iota, size, _m in groups]
                assert sizes == sorted(sizes)
    c2 = qa.build_root_system("C2")
    assert len(par_groups(c2, c2.weight([2, 2]), 10)) == 216  # of 336 tuples


def reference_ghat(chain, x, q_floor):
    """Ghat summed tuple by tuple, then truncated."""
    rs = chain.rs
    g = genfun(chain, x)
    top = g.max_exponent()
    out = GenFun(rs)
    if top is None:
        return out
    for chi in par_enumerate(rs, chain.lam, top - q_floor):
        out = out + g.scaled(
            {-chi.size: 1}, rs.weight([0] * rs.rank), chi.iota()
        )
    return out.truncated(q_floor)


def reference_ghat_compose(chain1, chain2, x, q_floor):
    """Ghat_{Gamma1} o Ghat_{Gamma2}(x), one (B, A, omega, psi) at a time."""
    rs = chain1.rs
    mu1, mu2 = chain1.lam, chain2.lam
    pairs = [
        (b, a, -b.height - rs.pair(mu2, x.xi) - a.height - rs.pair(mu1, x.xi + b.down))
        for b in qa.enumerate_admissible(chain2, x.w)
        for a in qa.enumerate_admissible(chain1, b.ed)
    ]
    out = GenFun(rs)
    bound = max(c for _b, _a, c in pairs) - q_floor
    omegas, psis = par_enumerate(rs, mu2, bound), par_enumerate(rs, mu1, bound)
    for b, a, c in pairs:
        for omega in omegas:
            for psi in psis:
                e = c - omega.size - rs.pair(mu1, omega.iota()) - psi.size
                if e >= q_floor:
                    xi = x.xi + b.down + omega.iota() + a.down + psi.iota()
                    out.add_term(
                        a.wt + b.wt, AffineWeylElt(a.ed, xi),
                        {e: a.sign * b.sign},
                    )
    return out


def reference_rhs(rs, mu, lam, chain, x, q_floor):
    """rhs_chevalley's terms, one (A, chi) at a time."""
    subsets = qa.enumerate_admissible(chain, x.w)
    base = -rs.pair(lam, x.xi) - rs.pair(mu, x.xi)
    heads = [base - a.height - rs.pair(mu, a.down) for a in subsets]
    tuples = par_enumerate(rs, lam, max(heads) - q_floor)
    out = {}
    for a, head in zip(subsets, heads):
        for chi in tuples:
            e = head - chi.size - rs.pair(mu, chi.iota())
            if e >= q_floor:
                key = (a.wt, a.ed)
                out[key] = add(out.get(key, {}), {e: a.sign})
    return {k: v for k, v in out.items() if v}


def lex_pm(rs, lam):
    plus, minus = qa.lambda_pm(lam)
    return qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))


# sum of |lambda_i| per type, split between the two composed chains
CONVOLUTION_SIZE = {"A1": 4, "A2": 4, "C2": 2, "G2": 2, "A3": 2, "B3": 1}


@st.composite
def convolution_cases(draw):
    label = draw(st.sampled_from(sorted(CONVOLUTION_SIZE)))
    rs = qa.build_root_system(label)
    budget = CONVOLUTION_SIZE[label]
    mu1, mu2 = [], []
    for _ in range(rs.rank):
        a1 = draw(st.integers(0, budget))
        a2 = draw(st.integers(0, budget - a1))
        budget -= a1 + a2
        sign = draw(st.sampled_from((1, -1)))  # one sign per node: cancellation free
        mu1.append(sign * a1)
        mu2.append(sign * a2)
    w = draw(st.sampled_from(rs.weyl_elements))
    xi = draw(st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank))
    mu = draw(st.lists(st.integers(0, 1), min_size=rs.rank, max_size=rs.rank))
    depth = draw(st.integers(0, 6))
    return rs, rs.weight(mu1), rs.weight(mu2), rs.weight(mu), AffineWeylElt(w, Coroot(tuple(xi))), depth


def convolution_case(label, mu1, mu2, mu, word, xi, depth):
    rs = qa.build_root_system(label)
    x = x_at(rs, word, xi)
    return rs, rs.weight(mu1), rs.weight(mu2), rs.weight(mu), x, depth


@settings(max_examples=25, deadline=None)
@given(case=convolution_cases())
# groups of several tuples: (2,1,1) and (2,2) on one node; (2,1),(1) and
# (2),(1,1) across two nodes
@example(case=convolution_case("A1", [3], [1], [1], "s1", [1], 6))
@example(case=convolution_case("A2", [1, 1], [1, 1], [0, 1], "s2", [1, -1], 3))
# the floor one above G's top exponent: no tuple reaches it, in all three hats
@example(case=convolution_case("A1", [3], [1], [1], "s1", [1], -1))
@example(case=convolution_case("C2", [1, -1], [1, 0], [1, 1], "s1s2", [0, 1], -1))
def test_grouped_convolution_against_per_tuple(case):
    rs, mu1, mu2, mu, x, depth = case
    lam = mu1 + mu2
    chain = lex_pm(rs, lam)
    floor = genfun(chain, x).max_exponent() - depth
    assert ghat(chain, x, floor) == reference_ghat(chain, x, floor)
    c1, c2 = lex_pm(rs, mu1), lex_pm(rs, mu2)
    assert ghat_compose(c1, c2, x, floor) == reference_ghat_compose(c1, c2, x, floor)
    floor -= rs.pair(mu, x.xi)
    f = rhs_chevalley(rs, mu, lam, chain, x, floor)
    assert f.terms == reference_rhs(rs, mu, lam, chain, x, floor)


def reference_convolve(heads, rs, lam, q_floor, shift=None):
    """par_convolve summed one head and one partition tuple at a time."""
    out = {}
    top = max(max(p) for p in flat(heads).values())
    for chi in par_enumerate(rs, lam, top - q_floor):
        iota = chi.iota()
        drop = chi.size + (0 if shift is None else rs.pair(shift, iota))
        for prefix, block in heads.items():
            for tail, poly in block.items():
                shifted = tuple(tuple(a + b for a, b in zip(xi, iota.coeffs)) for xi in tail)
                for e, c in poly.items():
                    if e - drop >= q_floor:
                        add_block(out, prefix, {shifted: {e - drop: c}})
    return out


def test_convolution_blocks_against_per_tuple():
    a1 = qa.build_root_system("A1")
    lam = a1.weight([2])
    # prefixes (1,) s1, (0,) e, (2,) s1 and (3,) s1 carry one head set, the
    # second and the last with their heads in the opposite order, the second
    # also with a poly's exponents in another order; its chi = (1) shift of
    # q^1 at xi = -1 cancels the chi = () term q^0 at xi = 0, so above floor
    # 0 the key xi = 0 is empty
    heads = blocks({
        ((1,), 1, (0,)): {0: 1, -2: 3},
        ((1,), 1, (-1,)): {1: -1},
        ((0,), 0, (-1,)): {1: -1},
        ((0,), 0, (0,)): {-2: 3, 0: 1},
        ((0,), 1, (0,)): {0: 1},
        ((2,), 0, (3,)): {-1: 2, 1: -5},
        ((2,), 1, (0,)): {0: 1, -2: 3},
        ((2,), 1, (-1,)): {1: -1},
        ((3,), 1, (-1,)): {1: -1},
        ((3,), 1, (0,)): {0: 1, -2: 3},
    })
    for floor in (0, -1, -3, -6):
        out = par_convolve(heads, a1, lam, floor)
        assert out == reference_convolve(heads, a1, lam, floor)
        repeated = [out[prefix] for prefix in (((1,), 1), ((0,), 0), ((2,), 1), ((3,), 1))]
        assert repeated[0] == repeated[1] == repeated[2] == repeated[3]
        # a repeated head block, whatever the order of its heads, gives the
        # same output block (copy-on-write add_block keeps the prefixes
        # apart, see test_ghat_terms_are_independent)
        assert repeated[2] is repeated[0] and repeated[3] is repeated[0]
    assert ((1,), 1, (0,)) not in flat(par_convolve(heads, a1, lam, 0))
    assert flat(par_convolve(heads, a1, lam, -1))[(1,), 1, (0,)] == {-1: -1}
    # the character expansion's form: empty tails and a shift
    c2 = qa.build_root_system("C2")
    heads = blocks({
        ((1, 0), 2): {0: 1, -1: -2},
        ((0, 1), 3): {-1: -2, 0: 1},
        ((0, 0), 0): {2: 1, 1: -1},
    })
    for floor in (-1, -4):
        out = par_convolve(heads, c2, c2.weight([1, 1]), floor, c2.weight([1, 0]))
        assert out == reference_convolve(heads, c2, c2.weight([1, 1]), floor, c2.weight([1, 0]))


@st.composite
def head_tables(draw):
    """(type, lambda, heads, floor, shift) for par_convolve: a few prefixes of
    small signed heads, their tails all (xi,) or all () (the character
    expansion's form), an optional dominant shift and a floor near the top."""
    label, lam = draw(st.sampled_from((("A1", (2,)), ("A1", (3,)), ("A2", (1, 1)), ("A2", (2, 1)))))
    rs = qa.build_root_system(label)
    vec = st.tuples(*[st.integers(0, 2)] * rs.rank)
    tail = st.just(()) if draw(st.booleans()) else st.tuples(vec)
    poly = st.dictionaries(st.integers(-3, 1), st.integers(-2, 2).filter(bool), min_size=1, max_size=3)
    prefix = st.tuples(st.tuples(*[st.integers(-1, 1)] * rs.rank), st.integers(0, len(rs.weyl_elements) - 1))
    heads = draw(st.dictionaries(prefix, st.dictionaries(tail, poly, min_size=1, max_size=3), min_size=1, max_size=3))
    return label, lam, heads, draw(st.integers(-6, 2)), draw(st.none() | vec)


@settings(max_examples=80, deadline=None)
@given(case=head_tables())
# two tails of one block meet at (1,) and at (2,), where their parts cancel
@example(case=("A1", (2,), {((0,), 0): {((0,),): {0: 1}, ((1,),): {-1: -1, -2: -1}}}, -2, None))
# q^0 - q^-1 times the ladder q^-1 + q^-2 of iota = 1 is q^-1 - q^-3; a head
# folded by the character expansion may hold zero counts only, and then
# every part of it cancels to nothing
@example(case=("A1", (2,), {((0,), 0): {((0,),): {0: 1, -1: -1}}}, -3, None))
@example(case=("A2", (1, 1), {((0, 0), 0): {(): {0: 0, -1: 0}}, ((1, 0), 1): {(): {-1: 2}}}, -3, (1, 0)))
# the character expansion's form: empty tails, one ladder, and a shift
@example(case=("C2", (1, 1), {((1, 0), 2): {(): {0: 1, -1: -2}}, ((0, 1), 3): {(): {-1: -2, 0: 1}},
                              ((0, 0), 0): {(): {2: 1, 1: -1}}}, -4, (1, 0)))
# q^-1 reaches drop 1 only: the ladder of iota = (1, 0), lowest drop 1,
# must come before that of (0, 2), lowest drop 2
@example(case=("A2", (1, 1), {((0, 0), 0): {((0, 0),): {0: 1}, ((1, 1),): {-1: 1}}}, -2, None))
# the floor above every head exponent: no tuple at all
@example(case=("A2", (2, 1), {((0, 0), 0): {((0, 0),): {-1: 1}, ((1, 0),): {0: 3}}}, 1, None))
def test_convolution_parts_against_per_tuple(case):
    label, lam, heads, floor, shift = case
    rs = qa.build_root_system(label)
    shift = None if shift is None else rs.weight(list(shift))
    out = par_convolve(heads, rs, rs.weight(list(lam)), floor, shift)
    assert out == reference_convolve(heads, rs, rs.weight(list(lam)), floor, shift)


def test_convolution_parts_cancel_to_absent_keys():
    a1, a2 = qa.build_root_system("A1"), qa.build_root_system("A2")
    # target (1,): q^-1 + q^-2 from (0,) and iota = 1, and its negative from
    # (1,); target (2,): q^-2 from (0,) and iota = 2, -q^-2 from (1,) and 1
    heads = {((0,), 0): {((0,),): {0: 1}, ((1,),): {-1: -1, -2: -1}}}
    assert par_convolve(heads, a1, a1.weight([2]), -2) == {((0,), 0): {((0,),): {0: 1}}}
    # no heads (which reference_convolve cannot take): no tuple, no term
    assert par_convolve({}, a2, a2.weight([2, 1]), 0) == {}


def snapshot(f):
    return {k: dict(p) for k, p in flat(f.table).items()}


def shares_blocks(f):
    return len({id(b) for b in f.table.values()}) < len(f.table)


def shares_polys(f):
    """Whether two keys of distinct blocks of f hold one q-polynomial object."""
    distinct = {id(b): b for b in f.table.values()}.values()
    polys = [id(p) for block in distinct for p in block.values()]
    return len(set(polys)) < len(polys)


def assert_terms_independent(f, add):
    """Adding to one key of f, through add(f, key, marker), leaves every
    other key as it was."""
    before = snapshot(f)
    for i, key in enumerate(list(before)):
        marker = 1000 + i
        add(f, key, marker)
        before[key][marker] = 1
        assert flat(f.table) == before


def add_marker(f, key, marker):
    mu, w, xi = key
    f.add_term(Weight(mu), AffineWeylElt(f.rs.weyl_elements[w], Coroot(xi)), {marker: 1})


def assert_operations_independent(f, g, floor):
    """The sum of f and g (which shares dicts with both), f scaled and f
    truncated at floor: adding to any key of these, or of f, through
    add_term and so add_block, leaves every other key and both operands as
    they were."""
    rs = f.rs
    f_before, g_before = snapshot(f), snapshot(g)
    total = f + g
    assert total.terms == {k: add(f.terms.get(k, {}), g.terms.get(k, {})) for k in total.terms}
    shifted = f.scaled({0: 1, -1: -2}, rs.weight([1, 0]), Coroot((0, 1)))
    assert len(flat(shifted.table)) == len(flat(f.table))
    cut = f.truncated(floor)
    assert flat(cut.table) == {k: q for k, p in f_before.items() if (q := {e: c for e, c in p.items() if e >= floor})}
    for h in (total, shifted, cut):
        assert_terms_independent(h, add_marker)
    assert snapshot(f) == f_before and snapshot(g) == g_before
    assert_terms_independent(f, add_marker)
    assert snapshot(g) == g_before


def test_ghat_terms_are_independent():
    # G2 at lambda = (1, 1) puts 100 heads on 92 prefixes with 10 head sets
    rs = qa.build_root_system("G2")
    chain = qa.lex_chain(rs, rs.weight([1, 1]))
    x = x_at(rs)
    top = genfun(chain, x).max_exponent()
    f = ghat(chain, x, top - 3)
    assert shares_blocks(f)
    assert_operations_independent(f, ghat(chain, x_at(rs, "s1"), top - 3), top - 1)
    # C2 at lambda = (2, 2): 140 prefixes on 43 distinct output blocks, and
    # those blocks share each part dict (a head poly times a ladder)
    b2 = qa.build_root_system("C2")
    chain = qa.lex_chain(b2, b2.weight([2, 2]))
    top = genfun(chain, x_at(b2)).max_exponent()
    f = ghat(chain, x_at(b2), top - 2)
    assert shares_blocks(f) and shares_polys(f)
    assert_operations_independent(f, ghat(chain, x_at(b2, "s1"), top - 2), top - 1)
    # the hatted composition, A2 lambda = (2, 0) + (0, -2)
    a2 = qa.build_root_system("A2")
    c1, c2 = qa.lex_chain(a2, a2.weight([2, 0])), qa.lex_chain(a2, a2.weight([0, -2]))
    h = ghat_compose(c1, c2, x_at(a2), -8)
    assert shares_blocks(h)
    assert_terms_independent(h, add_marker)
    # a character expansion, through add_symbol (at xi = 0, so unnormalized)
    c2 = qa.build_root_system("C2")
    char = rhs_chevalley(c2, c2.weight([1, 1]), c2.weight([2, 1]),
                         qa.lex_chain(c2, c2.weight([2, 1])), x_at(c2), -8)

    def add_symbol(f, key, marker):
        mu, w = key
        x = AffineWeylElt(c2.weyl_elements[w], Coroot((0, 0)))
        f.add_symbol(Weight(mu), x, {marker: 1})

    assert shares_blocks(char)
    assert_terms_independent(char, add_symbol)


# -- differential test: json.dumps as oracle for the row writer ---------------


def reference_items(f):
    """f.to_json() of a GenFun or FormalChar, built as dicts sorted on list keys."""
    items = []
    for key, c in f.terms.items():
        vecs = [
            [i + 1 for i in v.word] if isinstance(v, WeylElement) else list(v.coeffs)
            for v in key
        ]
        item = {"q": sorted([e, k] for e, k in c.items())}
        item.update(zip(f.ROW_NAMES, vecs))
        items.append(item)
    items.sort(key=lambda d: [d[name] for name in f.ROW_NAMES])
    return items


def write_json(f, indent=1):
    return table_json(f.table, f.rs._json_words, f.ROW_NAMES, indent)


def assert_same_text(got, want):
    """got == want for texts of up to about a megabyte.  A mismatch reports
    both lengths and the first differing offset with 40 characters on each
    side, since pytest's own diff of two such strings takes minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo, hi = max(at - 40, 0), at + 40
    pytest.fail(
        f"texts of lengths {len(got)} and {len(want)} differ at offset {at}: "
        f"{got[lo:hi]!r} != {want[lo:hi]!r}",
        pytrace=False,
    )


def assert_table_json(f):
    # both layouts: indented (--format json) and compact (the default)
    assert f.to_json() == reference_items(f)
    for indent in (1, None):
        assert_same_text(write_json(f, indent), json.dumps(f.to_json(), indent=indent))


def test_assert_same_text_reports_the_first_difference():
    text = "[" + "1," * 200_000 + "2]"
    assert_same_text(text, text)
    with pytest.raises(pytest.fail.Exception) as info:
        assert_same_text(text[:5000] + "3" + text[5001:], text)
    message = str(info.value)
    assert "lengths 400003 and 400003" in message and "offset 5000" in message
    assert len(message) < 300
    with pytest.raises(pytest.fail.Exception, match="offset 400003"):
        assert_same_text(text + "\n", text)


def test_table_json_edge_cases():
    a1, b3 = qa.build_root_system("A1"), qa.build_root_system("B3")
    for indent in (1, None):
        assert write_json(GenFun(a1), indent) == "[]"
        assert write_json(FormalChar(a1, a1.weight([0])), indent) == "[]"
    single = GenFun(a1)  # rank 1, one q pair
    single.add_term(a1.weight([-3]), x_at(a1, "s1", [11]), {-1: -1})
    wide = GenFun(b3)  # rank 3, w = e, multi-digit and negative entries
    wide.add_term(b3.weight([-10, 0, 123]), x_at(b3, "s1s2s3", [-7, 0, 45]),
                  {-12: -345, 7: 10, 0: 1})
    wide.add_term(b3.weight([-10, 0, 123]), x_at(b3, "e", [-7, 0, 45]),
                  {-100: 2048})
    wide.add_term(b3.weight([0, 0, 0]), x_at(b3), {0: -1})
    char = FormalChar(b3, b3.weight([2, 0, 1]))
    char.add_symbol(b3.weight([5, -14, 0]), x_at(b3, "s3s2", [3, -1, 0]),
                    {-21: 99, 13: -1000})
    char.add_symbol(b3.weight([5, -14, 0]), x_at(b3), {1: 1})
    for f in (GenFun(a1), single, wide, char, genfun(qa.lex_chain(a1, a1.weight([2])), x_at(a1))):
        assert_table_json(f)
    assert json.loads(write_json(single)) == [
        {"q": [[-1, -1]], "mu": [-3], "w": [1], "xi": [11]}
    ]


def test_table_json_prefix_groups():
    # several xi under one (mu, w), and w indices whose words sort in the
    # other order, for both table types
    c2 = qa.build_root_system("C2")
    words = c2._json_words
    pairs = [(i, j) for i in range(len(words)) for j in range(i) if words[i] < words[j]]
    assert pairs
    late, early = pairs[0]  # index late > early, word late < word early
    f = GenFun(c2)
    for mu in ([0, 0], [-1, 2], [-10, 0]):
        for w in (early, late):
            for xi in ([3, -1], [-10, 2], [-2, 5], [10, 0], [-2, -5]):
                f.add_term(c2.weight(mu), AffineWeylElt(c2.weyl_elements[w], Coroot(tuple(xi))),
                           {xi[0]: 1, -4: -mu[0] - 2})
    char = FormalChar(c2, c2.weight([1, 1]))
    for mu in ([0, 0], [-1, 2], [2, -1]):
        for w in (late, 0, early):
            char.add_symbol(c2.weight(mu), AffineWeylElt(c2.weyl_elements[w], Coroot((0, 0))),
                            {w: 1, -3: mu[1] - 5})
    assert len(f.table) == 6 and len(flat(f.table)) == 30
    assert_table_json(f)
    assert_table_json(char)


def test_table_json_shared_blocks():
    # prefixes that hold one block object, under the same w and under
    # another whose word may sort before or after, next to prefixes holding
    # an equal copy of it, or a block that differs from it in one tail, in
    # the insertion order of its tails, in its tail count or in one poly
    # only (another dict, equal or not); and a one-tail block
    c2 = qa.build_root_system("C2")
    r, s = {-1: -4}, {-3: 2, 5: -1}
    table = {}
    changes = ("same", "copy", "tail", "order", "count", "poly", "poly copy", "one tail")
    for i, change in enumerate(changes):
        block = {((0, 0),): {i: 1, -2: 3}, ((1, -1),): r, ((-2, 3),): s}
        if change == "one tail":
            block = {((0, 0),): block[(0, 0),]}
        other = dict(block)
        if change == "copy":
            other = {tail: dict(p) for tail, p in block.items()}
        elif change == "tail":
            other[(1, -2),] = other.pop(((1, -1),))
        elif change == "order":
            other = dict(reversed(block.items()))
        elif change == "count":
            del other[(-2, 3),]
        elif change == "poly":
            other[(-2, 3),] = {-3: 2}
        elif change == "poly copy":
            other[(-2, 3),] = dict(s)
        elif change == "same":
            other = block
        table[(i, 0), i % 3] = block
        table[(i, 1), i % 3] = other
        table[(i, 2), (i + 1) % 3] = block
    f = GenFun.of_table(c2, table)
    assert shares_blocks(f)
    assert_table_json(f)
    assert_table_json(GenFun.of_table(c2, blocks({k: dict(p) for k, p in flat(table).items()})))


def test_table_json_shared_and_copied_tables():
    # G2 Ghat at lambda = (1, 1) (92 prefixes, 10 blocks) and a character
    # expansion share blocks between prefixes; a copy with fresh block and
    # poly dicts, which copy.deepcopy would not make, is written to the same
    # bytes, each of its blocks rendered on its own
    g2 = qa.build_root_system("G2")
    f = ghat(qa.lex_chain(g2, g2.weight([1, 1])), x_at(g2), -16)
    c2 = qa.build_root_system("C2")
    char = rhs_chevalley(c2, c2.weight([1, 1]), c2.weight([2, 1]),
                         qa.lex_chain(c2, c2.weight([2, 1])), x_at(c2), -8)
    for h in (f, char):
        copied = copy.copy(h)
        copied.table = blocks({k: dict(p) for k, p in flat(h.table).items()})
        assert shares_blocks(h) and not shares_blocks(copied)
        for indent in (1, None):
            want = json.dumps(h.to_json(), indent=indent)
            assert_same_text(write_json(h, indent), want)
            assert_same_text(write_json(copied, indent), want)


def assert_table_shape(f):
    """f's blocks are nonempty and hold nonempty polys, and what callers
    read of f agrees with its flattened table."""
    assert all(f.table.values()) and all(p for b in f.table.values() for p in b.values())
    table = flat(f.table)
    assert len(f.terms) == len(table)
    elements = f.rs.weyl_elements
    keys = [(Weight(mu), elements[w], *map(Coroot, tail)) for mu, w, *tail in table]
    assert list(f.terms) == keys
    assert all(f.terms[k] == p for k, p in zip(keys, table.values()))
    assert f.max_exponent() == max((max(p) for p in table.values()), default=None)
    words = f.rs._json_words
    assert f.to_json() == [
        {"q": [list(pair) for pair in sorted(table[key].items())],
         **dict(zip(f.ROW_NAMES, ([*mu], [*words[w]], *map(list, tail))))}
        for key in sorted(table, key=lambda k: (k[0], words[k[1]], *k[2:]))
        for mu, w, *tail in [key]
    ]


def test_term_table_shape():
    # G, Ghat with shared blocks, the hatted composition, a character
    # expansion, and the empty table of each kind
    g2 = qa.build_root_system("G2")
    chain = qa.lex_chain(g2, g2.weight([1, 1]))
    g = genfun(chain, x_at(g2, "s2", [1, -1]))
    f = ghat(chain, x_at(g2), -16)
    assert shares_blocks(f)
    a2 = qa.build_root_system("A2")
    h = ghat_compose(qa.lex_chain(a2, a2.weight([2, 0])), qa.lex_chain(a2, a2.weight([0, -2])),
                     x_at(a2), -8)
    c2 = qa.build_root_system("C2")
    char = rhs_chevalley(c2, c2.weight([1, 1]), c2.weight([2, 1]),
                         qa.lex_chain(c2, c2.weight([2, 1])), x_at(c2), -8)
    assert shares_blocks(char) and all(list(b) == [()] for b in char.table.values())
    for t in (g, f, h, char, f + g, f.truncated(-10), GenFun(g2), FormalChar(c2, c2.weight([0, 0]))):
        assert_table_shape(t)
    assert len(f.terms) == 13611 and len(f.table) == 92
    assert len({id(b) for b in f.table.values()}) == 10


# a weight per type whose chains have at most a few hundred subsets
JSON_LAMBDA = {"A2": [2, -1], "C2": [1, 1], "G2": [0, 1], "B3": [1, 0, 1]}


@st.composite
def json_cases(draw):
    label = draw(st.sampled_from(sorted(JSON_LAMBDA)))
    rs = qa.build_root_system(label)
    w = draw(st.sampled_from(rs.weyl_elements))
    xi = draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank))
    depth = draw(st.integers(0, 4))
    return rs, rs.weight(JSON_LAMBDA[label]), AffineWeylElt(w, Coroot(tuple(xi))), depth


@settings(max_examples=20, deadline=None)
@given(case=json_cases())
def test_table_json_against_json_dumps(case):
    rs, lam, x, depth = case
    chain = lex_pm(rs, lam)
    g = genfun(chain, x)
    floor = g.max_exponent() - depth
    mu = rs.weight([1] + [0] * (rs.rank - 1))
    outputs = (
        g,
        ghat(chain, x, floor),
        compose(chain, lex_pm(rs, rs.weight([0] * (rs.rank - 1) + [1])), x),
        rhs_chevalley(rs, mu, lam, chain, x, floor),
    )
    for f in outputs:
        assert_table_json(f)


# -- differential test: sums of {exponent: count} dicts as oracle for the tables


@st.composite
def term_lists(draw):
    """A root system and (mu, w, xi, {exponent: coefficient}) terms on a few
    shared keys, then the negatives of none, some or all of them."""
    rs = qa.build_root_system(draw(st.sampled_from(("A1", "A2", "B3"))))
    vec = st.lists(st.integers(-12, 12), min_size=rs.rank, max_size=rs.rank).map(tuple)
    keys = draw(st.lists(st.tuples(vec, st.sampled_from(rs.weyl_elements), vec), min_size=1, max_size=3))
    poly = st.dictionaries(st.integers(-15, 4), st.integers(-3, 3), max_size=3)
    terms = draw(st.lists(st.tuples(st.sampled_from(keys), poly), max_size=6))
    mode = draw(st.sampled_from(("none", "some", "all")))
    undone = terms if mode == "all" else []
    if mode == "some" and terms:
        undone = draw(st.lists(st.sampled_from(terms), max_size=len(terms)))
    terms = terms + [(key, {e: -c for e, c in p.items()}) for key, p in undone]
    return rs, terms, mode


@settings(max_examples=80, deadline=None)
@given(case=term_lists())
def test_term_tables_against_laurent_sums(case):
    rs, terms, mode = case
    mu_param = rs.weight([1] * rs.rank)
    f, char = GenFun(rs), FormalChar(rs, mu_param)
    expect_f, expect_char = {}, {}
    for (mu, w, xi), poly in terms:
        x = AffineWeylElt(w, Coroot(xi))
        f.add_term(rs.weight(mu), x, poly)
        char.add_symbol(rs.weight(mu), x, poly)
        key = (rs.weight(mu), w, x.xi)
        expect_f[key] = add(expect_f.get(key, {}), poly)
        normalized = shift(poly, -rs.pair(mu_param, x.xi))
        expect_char[key[:2]] = add(expect_char.get(key[:2], {}), normalized)
    for h, expect, rebuilt in (
        (f, expect_f, GenFun(rs, dict(f.terms))),
        (char, expect_char, FormalChar(rs, mu_param, dict(char.terms))),
    ):
        nonzero = {k: v for k, v in expect.items() if v}
        assert len(h.terms) == len(nonzero)
        assert dict(h.terms) == nonzero
        assert rebuilt == h
        assert_table_json(h)
    if mode == "all":
        assert not f.terms and not char.terms and f.to_json() == [] and char.is_zero()


# -- differential test: the affine walk as oracle for the integer statistics --


def walk_statistics(chain, w, path):
    """(wt, ed, down, height, n) of a path by the exact affine-reflection walk.

    wt = -w(s_{beta_{j_1}, -l_{j_1}} ... s_{beta_{j_s}, -l_{j_s}}(-lambda)).
    """
    rs = chain.rs
    down = Coroot((0,) * rs.rank)
    height = 0
    n = 0
    for s in path.steps:
        if not s.root.is_positive:
            n += 1
        if s.edge.kind == qbg.QUANTUM:
            down = down + rs.coroot(s.edge.label)
            tilde = rs.pair(chain.lam, rs.coroot(s.root)) - chain.levels[s.index - 1]
            height += s.root.sign * tilde
    x = -chain.lam
    for s in reversed(path.steps):
        x = affine_reflect(rs, x, s.root, -chain.levels[s.index - 1])
    return -rs.act(w, x), path.end, down, height, n


def affine_reflect(rs, x, alpha, k):
    """s_{alpha,k}(x) = x - (<x, alpha^vee> - k) alpha for a weight x."""
    p = rs.pair(x, rs.coroot(alpha)) - k
    return x - qa.Weight(tuple(p * a for a in rs.root_to_weight(alpha).coeffs))


@settings(max_examples=40, deadline=None)
@given(case=sweep_cases({**WEIGHT_BOUND, "C3": 1}))
def test_integer_statistics_against_affine_walk(case):
    chain, x = case
    subsets = qa.enumerate_admissible(chain, x.w)
    assert len(subsets) == count_admissible(chain, x.w)
    for a in subsets:
        expect = walk_statistics(chain, x.w, a.path)
        assert (a.wt, a.ed, a.down, a.height, a.n) == expect
        b = qa.admissible_from_indices(chain, x.w, a.indices)
        assert b.indices == a.indices
        assert (b.wt, b.ed, b.down, b.height, b.n) == expect


def test_integer_statistics_every_w():
    # every start vertex on one mixed chain per type: the lex concatenation,
    # and in rank 2 also the segment chain
    for label, coeffs in (("C2", (2, -1)), ("G2", (1, -1)), ("B3", (1, 0, -1)), ("C3", (1, -1, 0))):
        rs = qa.build_root_system(label)
        lam = rs.weight(coeffs)
        plus, minus = qa.lambda_pm(lam)
        chains = [qa.concat_chains(qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))]
        if rs.rank == 2:
            chains.append(qa.segment_chain(rs, lam))
        for chain in chains:
            for w in rs.weyl_elements:
                for a in qa.enumerate_admissible(chain, w):
                    assert (a.wt, a.ed, a.down, a.height, a.n) == walk_statistics(chain, w, a.path)


# -- differential test: QBG path listing as oracle for the integer enumerator --


def oracle_chains(rs, coeffs):
    """lambda_pm's lex chains concatenated in both orders, and the YB
    transform of each at its first segment."""
    plus, minus = qa.lambda_pm(rs.weight(coeffs))
    lex = (qa.lex_chain(rs, plus), qa.lex_chain(rs, minus))
    chains = [qa.concat_chains(*lex), qa.concat_chains(*reversed(lex))]
    for chain in chains[:2]:
        for t, q, _, _ in qa.find_yb_segments(chain)[:1]:
            chains.append(qa.yb_transform(chain, t, q))
    return chains


@pytest.mark.parametrize(
    "label, coeffs",
    [("A2", (2, -1)), ("C2", (2, -1)), ("G2", (1, -1)), ("A3", (0, 1, -1)), ("B3", (1, 0, -1))],
)
def test_enumerator_against_path_listing(label, coeffs):
    rs = qa.build_root_system(label)
    chains = oracle_chains(rs, coeffs)
    assert len(chains) > 2  # some YB transform is among them
    for chain in chains:
        assert any(not b.is_positive for b in chain.roots)
        for w in rs.weyl_elements:
            paths = qbg.pi_compatible_paths(rs, w, chain.roots)
            subsets = qa.enumerate_admissible(chain, w)
            assert [a.indices for a in subsets] == [p.index_set for p in paths]
            for a, p in zip(subsets, paths):
                assert (a.wt, a.ed, a.down, a.height, a.n) == walk_statistics(chain, w, p)
                assert a.path == p
                assert a.vertices == tuple(v.index for v in p.vertices()[1:])


# -- every power of q against Macdonald's P_(k)(x; q, 0) in type A --------------


def q_binomial(n, j):
    """[n; j]_q as {exponent: coefficient}, by [n; j] = [n-1; j-1] + q^j [n-1; j]."""
    if j in (0, n):
        return {0: 1}
    out = dict(q_binomial(n - 1, j - 1))
    for e, c in q_binomial(n - 1, j).items():
        out[e + j] = out.get(e + j, 0) + c
    return out


def q_multinomial(mu):
    """[|mu|; mu_1, ..., mu_m]_q, the product of [mu_1 + ... + mu_i; mu_i]_q."""
    out, total = {0: 1}, 0
    for part in mu:
        total += part
        prod: dict = {}
        for e, c in out.items():
            for f, d in q_binomial(total, part).items():
                prod[e + f] = prod.get(e + f, 0) + c * d
        out = prod
    return out


def compositions(k, parts):
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, parts - 1):
            yield (first,) + rest


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_single_row_is_q_multinomial(label, k):
    # for lambda = k varpi_1 in type A_n, the sum over A(e, Gamma) of
    # q^height e^wt is P_(k)(x; q, 0) = sum over |mu| = k of the
    # q-multinomial [k; mu_1, ..., mu_{n+1}]_q x^mu (Macdonald, Symmetric
    # Functions and Hall Polynomials, ch. VI), x^mu of fundamental-weight
    # coordinates (mu_i - mu_{i+1})_i; no subset of a dominant lex chain has
    # a negative root, so every sign is +1
    rs = qa.build_root_system(label)
    n = rs.rank
    want = {}
    for mu in compositions(k, n + 1):
        wt = tuple(mu[i] - mu[i + 1] for i in range(n))
        want[wt] = q_multinomial(mu)
    chain = qa.lex_chain(rs, rs.weight((k,) + (0,) * (n - 1)))

    sums: dict = {}
    for (wt, height), count in qa.weight_sums(chain, rs.identity).items():
        sums.setdefault(wt, {})[height] = count
    assert sums == want

    by_genfun: dict = {}
    for (mu, _), block in genfun(chain, x_at(rs)).table.items():
        poly = by_genfun.setdefault(mu, {})
        for p in block.values():
            for e, c in p.items():  # the exponent of q is -height
                poly[-e] = poly.get(-e, 0) + c
    assert by_genfun == want

    by_subset: dict = {}
    for a in qa.enumerate_admissible(chain, rs.identity):
        poly = by_subset.setdefault(a.wt.coeffs, {})
        poly[a.height] = poly.get(a.height, 0) + a.sign
    assert by_subset == want
