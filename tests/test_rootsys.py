import random
import re
from fractions import Fraction

import pytest

import qalcove as qa
from qalcove import qbg
from qalcove.rootsys import _CARTAN, Root, RootSystemError


def test_standard_data():
    a2 = qa.build_root_system("A2")
    assert a2.rank == 2
    assert len(a2.positive_roots) == 3 and len(a2.weyl_elements) == 6
    c2 = qa.build_root_system("C2")
    assert c2.rank == 2
    assert [r.coeffs for r in c2.positive_roots] == [(0, 1), (1, 0), (1, 1), (2, 1)]
    assert len(c2.weyl_elements) == 8
    g2 = qa.build_root_system("G2")
    assert len(g2.positive_roots) == 6 and len(g2.weyl_elements) == 12


def test_unsupported_type():
    with pytest.raises(RootSystemError):
        qa.build_root_system("E8")
    with pytest.raises(RootSystemError):
        qa.build_root_system("A4")


def test_b2_alias():
    assert qa.build_root_system("B2") is qa.build_root_system("C2")


def test_pairing():
    a2 = qa.build_root_system("A2")
    theta = a2.highest_root
    assert a2.pair(a2.fundamental_weight(0), a2.simple_coroot(0)) == 1
    assert a2.pair(a2.rho, a2.coroot(theta)) == 2
    # linearity oracle: <-2w1 + w2, theta^vee> = -2<w1,.> + <w2,.>
    got = a2.pair(a2.weight([-2, 1]), a2.coroot(theta))
    expect = -2 * a2.pair(a2.fundamental_weight(0), a2.coroot(theta)) + a2.pair(
        a2.fundamental_weight(1), a2.coroot(theta)
    )
    assert got == expect == -1


def test_simple_reflection_action():
    a2 = qa.build_root_system("A2")
    s1 = a2.simple_reflection(0)
    a1, alpha2 = a2.simple_root(0), a2.simple_root(1)
    assert a2.act(s1, a1) == -a1
    assert a2.act(s1, alpha2).coeffs == (1, 1)


def test_longest_element_on_weights():
    a2 = qa.build_root_system("A2")
    # independent oracle: compose the two generators by hand on fund coords
    def s(i, mu):
        out = list(mu)
        coeff = mu[i]
        col = [a2.cartan[k][i] for k in range(2)]
        return tuple(m - coeff * c for m, c in zip(mu, col))

    mu = (1, 0)
    for i in (0, 1, 0):
        mu = s(i, mu)
    w0 = a2.longest_element
    assert a2.act(w0, a2.fundamental_weight(0)).coeffs == mu == (0, -1)


def test_length_equals_inversions():
    for label in ("A2", "C2", "G2", "A3"):
        rs = qa.build_root_system(label)
        for w in rs.weyl_elements:
            winv = rs.inverse(w)
            inversions = sum(
                1
                for alpha in rs.positive_roots
                if not rs.act(winv, alpha).is_positive
            )
            assert w.length == inversions


def test_action_is_homomorphism():
    for label in ("A2", "C2", "A3"):
        rs = qa.build_root_system(label)
        elems = rs.weyl_elements
        for u in elems[:8]:
            for v in elems[:8]:
                uv = rs.mult(u, v)
                for alpha in rs.positive_roots:
                    assert rs.act(uv, alpha) == rs.act(u, rs.act(v, alpha))


def test_sign_and_abs():
    rs = qa.build_root_system("C2")
    for alpha in rs.all_roots:
        assert abs(alpha).is_positive
        scaled = qa.Root(tuple(alpha.sign * c for c in abs(alpha).coeffs))
        assert scaled == alpha


def test_root_negation_skips_validation(monkeypatch):
    rs = qa.build_root_system("G2")
    calls = []
    init = Root.__init__

    def counted(self, coeffs):
        calls.append(self)
        init(self, coeffs)

    monkeypatch.setattr(Root, "__init__", counted)
    for alpha in rs.all_roots:
        neg = -alpha
        assert abs(neg) == abs(alpha) and neg.sign == -alpha.sign
        assert neg == alpha.__class__(tuple(-c for c in alpha.coeffs))
    assert len(calls) == len(rs.all_roots)  # the explicit constructions only
    monkeypatch.undo()
    for alpha in rs.all_roots:
        neg = -alpha
        assert hash(neg) == hash(Root(neg.coeffs)) and repr(neg) == repr(Root(neg.coeffs))
        assert neg.is_positive == (not alpha.is_positive)
    for bad in ((1, -1), (0, 0), ()):
        with pytest.raises(RootSystemError):
            Root(bad)


def test_inverse_roundtrip():
    rs = qa.build_root_system("G2")
    for w in rs.weyl_elements:
        assert rs.mult(rs.inverse(w), w) == rs.identity


def test_base_point_interior():
    # strictly between consecutive integers for every positive coroot
    for label in ("A1", "A1xA1", "A2", "C2", "G2", "A3", "B3", "C3"):
        rs = qa.build_root_system(label)
        for alpha in rs.positive_roots:
            # <rho/h, alpha^vee> in (0, 1), scaled by h
            assert 0 < rs.pair(rs.rho, rs.coroot(alpha)) < rs.coxeter_number


def test_rank2_segments():
    a2 = qa.build_root_system("A2")
    seg = a2.rank2_subsystem(a2.simple_root(0), a2.simple_root(1))
    assert seg.type_label == "A2" and seg.q == 3
    assert [r.coeffs for r in seg.segment] == [(1, 0), (1, 1), (0, 1)]

    c2 = qa.build_root_system("C2")
    seg = c2.rank2_subsystem(c2.simple_root(0), c2.simple_root(1))
    assert seg.q == 4
    assert [r.coeffs for r in seg.segment] == [(1, 0), (2, 1), (1, 1), (0, 1)]

    g2 = qa.build_root_system("G2")
    seg = g2.rank2_subsystem(g2.simple_root(0), g2.simple_root(1))
    assert seg.q == 6
    assert len(set(seg.segment)) == 6

    a1a1 = qa.build_root_system("A1xA1")
    seg = a1a1.rank2_subsystem(a1a1.simple_root(0), a1a1.simple_root(1))
    assert seg.type_label == "A1xA1" and seg.q == 2

    with pytest.raises(RootSystemError):
        a2.rank2_subsystem(a2.simple_root(0), -a2.simple_root(0))


def test_highest_root():
    for label, coeffs in (("A2", (1, 1)), ("C2", (2, 1)), ("G2", (3, 2))):
        rs = qa.build_root_system(label)
        theta = rs.highest_root
        assert theta.coeffs == coeffs
        for beta in rs.positive_roots:
            assert all(t - b >= 0 for t, b in zip(theta.coeffs, beta.coeffs))
    with pytest.raises(RootSystemError):
        qa.build_root_system("A1xA1").highest_root
    with pytest.raises(RootSystemError):
        qa.root_system_from_cartan(((2, 0), (0, 2)), "custom").highest_root


def test_word_round_trip():
    rs = qa.build_root_system("C2")
    for w in rs.weyl_elements:
        assert rs.element_from_word(w.word_str) == w
        assert rs.element_from_json(rs.element_to_json(w)) == w


def test_word_text_forms():
    rs = qa.build_root_system("B3")
    assert rs.element_from_word("e") is rs.element_from_word("") is rs.identity
    assert rs.element_from_word("s1 s2") is rs.element_from_word((0, 1))
    assert rs.element_from_word("3") is rs.element_from_word("s3") is rs.simple_reflection(2)
    # a part between the s's that is not decimal digits is no word, nor is
    # an empty part
    for text in ("x", "s2s1x", "s+1", "s1-", "s", "ss", "s1s", "s1ss2", "s 1 s"):
        with pytest.raises(RootSystemError, match=re.escape(repr(text))):
            rs.element_from_word(text)


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],  # affine A1
        [[2, -1], [-4, 2]],  # affine A2 twisted
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2 cycle
    ],
)
def test_non_finite_cartan_rejected(cartan):
    # these matrices have infinitely many roots; building them used to hang
    with pytest.raises(RootSystemError):
        qa.root_system_from_cartan(cartan)


def test_rank4_cartan_builds():
    d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    f4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    assert len(qa.root_system_from_cartan(d4).weyl_elements) == 192
    assert len(qa.root_system_from_cartan(f4).weyl_elements) == 1152


# -- differential test: reflection closure as oracle for rank2_subsystem -------

D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]


def solve_2d(u, v, target):
    """Solve a*u + b*v = target exactly over the rationals, if possible."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            det = u[i] * v[j] - u[j] * v[i]
            if det == 0:
                continue
            a = Fraction(target[i] * v[j] - target[j] * v[i], det)
            b = Fraction(u[i] * target[j] - u[j] * target[i], det)
            if all(a * u[k] + b * v[k] == target[k] for k in range(n)):
                return a, b
            return None
    return None


def closure_segment(rs, alpha, beta):
    """(label, segment) from closing {alpha, beta} under all member reflections."""
    if alpha == -beta or alpha == beta:
        raise RootSystemError("alpha and beta must be non-proportional")
    if rs.root_pair(alpha, rs.coroot(beta)) > 0:
        raise RootSystemError("<alpha, beta^vee> must be <= 0")

    def reflect(g, d):
        p = rs.root_pair(d, rs.coroot(g))
        return Root(tuple(x - p * y for x, y in zip(d.coeffs, g.coeffs)))

    members = {alpha, beta}
    frontier = [alpha, beta]
    while frontier:
        nxt = []
        for g in frontier:
            for d in list(members):
                img = reflect(g, d)
                if img not in members:
                    members.add(img)
                    nxt.append(img)
        frontier = nxt
    segment = []
    for gamma in members:
        ab = solve_2d(alpha.coeffs, beta.coeffs, gamma.coeffs)
        if ab is not None and ab[0] >= 0 and ab[1] >= 0:
            segment.append((Fraction(ab[1], ab[0] + ab[1]), gamma))
    segment.sort(key=lambda t: t[0])
    roots = tuple(g for _, g in segment)
    if roots[0] != alpha or roots[-1] != beta:
        raise RootSystemError("segment construction failed")
    label = {2: "A1xA1", 3: "A2", 4: "C2", 6: "G2"}.get(len(roots))
    if label is None:
        raise RootSystemError(f"unexpected rank-2 segment length {len(roots)}")
    return label, roots


def integer_segment(rs, alpha, beta):
    seg = rs.rank2_subsystem(alpha, beta)
    return seg.type_label, seg.segment


def outcome(fn, *args):
    """fn's (label, segment), or ("error", message) for a RootSystemError."""
    try:
        return fn(*args)
    except RootSystemError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("label", ["A1xA1", "A2", "C2", "G2", "A3", "B3", "C3", "D4", "F4"])
def test_rank2_subsystem_against_closure(label):
    cartan = {"D4": D4, "F4": F4}.get(label)
    rs = qa.root_system_from_cartan(cartan, label) if cartan else qa.build_root_system(label)
    segments = 0
    for alpha in rs.all_roots:
        for beta in rs.all_roots:
            got = outcome(integer_segment, rs, alpha, beta)
            assert got == outcome(closure_segment, rs, alpha, beta), (alpha, beta)
            segments += got[0] != "error"
    assert segments > 0


def test_weyl_elements_are_canonical_instances():
    # equality and hashing are identity: every operation must hand back the
    # root system's own instance
    for label in ("A2", "C2", "G2", "B3"):
        rs = qa.build_root_system(label)
        own = {id(w) for w in rs.weyl_elements}
        for w in rs.weyl_elements:
            assert rs.element_from_word(w.word) is w
            assert rs.element_from_word(w.word_str) is w
            assert rs.element_from_json(rs.element_to_json(w)) is w
            assert id(rs.inverse(w)) in own
            assert rs.mult(w, rs.inverse(w)) is rs.identity
            for u in rs.weyl_elements[:8]:
                assert id(rs.mult(w, u)) in own
            for e in qa.out_edges(rs, w):
                assert e.source is w and id(e.target) in own
        for alpha in rs.all_roots:
            assert id(rs.reflection(alpha)) in own
    a2 = qa.build_root_system("A2")
    twin = qa.root_system_from_cartan(a2.cartan, "A2")
    for w, v in zip(a2.weyl_elements, twin.weyl_elements):
        assert w.word == v.word and w != v
    assert qa.build_root_system("C2").identity != a2.identity


# -- differential test: the permutation-composition build as oracle for the
# rho-orbit walk and the reflection tables -------------------------------------


def perm_walk(rs):
    """The Weyl group built by composing root permutations, as it was before
    the rho-orbit walk: (elements, by_perm, reflections, columns).

    elements[v] = (word, root_perm, weight columns) in breadth-first order by
    right multiplication, the columns cols[j] the image of varpi_j;
    by_perm maps a root permutation to its element's index, reflections a
    positive root beta to the index of s_beta, and columns are the
    (column, quantum, right) tables of qbg._columns, each v s_beta formed as
    a full permutation product.
    """
    n, roots, a = rs.rank, rs.all_roots, rs.cartan

    def reflect_weight(i, mu):
        return tuple(mu[k] - mu[i] * a[k][i] for k in range(n))

    def reflect_root(alpha, beta):
        p = rs.root_pair(beta, rs.coroot(alpha))
        return Root(tuple(b - p * c for b, c in zip(beta.coeffs, alpha.coeffs)))

    id_perm = tuple(range(len(roots)))
    id_cols = tuple(tuple(int(i == j) for i in range(n)) for j in range(n))
    gen_perm = [tuple(rs._root_index[reflect_root(rs.simple_root(i), r)] for r in roots) for i in range(n)]
    gen_cols = [tuple(reflect_weight(i, c) for c in id_cols) for i in range(n)]
    elements = [((), id_perm, id_cols)]
    by_perm = {id_perm: 0}
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            word, perm0, cols0 = elements[v]
            for i in range(n):
                perm = tuple(perm0[k] for k in gen_perm[i])
                if perm in by_perm:
                    continue
                cols = tuple(apply_cols(cols0, gen_cols[i][j]) for j in range(n))
                by_perm[perm] = len(elements)
                elements.append((word + (i,), perm, cols))
                nxt.append(by_perm[perm])
        queue = nxt
    reflections = {
        r: by_perm[tuple(rs._root_index[reflect_root(r, x)] for x in roots)]
        for r in rs.positive_roots
    }
    column, quantum, right = [], [], []
    for alpha in rs.positive_roots:
        s, drop = elements[reflections[alpha]][1], 2 * rs.coroot(alpha).height - 1
        ends = []
        for word, perm, _ in elements:
            t = by_perm[tuple(perm[k] for k in s)]
            ends.append((len(word), t, len(elements[t][0])))
        column.append(tuple(t if m in (l + 1, l - drop) else -1 for l, t, m in ends))
        quantum.append(tuple(m == l - drop for l, _, m in ends))
        right.append(tuple(t for _, t, _ in ends))
    return elements, by_perm, reflections, (tuple(column), tuple(quantum), tuple(right))


def apply_cols(cols, vec):
    """The image of the weight vec under the element with weight columns cols."""
    out = [0] * len(vec)
    for j, x in enumerate(vec):
        for k in range(len(vec)):
            out[k] += x * cols[j][k]
    return tuple(out)


def oracle_types():
    yield from (qa.build_root_system(label) for label in _CARTAN)
    yield qa.root_system_from_cartan(D4, "D4")
    yield qa.root_system_from_cartan(F4, "F4")


@pytest.mark.parametrize("rs", list(oracle_types()), ids=lambda rs: rs.type_label)
def test_weyl_group_against_permutation_walk(rs):
    elements, _, reflections, columns = perm_walk(rs)
    assert len(rs.weyl_elements) == len(elements)
    for v, (word, perm, _) in zip(rs.weyl_elements, elements):
        assert (v.word, v.root_perm) == (word, perm)
    assert [w.index for w in rs.weyl_elements] == list(range(len(elements)))
    assert rs._json_words == tuple(tuple(i + 1 for i in word) for word, _, _ in elements)
    assert {r: w.index for r, w in rs._reflections.items()} == reflections
    assert rs._reflection_perms == tuple(elements[reflections[r]][1] for r in rs.positive_roots)
    assert qbg._columns(rs) == columns


def test_products_against_permutation_walk():
    rng = random.Random(7)
    for rs in oracle_types():
        elements, by_perm, _, _ = perm_walk(rs)
        mu = tuple((-1) ** j * (j + 1) for j in range(rs.rank))  # (1, -2, 3, ...)
        if rs.rank <= 3:
            pairs = [(u, v) for u in rs.weyl_elements for v in rs.weyl_elements]
        elif rs.type_label == "F4":
            pairs = [(rng.choice(rs.weyl_elements), rng.choice(rs.weyl_elements)) for _ in range(500)]
        else:
            continue
        for u, v in pairs:
            pu, pv = elements[u.index][1], elements[v.index][1]
            assert rs.mult(u, v).index == by_perm[tuple(pu[k] for k in pv)]
            cols = elements[rs.mult(u, v).index][2]
            assert rs.act(u, rs.act(v, rs.weight(mu))).coeffs == apply_cols(cols, mu)
        for u in {u for pair in pairs for u in pair}:
            perm, cols = elements[u.index][1:]
            inv = [0] * len(perm)
            for k, t in enumerate(perm):
                inv[t] = k
            assert rs.inverse(u).index == by_perm[tuple(inv)]
            for j in range(rs.rank):
                assert rs.act(u, rs.fundamental_weight(j)).coeffs == cols[j]
