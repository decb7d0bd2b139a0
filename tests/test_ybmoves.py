import contextlib
import hashlib
import io
import json
import random
from collections import Counter

import pytest

import qalcove as qa
from qalcove import suite, ybmoves
from qalcove.alcove import chain_with_segment
from qalcove.cli import main
from qalcove.qbg import PathStep, qbg_edge


def a2_gamma1():
    rs = qa.build_root_system("A2")
    lam = rs.weight([-2, 1])
    roots = (rs.root([0, 1]), rs.root([-1, 0]), rs.root([-1, -1]), rs.root([-1, 0]))
    return rs, qa.compute_levels(rs, roots, lam)


def c2_table_context():
    rs = qa.build_root_system("C2")
    pi = (-rs.root([2, 1]), -rs.root([1, 0]), rs.root([0, 1]), rs.root([1, 1]))
    chain, t = chain_with_segment(rs, pi)
    return rs, qa.make_context(chain, t, 4), t


def test_find_and_transform():
    rs, g1 = a2_gamma1()
    segs = qa.find_yb_segments(g1)
    assert (0, 3) in [(t, q) for t, q, _, _ in segs]
    g2 = qa.yb_transform(g1, 0, 3)
    assert [r.coeffs for r in g2.roots] == [(-1, -1), (-1, 0), (0, 1), (-1, 0)]
    # level reversal law and involutivity
    for p in range(1, 4):
        assert g2.levels[p - 1] == g1.levels[3 - p]
    assert qa.yb_transform(g2, 0, 3) == g1
    with pytest.raises(qa.ChainError):
        qa.yb_transform(g1, 1, 3)


def test_delete_pair():
    rs, g1 = a2_gamma1()
    ins = qa.insert_pair(g1, 1, rs.highest_root)
    assert qa.delete_pair(ins, 1) == g1
    with pytest.raises(qa.ChainError):
        qa.delete_pair(g1, 0)
    # positions whose floor wall is not a facet of the current alcove refuse
    with pytest.raises(qa.ChainError):
        qa.insert_pair(g1, 2, rs.highest_root)


def test_classify_c2_table_all_core():
    rs, ctx, t = c2_table_context()
    w = rs.element_from_word("s2")
    for a in qa.enumerate_admissible(ctx.chain1, w):
        prefix = tuple(j for j in a.indices if j <= t)
        if prefix:
            continue  # stay in the v = s2 block of the tables
        assert qa.classify_phi(a, ctx) == 2


def test_sijection_tables_c2():
    rs, ctx, t = c2_table_context()
    w = rs.element_from_word("s2")
    table_y = {
        (): (),
        (2,): (3,),
        (3,): (2,),
        (4,): (1,),
        (2, 3): (1, 4),
        (2, 4): (1, 3),
    }
    for src, dst in table_y.items():
        a = qa.admissible_from_indices(ctx.chain1, w, [t + j for j in src])
        b = qa.yb_Y(a, ctx)
        assert tuple(j - t for j in b.indices) == dst
    table_i2 = [((1, 2), (2, 3)), ((1, 2, 3), (1, 3, 4)), ((1, 2, 4), (2, 3, 4))]
    for left, right in table_i2:
        bl = qa.admissible_from_indices(ctx.chain2, w, [t + j for j in left])
        br = qa.yb_I2(bl, ctx)
        assert tuple(j - t for j in br.indices) == right
        assert tuple(j - t for j in qa.yb_I2(br, ctx).indices) == left


def test_sijection_a2_example_counts():
    rs, g1 = a2_gamma1()
    ctx = qa.make_context(g1, 0, 3)
    w = rs.element_from_word("s2")
    sij = qa.build_sijection(ctx, w)
    n_core = len(sij.core_pairs)
    assert n_core == len({b.indices for _, b in sij.core_pairs})
    assert 12 - n_core == 2 * len(sij.invol1)
    assert 16 - n_core == 2 * len(sij.invol2)
    assert len(sij.invol1) % 1 == 0
    for a, b in sij.core_pairs:
        assert (a.sign, a.wt, a.height, a.down, a.ed) == (
            b.sign,
            b.wt,
            b.height,
            b.down,
            b.ed,
        )
    for pairs in (sij.invol1, sij.invol2):
        for a, b in pairs:
            assert a.sign == -b.sign
            assert (a.wt, a.height, a.down, a.ed) == (b.wt, b.height, b.down, b.ed)


def test_sijection_dominant_classical():
    # for dominant weights with a reduced chain the sijection is a plain
    # bijection: every class is 2 and both involutions are empty
    for label in ("A2", "C2"):
        rs = qa.build_root_system(label)
        chain = qa.lex_chain(rs, rs.weight([1, 1]))
        segs = qa.find_yb_segments(chain)
        assert segs
        t, q, _, _ = segs[0]
        ctx = qa.make_context(chain, t, q)
        for w in rs.weyl_elements:
            sij = qa.build_sijection(ctx, w)
            assert not sij.invol1 and not sij.invol2
            assert set(sij.classes1.values()) <= {2}
            assert len(sij.core_pairs) == len(qa.enumerate_admissible(chain, w))


def test_y_i1_domain_errors():
    rs, g1 = a2_gamma1()
    ctx = qa.make_context(g1, 0, 3)
    w = rs.element_from_word("s2")
    for a in qa.enumerate_admissible(ctx.chain1, w):
        phi = qa.classify_phi(a, ctx)
        if phi in (2, 4, 5):
            qa.yb_Y(a, ctx)
            with pytest.raises(ybmoves.SijectionError):
                qa.yb_I1(a, ctx)
        else:
            qa.yb_I1(a, ctx)
            with pytest.raises(ybmoves.SijectionError):
                qa.yb_Y(a, ctx)


def g2_exceptional_context(kind):
    rs = qa.build_root_system("G2")
    r = rs.root
    if kind == "E24":
        seg = (r([1, 1]), r([0, 1]), r([-1, 0]), r([-3, -1]), r([-2, -1]), r([-3, -2]))
    else:
        seg = (r([3, 2]), r([2, 1]), r([3, 1]), r([1, 0]), r([0, -1]), r([-1, -1]))
    chain, t = chain_with_segment(rs, seg)
    return rs, qa.make_context(chain, t, 6), t


@pytest.mark.parametrize("kind", ["E24", "E13"])
def test_g2_exceptional_families(kind):
    rs, ctx, t = g2_exceptional_context(kind)
    seen = set()
    for word in ("s1s2s1", "s2s1s2s1"):
        w = rs.element_from_word(word)
        sij = qa.build_sijection(ctx, w)
        seen |= set(sij.classes1.values()) | set(sij.classes2.values())
    assert {3, 4, 5} <= seen


def test_g2_exceptional_y_and_i1_paths():
    # with w = s1s2s1 and empty prefix the segment classification is the
    # E-family at v = w; check the distinguished partner paths directly
    rs, ctx, t = g2_exceptional_context("E13")
    w = rs.element_from_word("s1s2s1")
    # the middle path of the triple maps under Y to the single opposite path
    trip = ybmoves._TRIPLE_A
    single = ybmoves._SINGLE_A
    mids = path_from_labels(rs, w, ctx.pi, trip[1])
    a = qa.admissible_from_indices(ctx.chain1, w, [t + j for j in mids.index_set])
    assert qa.classify_phi(a, ctx) == 4
    b = qa.yb_Y(a, ctx)
    partner = path_from_labels(rs, w, ctx.pi_prime, single)
    assert tuple(j - t for j in b.indices) == partner.index_set
    # the outer two are swapped by I1
    outer0 = path_from_labels(rs, w, ctx.pi, trip[0])
    a0 = qa.admissible_from_indices(ctx.chain1, w, [t + j for j in outer0.index_set])
    assert qa.classify_phi(a0, ctx) == 3
    a2_ = qa.yb_I1(a0, ctx)
    outer2 = path_from_labels(rs, w, ctx.pi, trip[2])
    assert tuple(j - t for j in a2_.indices) == outer2.index_set
    assert qa.yb_I1(a2_, ctx).indices == a0.indices


def test_exceptional_sign_structure():
    # among the three same-side paths two share a sign opposite to the third,
    # and the opposite-side single path matches the majority sign
    rs, ctx, t = g2_exceptional_context("E13")
    w = rs.element_from_word("s1s2s1")
    signs = []
    for labels in ybmoves._TRIPLE_A:
        p = path_from_labels(rs, w, ctx.pi, labels)
        signs.append((-1) ** p.nega)
    q = path_from_labels(rs, w, ctx.pi_prime, ybmoves._SINGLE_A)
    qsign = (-1) ** q.nega
    assert abs(sum(signs)) == 1
    majority = 1 if sum(signs) > 0 else -1
    assert qsign == majority


def test_sijection_report_json():
    rs, g1 = a2_gamma1()
    ctx = qa.make_context(g1, 0, 3)
    sij = qa.build_sijection(ctx, rs.element_from_word("s2"))
    rep = sij.report_json()
    assert rep["w"] == "s2" and rep["q"] == 3
    assert len(rep["Y"]) == len(sij.core_pairs)
    assert {"from", "to", "stats"} <= set(rep["Y"][0])


def test_missing_partner_raises(monkeypatch):
    # a class entry whose partner index set is not listed on its side must
    # fail the build, not be rebuilt or skipped
    rs, g1 = a2_gamma1()
    ctx = qa.make_context(g1, 0, 3)
    w = rs.element_from_word("s2")
    classify = ybmoves._classify

    def patched(ctx_, primed, v):
        table = classify(ctx_, primed, v)
        phi, _, p_primed = table[()]
        if not primed and phi == 2:
            table[()] = phi, (1, 1), p_primed  # never an index set
        return table

    monkeypatch.setattr(ybmoves, "_classify", patched)
    with pytest.raises(ybmoves.SijectionError, match="not an admissible subset"):
        qa.build_sijection(ctx, w)


def path_from_labels(rs, v, seq, labels):
    """The explicit family path from v whose edges carry the given
    positive-root labels, each |gamma_j| for one gamma_j of seq in
    increasing j, built edge by edge with qbg_edge."""
    by_label = {abs(g).coeffs: j for j, g in enumerate(seq, start=1)}
    steps = []
    for lab in labels:
        j = by_label[lab]
        assert not steps or j > steps[-1].index
        edge = qbg_edge(rs, steps[-1].edge.target if steps else v, rs.root(lab))
        assert edge is not None
        steps.append(PathStep(j, seq[j - 1], edge))
    return qa.DirectedPath(v, tuple(steps))


def exceptional_family(rs, v, p, pi):
    """(triple, single, pi side has the triple) when the segment path p from
    v along pi lies in an explicit G2 family, else None; read off the
    DirectedPath p, independently of ybmoves' integer class table."""
    if rs.type_label != "G2" or len(pi) != 6:
        return None
    for side in ("A", "B"):
        if v.word_str != ybmoves._EXC_VERTEX[side]:
            continue
        kind = ybmoves._pattern_kind(pi)
        if kind is None or p.end.word_str != ybmoves._EXC_END[side] or p.wt(rs) != qa.Coroot((1, 1)):
            return None
        triple = ybmoves._TRIPLE_A if side == "A" else ybmoves._TRIPLE_B
        single = ybmoves._SINGLE_A if side == "A" else ybmoves._SINGLE_B
        return triple, single, (kind == "E13") == (side == "A")
    return None


@pytest.mark.parametrize(
    "part, message",
    [
        ("end", "does not preserve statistics"),
        ("c", "does not preserve statistics"),
        ("height", "does not preserve statistics"),
        ("n", "wrong sign behaviour"),
    ],
)
def test_checks_compare_records(monkeypatch, part, message):
    # a subset of side 2 in the image of Y whose end vertex, key or parity
    # of n is off fails the check of its preimage
    rs, g1 = a2_gamma1()
    ctx = qa.make_context(g1, 0, 3)
    w = rs.element_from_word("s2")
    enumerate_admissible = qa.alcove.enumerate_admissible

    def corrupted(chain, w_):
        out = list(enumerate_admissible(chain, w_))
        if chain is ctx.chain2:
            i, b = next(
                (i, b) for i, b in enumerate(out)
                if b.vertices and ybmoves._class_entry(ctx, b, True)[0] == 2
            )
            vertices, key = b.vertices, b.key
            if part == "end":
                vertices = vertices[:-1] + ((vertices[-1] + 1) % len(rs.weyl_elements),)
            else:
                k = {"c": 0, "height": -2, "n": -1}[part]
                key = tuple(x + (j == k % len(key)) for j, x in enumerate(key))
            out[i] = qa.AdmissibleSubset(chain, w_, b.indices, vertices, key, b._top)
        return tuple(out)

    monkeypatch.setattr(qa.alcove, "enumerate_admissible", corrupted)
    with pytest.raises(ybmoves.SijectionError, match=message):
        qa.build_sijection(ctx, w)


def per_subset_entry(ctx, a, primed):
    """(phi, partner index set, partner primed) of `a`, classified on its own.

    Reads the prefix end and the segment path off a.path and lists the
    segment paths afresh, sharing nothing with the context's class table.
    """
    rs = ctx.rs
    v, steps = a.w, []
    for s in a.path.steps:
        if s.index <= ctx.t:
            v = s.edge.target
        elif s.index <= ctx.t + ctx.q:
            steps.append(PathStep(s.index - ctx.t, s.root, s.edge))
    p = qa.DirectedPath(v, tuple(steps))
    pi, pi_other = (ctx.pi_prime, ctx.pi) if primed else (ctx.pi, ctx.pi_prime)
    exc = exceptional_family(rs, v, p, pi)
    if exc is not None:
        triple, single, own_has_triple = exc
        labels = tuple(s.edge.label.coeffs for s in p.steps)
        if not own_has_triple:
            assert labels == single
            phi, seq, labels2, side = 5, pi_other, triple[1], not primed
        elif labels == triple[1]:
            phi, seq, labels2, side = 4, pi_other, single, not primed
        else:
            assert labels in (triple[0], triple[2])
            other = triple[2] if labels == triple[0] else triple[0]
            phi, seq, labels2, side = 3, pi, other, primed
        partner = path_from_labels(rs, v, seq, labels2)
    else:
        key = (p.end, p.wt(rs))
        same = [
            r
            for r in qa.pi_compatible_paths(rs, v, pi)
            if (r.end, r.wt(rs)) == key and r.index_set != p.index_set
        ]
        others = [r for r in qa.pi_compatible_paths(rs, v, pi_other) if (r.end, r.wt(rs)) == key]
        if same:
            assert len(same) == 1
            phi, partner, side = 1, same[0], primed
        else:
            assert len(others) == 1
            phi, partner, side = 2, others[0], not primed
    a1, _, a3 = qa.split_admissible(a.indices, ctx.t, ctx.q)
    return phi, a1 + tuple(ctx.t + j for j in partner.index_set) + a3, side


def test_class_table_against_per_subset_classification(monkeypatch):
    # the criterion-7 contexts, which include both G2 exceptional ones
    built = []
    check = ybmoves.check_sijection

    def recording(ctx, w):
        built.append((ctx, w))
        return check(ctx, w)

    monkeypatch.setattr(ybmoves, "check_sijection", recording)
    assert suite.criterion_sijection().passed
    kinds = {ybmoves._pattern_kind(ctx.pi) for ctx, _ in built}
    assert {"E13", "E24"} <= kinds
    checked = 0
    for ctx, w in built:
        for primed, chain in ((False, ctx.chain1), (True, ctx.chain2)):
            for a in qa.enumerate_admissible(chain, w):
                expect = per_subset_entry(ctx, a, primed)
                assert ybmoves._class_entry(ctx, a, primed) == expect, (ctx.t, w, a)
                assert qa.classify_phi(a, ctx, primed) == expect[0]
                checked += 1
    # one class per (side, prefix end, segment part), shared by subsets and w
    contexts = {id(ctx): ctx for ctx, _ in built}.values()
    keys = sum(len(table) for ctx in contexts for table in ctx._class_cache.values())
    assert keys < checked


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]


def mixed_chains(cartan, label, coeffs):
    """lex(lambda+) lex(lambda-) and lex(lambda-) lex(lambda+), from the Cartan matrix."""
    rs = qa.root_system_from_cartan(cartan, label)
    lex = [qa.lex_chain(rs, part) for part in qa.lambda_pm(rs.weight(coeffs))]
    return rs, qa.concat_chains(*lex), qa.concat_chains(*reversed(lex))


def checked_sijection(ctx, w):
    """build_sijection(ctx, w), its class table checked subset by subset
    against per_subset_entry on both sides."""
    sij = qa.build_sijection(ctx, w)
    for primed, chain, classes in ((False, ctx.chain1, sij.classes1), (True, ctx.chain2, sij.classes2)):
        subsets = qa.enumerate_admissible(chain, w)
        assert len(classes) == len(subsets)
        for a in subsets:
            expect = per_subset_entry(ctx, a, primed)
            assert ybmoves._class_entry(ctx, a, primed) == expect, (ctx.t, w, a)
            assert classes[a.indices] == expect[0]
    return sij


# pinned at the tuple-statistics implementation: SHA-256 of
# json.dumps(report_json(), indent=1) of the D4 lex(lambda+) lex(lambda-)
# sijections, by segment start t and w
D4_REPORTS = {
    (1, "e"): "352b922315f909bb43d72c734088b4f7aaa172c0f736eb272fa7993173ab7465",
    (1, "s1s3s2s4s2s1s3s2"): "6acb01f2f12f7a8ad82cdaba867eb041c72d8f77edd6821c52c283bb49131249",
    (3, "e"): "42549af489ef9272fd337ec09d46d3f9b8e1ff7908b0a7ea2754e42fcec803ec",
    (3, "s1s3s2s4s2s1s3s2"): "f029ee775e6ccef1656684fa770387a420a6663bb415e962f1f32195dcaf3ee5",
    (6, "e"): "21364ced591e4a6cfabb9b5b5c25af48217beb9eae02dffdb5f00af42ab0c195",
    (6, "s1s3s2s4s2s1s3s2"): "8e197b21018e48d90c116f8d45a32e1589be3ef8fe12a7c6c3a057f42085c518",
    (12, "e"): "3ecf48bbe65688e21a3144e2fe5f682d1726ada7209f62caf3c8716a9633702a",
    (12, "s1s3s2s4s2s1s3s2"): "fa102a5d342d590464656e547a686631ca5af2561f1e5a5808391d0f4d13819e",
}


def test_d4_sijections_every_segment():
    # every YB segment of both mixed chains of lambda = (0, 1, 0, -1), at w = e
    # and at one seeded w; the lex(lambda-) lex(lambda+) order has involutions
    rs, chain, reverse = mixed_chains(D4, "D4", (0, 1, 0, -1))
    w = random.Random(20261019).choice(rs.weyl_elements)
    assert w.word_str == "s1s3s2s4s2s1s3s2"
    paired = 0
    for host in (chain, reverse):
        segments = qa.find_yb_segments(host)
        assert len(segments) == (4 if host is chain else 6)
        for t, q, _, _ in segments:
            ctx = qa.make_context(host, t, q)
            for x in (rs.identity, w):
                sij = checked_sijection(ctx, x)
                paired += len(sij.invol1) + len(sij.invol2)
                if host is chain:
                    report = json.dumps(sij.report_json(), indent=1)
                    digest = hashlib.sha256(report.encode()).hexdigest()
                    assert digest == D4_REPORTS[t, x.word_str], (t, x)
    assert paired > 0


def test_f4_sijection_one_segment():
    # the first length-3 YB segment of lex(lambda+) lex(lambda-), lambda = (0, 0, 1, -1)
    rs, chain, _ = mixed_chains(F4, "F4", (0, 0, 1, -1))
    t, q, _, _ = next(s for s in qa.find_yb_segments(chain) if s[1] == 3)
    sij = checked_sijection(qa.make_context(chain, t, q), rs.identity)
    assert len(sij.core_pairs) == len(qa.enumerate_admissible(chain, rs.identity)) == 2434


def test_sijection_builds_no_directed_path(monkeypatch):
    # the class tables walk the integer QBG tables, the G2 families included
    def refuse(*args):
        raise AssertionError("a DirectedPath was built")

    monkeypatch.setattr(qa.DirectedPath, "__init__", refuse)
    for kind in ("E13", "E24"):
        rs, ctx, _ = g2_exceptional_context(kind)
        for word in ("s1s2s1", "s2s1s2s1"):
            qa.build_sijection(ctx, rs.element_from_word(word))


# Pinned SHA-256 of the stdout of `yb segments` and `yb sijection --format
# json`, so a reordered pair or a changed statistic fails here.  The G2
# chains host the two exceptional segment patterns (see
# g2_exceptional_context) and are read from E13.json / E24.json.
YB_DIGESTS = {
    "yb segments --type A2 --lambda 2,1": "d71f5483d26c04ac3518e413a9dc416783a5fddaddc205ca97b281ba8a7e7a7a",
    "yb sijection --type A2 --lambda 2,1 --t 0 --q 3 --w e --format json": "95967e1e492886fba6b36416cad00e6450d3eeae83722920985e7d795a24659a",
    "yb sijection --type A2 --lambda 2,1 --t 0 --q 3 --w s1 --format json": "654f91189fa5f9a5199918b59cacacfffa346d5e18b57418b9960c087555cf01",
    "yb sijection --type A2 --lambda 2,1 --t 0 --q 3 --w s2s1 --format json": "6887fe6d8f90cb4656e19bb524897c8d7377aed66583b622575aa89671f7029c",
    "yb sijection --type A2 --lambda 2,1 --t 0 --q 3 --w s1s2s1 --format json": "828b6b14e2d80f0cba4969a4fd3bc0fbd5b9c12ff89e2bf1c9f0db72f7528185",
    "yb segments --type C2 --lambda 2,1": "a2e8b34998e4def6738356569b06fa202b69231f5f70cd6814374b8ef1a6fa4c",
    "yb sijection --type C2 --lambda 2,1 --t 0 --q 4 --w e --format json": "464c5d2f03ea3a28703355f75f1aeff8242b6a26c63e581dce43a9a1dc1d1a67",
    "yb sijection --type C2 --lambda 2,1 --t 0 --q 4 --w s2 --format json": "9b7c317633436c7957f80acc59c373e9a1b6121dc1592e965ea090b46a03d187",
    "yb sijection --type C2 --lambda 2,1 --t 0 --q 4 --w s1s2s1 --format json": "9eb0a680d658fc68294fa81d67daab9e8183724a5585c0d467cb5df5a284e01e",
    "yb sijection --type C2 --lambda 2,1 --t 6 --q 2 --w e --format json": "6481badb1ee2f26eb6cda254c30b05ca44da6fd8cb6d12ca7501580fda925ef4",
    "yb sijection --type C2 --lambda 2,1 --t 6 --q 2 --w s2 --format json": "cc7ac61c6920a7274f070a351a1b61ba86d496cf55636434e7bef2341a3e81d7",
    "yb sijection --type C2 --lambda 2,1 --t 6 --q 2 --w s1s2s1 --format json": "523fdc453f8dc863d90d8a114afbc2e192bb55b3e63aac93045b628a4351317b",
    "yb segments --type G2 --chain @E13.json": "3141fba07d28e76504851f1dfb5a28cd9b7ab40507e546ccd46abcbe111c0113",
    "yb sijection --type G2 --chain @E13.json --t 2 --q 6 --w e --format json": "56f74f6a5f6936a66f7b4ad21772219dae3595dfbef8ed94056fd11fb7677f0f",
    "yb sijection --type G2 --chain @E13.json --t 2 --q 6 --w s1s2s1 --format json": "c592e15faddcf31524fbce2b9499a733c677ae0ea32a854c2faef7fbf70a6f98",
    "yb sijection --type G2 --chain @E13.json --t 2 --q 6 --w s2s1s2s1 --format json": "d2f80ee85134586aa45601bed5d774228722f5be8533959026b6b82000441368",
    "yb sijection --type G2 --chain @E13.json --t 2 --q 6 --w s1s2s1s2s1s2 --format json": "37beb84841b164052f02955eefe8dd41b04aed4d04363210b7fab9012342d774",
    "yb segments --type G2 --chain @E24.json": "c1644a3c6bfcdc28137c11567259c75afb87d470d1c26e809032e499a6ac3255",
    "yb sijection --type G2 --chain @E24.json --t 4 --q 6 --w e --format json": "d6a39f58c77cd55034ef4e97e2ba8b7ebb9a7bd78ea80e81bcb49c1965e0d5a6",
    "yb sijection --type G2 --chain @E24.json --t 4 --q 6 --w s1s2s1 --format json": "3d0a2bf26fa92b68bb5210725b8ced72a5f914cbf390320edb0364e35648bc02",
    "yb sijection --type G2 --chain @E24.json --t 4 --q 6 --w s2s1s2s1 --format json": "fddc86aba0c23fb4fc254b207decf9229ebfcdb59dcd8e82afe5b8d4cf519dc4",
    "yb sijection --type G2 --chain @E24.json --t 4 --q 6 --w s1s2s1s2s1s2 --format json": "e6d6b0cf1b70d26af324f11e427c214f99d4a3fcd7a8e7fa5d7180f675b8a899",
}


def test_yb_cli_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for kind in ("E13", "E24"):
        _, ctx, t = g2_exceptional_context(kind)
        (tmp_path / f"{kind}.json").write_text(json.dumps(ctx.chain1.to_json()))
        assert f"--chain @{kind}.json --t {t} " in " ".join(YB_DIGESTS)
    for command, digest in YB_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(command.split()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, command


# -- the counted check ---------------------------------------------------------

# the A2 and C2 weights of suite criterion 7
SUITE_LAMBDAS = {
    "A2": ([-2, 1], [1, 1], [2, -1], [-1, -1], [0, 2], [1, -2]),
    "C2": ([-1, 1], [1, 1], [1, -1], [0, 2], [-2, 1], [2, 0]),
}


def suite_segments():
    """(host chain, t, q) for every YB segment of the chains of suite
    criterion 7: lex(lambda+) lex(lambda-) and the segment chain of each
    A2 and C2 weight, and the two G2 exceptional hosts."""
    out = []
    for label, lams in SUITE_LAMBDAS.items():
        rs = qa.build_root_system(label)
        for coeffs in lams:
            lam = rs.weight(coeffs)
            for chain in (
                qa.concat_chains(*(qa.lex_chain(rs, part) for part in qa.lambda_pm(lam))),
                qa.segment_chain(rs, lam),
            ):
                out += [(chain, t, q) for t, q, _, _ in qa.find_yb_segments(chain)]
    for kind in ("E13", "E24"):
        chain = g2_exceptional_context(kind)[1].chain1
        out += [(chain, t, q) for t, q, _, _ in qa.find_yb_segments(chain)]
    return out


def class_counts(sij):
    return dict(Counter(sij.classes1.values())), dict(Counter(sij.classes2.values()))


def test_check_sijection_counts_classes_as_build_sijection():
    # every segment of criterion 7's chains at every w, both G2 exceptional
    # patterns among them, then every D4 segment of both mixed chains at e
    # and a seeded w, and the F4 segment of test_f4_sijection_one_segment
    cases = [
        (chain, t, q, w)
        for chain, t, q in suite_segments()
        for w in chain.rs.weyl_elements
    ]
    assert len(cases) == 266
    rs, chain, reverse = mixed_chains(D4, "D4", (0, 1, 0, -1))
    w = random.Random(20261019).choice(rs.weyl_elements)
    cases += [
        (host, t, q, x)
        for host in (chain, reverse)
        for t, q, _, _ in qa.find_yb_segments(host)
        for x in (rs.identity, w)
    ]
    rs, chain, _ = mixed_chains(F4, "F4", (0, 0, 1, -1))
    t, q, _, _ = next(s for s in qa.find_yb_segments(chain) if s[1] == 3)
    cases.append((chain, t, q, rs.identity))
    seen = set()
    for chain, t, q, w in cases:
        ctx = qa.make_context(chain, t, q)
        counts = ybmoves.check_sijection(ctx, w)
        assert counts == class_counts(qa.build_sijection(ctx, w)), (chain.rs.type_label, t, w)
        seen |= set(counts[0]) | set(counts[1])
    assert seen == {1, 2, 3, 4, 5}
    assert counts[0] == {2: 2434}


def test_check_sijection_refuses_chains_that_differ_outside_the_segment():
    # the counted check assumes equal prefixes and suffixes: a second chain
    # that also reverses a segment after or before the context's, or is
    # another lambda's chain, is refused, not miscounted
    rs = qa.build_root_system("C2")
    chain = qa.lex_chain(rs, rs.weight([2, 1]))
    first, _, last = qa.find_yb_segments(chain)
    assert first[:2] == (0, 4) and last[:2] == (6, 2)
    for (t, q, a, b), (t2, q2, _, _) in ((first, last), (last, first)):
        chain2 = qa.make_context(chain, t, q).chain2
        for other in (qa.yb_transform(chain2, t2, q2), qa.lex_chain(rs, rs.weight([1, 1]))):
            ctx = ybmoves.YbContext(chain, other, t, q, a, b)
            with pytest.raises(ybmoves.SijectionError, match="differ outside the segment"):
                ybmoves.check_sijection(ctx, rs.identity)


def refusing_cases(fn, make=qa.make_context):
    """The (segment number, w index) at which fn(ctx, w) raises
    SijectionError, over criterion 7's A2 and C2 segments and both G2
    exceptional ones and every w, on one context make(host, t, q) per
    segment and function."""
    segments = [
        (chain, t, q)
        for chain, t, q in suite_segments()
        if chain.rs.type_label != "G2" or ybmoves._pattern_kind(chain.roots[t : t + q])
    ]
    out = set()
    for i, (chain, t, q) in enumerate(segments):
        ctx = make(chain, t, q)
        for w in chain.rs.weyl_elements:
            try:
                fn(ctx, w)
            except ybmoves.SijectionError:
                out.add((i, w.index))
    return out


def assert_same_refusals(make=qa.make_context):
    """build_sijection and check_sijection refuse the same (context, w)
    pairs of refusing_cases, some but not all of them."""
    refused = refusing_cases(qa.build_sijection, make)
    assert refusing_cases(ybmoves.check_sijection, make) == refused
    assert 0 < len(refused) < 122


# the vertex whose class tables and segment statistics the mutants corrupt;
# it is s1 s2 in A2, C2 and G2
FAULT_WORD = "s1s2"


@pytest.mark.parametrize("fault", ["partner", "phi", "not an index set"])
def test_counted_check_refuses_a_planted_class_entry(monkeypatch, fault):
    # one class-2 entry of chain 1's table at FAULT_WORD, in every context
    classify = ybmoves._classify

    def planted(ctx, primed, v):
        table = classify(ctx, primed, v)
        if primed or ctx.rs.weyl_elements[v].word_str != FAULT_WORD:
            return table
        js = next((js for js, entry in table.items() if entry[0] == 2), None)
        if js is not None:
            phi, partner, side = table[js]
            if fault == "partner":
                paths = [tuple(ctx.t + j for j in ks) for ks, _ in ctx.paths(v, True)[0]]
                partner = next(path for path in paths if path != partner)
            elif fault == "phi":
                phi = 1
            else:
                partner = (1, 1)
            table[js] = phi, partner, side
        return table

    monkeypatch.setattr(ybmoves, "_classify", planted)
    assert_same_refusals()


@pytest.mark.parametrize("part", ["end", "c", "height", "n"])
def test_counted_check_refuses_a_planted_statistic(monkeypatch, part):
    # the least nonempty segment part from FAULT_WORD on chain 2 gets a wrong
    # end vertex, c, height or parity of n, in every context: in the record
    # of every subset through it for build_sijection, in its own record for
    # check_sijection
    segment_stats, records = ybmoves._segment_stats, ybmoves._records

    def corrupt(rs, end, key, odd):
        if part == "end":
            end = (end + 1) % len(rs.weyl_elements)
        elif part == "n":
            odd ^= 1
        else:
            k = 0 if part == "c" else len(key) - 1  # height ends the key without n
            key = tuple(x + (j == k) for j, x in enumerate(key))
        return end, key, odd

    def target(ctx):
        v = ctx.rs.element_from_word(FAULT_WORD).index
        return v, next((js for js in segment_stats(ctx, True, v) if js), None)

    def planted_stats(ctx, primed, v):
        out = segment_stats(ctx, primed, v)
        v0, js = target(ctx)
        if primed and v == v0 and js is not None:
            out[js] = corrupt(ctx.rs, *out[js])
        return out

    def planted_records(ctx, side, primed):
        out = records(ctx, side, primed)
        v0, js = target(ctx)
        for i, (a, entry, (end, key), odd) in out.items() if primed else ():
            prefix, segment, _ = qa.split_admissible(i, ctx.t, ctx.q)
            v = a.vertices[len(prefix) - 1] if prefix else a.w.index
            if (v, segment) == (v0, js):
                end, key, odd = corrupt(ctx.rs, end, key, odd)
                out[i] = a, entry, (end, key), odd
        return out

    monkeypatch.setattr(ybmoves, "_segment_stats", planted_stats)
    monkeypatch.setattr(ybmoves, "_records", planted_records)
    assert_same_refusals()


@pytest.mark.parametrize("part", ["c", "height", "n"])
def test_counted_check_refuses_a_planted_step(monkeypatch, part):
    # chain 2's step row at the first segment position, which the enumerator
    # and the segment walk both read from alcove._step_rows, gets a level
    # one off (so a wrong c), a height increment one off or the wrong sign
    step_rows = qa.alcove._step_rows
    starts = {}  # id(chain 2) -> (chain 2, t), so no id is reused

    def make(chain, t, q):
        ctx = qa.make_context(chain, t, q)
        starts[id(ctx.chain2)] = ctx.chain2, t
        return ctx

    def planted(chain, lo, hi):
        rows = step_rows(chain, lo, hi)
        t = starts.get(id(chain), (None, -1))[1]
        if lo <= t < hi:
            k, p, l, bruhat, lift = rows[t - lo]
            n = len(lift) - 2  # the height field
            if part == "c":
                l += 1
            elif part == "height":
                lift = lift[:n] + (lift[n] + 1,) + lift[n + 1 :]
            else:
                bruhat, lift = (x[:-1] + (1 - x[-1],) for x in (bruhat, lift))
            rows[t - lo] = k, p, l, bruhat, lift
        return rows

    monkeypatch.setattr(qa.alcove, "_step_rows", planted)
    assert_same_refusals(make)
