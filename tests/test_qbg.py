import itertools
import random
from collections import deque

import pytest

import qalcove as qa
from qalcove import qbg


def bfs_oracle(rs, v, w):
    """Independent shortest-path oracle built from the raw edge conditions."""
    if v == w:
        return 0, qa.Coroot((0,) * rs.rank)
    dist = {v: (0, (0,) * rs.rank)}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        d, acc = dist[u]
        for alpha in rs.positive_roots:
            y = rs.mult(u, rs.reflection(alpha))
            drop = 2 * rs.coroot(alpha).height - 1
            if y.length == u.length + 1:
                quantum = False
            elif y.length == u.length - drop:
                quantum = True
            else:
                continue
            if y not in dist:
                nacc = acc
                if quantum:
                    nacc = tuple(
                        a + b for a, b in zip(acc, rs.coroot(alpha).coeffs)
                    )
                dist[y] = (d + 1, nacc)
                queue.append(y)
    d, acc = dist[w]
    return d, qa.Coroot(acc)


def test_edges_a2():
    a2 = qa.build_root_system("A2")
    e, w0 = a2.identity, a2.longest_element
    theta = a2.highest_root
    assert qa.qbg_edge(a2, e, theta) is None
    down = qa.qbg_edge(a2, w0, theta)
    assert down is not None and down.kind == qbg.QUANTUM and down.target == e
    up = qa.qbg_edge(a2, e, a2.simple_root(0))
    assert up is not None and up.kind == qbg.BRUHAT


def test_edge_label_positive_required():
    a2 = qa.build_root_system("A2")
    with pytest.raises(ValueError):
        qa.qbg_edge(a2, a2.identity, -a2.simple_root(0))


def test_out_edges_distinct_labels():
    for label in ("A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        for v in rs.weyl_elements:
            labels = [e.label for e in qa.out_edges(rs, v)]
            assert len(labels) == len(set(labels))


def test_reflection_orders():
    a2 = qa.build_root_system("A2")
    a1, alpha2, theta = a2.simple_root(0), a2.simple_root(1), a2.highest_root
    assert qa.is_reflection_order(a2, (a1, theta, alpha2))
    assert not qa.is_reflection_order(a2, (a1, alpha2, theta))
    c2 = qa.build_root_system("C2")
    order = tuple(c2.root(c) for c in ((1, 0), (2, 1), (1, 1), (0, 1)))
    assert qa.is_reflection_order(c2, order)
    # rank-2 types admit exactly the two sweeps
    for label in ("A1xA1", "A2", "C2", "G2"):
        rs = qa.build_root_system(label)
        assert len(qa.reflection_orders(rs)) == 2


def test_label_increasing_unique_and_minimal():
    for label in ("A1xA1", "A2", "C2"):
        rs = qa.build_root_system(label)
        for order in qa.reflection_orders(rs):
            for v in rs.weyl_elements:
                for w in rs.weyl_elements:
                    # oracle: enumerate all strictly-increasing label paths
                    found = []

                    def rec(pos, current, steps):
                        if current == w:
                            found.append(steps)
                        for j in range(pos, len(order)):
                            e = qa.qbg_edge(rs, current, order[j])
                            if e is not None:
                                rec(j + 1, e.target, steps + 1)

                    rec(0, v, 0)
                    assert len(found) == 1
                    path = qa.label_increasing_path(rs, v, w, order)
                    assert path.length == found[0]
                    assert path.length == bfs_oracle(rs, v, w)[0]


def per_pair_shell(rs, order):
    """The per-pair shellability loop: one path enumeration and one BFS per (v, w)."""
    for v in rs.weyl_elements:
        for w in rs.weyl_elements:
            path = qa.label_increasing_path(rs, v, w, order)
            yield v, w, path.length == qa.shortest_stats(rs, v, w)[0]


def permutation_filter(rs):
    """Reflection orders as the permutations of the positive roots that pass
    is_reflection_order, in the order itertools lists them."""
    return [
        perm
        for perm in itertools.permutations(rs.positive_roots)
        if qa.is_reflection_order(rs, perm)
    ]


def test_reflection_orders_match_permutation_filter():
    for label in ("A1", "A1xA1", "A2", "C2", "G2", "A3"):
        rs = qa.build_root_system(label)
        assert qa.reflection_orders(rs) == permutation_filter(rs)
    for label in ("B3", "C3"):
        rs = qa.build_root_system(label)
        orders = qa.reflection_orders(rs)
        assert len(orders) == len(set(orders)) == 42
        assert all(qa.is_reflection_order(rs, order) for order in orders)


def test_reflection_orders_rank4():
    # the reduced words of w0 in A4 = S5: 10!/(1^4 3^3 5^2 7) = 768
    a4 = qa.root_system_from_cartan(
        [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]], "A4"
    )
    orders = qa.reflection_orders(a4)
    assert len(set(orders)) == 768
    for order in random.Random(4).sample(orders, 2):
        assert qa.is_reflection_order(a4, order)
        got = list(qbg.shellability_pairs(a4, order))
        assert len(got) == 120**2 and all(m for _, _, m in got)


def shell_outcome(pairs):
    """The list of yielded triples, and the message of the error that ends it."""
    out = []
    try:
        for triple in pairs:
            out.append(triple)
    except RuntimeError as exc:
        return out, str(exc)
    return out, None


def test_shellability_pairs():
    a2 = qa.build_root_system("A2")
    orders = qa.reflection_orders(a2)
    perms = list(itertools.permutations(a2.positive_roots))
    assert len(orders) == 2 and len(perms) == 6
    for perm in perms:
        if perm in orders:
            got = list(qbg.shellability_pairs(a2, perm))
            assert got == list(per_pair_shell(a2, perm))
            assert len(got) == 36 and all(m for _, _, m in got)
            continue
        with pytest.raises(RuntimeError, match="shellability defect") as want:
            list(per_pair_shell(a2, perm))
        with pytest.raises(RuntimeError) as got:
            list(qbg.shellability_pairs(a2, perm))
        assert str(got.value) == str(want.value)
    a3 = qa.build_root_system("A3")
    orders = qa.reflection_orders(a3)
    assert len(orders) == 16
    for order in orders:
        got = list(qbg.shellability_pairs(a3, order))
        assert len(got) == 576 and all(m for _, _, m in got)


def test_shellability_pairs_match_per_pair_loop():
    # every reflection order, and non-orders that fail at the same first pair
    # with the same message
    rng = random.Random(2)
    for label in ("C2", "G2"):
        rs = qa.build_root_system(label)
        perms = list(itertools.permutations(rs.positive_roots))
        orders = qa.reflection_orders(rs)
        others = [p for p in rng.sample(perms, 10) if p not in orders]
        for perm in orders + others:
            want = shell_outcome(per_pair_shell(rs, perm))
            assert shell_outcome(qbg.shellability_pairs(rs, perm)) == want
            assert (want[1] is None) == (perm in orders)


def test_shortest_stats():
    a2 = qa.build_root_system("A2")
    e, w0 = a2.identity, a2.longest_element
    assert qa.shortest_stats(a2, e, e) == (0, qa.Coroot((0, 0)))
    assert qa.shortest_stats(a2, e, w0) == (3, qa.Coroot((0, 0)))
    assert qa.shortest_stats(a2, w0, e) == (1, qa.Coroot((1, 1)))
    for label, limit in (("A2", None), ("C2", None), ("G2", None), ("A3", 6)):
        rs = qa.build_root_system(label)
        for v in rs.weyl_elements[:limit]:
            for w in rs.weyl_elements[:limit]:
                assert qa.shortest_stats(rs, v, w) == bfs_oracle(rs, v, w)


def all_shortest_paths_wts(rs, v, w, bound):
    """Weights of every directed path v -> w of length exactly `bound`."""
    out = []

    def rec(current, depth, acc):
        if depth == bound:
            if current == w:
                out.append(acc)
            return
        for e in qa.out_edges(rs, current):
            nacc = acc
            if e.kind == "Q":
                nacc = tuple(
                    a + b for a, b in zip(acc, rs.coroot(e.label).coeffs)
                )
            rec(e.target, depth + 1, nacc)

    rec(v, 0, (0,) * rs.rank)
    return out


def test_shortest_weight_path_independent():
    # every shortest path between a pair carries the same weight
    for label, limit in (("A2", None), ("C2", None), ("A3", 8)):
        rs = qa.build_root_system(label)
        elems = rs.weyl_elements[:limit] if limit else rs.weyl_elements
        for v in elems:
            for w in elems:
                lvw, wt = qa.shortest_stats(rs, v, w)
                wts = all_shortest_paths_wts(rs, v, w, lvw)
                assert wts and set(wts) == {wt.coeffs}


def test_pi_compatible_basics():
    a2 = qa.build_root_system("A2")
    v = a2.element_from_word("s1")
    empty = qa.pi_compatible_paths(a2, v, ())
    assert len(empty) == 1 and empty[0].length == 0 and empty[0].end == v
    pi = (a2.simple_root(0), -a2.simple_root(1))
    paths = qa.pi_compatible_paths(a2, v, pi)
    # lexicographic order of index sets, empty set first
    sets = [p.index_set for p in paths]
    assert sets == sorted(sets)
    assert sets[0] == ()
    for p in paths:
        assert p.nega == sum(1 for s in p.steps if not s.root.is_positive)


def test_c2_path_tables():
    c2 = qa.build_root_system("C2")
    v = c2.element_from_word("s2")
    pi = (-c2.root([2, 1]), -c2.root([1, 0]), c2.root([0, 1]), c2.root([1, 1]))
    paths = qa.pi_compatible_paths(c2, v, pi)
    assert len(paths) == 6
    stats = sorted((p.end.word_str, p.wt(c2).coeffs) for p in paths)
    assert stats == sorted(
        [
            ("e", (0, 1)),
            ("s2", (0, 0)),
            ("s1s2", (0, 0)),
            ("s2s1", (0, 0)),
            ("s1s2s1", (0, 0)),
            ("s2s1s2", (0, 0)),
        ]
    )
    paths2 = qa.pi_compatible_paths(c2, v, tuple(reversed(pi)))
    assert len(paths2) == 12
    stats2 = sorted((p.end.word_str, p.wt(c2).coeffs) for p in paths2)
    assert stats2 == sorted(
        [
            ("e", (1, 1)),
            ("e", (1, 1)),
            ("e", (0, 1)),
            ("s1", (0, 1)),
            ("s1", (0, 1)),
            ("s2", (0, 0)),
            ("s1s2", (0, 0)),
            ("s2s1", (0, 1)),
            ("s2s1", (0, 1)),
            ("s2s1", (0, 0)),
            ("s1s2s1", (0, 0)),
            ("s2s1s2", (0, 0)),
        ]
    )


def test_nega_zero_for_positive_pi():
    a2 = qa.build_root_system("A2")
    for v in a2.weyl_elements:
        for p in qa.pi_compatible_paths(a2, v, a2.positive_roots):
            assert p.nega == 0


def test_sweep_step_drops_cancelled_vertices():
    # states hold occupied vertices only: a vertex whose counts all cancel
    # is absent, not {}, and the input states are left as they were
    column = (1, -1, 0)  # 0 -> 1, no edge at 1, 2 -> 0
    states = {0: {5: 1}, 1: {5: 1}, 2: {3: 4}}
    got = qbg.sweep_step(states, column, (0, 0, 0), -1, keep=True)
    assert got == {0: {5: 1, 3: -4}, 2: {3: 4}}
    assert states == {0: {5: 1}, 1: {5: 1}, 2: {3: 4}}
    # keep=False moves every state; incs is read at occupied vertices only
    got = qbg.sweep_step({0: {5: 1}, 2: {3: 4}}, column, {0: 2, 2: 0}, 1, keep=False)
    assert got == {1: {7: 1}, 0: {3: 4}}
    assert qbg.sweep_step({0: {5: 1}, 1: {5: 1}}, column, (0,) * 3, -1, keep=False) == {1: {5: -1}}


def test_dot_export():
    a2 = qa.build_root_system("A2")
    dot = qa.to_dot(a2)
    assert dot.startswith("digraph") and '"s1s2s1"' in dot
    assert "dashed" in dot and "solid" in dot
