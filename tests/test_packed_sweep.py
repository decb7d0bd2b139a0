"""The packed-int sweep against the tuple-keyed sweep it replaced.

Every sweep in the package keys a state by one int of packed fields
(`qbg.pack`).  The tuple-keyed versions below, with tuple keys and
tuple increments (None for no change), are the oracles: G and its linear
extension, `compose`, `sweep_admissible` and `verify_vanishing` on A2..C3 and
on D4 and F4 from their Cartan matrices, and the operator tables and the
shell-check on every named type.
"""

import random
from operator import add, mul, sub

import pytest

import qalcove as qa
from qalcove import alcove, qbg, qbops
from qalcove.charident import verify_vanishing
from qalcove.genfun import AffineWeylElt, GenFun, compose, genfun, genfun_extend
from qalcove.rootsys import Coroot, _CARTAN
from table_shapes import blocks, flat

D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]


def root_system(label):
    cartan = {"D4": D4, "F4": F4}.get(label)
    return qa.root_system_from_cartan(cartan, label) if cartan else qa.build_root_system(label)


# -- oracles -------------------------------------------------------------------


def oracle_sweep_step(states, column, incs, sign, keep):
    new = list(states) if keep else [None] * len(states)
    for v, src in enumerate(states):
        t = column[v]
        if not src or t < 0:
            continue
        inc = incs[v]
        moved = src.items()
        if inc is not None:
            moved = zip([tuple(map(add, key, inc)) for key in src], src.values())
        dst = dict(new[t] or ())
        for key, cnt in moved:
            cnt = dst.get(key, 0) + sign * cnt
            if cnt:
                dst[key] = cnt
            else:
                del dst[key]
        new[t] = dst or None
    return new


def oracle_sweep_seeded(chain, seeds):
    """{(ed, wt, down, height): count} from seeds {v: {(c, down, height): count}}."""
    rs = chain.rs
    column, quantum, _ = qbg._columns(rs)
    n = rs.rank
    npos = len(rs.positive_roots)
    perms = [v.root_perm for v in rs.weyl_elements]
    states = [None] * len(perms)
    for v, seed in seeds.items():
        states[v] = seed
    still = (0,) * (n + 1)
    for beta, l, tilde in zip(chain.roots, chain.levels, chain.tilde_levels):
        k = rs._root_index[beta]
        p, sign = k % npos, 1 if k < npos else -1
        col, qcol = column[p], quantum[p]
        lift = rs._coroot_vec[p] + (sign * tilde,)
        incs = [
            tuple(-l * x for x in rs._root_wt[perms[v][k]]) + (lift if qcol[v] else still)
            if src
            else None
            for v, src in enumerate(states)
        ]
        states = oracle_sweep_step(states, col, incs, sign, keep=True)
    out = {}
    for v, final in enumerate(states):
        top = rs.act(rs.weyl_elements[v], chain.lam).coeffs
        for key, cnt in (final or {}).items():
            out[v, tuple(map(sub, top, key[:n])), key[n : 2 * n], key[2 * n]] = cnt
    return out


def oracle_extend(chain, table):
    """The flat term table of G_Gamma applied to the flat term table table."""
    lam = chain.lam.coeffs
    seeds = {}
    for (mu, w, xi), poly in table.items():
        head = tuple(-m for m in mu) + xi
        lx = sum(map(mul, lam, xi))
        seed = seeds.setdefault(w, {})
        for e, k in poly.items():
            seed[head + (lx - e,)] = k
    out = {}
    for (ed, wt, down, height), count in oracle_sweep_seeded(chain, seeds).items():
        out.setdefault((wt, ed, down), {})[-height] = count
    return out


def oracle_admissible(chain, w):
    return oracle_sweep_seeded(chain, {w.index: {(0,) * (2 * chain.rs.rank + 1): 1}})


def oracle_vanishing(chain, w):
    acc = {}
    for (_ed, wt, _down, height), count in oracle_admissible(chain, w).items():
        acc[wt, height] = acc.get((wt, height), 0) + count
    return not any(acc.values())


def oracle_operator_step(rs, states, gamma, keep):
    """R_gamma (keep=True) or Q_gamma on states {(start, down_1..down_n): count}."""
    column, quantum, _ = qbg._columns(rs)
    npos = len(rs.positive_roots)
    k = rs._root_index[gamma]
    p = k % npos
    shift = [(0,) + rs._coroot_vec[p] if q else None for q in quantum[p]]
    return oracle_sweep_step(states, column[p], shift, 1 if k < npos else -1, keep)


def oracle_operator_states(rs, seq, starts):
    states = [None] * len(rs.weyl_elements)
    for s in starts:
        states[s] = {(s,) + (0,) * rs.rank: 1}
    for gamma in seq:
        states = oracle_operator_step(rs, states, gamma, True)
    return states


def oracle_elt(rs, states):
    return {
        rs.weyl_elements[t]: qbops.QPoly(rs.rank, {key[1:]: c for key, c in final.items()})
        for t, final in enumerate(states)
        if final
    }


def oracle_table(rs, seq):
    table = {}
    states = oracle_operator_states(rs, seq, range(len(rs.weyl_elements)))
    for v, final in enumerate(states):
        row = {}
        for key, c in (final or {}).items():
            row.setdefault(key[0], {})[key[1:]] = c
        for w in sorted(row):
            table[v, w] = row[w]
    return table


def oracle_shell_counts(rs, order):
    """{(v, w): (number of label-increasing paths, length of the last)}."""
    column, _, _ = qbg._columns(rs)
    npos = len(rs.positive_roots)
    n = len(rs.weyl_elements)
    states = [{(v, 0): 1} for v in range(n)]
    for alpha in order:
        col = column[rs._root_index[alpha] % npos]
        states = oracle_sweep_step(states, col, [(0, 1)] * n, 1, keep=True)
    out = {}
    for w, ends in enumerate(states):
        for (v, l), c in ends.items():
            out[v, w] = (out.get((v, w), (0, 0))[0] + c, l)
    return out


# -- cases ---------------------------------------------------------------------

G_TYPES = ["A2", "C2", "G2", "A3", "B3", "C3", "D4", "F4"]


def chains(rs, rng):
    """A dominant, an antidominant and a mixed-sign lambda-chain of rs.

    The mixed one is lex(lambda+) lex(lambda-), so its negative roots make
    negative counts.  Weights stay small: entries up to 2 in rank 2, up to 1
    in rank 3, and in rank 4 the fundamental weights 3 and 4, whose lex
    chains have 6 to 30 steps.
    """
    n = rs.rank
    i, j = rng.sample(range(n) if n < 4 else (2, 3), 2)
    dom = [0] * n
    if n < 4:
        dom = [rng.randint(0, 4 - n) for _ in range(n)]
    dom[i] = max(dom[i], 1)
    plus, minus = [0] * n, [0] * n
    plus[i], minus[j] = 1, -rng.randint(1, max(4 - n, 1))
    return [
        alcove.lex_chain(rs, rs.weight(dom)),
        alcove.lex_chain(rs, -rs.weight(dom)),
        alcove.concat_chains(
            alcove.lex_chain(rs, rs.weight(plus)), alcove.lex_chain(rs, rs.weight(minus))
        ),
    ]


def unit(rs, w, xi):
    return {((0,) * rs.rank, w.index, xi): {0: 1}}


def big_seeds(rs, rng, terms=6, size=10**6):
    """A flat term table with mu, xi and exponents near +-size and counts of both signs."""
    n = rs.rank
    table = {}
    for _ in range(terms):
        mu = tuple(rng.choice((-size, size)) + rng.randint(-3, 3) for _ in range(n))
        xi = tuple(rng.choice((-size, size, 0)) + rng.randint(-3, 3) for _ in range(n))
        w = rng.randrange(len(rs.weyl_elements))
        exps = (rng.choice((-size, size)) + rng.randint(-5, 5) for _ in range(3))
        table[mu, w, xi] = {e: rng.choice((-2, -1, 1, 3)) for e in exps}
    return table


@pytest.mark.parametrize("label", G_TYPES)
def test_genfun_against_tuple_oracle(label):
    rs = root_system(label)
    rng = random.Random(f"genfun {label}")
    n = rs.rank
    for chain in chains(rs, rng):
        for _ in range(2):
            w = rng.choice(rs.weyl_elements)
            xi = tuple(rng.randint(-2, 2) for _ in range(n))
            got = genfun(chain, AffineWeylElt(w, Coroot(xi))).table
            assert flat(got) == oracle_extend(chain, unit(rs, w, xi))
        seeds = big_seeds(rs, rng)
        got = genfun_extend(chain, GenFun.of_table(rs, blocks(seeds))).table
        assert flat(got) == oracle_extend(chain, seeds)


@pytest.mark.parametrize("label", G_TYPES)
def test_compose_against_tuple_oracle(label):
    rs = root_system(label)
    rng = random.Random(f"compose {label}")
    first, _, mixed = chains(rs, rng)
    w = rng.choice(rs.weyl_elements)
    xi = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
    got = compose(mixed, first, AffineWeylElt(w, Coroot(xi))).table
    assert flat(got) == oracle_extend(mixed, oracle_extend(first, unit(rs, w, xi)))


@pytest.mark.parametrize("label", G_TYPES)
def test_vanishing_against_tuple_oracle(label):
    rs = root_system(label)
    rng = random.Random(f"vanishing {label}")
    dom, anti, mixed = chains(rs, rng)
    for w in rng.sample(rs.weyl_elements, 3):
        for chain in (dom, anti, mixed):
            assert alcove.sweep_admissible(chain, w) == oracle_admissible(chain, w)
        assert verify_vanishing(rs, anti.lam, w, anti) is oracle_vanishing(anti, w) is True


def test_sweep_fields_carry_across_widths():
    # one field group at a time (c, down, height) near +-size and the others
    # near 0, so the width must cover each group on its own
    rs = qa.build_root_system("G2")
    chain = alcove.concat_chains(
        alcove.lex_chain(rs, rs.weight((1, 1))), alcove.lex_chain(rs, rs.weight((-1, 0)))
    )
    lam = chain.lam.coeffs
    for size in (1, 7, 8, 255, 256, 10**6, 2**40):
        xi = (size, -size)
        lx = sum(map(mul, lam, xi))
        for seeds in (
            {((size, -size), 0, (0, 0)): {0: 1}, ((-size, size), 4, (0, 0)): {1: -2}},
            {((0, 0), 3, xi): {lx: 2, lx + 1: -1}, ((0, 0), 1, (-size, size)): {-lx: 1}},
            {((0, 0), 5, (0, 0)): {size: -3, -size: 5}},
        ):
            got = genfun_extend(chain, GenFun.of_table(rs, blocks(seeds))).table
            assert flat(got) == oracle_extend(chain, seeds)


NAMED_TYPES = sorted(_CARTAN)


@pytest.mark.parametrize("label", NAMED_TYPES)
def test_operator_table_against_tuple_oracle(label):
    rs = qa.build_root_system(label)
    rng = random.Random(f"operators {label}")
    for length in (0, 1, 4, 9):
        seq = tuple(rng.choice(rs.all_roots) for _ in range(length))
        assert qbops._table(rs, seq) == oracle_table(rs, seq)
        v = rng.choice(rs.weyl_elements)
        want = oracle_elt(rs, oracle_operator_states(rs, seq, (v.index,)))
        assert qa.apply_R_sequence(rs, seq, v).terms == want


@pytest.mark.parametrize("label", ["A2", "G2", "B3"])
def test_apply_Q_against_tuple_oracle(label):
    # the polynomials of a sum may hold negative exponents
    rs = qa.build_root_system(label)
    rng = random.Random(f"apply_Q {label}")
    n = rs.rank
    for gamma in rs.all_roots:
        terms = {}
        for v in rng.sample(rs.weyl_elements, 3):
            exps = (tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(3))
            terms[v] = qbops.QPoly(n, {e: rng.choice((-2, 1, 3)) for e in exps})
        states = [None] * len(rs.weyl_elements)
        for v, p in terms.items():
            states[v.index] = {(0,) + e: c for e, c in p.terms.items()}
        want = oracle_elt(rs, oracle_operator_step(rs, states, gamma, False))
        assert qa.apply_Q(rs, gamma, qbops.GroupAlgebraElt(rs, terms)).terms == want
        v = rng.choice(rs.weyl_elements)
        unit_states = oracle_operator_states(rs, (), (v.index,))
        want = oracle_elt(rs, oracle_operator_step(rs, unit_states, gamma, False))
        assert qa.apply_Q(rs, gamma, v).terms == want


@pytest.mark.parametrize("label", NAMED_TYPES)
def test_shellability_against_tuple_oracle(label):
    rs = qa.build_root_system(label)
    orders = qbg.reflection_orders(rs)
    rng = random.Random(f"shell {label}")
    for order in rng.sample(orders, min(4, len(orders))):
        counts = oracle_shell_counts(rs, order)
        distances = qbg._distances(rs)
        want = [
            (v, w, counts[v.index, w.index][1] == distances[v.index][w.index][0])
            for v in rs.weyl_elements
            for w in rs.weyl_elements
        ]
        assert all(counts[v.index, w.index][0] == 1 for v, w, _ in want)
        assert list(qbg.shellability_pairs(rs, order)) == want
