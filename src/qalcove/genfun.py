"""Generating functions of admissible-subset statistics over the affine Weyl group.

G_Gamma(w t_xi) sums (-1)^n q^{-height - <lambda, xi>} e^{wt} ed t_{xi + down}
over the w-admissible subsets of Gamma; it extends linearly to finite formal
sums.  Both are one sweep along the chain (`alcove.sweep_seeded`), seeded
with one state per term of the sum, which merges subsets with equal
statistics as it runs instead of listing them; each state (c, down, height)
is one packed int, and the end states go straight into the term table, one
decode per distinct (c, down).  G(x) is the sweep seeded with x alone, and
the composition G_{Gamma1}(G_{Gamma2}(x)), which is G of the concatenated
chain, the sweep along Gamma1 seeded with G_{Gamma2}(x).
The hatted variant further sums over tuples of bounded partitions and is
computed exactly above a caller-supplied q-exponent floor; a partition tuple
chi enters only through (iota(chi), |chi|), so the sum runs over those groups
(`par_groups`, counted node by node without listing the tuples).
`par_convolve` adds each shifted term of G, or of the composition for the
hatted composition, when it lies above the floor; the terms under one prefix
(mu, w) shift together, so each distinct set of them is convolved once and
copied to every prefix that carries it.  The character expansions in
`charident` use it too.  All of these work on int-keyed term tables (see
TermTable), from the sweep's end states to the JSON writer `table_json`,
which renders each distinct vector, word and q-polynomial once and each
(mu, w) prefix once; `Laurent` and the key objects are built only where a
caller reads `.terms`.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Mapping
from operator import add
from typing import Optional

from .alcove import LambdaChain, is_cancellation_free, sweep_seeded
from .records import FrozenRecord
from .rootsys import Coroot, RootSystem, Weight, WeylElement


class Laurent:
    """A Laurent polynomial in q with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "Laurent":
        return cls({e: c})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    def shifted(self, e: int) -> "Laurent":
        return Laurent({k + e: c for k, c in self.terms.items()})

    def truncated(self, floor: int) -> "Laurent":
        return Laurent({e: c for e, c in self.terms.items() if e >= floor})

    def is_zero(self) -> bool:
        return not self.terms

    def max_exponent(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                body = str(abs(c))
            else:
                qq = "q" if e == 1 else f"q^{e}"
                body = qq if abs(c) == 1 else f"{abs(c)}*{qq}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Laurent({self})"


class AffineWeylElt(FrozenRecord):
    """x = w t_xi with w finite and xi in the coroot lattice."""

    __slots__ = _fields = ("w", "xi")

    def __init__(self, w: WeylElement, xi: Coroot):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "xi", xi)

    def __repr__(self):
        return f"{self.w.word_str}*t{self.xi.coeffs}"


class TermView(Mapping):
    """A read-only view of an int-keyed term table as {key: Laurent}.

    decode turns a table key into the key callers see (Weight, WeylElement,
    Coroot, ...) and encode turns it back; every lookup builds a fresh
    Laurent.  The package itself works on the table.
    """

    __slots__ = ("_table", "_decode", "_encode")

    def __init__(self, table: dict, decode, encode):
        self._table = table
        self._decode = decode
        self._encode = encode

    def __len__(self):
        return len(self._table)

    def __iter__(self):
        return map(self._decode, self._table)

    def __getitem__(self, key):
        poly = self._table.get(self._encode(key))
        if poly is None:
            raise KeyError(key)
        return Laurent(poly)


def add_poly(table: dict, key, poly: dict):
    """table[key] += poly for a {exponent: count} poly, dropping zero counts
    and an entry left empty."""
    acc = table.get(key)
    if acc is None:
        acc = table[key] = {}
    for e, c in poly.items():
        c += acc.get(e, 0)
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    if not acc:
        del table[key]


class TermTable:
    """A finite signed q-series, held as one table {(mu, w, ...): {exponent: count}}.

    mu, and the vectors after w (GenFun's translation xi), are int tuples in
    the fundamental-weight and simple-coroot bases, w is the index in
    rs.weyl_elements, every count is nonzero and no entry is empty.  `terms`
    shows the table as {(Weight, WeylElement, Coroot...): Laurent}.
    Subclasses name the key's vectors (ROW_NAMES, for the JSON items after
    "q") and the symbol a term's w and later vectors stand for (SYMBOL).
    """

    __slots__ = ("rs", "table")
    ROW_NAMES: tuple = ()
    SYMBOL = ""

    def __init__(self, rs: RootSystem, terms: Mapping | None = None):
        self.rs = rs
        self.table: dict = {}
        for key, c in (terms or {}).items():
            add_poly(self.table, _encode(key), c.terms)

    @classmethod
    def of_table(cls, rs: RootSystem, table: dict, *params):
        """cls(rs, *params) holding table, which must follow the class invariant."""
        f = cls(rs, *params)
        f.table = table
        return f

    @property
    def terms(self) -> TermView:
        elements = self.rs.weyl_elements
        return TermView(
            self.table, lambda k: (Weight(k[0]), elements[k[1]], *map(Coroot, k[2:])), _encode
        )

    def is_zero(self) -> bool:
        return not self.table

    def truncated(self, floor: int):
        """The terms with exponent >= floor."""
        table = {}
        for key, poly in self.table.items():
            kept = {e: c for e, c in poly.items() if e >= floor}
            if kept:
                table[key] = kept
        f = copy.copy(self)
        f.table = table
        return f

    def max_exponent(self) -> Optional[int]:
        return max((max(p) for p in self.table.values()), default=None)

    def __eq__(self, other):
        return type(other) is type(self) and self.rs is other.rs and self.table == other.table

    def rows(self) -> list:
        """The terms as sorted rows (mu, w, ..., q_pairs) of int tuples.

        w is the 1-based reduced word and q_pairs the (exponent, coefficient)
        pairs by increasing exponent; rows are sorted by their key, which is
        unique, so the sort never compares q_pairs.
        """
        words = self.rs._json_words
        return sorted(
            [(mu, words[w], *rest, tuple(sorted(p.items()))) for (mu, w, *rest), p in self.table.items()]
        )

    def to_json(self) -> list:
        names = self.ROW_NAMES
        return [
            {"q": [list(p) for p in row[-1]], **dict(zip(names, map(list, row)))}
            for row in self.rows()
        ]

    def __repr__(self):
        elements = self.rs.weyl_elements
        body = ", ".join(
            f"({Laurent(self.table[key])})*e^{key[0]}*"
            + self.SYMBOL.format(elements[key[1]].word_str, *key[2:])
            for key in sorted(self.table)
        )
        return f"{type(self).__name__}[{body}]"


def _encode(key) -> tuple:
    """The table key of a (Weight, WeylElement, Coroot...) key."""
    return (key[0].coeffs, key[1].index, *(v.coeffs for v in key[2:]))


class GenFun(TermTable):
    """A finite formal sum of (Laurent in q) * e^mu * (w t_xi), keyed (mu, w, xi)."""

    __slots__ = ()
    ROW_NAMES = ("mu", "w", "xi")
    SYMBOL = "{}*t{}"

    def add_term(self, mu: Weight, x: AffineWeylElt, coeff: Laurent):
        add_poly(self.table, (mu.coeffs, x.w.index, x.xi.coeffs), coeff.terms)

    def __add__(self, other: "GenFun") -> "GenFun":
        out = GenFun.of_table(self.rs, {k: dict(p) for k, p in self.table.items()})
        for key, poly in other.table.items():
            add_poly(out.table, key, poly)
        return out

    def scaled(self, coeff: Laurent, mu_shift: Weight, xi_shift: Coroot) -> "GenFun":
        out = GenFun(self.rs)
        for (mu, w, xi), poly in self.table.items():
            key = (tuple(map(add, mu, mu_shift.coeffs)), w, tuple(map(add, xi, xi_shift.coeffs)))
            for e1, c1 in poly.items():
                add_poly(out.table, key, {e1 + e2: c1 * c2 for e2, c2 in coeff.terms.items()})
        return out


def genfun(chain: LambdaChain, x: AffineWeylElt) -> GenFun:
    """The generating function G_Gamma(x) of one chain at x = w t_xi."""
    rs = chain.rs
    unit = {((0,) * rs.rank, x.w.index, x.xi.coeffs): {0: 1}}
    return genfun_extend(chain, GenFun.of_table(rs, unit))


def genfun_extend(chain: LambdaChain, f: GenFun) -> GenFun:
    """Linear extension of G_Gamma over a finite formal sum, in one sweep.

    A term q^e e^mu w t_xi seeds the state at w with c = -mu, down = xi and
    height = <lambda, xi> - e, so an end state reads back as the exponent
    -height and the weight ed(lambda) - c = mu + wt (`alcove.sweep_seeded`).
    """
    return GenFun.of_table(f.rs, sweep_seeded(chain, f.table))


def compose(chain1: LambdaChain, chain2: LambdaChain, x: AffineWeylElt) -> GenFun:
    """G_{Gamma1} applied to G_{Gamma2}(x)."""
    return genfun_extend(chain1, genfun(chain2, x))


def genfun_equal(f: GenFun, g: GenFun, q_floor: Optional[int] = None) -> bool:
    """f == g; with q_floor, equality of the q-exponents >= q_floor only."""
    if q_floor is None:
        return f == g
    return f.truncated(q_floor) == g.truncated(q_floor)


# -- partition tuples ---------------------------------------------------------


class ParTuple(FrozenRecord):
    """One partition per Dynkin node, lengths bounded by max(m_i, 0)."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(sum(p) for p in self.parts)

    def iota(self) -> Coroot:
        return Coroot(tuple(p[0] if p else 0 for p in self.parts))

    def __repr__(self):
        return f"Par{self.parts}"


def _partitions(total_max: int, max_len: int):
    """All partitions with at most max_len parts and size <= total_max."""
    out = [()]
    def rec(prefix, largest, remaining, slots):
        for part in range(1, min(largest, remaining) + 1):
            cur = prefix + (part,)
            out.append(cur)
            if slots > 1:
                rec(cur, part, remaining - part, slots - 1)
    if max_len > 0:
        rec((), total_max, total_max, max_len)
    return out


def par_enumerate(rs: RootSystem, lam: Weight, bound: int) -> list[ParTuple]:
    """All partition tuples for lam with total size <= bound."""
    if bound < 0:
        return []
    per_node = []
    for i in range(rs.rank):
        m = max(lam.coeffs[i], 0)
        per_node.append(_partitions(bound, m))
    out = []
    for combo in itertools.product(*per_node):
        tup = ParTuple(tuple(combo))
        if tup.size <= bound:
            out.append(tup)
    out.sort(key=lambda t: (t.size, t.parts))
    return out


def par_concat(psi: ParTuple, omega: ParTuple, mu: Weight, nu: Weight) -> ParTuple:
    """The concatenation psi * omega for a cancellation-free mu + nu."""
    if not is_cancellation_free([mu, nu]):
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


# -- hatted generating functions ----------------------------------------------


def _node_groups(max_len: int, bound: int) -> dict:
    """{(first part, size): count} over the partitions with at most max_len
    parts and size <= bound."""
    counts: dict = {}
    for p in _partitions(bound, max_len):
        key = (p[0] if p else 0, sum(p))
        counts[key] = counts.get(key, 0) + 1
    return counts


def par_groups(rs: RootSystem, lam: Weight, bound: int) -> list:
    """par_enumerate(rs, lam, bound) grouped by (iota, size), without listing it.

    Counts the partitions of each Dynkin node by (first part, size), then
    combines the nodes, dropping every partial sum above bound.  Returns
    [(iota, size, multiplicity)] in order of increasing size; the
    multiplicities sum to the number of tuples.
    """
    if bound < 0:
        return []
    combos = {((), 0): 1}
    for m in lam.coeffs:
        node = _node_groups(max(m, 0), bound)
        nxt: dict = {}
        for (iota, size), k in combos.items():
            for (first, s), c in node.items():
                if size + s <= bound:
                    key = (iota + (first,), size + s)
                    nxt[key] = nxt.get(key, 0) + k * c
        combos = nxt
    return [(Coroot(iota), size, m) for (iota, size), m in sorted(combos.items(), key=lambda g: g[0][1])]


def par_convolve(
    heads: dict, rs: RootSystem, lam: Weight, q_floor: int, shift: Optional[Weight] = None
) -> dict:
    """The sum over the partition tuples chi of lam of the shifted heads, above q_floor.

    heads maps keys (..., xi), xi a translation as an int tuple (or ()), to
    {exponent: count}; the result maps (..., xi + iota(chi)) -> {exponent -
    |chi| - <shift, iota(chi)>: sum of counts}, zero counts dropped.  shift
    pairs to >= 0 with every iota, so |chi| <= max-exponent(heads) - q_floor
    bounds the tuples; equal (iota, |chi|) are summed as one group
    (par_groups), and each shifted head is added only above q_floor.
    The output under a prefix key[:-1] depends only on the prefix's head set
    {xi: poly}, and few of them are distinct (44 for Ghat's 140 (mu, w)
    prefixes in C2 at lambda = (2, 2), depth 10), so each distinct head set
    is convolved once and its block copied under every prefix that has it;
    every output key gets its own dict, which add_poly may change in place.
    """
    bound = max((max(p) for p in heads.values()), default=q_floor - 1) - q_floor
    groups = sorted(
        (
            (iota.coeffs, size if shift is None else size + rs.pair(shift, iota), m)
            for iota, size, m in par_groups(rs, lam, bound)
        ),
        key=lambda g: g[1],
    )
    # xi -> [xi + iota per group], one sum per distinct translation: G's
    # translations x.xi + down(A) take few values (3-7 for 26-247 terms in
    # the benchmark's ghat jobs)
    shifted: dict = {}

    def convolve(block: dict) -> tuple:
        """The key tails (xi + iota,) and polys of one head set {xi: poly}."""
        out: dict = {}
        for xi, poly in block.items():
            targets = shifted.get(xi)
            if targets is None:
                targets = shifted[xi] = [tuple(map(add, xi, iota)) for iota, _drop, _m in groups]
            top = max(poly)
            for xi_iota, (_iota, drop, m) in zip(targets, groups):
                if top - drop < q_floor:
                    break
                acc = out.setdefault(xi_iota, {})
                for e, c in poly.items():
                    if e - drop >= q_floor:
                        acc[e - drop] = acc.get(e - drop, 0) + c * m
        tails, polys = [], []
        for xi_iota, poly in out.items():
            if 0 in poly.values():
                poly = {e: c for e, c in poly.items() if c}
            if poly:
                tails.append((xi_iota,))
                polys.append(poly)
        return tails, polys

    blocks: dict = {}
    for key, poly in heads.items():
        blocks.setdefault(key[:-1], {})[key[-1]] = poly
    # head set -> its tails and polys; a head set met again in another
    # insertion order is only convolved again
    convolved: dict = {}
    table: dict = {}
    for prefix, block in blocks.items():
        sig = tuple([(xi, tuple(poly.items())) for xi, poly in block.items()])
        out = convolved.get(sig)
        if out is None:
            out = convolved[sig] = convolve(block)
        tails, polys = out
        table.update(zip(map(prefix.__add__, tails), map(dict.copy, polys)))
    return table


def ghat(chain: LambdaChain, x: AffineWeylElt, q_floor: int) -> GenFun:
    """Ghat_Gamma(x) = sum_chi q^{-|chi|} G(x t_{iota(chi)}), exact in every
    q-exponent >= q_floor (see par_convolve)."""
    return GenFun.of_table(chain.rs, par_convolve(genfun(chain, x).table, chain.rs, chain.lam, q_floor))


def ghat_compose(
    chain1: LambdaChain, chain2: LambdaChain, x: AffineWeylElt, q_floor: int
) -> GenFun:
    """Ghat_{Gamma1} applied to Ghat_{Gamma2}(x), exact above q_floor.

    Requires the weight decomposition lambda = mu1 + mu2 of the two chains to
    be cancellation free, which makes the partition translations only lower
    q-exponents and yields finite enumeration bounds.
    """
    rs = chain1.rs
    mu1, mu2 = chain1.lam, chain2.lam
    if not is_cancellation_free([mu1, mu2]):
        raise ValueError("ghat composition needs a cancellation-free split")
    # the partition sums see the pairs (B, A) only through the terms of
    # G_{Gamma1}(G_{Gamma2}(x)); e(omega) only lowers exponents, on nodes
    # where mu1 >= 0
    omega = par_convolve(compose(chain1, chain2, x).table, rs, mu2, q_floor, mu1)
    return GenFun.of_table(rs, par_convolve(omega, rs, mu1, q_floor))


def weight_orbit_sum(chain: LambdaChain) -> dict:
    """sum_{A in A(e, Gamma)} q^{height(A)} e^{wt(A)}, as {weight: Laurent}.

    Read off G_Gamma(e): the chain must hold positive roots only, so that
    every subset counts +1 and no sum is zero.
    """
    rs = chain.rs
    if not all(beta.is_positive for beta in chain.roots):
        raise ValueError("weight_orbit_sum needs a chain of positive roots")
    acc: dict = {}
    g = genfun(chain, AffineWeylElt(rs.identity, Coroot((0,) * rs.rank)))
    for (wt, _ed, _xi), poly in g.table.items():
        out = acc.setdefault(wt, {})
        for e, k in poly.items():
            out[-e] = out.get(-e, 0) + k
    return {Weight(k): Laurent(p) for k, p in acc.items()}


def is_weyl_invariant(rs: RootSystem, f: dict) -> bool:
    """Whether a {weight: Laurent} sum is invariant under the Weyl action."""
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        acc: dict = {}
        for mu, c in f.items():
            poly = acc.setdefault(rs.act(s, mu), {})
            for e, k in c.terms.items():
                poly[e] = poly.get(e, 0) + k
        if {k: Laurent(p) for k, p in acc.items() if any(p.values())} != f:
            return False
    return True


# -- JSON writer ----------------------------------------------------------------


def _json_list(elems: list, pad: int) -> str:
    """An indent=1 JSON list of rendered elems, its closing bracket at column pad."""
    if not elems:
        return "[]"
    sep = "\n" + " " * (pad + 1)
    return "[" + sep + ("," + sep).join(elems) + "\n" + " " * pad + "]"


# one (exponent, count) pair of an item's "q" list, after its separator
_PAIR = "\n   [\n    %d,\n    %d\n   ]"


def table_json(table: dict, words: tuple, names: tuple) -> str:
    """json.dumps(f.to_json(), indent=1), byte for byte, written from f.table.

    table is the int-keyed term table of a GenFun or a FormalChar, {(v_1,
    w, ...): {exponent: count}} with w an index into words (the 1-based
    reduced words), and names names the item's vectors after "q", as
    ROW_NAMES does.  The keys are grouped by their prefix (v_1, w), the
    prefixes sorted once by (v_1, word) and the keys within a prefix by
    their tuples.  Each distinct vector, word, key tail after w and
    q-polynomial is rendered once, as a fragment cached with its field
    labels; each prefix's (v_1, w) fragment is joined once, and every item
    is three shared fragment references, joined at the end.  This avoids
    json.dumps, which takes its pure-Python encoder whenever it indents, and
    builds no Laurent, Weight or Coroot.
    """
    if not table:
        return "[]"
    # the fragment of the vector (or word index) v at key position i, with
    # its field label; the last position also closes the item
    labels = [f',\n  "{name}": ' for name in names]
    closing = [""] * (len(names) - 1) + ["\n }"]

    def fragment(i, v):
        vec = words[v] if i == 1 else v
        return labels[i] + _json_list(list(map(str, vec)), 2) + closing[i]

    # caches: v_1, w and key tail -> fragment; (exponent, count) pairs -> "q" fragment
    mus: dict = {}
    ws: dict = {}
    tails: dict = {}
    polys: dict = {}
    parts: list = []
    put = parts.append
    prefixes: dict = {}
    for key in table:
        prefixes.setdefault(key[:2], []).append(key)
    for prefix in sorted(prefixes, key=lambda p: (p[0], words[p[1]])):
        mu, w = prefix
        frag = mus.get(mu)
        if frag is None:
            frag = mus[mu] = fragment(0, mu)
        head = ws.get(w)
        if head is None:
            head = ws[w] = fragment(1, w)
        head = frag + head
        keys = prefixes[prefix]
        keys.sort()
        for key in keys:
            pairs = tuple(table[key].items())
            frag = polys.get(pairs)
            if frag is None:
                rendered = ",".join([_PAIR % pair for pair in sorted(pairs)])
                frag = polys[pairs] = ',\n {\n  "q": [' + rendered + "\n  ]"
            put(frag)
            put(head)
            tail = key[2:]
            frag = tails.get(tail)
            if frag is None:
                frag = tails[tail] = "".join([fragment(i, v) for i, v in enumerate(tail, 2)])
            put(frag)
    parts[0] = parts[0][2:]  # no separator before the first item
    return "[\n" + "".join(parts) + "\n]"
