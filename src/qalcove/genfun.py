"""Generating functions of admissible-subset statistics over the affine Weyl group.

G_Gamma(w t_xi) sums (-1)^n q^{-height - <lambda, xi>} e^{wt} ed t_{xi + down}
over the w-admissible subsets of Gamma; it extends linearly to finite formal
sums.  Both are one sweep along the chain (`alcove.sweep_seeded`), seeded
with one state per term of the sum, which merges subsets with equal
statistics as it runs instead of listing them; each state (c, down, height)
is one packed int, and the end states go straight into the term table, a
block per (vertex, c), a decode per distinct (c, down).  G(x) is the sweep
seeded with x alone, and G_{Gamma1}(G_{Gamma2}(x)), which is G of the
concatenated chain, the sweep along Gamma1 seeded with G_{Gamma2}(x).
The hatted variant further sums over tuples of bounded partitions and is
computed exactly above a caller-supplied q-exponent floor; a partition tuple
chi enters only through (iota(chi), |chi|), so the sum runs over those
groups (`par_groups`, counted node by node), one ladder of (drop,
multiplicity) per iota.  `par_convolve` multiplies each distinct
q-polynomial of G, or of the composition for the hatted composition, by each
ladder once above the floor and places those parts at every translation of a
head with that poly; the terms under one prefix (mu, w) shift together, so
each distinct block of them is convolved once, the output block shared by
every prefix holding it.  The character expansions in `charident` use it
too.  All of these work on term tables of blocks {(mu, w): {tail: {exponent:
count}}} (see TermTable), whose blocks and polys are never changed in place
(`add_block` is copy-on-write at both levels), from the sweep's end states
to the JSON writer `table_json`, which writes either of json.dumps's layouts
in one walk over the blocks, each distinct vector, word and q-polynomial
rendered once and each block object once, memoized by id(block); the key
objects are built only where a caller reads `.terms`, and the JSON items
only in `to_json`, the writer's reference.  Every q-polynomial, in a table
and in what a caller reads or passes, is a plain {exponent: count} dict
(`q_str` renders one).  `weight_orbit_sum`, which reads only wt and height,
folds `alcove.weight_sums` instead, the sweep without down.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Mapping
from operator import add

from .alcove import LambdaChain, is_cancellation_free, sweep_seeded, weight_sums
from .records import FrozenRecord
from .rootsys import Coroot, RootSystem, Weight, WeylElement


def q_str(poly: dict) -> str:
    """The canonical text of a Laurent polynomial {exponent: count} in q:
    terms by exponent ascending, as in "-q^-2+3-2*q^3"; "0" for no term."""
    if not poly:
        return "0"
    out = []
    for e, c in sorted(poly.items()):
        mono = "" if e == 0 else "q" if e == 1 else f"q^{e}"
        mag = -c if c < 0 else c
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


class AffineWeylElt(FrozenRecord):
    """x = w t_xi with w finite and xi in the coroot lattice."""

    __slots__ = _fields = ("w", "xi")

    def __init__(self, w: WeylElement, xi: Coroot):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "xi", xi)

    def __repr__(self):
        return f"{self.w.word_str}*t{self.xi.coeffs}"


class TermView(Mapping):
    """A read-only view of a term table of blocks as {key: {exponent: count}}.

    decode turns a table (prefix, tail) into the key callers see (Weight,
    WeylElement, Coroot, ...) and encode turns it back; every lookup returns
    a copy of the table's q-polynomial, so a caller may change it.  The
    package itself works on the table.
    """

    __slots__ = ("_table", "_decode", "_encode")

    def __init__(self, table: dict, decode, encode):
        self._table = table
        self._decode = decode
        self._encode = encode

    def __len__(self):
        return sum(map(len, self._table.values()))

    def __iter__(self):
        return (self._decode(prefix, tail) for prefix, block in self._table.items() for tail in block)

    def __getitem__(self, key):
        prefix, tail = self._encode(key)
        poly = self._table.get(prefix, {}).get(tail)
        if poly is None:
            raise KeyError(key)
        return dict(poly)


def add_block(table: dict, prefix, block: dict):
    """table[prefix] += block for a block {tail: {exponent: count}}, dropping
    zero counts, and a poly or a block left empty.

    Copy-on-write at both levels: table[prefix] is replaced by one new block
    and each poly that block touches by a new dict, and nothing else is
    changed, so tables may share blocks and polys (TermTable).
    """
    acc = dict(table.get(prefix, ()))
    for tail, poly in block.items():
        merged = dict(acc.get(tail, ()))
        for e, c in poly.items():
            c += merged.get(e, 0)
            if c:
                merged[e] = c
            else:
                merged.pop(e, None)
        if merged:
            acc[tail] = merged
        else:
            acc.pop(tail, None)
    if acc:
        table[prefix] = acc
    else:
        table.pop(prefix, None)


class TermTable:
    """A finite signed q-series, held as blocks {(mu, w): {tail: {exponent: count}}}.

    mu, and the vectors of the tail (GenFun's (xi,), FormalChar's ()), are
    int tuples in the fundamental-weight and simple-coroot bases, w is the
    index in rs.weyl_elements, every count is nonzero and no block and no
    poly is empty.  A block may be shared between prefixes and between
    tables, and a poly between blocks; nothing changes either in place
    (`add_block` replaces them).  `terms` shows the table as {(Weight,
    WeylElement, Coroot...): {exponent: count}}; the constructor takes that
    form, zero counts dropped.
    Subclasses name the key's vectors (ROW_NAMES, for the JSON items after
    "q") and the symbol a term's w and later vectors stand for (SYMBOL).
    """

    __slots__ = ("rs", "table")
    ROW_NAMES: tuple = ()
    SYMBOL = ""

    def __init__(self, rs: RootSystem, terms: Mapping | None = None):
        self.rs = rs
        self.table: dict = {}
        blocks: dict = {}
        for key, c in (terms or {}).items():
            prefix, tail = _encode(key)
            blocks.setdefault(prefix, {})[tail] = c
        for prefix, block in blocks.items():
            add_block(self.table, prefix, block)

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
            self.table, lambda k, tail: (Weight(k[0]), elements[k[1]], *map(Coroot, tail)), _encode
        )

    def is_zero(self) -> bool:
        return not self.table

    def truncated(self, floor: int):
        """The terms with exponent >= floor."""
        table = {}
        for prefix, block in self.table.items():
            kept = {tail: {e: c for e, c in p.items() if e >= floor} for tail, p in block.items()}
            kept = {tail: p for tail, p in kept.items() if p}
            if kept:
                table[prefix] = kept
        f = copy.copy(self)
        f.table = table
        return f

    def max_exponent(self) -> int | None:
        return max((max(p) for block in self.table.values() for p in block.values()), default=None)

    def __eq__(self, other):
        return type(other) is type(self) and self.rs is other.rs and self.table == other.table

    def to_json(self) -> list:
        """The items that `table_json` writes, sorted by their unique keys
        (mu, word, ...): {"q": [[exponent, count], ...] by exponent, then
        ROW_NAMES, w as its 1-based reduced word}."""
        words = self.rs._json_words
        rows = sorted([
            (mu, words[w], *tail, tuple(sorted(p.items())))
            for (mu, w), block in self.table.items() for tail, p in block.items()
        ])
        names = self.ROW_NAMES
        return [{"q": [list(p) for p in row[-1]], **dict(zip(names, map(list, row)))} for row in rows]

    def __repr__(self):
        elements = self.rs.weyl_elements
        body = ", ".join(
            f"({q_str(block[tail])})*e^{mu}*" + self.SYMBOL.format(elements[w].word_str, *tail)
            for (mu, w), block in sorted(self.table.items())
            for tail in sorted(block)
        )
        return f"{type(self).__name__}[{body}]"


def _encode(key) -> tuple:
    """The table (prefix, tail) of a (Weight, WeylElement, Coroot...) key."""
    return (key[0].coeffs, key[1].index), tuple([v.coeffs for v in key[2:]])


class GenFun(TermTable):
    """A finite formal sum of (Laurent polynomial in q) * e^mu * (w t_xi), the
    tails (xi,); a coefficient is {exponent: count}, a zero count absent."""

    __slots__ = ()
    ROW_NAMES = ("mu", "w", "xi")
    SYMBOL = "{}*t{}"

    def add_term(self, mu: Weight, x: AffineWeylElt, coeff: dict):
        add_block(self.table, (mu.coeffs, x.w.index), {(x.xi.coeffs,): coeff})

    def __add__(self, other: "GenFun") -> "GenFun":
        out = GenFun.of_table(self.rs, dict(self.table))
        for prefix, block in other.table.items():
            add_block(out.table, prefix, block)
        return out

    def scaled(self, coeff: dict, mu_shift: Weight, xi_shift: Coroot) -> "GenFun":
        # the shift is injective, so each output block gets one product per poly
        out = GenFun(self.rs)
        factor = coeff.items()
        for (mu, w), block in self.table.items():
            prods: dict = {}
            for (xi,), poly in block.items():
                prod = prods[(tuple(map(add, xi, xi_shift.coeffs)),)] = {}
                for e1, c1 in poly.items():
                    for e2, c2 in factor:
                        prod[e1 + e2] = prod.get(e1 + e2, 0) + c1 * c2
            add_block(out.table, (tuple(map(add, mu, mu_shift.coeffs)), w), prods)
        return out


def genfun(chain: LambdaChain, x: AffineWeylElt) -> GenFun:
    """The generating function G_Gamma(x) of one chain at x = w t_xi."""
    rs = chain.rs
    unit = {((0,) * rs.rank, x.w.index): {(x.xi.coeffs,): {0: 1}}}
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


def genfun_equal(f: GenFun, g: GenFun, q_floor: int | None = None) -> bool:
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
    """All partitions with at most max_len parts and size <= total_max, in
    depth-first order on an explicit stack (no closure cycle is left)."""
    out = []
    stack = [((), total_max, total_max, max_len)]
    while stack:
        prefix, largest, remaining, slots = stack.pop()
        out.append(prefix)
        if slots > 0:
            stack += [
                (prefix + (part,), part, remaining - part, slots - 1)
                for part in range(min(largest, remaining), 0, -1)
            ]
    return out


def par_enumerate(rs: RootSystem, lam: Weight, bound: int) -> list[ParTuple]:
    """All partition tuples for lam with total size <= bound."""
    if bound < 0:
        return []
    per_node = [_partitions(bound, max(m, 0)) for m in lam.coeffs]
    out = [t for t in map(ParTuple, itertools.product(*per_node)) if t.size <= bound]
    out.sort(key=lambda t: (t.size, t.parts))
    return out


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
    heads: dict, rs: RootSystem, lam: Weight, q_floor: int, shift: Weight | None = None
) -> dict:
    """The sum over the partition tuples chi of lam of the shifted heads, above q_floor.

    heads is a table of blocks {prefix: {tail: {exponent: count}}}, the tail
    (xi,) with xi a translation as an int tuple, or () (and then a head may
    hold a zero count, see `charident._expand`); the result has the blocks
    {prefix: {(xi + iota(chi),) or (): {exponent - |chi| - <shift,
    iota(chi)>: sum of counts}}}, nothing zero or empty kept.  shift pairs
    to >= 0 with every iota, so |chi| <= max-exponent(heads) - q_floor
    bounds the tuples.  The groups (par_groups) fold into one ladder
    [(drop, multiplicity)] per iota, drop = |chi| + <shift, iota>, or into
    one in all when every tail is (), which iota does not move; sorted by
    lowest drop, a poly leaves them at the first wholly below q_floor.
    A head's part on a ladder, its poly times the ladder above q_floor,
    depends only on the poly, and few polys are distinct (G for C2 at
    lambda = (2, 2), depth 10: 23 for 247 heads on 7 tails and 140 (mu, w)
    prefixes, 216 groups on 66 ladders), so each part is computed once and
    placed at a head's translations with one lookup, a merged dict built
    only where two tails of a block meet.  A prefix's output block depends
    only on its head block, and few are distinct (44 of those 140), so each
    is convolved once and shared by every prefix that has it, and
    `table_json` renders it once.  No part or block changes once placed.
    """
    highest = max((max(p) for block in heads.values() for p in block.values()), default=q_floor - 1)
    moves = any(tail for block in heads.values() for tail in block)
    rungs: dict = {}  # iota -> {drop: multiplicity}
    for iota, size, m in par_groups(rs, lam, highest - q_floor):
        ladder = rungs.setdefault(iota.coeffs if moves else (), {})
        drop = size if shift is None else size + rs.pair(shift, iota)
        ladder[drop] = ladder.get(drop, 0) + m
    order = sorted(rungs.items(), key=lambda r: min(r[1]))
    ladders = [sorted(ladder.items()) for _iota, ladder in order]
    # head poly items -> [(ladder index, its part there)], and tail -> [its
    # translation by each ladder's iota]
    parts: dict = {}
    shifted: dict = {}

    def parts_of(poly: dict) -> list:
        reach = max(poly) - q_floor
        out = []
        for k, ladder in enumerate(ladders):
            if ladder[0][0] > reach:
                break
            acc: dict = {}
            for drop, m in ladder:
                if drop > reach:
                    break
                for e, c in poly.items():
                    if e - drop >= q_floor:
                        acc[e - drop] = acc.get(e - drop, 0) + c * m
            if 0 in acc.values():
                acc = {e: c for e, c in acc.items() if c}
            if acc:
                out.append((k, acc))
        return out

    def convolve(block: dict) -> dict:
        """The output block of one head block."""
        out: dict = {}
        for tail, poly in block.items():
            ready = parts.get(key := tuple(poly.items()))
            if ready is None:
                ready = parts[key] = parts_of(poly)
            targets = shifted.get(tail)
            if targets is None:
                targets = shifted[tail] = [tuple([tuple(map(add, xi, iota)) for xi in tail]) for iota, _ in order]
            for k, part in ready:
                held = out.setdefault(targets[k], part)
                if held is not part:
                    merged = dict(held)
                    for e, c in part.items():
                        merged[e] = merged.get(e, 0) + c
                    if 0 in merged.values():
                        merged = {e: c for e, c in merged.items() if c}
                    if merged:
                        out[targets[k]] = merged
                    else:
                        del out[targets[k]]
        return out

    # head block contents -> output block, whatever order its heads came in
    convolved: dict = {}
    table: dict = {}
    for prefix, block in heads.items():
        sig = tuple([(tail, tuple(poly.items())) for tail, poly in sorted(block.items())])
        out = convolved.get(sig)
        if out is None:
            out = convolved[sig] = convolve(block)
        if out:
            table[prefix] = out
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
    """sum_{A in A(e, Gamma)} q^{height(A)} e^{wt(A)}, as {Weight: {exponent: count}}.

    Re-keys alcove.weight_sums(chain, e), the sweep that skips down, its c
    fields negated, and folds the end states over ed without decoding them
    into blocks: G is not built.  The chain must hold positive roots only,
    so that every subset counts +1 and no sum is zero.
    """
    rs = chain.rs
    if not all(beta.is_positive for beta in chain.roots):
        raise ValueError("weight_orbit_sum needs a chain of positive roots")
    acc: dict = {}
    for (wt, height), count in weight_sums(chain, rs.identity).items():
        acc.setdefault(wt, {})[height] = count
    return {Weight(k): p for k, p in acc.items()}


def is_weyl_invariant(rs: RootSystem, f: dict) -> bool:
    """Whether a {Weight: {exponent: count}} sum is invariant under the Weyl
    action, a zero count counting as absent.

    A simple reflection permutes the weights, so it maps the sum to
    {s(mu): f[mu]}, which must be the sum again.
    """
    f = {mu: q for mu, p in f.items() if (q := {e: c for e, c in p.items() if c})}
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        if {rs.act(s, mu): p for mu, p in f.items()} != f:
            return False
    return True


# -- JSON writer ----------------------------------------------------------------


# json.dumps's layouts of a term table by indent, 1 or None (compact): an
# item opened with its "q" list (%s), one (exponent, count) pair, the pair
# and list separator, a field label, a nonempty list's brackets, an item's
# close and the table's brackets; an item starts with a 2-character separator
_LAYOUTS = {
    1: (',\n {\n  "q": [\n   %s\n  ]', "[\n    %d,\n    %d\n   ]", ",\n   ", ',\n  "%s": ',
        "[\n   ", "\n  ]", "\n }", "[\n", "\n]"),
    None: (', {"q": [%s]', "[%d, %d]", ", ", ', "%s": ', "[", "]", "}", "[", "]"),
}


def table_json(table: dict, words: tuple, names: tuple, indent: int | None) -> str:
    """json.dumps(f.to_json(), indent=indent), byte for byte, written from f.table.

    table is the term table of blocks of a GenFun or a FormalChar, {(v_1,
    w): {tail: {exponent: count}}} with w an index into words (the 1-based
    reduced words), and names names the item's vectors after "q", as
    ROW_NAMES does; indent picks the layout's templates (_LAYOUTS) once.
    The prefixes are sorted once by (v_1, word) and the tails within a
    block by their tuples.  Each distinct vector, word, tail and
    q-polynomial is rendered once, as a fragment cached with its field
    labels, each prefix's (v_1, w) fragment is joined once, and every item
    is three shared fragment references; one join writes them and the
    brackets at the end.  A block object is rendered once, memoized by
    id(block): a prefix holding a block already written (Ghat's repeated
    blocks, see par_convolve) copies that block's fragment references with
    its own (v_1, w) fragment.
    This avoids json.dumps, which takes its pure-Python encoder whenever it
    indents, and builds no item, Weight or Coroot.
    """
    if not table:
        return "[]"
    item, pair, sep, label, left, right, close, first, last = _LAYOUTS[indent]
    # the fragment of the vector (or word index) v at key position i, with
    # its field label; the last position also closes the item
    labels = [label % name for name in names]
    closing = [""] * (len(names) - 1) + [close]

    def fragment(i, v):
        vec = words[v] if i == 1 else v
        return labels[i] + (left + sep.join(map(str, vec)) + right if vec else "[]") + closing[i]

    # caches: v_1, w and tail -> fragment; (exponent, count) pairs -> "q"
    # fragment; id(block) -> where its items start in parts, and their count
    mus: dict = {}
    ws: dict = {}
    tails: dict = {}
    qs: dict = {}
    written: dict = {}
    parts: list = [first]
    put = parts.append
    for mu, w in sorted(table, key=lambda p: (p[0], words[p[1]])):
        frag = mus.get(mu)
        if frag is None:
            frag = mus[mu] = fragment(0, mu)
        head = ws.get(w)
        if head is None:
            head = ws[w] = fragment(1, w)
        head = frag + head
        block = table[mu, w]
        seen = written.get(id(block))
        if seen is not None:
            start, count = seen
            chunk = parts[start : start + 3 * count]
            chunk[1::3] = [head] * count
            parts += chunk
            continue
        written[id(block)] = (len(parts), len(block))
        for tail in sorted(block):
            pairs = tuple(block[tail].items())
            frag = qs.get(pairs)
            if frag is None:
                frag = qs[pairs] = item % sep.join([pair % p for p in sorted(pairs)])
            put(frag)
            put(head)
            frag = tails.get(tail)
            if frag is None:
                frag = tails[tail] = "".join([fragment(i, v) for i, v in enumerate(tail, 2)])
            put(frag)
    parts[1] = parts[1][2:]  # no separator before the first item
    put(last)
    return "".join(parts)
