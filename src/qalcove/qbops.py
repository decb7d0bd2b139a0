"""Quantum Bruhat operators on the group algebra, with polynomial coefficients.

Q_gamma sends v to v*s_gamma (Bruhat edge), to Q^{gamma^vee} v*s_gamma
(quantum edge), or to 0; Q_{-gamma} = -Q_gamma and R_gamma = 1 + Q_gamma.
A product of R-operators is a |W| x |W| matrix over the exact polynomial
ring Z[Q_1..Q_n], in the ShortLex basis order of W, computed as a sparse
table {(v, w): {exponent: coefficient}} of its nonzero cells, which
OperatorMatrix holds; each R_gamma or Q_gamma is one qbg.sweep_step on
states that hold their occupied vertices only.  Every polynomial is such a
plain {exponent: coefficient} dict with no zero coefficient: one decoder,
`_cells`, turns end states into the table's cells and into the
{WeylElement: polynomial} sums that apply_Q and apply_R_sequence return.  The multiplicity laws and
the golden files are checked on these tables; golden files compare byte
for byte with their canonical TSV (`_tsv`, `cell_str` per cell), and a
run of the laws over both chains keeps one table per distinct sequence.
The Yang-Baxter check of a pair compares its two products as end states
from the columns of one coset of the dihedral subgroup W' per signature
(`_coset_starts`): the products are block-diagonal over the cosets v W',
and cosets with equal edge flags have equal blocks.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from operator import mul

from . import qbg
from .records import FrozenRecord, Record
from .rootsys import Root, RootSystem, WeylElement


def cell_str(terms: dict) -> str:
    """The canonical text of {exponent: coefficient}: terms exponent-lex
    descending, as in "3*Q1*Q2^2-Q1+1"; "0" for no term."""
    if not terms:
        return "0"
    out = []
    for e, c in sorted(terms.items(), reverse=True):
        mono = "*".join([f"Q{i}^{p}" if p > 1 else f"Q{i}" for i, p in enumerate(e, 1) if p])
        mag = -c if c < 0 else c
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        out.append(("-" if c < 0 else "+") + body)
    text = "".join(out)
    return text[1:] if text[0] == "+" else text


# -- the operator sweep --------------------------------------------------------
#
# States are {v: {key: count}} over the occupied vertex indices v of
# rs.weyl_elements: the coefficient of Q^down at v in the image of the basis
# vector rs.weyl_elements[start], keyed by start << (n width) plus down packed
# in n fields of width bits (`qbg.pack`).  down >= 0, so no field needs
# an offset, and width bounds the degree the sequence can reach (_width).
# Each operator is one `qbg.sweep_step`, so every column advances in one
# pass.


def _width(rs: RootSystem, seq: Sequence[Root], top: int = 0) -> int:
    """Field width for down after seq from exponents <= top: each step adds
    at most one coroot."""
    bound = top + sum(max(rs._coroot_vec[qbg._root_step(rs, gamma)[1]]) for gamma in seq)
    return max(bound.bit_length(), 1)


def _shifts(rs: RootSystem, width: int) -> tuple:
    """shift[p][v]: the packed coroot of rs.positive_roots[p] on a quantum
    edge at v, 0 on a Bruhat one; cached per width on the root system."""
    got = rs._shifts.get(width)
    if got is None:
        _, quantum, _ = qbg._columns(rs)
        got = rs._shifts[width] = tuple(
            tuple(d if q else 0 for q in qs)
            for d, qs in zip((qbg.pack(c, width) for c in rs._coroot_vec), quantum)
        )
    return got


def _step(rs: RootSystem, states: dict, gamma: Root, keep: bool, width: int) -> dict:
    """The states after R_gamma (keep=True) or Q_gamma (keep=False)."""
    column, _, _ = qbg._columns(rs)
    _, p, sign = qbg._root_step(rs, gamma)
    return qbg.sweep_step(states, column[p], _shifts(rs, width)[p], sign, keep)


def _sweep(rs: RootSystem, seq: Sequence[Root], starts: Sequence[int], width: int) -> dict:
    """End states of R_{gamma_r} ... R_{gamma_1} on each start vertex index."""
    states = {s: {s << (rs.rank * width): 1} for s in starts}
    for gamma in seq:
        states = _step(rs, states, gamma, True, width)
    return states


def _cells(rs: RootSystem, states: dict, width: int, low: int = 0) -> dict:
    """The end states as {(v, start): {exponent: coefficient}}, by vertex
    indices, in (v, start) order; each down field holds exponent - low, and
    each exponent is decoded once per distinct packed value."""
    n = rs.rank
    shift = n * width
    dmask = (1 << shift) - 1
    exps: dict = {}
    cells = {}
    for v, final in sorted(states.items()):
        row: dict = {}
        for key, c in final.items():
            start = key >> shift
            cell = row.get(start)
            if cell is None:
                cell = row[start] = {}
            bits = key & dmask
            exp = exps.get(bits)
            if exp is None:
                exp = exps[bits] = qbg.unpack(bits, width, n, -low)
            cell[exp] = c
        for w in sorted(row):
            cells[v, w] = row[w]
    return cells


def apply_Q(rs: RootSystem, gamma: Root, elt) -> dict:
    """Apply the quantum Bruhat operator Q_gamma (signed) to v or to a sum.

    A sum, and the result, is {WeylElement: {exponent: coefficient}}; the
    result holds no zero coefficient and no empty polynomial, and a zero
    coefficient of the sum counts as absent.
    """
    terms = {elt: {(0,) * rs.rank: 1}} if isinstance(elt, WeylElement) else elt
    # a caller's polynomial may hold negative exponents; fields hold e - low
    exps = [x for p in terms.values() for e in p for x in e]
    low = min(exps + [0])
    width = _width(rs, (gamma,), max(exps + [0]) - low)
    states = {}
    for w, p in terms.items():
        seed = {qbg.pack([x - low for x in e], width): c for e, c in p.items() if c}
        if seed:
            states[w.index] = seed
    cells = _cells(rs, _step(rs, states, gamma, False, width), width, low)
    return {rs.weyl_elements[v]: cell for (v, _), cell in cells.items()}


def apply_R_sequence(rs: RootSystem, seq: Sequence[Root], v: WeylElement) -> dict:
    """R_{gamma_r} ... R_{gamma_1} v for seq = (gamma_1, ..., gamma_r), as
    {WeylElement: {exponent: coefficient}}.

    The sequence is given in application order, matching the path order of
    compatible-path sums.
    """
    width = _width(rs, seq)
    cells = _cells(rs, _sweep(rs, seq, (v.index,), width), width)
    return {rs.weyl_elements[w]: cell for (w, _), cell in cells.items()}


def _table(rs: RootSystem, seq: Sequence[Root]) -> dict:
    """The matrix of R_{gamma_r} ... R_{gamma_1} as a sparse table.

    {(v, w): {exponent: coefficient}} holds the nonzero cells only, by
    vertex indices, in (row, column) order: the coefficient of
    Q^exponent v in the image of w, from one sweep over all columns.
    """
    width = _width(rs, seq)
    return _cells(rs, _sweep(rs, seq, range(len(rs.weyl_elements)), width), width)


def _tsv(rs: RootSystem, table: dict) -> str:
    """The table as TSV: one line per row, cells in cell_str form."""
    n = range(len(rs.weyl_elements))
    get = table.get
    return "\n".join("\t".join(cell_str(get((v, w), {})) for w in n) for v in n)


class OperatorMatrix(FrozenRecord):
    """Matrix (c_{v,w}) of an operator T, T w = sum_v c_{v,w} v, basis ShortLex.

    It holds the sparse table {(v, w): {exponent: coefficient}} of _table;
    entry reads a copy of one cell.
    """

    __slots__ = _fields = ("rs", "table")

    def __init__(self, rs: RootSystem, table: dict):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "table", table)

    def entry(self, v: WeylElement, w: WeylElement) -> dict:
        """c_{v,w} as {exponent: coefficient}, {} for a zero cell."""
        return dict(self.table.get((v.index, w.index), ()))

    def to_tsv(self) -> str:
        return _tsv(self.rs, self.table)


def operator_matrix(rs: RootSystem, seq: Sequence[Root]) -> OperatorMatrix:
    """Matrix of R_{gamma_r} ... R_{gamma_1}, seq in application order."""
    return OperatorMatrix(rs, _table(rs, seq))


def same_operator(
    rs: RootSystem, seq1: Sequence[Root], seq2: Sequence[Root], starts: Sequence[int] | None = None
) -> bool:
    """True iff the two R-operator products are equal, compared as end states
    from the start columns `starts` (vertex indices), by default all of W."""
    if starts is None:
        starts = range(len(rs.weyl_elements))
    width = max(_width(rs, seq1), _width(rs, seq2))
    return _sweep(rs, seq1, starts, width) == _sweep(rs, seq2, starts, width)


def yang_baxter_pairs(rs: RootSystem):
    """Signed root pairs (alpha, beta) with alpha != +-beta and <alpha, beta^vee> <= 0.

    These are the pairs whose rank-2 segment check_yang_baxter checks; the
    pairing is read off the integer tables by all_roots index.
    """
    roots, root_wt, coroot = rs.all_roots, rs._root_wt, rs._coroot_vec
    npos = len(rs.positive_roots)
    for a, alpha in enumerate(roots):
        wt = root_wt[a]
        for b, beta in enumerate(roots):
            if a % npos == b % npos or sum(map(mul, wt, coroot[b])) > 0:
                continue
            yield alpha, beta


def _coset_starts(rs: RootSystem, ps: Sequence[int]) -> list:
    """The start columns that decide a product of R_gamma, |gamma| among the
    positive roots of index ps, those of a rank-2 subsystem.

    R_gamma moves v only to v s_gamma, so the product is block-diagonal over
    the cosets v W' of W' = <s_p : p in ps>.  Each coset is walked
    breadth-first from its shortest element u, right-multiplying by s_p in
    the order of ps, so its i-th element is u x_i with x_i the same for
    every coset; u is unique (Dyer, "On the Bruhat graph of a Coxeter
    system", 1991) and the first of the coset in ShortLex order.  The
    signature of a coset is the edge flag (0 none, 1 Bruhat, 2 quantum) of
    each (element, p) in that order.  A step's coroot and sign depend on
    gamma alone, so cosets with equal signatures have equal blocks.
    Returns the elements of the first coset of each signature, increasing.
    """
    column, quantum, right = qbg._columns(rs)
    steps = [right[p] for p in ps]
    flags = [(column[p], quantum[p]) for p in ps]
    seen = [False] * len(rs.weyl_elements)
    firsts: dict = {}
    for u in range(len(seen)):
        if seen[u]:
            continue
        seen[u] = True
        coset = [u]
        for x in coset:  # grows while walked: breadth-first
            for step in steps:
                t = step[x]
                if not seen[t]:
                    seen[t] = True
                    coset.append(t)
        signature = tuple([(col[x] >= 0) + qcol[x] for x in coset for col, qcol in flags])
        firsts.setdefault(signature, coset)
    return sorted(x for coset in firsts.values() for x in coset)


def check_yang_baxter(rs: RootSystem, alpha: Root, beta: Root, cosets: dict | None = None) -> bool:
    """R_alpha R_{s_alpha(beta)} ... R_beta = R_beta ... R_alpha as matrices.

    Both products are compared from the starts of _coset_starts, one coset
    per signature.  cosets, if given, keeps those starts by the segment's
    positive roots across calls, so that pairs with one rank-2 subsystem
    share them.
    """
    seg = rs.rank2_subsystem(alpha, beta).segment
    ps = tuple(sorted(qbg._root_step(rs, gamma)[1] for gamma in seg))
    memo = {} if cosets is None else cosets
    starts = memo.get(ps)
    if starts is None:
        starts = memo[ps] = _coset_starts(rs, ps)
    return same_operator(rs, seg, tuple(reversed(seg)), starts)


def yang_baxter_checks(rs: RootSystem):
    """(alpha, beta, check_yang_baxter(rs, alpha, beta)) for every Yang-Baxter pair.

    The segment of (beta, alpha) is that of (alpha, beta) reversed, so both
    orders compare the same two products: each unordered pair is checked
    once, and the pairs come in yang_baxter_pairs order.  The checks share
    one memo of coset starts, which lives for this call only.
    """
    done: dict = {}
    cosets: dict = {}
    for alpha, beta in yang_baxter_pairs(rs):
        key = frozenset((alpha, beta))
        ok = done.get(key)
        if ok is None:
            ok = done[key] = check_yang_baxter(rs, alpha, beta, cosets)
        yield alpha, beta, ok


# -- multiplicity checks -------------------------------------------------------


def rank2_chain(rs: RootSystem, reverse: bool = False) -> tuple[Root, ...]:
    """The fixed sweep (beta_1, ..., beta_q) between the two simple roots."""
    if rs.rank != 2:
        raise ValueError("rank-2 types only")
    a, b = rs.simple_root(0), rs.simple_root(1)
    seg = rs.rank2_subsystem(b, a).segment if reverse else rs.rank2_subsystem(a, b).segment
    return seg


def _sk_sequence(chain: Sequence[Root], k: int) -> tuple[Root, ...]:
    # S_k applies beta_k, ..., beta_1 first, then beta_q, ..., beta_{k+1}
    return tuple(reversed(chain[:k])) + tuple(reversed(chain[k:]))


def _tk_sequence(chain: Sequence[Root], k: int, plus: bool) -> tuple[Root, ...]:
    inner = tuple(-b if plus else b for b in reversed(chain[:k]))
    outer = tuple(b if plus else -b for b in reversed(chain[k:]))
    return inner + outer


def _sprime_sequence(chain: Sequence[Root], k: int) -> tuple[Root, ...]:
    return tuple(chain[k:]) + tuple(chain[:k])


class MatrixPropReport(Record):
    __slots__ = _fields = ("type_label", "k", "reverse", "violations", "m3_positions", "n3_positions")

    def __init__(
        self,
        type_label: str,
        k: int,
        reverse: bool,
        violations: list,
        m3_positions: list,
        n3_positions: list,
    ):
        self.type_label = type_label
        self.k = k
        self.reverse = reverse
        self.violations = violations
        self.m3_positions = m3_positions  # (v word, w word) where S_k itself has coefficient 3
        self.n3_positions = n3_positions  # (v word, w word) where the opposite sweep has 3

    @property
    def coeff3_positions(self) -> list:
        return self.m3_positions + self.n3_positions

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_matrix_props(
    rs: RootSystem, k: int, reverse: bool = False, tables: dict | None = None
) -> MatrixPropReport:
    """Check the multiplicity claims for S_k against T_k^+/- and S'_k.

    Multiplicities in S_k entries are 1 or 2 (1, 2 or 3 in G2); where the
    multiplicity is 2 both signed operators and the opposite sweep vanish;
    where it is 1 the signed coefficients are +-1.  Every coefficient-3
    location is reported.

    tables, if given, keeps the sparse tables of rs by sequence across
    calls.  The reverse chain is the forward one reversed, so S_k of one is
    S'_{q-k} of the other (and S_0 = S_q = T_0^+ = T_q^-): a run over every
    k and both chains builds one table per distinct sequence, at most
    6(q+1) (34 in G2) instead of 8(q+1).
    """
    chain = rank2_chain(rs, reverse)
    q = len(chain)
    if not 0 <= k <= q:
        raise ValueError(f"k must be within 0..{q}")
    g2 = rs.type_label == "G2"
    allowed = {1, 2, 3} if g2 else {1, 2}
    seqs = (
        _sk_sequence(chain, k),
        _tk_sequence(chain, k, plus=True),
        _tk_sequence(chain, k, plus=False),
        _sprime_sequence(chain, k),
    )
    memo = {} if tables is None else tables
    for seq in seqs:
        if seq not in memo:
            memo[seq] = _table(rs, seq)
    s, tp, tm, sp = (memo[seq] for seq in seqs)
    # only a cell nonzero in S_k or a signed operator can break a law (S'_k
    # is read at S_k's exponents); positions are (v, w) vertex indices,
    # spelled as words at the end for the few that are recorded
    violations = []
    m3 = []
    n3 = []
    none: dict = {}
    for where in sorted(s.keys() | tp.keys() | tm.keys()):
        entry = s.get(where, none)
        signed_p = tp.get(where, none)
        signed_m = tm.get(where, none)
        swept = sp.get(where, none)
        for exp, m in entry.items():
            if m not in allowed:
                violations.append((where, "multiplicity", exp, m))
                continue
            np_, nm = signed_p.get(exp, 0), signed_m.get(exp, 0)
            ns = swept.get(exp, 0)
            if m == 2:
                if np_ != 0 or nm != 0:
                    violations.append((where, "signed-not-zero", exp, (np_, nm)))
                if (ns not in (0, 2)) if g2 else (ns != 0):
                    violations.append((where, "sweep", exp, ns))
            elif m == 1:
                if np_ not in (1, -1) or nm not in (1, -1):
                    violations.append((where, "signed-unit", exp, (np_, nm)))
                if (ns not in (1, 3)) if g2 else (ns != 1):
                    violations.append((where, "sweep", exp, ns))
                if ns == 3:
                    n3.append(where)
            else:  # m == 3, G2 only
                m3.append(where)
                if np_ not in (1, -1) or nm not in (1, -1):
                    violations.append((where, "signed-unit", exp, (np_, nm)))
                if ns != 1:
                    violations.append((where, "sweep", exp, ns))
        for signed in (signed_p, signed_m):
            for exp, c in signed.items():
                if exp not in entry:
                    violations.append((where, "signed-outside", exp, c))
    basis = rs.weyl_elements

    def words(cell):
        return basis[cell[0]].word_str, basis[cell[1]].word_str

    violations = [(words(where), *rest) for where, *rest in violations]
    return MatrixPropReport(
        rs.type_label, k, reverse, violations, list(map(words, m3)), list(map(words, n3))
    )


# -- golden data ---------------------------------------------------------------


def _golden_root():
    # imported here, not at module level: importlib.resources pulls in
    # pathlib, zipfile and tempfile, which only the golden checks need
    from importlib import resources

    return resources.files("qalcove").joinpath("data/golden")


def load_golden_manifest() -> list[dict]:
    raw = _golden_root().joinpath("manifest.json").read_text(encoding="utf-8")
    return json.loads(raw)


def check_golden(rs: RootSystem) -> list[tuple[str, bool]]:
    """(name, ok) for each golden operator matrix of this type.

    A file is ok when its SHA-256 is the manifest's and its bytes are the
    TSV of the matrix recomputed from its sequence.  Every shipped file is
    in canonical form, so no cell is parsed.
    """
    import hashlib

    root = _golden_root()
    results = []
    for item in load_golden_manifest():
        if item["type"] != rs.type_label:
            continue
        blob = root.joinpath(item["file"]).read_bytes()
        if hashlib.sha256(blob).hexdigest() != item["sha256"]:
            results.append((item["name"], False))
            continue
        seq = tuple(rs.root(c) for c in item["sequence"])
        text = _tsv(rs, _table(rs, seq)) + "\n"
        results.append((item["name"], blob == text.encode("utf-8")))
    return results
