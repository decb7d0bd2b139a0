"""Yang-Baxter and deletion moves on chains, and the generalized sijection.

A Yang-Baxter transformation reverses a maximal rank-2 segment
(alpha, s_alpha(beta), ..., s_beta(alpha), beta) of a chain.  Between the
admissible sets of the two chains there is a sign-preserving bijection Y on
subsets A_0 together with sign-reversing involutions I1, I2 on the
complements; all three preserve wt, height, down and ed.

The class 1..5 of an admissible subset, and its partner, depend only on the
side, the vertex its prefix path ends at, and its segment part: the path
from that vertex along the segment with those indices is unique.  Each
YbContext keeps a class table on that key, filled on first use from the
segment paths of the vertex, walked over the integer QBG tables and grouped
by end vertex and down, with the four explicit G2 families handled by
hard-coded label sequences; the partner of a subset is its index set with
the segment part swapped for the table's.

Subsets are the enumerator's read-only records, whose statistics are
decoded on access.  The checks of build_sijection never decode them: both
chains have the same lambda, so two subsets agree in ed, wt, down and
height exactly when they agree in end vertex and in their key (c, down,
height, n) without n, and in sign when n has the same parity.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

from . import alcove, qbg
from .alcove import AdmissibleSubset, LambdaChain, admissible_from_indices
from .records import FrozenRecord
from .rootsys import Root, RootSystem, RootSystemError, WeylElement


class SijectionError(RuntimeError):
    """Internal consistency failure while building a sijection."""


class YbContext(FrozenRecord):
    """A chain together with one Yang-Baxter segment and its reversal."""

    _fields = ("chain1", "chain2", "t", "q", "alpha", "beta")
    __slots__ = _fields + ("_path_cache", "_class_cache")

    def __init__(
        self,
        chain1: LambdaChain,
        chain2: LambdaChain,
        t: int,
        q: int,
        alpha: Root,
        beta: Root,
    ):
        object.__setattr__(self, "chain1", chain1)
        object.__setattr__(self, "chain2", chain2)
        object.__setattr__(self, "t", t)  # prefix length; segment occupies 1-based positions t+1 .. t+q
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "_path_cache", {})
        object.__setattr__(self, "_class_cache", {})

    @property
    def rs(self) -> RootSystem:
        return self.chain1.rs

    @property
    def pi(self) -> tuple[Root, ...]:
        return self.chain1.roots[self.t : self.t + self.q]

    @property
    def pi_prime(self) -> tuple[Root, ...]:
        return self.chain2.roots[self.t : self.t + self.q]

    def paths(self, v: int, primed: bool) -> tuple[list, dict]:
        """The segment paths from the vertex of index v on one side, built once.

        Returns ([(index set, (end, down))], {(end, down): [index sets]}),
        from qbg.index_paths along the side's segment: index sets within
        the segment (1..q), in lex order, the empty path first.
        """
        key = (v, primed)
        got = self._path_cache.get(key)
        if got is None:
            seq = self.pi_prime if primed else self.pi
            paths = [(js, (end, down)) for js, end, down in qbg.index_paths(self.rs, v, seq)]
            groups: dict = {}
            for js, group in paths:
                groups.setdefault(group, []).append(js)
            got = self._path_cache[key] = (paths, groups)
        return got


def find_yb_segments(chain: LambdaChain) -> list[tuple[int, int, Root, Root]]:
    """All (t, q, alpha, beta) such that positions t+1..t+q form a YB segment."""
    rs = chain.rs
    out = []
    r = len(chain)
    for t in range(r - 1):
        alpha = chain.roots[t]
        for q in (2, 3, 4, 6):
            if t + q > r:
                break
            beta = chain.roots[t + q - 1]
            if alpha == beta or alpha == -beta:
                continue
            if rs.root_pair(alpha, rs.coroot(beta)) > 0:
                continue
            try:
                seg = rs.rank2_subsystem(alpha, beta)
            except RootSystemError:
                continue
            if seg.q == q and seg.segment == chain.roots[t : t + q]:
                out.append((t, q, alpha, beta))
    return out


def yb_transform(chain: LambdaChain, t: int, q: int) -> LambdaChain:
    """Reverse the YB segment at positions t+1..t+q; levels are recomputed."""
    rs = chain.rs
    if not (0 <= t and t + q <= len(chain)):
        raise alcove.ChainError("segment positions out of range")
    alpha, beta = chain.roots[t], chain.roots[t + q - 1]
    try:
        seg = rs.rank2_subsystem(alpha, beta)
    except RootSystemError as exc:
        raise alcove.ChainError(f"not a Yang-Baxter segment: {exc}") from exc
    if seg.segment != chain.roots[t : t + q]:
        raise alcove.ChainError("positions do not form a Yang-Baxter segment")
    roots = (
        chain.roots[: t]
        + tuple(reversed(chain.roots[t : t + q]))
        + chain.roots[t + q :]
    )
    out = alcove.compute_levels(rs, roots, chain.lam)
    for p in range(1, q + 1):
        if out.levels[t + p - 1] != chain.levels[t + q - p]:
            raise SijectionError("level reversal law failed; corrupt chain")
    return out


def delete_pair(chain: LambdaChain, u: int) -> LambdaChain:
    """Delete the segment (beta, -beta) at 1-based positions u+1, u+2."""
    if not 0 <= u <= len(chain) - 2 or chain.roots[u + 1] != -chain.roots[u]:
        raise alcove.ChainError(f"positions {u + 1}, {u + 2} are not a (beta, -beta) pair")
    roots = chain.roots[: u] + chain.roots[u + 2 :]
    return alcove.compute_levels(chain.rs, roots, chain.lam)


def make_context(chain: LambdaChain, t: int, q: int) -> YbContext:
    chain2 = yb_transform(chain, t, q)
    return YbContext(chain, chain2, t, q, chain.roots[t], chain.roots[t + q - 1])


# -- G2 exceptional families --------------------------------------------------

# Signed segment patterns (coefficient tuples); the actual segment may be the
# pattern or its global negative.
_E13_PATTERN = ((3, 2), (2, 1), (3, 1), (1, 0), (0, -1), (-1, -1))
_E24_PATTERN = ((1, 1), (0, 1), (-1, 0), (-3, -1), (-2, -1), (-3, -2))

# Explicit path families, as sequences of positive-root labels.  The middle
# entry of each triple is the Y-partner of the opposite side's single path;
# the outer two are swapped by the sign-reversing involution.
_TRIPLE_A = (
    ((3, 2), (3, 1), (1, 1)),
    ((3, 1), (1, 0), (0, 1)),
    ((3, 1), (0, 1), (1, 1)),
)
_SINGLE_A = ((0, 1), (1, 0), (3, 1))
_TRIPLE_B = (
    ((1, 1), (3, 1), (3, 2)),
    ((0, 1), (1, 0), (3, 1)),
    ((1, 1), (0, 1), (3, 1)),
)
_SINGLE_B = ((3, 1), (1, 0), (0, 1))

_EXC_VERTEX = {"A": "s1s2s1", "B": "s2s1s2s1"}
_EXC_END = {"A": "s1s2", "B": "s2s1s2"}


def _pattern_kind(pi: Sequence[Root]) -> str | None:
    coeffs = tuple(r.coeffs for r in pi)
    neg = tuple(tuple(-c for c in t) for t in coeffs)
    if coeffs == _E13_PATTERN or neg == _E13_PATTERN:
        return "E13"
    if coeffs == _E24_PATTERN or neg == _E24_PATTERN:
        return "E24"
    return None


def _exceptional_family(rs, v, pi):
    """The G2 family of the segment paths from the vertex of index v along pi.

    Returns None when there is none, else ((end, down), triple, single,
    pi_side_has_triple): the paths in the family are those whose (end
    index, down), as YbContext.paths groups them, equal (end, down).
    """
    if rs.type_label != "G2" or len(pi) != 6:
        return None
    kind = _pattern_kind(pi)
    word = rs.weyl_elements[v].word_str
    for side in ("A", "B"):
        if kind is None or word != _EXC_VERTEX[side]:
            continue
        group = (rs.element_from_word(_EXC_END[side]).index, (1, 1))
        triple = _TRIPLE_A if side == "A" else _TRIPLE_B
        single = _SINGLE_A if side == "A" else _SINGLE_B
        # the triple sits on the pi side in the first and fourth family,
        # on the reversed side in the second and third
        return group, triple, single, (kind == "E13") == (side == "A")
    return None


def _path_from_labels(rs: RootSystem, v: int, seq: Sequence[Root], labels) -> tuple[int, ...]:
    """The index set (within seq, 1..len(seq)) of the explicit family path
    from the vertex of index v whose edges carry the given positive-root
    labels, each |gamma_j| for one gamma_j of seq, in increasing j."""
    column, _, _ = qbg._columns(rs)
    by_label = {abs(g).coeffs: j for j, g in enumerate(seq, start=1)}
    js = ()
    for lab in labels:
        j = by_label[lab]
        if js and j <= js[-1]:
            raise SijectionError("family labels out of order for this segment")
        v = column[qbg._root_step(rs, seq[j - 1])[1]][v]
        if v < 0:
            raise SijectionError("explicit family path is not a QBG path")
        js += (j,)
    return js


def classify_phi(a: AdmissibleSubset, ctx: YbContext, primed: bool = False) -> int:
    """The class 1..5 of the segment part of `a` (classes 3..5 are G2-only)."""
    return _class_entry(ctx, a, primed)[0]


def _class_entry(ctx: YbContext, a: AdmissibleSubset, primed: bool):
    """(phi, partner index set, partner primed) of `a`, from the context's class table.

    The indices up to t are the prefix, those in t+1..t+q the segment part;
    the prefix path ends at the vertex its last step reaches (w if empty).
    """
    indices = a.indices
    m = bisect_right(indices, ctx.t)
    m2 = bisect_right(indices, ctx.t + ctx.q, m)
    v = a.vertices[m - 1] if m else a.w.index
    table = ctx._class_cache.get((primed, v))
    if table is None:
        table = ctx._class_cache[primed, v] = _classify(ctx, primed, v)
    phi, partner, p_primed = table[indices[m:m2]]
    return phi, indices[:m] + partner + indices[m2:], p_primed


def _classify(ctx: YbContext, primed: bool, v: int) -> dict:
    """The class table of the segment paths from the vertex of index v on one side.

    Returns {segment indices: (phi, partner segment indices, partner
    primed)}, indices absolute in each side's chain.  `primed` selects the
    side: False for chain1 (pi is its own segment), True for chain2.
    """
    rs = ctx.rs
    pi = ctx.pi_prime if primed else ctx.pi
    pi_other = ctx.pi if primed else ctx.pi_prime
    t = ctx.t
    paths, groups = ctx.paths(v, primed)
    family = _exceptional_family(rs, v, pi)
    table = {}
    for mine, group in paths:
        if family is not None and group == family[0]:
            phi, partner, across = _exceptional_class(rs, v, mine, pi, pi_other, family[1:])
            side = primed != across
        else:
            same = [js for js in groups[group] if js != mine]
            others = () if same else ctx.paths(v, not primed)[1].get(group, ())
            if len(same) == 1:
                phi, partner, side = 1, same[0], primed
            elif len(others) == 1:
                phi, partner, side = 2, others[0], not primed
            else:
                raise SijectionError(
                    f"rank-2 shellability defect at v={rs.weyl_elements[v]}, segment {mine}"
                )
        table[tuple([t + j for j in mine])] = (phi, tuple([t + j for j in partner]), side)
    return table


def _exceptional_class(rs, v, mine, pi, pi_other, exc) -> tuple[int, tuple, bool]:
    """(phi, partner index set, partner on the other side) of the path with
    segment index set mine in a G2 family; its labels are the |pi_j|."""
    triple, single, own_has_triple = exc
    labels = tuple(abs(pi[j - 1]).coeffs for j in mine)
    if own_has_triple:
        if labels == triple[1]:
            return 4, _path_from_labels(rs, v, pi_other, single), True
        for i, jj in ((0, 2), (2, 0)):
            if labels == triple[i]:
                return 3, _path_from_labels(rs, v, pi, triple[jj]), False
    elif labels == single:
        return 5, _path_from_labels(rs, v, pi_other, triple[1]), True
    raise SijectionError(f"unrecognized exceptional path {labels}")


def _move(ctx: YbContext, a: AdmissibleSubset, allowed, primed: bool, what: str):
    """One move applied to a single subset; the partner is built from its indices."""
    phi, indices, p_primed = _class_entry(ctx, a, primed)
    if phi not in allowed:
        raise SijectionError(f"{what} is undefined on class {phi}")
    chain = ctx.chain2 if p_primed else ctx.chain1
    return admissible_from_indices(chain, a.w, indices)


def yb_Y(a: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The quantum Yang-Baxter move A |-> Y(A), defined for classes 2, 4, 5."""
    return _move(ctx, a, (2, 4, 5), False, "Y")


def yb_I1(a: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The sign-reversing involution on the complement of A_0(w, Gamma1)."""
    return _move(ctx, a, (1, 3), False, "I1")


def yb_I2(b: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The sign-reversing involution on the complement of A_0(w, Gamma2)."""
    return _move(ctx, b, (1, 3), True, "I2")


class Sijection(FrozenRecord):
    """The verified triple (I1, I2, Y) between two admissible sets."""

    __slots__ = _fields = ("ctx", "w", "core_pairs", "invol1", "invol2", "classes1", "classes2")

    def __init__(
        self,
        ctx: YbContext,
        w: WeylElement,
        core_pairs: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...],
        invol1: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...],
        invol2: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...],
        classes1: dict,
        classes2: dict,
    ):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "core_pairs", core_pairs)
        object.__setattr__(self, "invol1", invol1)  # unordered pairs
        object.__setattr__(self, "invol2", invol2)
        object.__setattr__(self, "classes1", classes1)
        object.__setattr__(self, "classes2", classes2)

    def report_json(self) -> dict:
        return {
            "w": self.w.word_str,
            "t": self.ctx.t,
            "q": self.ctx.q,
            "Y": [
                {"from": list(a.indices), "to": list(b.indices), "stats": a.stats_json()}
                for a, b in self.core_pairs
            ],
            "I1": [
                {"pair": [list(a.indices), list(b.indices)], "stats": a.stats_json()}
                for a, b in self.invol1
            ],
            "I2": [
                {"pair": [list(a.indices), list(b.indices)], "stats": a.stats_json()}
                for a, b in self.invol2
            ],
        }


def _records(ctx: YbContext, side, primed: bool) -> dict:
    """{indices: (subset, class entry, stats, parity of n)} of one side, in lex order.

    stats is (end vertex index, key without n): on two chains of one lambda
    these agree exactly when ed, wt, down and height do.
    """
    out = {}
    for a in side:
        vertices, key = a.vertices, a.key
        end = vertices[-1] if vertices else a.w.index
        out[a.indices] = (a, _class_entry(ctx, a, primed), (end, key[:-1]), key[-1] & 1)
    return out


def _check_preserved(r, s, sign_flip: bool, what: str):
    """r and s, two records, agree in statistics, and in sign unless sign_flip."""
    if r[2] != s[2]:
        raise SijectionError(f"{what} does not preserve statistics: {r[0]} vs {s[0]}")
    if sign_flip == (r[3] == s[3]):
        raise SijectionError(f"{what} has the wrong sign behaviour: {r[0]} vs {s[0]}")


def _assemble(r, records) -> tuple:
    """The record of the partner of record r under its class entry.

    records = (records of side 1, records of side 2); the partner is looked
    up on its own side, never rebuilt.
    """
    _, indices, primed = r[1]
    s = records[primed].get(indices)
    if s is None:
        raise SijectionError(f"partner {list(indices)} of {r[0]} is not an admissible subset")
    return s


def _pair_up(side: dict, records, what):
    """Build involution pairs on {phi in (1,3)} and check they really pair up.

    side holds one side's records in lex order of index sets, so each pair
    starts at the least index set still unpaired.
    """
    pending = {i for i, r in side.items() if r[1][0] in (1, 3)}
    pairs = []
    for i, r in side.items():
        if i not in pending:
            continue
        s = _assemble(r, records)
        j = s[0].indices
        if j == i or j not in pending:
            raise SijectionError(f"{what} pairing escaped its domain")
        _check_preserved(r, s, sign_flip=True, what=what)
        if s[1][0] not in (1, 3) or _assemble(s, records)[0].indices != i:
            raise SijectionError(f"{what} is not an involution at {r[0]}")
        pairs.append((r[0], s[0]))
        pending.remove(i)
        pending.remove(j)
    return tuple(pairs)


def build_sijection(ctx: YbContext, w: WeylElement) -> Sijection:
    """Construct and fully verify the sijection for one (YB) move and one w.

    Every check compares the subsets' records (see _records), never their
    decoded statistics.
    """
    records = (
        _records(ctx, alcove.enumerate_admissible(ctx.chain1, w), False),
        _records(ctx, alcove.enumerate_admissible(ctx.chain2, w), True),
    )
    side1, side2 = records

    core = []
    for r in side1.values():
        if r[1][0] in (2, 4, 5):
            s = _assemble(r, records)
            _check_preserved(r, s, sign_flip=False, what="Y")
            core.append((r[0], s[0]))
    image = {b.indices for _, b in core}
    if len(image) != len(core):
        raise SijectionError("Y is not injective")
    expected_image = {i for i, s in side2.items() if s[1][0] in (2, 4, 5)}
    if image != expected_image:
        raise SijectionError("image of Y does not match A_0(w, Gamma2)")

    invol1 = _pair_up(side1, records, what="I1")
    invol2 = _pair_up(side2, records, what="I2")

    signed: dict = {}
    for side, sign in ((side1, 1), (side2, -1)):
        for _, _, stats, odd in side.values():
            signed[stats] = signed.get(stats, 0) + (-sign if odd else sign)
    if any(v != 0 for v in signed.values()):
        raise SijectionError("signed statistics multisets disagree")

    return Sijection(
        ctx,
        w,
        tuple(core),
        invol1,
        invol2,
        {i: r[1][0] for i, r in side1.items()},
        {i: s[1][0] for i, s in side2.items()},
    )
