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
segment paths of the vertex (grouped by end and weight), with the four
explicit G2 families handled by hard-coded label sequences; the partner of a
subset is its index set with the segment part swapped for the table's.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import alcove, qbg
from .alcove import AdmissibleSubset, LambdaChain, admissible_from_indices
from .qbg import DirectedPath, PathStep
from .rootsys import Coroot, Root, RootSystem, RootSystemError, WeylElement


class SijectionError(RuntimeError):
    """Internal consistency failure while building a sijection."""


@dataclass(frozen=True)
class YbContext:
    """A chain together with one Yang-Baxter segment and its reversal."""

    chain1: LambdaChain
    chain2: LambdaChain
    t: int  # prefix length; segment occupies 1-based positions t+1 .. t+q
    q: int
    alpha: Root
    beta: Root
    _path_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _class_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def rs(self) -> RootSystem:
        return self.chain1.rs

    @property
    def pi(self) -> tuple[Root, ...]:
        return self.chain1.roots[self.t : self.t + self.q]

    @property
    def pi_prime(self) -> tuple[Root, ...]:
        return self.chain2.roots[self.t : self.t + self.q]

    def paths(self, v: WeylElement, primed: bool) -> tuple[list, dict]:
        """The segment paths from v on one side, built once.

        Returns ([(path, index set, (end, wt))], {(end, wt): [index sets]}),
        index sets within the segment (1..q).
        """
        key = (v, primed)
        got = self._path_cache.get(key)
        if got is None:
            seq = self.pi_prime if primed else self.pi
            paths = [
                (p, p.index_set, (p.end, p.wt(self.rs)))
                for p in qbg.pi_compatible_paths(self.rs, v, seq)
            ]
            groups: dict = {}
            for _, js, group in paths:
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


def _pattern_kind(pi: Sequence[Root]) -> Optional[str]:
    coeffs = tuple(r.coeffs for r in pi)
    neg = tuple(tuple(-c for c in t) for t in coeffs)
    if coeffs == _E13_PATTERN or neg == _E13_PATTERN:
        return "E13"
    if coeffs == _E24_PATTERN or neg == _E24_PATTERN:
        return "E24"
    return None


def _exceptional_family(rs, v, p, pi):
    """Return (triple, single, pi_side_has_triple) when (v, p, pi) is exceptional."""
    if rs.type_label != "G2" or len(pi) != 6:
        return None
    for side in ("A", "B"):
        if v.word_str != _EXC_VERTEX[side]:
            continue
        kind = _pattern_kind(pi)
        if kind is None or p.end.word_str != _EXC_END[side]:
            return None
        if p.wt(rs) != Coroot((1, 1)):
            return None
        triple = _TRIPLE_A if side == "A" else _TRIPLE_B
        single = _SINGLE_A if side == "A" else _SINGLE_B
        # the triple sits on the pi side in the first and fourth family,
        # on the reversed side in the second and third
        return triple, single, (kind == "E13") == (side == "A")
    return None


def _path_labels(p: DirectedPath) -> tuple[tuple[int, ...], ...]:
    return tuple(s.edge.label.coeffs for s in p.steps)


def _path_from_labels(
    rs: RootSystem, v: WeylElement, seq: Sequence[Root], labels
) -> DirectedPath:
    by_label = {abs(g).coeffs: j for j, g in enumerate(seq, start=1)}
    steps = []
    current = v
    last = 0
    for lab in labels:
        j = by_label[lab]
        if j <= last:
            raise SijectionError("family labels out of order for this segment")
        edge = qbg.qbg_edge(rs, current, rs.root(lab))
        if edge is None:
            raise SijectionError("explicit family path is not a QBG path")
        steps.append(PathStep(j, seq[j - 1], edge))
        current = edge.target
        last = j
    return DirectedPath(v, tuple(steps))


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
        table = ctx._class_cache[primed, v] = _classify(ctx, primed, ctx.rs.weyl_elements[v])
    phi, partner, p_primed = table[indices[m:m2]]
    return phi, indices[:m] + partner + indices[m2:], p_primed


def _classify(ctx: YbContext, primed: bool, v: WeylElement) -> dict:
    """The class table of the segment paths from v on one side.

    Returns {segment indices: (phi, partner segment indices, partner
    primed)}, indices absolute in each side's chain.  `primed` selects the
    side: False for chain1 (pi is its own segment), True for chain2.
    """
    rs = ctx.rs
    pi = ctx.pi_prime if primed else ctx.pi
    pi_other = ctx.pi if primed else ctx.pi_prime
    paths, groups = ctx.paths(v, primed)
    table = {}
    for p, mine, group in paths:
        exc = _exceptional_family(rs, v, p, pi)
        if exc is not None:
            phi, path, across = _exceptional_class(rs, v, p, pi, pi_other, exc)
            partner, side = path.index_set, primed != across
        else:
            same = [js for js in groups[group] if js != mine]
            others = () if same else ctx.paths(v, not primed)[1].get(group, ())
            if len(same) == 1:
                phi, partner, side = 1, same[0], primed
            elif len(others) == 1:
                phi, partner, side = 2, others[0], not primed
            else:
                raise SijectionError(f"rank-2 shellability defect at v={v}, segment {mine}")
        table[tuple(ctx.t + j for j in mine)] = (phi, tuple(ctx.t + j for j in partner), side)
    return table


def _exceptional_class(rs, v, p, pi, pi_other, exc) -> tuple[int, DirectedPath, bool]:
    """(phi, partner path, partner on the other side) of a path in a G2 family."""
    triple, single, own_has_triple = exc
    labels = _path_labels(p)
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


@dataclass(frozen=True)
class Sijection:
    """The verified triple (I1, I2, Y) between two admissible sets."""

    ctx: YbContext
    w: WeylElement
    core_pairs: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...]
    invol1: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...]  # unordered pairs
    invol2: tuple[tuple[AdmissibleSubset, AdmissibleSubset], ...]
    classes1: dict
    classes2: dict

    def report_json(self) -> dict:
        def stats(a):
            return {
                "wt": list(a.wt.coeffs),
                "ed": a.ed.word_str,
                "down": list(a.down.coeffs),
                "height": a.height,
                "n": a.n,
            }

        return {
            "w": self.w.word_str,
            "t": self.ctx.t,
            "q": self.ctx.q,
            "Y": [
                {"from": list(a.indices), "to": list(b.indices), "stats": stats(a)}
                for a, b in self.core_pairs
            ],
            "I1": [
                {"pair": [list(a.indices), list(b.indices)], "stats": stats(a)}
                for a, b in self.invol1
            ],
            "I2": [
                {"pair": [list(a.indices), list(b.indices)], "stats": stats(a)}
                for a, b in self.invol2
            ],
        }


def _check_preserved(a, b, sign_flip: bool, what: str):
    if a.wt != b.wt or a.height != b.height or a.down != b.down or a.ed != b.ed:
        raise SijectionError(f"{what} does not preserve statistics: {a} vs {b}")
    if sign_flip == (a.sign == b.sign):
        raise SijectionError(f"{what} has the wrong sign behaviour: {a} vs {b}")


def _assemble(a: AdmissibleSubset, entry, listed) -> AdmissibleSubset:
    """The partner of a under its class entry (phi, partner indices, primed).

    listed = ({indices: subset} of side 1, the same of side 2); the partner
    is looked up on its own side, never rebuilt.
    """
    _, indices, primed = entry
    b = listed[primed].get(indices)
    if b is None:
        raise SijectionError(f"partner {list(indices)} of {a} is not an admissible subset")
    return b


def _pair_up(side, classes, listed, what):
    """Build involution pairs on {phi in (1,3)} and check they really pair up.

    side is in lex order of index sets, so each pair starts at the least
    index set still unpaired.
    """
    pending = {a.indices for a in side if classes[a.indices][0] in (1, 3)}
    pairs = []
    for a in side:
        if a.indices not in pending:
            continue
        b = _assemble(a, classes[a.indices], listed)
        if b.indices == a.indices or b.indices not in pending:
            raise SijectionError(f"{what} pairing escaped its domain")
        _check_preserved(a, b, sign_flip=True, what=what)
        back = _assemble(b, classes[b.indices], listed)
        if classes[b.indices][0] not in (1, 3) or back.indices != a.indices:
            raise SijectionError(f"{what} is not an involution at {a}")
        pairs.append((a, b))
        pending.remove(a.indices)
        pending.remove(b.indices)
    return tuple(pairs)


def build_sijection(ctx: YbContext, w: WeylElement) -> Sijection:
    """Construct and fully verify the sijection for one (YB) move and one w."""
    side1 = alcove.enumerate_admissible(ctx.chain1, w)
    side2 = alcove.enumerate_admissible(ctx.chain2, w)
    listed = ({a.indices: a for a in side1}, {b.indices: b for b in side2})
    classes1 = {a.indices: _class_entry(ctx, a, False) for a in side1}
    classes2 = {b.indices: _class_entry(ctx, b, True) for b in side2}

    core = []
    for a in side1:
        entry = classes1[a.indices]
        if entry[0] in (2, 4, 5):
            b = _assemble(a, entry, listed)
            _check_preserved(a, b, sign_flip=False, what="Y")
            core.append((a, b))
    image = {b.indices for _, b in core}
    if len(image) != len(core):
        raise SijectionError("Y is not injective")
    expected_image = {
        b.indices for b in side2 if classes2[b.indices][0] in (2, 4, 5)
    }
    if image != expected_image:
        raise SijectionError("image of Y does not match A_0(w, Gamma2)")

    invol1 = _pair_up(side1, classes1, listed, what="I1")
    invol2 = _pair_up(side2, classes2, listed, what="I2")

    signed = {}
    for a in side1:
        key = (a.wt, a.height, a.down, a.ed)
        signed[key] = signed.get(key, 0) + a.sign
    for b in side2:
        key = (b.wt, b.height, b.down, b.ed)
        signed[key] = signed.get(key, 0) - b.sign
    if any(v != 0 for v in signed.values()):
        raise SijectionError("signed statistics multisets disagree")

    return Sijection(
        ctx,
        w,
        tuple(core),
        invol1,
        invol2,
        {k: v[0] for k, v in classes1.items()},
        {k: v[0] for k, v in classes2.items()},
    )
