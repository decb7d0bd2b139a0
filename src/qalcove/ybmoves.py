"""Yang-Baxter and deletion moves on chains, and the generalized sijection.

A Yang-Baxter transformation reverses a maximal rank-2 segment
(alpha, s_alpha(beta), ..., s_beta(alpha), beta) of a chain.  Between the
admissible sets of the two chains there is a sign-preserving bijection Y on
subsets A_0 together with sign-reversing involutions I1, I2 on the
complements; all three preserve wt, height, down and ed.  The classification
of each element (class 1..5) is by direct path enumeration in the rank-2
segment, with the four explicit G2 families handled by hard-coded label
sequences cross-checked against the enumeration.
"""

from __future__ import annotations

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

    @property
    def rs(self) -> RootSystem:
        return self.chain1.rs

    @property
    def pi(self) -> tuple[Root, ...]:
        return self.chain1.roots[self.t : self.t + self.q]

    @property
    def pi_prime(self) -> tuple[Root, ...]:
        return self.chain2.roots[self.t : self.t + self.q]

    def paths(self, v: WeylElement, primed: bool) -> list[DirectedPath]:
        key = (v, primed)
        if key not in self._path_cache:
            seq = self.pi_prime if primed else self.pi
            self._path_cache[key] = qbg.pi_compatible_paths(self.rs, v, seq)
        return self._path_cache[key]


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
        raise alcove.ChainError("positions u+1, u+2 are not a (beta, -beta) pair")
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
    kind = _pattern_kind(pi)
    if kind is None:
        return None
    for side in ("A", "B"):
        if v.word_str != _EXC_VERTEX[side]:
            continue
        if p.end.word_str != _EXC_END[side]:
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
    phi, _, _ = _classify(ctx, a, primed)
    return phi


def _segment_path(ctx: YbContext, a: AdmissibleSubset) -> tuple[WeylElement, DirectedPath]:
    """(v, p): end of the prefix path and the segment path reindexed to 1..q."""
    v = a.w
    steps = []
    for s in a.path.steps:
        if s.index <= ctx.t:
            v = s.edge.target
        elif s.index <= ctx.t + ctx.q:
            steps.append(PathStep(s.index - ctx.t, s.root, s.edge))
    start = v
    return start, DirectedPath(start, tuple(steps))


def _classify(ctx: YbContext, a: AdmissibleSubset, primed: bool):
    """Classify one admissible subset; return (phi, partner_path, partner_primed).

    `primed` selects the side: False for chain1 (pi is its own segment), True
    for chain2.  The partner path is indexed within its own segment sequence.
    """
    rs = ctx.rs
    v, p = _segment_path(ctx, a)
    own, other = (True, False) if primed else (False, True)
    pi = ctx.pi_prime if primed else ctx.pi
    pi_other = ctx.pi if primed else ctx.pi_prime

    exc = _exceptional_family(rs, v, p, pi)
    if exc is not None:
        triple, single, own_has_triple = exc
        labels = _path_labels(p)
        if own_has_triple:
            if labels == triple[1]:
                partner = _path_from_labels(rs, v, pi_other, single)
                return 4, partner, other
            for i, jj in ((0, 2), (2, 0)):
                if labels == triple[i]:
                    partner = _path_from_labels(rs, v, pi, triple[jj])
                    return 3, partner, own
        else:
            if labels == single:
                partner = _path_from_labels(rs, v, pi_other, triple[1])
                return 5, partner, other
        raise SijectionError(f"unrecognized exceptional path {labels}")

    end, wt = p.end, p.wt(rs)
    mine = p.index_set
    same = [
        r
        for r in ctx.paths(v, primed)
        if r.index_set != mine and r.end == end and r.wt(rs) == wt
    ]
    if len(same) == 1:
        return 1, same[0], own
    if not same:
        others = [
            r for r in ctx.paths(v, not primed) if r.end == end and r.wt(rs) == wt
        ]
        if len(others) == 1:
            return 2, others[0], other
    raise SijectionError(
        f"rank-2 shellability defect at v={v}, segment {p.index_set}"
    )


def _assemble(
    ctx: YbContext, a: AdmissibleSubset, partner: DirectedPath, primed: bool
) -> AdmissibleSubset:
    chain = ctx.chain2 if primed else ctx.chain1
    a1, _, a3 = alcove.split_admissible(a.indices, ctx.t, ctx.q)
    mid = tuple(ctx.t + j for j in partner.index_set)
    return admissible_from_indices(chain, a.w, a1 + mid + a3)


def yb_Y(a: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The quantum Yang-Baxter move A |-> Y(A), defined for classes 2, 4, 5."""
    phi, partner, primed = _classify(ctx, a, primed=False)
    if phi not in (2, 4, 5):
        raise SijectionError(f"Y is undefined on class {phi}")
    return _assemble(ctx, a, partner, primed)


def yb_I1(a: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The sign-reversing involution on the complement of A_0(w, Gamma1)."""
    phi, partner, primed = _classify(ctx, a, primed=False)
    if phi not in (1, 3):
        raise SijectionError(f"I1 is undefined on class {phi}")
    return _assemble(ctx, a, partner, primed)


def yb_I2(b: AdmissibleSubset, ctx: YbContext) -> AdmissibleSubset:
    """The sign-reversing involution on the complement of A_0(w, Gamma2)."""
    phi, partner, primed = _classify(ctx, b, primed=True)
    if phi not in (1, 3):
        raise SijectionError(f"I2 is undefined on class {phi}")
    return _assemble(ctx, b, partner, primed)


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


def _pair_up(side, classes, ctx, primed, what):
    """Build involution pairs on {phi in (1,3)} and check they really pair up."""
    pending = {a.indices: a for a in side if classes[a.indices][0] in (1, 3)}
    pairs = []
    while pending:
        _, a = sorted(pending.items())[0]
        phi, partner, p_primed = classes[a.indices]
        b = _assemble(ctx, a, partner, p_primed)
        if b.indices == a.indices or b.indices not in pending:
            raise SijectionError(f"{what} pairing escaped its domain")
        _check_preserved(a, b, sign_flip=True, what=what)
        phi_b = classes[b.indices][0]
        back = _assemble(ctx, b, classes[b.indices][1], classes[b.indices][2])
        if phi_b not in (1, 3) or back.indices != a.indices:
            raise SijectionError(f"{what} is not an involution at {a}")
        pairs.append((a, b))
        del pending[a.indices]
        del pending[b.indices]
    return tuple(pairs)


def build_sijection(ctx: YbContext, w: WeylElement) -> Sijection:
    """Construct and fully verify the sijection for one (YB) move and one w."""
    side1 = alcove.enumerate_admissible(ctx.chain1, w)
    side2 = alcove.enumerate_admissible(ctx.chain2, w)
    classes1 = {a.indices: _classify(ctx, a, primed=False) for a in side1}
    classes2 = {b.indices: _classify(ctx, b, primed=True) for b in side2}

    core = []
    for a in side1:
        phi, partner, primed = classes1[a.indices]
        if phi in (2, 4, 5):
            b = _assemble(ctx, a, partner, primed)
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

    invol1 = _pair_up(side1, classes1, ctx, primed=False, what="I1")
    invol2 = _pair_up(side2, classes2, ctx, primed=True, what="I2")

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
