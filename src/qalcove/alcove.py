"""Lambda-chains with levels, admissible subsets and their statistics.

A lambda-chain records the walls crossed by an alcove path from the
fundamental alcove to its translate by -lambda.  Levels are recovered by an
exact rational walk of the base point nu0 = rho/h: each step reflects the
current point across the wall of its alcove in the direction of the negated
chain entry, so a genuine chain reproduces its own levels and a corrupted
sequence fails the endpoint or counting check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Optional, Sequence

from . import qbg
from .rootsys import Coroot, RationalPoint, Root, RootSystem, Weight, WeylElement


class ChainError(ValueError):
    """The root sequence is not a lambda-chain (or fails validation)."""


@dataclass(frozen=True)
class LambdaChain:
    rs: RootSystem
    lam: Weight
    roots: tuple[Root, ...]
    levels: tuple[int, ...]
    _adm_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def tilde_levels(self) -> tuple[int, ...]:
        return tuple(self._tilde(k) for k in range(len(self.roots)))

    def _tilde(self, k: int) -> int:
        beta = self.roots[k]
        return self.rs.pair(self.lam, self.rs.coroot(beta)) - self.levels[k]

    def __len__(self):
        return len(self.roots)

    def __eq__(self, other):
        return (
            isinstance(other, LambdaChain)
            and self.rs is other.rs
            and self.lam == other.lam
            and self.roots == other.roots
        )

    def __hash__(self):
        return hash((id(self.rs), self.lam, self.roots))

    def to_json(self) -> dict:
        return {
            "type": self.rs.type_label,
            "rank": self.rs.rank,
            "lambda": list(self.lam.coeffs),
            "roots": [list(r.coeffs) for r in self.roots],
            "levels": list(self.levels),
        }

    @staticmethod
    def from_json(data: dict, rs: Optional[RootSystem] = None) -> "LambdaChain":
        from .rootsys import build_root_system

        if rs is None:
            rs = build_root_system(data["type"])
        lam = rs.weight(data["lambda"])
        roots = tuple(rs.root(c) for c in data["roots"])
        chain = compute_levels(rs, roots, lam)
        if "levels" in data and tuple(data["levels"]) != chain.levels:
            raise ChainError("stored levels disagree with the recomputed walk")
        return chain

    @staticmethod
    def load(path: str, rs: Optional[RootSystem] = None) -> "LambdaChain":
        with open(path, "r", encoding="utf-8") as fh:
            return LambdaChain.from_json(json.load(fh), rs)


def _walk(rs: RootSystem, roots: Sequence[Root], certify: bool = False):
    """Run the alcove walk from nu0; return (levels, endpoint)."""
    point = rs.nu0
    levels = []
    for beta in roots:
        p = rs.pair(point, rs.coroot(beta))
        if p.denominator == 1:
            raise ChainError("walk point landed on a wall; corrupt chain")
        m = p.numerator // p.denominator  # exact floor
        if certify and not _adjacency_certificate(rs, point, beta, m):
            raise ChainError("step is not certified as a facet crossing")
        point = rs.affine_reflect(point, beta, m)
        levels.append(-m)
    return tuple(levels), point


def _adjacency_certificate(rs, point, beta, m) -> bool:
    # midpoint of the segment to the mirror point; adjacent if it avoids
    # every other hyperplane family (sufficient, not necessary)
    f = rs.pair(point, rs.coroot(beta)) - m
    bw = rs.root_to_weight(beta)
    mid = RationalPoint(
        tuple(c - f / 2 * a for c, a in zip(point.coeffs, bw.coeffs))
    )
    for gamma in rs.positive_roots:
        if gamma == abs(beta):
            continue
        if rs.pair(mid, rs.coroot(gamma)).denominator == 1:
            return False
    return True


def compute_levels(
    rs: RootSystem, roots: Iterable[Root], lam: Weight, certify: bool = False
) -> LambdaChain:
    """Validate a root sequence as a lambda-chain and attach its levels.

    Checks the endpoint of the walk and the counting fact
    <lambda, alpha^vee> = #{beta_j = alpha} - #{beta_j = -alpha}.
    """
    roots = tuple(roots)
    levels, endpoint = _walk(rs, roots, certify=certify)
    expected = RationalPoint(
        tuple(c - l for c, l in zip(rs.nu0.coeffs, lam.coeffs))
    )
    if endpoint != expected:
        raise ChainError(
            f"walk ends at {endpoint}, expected {expected}: not a {lam}-chain"
        )
    for alpha in rs.positive_roots:
        count = sum(1 for b in roots if b == alpha) - sum(
            1 for b in roots if b == -alpha
        )
        if count != rs.pair(lam, rs.coroot(alpha)):
            raise ChainError(f"counting fact fails at root {alpha}")
    return LambdaChain(rs, lam, roots, levels)


def is_reduced(chain: LambdaChain) -> bool:
    total = sum(
        abs(chain.rs.pair(chain.lam, chain.rs.coroot(a)))
        for a in chain.rs.positive_roots
    )
    return len(chain) == total


def is_weakly_reduced(chain: LambdaChain) -> bool:
    """No simple root occurs together with its negative."""
    present = set(chain.roots)
    for i in range(chain.rs.rank):
        a = chain.rs.simple_root(i)
        if a in present and -a in present:
            return False
    return True


def lex_chain(rs: RootSystem, lam: Weight) -> LambdaChain:
    """The lex lambda-chain for dominant lam; reverse-negated for antidominant.

    Pairs (alpha, k), 0 <= k < <lam, alpha^vee>, are sorted by the rational
    vector (k, b_1, ..., b_n)/<lam, alpha^vee> (alpha = sum b_i alpha_i).  The
    result is validated by the walk; if the sort ever failed to produce a
    genuine chain we fall back to the generic-segment chain.
    """
    if lam.is_zero():
        return compute_levels(rs, (), lam)
    if lam.is_antidominant:
        pos = lex_chain(rs, -lam)
        roots = tuple(-b for b in reversed(pos.roots))
        return compute_levels(rs, roots, lam)
    if not lam.is_dominant:
        raise ChainError("lex chain needs a dominant or antidominant weight")
    pairs = []
    for alpha in rs.positive_roots:
        c = rs.pair(lam, rs.coroot(alpha))
        for k in range(c):
            key = (Fraction(k, c),) + tuple(Fraction(b, c) for b in alpha.coeffs)
            pairs.append((key, alpha))
    pairs.sort(key=lambda t: t[0])
    roots = tuple(alpha for _, alpha in pairs)
    try:
        return compute_levels(rs, roots, lam)
    except ChainError:
        # not expected for any supported type; keep a working fallback anyway
        return segment_chain(rs, lam)


def straight_crossings(
    rs: RootSystem, start: RationalPoint, end: RationalPoint
) -> tuple[Root, ...]:
    """Chain entries crossed by the straight segment start -> end, in order.

    Both endpoints must be interior points of alcoves and the segment must
    cross hyperplanes one at a time; otherwise a ChainError asks the caller
    to perturb.
    """
    crossings = []
    seen = set()
    for alpha in rs.positive_roots:
        pa = rs.pair(start, rs.coroot(alpha))
        pb = rs.pair(end, rs.coroot(alpha))
        if pa.denominator == 1 or pb.denominator == 1:
            raise ChainError("endpoint lies on a wall")
        if pa == pb:
            continue
        lo, hi = min(pa, pb), max(pa, pb)
        first = math.floor(lo) + 1
        last = math.ceil(hi) - 1
        for kk in range(first, last + 1):
            t = Fraction(pa - kk, pa - pb)
            if t in seen:
                raise ChainError("simultaneous crossings; perturb an endpoint")
            seen.add(t)
            beta = alpha if pb < pa else -alpha
            crossings.append((t, beta))
    crossings.sort(key=lambda x: x[0])
    return tuple(beta for _, beta in crossings)


def segment_chain(rs: RootSystem, lam: Weight) -> LambdaChain:
    """A reduced lambda-chain from a generic straight segment nu0 -> nu0 - lam.

    Orders the separating hyperplanes by crossing time along the segment,
    tie-broken by a generic perturbation of the base point.  Works for every
    weight, dominant or not.
    """
    if lam.is_zero():
        return compute_levels(rs, (), lam)
    for m in range(1, 60):
        d = tuple(Fraction(m**i + i, 1) for i in range(rs.rank))
        crossings = []
        collision = False
        seen = set()
        for alpha in rs.positive_roots:
            c = rs.pair(lam, rs.coroot(alpha))
            if c == 0:
                continue
            c0 = Fraction(rs.coroot(alpha).height, rs.coxeter_number)
            slope = sum(x * y for x, y in zip(d, rs.coroot(alpha).coeffs))
            ks = range(0, -c, -1) if c > 0 else range(1, -c + 1)
            for k in ks:
                key = (Fraction(c0 - k, c), Fraction(slope, c))
                if key in seen:
                    collision = True
                    break
                seen.add(key)
                crossings.append((key, alpha if c > 0 else -alpha))
            if collision:
                break
        if collision:
            continue
        crossings.sort(key=lambda t: t[0])
        roots = tuple(beta for _, beta in crossings)
        try:
            return compute_levels(rs, roots, lam)
        except ChainError:
            continue
    raise ChainError(f"no generic segment chain found for {lam}")


def insert_pair(chain: LambdaChain, u: int, beta: Root) -> LambdaChain:
    """Insert the segment (beta, -beta) before 1-based position u+1.

    The inserted crossing must be a genuine facet crossing of the alcove the
    walk has reached (the step straight back then crosses the same facet);
    positions where the certificate fails are rejected.
    """
    rs = chain.rs
    point = rs.nu0
    for k in range(u):
        p = rs.pair(point, rs.coroot(chain.roots[k]))
        point = rs.affine_reflect(point, chain.roots[k], p.numerator // p.denominator)
    p = rs.pair(point, rs.coroot(beta))
    if not _adjacency_certificate(rs, point, beta, p.numerator // p.denominator):
        raise ChainError("inserted pair is not a facet crossing here")
    roots = chain.roots[:u] + (beta, -beta) + chain.roots[u:]
    return compute_levels(chain.rs, roots, chain.lam)


def chain_with_segment(
    rs: RootSystem, segment: Sequence[Root], lam: Optional[Weight] = None
) -> tuple[LambdaChain, int]:
    """A genuine lambda-chain containing the given YB segment consecutively.

    The segment is walked as a sweep around a vertex of the affine
    arrangement, spliced between straight alcove paths from nu0 and back to
    nu0 - lam.  Returns (chain, t) with the segment at positions t+1..t+q.
    Rank-2 systems only.
    """
    if rs.rank != 2:
        raise ChainError("segment hosting is implemented for rank 2")
    if lam is None:
        lam = Weight((0,) * rs.rank)
    segment = tuple(segment)
    c1 = rs.coroot(segment[0]).coeffs
    c6 = rs.coroot(segment[-1]).coeffs
    det = c1[0] * c6[1] - c1[1] * c6[0]
    if det == 0:
        raise ChainError("segment endpoints are proportional")
    target = RationalPoint(
        tuple(c - l for c, l in zip(rs.nu0.coeffs, lam.coeffs))
    )
    for p1, p6 in ((5, 7), (7, 5), (9, 11), (11, 13), (13, 17)):
        v1, v6 = Fraction(1, p1), Fraction(1, p6)
        x = Fraction(v1 * c6[1] - v6 * c1[1], det)
        y = Fraction(c1[0] * v6 - c6[0] * v1, det)
        start = RationalPoint((x, y))
        point = start
        try:
            for gamma in segment:
                p = rs.pair(point, rs.coroot(gamma))
                if p.denominator == 1:
                    raise ChainError("sweep point on a wall")
                point = rs.affine_reflect(point, gamma, p.numerator // p.denominator)
            prefix = straight_crossings(rs, rs.nu0, start)
            suffix = straight_crossings(rs, point, target)
            chain = compute_levels(rs, prefix + segment + suffix, lam, certify=True)
            return chain, len(prefix)
        except ChainError:
            continue
    raise ChainError("could not host the segment in a genuine chain")


@dataclass(frozen=True)
class AdmissibleSubset:
    """A w-admissible index subset of a chain, with cached statistics."""

    chain: LambdaChain
    w: WeylElement
    indices: tuple[int, ...]  # 1-based, increasing
    path: qbg.DirectedPath
    wt: Weight
    ed: WeylElement
    down: Coroot
    height: int
    n: int

    def coheight(self) -> int:
        """Sum of levels over quantum steps; defined for dominant lam, w = e."""
        if not (self.chain.lam.is_dominant and self.w == self.chain.rs.identity):
            raise ValueError("coheight is defined only for dominant lambda and w = e")
        return sum(
            self.chain.levels[s.index - 1]
            for s in self.path.steps
            if s.edge.kind == qbg.QUANTUM
        )

    @property
    def sign(self) -> int:
        return -1 if self.n % 2 else 1

    def key(self):
        return self.indices

    def stats_tuple(self):
        return (self.sign, self.wt, self.height, self.down, self.ed)

    def __repr__(self):
        return f"A{list(self.indices)}"


def _statistics(chain: LambdaChain, w: WeylElement, path: qbg.DirectedPath):
    rs = chain.rs
    down = Coroot((0,) * rs.rank)
    height = 0
    n = 0
    for s in path.steps:
        if not s.root.is_positive:
            n += 1
        if s.edge.kind == qbg.QUANTUM:
            down = down + rs.coroot(s.edge.label)
            height += s.root.sign * chain._tilde(s.index - 1)
    x = -chain.lam
    for s in reversed(path.steps):
        x = rs.affine_reflect(x, s.root, -chain.levels[s.index - 1])
    wt = -rs.act(w, x)
    return AdmissibleSubset(
        chain, w, path.index_set, path, wt, path.end, down, height, n
    )


def enumerate_admissible(
    chain: LambdaChain, w: WeylElement
) -> tuple[AdmissibleSubset, ...]:
    """All w-admissible subsets with statistics, in lex order of index sets."""
    cached = chain._adm_cache.get(w)
    if cached is not None:
        return cached
    paths = qbg.pi_compatible_paths(chain.rs, w, chain.roots)
    out = tuple(_statistics(chain, w, p) for p in paths)
    chain._adm_cache[w] = out
    return out


# -- the sweep kernel ---------------------------------------------------------


def _sweep_tables(rs: RootSystem):
    """Integer tables of the sweep, built once per root system.

    Returns (target, quantum, root_wt, coroot): target[v][p] is the index of
    v s_p in rs.weyl_elements if QBG has the edge v -> v s_p, else -1, and
    quantum[v][p] flags a quantum edge (v indexes rs.weyl_elements, p
    rs.positive_roots); root_wt[k] is rs.all_roots[k] in the fundamental-weight
    basis and coroot[p] the coroot of rs.positive_roots[p].
    """
    if rs._sweep_tables is None:
        edges = qbg._edge_table(rs)
        target, quantum = [], []
        for v in rs.weyl_elements:
            row = [edges[(v, alpha)] for alpha in rs.positive_roots]
            target.append(tuple(e.target.index if e else -1 for e in row))
            quantum.append(tuple(bool(e) and e.kind == qbg.QUANTUM for e in row))
        rs._sweep_tables = (
            tuple(target),
            tuple(quantum),
            tuple(rs.root_to_weight(r).coeffs for r in rs.all_roots),
            tuple(rs.coroot(r).coeffs for r in rs.positive_roots),
        )
    return rs._sweep_tables


def _root_step(rs: RootSystem, beta: Root) -> tuple[int, int, int]:
    """(index in all_roots, index of |beta| in positive_roots, sign) of beta."""
    k = rs._root_index[beta]
    npos = len(rs.positive_roots)
    return k, k % npos, 1 if k < npos else -1


def sweep_admissible(chain: LambdaChain, w: WeylElement) -> dict:
    """The signed count of every end state of A(w, Gamma), without listing subsets.

    Returns {(ed, wt, down, height): sum of (-1)^n over the subsets with these
    statistics}, zero sums dropped.  The sweep carries signed counts of states
    (v, c, down, height) from {(w, 0, 0, 0): 1} along the chain: at beta_j an
    edge v -> v s_|beta_j| of the quantum Bruhat graph adds -l_j v(beta_j) to
    c, a quantum edge also adds |beta_j|^vee to down and sign(beta_j) l~_j to
    height, and a negative beta_j negates the count.  Subsets that reach the
    same state merge, so the work follows the number of states, not of
    subsets.  At the end wt = ed(lambda) - c.
    """
    rs = chain.rs
    target, quantum, root_wt, coroot = _sweep_tables(rs)
    n = rs.rank
    zero = (0,) * n
    perms = [v.root_perm for v in rs.weyl_elements]
    # by vertex: {(c_1..c_n, down_1..down_n, height): count}, one flat tuple
    # so that a step adds one increment vector
    states: list = [None] * len(perms)
    still = zero + (0,)  # (down, height) increment of a Bruhat edge
    states[w.index] = {zero + still: 1}
    for beta, l, tilde in zip(chain.roots, chain.levels, chain.tilde_levels):
        k, p, sign = _root_step(rs, beta)
        new = list(states)
        for v, src in enumerate(states):
            t = target[v][p]
            if not src or t < 0:
                continue
            step = coroot[p] + (sign * tilde,) if quantum[v][p] else still
            delta = tuple(-l * x for x in root_wt[perms[v][k]]) + step
            dst = dict(states[t] or ())
            get = dst.get
            for key, cnt in src.items():
                key = tuple(map(add, key, delta))
                cnt = get(key, 0) + cnt * sign
                if cnt:
                    dst[key] = cnt
                else:
                    del dst[key]
            new[t] = dst
        states = new

    out = {}
    for v, final in enumerate(states):
        if not final:
            continue
        ed = rs.weyl_elements[v]
        top = rs.act(ed, chain.lam).coeffs
        for key, cnt in final.items():
            wt = Weight(tuple(map(sub, top, key[:n])))
            out[(ed, wt, Coroot(key[n : 2 * n]), key[2 * n])] = cnt
    return out


def admissible_support(
    chain: LambdaChain, w: WeylElement
) -> tuple[frozenset, frozenset]:
    """(positions taken by some w-admissible subset, heights that occur).

    Sweeps the set of reachable (vertex, height) pairs, ignoring counts, so
    subsets whose signed counts cancel still count as present.
    """
    rs = chain.rs
    target, quantum, _, _ = _sweep_tables(rs)
    reach = {(w.index, 0)}
    taken = set()
    for j, (beta, tilde) in enumerate(zip(chain.roots, chain.tilde_levels), 1):
        _, p, sign = _root_step(rs, beta)
        step = {
            (target[v][p], h + sign * tilde if quantum[v][p] else h)
            for v, h in reach
            if target[v][p] >= 0
        }
        if step:
            taken.add(j)
            reach |= step
    return frozenset(taken), frozenset(h for _, h in reach)


def admissible_from_indices(
    chain: LambdaChain, w: WeylElement, indices: Iterable[int]
) -> AdmissibleSubset:
    """Build one admissible subset from a 1-based index set; errors if invalid."""
    rs = chain.rs
    steps = []
    current = w
    for j in sorted(indices):
        beta = chain.roots[j - 1]
        edge = qbg.qbg_edge(rs, current, abs(beta))
        if edge is None:
            raise ChainError(f"index set not admissible at position {j}")
        steps.append(qbg.PathStep(j, beta, edge))
        current = edge.target
    return _statistics(chain, w, qbg.DirectedPath(w, tuple(steps)))


# -- concatenation ----------------------------------------------------------


def concat_chains(c1: LambdaChain, c2: LambdaChain) -> LambdaChain:
    if c1.rs is not c2.rs:
        raise ChainError("chains live in different root systems")
    return compute_levels(c1.rs, c1.roots + c2.roots, c1.lam + c2.lam)


def concat_admissible(
    a: AdmissibleSubset, b: AdmissibleSubset, concat: Optional[LambdaChain] = None
) -> AdmissibleSubset:
    """The image A*B of (A, B) under the concatenation bijection."""
    if b.w != a.ed:
        raise ChainError("second factor must start at ed of the first")
    if concat is None:
        concat = concat_chains(a.chain, b.chain)
    shift = len(a.chain)
    indices = a.indices + tuple(j + shift for j in b.indices)
    return admissible_from_indices(concat, a.w, indices)


def split_admissible(indices: Sequence[int], t: int, q: int):
    """Split a 1-based index set at prefix length t and segment length q."""
    a1 = tuple(j for j in indices if j <= t)
    a2 = tuple(j for j in indices if t < j <= t + q)
    a3 = tuple(j for j in indices if j > t + q)
    return a1, a2, a3


# -- weight decompositions ---------------------------------------------------


def lambda_pm(lam: Weight) -> tuple[Weight, Weight]:
    """The cancellation-free split lam = lam_plus + lam_minus."""
    plus = Weight(tuple(max(c, 0) for c in lam.coeffs))
    minus = Weight(tuple(min(c, 0) for c in lam.coeffs))
    return plus, minus


def is_cancellation_free(weights: Sequence[Weight]) -> bool:
    """Per coordinate, all nonzero summand coefficients share a sign."""
    if not weights:
        return True
    rank = len(weights[0].coeffs)
    for i in range(rank):
        signs = {c > 0 for w in weights if (c := w.coeffs[i]) != 0}
        if len(signs) > 1:
            return False
    return True


def report_tsv(subsets: Sequence[AdmissibleSubset]) -> str:
    """Admissible-subset report: index set, wt, ed, down, height, n."""
    lines = ["indices\twt\ted\tdown\theight\tn"]
    for a in subsets:
        lines.append(
            "\t".join(
                [
                    "{" + ",".join(str(j) for j in a.indices) + "}",
                    ",".join(str(c) for c in a.wt.coeffs),
                    a.ed.word_str,
                    ",".join(str(c) for c in a.down.coeffs),
                    str(a.height),
                    str(a.n),
                ]
            )
        )
    return "\n".join(lines)
