"""Generating functions of admissible-subset statistics over the affine Weyl group.

G_Gamma(w t_xi) sums (-1)^n q^{-height - <lambda, xi>} e^{wt} ed t_{xi + down}
over the w-admissible subsets of Gamma; it extends linearly to finite formal
sums.  G is computed by the sweep `alcove.sweep_admissible`, which merges
subsets with equal statistics as it runs instead of listing them.  The
hatted variant further sums over tuples of bounded partitions and is
computed exactly above a caller-supplied q-exponent floor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .alcove import (
    LambdaChain,
    enumerate_admissible,
    is_cancellation_free,
    sweep_admissible,
)
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


@dataclass(frozen=True)
class AffineWeylElt:
    """x = w t_xi with w finite and xi in the coroot lattice."""

    w: WeylElement
    xi: Coroot

    def translated(self, delta: Coroot) -> "AffineWeylElt":
        return AffineWeylElt(self.w, self.xi + delta)

    def __repr__(self):
        return f"{self.w.word_str}*t{self.xi.coeffs}"


class GenFun:
    """A finite formal sum of (Laurent in q) * e^mu * (w t_xi)."""

    __slots__ = ("rs", "terms")

    def __init__(self, rs: RootSystem, terms: dict | None = None):
        self.rs = rs
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    def add_term(self, mu: Weight, x: AffineWeylElt, coeff: Laurent):
        key = (mu, x.w, x.xi)
        prev = self.terms.get(key)
        new = coeff if prev is None else prev + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other: "GenFun") -> "GenFun":
        out = GenFun(self.rs, dict(self.terms))
        for (mu, w, xi), c in other.terms.items():
            out.add_term(mu, AffineWeylElt(w, xi), c)
        return out

    def scaled(self, coeff: Laurent, mu_shift: Weight, xi_shift: Coroot) -> "GenFun":
        out = GenFun(self.rs)
        for (mu, w, xi), c in self.terms.items():
            out.add_term(mu + mu_shift, AffineWeylElt(w, xi + xi_shift), c * coeff)
        return out

    def truncated(self, floor: int) -> "GenFun":
        return GenFun(
            self.rs, {k: v.truncated(floor) for k, v in self.terms.items()}
        )

    def max_exponent(self) -> Optional[int]:
        exps = [v.max_exponent() for v in self.terms.values()]
        return max(exps) if exps else None

    def __eq__(self, other):
        return isinstance(other, GenFun) and self.terms == other.terms

    def to_json(self) -> list:
        items = []
        for (mu, w, xi), c in self.terms.items():
            items.append(
                {
                    "q": sorted([e, coef] for e, coef in c.terms.items()),
                    "mu": list(mu.coeffs),
                    "w": [i + 1 for i in w.word],
                    "xi": list(xi.coeffs),
                }
            )
        items.sort(key=lambda d: (d["mu"], d["w"], d["xi"]))
        return items

    def __repr__(self):
        body = ", ".join(
            f"({c})*e^{mu.coeffs}*{w.word_str}*t{xi.coeffs}"
            for (mu, w, xi), c in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0].coeffs, kv[0][1].index, kv[0][2].coeffs)
            )
        )
        return f"GenFun[{body}]"


def genfun(chain: LambdaChain, x: AffineWeylElt) -> GenFun:
    """The generating function G_Gamma(x) of one chain at x = w t_xi."""
    rs = chain.rs
    base = -rs.pair(chain.lam, x.xi)
    terms: dict = {}
    for (ed, wt, down, height), count in sweep_admissible(chain, x.w).items():
        terms.setdefault((wt, ed, x.xi + down), {})[base - height] = count
    return GenFun(rs, {k: Laurent(v) for k, v in terms.items()})


def genfun_extend(chain: LambdaChain, f: GenFun) -> GenFun:
    """Linear extension of G_Gamma over a finite formal sum."""
    out = GenFun(f.rs)
    for (mu, w, xi), c in f.terms.items():
        g = genfun(chain, AffineWeylElt(w, xi))
        out = out + g.scaled(c, mu, Coroot((0,) * f.rs.rank))
    return out


def compose(chain1: LambdaChain, chain2: LambdaChain, x: AffineWeylElt) -> GenFun:
    """G_{Gamma1} applied to G_{Gamma2}(x)."""
    return genfun_extend(chain1, genfun(chain2, x))


def genfun_equal(f: GenFun, g: GenFun, q_floor: Optional[int] = None) -> bool:
    if q_floor is None:
        return f == g
    return f.truncated(q_floor) == g.truncated(q_floor)


# -- partition tuples ---------------------------------------------------------


@dataclass(frozen=True)
class ParTuple:
    """One partition per Dynkin node, lengths bounded by max(m_i, 0)."""

    parts: tuple[tuple[int, ...], ...]

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


def ghat(chain: LambdaChain, x: AffineWeylElt, q_floor: int) -> GenFun:
    """Ghat_Gamma(x), exact in every q-exponent >= q_floor.

    The partition-tuple sum is truncated with the provable bound
    |chi| <= max-exponent(G) - q_floor, so no kept term is missed.
    """
    rs = chain.rs
    g = genfun(chain, x)
    top = g.max_exponent()
    if top is None:
        return GenFun(rs)
    out = GenFun(rs)
    for chi in par_enumerate(rs, chain.lam, top - q_floor):
        shift = chi.iota()
        coeff = Laurent.q_power(-chi.size)
        out = out + g.scaled(coeff, Weight((0,) * rs.rank), shift)
    return out.truncated(q_floor)


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
    inner = []  # (B-subset term data) for chain2 at x
    base2 = -rs.pair(mu2, x.xi)
    for b in enumerate_admissible(chain2, x.w):
        inner.append(b)
    cmax = None
    pairs = []
    for b in inner:
        for a in enumerate_admissible(chain1, b.ed):
            c = (
                -b.height
                + base2
                - a.height
                - rs.pair(mu1, x.xi + b.down)
            )
            pairs.append((b, a, c))
            cmax = c if cmax is None else max(cmax, c)
    out = GenFun(rs)
    if cmax is None:
        return out
    bound = cmax - q_floor
    if bound < 0:
        return out
    par2 = par_enumerate(rs, mu2, bound)
    par1 = par_enumerate(rs, mu1, bound)
    for b, a, c in pairs:
        for omega in par2:
            # e(omega) only lowers exponents on nodes where mu1 >= 0
            shift_o = omega.iota()
            e_omega = c - omega.size - rs.pair(mu1, shift_o)
            if e_omega < q_floor:
                continue
            for psi in par1:
                e = e_omega - psi.size
                if e < q_floor:
                    continue
                sign = 1 if (a.n + b.n) % 2 == 0 else -1
                xi = x.xi + b.down + shift_o + a.down + psi.iota()
                out.add_term(
                    a.wt + b.wt,
                    AffineWeylElt(a.ed, xi),
                    Laurent.q_power(e, sign),
                )
    return out.truncated(q_floor)


def weight_orbit_sum(chain: LambdaChain) -> dict:
    """sum_{A in A(e, Gamma)} q^{height(A)} e^{wt(A)}, as {weight: Laurent}."""
    rs = chain.rs
    out: dict = {}
    for a in enumerate_admissible(chain, rs.identity):
        prev = out.get(a.wt, Laurent())
        out[a.wt] = prev + Laurent.q_power(a.height)
    return {k: v for k, v in out.items() if not v.is_zero()}


def is_weyl_invariant(rs: RootSystem, f: dict) -> bool:
    """Whether a {weight: Laurent} sum is invariant under the Weyl action."""
    for i in range(rs.rank):
        s = rs.simple_reflection(i)
        image: dict = {}
        for mu, c in f.items():
            key = rs.act(s, mu)
            image[key] = image.get(key, Laurent()) + c
        image = {k: v for k, v in image.items() if not v.is_zero()}
        if image != f:
            return False
    return True
