"""Chevalley-type expansion of graded characters, as a formal computation.

The character symbols gch[w] are opaque; the only relation imposed is the
translation normalization gch[w t_xi] = q^{-<mu, xi>} gch[w] for the ambient
dominant weight mu.  The right-hand side of the expansion is computed exactly
above a q-exponent floor, and specializes combinatorially at mu = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .alcove import (
    LambdaChain,
    admissible_support,
    enumerate_admissible,
    lambda_pm,
    lex_chain,
    sweep_admissible,
)
from .genfun import AffineWeylElt, Laurent, par_enumerate
from .rootsys import RootSystem, Weight, WeylElement


class FormalChar:
    """A finite sum of (Laurent in q) * e^{weight} * gch[w], normalized.

    Terms are keyed by (weight exponent, finite Weyl part); translation parts
    have already been folded into the q-coefficient using mu_param.
    """

    __slots__ = ("rs", "mu_param", "terms")

    def __init__(self, rs: RootSystem, mu_param: Weight, terms: dict | None = None):
        self.rs = rs
        self.mu_param = mu_param
        self.terms = {k: v for k, v in (terms or {}).items() if not v.is_zero()}

    def add_symbol(self, mu: Weight, x: AffineWeylElt, coeff: Laurent):
        """Add coeff * e^mu * gch[x], normalizing gch[w t_xi] to q^{-<mu_param,xi>} gch[w]."""
        shift = -self.rs.pair(self.mu_param, x.xi)
        key = (mu, x.w)
        prev = self.terms.get(key)
        new = coeff.shifted(shift) if prev is None else prev + coeff.shifted(shift)
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def truncated(self, floor: int) -> "FormalChar":
        return FormalChar(
            self.rs,
            self.mu_param,
            {k: v.truncated(floor) for k, v in self.terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, FormalChar)
            and self.mu_param == other.mu_param
            and self.terms == other.terms
        )

    def to_json(self) -> list:
        items = [
            {
                "q": sorted([e, c] for e, c in coeff.terms.items()),
                "mu": list(mu.coeffs),
                "gch_w": [i + 1 for i in w.word],
            }
            for (mu, w), coeff in self.terms.items()
        ]
        items.sort(key=lambda d: (d["mu"], d["gch_w"]))
        return items

    def __repr__(self):
        body = ", ".join(
            f"({c})*e^{mu.coeffs}*gch[{w.word_str}]"
            for (mu, w), c in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0].coeffs, kv[0][1].index)
            )
        )
        return f"FormalChar[{body}]"


def rhs_chevalley(
    rs: RootSystem,
    mu: Weight,
    lam: Weight,
    chain: LambdaChain,
    x: AffineWeylElt,
    q_floor: int,
) -> FormalChar:
    """The admissible-subset expansion of gch[x] against a lambda-chain.

    Sum over A and partition tuples chi of
    (-1)^{n(A)} q^{-height(A) - <lam, xi> - |chi|} e^{wt(A)}
    gch[ed(A) t_{xi + down(A) + iota(chi)}], normalized and truncated at
    q_floor (exactly: the partition bound is derived from the floor).
    """
    if not mu.is_dominant:
        raise ValueError("the character parameter must be dominant")
    if chain.lam != lam:
        raise ValueError("chain does not belong to lambda")
    out = FormalChar(rs, mu)
    base = -rs.pair(lam, x.xi) - rs.pair(mu, x.xi)
    subsets = enumerate_admissible(chain, x.w)
    if not subsets:
        return out
    cmax = max(base - a.height - rs.pair(mu, a.down) for a in subsets)
    bound = cmax - q_floor
    if bound < 0:
        return out
    tuples = par_enumerate(rs, lam, bound)
    for a in subsets:
        head = base - a.height - rs.pair(mu, a.down)
        for chi in tuples:
            iota = chi.iota()
            e = head - chi.size - rs.pair(mu, iota)
            if e < q_floor:
                continue
            key = (a.wt, a.ed)
            coeff = Laurent.q_power(e, a.sign)
            prev = out.terms.get(key)
            new = coeff if prev is None else prev + coeff
            if new.is_zero():
                out.terms.pop(key, None)
            else:
                out.terms[key] = new
    return out.truncated(q_floor)


def specialize_trivial(f: FormalChar) -> dict:
    """Substitute gch[w] := 1 for all w; defined only for mu_param = 0."""
    if not f.mu_param.is_zero():
        raise ValueError("specialization requires mu = 0")
    out: dict = {}
    for (mu, _w), coeff in f.terms.items():
        prev = out.get(mu, Laurent())
        s = prev + coeff
        if s.is_zero():
            out.pop(mu, None)
        else:
            out[mu] = s
    return out


def verify_vanishing(
    rs: RootSystem,
    lam: Weight,
    w: WeylElement,
    chain: Optional[LambdaChain] = None,
) -> bool:
    """Exact cancellation sum_A (-1)^{|A|} q^{-height(A)} e^{wt(A)} = 0.

    Defined for antidominant nonzero lam (so mu = 0 and mu + lam is not
    dominant); the finite sum must vanish identically.
    """
    if not lam.is_antidominant or lam.is_zero():
        raise ValueError("lambda must be antidominant and nonzero")
    if chain is None:
        chain = lex_chain(rs, lam)
    taken, _ = admissible_support(chain, w)
    if any(chain.roots[j - 1].is_positive for j in taken):
        raise RuntimeError("antidominant chain produced a positive entry")
    # every subset takes negative entries only, so (-1)^{|A|} = (-1)^n
    acc: dict = {}
    for (_ed, wt, _down, height), count in sweep_admissible(chain, w).items():
        acc[wt, height] = acc.get((wt, height), 0) + count
    return not any(acc.values())


def verify_factorization(
    rs: RootSystem,
    mu: Weight,
    lam: Weight,
    x: AffineWeylElt,
    q_floor: int,
) -> bool:
    """Compare the flat expansion over lex(l+)*lex(l-) with the nested one.

    The nested form runs the dominant expansion first and the antidominant
    one second, exactly as the hatted composition factors; both sides are
    truncated at q_floor.
    """
    from .alcove import concat_chains

    lam_p, lam_m = lambda_pm(lam)
    chain_p = lex_chain(rs, lam_p)
    chain_m = lex_chain(rs, lam_m)
    gamma0 = concat_chains(chain_p, chain_m)
    flat = rhs_chevalley(rs, mu, lam, gamma0, x, q_floor)

    nested = FormalChar(rs, mu)
    subsets_p = enumerate_admissible(chain_p, x.w)
    pair_data = []
    cmax = None
    for a in subsets_p:
        for b in enumerate_admissible(chain_m, a.ed):
            c = (
                -a.height
                - rs.pair(lam_p, x.xi)
                - b.height
                - rs.pair(lam_m, x.xi + a.down)
                - rs.pair(mu, x.xi + a.down + b.down)
            )
            pair_data.append((a, b, c))
            cmax = c if cmax is None else max(cmax, c)
    if cmax is not None and cmax - q_floor >= 0:
        tuples = par_enumerate(rs, lam_p, cmax - q_floor)
        for a, b, c in pair_data:
            for chi in tuples:
                iota = chi.iota()
                e = (
                    c
                    - chi.size
                    - rs.pair(lam_m, iota)
                    - rs.pair(mu, iota)
                )
                if e < q_floor:
                    continue
                sign = 1 if (a.n + b.n) % 2 == 0 else -1
                key = (a.wt + b.wt, b.ed)
                coeff = Laurent.q_power(e, sign)
                prev = nested.terms.get(key)
                new = coeff if prev is None else prev + coeff
                if new.is_zero():
                    nested.terms.pop(key, None)
                else:
                    nested.terms[key] = new
    nested = nested.truncated(q_floor)
    return flat == nested
