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
    concat_chains,
    lambda_pm,
    lex_chain,
    sweep_admissible,
)
from .genfun import AffineWeylElt, GenFun, Laurent, compose, genfun, par_convolve, par_groups
from .rootsys import Coroot, RootSystem, Weight, WeylElement


class FormalChar:
    """A finite sum of (Laurent in q) * e^{weight} * gch[w], normalized.

    Terms are keyed by (weight exponent, finite Weyl part); translation parts
    have already been folded into the q-coefficient using mu_param.
    """

    __slots__ = ("rs", "mu_param", "terms")
    # names of the row vectors in the JSON items, after "q"
    ROW_NAMES = ("mu", "gch_w")

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, FormalChar)
            and self.mu_param == other.mu_param
            and self.terms == other.terms
        )

    def rows(self) -> list:
        """The terms as sorted rows (mu, gch_w, q_pairs) of int tuples.

        gch_w is the 1-based reduced word and q_pairs the (exponent,
        coefficient) pairs by increasing exponent; rows are sorted by the
        unique (mu, gch_w).
        """
        return sorted(
            (mu.coeffs, tuple(i + 1 for i in w.word), tuple(sorted(c.terms.items())))
            for (mu, w), c in self.terms.items()
        )

    def to_json(self) -> list:
        return [
            {"q": [list(p) for p in q], "mu": list(mu), "gch_w": list(w)}
            for mu, w, q in self.rows()
        ]

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
    return _expand(rs, mu, genfun(chain, x), lam, mu, q_floor)


def _expand(
    rs: RootSystem, mu: Weight, g: GenFun, lam: Weight, shift: Weight, q_floor: int
) -> FormalChar:
    """The terms of g as characters normalized by mu, summed over the
    partition tuples chi of lam, each lowered by |chi| + <shift, iota(chi)>,
    above q_floor.

    The normalization folds every translation into q, so `par_convolve` runs
    with every translation zero.
    """
    zero = Coroot((0,) * rs.rank)
    # (wt, ed, zero) -> {exponent - <mu, xi>: count}
    heads: dict = {}
    for (wt, ed, xi), c in g.terms.items():
        poly = heads.setdefault((wt, ed, zero), {})
        s = rs.pair(mu, xi)
        for e, k in c.terms.items():
            poly[e - s] = poly.get(e - s, 0) + k
    bound = max((max(p) for p in heads.values()), default=q_floor - 1) - q_floor
    if bound < 0:
        return FormalChar(rs, mu)
    groups = [
        (zero, size + rs.pair(shift, iota), m)
        for iota, size, m in par_groups(rs, lam, bound)
    ]
    acc = par_convolve(heads, groups, q_floor)
    return FormalChar(rs, mu, {(wt, ed): Laurent(p) for (wt, ed, _zero), p in acc.items()})


def specialize_trivial(f: FormalChar) -> dict:
    """Substitute gch[w] := 1 for all w; defined only for mu_param = 0."""
    if not f.mu_param.is_zero():
        raise ValueError("specialization requires mu = 0")
    acc: dict = {}
    for (mu, _w), coeff in f.terms.items():
        poly = acc.setdefault(mu, {})
        for e, c in coeff.terms.items():
            poly[e] = poly.get(e, 0) + c
    return {k: Laurent(p) for k, p in acc.items() if any(p.values())}


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
    one second, exactly as the hatted composition factors: it expands the
    composition G_{lex(l-)}(G_{lex(l+)}(x)) over the partition tuples of l+;
    both sides are truncated at q_floor.
    """
    lam_p, lam_m = lambda_pm(lam)
    chain_p = lex_chain(rs, lam_p)
    chain_m = lex_chain(rs, lam_m)
    gamma0 = concat_chains(chain_p, chain_m)
    flat = rhs_chevalley(rs, mu, lam, gamma0, x, q_floor)
    nested = _expand(rs, mu, compose(chain_m, chain_p, x), lam_p, lam_m + mu, q_floor)
    return flat == nested
