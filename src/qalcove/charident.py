"""Chevalley-type expansion of graded characters, as a formal computation.

The character symbols gch[w] are opaque; the only relation imposed is the
translation normalization gch[w t_xi] = q^{-<mu, xi>} gch[w] for the ambient
dominant weight mu.  The right-hand side of the expansion is computed exactly
above a q-exponent floor, and specializes combinatorially at mu = 0.  A
FormalChar is a genfun.TermTable, so its coefficients, and those that
add_symbol and specialize_trivial take and return, are plain {exponent:
count} dicts.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import mul

from .alcove import (
    LambdaChain,
    admissible_support,
    concat_chains,
    lambda_pm,
    lex_chain,
    weight_sums,
)
from .genfun import (
    AffineWeylElt,
    GenFun,
    TermTable,
    add_block,
    compose,
    genfun,
    par_convolve,
)
from .rootsys import RootSystem, Weight, WeylElement


class FormalChar(TermTable):
    """A finite sum of (Laurent in q) * e^{weight} * gch[w], normalized.

    Translation parts have already been folded into the q-coefficient using
    mu_param, so each block {(): poly} has the empty tail only.
    """

    __slots__ = ("mu_param",)
    ROW_NAMES = ("mu", "gch_w")
    SYMBOL = "gch[{}]"

    def __init__(self, rs: RootSystem, mu_param: Weight, terms: Mapping | None = None):
        self.mu_param = mu_param
        super().__init__(rs, terms)

    def add_symbol(self, mu: Weight, x: AffineWeylElt, coeff: dict):
        """Add coeff * e^mu * gch[x], coeff as {exponent: count}, normalizing
        gch[w t_xi] to q^{-<mu_param,xi>} gch[w]."""
        shift = -self.rs.pair(self.mu_param, x.xi)
        poly = {e + shift: c for e, c in coeff.items()}
        add_block(self.table, (mu.coeffs, x.w.index), {(): poly})

    def __eq__(self, other):
        return super().__eq__(other) and self.mu_param == other.mu_param


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
    with the empty translation ().
    """
    mu_c = mu.coeffs
    # (wt, ed) -> {(): {exponent - <mu, xi>: count}}
    heads: dict = {}
    for prefix, block in g.table.items():
        head: dict = {}
        for (xi,), poly in block.items():
            s = sum(map(mul, mu_c, xi))
            for e, k in poly.items():
                head[e - s] = head.get(e - s, 0) + k
        heads[prefix] = {(): head}
    return FormalChar.of_table(rs, par_convolve(heads, rs, lam, q_floor, shift), mu)


def specialize_trivial(f: FormalChar) -> dict:
    """Substitute gch[w] := 1 for all w, as {Weight: {exponent: count}} with
    no zero count; defined only for mu_param = 0."""
    if not f.mu_param.is_zero():
        raise ValueError("specialization requires mu = 0")
    acc: dict = {}
    for (mu, _w), block in f.table.items():
        out = acc.setdefault(mu, {})
        for e, c in block[()].items():
            out[e] = out.get(e, 0) + c
    return {Weight(k): q for k, p in acc.items() if (q := {e: c for e, c in p.items() if c})}


def verify_vanishing(
    rs: RootSystem,
    lam: Weight,
    w: WeylElement,
    chain: LambdaChain | None = None,
) -> bool:
    """Exact cancellation sum_A (-1)^{|A|} q^{-height(A)} e^{wt(A)} = 0.

    Defined for antidominant nonzero lam (so mu = 0 and mu + lam is not
    dominant); the finite sum must vanish identically.  The support sweep
    that finds the positions subsets take runs only when the chain holds a
    positive root; a lex chain of an antidominant lam holds none, so no
    taken position can be positive.
    """
    if not lam.is_antidominant or lam.is_zero():
        raise ValueError("lambda must be antidominant and nonzero")
    if chain is None:
        chain = lex_chain(rs, lam)
    positive = any(beta.is_positive for beta in chain.roots)
    return vanishes(chain, w, admissible_support(chain, w)[0] if positive else ())


def vanishes(chain: LambdaChain, w: WeylElement, taken) -> bool:
    """verify_vanishing's sum for chain and w, given the positions `taken`
    that admissible_support(chain, w) reports, so that a caller who needs
    the support too sweeps it once.

    Every subset takes negative entries only, so (-1)^{|A|} = (-1)^n, and
    the sum vanishes when alcove.weight_sums(chain, w) does: a sweep
    without down fields, its c fields negated, whose end states are folded
    over ed into one {(wt, height): count} without being decoded into
    blocks.
    """
    if any(chain.roots[j - 1].is_positive for j in taken):
        raise RuntimeError("antidominant chain produced a positive entry")
    return not weight_sums(chain, w)


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
