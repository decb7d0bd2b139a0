"""Sums of the package's q-polynomials, plain {exponent: count} dicts, for
the tests' oracles.

An exponent is an int (Laurent polynomials in q) or an int tuple
(polynomials in Q_1..Q_n); no result holds a zero count.
"""


def add(*polys):
    """The sum of the polynomials."""
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def shift(p, by, scale=1):
    """scale * q^by * p for a Laurent polynomial p in q."""
    return {e + by: scale * c for e, c in p.items() if scale * c}
