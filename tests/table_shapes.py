"""The two shapes of a term table in the tests.

A GenFun or FormalChar holds its terms as blocks {(mu, w): {tail: poly}},
the tail (xi,) or (); tests that state or compare a table key by key use the
flat form {(mu, w, *tail): poly}.
"""


def flat(table):
    """The flat {(mu, w, *tail): poly} of a table of blocks."""
    return {(*prefix, *tail): poly for prefix, block in table.items() for tail, poly in block.items()}


def blocks(flat_table):
    """The table of blocks {(mu, w): {tail: poly}} of a flat table."""
    out = {}
    for key, poly in flat_table.items():
        out.setdefault(key[:2], {})[key[2:]] = poly
    return out
