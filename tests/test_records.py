"""The package's record classes: equality, hash, repr, immutability and copy."""

import copy
import pickle

import pytest

import qalcove as qa
from qalcove.alcove import LambdaChain
from qalcove.genfun import AffineWeylElt, ParTuple
from qalcove.qbg import DirectedPath, PathStep, QbgEdge
from qalcove.qbops import MatrixPropReport, OperatorMatrix
from qalcove.rootsys import Coroot, Rank2Segment, Root, Weight
from qalcove.suite import CheckResult
from qalcove.ybmoves import Sijection, YbContext

RS = qa.build_root_system("A2")
E, S1 = RS.identity, RS.element_from_word("s1")
A1, A2, A12 = Root((1, 0)), Root((0, 1)), Root((1, 1))
EDGE = QbgEdge(E, S1, A1, "B")
STEP = PathStep(1, A1, EDGE)
# a chain with a Yang-Baxter segment of length 3 at t = 0
GAMMA = qa.compute_levels(
    RS, (RS.root([0, 1]), RS.root([-1, 0]), RS.root([-1, -1]), RS.root([-1, 0])), RS.weight([-2, 1])
)
CTX = qa.make_context(GAMMA, 0, 3)
CHAIN = qa.lex_chain(RS, RS.weight([1, 0]))
OTHER_CHAIN = qa.lex_chain(RS, RS.weight([0, 1]))
CTX_FIELDS = (CTX.chain1, CTX.chain2, 0, 3, CTX.alpha, CTX.beta)

# (class, field names in order, values, other values, repr or None when the
# class writes its own, frozen); each instance is cls(*values)
ROWS = [
    (Root, ("coeffs",), ((1, 0),), ((0, 1),), "Root(1, 0)", True),
    (Coroot, ("coeffs",), ((1, 0),), ((0, 1),), "Coroot(1, 0)", True),
    (Weight, ("coeffs",), ((1, 0),), ((0, 1),), "Weight(1, 0)", True),
    (
        Rank2Segment, ("type_label", "segment"), ("A2", (A1, A12, A2)), ("A1xA1", (A1, A2)),
        "Rank2Segment(type_label='A2', segment=(Root(1, 0), Root(1, 1), Root(0, 1)))", True,
    ),
    (
        LambdaChain, ("rs", "lam", "roots", "levels"), (RS, CHAIN.lam, CHAIN.roots, CHAIN.levels),
        (RS, OTHER_CHAIN.lam, OTHER_CHAIN.roots, OTHER_CHAIN.levels),
        f"LambdaChain(rs={RS!r}, lam=Weight(1, 0), roots={CHAIN.roots!r}, levels={CHAIN.levels!r})", True,
    ),
    (
        QbgEdge, ("source", "target", "label", "kind"), (E, S1, A1, "B"), (E, S1, A1, "Q"),
        "QbgEdge(source=e, target=s1, label=Root(1, 0), kind='B')", True,
    ),
    (
        PathStep, ("index", "root", "edge"), (1, A1, EDGE), (2, A1, EDGE),
        "PathStep(index=1, root=Root(1, 0), edge=QbgEdge(source=e, target=s1, label=Root(1, 0), kind='B'))",
        True,
    ),
    (
        DirectedPath, ("start", "steps"), (E, (STEP,)), (E, ()),
        "DirectedPath(start=e, steps=(PathStep(index=1, root=Root(1, 0), edge=QbgEdge(source=e, "
        "target=s1, label=Root(1, 0), kind='B')),))", True,
    ),
    (AffineWeylElt, ("w", "xi"), (S1, Coroot((1, 0))), (S1, Coroot((0, 1))), None, True),
    (ParTuple, ("parts",), (((1,), ()),), (((2,), ()),), None, True),
    (
        OperatorMatrix, ("rs", "table"), (RS, {(0, 0): {0: 1}}), (RS, {(0, 0): {1: 1}}),
        f"OperatorMatrix(rs={RS!r}, table={{(0, 0): {{0: 1}}}})", True,
    ),
    (
        MatrixPropReport, ("type_label", "k", "reverse", "violations", "m3_positions", "n3_positions"),
        ("A2", 1, False, [], [("e", "s1")], []), ("A2", 2, False, [], [("e", "s1")], []),
        "MatrixPropReport(type_label='A2', k=1, reverse=False, violations=[], "
        "m3_positions=[('e', 's1')], n3_positions=[])", False,
    ),
    (
        CheckResult, ("criterion", "name", "passed", "detail", "seconds"), (1, "name", True, "ok", 0.5),
        (1, "name", False, "ok", 0.5),
        "CheckResult(criterion=1, name='name', passed=True, detail='ok', seconds=0.5)", False,
    ),
    (
        YbContext, ("chain1", "chain2", "t", "q", "alpha", "beta"), CTX_FIELDS,
        CTX_FIELDS[:2] + (1,) + CTX_FIELDS[3:],
        f"YbContext(chain1={CTX.chain1!r}, chain2={CTX.chain2!r}, t=0, q=3, "
        "alpha=Root(0, 1), beta=Root(-1, -1))",
        True,
    ),
    (
        Sijection, ("ctx", "w", "core_pairs", "invol1", "invol2", "classes1", "classes2"),
        (CTX, E, (), (), (), {}, {}), (CTX, S1, (), (), (), {}, {}),
        f"Sijection(ctx={CTX!r}, w=e, core_pairs=(), invol1=(), invol2=(), classes1={{}}, classes2={{}})",
        True,
    ),
]


@pytest.mark.parametrize(
    "cls, names, values, other, text, frozen", ROWS, ids=[row[0].__name__ for row in ROWS]
)
def test_record_behaviour(cls, names, values, other, text, frozen):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert tuple(getattr(a, name) for name in names) == values
    assert a == b and not a != b
    assert a != c and not a == c
    assert a != values and a != object()
    assert copy.copy(a) == a
    if text is not None:
        assert repr(a) == text
    if not frozen:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, names[0], other[0])
        assert getattr(a, names[0]) == other[0]
        return
    # the hash is that of the compared fields, or LambdaChain's own; one
    # that cannot be hashed (a dict field) raises TypeError, as it does
    key = (id(RS), a.lam, a.roots) if cls is LambdaChain else values
    try:
        want = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == want
    for name in names + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    assert tuple(getattr(a, name) for name in names) == values


def test_equal_coefficients_of_different_kinds_are_unequal():
    kinds = (Root((1, 0)), Coroot((1, 0)), Weight((1, 0)))
    for x in kinds:
        for y in kinds:
            assert (x == y) is (x is y) and (x != y) is (x is not y)
    assert len(set(kinds)) == 3


def test_root_sign_is_fixed_at_construction():
    assert (Root((1, 1)).sign, (-Root((1, 1))).sign) == (1, -1)
    for root in (Root((1, 1)), -Root((1, 1))):
        again = pickle.loads(pickle.dumps(root))
        assert again == root and again.sign == root.sign
    assert -Root((1, 1)) == Root((-1, -1)) and hash(-Root((1, 1))) == hash(((-1, -1),))
    with pytest.raises(qa.RootSystemError):
        Root((1, -1))
