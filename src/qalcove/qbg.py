"""Quantum Bruhat graph, reflection orders, and label-compatible paths.

The graph QBG(W) has the Weyl group as vertex set and, for each positive
root alpha, an edge v -> v*s_alpha when the length either goes up by one
(Bruhat edge) or drops by 2<rho, alpha^vee> - 1 (quantum edge).  Directed
paths carry the statistics end, weight (sum of coroots over quantum steps)
and nega (number of negative labels used).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .rootsys import Coroot, Root, RootSystem, RootSystemError, WeylElement

BRUHAT = "B"
QUANTUM = "Q"


@dataclass(frozen=True)
class QbgEdge:
    source: WeylElement
    target: WeylElement
    label: Root  # positive
    kind: str  # BRUHAT or QUANTUM


@dataclass(frozen=True)
class PathStep:
    index: int  # 1-based position in the defining sequence
    root: Root  # signed entry of the sequence
    edge: QbgEdge


@dataclass(frozen=True)
class DirectedPath:
    """A directed path in QBG(W) traced along a sequence of signed roots."""

    start: WeylElement
    steps: tuple[PathStep, ...]

    @property
    def end(self) -> WeylElement:
        return self.steps[-1].edge.target if self.steps else self.start

    @property
    def length(self) -> int:
        return len(self.steps)

    def wt(self, rs: RootSystem) -> Coroot:
        out = Coroot((0,) * rs.rank)
        for s in self.steps:
            if s.edge.kind == QUANTUM:
                out = out + rs.coroot(s.edge.label)
        return out

    @property
    def nega(self) -> int:
        return sum(1 for s in self.steps if not s.root.is_positive)

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.steps)

    def labels(self) -> tuple[Root, ...]:
        return tuple(s.edge.label for s in self.steps)

    def vertices(self) -> tuple[WeylElement, ...]:
        return (self.start,) + tuple(s.edge.target for s in self.steps)


def _edge_table(rs: RootSystem):
    with rs._lock:
        if rs._edge_table is None:
            table = {}
            for v in rs.weyl_elements:
                for alpha in rs.positive_roots:
                    table[(v, alpha)] = _compute_edge(rs, v, alpha)
            rs._edge_table = table
    return rs._edge_table


def _compute_edge(rs: RootSystem, v: WeylElement, alpha: Root) -> Optional[QbgEdge]:
    target = rs.mult(v, rs.reflection(alpha))
    if target.length == v.length + 1:
        return QbgEdge(v, target, alpha, BRUHAT)
    drop = 2 * rs.coroot(alpha).height - 1
    if target.length == v.length - drop:
        return QbgEdge(v, target, alpha, QUANTUM)
    return None


def qbg_edge(rs: RootSystem, v: WeylElement, alpha: Root) -> Optional[QbgEdge]:
    """The edge v -> v s_alpha, if the Bruhat or quantum condition holds."""
    if not alpha.is_positive:
        raise ValueError("edge labels are positive roots")
    return _edge_table(rs)[(v, alpha)]


def out_edges(rs: RootSystem, v: WeylElement) -> list[QbgEdge]:
    table = _edge_table(rs)
    return [e for alpha in rs.positive_roots if (e := table[(v, alpha)])]


def is_reflection_order(rs: RootSystem, order: Sequence[Root]) -> bool:
    """True iff every decomposable sum sits between its two summands."""
    if sorted(order, key=lambda r: r.coeffs) != sorted(
        rs.positive_roots, key=lambda r: r.coeffs
    ):
        raise ValueError("order must list the positive roots exactly once")
    pos = {r: i for i, r in enumerate(order)}
    for a in rs.positive_roots:
        for b in rs.positive_roots:
            if a.coeffs >= b.coeffs:
                continue
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            try:
                c = rs.root(s)
            except RootSystemError:
                continue
            lo, hi = sorted((pos[a], pos[b]))
            if not lo < pos[c] < hi:
                return False
    return True


def pi_compatible_paths(
    rs: RootSystem, v: WeylElement, pi: Sequence[Root]
) -> list[DirectedPath]:
    """All paths from v along |gamma_{j_1}|, ..., |gamma_{j_p}| with j_1 < ... < j_p.

    The empty path is included; output is in lexicographic order of index sets.
    """
    table = _edge_table(rs)
    out: list[DirectedPath] = []

    def rec(pos: int, current: WeylElement, steps: tuple[PathStep, ...]):
        out.append(DirectedPath(v, steps))
        for j in range(pos, len(pi)):
            gamma = pi[j]
            edge = table.get((current, abs(gamma)))
            if edge is not None:
                rec(j + 1, edge.target, steps + (PathStep(j + 1, gamma, edge),))

    rec(0, v, ())
    return out


def label_increasing_path(
    rs: RootSystem, v: WeylElement, w: WeylElement, order: Sequence[Root]
) -> DirectedPath:
    """The unique label-increasing directed path v -> w for a reflection order."""
    matches = [p for p in pi_compatible_paths(rs, v, order) if p.end == w]
    if len(matches) != 1:
        raise RuntimeError(
            f"shellability defect: {len(matches)} label-increasing paths "
            f"{v} -> {w} for order {order}"
        )
    return matches[0]


def shortest_stats(rs: RootSystem, v: WeylElement, w: WeylElement):
    """(l(v => w), wt(v => w)) via breadth-first search."""
    if v == w:
        return 0, Coroot((0,) * rs.rank)
    dist = {v: (0, Coroot((0,) * rs.rank))}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        d, acc = dist[u]
        for e in out_edges(rs, u):
            if e.target not in dist:
                nacc = acc + rs.coroot(e.label) if e.kind == QUANTUM else acc
                dist[e.target] = (d + 1, nacc)
                if e.target == w:
                    return d + 1, nacc
                queue.append(e.target)
    raise RuntimeError("QBG is strongly connected; this cannot happen")


def canonical_reflection_orders(rs: RootSystem) -> list[tuple[Root, ...]]:
    """The two reflection orders swept between the simple roots (rank <= 2)."""
    if rs.rank == 1:
        return [(rs.simple_root(0),)]
    if rs.rank != 2:
        raise ValueError("canonical orders are defined for rank <= 2")
    a0, a1 = rs.simple_root(0), rs.simple_root(1)
    return [
        rs.rank2_subsystem(a0, a1).segment,
        rs.rank2_subsystem(a1, a0).segment,
    ]


def reflection_orders(rs: RootSystem) -> list[tuple[Root, ...]]:
    """All reflection orders on the positive roots (small types only)."""
    import itertools

    out = []
    for perm in itertools.permutations(rs.positive_roots):
        if is_reflection_order(rs, perm):
            out.append(perm)
    return out


def to_dot(rs: RootSystem) -> str:
    """DOT export of QBG(W): Bruhat edges solid, quantum edges dashed."""
    lines = ["digraph QBG {", '  rankdir="BT";']
    for v in rs.weyl_elements:
        lines.append(f'  "{v.word_str}";')
    for v in rs.weyl_elements:
        for e in out_edges(rs, v):
            style = "solid" if e.kind == BRUHAT else "dashed"
            color = "black" if e.kind == BRUHAT else "red"
            label = ",".join(str(c) for c in e.label.coeffs)
            lines.append(
                f'  "{v.word_str}" -> "{e.target.word_str}" '
                f'[label="{label}", style={style}, color={color}];'
            )
    lines.append("}")
    return "\n".join(lines)
