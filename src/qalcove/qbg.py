"""Quantum Bruhat graph, reflection orders, and label-compatible paths.

The graph QBG(W) has the Weyl group as vertex set and, for each positive
root alpha, an edge v -> v*s_alpha when the length either goes up by one
(Bruhat edge) or drops by 2<rho, alpha^vee> - 1 (quantum edge).  Directed
paths carry the statistics end, weight (sum of coroots over quantum steps)
and nega (number of negative labels used).  The graph is held once per
root system, as the integer tables of _columns; edges and paths are views
built from them.  The one sweep kernel, sweep_step (pack and unpack build
its int keys), walks the graph along root sequences for alcove, qbops and
shellability_pairs, on states {vertex index: {key: count}} over the
occupied vertices only.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from operator import add

from .records import FrozenRecord
from .rootsys import Coroot, Root, RootSystem, RootSystemError, WeylElement

BRUHAT = "B"
QUANTUM = "Q"


class QbgEdge(FrozenRecord):
    __slots__ = _fields = ("source", "target", "label", "kind")

    def __init__(self, source: WeylElement, target: WeylElement, label: Root, kind: str):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "label", label)  # positive
        object.__setattr__(self, "kind", kind)  # BRUHAT or QUANTUM


class PathStep(FrozenRecord):
    __slots__ = _fields = ("index", "root", "edge")

    def __init__(self, index: int, root: Root, edge: QbgEdge):
        object.__setattr__(self, "index", index)  # 1-based position in the defining sequence
        object.__setattr__(self, "root", root)  # signed entry of the sequence
        object.__setattr__(self, "edge", edge)


class DirectedPath(FrozenRecord):
    """A directed path in QBG(W) traced along a sequence of signed roots."""

    __slots__ = _fields = ("start", "steps")

    def __init__(self, start: WeylElement, steps: tuple[PathStep, ...]):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

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

    def vertices(self) -> tuple[WeylElement, ...]:
        return (self.start,) + tuple(s.edge.target for s in self.steps)


def _columns(rs: RootSystem) -> tuple[tuple, tuple, tuple]:
    """(column, quantum, right) by positive root p, then by vertex index v.

    right is rs._right: right[p][v] is the index of v s_p.  column[p][v] is
    the same if QBG has the edge v -> v s_p, else -1, and quantum[p][v]
    flags a quantum edge; both are read off the lengths of v and v s_p.
    Built once per root system; every reader of the graph goes through it.
    """
    if rs._columns is None:
        column, quantum = [], []
        length = [len(v.word) for v in rs.weyl_elements]
        for row, cor in zip(rs._right, rs._coroot_vec):
            drop = 2 * sum(cor) - 1
            column.append(tuple([t if length[t] in (l + 1, l - drop) else -1 for l, t in zip(length, row)]))
            quantum.append(tuple([length[t] == l - drop for l, t in zip(length, row)]))
        rs._columns = tuple(column), tuple(quantum), rs._right
    return rs._columns


def _root_step(rs: RootSystem, beta: Root) -> tuple[int, int, int]:
    """(index in all_roots, index of |beta| in positive_roots, sign) of beta."""
    k = rs._root_index[beta]
    npos = len(rs.positive_roots)
    return k, k % npos, 1 if k < npos else -1


def _edge(rs: RootSystem, v: WeylElement, p: int) -> QbgEdge | None:
    """The edge v -> v s_p for p indexing rs.positive_roots, as a QbgEdge view."""
    column, quantum, _ = _columns(rs)
    t = column[p][v.index]
    if t < 0:
        return None
    kind = QUANTUM if quantum[p][v.index] else BRUHAT
    return QbgEdge(v, rs.weyl_elements[t], rs.positive_roots[p], kind)


def qbg_edge(rs: RootSystem, v: WeylElement, alpha: Root) -> QbgEdge | None:
    """The edge v -> v s_alpha, if the Bruhat or quantum condition holds."""
    if not alpha.is_positive:
        raise ValueError("edge labels are positive roots")
    return _edge(rs, v, rs._root_index[alpha])


def out_edges(rs: RootSystem, v: WeylElement) -> list[QbgEdge]:
    edges = (_edge(rs, v, p) for p in range(len(rs.positive_roots)))
    return [e for e in edges if e]


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


def index_paths(rs: RootSystem, v: int, pi: Sequence[Root]) -> list:
    """[(index set, end, down)] of the paths from the vertex of index v along
    |gamma_{j_1}|, ..., |gamma_{j_p}| with j_1 < ... < j_p, gamma_j in pi.

    A depth-first walk over the integer QBG tables, in lex order of index
    sets, the empty path first: index sets are 1-based in pi, end is the
    index of the vertex reached and down the sum of the coroots of the
    quantum steps as an int tuple.  No DirectedPath is built, and the walk
    runs on an explicit stack, children pushed in reverse so the order is
    kept, so no closure cycle is left.
    """
    column, quantum, _ = _columns(rs)
    coroot = rs._coroot_vec
    labels = [_root_step(rs, gamma)[1] for gamma in pi]
    out: list = []
    stack = [(0, v, (0,) * rs.rank, ())]
    push = stack.append
    while stack:
        pos, u, down, js = stack.pop()
        out.append((js, u, down))
        for j in range(len(labels) - 1, pos - 1, -1):
            p = labels[j]
            t = column[p][u]
            if t >= 0:
                step = tuple(map(add, down, coroot[p])) if quantum[p][u] else down
                push((j + 1, t, step, js + (j + 1,)))
    return out


def directed_path(
    rs: RootSystem, v: WeylElement, pi: Sequence[Root], indices: Sequence[int]
) -> DirectedPath:
    """The path from v along |gamma_j| for the 1-based j in indices, increasing,
    each a QBG edge from the vertex the path has reached."""
    steps = []
    for j in indices:
        edge = _edge(rs, steps[-1].edge.target if steps else v, _root_step(rs, pi[j - 1])[1])
        steps.append(PathStep(j, pi[j - 1], edge))
    return DirectedPath(v, tuple(steps))


def pi_compatible_paths(
    rs: RootSystem, v: WeylElement, pi: Sequence[Root]
) -> list[DirectedPath]:
    """All paths from v along |gamma_{j_1}|, ..., |gamma_{j_p}| with j_1 < ... < j_p.

    The empty path is included; output is in lexicographic order of index sets.
    """
    return [directed_path(rs, v, pi, js) for js, _, _ in index_paths(rs, v.index, pi)]


def label_increasing_path(
    rs: RootSystem, v: WeylElement, w: WeylElement, order: Sequence[Root]
) -> DirectedPath:
    """The unique label-increasing directed path v -> w for a reflection order."""
    matches = [js for js, end, _ in index_paths(rs, v.index, order) if end == w.index]
    if len(matches) != 1:
        raise _shell_defect(len(matches), v, w, order)
    return directed_path(rs, v, order, matches[0])


def _shell_defect(count, v, w, order) -> RuntimeError:
    return RuntimeError(
        f"shellability defect: {count} label-increasing paths "
        f"{v} -> {w} for order {order}"
    )


# -- the sweep kernel ---------------------------------------------------------


def pack(values: Iterable[int], width: int, first: int = 0) -> int:
    """sum_i values[i] 2^((first + i) width): the values as fields of one int key.

    A key whose fields all lie in [0, 2^width) is their base-2^width
    expansion, so adding the packing of any increments adds them field by
    field as long as every field stays in that range; the fields read back
    with unpack.  Callers keep signed fields in range by storing value + off.
    """
    return sum(x << (i * width) for i, x in enumerate(values, first))


def unpack(bits: int, width: int, count: int, off: int = 0) -> tuple[int, ...]:
    """The low count fields of bits, each minus off."""
    mask = (1 << width) - 1
    return tuple([((bits >> s) & mask) - off for s in range(0, count * width, width)])


def sweep_step(states: dict, column: Sequence[int], incs, sign: int, keep: bool) -> dict:
    """The states after one QBG step along a positive root.

    states is {v: {key: count}} over the occupied vertex indices v of
    rs.weyl_elements only, each key one int of packed fields (see pack):
    G's state is (c, down, height), weight_sums' (-c, height), an
    operator's (start, down) and the shell-check's (start, length).  Every
    state at v moves to column[v] (-1: QBG has no edge there), incs[v]
    added to its key (0: unchanged; incs is read at occupied v with an edge
    only), and its count multiplied by sign; keep=True also leaves it at v,
    as R = 1 + Q does, keep=False does not, as Q does.  States that meet
    merge, zero counts dropped, and a vertex left with no state is dropped
    too, so equal operators give equal dicts.  v -> v s_p is injective, so
    each target hears from one v.
    """
    new = dict(states) if keep else {}
    for v, src in states.items():
        t = column[v]
        if t < 0:
            continue
        inc = incs[v]
        moved = zip([key + inc for key in src], src.values()) if inc else src.items()
        dst = dict(new.get(t, ()))
        get = dst.get
        for key, cnt in moved:
            cnt = get(key, 0) + sign * cnt
            if cnt:
                dst[key] = cnt
            else:
                del dst[key]
        if dst:
            new[t] = dst
        else:
            new.pop(t, None)
    return new


def shellability_pairs(rs: RootSystem, order: Sequence[Root]):
    """(v, w, minimal) for every pair of Weyl elements, v outer, in ShortLex order.

    minimal says whether the label-increasing path v -> w for the reflection
    order has length l(v => w).  One sweep along the order (sweep_step on
    the QBG columns) from every start v at once, with states {v << width |
    length: count}, counts the label-increasing paths by start, end and
    length; l(v => w) comes from the distance table, built once per root
    system.  Raises label_increasing_path's RuntimeError at the first pair
    without exactly one such path.
    """
    column, _, _ = _columns(rs)
    n = len(rs.weyl_elements)
    width = len(order).bit_length()  # length <= len(order)
    inc = [1] * n  # every edge keeps the start and adds one to the length
    states = {v: {v << width: 1} for v in range(n)}
    for alpha in order:
        states = sweep_step(states, column[_root_step(rs, alpha)[1]], inc, 1, keep=True)
    mask = (1 << width) - 1
    count = [[0] * n for _ in range(n)]
    length = [[0] * n for _ in range(n)]
    for w, ends in states.items():
        for key, c in ends.items():
            v = key >> width
            count[v][w] += c
            length[v][w] = key & mask
    distances = _distances(rs)
    for v in rs.weyl_elements:
        dist = distances[v.index]
        for w in rs.weyl_elements:
            c = count[v.index][w.index]
            if c != 1:
                raise _shell_defect(c, v, w, order)
            yield v, w, length[v.index][w.index] == dist[w.index][0]


def shortest_stats(rs: RootSystem, v: WeylElement, w: WeylElement):
    """(l(v => w), wt(v => w)) via breadth-first search."""
    d, acc = _distances(rs)[v.index][w.index]
    return d, Coroot(acc)


def _distances(rs: RootSystem) -> tuple:
    """_bfs(rs, s) for every start s, by s: built once per root system."""
    if rs._distances is None:
        rs._distances = tuple(_bfs(rs, s) for s in range(len(rs.weyl_elements)))
    return rs._distances


def _bfs(rs: RootSystem, s: int) -> list:
    """[(l(v => w), wt(v => w) as an int tuple)] by w.index, for v of index s.

    One breadth-first search over the sweep's QBG columns, labels in
    positive-root order; QBG is strongly connected.
    """
    column, quantum, _ = _columns(rs)
    dist: list = [None] * len(rs.weyl_elements)
    dist[s] = (0, (0,) * rs.rank)
    queue = deque([s])
    while queue:
        u = queue.popleft()
        d, acc = dist[u]
        for col, qcol, cor in zip(column, quantum, rs._coroot_vec):
            t = col[u]
            if t >= 0 and dist[t] is None:
                dist[t] = (d + 1, tuple(map(add, acc, cor)) if qcol[u] else acc)
                queue.append(t)
    return dist


def reflection_orders(rs: RootSystem) -> list[tuple[Root, ...]]:
    """All reflection orders on the positive roots, sorted by positive-root index.

    The reflection orders are the inversion sequences alpha_{i1},
    s_{i1}(alpha_{i2}), ... of the reduced words of w0 (Dyer, Compositio
    1993; Papi, Proc. AMS 1994).  The words are walked up the weak order:
    w s_i covers w whenever w(alpha_i) > 0, and that step records w(alpha_i),
    on an explicit stack, so no closure cycle is left; the words are sorted
    at the end, so the order of the walk does not matter.
    """
    npos = len(rs.positive_roots)
    simple = [(rs._root_index[rs.simple_root(i)], rs._simple[i]) for i in range(rs.rank)]
    words = []
    stack = [(0, ())]
    push = stack.append
    while stack:
        v, seq = stack.pop()
        if len(seq) == npos:
            words.append(seq)
        perm = rs.weyl_elements[v].root_perm
        for a, step in simple:
            k = perm[a]
            if k < npos:
                push((step[v], seq + (k,)))
    return [tuple(rs.positive_roots[k] for k in seq) for seq in sorted(words)]


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
