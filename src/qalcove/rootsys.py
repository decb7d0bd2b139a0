"""Exact root-system and Weyl-group arithmetic for finite types of rank <= 4.

All arithmetic is exact: roots and coroots are integer vectors in the
simple-(co)root basis and weights are integer vectors in the
fundamental-weight basis; the alcove walk carries d times each point, an
integer vector.  Weyl elements carry their
ShortLex-minimal reduced word plus cached action tables; each root system
makes exactly one instance per element, so equality and hashing are object
identity.
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Iterable

from .records import FrozenRecord

# a_{ij} = <alpha_j, alpha_i^vee>; row i gives the pairings with alpha_i^vee.
_CARTAN = {
    "A1": ((2,),),
    "A1xA1": ((2, 0), (0, 2)),
    "A2": ((2, -1), (-1, 2)),
    # alpha1 short, alpha2 long; positive roots a1, 2a1+a2, a1+a2, a2
    "C2": ((2, -2), (-1, 2)),
    # alpha1 short, alpha2 long; positive roots a1, 3a1+a2, 2a1+a2, 3a1+2a2, a1+a2, a2
    "G2": ((2, -3), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
}
_ALIASES = {"B2": "C2"}

MAX_RANK = 4


class RootSystemError(ValueError):
    """Unsupported type label, rank mismatch, or invalid Cartan datum."""


class _Coeffs(FrozenRecord):
    """An integer vector of one kind; equal only to a vector of the same kind.

    It hashes as (coeffs,), the hash of its one field, and repr reads
    Kind(c1, ..., cn).
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs,))

    def __repr__(self):
        return f"{type(self).__name__}{self.coeffs}"


class Root(_Coeffs):
    """A root, as an integer vector in the simple-root basis.

    sign (+1 or -1) is fixed when the coefficients are validated; negation
    skips the validation, since the negative of a root is one.
    """

    __slots__ = ("sign",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        pos = any(c > 0 for c in coeffs)
        neg = any(c < 0 for c in coeffs)
        if (pos and neg) or not (pos or neg):
            raise RootSystemError(f"not a root coefficient vector: {coeffs}")
        object.__setattr__(self, "sign", 1 if pos else -1)

    @property
    def is_positive(self) -> bool:
        return self.sign == 1

    def __neg__(self) -> "Root":
        neg = object.__new__(Root)
        object.__setattr__(neg, "coeffs", tuple(-c for c in self.coeffs))
        object.__setattr__(neg, "sign", -self.sign)
        return neg

    def __abs__(self) -> "Root":
        return self if self.sign == 1 else -self


class Coroot(_Coeffs):
    """A coroot lattice element, in the simple-coroot basis."""

    __slots__ = ()

    def __add__(self, other: "Coroot") -> "Coroot":
        return Coroot(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Coroot") -> "Coroot":
        return Coroot(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Coroot":
        return Coroot(tuple(-c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def height(self) -> int:
        """<rho, .>, the sum of simple-coroot coefficients."""
        return sum(self.coeffs)


class Weight(_Coeffs):
    """A weight, as an integer vector in the fundamental-weight basis."""

    __slots__ = ()

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    @property
    def is_antidominant(self) -> bool:
        return all(c <= 0 for c in self.coeffs)


class WeylElement:
    """A Weyl group element, canonicalized by its ShortLex-minimal reduced word.

    Instances are created only by RootSystem enumeration, one per root
    permutation, and every operation returns one of them; equality and
    hashing are therefore the default object identity.  Elements of two
    root systems are never equal, even with the same word.
    """

    __slots__ = ("rs", "word", "index", "root_perm", "wt_cols")

    def __init__(self, rs, word, index, root_perm, wt_cols):
        self.rs = rs
        self.word = word  # tuple of 0-based generator indices
        self.index = index  # position in rs.weyl_elements (ShortLex order)
        self.root_perm = root_perm  # permutation of rs.all_roots indices
        self.wt_cols = wt_cols  # wt_cols[j] = image of varpi_j in fund coords

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def word_str(self) -> str:
        return "e" if not self.word else "".join(f"s{i + 1}" for i in self.word)

    def __repr__(self):
        return self.word_str


class Rank2Segment(FrozenRecord):
    """The ordered Yang-Baxter segment spanned by two roots.

    segment = (alpha, s_alpha(beta), ..., s_beta(alpha), beta); its length q
    is 2, 3, 4 or 6 according to the rank-2 type.
    """

    __slots__ = _fields = ("type_label", "segment")

    def __init__(self, type_label: str, segment: tuple[Root, ...]):
        object.__setattr__(self, "type_label", type_label)
        object.__setattr__(self, "segment", segment)

    @property
    def q(self) -> int:
        return len(self.segment)


class RootSystem:
    """Cartan datum with enumerated roots, coroots and Weyl group.

    Construct via :func:`build_root_system`.  Instances are immutable after
    construction but for lazy tables, which take no lock: each is built whole
    and assigned once, so a race only builds it twice.  Only
    build_root_system's cache is locked, so that a label has one instance.
    """

    def __init__(self, type_label: str, cartan: tuple[tuple[int, ...], ...]):
        self.type_label = type_label
        self.cartan = cartan
        self.rank = len(cartan)
        self._check_cartan()
        self._build_roots()
        self._build_weyl_group()
        self.rho = Weight((1,) * self.rank)
        # h is the Coxeter number: 1 + max coroot height.  This keeps the
        # base point rho/h strictly inside the fundamental alcove (never on
        # any hyperplane <.,alpha^vee> = k) in every type.
        self.coxeter_number = 1 + max(
            self.coroot(b).height for b in self.positive_roots
        )
        self._columns = None  # lazy QBG tables, owned by qalcove.qbg
        self._distances = None  # lazy QBG distance table, owned by qalcove.qbg
        self._shifts = {}  # packed coroot shifts by field width, owned by qalcove.qbops

    # -- construction ------------------------------------------------------

    def _check_cartan(self):
        a = self.cartan
        n = self.rank
        if n < 1 or n > MAX_RANK:
            raise RootSystemError(f"rank {n} outside supported range 1..{MAX_RANK}")
        for i in range(n):
            if a[i][i] != 2:
                raise RootSystemError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and (a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0)):
                    raise RootSystemError("not a finite-type Cartan matrix")
        # finite type <=> every principal minor is positive (affine and
        # hyperbolic matrices have infinitely many roots)
        for size in range(2, n + 1):
            for rows in itertools.combinations(range(n), size):
                if _det([[a[i][j] for j in rows] for i in rows]) <= 0:
                    raise RootSystemError("Cartan matrix is not of finite type")

    def _simple_reflect_root(self, i: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i
        p = sum(self.cartan[i][j] * coeffs[j] for j in range(self.rank))
        out = list(coeffs)
        out[i] -= p
        return tuple(out)

    def _simple_reflect_coroot(self, i: int, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        # s_i(delta) = delta - <alpha_i, delta> alpha_i^vee
        p = sum(self.cartan[j][i] * coeffs[j] for j in range(self.rank))
        out = list(coeffs)
        out[i] -= p
        return tuple(out)

    def _build_roots(self):
        n = self.rank
        seen: dict[tuple[int, ...], tuple[int, ...]] = {}
        frontier = []
        for i in range(n):
            root = tuple(1 if j == i else 0 for j in range(n))
            cor = tuple(1 if j == i else 0 for j in range(n))
            seen[root] = cor
            frontier.append(root)
        while frontier:
            nxt = []
            for root in frontier:
                for i in range(n):
                    img = self._simple_reflect_root(i, root)
                    if img not in seen:
                        seen[img] = self._simple_reflect_coroot(i, seen[root])
                        nxt.append(img)
            frontier = nxt
        pos = sorted((c for c in seen if all(x >= 0 for x in c)), key=lambda c: (sum(c), c))
        self.positive_roots: tuple[Root, ...] = tuple(Root(c) for c in pos)
        self.all_roots: tuple[Root, ...] = self.positive_roots + tuple(
            -r for r in self.positive_roots
        )
        self._root_index = {r: k for k, r in enumerate(self.all_roots)}
        self._coroots = {Root(c): Coroot(d) for c, d in seen.items()}
        for r in self.positive_roots:
            self._coroots[-r] = -self._coroots[r]
        # by all_roots index: the root in the fundamental-weight basis and
        # its coroot in the simple-coroot basis, as int tuples
        self._root_wt = tuple(self.root_to_weight(r).coeffs for r in self.all_roots)
        self._coroot_vec = tuple(self._coroots[r].coeffs for r in self.all_roots)

    def _build_weyl_group(self):
        n = self.rank
        nroots = len(self.all_roots)
        id_perm = tuple(range(nroots))
        id_cols = tuple(
            tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
        )
        gen_perm = []
        gen_cols = []
        for i in range(n):
            perm = tuple(
                self._root_index[Root(self._simple_reflect_root(i, r.coeffs))]
                for r in self.all_roots
            )
            cols = tuple(
                self._weight_reflect(i, id_cols[j]) for j in range(n)
            )
            gen_perm.append(perm)
            gen_cols.append(cols)

        elements: list[WeylElement] = []
        by_perm: dict[tuple[int, ...], WeylElement] = {}
        e = WeylElement(self, (), 0, id_perm, id_cols)
        elements.append(e)
        by_perm[id_perm] = e
        queue = [e]
        while queue:
            nxt = []
            for w in queue:
                for i in range(n):
                    # right multiplication by s_i: x -> w(s_i(x))
                    perm = tuple(w.root_perm[k] for k in gen_perm[i])
                    if perm in by_perm:
                        continue
                    cols = tuple(
                        self._apply_cols(w.wt_cols, gen_cols[i][j]) for j in range(n)
                    )
                    u = WeylElement(self, w.word + (i,), len(elements), perm, cols)
                    elements.append(u)
                    by_perm[perm] = u
                    nxt.append(u)
            queue = nxt
        self.weyl_elements: tuple[WeylElement, ...] = tuple(elements)
        # 1-based reduced words by element index, as element_to_json writes them
        self._json_words = tuple(tuple(i + 1 for i in w.word) for w in elements)
        self._by_perm = by_perm
        self._reflections: dict[Root, WeylElement] = {}
        for r in self.positive_roots:
            perm = tuple(
                self._root_index[self._reflect_root(r, x)] for x in self.all_roots
            )
            self._reflections[r] = by_perm[perm]

    def _weight_reflect(self, i: int, coeffs) -> tuple[int, ...]:
        # s_i(mu) = mu - mu_i alpha_i, with alpha_i = sum_k a_{ki} varpi_k
        mi = coeffs[i]
        return tuple(
            coeffs[k] - mi * self.cartan[k][i] for k in range(self.rank)
        )

    def _apply_cols(self, cols, vec):
        # image of the weight `vec` under the element with weight columns `cols`
        n = self.rank
        out = [0] * n
        for j in range(n):
            if vec[j]:
                for k in range(n):
                    out[k] += vec[j] * cols[j][k]
        return tuple(out)

    def _reflect_root(self, alpha: Root, beta: Root) -> Root:
        # s_alpha(beta) = beta - <beta, alpha^vee> alpha
        p = self.root_pair(beta, self.coroot(alpha))
        return Root(
            tuple(b - p * a for b, a in zip(beta.coeffs, alpha.coeffs))
        )

    # -- basic queries ------------------------------------------------------

    @property
    def highest_root(self) -> Root:
        """The last positive root, if it lies above every positive root."""
        theta = self.positive_roots[-1]
        for beta in self.positive_roots:
            if any(t < b for t, b in zip(theta.coeffs, beta.coeffs)):
                raise RootSystemError(
                    f"{self.type_label} is reducible and has no highest root"
                )
        return theta

    def simple_root(self, i: int) -> Root:
        return Root(tuple(1 if j == i else 0 for j in range(self.rank)))

    def simple_coroot(self, i: int) -> Coroot:
        return Coroot(tuple(1 if j == i else 0 for j in range(self.rank)))

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(1 if j == i else 0 for j in range(self.rank)))

    def weight(self, coeffs: Iterable[int]) -> Weight:
        c = tuple(int(x) for x in coeffs)
        if len(c) != self.rank:
            raise RootSystemError("weight coefficient length mismatch")
        return Weight(c)

    def root(self, coeffs: Iterable[int]) -> Root:
        r = Root(tuple(int(x) for x in coeffs))
        if r not in self._root_index:
            raise RootSystemError(f"{r} is not a root of {self.type_label}")
        return r

    def coroot(self, alpha: Root) -> Coroot:
        return self._coroots[alpha]

    def root_to_weight(self, alpha: Root) -> Weight:
        return Weight(
            tuple(
                sum(self.cartan[i][j] * alpha.coeffs[j] for j in range(self.rank))
                for i in range(self.rank)
            )
        )

    def pair(self, x: Weight, c: Coroot) -> int:
        """Canonical pairing <x, c>."""
        return sum(a * b for a, b in zip(x.coeffs, c.coeffs))

    def root_pair(self, beta: Root, c: Coroot) -> int:
        return self.pair(self.root_to_weight(beta), c)

    # -- Weyl group ---------------------------------------------------------

    @property
    def identity(self) -> WeylElement:
        return self.weyl_elements[0]

    @property
    def longest_element(self) -> WeylElement:
        return self.weyl_elements[-1]

    def element_from_word(self, word) -> WeylElement:
        """Element from a word over generator indices (0-based ints) or 's1s2' text."""
        if isinstance(word, str):
            if word in ("e", ""):
                return self.identity
            parts = word.replace(" ", "").split("s")
            idx = tuple(int(p) - 1 for p in parts if p)
        else:
            idx = tuple(word)
        w = self.identity
        for i in idx:
            if not 0 <= i < self.rank:
                raise RootSystemError(f"generator index out of range: s{i + 1}")
            w = self.mult(w, self.simple_reflection(i))
        return w

    def simple_reflection(self, i: int) -> WeylElement:
        return self._reflections[self.simple_root(i)]

    def reflection(self, alpha: Root) -> WeylElement:
        return self._reflections[abs(alpha)]

    def mult(self, u: WeylElement, v: WeylElement) -> WeylElement:
        """Product uv (uv acts by x -> u(v(x)))."""
        perm = tuple(u.root_perm[k] for k in v.root_perm)
        return self._by_perm[perm]

    def inverse(self, w: WeylElement) -> WeylElement:
        inv = [0] * len(w.root_perm)
        for a, b in enumerate(w.root_perm):
            inv[b] = a
        return self._by_perm[tuple(inv)]

    def act(self, w: WeylElement, x: Weight | Root):
        """Action of w on a Weight or Root."""
        if isinstance(x, Root):
            return self.all_roots[w.root_perm[self._root_index[x]]]
        if isinstance(x, Weight):
            return Weight(self._apply_cols(w.wt_cols, x.coeffs))
        raise TypeError(f"cannot act on {type(x).__name__}")

    # -- rank-2 subsystems ----------------------------------------------------

    def rank2_subsystem(self, alpha: Root, beta: Root) -> Rank2Segment:
        """Ordered YB segment (alpha, s_alpha(beta), ..., s_beta(alpha), beta).

        Requires <alpha, beta^vee> <= 0 and alpha != -beta, so that alpha and
        beta are the simple roots of the dihedral reflection subgroup they
        generate.  The segment is its reflection order (Dyer 1993): gamma_1 =
        alpha, gamma_2 = s_alpha(beta) and gamma_{j+1} =
        -s_{gamma_j}(gamma_{j-1}), until gamma_j = beta after at most 6 roots.
        """
        if alpha == -beta or alpha == beta:
            raise RootSystemError("alpha and beta must be non-proportional")
        if self.root_pair(alpha, self.coroot(beta)) > 0:
            raise RootSystemError("<alpha, beta^vee> must be <= 0")
        index = self._root_index

        def reflect(gamma: Root, delta: Root) -> Root:
            return self.all_roots[self.reflection(gamma).root_perm[index[delta]]]

        roots = [alpha, reflect(alpha, beta)]
        while roots[-1] != beta:
            if len(roots) == 6:
                raise RootSystemError("segment construction failed")
            roots.append(-reflect(roots[-1], roots[-2]))
        q = len(roots)
        label = {2: "A1xA1", 3: "A2", 4: "C2", 6: "G2"}.get(q)
        if label is None:
            raise RootSystemError(f"unexpected rank-2 segment length {q}")
        return Rank2Segment(label, tuple(roots))

    # -- serialization helpers ----------------------------------------------

    def element_to_json(self, w: WeylElement) -> list[int]:
        return list(self._json_words[w.index])

    def element_from_json(self, data) -> WeylElement:
        return self.element_from_word(tuple(i - 1 for i in data))


def _det(m) -> int:
    """Determinant of a small square integer matrix, by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


_cache: dict[str, RootSystem] = {}
_cache_lock = threading.Lock()


def build_root_system(type_label: str) -> RootSystem:
    """Return the (cached) root system for a supported type label.

    Custom Cartan matrices can be supplied through
    :func:`root_system_from_cartan`.
    """
    label = _ALIASES.get(type_label, type_label)
    if label not in _CARTAN:
        raise RootSystemError(f"unsupported type label {type_label!r}")
    with _cache_lock:
        if label not in _cache:
            _cache[label] = RootSystem(label, _CARTAN[label])
        return _cache[label]


def root_system_from_cartan(cartan, label: str = "custom") -> RootSystem:
    """Build a root system from an explicit finite-type Cartan matrix."""
    mat = tuple(tuple(int(x) for x in row) for row in cartan)
    return RootSystem(label, mat)
