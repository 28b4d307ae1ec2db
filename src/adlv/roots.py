"""Reduced root system tables and finite Weyl group arithmetic.

Conventions, fixed once for the whole package:

* Groups are adjoint, so the translation lattice P is the full coweight
  lattice.  Coweights are stored in the fundamental-coweight basis; the
  pairing with the i-th simple root is coordinate lookup,
  ``<v, alpha_i> = v[i-1]``.
* Roots are stored in the simple-root basis, so ``<v, a>`` is the dot
  product of the two coordinate tuples.
* Simple reflections carry 1-based labels ``1..rank``; label ``0`` and the
  negative labels are reserved for the affine reflections of the irreducible
  components (see :mod:`adlv.elements`).
* ``cartan[i][j] = <alpha_i^vee, alpha_j>`` (0-based storage).
* ``datum.roots`` lists the positive roots (sorted by height, then
  coordinates) followed by their negatives in the same order, and
  ``datum.root_index`` maps each root to its place in that list;
  ``datum.coroots`` lists their coroots in fundamental-coweight
  coordinates, in the same order.  A Weyl
  element is stored as the permutation of these indices that its inverse
  induces (see :class:`FiniteWeylElt`), so products, inverses, lengths and
  the diagram twist are index lookups for every type from A1 to E8, and no
  operation needs the whole group W.

>>> datum = build_root_datum("A2")
>>> len(datum.positive_roots), datum.rho2
(3, (2, 2))
"""

from __future__ import annotations

import functools
import re
from operator import gt, itemgetter, mul
from typing import Iterator

from .errors import ConfigError
from .lattices import (
    LatticeQuotient,
    dot,
    mat_det,
    mat_vec,
    vec_mat,
)

_LABEL_RE = re.compile(r"^([A-G])(\d+)$")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"A": 8, "B": 8, "C": 8, "D": 8, "E": 8, "F": 4, "G": 2}


def _irreducible_cartan(letter: str, n: int):
    """0-based Cartan matrix of an irreducible type, Bourbaki numbering."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j):
        c[i][j] = -1
        c[j][i] = -1

    if letter in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if letter == "B" and n >= 2:
            c[n - 1][n - 2] = -2
        if letter == "C" and n >= 2:
            c[n - 2][n - 1] = -2
    elif letter == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif letter == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in chain:
            if i < n and j < n:
                bond(i, j)
        bond(1, 3)
    elif letter == "F":
        bond(0, 1)
        bond(2, 3)
        c[1][2] = -1
        c[2][1] = -2
    elif letter == "G":
        c[0][1] = -3
        c[1][0] = -1
    return tuple(tuple(row) for row in c)


def parse_type_label(label: str):
    """Normalize a type label like ``"a2xc2"`` to component pairs."""
    parts = label.strip().upper().replace(" ", "").split("X")
    comps = []
    for part in parts:
        m = _LABEL_RE.match(part)
        if not m:
            raise ConfigError(f"unknown type label {label!r}")
        letter, rank = m.group(1), int(m.group(2))
        if not _MIN_RANK[letter] <= rank <= _MAX_RANK[letter]:
            raise ConfigError(f"unsupported type {part} (rank bounds)")
        comps.append((letter, rank))
    if not comps:
        raise ConfigError(f"unknown type label {label!r}")
    return tuple(comps)


class FiniteWeylElt:
    """An element w of the finite Weyl group W, as a permutation of the roots.

    ``p[k]`` is the index in ``datum.roots`` of w^{-1}(beta_k), beta_k the
    k-th root, and instances are interned per root datum by ``p``, so equal
    elements are identical objects.  Then ``(u * v).p`` is ``v.p`` read at
    ``u.p`` (one ``itemgetter`` call), the inverse is the inverse
    permutation, ``neg_flags`` marks the positive roots sent to negative
    ones, and a left descent s_i is one lookup.  ``mat``, the integer
    matrix of the action on coweights in fundamental-coweight coordinates,
    has w^{-1}(alpha_i) as row i-1; it is kept for ``coweight_action`` and
    for the hash, ``hash((label, mat))``.

    Per-element caches are filled lazily: a product memo mapping each right
    factor already seen to ``self * other`` (only the pairs actually
    multiplied, never all of W x W), the inverse, ``neg_flags`` and the
    reduced word.
    """

    __slots__ = ("datum", "p", "mat", "_hash", "_inv", "_neg", "_prod", "_word")

    def __init__(self, datum, p):
        self.datum = datum
        self.p = p
        roots = datum.roots
        self.mat = tuple(roots[p[k]] for k in datum.simple_index)
        self._hash = hash((datum.label, self.mat))
        self._inv = None
        self._neg = None
        self._prod = {}
        self._word = None

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteWeylElt)
            and self.datum is other.datum
            and self.p == other.p
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        word = self.reduced_word
        return "w(" + ("*".join(f"s{i}" for i in word) or "e") + ")"

    def coweight_action(self, v):
        if len(v) != self.datum.rank:
            raise ValueError("coweight has wrong dimension")
        return mat_vec(self.mat, v)

    def inverse_root_action(self, a):
        """The inverse element acting on a root vector."""
        return vec_mat(a, self.mat)

    def root_action(self, a):
        return vec_mat(a, self.inverse().mat)

    def __mul__(self, other):
        prod = self._prod.get(other)
        if prod is None:
            if not isinstance(other, FiniteWeylElt):
                return NotImplemented
            if self.datum is not other.datum:
                raise ValueError("elements belong to different root data")
            # (u * v).p[k] = v.p[u.p[k]]; a datum has at least two roots, so
            # the getter always returns a tuple
            prod = self.datum.weyl_from_perm(itemgetter(*self.p)(other.p))
            self._prod[other] = prod
        return prod

    def inverse(self):
        if self._inv is None:
            q = [0] * len(self.p)
            for k, j in enumerate(self.p):
                q[j] = k
            inv = self.datum.weyl_from_perm(tuple(q))
            self._inv = inv
            inv._inv = self
        return self._inv

    @property
    def neg_flags(self) -> tuple[int, ...]:
        """1 where w^{-1} sends the positive root (datum order) to a negative one."""
        if self._neg is None:
            n = len(self.datum.positive_roots)
            self._neg = tuple(1 if j >= n else 0 for j in self.p[:n])
        return self._neg

    @property
    def length(self) -> int:
        return sum(self.neg_flags)

    @property
    def is_identity(self) -> bool:
        return self is self.datum.identity_weyl

    def has_left_descent(self, i: int) -> bool:
        """True when length(s_i * w) < length(w); i is a 1-based label."""
        datum = self.datum
        return self.p[datum.simple_index[i - 1]] >= len(datum.positive_roots)

    def has_right_descent(self, i: int) -> bool:
        return self.inverse().has_left_descent(i)

    @property
    def reduced_word(self):
        """Reduced word, greedy smallest-label-first left descents."""
        if self._word is None:
            word = []
            u = self
            while not u.is_identity:
                for i in range(1, self.datum.rank + 1):
                    if u.has_left_descent(i):
                        word.append(i)
                        u = self.datum.simple_weyl(i) * u
                        break
                else:  # pragma: no cover - impossible for a Weyl element
                    raise RuntimeError("no descent found")
            self._word = tuple(word)
        return self._word


class RootDatum:
    """Root system tables for an adjoint group; build via build_root_datum."""

    def __init__(self, label: str):
        comps = parse_type_label(label)
        self.label = "x".join(f"{letter}{rank}" for letter, rank in comps)
        self.rank = sum(rank for _, rank in comps)
        starts = []
        pos = 0
        for _, rank in comps:
            starts.append(pos)
            pos += rank
        self.components = tuple(
            (letter, rank, start) for (letter, rank), start in zip(comps, starts)
        )

        r = self.rank
        cartan = [[0] * r for _ in range(r)]
        for letter, rank, start in self.components:
            block = _irreducible_cartan(letter, rank)
            for i in range(rank):
                for j in range(rank):
                    cartan[start + i][start + j] = block[i][j]
        self.cartan = tuple(tuple(row) for row in cartan)
        # alpha_i^vee in fundamental-coweight coordinates is cartan row i-1
        self.simple_coroots = self.cartan

        self._build_positive_roots()
        self._weyl_cache: dict = {}
        self._id_weyl = self.weyl_from_perm(tuple(range(len(self.roots))))
        self._simple_weyl = {}
        # per-datum state of the diagram automorphisms (see elements.DiagramAut)
        self._diagram_auts: dict = {}
        self.rho2 = tuple(
            sum(a[i] for a in self.positive_roots) for i in range(r)
        )
        self.fundamental_group = LatticeQuotient(r, self.simple_coroots)
        order = self.fundamental_group.group_order()
        if order != abs(int(mat_det(self.cartan))):
            raise AssertionError("fundamental group order mismatch")
        self._w0 = None
        self._weyl_levels = None

    def _build_positive_roots(self):
        r = self.rank
        found = {}
        queue = []
        for i in range(r):
            root = tuple(1 if j == i else 0 for j in range(r))
            found[root] = self.cartan[i]
            queue.append(root)
        while queue:
            a = queue.pop()
            av = found[a]
            for i in range(r):
                pairing = sum(self.cartan[i][j] * a[j] for j in range(r))
                b = tuple(
                    a[j] - pairing * (1 if j == i else 0) for j in range(r)
                )
                if all(c >= 0 for c in b) and b not in found:
                    # reflecting (a, a^vee) by s_i keeps them paired
                    found[b] = self.simple_weyl_action(i + 1, av)
                    queue.append(b)
        ordered = sorted(found, key=lambda a: (sum(a), a))
        self.positive_roots = tuple(ordered)
        self.positive_coroots = tuple(found[a] for a in ordered)
        self.roots = self.positive_roots + tuple(
            tuple(-c for c in a) for a in ordered
        )
        self.coroots = self.positive_coroots + tuple(
            tuple(-c for c in v) for v in self.positive_coroots
        )
        self.root_index = {a: k for k, a in enumerate(self.roots)}
        self.simple_index = tuple(
            self.root_index[self.simple_root(i)] for i in range(1, r + 1)
        )
        highest = []
        for letter, rank, start in self.components:
            in_comp = [
                a
                for a in ordered
                if all(start <= j < start + rank or a[j] == 0 for j in range(self.rank))
            ]
            theta = max(in_comp, key=lambda a: (sum(a), a))
            highest.append((theta, found[theta]))
        self.highest_roots = tuple(highest)

    def simple_weyl_action(self, i: int, v):
        """Apply s_i to a coweight vector; i is a 1-based label."""
        c = v[i - 1]
        if c == 0:
            return tuple(v)
        row = self.cartan[i - 1]
        return tuple(x - c * y for x, y in zip(v, row))

    def simple_root(self, i: int):
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    @property
    def weyl_order(self) -> int:
        """|W| as the product of the degrees m + 1 over the exponents m.

        The number of exponents equal to k is the number of positive roots
        of height k minus the number of height k + 1 (Kostant).
        """
        heights = [sum(a) for a in self.positive_roots]
        out = 1
        for k in range(1, max(heights, default=0) + 1):
            out *= (k + 1) ** (heights.count(k) - heights.count(k + 1))
        return out

    def weyl_from_perm(self, p) -> FiniteWeylElt:
        """The interned element whose inverse sends root k to root ``p[k]``."""
        try:
            return self._weyl_cache[p]
        except KeyError:
            elt = FiniteWeylElt(self, p)
            self._weyl_cache[p] = elt
            return elt

    def weyl_from_matrix(self, mat) -> FiniteWeylElt:
        """The element acting on coweights by ``mat`` (rows w^{-1}(alpha_i)).

        A matrix not yet interned must permute the roots, and greedy left
        descent from it must end at the identity; a diagram symmetry permutes
        the roots but has no descent.  Otherwise ``ValueError`` is raised.
        """
        n = len(self.positive_roots)
        try:
            head = [self.root_index[vec_mat(a, mat)] for a in self.positive_roots]
        except KeyError:
            raise ValueError("matrix is not a Weyl group element") from None
        p = tuple(head + [(k + n) % (2 * n) for k in head])
        if p not in self._weyl_cache:
            q = p
            while True:
                i = next((i for i, k in enumerate(self.simple_index, 1) if q[k] >= n), 0)
                if not i:
                    break
                q = itemgetter(*self.simple_weyl(i).p)(q)  # (s_i * u).p
            if q != self._id_weyl.p:
                raise ValueError("matrix is not a Weyl group element")
        return self.weyl_from_perm(p)

    @property
    def identity_weyl(self) -> FiniteWeylElt:
        return self._id_weyl

    def simple_weyl(self, i: int) -> FiniteWeylElt:
        if i not in self._simple_weyl:
            if not 1 <= i <= self.rank:
                raise ValueError(f"no simple reflection with label {i}")
            # s_i(a) = a - <a, alpha_i^vee> alpha_i on roots, an involution
            row = self.cartan[i - 1]
            perm = []
            for a in self.roots:
                b = list(a)
                b[i - 1] -= sum(map(mul, row, a))
                perm.append(self.root_index[tuple(b)])
            self._simple_weyl[i] = self.weyl_from_perm(tuple(perm))
        return self._simple_weyl[i]

    def reflection_in_root(self, root, coroot) -> FiniteWeylElt:
        """Reflection v -> v - <v, root> * coroot as a Weyl element."""
        r = self.rank
        mat = tuple(
            tuple((1 if k == j else 0) - coroot[k] * root[j] for j in range(r))
            for k in range(r)
        )
        return self.weyl_from_matrix(mat)

    def pairing(self, v, a):
        """<v, a> for a coweight v and a root a."""
        return dot(a, v)

    def pairing_2rho(self, v):
        return dot(self.rho2, v)

    def component_of_node(self, i: int) -> int:
        """Component index of a finite node (1-based label)."""
        for idx, (_, rank, start) in enumerate(self.components):
            if start < i <= start + rank:
                return idx
        raise ValueError(f"no finite node with label {i}")

    def w0(self) -> FiniteWeylElt:
        if self._w0 is None:
            _, w = dominant_rep(self, tuple([-1] * self.rank))
            self._w0 = w
        return self._w0

    def longest_in(self, J) -> FiniteWeylElt:
        """Longest element of the (finite) standard parabolic W_J, J subset of S."""
        J = sorted(set(J))
        for i in J:
            if not 1 <= i <= self.rank:
                raise ValueError(f"label {i} is not a finite simple reflection")
        v = tuple(-1 if (i + 1) in J else 0 for i in range(self.rank))
        w = self.identity_weyl
        while True:
            for i in J:
                if w.coweight_action(v)[i - 1] < 0:
                    w = self.simple_weyl(i) * w
                    break
            else:
                return w.inverse()

    def __eq__(self, other):
        return isinstance(other, RootDatum) and self.label == other.label

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return f"RootDatum({self.label!r})"


_DATUM_CACHE: dict[str, RootDatum] = {}


def build_root_datum(label: str) -> RootDatum:
    comps = parse_type_label(label)
    key = "x".join(f"{letter}{rank}" for letter, rank in comps)
    if key not in _DATUM_CACHE:
        _DATUM_CACHE[key] = RootDatum(key)
    return _DATUM_CACHE[key]


def weyl_act(w: FiniteWeylElt, v):
    """Apply w to a coweight vector (fundamental-coweight coordinates)."""
    return w.coweight_action(tuple(v))


def dominant_rep(datum: RootDatum, v):
    """Dominant representative of the W-orbit of v, with the minimizing element.

    Returns ``(vbar, w)`` where ``w(v) = vbar`` is dominant and w has minimal
    length among elements doing so.  Works for integer or Fraction entries.
    """
    v = tuple(v)
    if len(v) != datum.rank:
        raise ValueError("coweight has wrong dimension")
    w = datum.identity_weyl
    u = v
    while True:
        for i in range(1, datum.rank + 1):
            if u[i - 1] < 0:
                u = datum.simple_weyl_action(i, u)
                w = datum.simple_weyl(i) * w
                break
        else:
            return u, w


def is_dominant(v) -> bool:
    return all(c >= 0 for c in v)


def zero_pairing_set(datum: RootDatum, mu) -> tuple[int, ...]:
    """Simple labels pairing to zero with a dominant coweight."""
    mu = tuple(mu)
    if not is_dominant(mu):
        raise ValueError("coweight is not dominant")
    return tuple(i + 1 for i in range(datum.rank) if mu[i] == 0)


def weyl_group(datum: RootDatum) -> tuple[FiniteWeylElt, ...]:
    """All of W, ordered by (length, reduced word); cached on the datum.

    Only callers that need every element build this; products, inverses and
    class queries never do.  W grows by left multiplication: ``s_i * w`` is
    one longer than w exactly when w^{-1}(alpha_i) is a positive root, and
    it is kept only when i is its smallest left descent, read off
    w^{-1}(s_i(alpha_j)) for j < i.  So each element u is made once, from
    w = ``s_i * u``, and its greedy reduced word is ``(i,) + reduced_word(w)``.
    Taking i outermost over a level in word order gives the next level in
    word order.  Each new element is filed as ``s_i``'s product with w.
    """
    if datum._weyl_levels is None:
        n = len(datum.positive_roots)
        simple = datum.simple_index
        e = datum.identity_weyl
        e._word = ()
        level = [e]
        out = [e]
        while level:
            nxt = []
            for i in range(1, datum.rank + 1):
                s = datum.simple_weyl(i)
                sp = s.p
                # the indices of s_i(alpha_j) for the smaller labels j
                earlier = [sp[k] for k in simple[: i - 1]]
                for w in level:
                    wp = w.p
                    if wp[simple[i - 1]] >= n:
                        continue  # s_i * w is shorter than w
                    if any(wp[k] >= n for k in earlier):
                        continue  # s_i * w has a smaller left descent
                    u = datum.weyl_from_perm(itemgetter(*sp)(wp))
                    u._word = (i,) + w._word
                    s._prod[w] = u
                    nxt.append(u)
            out.extend(nxt)
            level = nxt
        datum._weyl_levels = tuple(out)
    return datum._weyl_levels


def min_coset_reps(
    datum: RootDatum, J, side: str = "left", max_length: int | None = None
) -> Iterator[FiniteWeylElt]:
    """Stream the minimal coset representatives of W_J in W by length.

    ``side='left'`` yields the minimal representatives of the cosets
    ``W_J w`` (no left descent in J); ``side='right'`` those of ``w W_J``.
    """
    J = set(J)
    for i in J:
        if not 1 <= i <= datum.rank:
            raise ValueError(
                f"label {i} does not generate a finite reflection subgroup of W"
            )
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")

    def minimal(w):
        if side == "left":
            return not any(w.has_left_descent(i) for i in J)
        return not any(w.has_right_descent(i) for i in J)

    # the minimal representatives are closed under removing a letter on the
    # side opposite to the descent condition, so grow them from there
    level = [datum.identity_weyl]
    seen = {datum.identity_weyl}
    length = 0
    while level:
        if max_length is not None and length > max_length:
            return
        yield from level
        nxt = []
        for w in level:
            for i in range(1, datum.rank + 1):
                s = datum.simple_weyl(i)
                u = w * s if side == "left" else s * w
                if u.length == w.length + 1 and u not in seen and minimal(u):
                    seen.add(u)
                    nxt.append(u)
        nxt.sort(key=lambda u: u.reduced_word)
        level = nxt
        length += 1


@functools.cache
def levi_root_mask(datum: RootDatum, J) -> tuple[bool, ...]:
    """For each positive root, in datum order, whether it lies in the span
    of the simple roots of J, a hashable collection of finite labels."""
    outside = [i for i in range(datum.rank) if i + 1 not in J]
    return tuple(not any(a[i] for i in outside) for a in datum.positive_roots)


def in_parabolic(w: FiniteWeylElt, J) -> bool:
    """Membership of w in the standard parabolic W_J, J a set of finite labels.

    w lies in W_J exactly when every positive root that w^{-1} makes
    negative (the roots ``neg_flags`` marks) lies in the span of the simple
    roots of J.
    """
    return not any(map(gt, w.neg_flags, levi_root_mask(w.datum, frozenset(J))))
