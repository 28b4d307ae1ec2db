"""The extended affine Weyl group P ⋊ W.

An element ``t^mu * w`` is the pair of a coweight ``mu`` (translation part)
and a finite Weyl element ``w``, multiplying by
``(t^mu u)(t^nu v) = t^{mu + u(nu)} uv``.

Labels for the affine simple reflections: the irreducible component number
``c`` (0-based) contributes the label ``-c``, so a single component has the
usual label 0 and products use 0, -1, -2, ...  Label ``-c`` realizes
``t^{theta_c^vee} s_{theta_c}`` for the highest root theta_c of the
component.

Element literal grammar (whitespace-insensitive):

* ``t[c1,...,cr] * s<i> * ... * s<j>`` -- a translation followed by
  reflection factors (any part may be omitted);
* ``w[i0 i1 ... ik] @ tau^m`` -- a word in the affine simple reflections
  times a power of the canonical length-zero generator;
* ``tau^m`` alone.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from math import lcm
from operator import add, mul

from .errors import BudgetError, ConfigError, IntegrityError
from .roots import FiniteWeylElt, RootDatum, dominant_rep

__all__ = [
    "ExtAffElt",
    "AffineReflection",
    "DiagramAut",
    "translation",
    "from_weyl",
    "simple_reflections",
    "omega_group",
    "omega_generator",
    "tau_power",
    "omega_conjugation_perm",
    "reduced_word",
    "element_literal",
    "parse_element",
    "demazure_product",
    "bruhat_leq",
    "supp_delta",
    "double_coset_form",
    "eta_delta",
    "length_summands",
    "is_lowest_cell",
    "elements_of_length",
    "TraceStep",
    "ReductionTrace",
    "OrbitWalk",
]


class ExtAffElt:
    """t^mu * w with mu in the coweight lattice and w in the finite Weyl group.

    ``length`` is the sum over the positive roots a of
    ``|<a, mu> - [w^{-1}(a) < 0]|``, computed on first use, unless the
    element was made by a product that knows it.  A product with a simple
    reflection is one O(r) step, and it sets its length from the other
    factor's known length.  The simple reflection of label ``lab`` (set by
    ``simple_reflections``) is the reflection in the affine root
    ``beta + k``: beta = alpha_i and k = 0 for a finite label i, and
    beta = -theta_c and k = 1 for the label -c.  For ``x = t^mu w``:

    * ``s * x`` is ``t^(mu - c beta^vee) s_beta w`` with
      ``c = <beta, mu> + k``, one step longer than x exactly when
      ``c - [w^{-1}(beta) < 0] >= 0``;
    * ``x * s`` is ``t^(mu - k gamma^vee) w s_beta`` with
      ``gamma = w(beta)``, one step longer than x exactly when
      ``k - <gamma, mu> - [gamma < 0] >= 0``.

    These are the signs of the affine roots ``beta + k`` and ``x(beta + k)``
    (Bjorner-Brenti, ch. 8).  A product with a length-0 factor, the inverse
    and a diagram twist keep the length, and a right factor with
    translation 0 costs no ``coweight_action``.
    """

    __slots__ = ("datum", "mu", "w", "_hash", "_length", "_rword", "_label")

    def __init__(self, datum: RootDatum, mu, w: FiniteWeylElt):
        mu = tuple(mu)
        if len(mu) != datum.rank:
            raise ValueError("translation part has wrong dimension")
        self.datum = datum
        self.mu = mu
        self.w = w
        self._hash = hash((datum.label, mu, w.mat))
        self._length = None
        self._rword = None
        self._label = None

    def __eq__(self, other):
        return (
            isinstance(other, ExtAffElt)
            and self.datum is other.datum
            and self.mu == other.mu
            and self.w is other.w
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return element_literal(self)

    def __mul__(self, other):
        if isinstance(other, FiniteWeylElt):
            other = from_weyl(other)
        if not isinstance(other, ExtAffElt):
            return NotImplemented
        datum = self.datum
        if datum is not other.datum:
            raise ValueError("elements belong to different root data")
        n = len(datum.positive_roots)
        if self._label is not None:
            kb, k = _affine_root(datum, self._label)
            mu, w = other.mu, other.w
            c = sum(map(mul, datum.roots[kb], mu)) + k
            if c:
                mu = tuple(a - c * b for a, b in zip(mu, datum.coroots[kb]))
            out = ExtAffElt(datum, mu, self.w * w)
            if other._length is not None:
                out._length = other._length + (1 if c >= (w.p[kb] >= n) else -1)
            return out
        if other._label is not None:
            kb, k = _affine_root(datum, other._label)
            mu, w = self.mu, self.w
            kg = w.inverse().p[kb]  # the index of w(beta)
            out = ExtAffElt(
                datum,
                tuple(a - b for a, b in zip(mu, datum.coroots[kg])) if k else mu,
                w * other.w,
            )
            if self._length is not None:
                c = k - sum(map(mul, datum.roots[kg], mu))
                out._length = self._length + (1 if c >= (kg >= n) else -1)
            return out
        mu = self.mu
        if any(other.mu):
            mu = tuple(map(add, mu, self.w.coweight_action(other.mu)))
        out = ExtAffElt(datum, mu, self.w * other.w)
        if self._length == 0:
            out._length = other._length
        elif other._length == 0:
            out._length = self._length
        return out

    def inverse(self) -> "ExtAffElt":
        winv = self.w.inverse()
        mu = tuple(-c for c in winv.coweight_action(self.mu))
        out = ExtAffElt(self.datum, mu, winv)
        out._length = self._length
        return out

    @property
    def is_translation(self) -> bool:
        return self.w.is_identity

    @property
    def is_identity(self) -> bool:
        return self.is_translation and all(c == 0 for c in self.mu)

    @property
    def length(self) -> int:
        """Sum over positive roots a of |<a, mu> - [w^{-1}(a) < 0]|."""
        if self._length is None:
            self._length = sum(map(abs, length_summands(self)))
        return self._length


def length_summands(x: ExtAffElt) -> list[int]:
    """``<a, mu> - [w^{-1}(a) < 0]`` for each positive root a, in datum order.

    The absolute value of the summand of a counts the hyperplanes of the
    root a that separate the base alcove from x(alcove), so the length is
    the sum of the absolute values.
    """
    mu = x.mu
    return [sum(map(mul, a, mu)) - neg
            for a, neg in zip(x.datum.positive_roots, x.w.neg_flags)]


def _affine_root(datum: RootDatum, lab: int) -> tuple[int, int]:
    """(index of beta in ``datum.roots``, k) for the affine root beta + k of s_lab."""
    if lab > 0:
        return datum.simple_index[lab - 1], 0
    theta, _ = datum.highest_roots[-lab]
    return datum.root_index[theta] + len(datum.positive_roots), 1


class AffineReflection:
    """A simple reflection of the affine Weyl group, with its label in S~."""

    __slots__ = ("label", "elt")

    def __init__(self, label: int, elt: ExtAffElt):
        self.label = label
        self.elt = elt

    def __repr__(self):
        return f"s{self.label}"


def translation(datum: RootDatum, mu) -> ExtAffElt:
    return ExtAffElt(datum, mu, datum.identity_weyl)


def from_weyl(w: FiniteWeylElt) -> ExtAffElt:
    return ExtAffElt(w.datum, (0,) * w.datum.rank, w)


def identity(datum: RootDatum) -> ExtAffElt:
    out = from_weyl(datum.identity_weyl)
    out._length = 0
    return out


@functools.cache
def simple_reflections(datum: RootDatum) -> dict[int, ExtAffElt]:
    """All simple reflections of S~, keyed by label, in ascending label order."""
    table: dict[int, ExtAffElt] = {}
    for c, (theta, theta_vee) in enumerate(datum.highest_roots):
        s_theta = datum.reflection_in_root(theta, theta_vee)
        table[-c] = ExtAffElt(datum, theta_vee, s_theta)
    for i in range(1, datum.rank + 1):
        table[i] = from_weyl(datum.simple_weyl(i))
    ordered = {lab: table[lab] for lab in sorted(table)}
    for lab, s in ordered.items():
        if s.length != 1:
            raise IntegrityError(f"simple reflection s{lab} has length != 1")
        s._label = lab
    return ordered


def reduced_word(x: ExtAffElt):
    """(word over S~, tau in Omega) with x = s_{i_1}...s_{i_k} tau, k = length(x).

    Greedy descent, smallest label first, so the word is deterministic.
    """
    if x._rword is None:
        refl = simple_reflections(x.datum)
        word = []
        y = x
        n = y.length
        while n > 0:
            for lab, s in refl.items():
                sy = s * y
                if sy.length < n:
                    word.append(lab)
                    y = sy
                    n -= 1
                    break
            else:  # pragma: no cover
                raise IntegrityError("positive-length element with no descent")
        x._rword = (tuple(word), y)
    return x._rword


# ---------------------------------------------------------------------------
# Omega, the stabilizer of the base alcove


@functools.cache
def omega_group(datum: RootDatum) -> tuple[ExtAffElt, ...]:
    """All length-0 elements, sorted by literal; a group isomorphic to P/Q."""
    per_component = []
    for c, (letter, rank, start) in enumerate(datum.components):
        elems = [identity(datum)]
        theta, _ = datum.highest_roots[c]
        comp_nodes = list(range(start + 1, start + rank + 1))
        for i in comp_nodes:
            if theta[i - 1] != 1:
                continue
            omega_vee = tuple(
                1 if j == i - 1 else 0 for j in range(datum.rank)
            )
            w0_comp = datum.longest_in(comp_nodes)
            w0_sub = datum.longest_in([j for j in comp_nodes if j != i])
            tau = ExtAffElt(datum, omega_vee, w0_sub * w0_comp)
            if tau.length != 0:
                raise IntegrityError("length-0 candidate has positive length")
            elems.append(tau)
        per_component.append(elems)
    full = [identity(datum)]
    for elems in per_component:
        full = [a * b for a in full for b in elems]
    full = sorted(set(full), key=element_literal)
    expected = datum.fundamental_group.group_order()
    if len(full) != expected:
        raise IntegrityError("Omega has unexpected size")
    return tuple(full)


def _conjugate_labels(x: ExtAffElt, source: dict, target: dict) -> dict:
    """The map j -> j' with x source[j] x^{-1} = target[j'].

    Both dicts map labels to elements.  Each image is looked up by element,
    and one that is no value of ``target`` maps to None; each caller decides
    what that means.
    """
    label_of = {t: lab for lab, t in target.items()}
    xinv = x.inverse()
    return {j: label_of.get(x * s * xinv) for j, s in source.items()}


@functools.cache
def omega_conjugation_perm(tau: ExtAffElt) -> dict[int, int]:
    """The permutation of S~ labels induced by s -> tau s tau^{-1}."""
    refl = simple_reflections(tau.datum)
    perm = _conjugate_labels(tau, refl, refl)
    if None in perm.values():
        raise ValueError("element does not normalize the alcove walls")
    return perm


def _element_order(x: ExtAffElt, bound: int) -> int:
    y = x
    for n in range(1, bound + 1):
        if y.is_identity:
            return n
        y = y * x
    return 0


@functools.cache
def omega_generator(datum: RootDatum) -> ExtAffElt | None:
    """A canonical generator when Omega is cyclic, else None."""
    omega = omega_group(datum)
    n = len(omega)
    gens = [t for t in omega if _element_order(t, n) == n]
    gens.sort(key=element_literal)
    return gens[0] if gens else None


@functools.cache
def _tau_powers(datum: RootDatum) -> tuple[ExtAffElt, ...]:
    """tau^0, tau^1, ... for the canonical generator; Omega when not cyclic."""
    omega = omega_group(datum)
    gen = omega_generator(datum)
    if gen is None:
        return omega
    powers = [identity(datum)]
    while len(powers) < len(omega):
        powers.append(powers[-1] * gen)
    return tuple(powers)


def tau_power(datum: RootDatum, m: int) -> ExtAffElt:
    """tau^m for the canonical generator; index into Omega when not cyclic."""
    powers = _tau_powers(datum)
    if omega_generator(datum) is not None:
        return powers[m % len(powers)]
    if 0 <= m < len(powers):
        return powers[m]
    raise ConfigError(f"tau^{m} is out of range for a non-cyclic Omega")


def tau_token(tau: ExtAffElt) -> str:
    """Token tau^k naming an Omega element; inverse of tau_power."""
    try:
        return f"tau^{_tau_powers(tau.datum).index(tau)}"
    except ValueError:
        raise ValueError("not a length-0 element") from None


# ---------------------------------------------------------------------------
# Diagram automorphisms


class DiagramAut:
    """An automorphism of the affine diagram fixing the chosen special vertex.

    Specified by a permutation of the finite simple labels preserving the
    Cartan matrix; it acts on coweights by permuting fundamental-coweight
    coordinates, on roots and so on W by permuting simple-root coordinates,
    and on S~ by permuting labels (components may move).

    There is one instance per (datum, perm): constructing it again, by any
    of ``DiagramAut(...)``, ``identity``, ``from_one_based``, ``inverse``,
    ``**`` or ``coerce_delta``, returns the shared object, so its caches
    live as long as the datum: the ``on_weyl`` images, and ``class_map``,
    the class state of this (datum, delta) that :mod:`adlv.conjugacy` keeps
    (twisted classes of W, level indexes, class keys and class entries).
    """

    __slots__ = ("datum", "perm", "_label_map", "_root_perm", "_weyl_cache",
                 "class_map")

    def __new__(cls, datum: RootDatum, perm):
        perm = tuple(perm)
        known = datum._diagram_auts.get(perm)
        if known is not None:
            return known
        if sorted(perm) != list(range(datum.rank)):
            raise ConfigError("delta spec is not a permutation of the simple labels")
        cartan = datum.cartan
        for i in range(datum.rank):
            for j in range(datum.rank):
                if cartan[perm[i]][perm[j]] != cartan[i][j]:
                    raise ConfigError("delta spec does not preserve the Cartan matrix")
        self = super().__new__(cls)
        self.datum = datum
        self.perm = perm
        label_map: dict[int, int] = {}
        for i in range(datum.rank):
            label_map[i + 1] = perm[i] + 1
        for c, (_, _, start) in enumerate(datum.components):
            image_comp = datum.component_of_node(perm[start] + 1)
            label_map[-c] = -image_comp
        self._label_map = label_map
        # index of delta(beta_k) for the k-th root of the datum
        self._root_perm = tuple(
            datum.root_index[self.on_coweight(a)] for a in datum.roots
        )
        self._weyl_cache: dict = {}
        self.class_map = None
        datum._diagram_auts[perm] = self
        return self

    @classmethod
    def identity(cls, datum: RootDatum) -> "DiagramAut":
        return cls(datum, range(datum.rank))

    @classmethod
    def from_one_based(cls, datum: RootDatum, images) -> "DiagramAut":
        return cls(datum, [i - 1 for i in images])

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.datum.rank))

    @property
    def order(self) -> int:
        out = 1
        for start in range(len(self.perm)):
            n, j = 1, self.perm[start]
            while j != start:
                j = self.perm[j]
                n += 1
            out = lcm(out, n)
        return out

    def on_label(self, lab: int) -> int:
        return self._label_map[lab]

    def on_coweight(self, v):
        out = [0] * len(v)
        for i, c in enumerate(v):
            out[self.perm[i]] = c
        return tuple(out)

    def on_weyl(self, w: FiniteWeylElt) -> FiniteWeylElt:
        """delta w delta^{-1}, which sends delta(beta) to delta(w(beta))."""
        out = self._weyl_cache.get(w)
        if out is None:
            sigma = self._root_perm
            p = [0] * len(sigma)
            for k, j in enumerate(w.p):
                p[sigma[k]] = sigma[j]
            out = self._weyl_cache[w] = self.datum.weyl_from_perm(tuple(p))
        return out

    def __call__(self, x):
        if isinstance(x, FiniteWeylElt):
            return self.on_weyl(x)
        if isinstance(x, ExtAffElt):
            out = ExtAffElt(self.datum, self.on_coweight(x.mu), self.on_weyl(x.w))
            out._length = x._length
            return out
        if isinstance(x, int):
            return self.on_label(x)
        raise TypeError(f"cannot apply a diagram automorphism to {type(x)!r}")

    def inverse(self) -> "DiagramAut":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return DiagramAut(self.datum, inv)

    def __pow__(self, k: int) -> "DiagramAut":
        k %= self.order
        perm = tuple(range(self.datum.rank))
        for _ in range(k):
            perm = tuple(self.perm[i] for i in perm)
        return DiagramAut(self.datum, perm)

    def __eq__(self, other):
        return (
            isinstance(other, DiagramAut)
            and self.datum is other.datum
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.datum.label, self.perm))

    def __repr__(self):
        return f"delta{tuple(i + 1 for i in self.perm)}"


def coerce_delta(datum: RootDatum, delta) -> DiagramAut:
    if delta is None:
        return DiagramAut.identity(datum)
    if isinstance(delta, DiagramAut):
        if delta.datum is not datum:
            raise ValueError("automorphism belongs to a different root datum")
        return delta
    return DiagramAut.from_one_based(datum, delta)


# ---------------------------------------------------------------------------
# Literals


def element_literal(x: ExtAffElt) -> str:
    """Canonical literal ``t[...]`` followed by the finite part's reduced word."""
    body = "t[" + ",".join(str(c) for c in x.mu) + "]"
    word = x.w.reduced_word
    if word:
        body += "*" + "*".join(f"s{i}" for i in word)
    return body


_T_PART = re.compile(r"^t\[([^\]]*)\]$")
_S_PART = re.compile(r"^s(-?\d+)$")
_W_FORM = re.compile(r"^w\[([^\]]*)\](?:@tau\^(-?\d+))?$")
_TAU_FORM = re.compile(r"^tau\^(-?\d+)$")


def parse_element(datum: RootDatum, text: str, strict_reduced: bool = False) -> ExtAffElt:
    """Parse an element literal; see the module docstring for the grammar."""
    raw = text
    m = _W_FORM.match(re.sub(r"\s+", "", re.sub(r"(?<=\d)\s+(?=[-\d])", ",", text.strip())))
    if m:
        content = m.group(1)
        word = [int(tok) for tok in content.split(",") if tok] if content else []
        refl = simple_reflections(datum)
        out = identity(datum)
        for lab in word:
            if lab not in refl:
                raise ConfigError(f"unknown simple reflection s{lab} in {raw!r}")
            out = out * refl[lab]
        if m.group(2) is not None:
            out = out * tau_power(datum, int(m.group(2)))
        if strict_reduced and len(word) > out.length:
            raise ConfigError(
                f"word of length {len(word)} exceeds element length {out.length}"
            )
        return out
    compact = re.sub(r"\s+", "", text)
    m = _TAU_FORM.match(compact)
    if m:
        return tau_power(datum, int(m.group(1)))
    if not compact:
        raise ConfigError("empty element literal")
    out = identity(datum)
    refl = simple_reflections(datum)
    for k, part in enumerate(compact.split("*")):
        tm = _T_PART.match(part)
        if tm:
            if k != 0:
                raise ConfigError(f"translation part must come first in {raw!r}")
            coords = [int(tok) for tok in tm.group(1).split(",") if tok]
            if len(coords) != datum.rank:
                raise ConfigError(
                    f"expected {datum.rank} coordinates in translation part of {raw!r}"
                )
            out = out * translation(datum, coords)
            continue
        sm = _S_PART.match(part)
        if sm:
            lab = int(sm.group(1))
            if lab not in refl:
                raise ConfigError(f"unknown simple reflection s{lab} in {raw!r}")
            out = out * refl[lab]
            continue
        raise ConfigError(f"cannot parse element literal part {part!r} in {raw!r}")
    return out


# ---------------------------------------------------------------------------
# Bruhat order, Demazure product, support


def demazure_product(x: ExtAffElt, y: ExtAffElt) -> ExtAffElt:
    """Monoid product folding y's reduced word: zs if it goes up, else z."""
    refl = simple_reflections(x.datum)
    word, tau = reduced_word(y)
    z = x
    for lab in word:
        zs = z * refl[lab]
        if zs.length > z.length:
            z = zs
    return z * tau


def bruhat_leq(x: ExtAffElt, y: ExtAffElt) -> bool:
    """Bruhat order; elements in different Omega-cosets are incomparable."""
    if x.datum is not y.datum:
        raise ValueError("elements belong to different root data")
    _, tx = reduced_word(x)
    _, ty = reduced_word(y)
    if tx != ty:
        return False
    a = x * tx.inverse()
    b = y * ty.inverse()
    return _bruhat_wa(a, b)


@functools.cache
def _bruhat_wa(a: ExtAffElt, b: ExtAffElt) -> bool:
    if a.length > b.length:
        return False
    if a == b:
        return True
    if b.length == 0:
        return a == b
    s = simple_reflections(a.datum)[reduced_word(b)[0][0]]
    sa = s * a
    return _bruhat_wa(sa if sa.length < a.length else a, s * b)


def supp_delta(x: ExtAffElt, delta: DiagramAut | None = None) -> frozenset[int]:
    """Letters of the canonical reduced word, closed under the delta action."""
    delta = coerce_delta(x.datum, delta)
    word, _ = reduced_word(x)
    out = set(word)
    frontier = list(out)
    while frontier:
        lab = frontier.pop()
        img = delta.on_label(lab)
        if img not in out:
            out.add(img)
            frontier.append(img)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Double-coset normal form and friends


def double_coset_form(x: ExtAffElt):
    """Write x = x_W * t^mu * y with mu dominant and y minimal for W_{I(mu)}.

    Returns ``(x_W, mu, y)`` with x_W, y finite Weyl elements; the
    decomposition is unique and multiplies back to x.
    """
    datum = x.datum
    mubar, u = dominant_rep(datum, x.mu)
    y0 = u * x.w
    stab = [i + 1 for i in range(datum.rank) if mubar[i] == 0]
    a = datum.identity_weyl
    y = y0
    changed = True
    while changed:
        changed = False
        for i in stab:
            if y.has_left_descent(i):
                a = a * datum.simple_weyl(i)
                y = datum.simple_weyl(i) * y
                changed = True
                break
    x_w = u.inverse() * a
    rebuilt = from_weyl(x_w) * translation(datum, mubar) * from_weyl(y)
    if rebuilt != x:
        raise IntegrityError("double coset decomposition failed to round-trip")
    return x_w, mubar, y


def eta_delta(x: ExtAffElt, delta: DiagramAut | None = None) -> FiniteWeylElt:
    """The finite invariant delta^{-1}(y) x_W of the normal form x_W t^mu y."""
    delta = coerce_delta(x.datum, delta)
    x_w, _, y = double_coset_form(x)
    return delta.inverse().on_weyl(y) * x_w


# ---------------------------------------------------------------------------
# Orbit walks and reduction traces


@dataclass(frozen=True)
class TraceStep:
    move: str  # "<i>" for conjugation by s_i, "tau^k" for an Omega twist
    before: ExtAffElt
    after: ExtAffElt
    dl: int

    def format(self) -> str:
        return (
            f"STEP {self.move} {element_literal(self.before)} -> "
            f"{element_literal(self.after)} dl={self.dl}"
        )


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[TraceStep, ...]
    terminal: ExtAffElt

    def format_lines(self) -> list[str]:
        return [step.format() for step in self.steps]

    def replay(self, start: ExtAffElt, delta: DiagramAut) -> bool:
        """Check the trace is a valid move sequence from start to terminal."""
        refl = simple_reflections(start.datum)
        cur = start
        for step in self.steps:
            if step.before != cur:
                return False
            if step.move.startswith("tau^"):
                tau = tau_power(cur.datum, int(step.move[4:]))
                after = tau * cur * delta(tau).inverse()
            else:
                lab = int(step.move)
                after = refl[lab] * cur * refl[delta.on_label(lab)]
            if after != step.after:
                return False
            if after.length - cur.length != step.dl or step.dl not in (0, -2):
                return False
            cur = after
        return cur == self.terminal


class OrbitWalk:
    """Breadth-first walks of orbits, the one loop of every orbit search.

    ``expand(y)`` returns ``(drops, same)``, two sequences of ``(move,
    image)`` pairs: the moves a search reads at y, and the moves the walk
    follows.  ``walk(level)`` visits ``level`` and then every image that
    ``same`` reaches from it, each once, in breadth-first order, and yields
    ``(y, drops)`` for each node y; a caller ends the walk by returning.
    ``nodes`` counts the nodes of all walks of the object, and the node
    past ``budget`` raises ``BudgetError`` naming ``phase``.

    With a ``parents`` map (start elements map to None), the walk records
    ``image -> (node, move)`` for the first node that reaches each image,
    through ``same`` or ``drops``, and yields only the drops reached for
    the first time.  ``trace(y)`` reads the moves from a start element to y
    back from it, and the ``BudgetError`` carries the trace to the node
    where the budget ran out.  Moves are a label or a length-0 element, and
    become ``TraceStep`` tokens only when a trace is built.
    """

    __slots__ = ("expand", "budget", "phase", "parents", "nodes")

    def __init__(self, expand, budget: int, phase: str, parents: dict | None = None):
        self.expand = expand
        self.budget = budget
        self.phase = phase
        self.parents = parents
        self.nodes = 0

    def walk(self, level):
        expand, parents, budget = self.expand, self.parents, self.budget
        seen = dict.fromkeys(level)
        queue = list(level)
        # also visits what the loop appends
        for self.nodes, y in enumerate(queue, self.nodes + 1):
            if self.nodes > budget:
                raise BudgetError(
                    f"{self.phase} exceeded the {self.budget}-node budget",
                    partial=None if parents is None else self.trace(y),
                )
            drops, same = expand(y)
            if parents is not None:
                new = []
                for move, z in drops:
                    if z not in parents:
                        parents[z] = (y, move)
                        new.append((move, z))
                drops = new
            yield y, drops
            for move, z in same:
                if z not in seen:
                    seen[z] = None
                    if parents is not None:
                        parents.setdefault(z, (y, move))
                    queue.append(z)

    def trace(self, elt: ExtAffElt) -> ReductionTrace:
        steps = []
        cur = elt
        while self.parents[cur] is not None:
            prev, move = self.parents[cur]
            token = str(move) if isinstance(move, int) else tau_token(move)
            steps.append(TraceStep(token, prev, cur, cur.length - prev.length))
            cur = prev
        return ReductionTrace(steps=tuple(reversed(steps)), terminal=elt)


def is_lowest_cell(x: ExtAffElt) -> bool:
    """Membership in the lowest two-sided cell.

    That cell is the set of u * w0 * v with all three lengths adding up, w0
    the longest finite element.  Shi ("A two-sided cell in an affine Weyl
    group", J. London Math. Soc. 36 (1987), and "... II", 37 (1988)) shows
    that x lies in it exactly when no summand of its length sum is zero.
    No length guard is needed: |Phi+| nonzero summands already give
    length(x) >= |Phi+| = length(w0).
    """
    return all(length_summands(x))


# ---------------------------------------------------------------------------
# Level enumeration


@functools.cache
def elements_of_length(datum: RootDatum, n: int) -> tuple[ExtAffElt, ...]:
    """All elements of length n, sorted by literal.

    Length 0 is Omega, and length n is the set of s * y of length n for s in
    S~ and y of length n - 1.  The result is cached per (datum, n), and
    every call returns the same tuple.
    """
    if n <= 0:
        return omega_group(datum) if n == 0 else ()
    for k in range(1, n):  # bottom up, so a cold call does not recurse deeply
        elements_of_length(datum, k)
    refl = simple_reflections(datum).values()
    level = {}
    for y in elements_of_length(datum, n - 1):
        for s in refl:
            z = s * y
            if z.length == n:
                level[z] = None
    return tuple(sorted(level, key=element_literal))
