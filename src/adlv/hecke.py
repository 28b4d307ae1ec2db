"""T-basis arithmetic for the affine Hecke algebra and class polynomials.

Coefficients live in Z[xi] for xi = v - v^{-1}: the quadratic relation
``(T_s - v)(T_s + v^{-1}) = 0`` reads ``T_s^2 = xi T_s + 1``, so products of
T-basis elements only ever produce nonnegative integer xi-polynomials.

Class polynomials are computed by the descent recursion
``f_w = xi * f_{s w1} + f_{s w1 s'}`` over a same-length conjugation orbit,
with the base case the indicator of the class of a minimal-length element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from numbers import Rational

from .errors import IntegrityError
from .roots import RootDatum
from .elements import (
    AffineReflection,
    DiagramAut,
    ExtAffElt,
    OrbitWalk,
    coerce_delta,
    element_literal,
    reduced_word,
    simple_reflections,
)
from .conjugacy import DEFAULT_BUDGET, _moves, class_key

__all__ = [
    "XiPoly",
    "ClassPolyTable",
    "hecke_mul_basis",
    "hecke_mul",
    "t_basis",
    "ClassPolyEngine",
    "class_polynomials",
    "verify_path_independence",
]

class _Empty:
    """The degree of the zero polynomial and the dimension of an empty variety.

    ``EMPTY`` is the one instance.  It equals only itself, orders below every
    int and ``Fraction`` from either side, and prints as ``EMPTY``; copies
    and pickles return the same instance.
    """

    __slots__ = ()

    def __repr__(self):
        return "EMPTY"

    def __reduce__(self):
        return "EMPTY"

    def _order(self, other, below, same):
        if other is self:
            return same
        if isinstance(other, Rational):
            return below
        return NotImplemented

    def __lt__(self, other):
        return self._order(other, True, False)

    def __le__(self, other):
        return self._order(other, True, True)

    def __gt__(self, other):
        return self._order(other, False, False)

    def __ge__(self, other):
        return self._order(other, False, True)


EMPTY = _Empty()


def _format_terms(terms, var: str) -> str:
    """``c var^p`` terms from (power, coeff) pairs in the order given.

    Zero coefficients are left out, a unit coefficient is not written, and
    the signs join the terms; with no term left the text is ``0``.
    """
    parts = []
    for power, c in terms:
        if c == 0:
            continue
        if power == 0:
            term = str(abs(c))
        else:
            x = var if power == 1 else f"{var}^{power}"
            term = x if abs(c) == 1 else f"{abs(c)}{x}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append(("-" if c < 0 else "") + term)
    return " ".join(parts) or "0"


class XiPoly:
    """Integer polynomial in xi = v - v^{-1}; coeffs[k] multiplies xi^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if type(c) is not int:  # a bool or a float would pass int(c)
                raise TypeError(f"xi-polynomial coefficient {c!r} is not an int")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree in xi; the zero polynomial has degree ``EMPTY``."""
        return len(self.coeffs) - 1 if self.coeffs else EMPTY

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return XiPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __mul__(self, other):
        if isinstance(other, int):
            return XiPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, XiPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return XiPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return XiPoly(out)

    __rmul__ = __mul__

    def shift(self, k: int = 1) -> "XiPoly":
        """Multiply by xi^k."""
        if self.is_zero:
            return self
        return XiPoly((0,) * k + self.coeffs)

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, XiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def format_xi(self) -> str:
        return _format_terms(reversed(tuple(enumerate(self.coeffs))), "ξ")

    def v_coefficients(self) -> dict[int, int]:
        """Coefficients in Z[v, v^{-1}] after substituting xi = v - v^{-1}."""
        from math import comb

        out: dict[int, int] = {}
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j in range(k + 1):
                power = k - 2 * j
                out[power] = out.get(power, 0) + c * comb(k, j) * (-1) ** j
        return {p: c for p, c in sorted(out.items(), reverse=True) if c != 0}

    def format_v(self) -> str:
        return _format_terms(self.v_coefficients().items(), "v")

    def jsonable(self):
        return {"xi_coeffs": list(self.coeffs)}

    @classmethod
    def from_jsonable(cls, data) -> "XiPoly":
        """Inverse of ``jsonable``; any other shape raises ``ValueError``."""
        coeffs = data.get("xi_coeffs") if isinstance(data, dict) else None
        if not (isinstance(coeffs, list) and all(type(c) is int for c in coeffs)):
            raise ValueError(f"not an xi-polynomial: {data!r}")
        return cls(coeffs)

    def __repr__(self):
        return self.format_xi()


XiPoly.ZERO = XiPoly()
XiPoly.ONE = XiPoly((1,))
XiPoly.XI = XiPoly((0, 1))


def t_basis(x: ExtAffElt) -> dict:
    return {x: XiPoly.ONE}


def _resolve_reflection(datum: RootDatum, s):
    if isinstance(s, AffineReflection):
        return s.elt
    if isinstance(s, int):
        return simple_reflections(datum)[s]
    if isinstance(s, ExtAffElt):
        if s.length != 1:
            raise ValueError("not a simple reflection")
        return s
    raise TypeError(f"cannot interpret {s!r} as a simple reflection")


def hecke_mul_basis(x: ExtAffElt, s) -> dict:
    """T_x T_s: T_{xs} when the length goes up, else xi T_x + T_{xs}."""
    s = _resolve_reflection(x.datum, s)
    xs = x * s
    if xs.length > x.length:
        return {xs: XiPoly.ONE}
    return {x: XiPoly.XI, xs: XiPoly.ONE}


def _add_into(acc: dict, x: ExtAffElt, c: XiPoly):
    if c.is_zero:
        return
    cur = acc.get(x)
    acc[x] = c if cur is None else cur + c
    if acc[x].is_zero:
        del acc[x]


def hecke_mul(a: dict, b: dict) -> dict:
    """Product of two T-basis linear combinations."""
    out = {}
    for y, cb in b.items():
        word, tau = reduced_word(y)
        refl = simple_reflections(y.datum)
        partial = dict(a)
        for lab in word:
            nxt = {}
            for x, c in partial.items():
                for z, piece in hecke_mul_basis(x, refl[lab]).items():
                    _add_into(nxt, z, c * piece)
            partial = nxt
        for x, c in partial.items():
            _add_into(out, x * tau, c * cb)
    return out


@dataclass
class ClassPolyTable:
    """Class polynomials of one element, keyed by canonical class keys."""

    element: str  # literal of the source element
    entries: dict[str, XiPoly] = field(default_factory=dict)

    def __eq__(self, other):
        return (
            isinstance(other, ClassPolyTable)
            and self.element == other.element
            and self.entries == other.entries
        )

    def poly(self, key: str) -> XiPoly:
        return self.entries.get(key, XiPoly.ZERO)

    def jsonable(self):
        return {
            "element": self.element,
            "table": {k: v.jsonable() for k, v in sorted(self.entries.items())},
        }

    @classmethod
    def from_jsonable(cls, data) -> "ClassPolyTable":
        """Inverse of ``jsonable``: an object with a string ``element`` and an
        object ``table`` of xi-polynomials; any other shape raises
        ``ValueError``."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("element"), str)
            and isinstance(data.get("table"), dict)
        ):
            raise ValueError("not a class-polynomial table")
        return cls(
            element=data["element"],
            entries={
                k: XiPoly.from_jsonable(v) for k, v in data["table"].items()
            },
        )


class ClassPolyEngine:
    """Memoized class-polynomial computation for one (datum, delta) pair.

    ``choose`` picks among the available descent options ``(w1, i)`` found in
    the same-length orbit; the default takes the first in deterministic BFS
    order (labels ascending, then length-0 twists).  A randomized chooser
    exercises a different but provably equivalent recursion path.

    ``budget`` caps the nodes of each orbit search; ``nodes`` is the total
    over all searches of the engine, counting a replayed search as if it
    were walked again, so it is what the budget caps and what a tracer of
    search nodes reads.

    Four memos hold the engine's work.  ``memo`` maps an element to its
    finished table.  The move memo maps each element an orbit search has
    visited to its moves from ``conjugacy._moves``, computed with group
    products once: the simple moves ``s_i y s_delta(i)`` that shorten y, and
    the same-length moves under simple and length-0 elements, both in search
    order.  The search memo maps ``(x, first_only)`` to the options of that
    orbit search and its node count, and the descent memo maps an option
    ``(w1, label)`` to its children ``(down, down2)``.  The searches replay
    these, so options, their order, node counts and where a budget runs out
    do not depend on how warm they are.  ``fork(choose)`` gives an engine
    with another chooser that shares the move, search and descent memos and
    the budget but starts with an empty ``memo``; so the randomized trials of
    ``verify_path_independence`` walk each orbit once.  The search memo holds
    one option list per element searched, covering its whole orbit: on
    ``sweep --check path-independence --trials 3`` it took the peak memory
    of A4 up to length 6 from 24 to 27 MB and of A3 up to length 8 from 21.5
    to 23.4 MB (Python 3.11, x86_64 Linux).  All memos live on the engine and
    its forks, so dropping them frees the memory.
    """

    def __init__(self, datum: RootDatum, delta: DiagramAut | None = None,
                 choose=None, budget: int = DEFAULT_BUDGET):
        self.datum = datum
        self.delta = coerce_delta(datum, delta)
        self.choose = choose
        self.budget = budget
        self.nodes = 0
        self.memo: dict[ExtAffElt, dict[str, XiPoly]] = {}
        self._moves: dict[ExtAffElt, tuple] = {}  # see _expand
        self._searches: dict[tuple, tuple] = {}  # (x, first_only) -> (options, nodes)
        self._descents: dict[tuple, tuple] = {}  # (w1, label) -> (down, down2)

    def fork(self, choose=None) -> "ClassPolyEngine":
        """An engine with its own chooser and tables, sharing the move, search
        and descent memos and the budget."""
        other = ClassPolyEngine(self.datum, self.delta, choose, self.budget)
        other._moves = self._moves
        other._searches = self._searches
        other._descents = self._descents
        return other

    def _expand(self, y: ExtAffElt):
        """``conjugacy._moves`` of y, read from the move memo."""
        found = self._moves.get(y)
        if found is None:
            found = self._moves[y] = _moves(y, self.delta)
        return found

    def _descent_options(self, x: ExtAffElt, first_only: bool):
        """Pairs (w1, label) with w1 in the same-length orbit, conjugation drops.

        An ``OrbitWalk`` of x over the move memo, in walk order; with
        ``first_only`` it stops at the first pair.  A finished search is kept
        in the search memo with its node count, and a replay adds that count
        to ``nodes``; one that needs more nodes than ``budget`` walks again.
        """
        key = (x, first_only)
        found = self._searches.get(key)
        if found is not None and found[1] <= self.budget:
            self.nodes += found[1]
            return list(found[0])
        walk = OrbitWalk(self._expand, self.budget, "class polynomial search")
        options = []
        try:
            for y, drops in walk.walk([x]):
                if drops and first_only:
                    options.append((y, drops[0][0]))
                    break
                options.extend((y, lab) for lab, _ in drops)
        finally:
            self.nodes += walk.nodes
        self._searches[key] = (tuple(options), walk.nodes)
        return options

    def table(self, x: ExtAffElt) -> dict[str, XiPoly]:
        """The class polynomials of x, by the descent recursion on a work stack.

        An element's options are read when it first reaches the top of the
        stack, and the whole subtree of ``down`` finishes before ``down2`` is
        looked up, as in the recursion; so the memo, the calls to ``choose``
        and ``nodes`` are the recursion's, at any depth.
        """
        memo = self.memo
        if x in memo:
            return memo[x]
        refl = simple_reflections(self.datum)
        stack = [[x, None]]  # [element, (down, down2) once its options are read]
        while stack:
            frame = stack[-1]
            y, children = frame
            if children is None:
                options = self._descent_options(y, first_only=self.choose is None)
                if not options:
                    memo[y] = {class_key(y, self.delta): XiPoly.ONE}
                    stack.pop()
                    continue
                option = options[0] if self.choose is None else self.choose(options)
                children = self._descents.get(option)
                if children is None:
                    w1, lab = option
                    down = refl[lab] * w1
                    children = (down, down * refl[self.delta.on_label(lab)])
                down, down2 = children  # lengths length(y) - 1 and - 2
                if not (down.length == y.length - 1 and down2.length == y.length - 2):
                    raise IntegrityError("descent option does not drop as required")
                frame[1] = self._descents[option] = children
            for child in children:
                if child not in memo:
                    stack.append([child, None])
                    break
            else:
                result = {key: poly.shift() for key, poly in memo[children[0]].items()}
                for key, poly in memo[children[1]].items():
                    result[key] = result.get(key, XiPoly.ZERO) + poly
                memo[y] = {k: v for k, v in result.items() if not v.is_zero}
                stack.pop()
        return memo[x]


def class_polynomials(
    x: ExtAffElt,
    delta: DiagramAut | None = None,
    engine: ClassPolyEngine | None = None,
) -> ClassPolyTable:
    """All nonzero class polynomials of x, keyed by canonical class keys.

    An ``engine`` must belong to x's root datum and to ``delta``; a mismatch
    raises ``ValueError``.
    """
    if engine is None:
        engine = ClassPolyEngine(x.datum, delta)
    else:
        if engine.datum is not x.datum:
            raise ValueError("engine belongs to a different root datum")
        if coerce_delta(x.datum, delta) != engine.delta:
            raise ValueError("engine belongs to a different diagram automorphism")
    table = engine.table(x)
    return ClassPolyTable(
        element=element_literal(x),
        entries={k: table[k] for k in sorted(table)},
    )


@dataclass(frozen=True)
class PathIndependenceReport:
    element: str
    trials: int
    ok: bool
    divergences: tuple[str, ...]


def verify_path_independence(
    x: ExtAffElt,
    delta: DiagramAut | None = None,
    trials: int = 3,
    seed: int = 0,
    engine: ClassPolyEngine | None = None,
) -> PathIndependenceReport:
    """Recompute the table under randomized descent choices and compare.

    The base table comes from ``engine`` (a fresh one by default).  Each
    further trial runs on ``engine.fork`` with a seeded random chooser: it
    shares the move, search and descent memos and the budget, but none of
    the base tables.
    """
    if trials < 2:
        raise ValueError("need at least two trials to compare")
    if engine is None:
        engine = ClassPolyEngine(x.datum, delta)
    base = class_polynomials(x, delta, engine=engine)
    divergences = []
    for t in range(1, trials):
        rng = random.Random(f"{seed}:{t}:{element_literal(x)}")
        other = class_polynomials(x, delta, engine=engine.fork(rng.choice))
        if other.entries != base.entries:
            divergences.append(
                f"trial {t}: {other.entries!r} != {base.entries!r}"
            )
    return PathIndependenceReport(
        element=element_literal(x),
        trials=trials,
        ok=not divergences,
        divergences=tuple(divergences),
    )
