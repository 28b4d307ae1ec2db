"""Twisted conjugation: reduction to minimal length, invariants, classes.

The twisted action of z on x is ``z x delta(z)^{-1}``.  Elementary moves are
conjugation by a simple reflection, ``x -> s_i x s_{delta(i)}`` (length
change 0 or -2 when accepted), and the length-preserving twist
``x -> tau x delta(tau)^{-1}`` by a length-0 element.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from fractions import Fraction

from .errors import IntegrityError
from .lattices import LatticeQuotient, dot, identity_matrix
from .roots import (
    FiniteWeylElt,
    RootDatum,
    dominant_rep,
    in_parabolic,
    levi_root_mask,
    min_coset_reps,
)
from .elements import (
    DiagramAut,
    ExtAffElt,
    OrbitWalk,
    ReductionTrace,
    TraceStep,
    _conjugate_labels,
    coerce_delta,
    element_literal,
    elements_of_length,
    identity,
    length_summands,
    omega_group,
    parse_element,
    simple_reflections,
)

__all__ = [
    "SigmaClassDescriptor",
    "TraceStep",
    "ReductionTrace",
    "newton_point",
    "raw_newton_point",
    "kottwitz_class",
    "kottwitz_quotient",
    "invariant_f",
    "is_straight",
    "reduce_to_minimal",
    "is_minimal_in_class",
    "same_conjugacy_class",
    "class_key",
    "class_info",
    "minimal_class_elements",
    "enumerate_straight_classes",
    "min2_decompose",
    "is_superstraight_class",
    "is_jw_alcove",
    "partial_reduce",
]

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class SigmaClassDescriptor:
    """The class invariant: dominant Newton vector and Kottwitz class."""

    newton: tuple[Fraction, ...]
    kappa: tuple[int, ...]

    def jsonable(self):
        return {
            "newton": [str(c) for c in self.newton],
            "kappa": list(self.kappa),
        }


# ---------------------------------------------------------------------------
# Invariants


def raw_newton_point(x: ExtAffElt, delta: DiagramAut | None = None):
    """lambda/n for the least n with delta^n = 1 and twisted n-th power t^lambda."""
    delta = coerce_delta(x.datum, delta)
    order = delta.order
    powers = [delta**k for k in range(order)]
    y = x
    n = 1
    bound = 10**6
    while not (y.is_translation and n % order == 0):
        y = y * powers[n % order](x)
        n += 1
        if n > bound:  # pragma: no cover
            raise IntegrityError("twisted power never became a translation")
    return tuple(Fraction(c, n) for c in y.mu)


def newton_point(x: ExtAffElt, delta: DiagramAut | None = None):
    """The dominant Newton vector of x (exact rationals).

    Read from the level index (see ``minimal_class_elements``) when x's
    length level has one.
    """
    delta = coerce_delta(x.datum, delta)
    desc = _stored_invariant(x, delta)
    if desc is not None:
        return desc.newton
    bar, _ = dominant_rep(x.datum, raw_newton_point(x, delta))
    return bar


def kottwitz_quotient(datum: RootDatum, delta: DiagramAut | None = None,
                      J=None) -> LatticeQuotient:
    """P modulo (Q_J + (1 - delta) P), Q_J spanned by the simple coroots of J.

    J defaults to every finite label, and then this is the target of the
    Kottwitz map; ``mazur_check`` reads the quotient of a Levi's J.
    """
    return _kottwitz_quotient(coerce_delta(datum, delta), J)


def _one_minus(action, rank: int) -> list:
    """The generators e_i - A(e_i) of the lattice (1 - A) P, for A = ``action``."""
    return [
        tuple(a - b for a, b in zip(e, action(e))) for e in identity_matrix(rank)
    ]


@functools.cache
def _kottwitz_quotient(delta: DiagramAut, J) -> LatticeQuotient:
    datum = delta.datum
    labels = range(1, datum.rank + 1) if J is None else J
    gens = [datum.simple_coroots[j - 1] for j in labels]
    return LatticeQuotient(datum.rank, gens + _one_minus(delta.on_coweight, datum.rank))


def kottwitz_class(x: ExtAffElt, delta: DiagramAut | None = None) -> tuple[int, ...]:
    return kottwitz_quotient(x.datum, delta).reduce(x.mu)


def invariant_f(x: ExtAffElt, delta: DiagramAut | None = None) -> SigmaClassDescriptor:
    delta = coerce_delta(x.datum, delta)
    desc = _stored_invariant(x, delta)
    if desc is None:
        desc = SigmaClassDescriptor(
            newton=newton_point(x, delta), kappa=kottwitz_class(x, delta)
        )
    return desc


def is_straight(x: ExtAffElt, delta: DiagramAut | None = None) -> bool:
    nu = newton_point(x, delta)
    return Fraction(x.length) == dot(x.datum.rho2, nu)


# ---------------------------------------------------------------------------
# Reduction to minimal length


def _simple_moves(x: ExtAffElt, delta: DiagramAut, labels):
    """The moves x -> s_i x s_delta(i) for i in ``labels``, as (i, image) pairs.

    Returns ``(drops, same)``: the moves that shorten x, and those that keep
    its length, each in the order of ``labels``.
    """
    refl = simple_reflections(x.datum)
    n = x.length
    drops, same = [], []
    for lab in labels:
        z = refl[lab] * x * refl[delta.on_label(lab)]
        if z.length < n:
            drops.append((lab, z))
        elif z.length == n:
            same.append((lab, z))
    return drops, same


def _moves(x: ExtAffElt, delta: DiagramAut):
    """All twisted-conjugation moves of x, as ``(drops, same)``.

    The simple reflections in label order, then the length-0 elements tau
    (``x -> tau x delta(tau)^{-1}``, which keeps the length), as (move,
    image) pairs; the move is a label or tau.  This is the move source of
    the full orbit searches, and the class-polynomial engine memoizes it.
    """
    drops, same = _simple_moves(x, delta, simple_reflections(x.datum))
    for tau in omega_group(x.datum):
        if not tau.is_identity:
            same.append((tau, tau * x * delta(tau).inverse()))
    return drops, same


def reduce_to_minimal(
    x: ExtAffElt,
    delta: DiagramAut | None = None,
    budget: int = DEFAULT_BUDGET,
):
    """A minimal-length element of the twisted class of x, with a replayable trace.

    One ``OrbitWalk`` over ``_moves`` walks the same-length orbit of x, then
    the orbit of the drops found there, level by level; ``budget`` caps the
    nodes of all levels together.  When a level admits no further drop, it
    is the minimal length of the whole class, and its first element (x
    itself when x was already minimal, else the first drop discovered) is
    returned, so the result is globally minimal.
    """
    delta = coerce_delta(x.datum, delta)
    walk = OrbitWalk(lambda y: _moves(y, delta), budget, "reduction", {x: None})
    level = [x]
    while True:
        drops = [z for _, new in walk.walk(level) for _, z in new]
        if not drops:
            return level[0], walk.trace(level[0])
        level = drops


def is_minimal_in_class(x: ExtAffElt, delta: DiagramAut | None = None,
                        budget: int = DEFAULT_BUDGET) -> bool:
    """True when no chain of same-length moves from x reaches a length drop.

    An ``OrbitWalk`` over ``_moves`` that stops at the first node with a drop.
    """
    delta = coerce_delta(x.datum, delta)
    walk = OrbitWalk(lambda y: _moves(y, delta), budget, "minimality test")
    return not any(drops for _, drops in walk.walk([x]))


# ---------------------------------------------------------------------------
# Class identity


class _TwistedClassMap:
    """The class state of one (datum, delta), filled lazily.

    For the twisted classes of W under u . y = u y delta(u)^{-1}: ``root``
    maps each element of a filled class to the class root r (the element
    the class was first queried on), ``conj`` maps it to a conjugator c_y
    with c_y r delta(c_y)^{-1} = y, and ``centraliser`` maps each root to
    its twisted centraliser Z(r) = {u : u r delta(u)^{-1} = r}.

    For the twisted classes of the extended affine Weyl group: ``levels``
    maps a length to its ``_LevelIndex``, ``keys`` maps each element whose
    class key is known to that key (``class_key``), and ``info`` maps a
    class key to its entry (``class_info``).

    One instance lives on each interned ``DiagramAut`` as ``class_map``
    (``_class_map`` makes it), so no state is shared between two twists,
    and it lives as long as the datum.
    """

    __slots__ = ("delta", "root", "conj", "centraliser", "levels", "keys", "info")

    def __init__(self, delta: DiagramAut):
        self.delta = delta
        self.root: dict[FiniteWeylElt, FiniteWeylElt] = {}
        self.conj: dict[FiniteWeylElt, FiniteWeylElt] = {}
        self.centraliser: dict[FiniteWeylElt, tuple[FiniteWeylElt, ...]] = {}
        self.levels: dict[int, _LevelIndex] = {}
        self.keys: dict[ExtAffElt, str] = {}
        self.info: dict[str, dict] = {}

    def fill(self, r: FiniteWeylElt) -> None:
        """Walk the class of r by y -> s_i y s_delta(i), then close Z(r).

        A new element z = s_i y s_delta(i) gets c_z = s_i c_y.  An edge into
        an element already seen gives the Schreier generator c_z^{-1} s_i c_y
        of Z(r); these generate Z(r).  One is kept only when it is not in the
        subgroup built so far, so each kept one at least doubles it, and the
        edges stop being read once the subgroup has |W| / |class| elements.
        """
        datum = r.datum
        intern = datum.weyl_from_perm
        moves = []
        for i in range(1, datum.rank + 1):
            s = datum.simple_weyl(i)
            moves.append((s, s.p, datum.simple_weyl(self.delta.on_label(i)).p))
        root, conj = self.root, self.conj
        root[r] = r
        conj[r] = datum.identity_weyl
        edges = []
        queue = [r]
        for y in queue:  # also visits what the loop appends
            yp = y.p
            cy = conj[y]
            for s, sp, sdp in moves:
                # the p of s_i * y * s_delta(i) (see FiniteWeylElt.__mul__)
                z = intern(itemgetter(*itemgetter(*sp)(yp))(sdp))
                if z in root:
                    edges.append((z, s, cy))
                else:
                    root[z] = r
                    conj[z] = s * cy
                    queue.append(z)
        order = datum.weyl_order // len(queue)
        group = {datum.identity_weyl: None}
        gens: list[FiniteWeylElt] = []
        for z, s, cy in edges:
            if len(group) == order:
                break
            g = conj[z].inverse() * (s * cy)
            if g not in group:
                _close_subgroup(group, gens, g)
        if len(group) != order:
            raise IntegrityError("twisted centraliser has the wrong order")
        self.centraliser[r] = tuple(group)


def _class_map(delta: DiagramAut) -> _TwistedClassMap:
    if delta.class_map is None:
        delta.class_map = _TwistedClassMap(delta)
    return delta.class_map


def _close_subgroup(group: dict, gens: list, g) -> None:
    """Extend the subgroup ``group`` (generated by ``gens``) by g, in place.

    The old elements times the old generators stay inside, so they are
    multiplied by g only; the new elements by every generator.
    """
    gens.append(g)
    intern = g.datum.weyl_from_perm
    queue = list(group)
    old = len(queue)
    for k, h in enumerate(queue):  # also visits what the loop appends
        hp = h.p
        for t in gens if k >= old else (g,):
            u = intern(itemgetter(*hp)(t.p))
            if u not in group:
                group[u] = None
                queue.append(u)


def _twisted_weyl_conjugators(datum: RootDatum, wx: FiniteWeylElt,
                              wy: FiniteWeylElt, delta: DiagramAut):
    """Every u in W with u wx delta(u)^{-1} = wy, from the twisted class map.

    The first query on wx fills wx's class.  When wy's class root differs
    there is none; otherwise they are c_y u c_x^{-1} for u in Z(r).  No
    query enumerates W, except through a centraliser that is all of W.
    """
    cmap = _class_map(delta)
    if wx not in cmap.root:
        cmap.fill(wx)
    r = cmap.root[wx]
    if cmap.root.get(wy) is not r:
        return
    cy = cmap.conj[wy]
    cx_inv = cmap.conj[wx].inverse()
    for u in cmap.centraliser[r]:
        yield cy * u * cx_inv


@functools.cache
def _translation_defect_lattice(wy: FiniteWeylElt, delta: DiagramAut):
    """The sublattice (1 - Ad(wy) o delta) P."""
    rank = wy.datum.rank
    return LatticeQuotient(
        rank, _one_minus(lambda e: wy.coweight_action(delta.on_coweight(e)), rank)
    )


def same_conjugacy_class(x: ExtAffElt, y: ExtAffElt,
                         delta: DiagramAut | None = None) -> bool:
    """Decide whether some z satisfies z x delta(z)^{-1} = y.

    Writing z = t^nu u, the finite parts must be twisted-conjugate under u,
    and then mu_y - u(mu_x) must lie in (1 - Ad(w_y) o delta) P; the lattice
    membership is exact integer linear algebra.  The candidates u come from
    the twisted class map of W (``_twisted_weyl_conjugators``): none when
    w_x and w_y lie in different twisted classes of W, else one coset of a
    twisted centraliser, and the lattice test decides each of them.
    """
    if x.datum is not y.datum:
        raise ValueError("elements belong to different root data")
    delta = coerce_delta(x.datum, delta)
    if x == y:
        return True
    for u in _twisted_weyl_conjugators(x.datum, x.w, y.w, delta):
        diff = tuple(
            a - b for a, b in zip(y.mu, u.coweight_action(x.mu))
        )
        if _translation_defect_lattice(y.w, delta).contains(diff):
            return True
    return False


# ---------------------------------------------------------------------------
# Canonical class keys


class _LevelIndex:
    """One length level, indexed by the class invariant, with class members.

    ``invariant`` maps each element of the level to its descriptor,
    ``buckets`` maps a descriptor to the elements that have it in level
    order, and ``members`` maps each element whose class has been listed to
    that class's tuple of members.
    """

    __slots__ = ("invariant", "buckets", "members")

    def __init__(self, delta: DiagramAut, n: int):
        self.invariant: dict[ExtAffElt, SigmaClassDescriptor] = {}
        self.buckets: dict[SigmaClassDescriptor, list[ExtAffElt]] = {}
        self.members: dict[ExtAffElt, tuple[ExtAffElt, ...]] = {}
        # one descriptor object per bucket, so a level's Fractions are not
        # held once per element
        canonical: dict[SigmaClassDescriptor, SigmaClassDescriptor] = {}
        for z in elements_of_length(delta.datum, n):
            desc = invariant_f(z, delta)
            desc = canonical.setdefault(desc, desc)
            self.invariant[z] = desc
            self.buckets.setdefault(desc, []).append(z)


def _level_index(delta: DiagramAut, n: int) -> _LevelIndex:
    levels = _class_map(delta).levels
    if n not in levels:
        levels[n] = _LevelIndex(delta, n)
    return levels[n]


def _stored_invariant(x: ExtAffElt, delta: DiagramAut) -> SigmaClassDescriptor | None:
    level = _class_map(delta).levels.get(x.length)
    return None if level is None else level.invariant.get(x)


def minimal_class_elements(x_min: ExtAffElt, delta: DiagramAut | None = None):
    """All minimal-length elements of the class of an already-minimal element.

    The candidates are the elements of x_min's length level with x_min's
    invariant (built once per level, in level order); ``same_conjugacy_class``
    decides each of them.  The resulting tuple, in level order, is kept for
    every member, so a later call on any member returns it directly.
    """
    delta = coerce_delta(x_min.datum, delta)
    level = _level_index(delta, x_min.length)
    out = level.members.get(x_min)
    if out is None:
        bucket = level.buckets.get(invariant_f(x_min, delta), ())
        out = tuple(z for z in bucket if same_conjugacy_class(z, x_min, delta))
        for z in out:
            level.members[z] = out
    return out


def class_key(x: ExtAffElt, delta: DiagramAut | None = None,
              budget: int = DEFAULT_BUDGET) -> str:
    """Canonical name of the twisted class of x.

    The key is the lexicographically least literal over all minimal-length
    members, a pure function of the class, so tables computed from different
    elements or different runs agree.  The first call on a class also
    records its ``class_info`` entry and the key of every minimal member;
    both live on delta's class map, so each twist has its own.
    """
    delta = coerce_delta(x.datum, delta)
    cmap = _class_map(delta)
    key = cmap.keys.get(x)
    if key is None:
        x_min, _ = reduce_to_minimal(x, delta, budget=budget)
        key = cmap.keys.get(x_min)
        if key is None:
            members = minimal_class_elements(x_min, delta)
            rep = min(members, key=element_literal)
            key = element_literal(rep)
            cmap.info[key] = {
                "rep": rep,
                "descriptor": invariant_f(rep, delta),
                "length": rep.length,
            }
            cmap.keys.update(dict.fromkeys(members, key))
        cmap.keys[x] = key
    return key


def class_info(datum: RootDatum, delta: DiagramAut | None, key: str) -> dict:
    """The entry (rep, descriptor, length) of a class key under delta.

    Read from delta's class map; a key not seen yet is parsed, and it must
    be the ``class_key`` of the element it names, else ``ValueError``.
    """
    delta = coerce_delta(datum, delta)
    info = _class_map(delta).info
    if key not in info and class_key(parse_element(datum, key), delta) != key:
        raise ValueError(f"{key!r} is not a canonical class key")
    return info[key]


# ---------------------------------------------------------------------------
# Straight classes


def enumerate_straight_classes(
    datum: RootDatum,
    delta: DiagramAut | None = None,
    max_length: int = 0,
):
    """One canonical minimal representative per straight class with length <= bound.

    Returns (representative, descriptor) pairs sorted by (length, key); the
    descriptor map is injective on the classes found, and a collision raises
    an integrity error.
    """
    delta = coerce_delta(datum, delta)
    by_key: dict[str, ExtAffElt] = {}
    for n in range(max_length + 1):
        _level_index(delta, n)  # is_straight reads its invariants
        for x in elements_of_length(datum, n):
            if not is_straight(x, delta):
                continue
            key = class_key(x, delta)
            by_key.setdefault(key, class_info(datum, delta, key)["rep"])
    seen_desc: dict[SigmaClassDescriptor, str] = {}
    out = []
    for key, rep in by_key.items():
        desc = invariant_f(rep, delta)
        if desc in seen_desc and seen_desc[desc] != key:
            raise IntegrityError(
                "distinct straight classes share an invariant: "
                f"{seen_desc[desc]} vs {key}"
            )
        seen_desc[desc] = key
        out.append((rep, desc))
    out.sort(key=lambda pair: (pair[0].length, element_literal(pair[0])))
    return out


# ---------------------------------------------------------------------------
# Minimal elements are u * (straight x)


def _finite_wj(datum: RootDatum, J) -> bool:
    """W_J is finite iff J misses at least one node of each affine component."""
    for c, (_, rank, start) in enumerate(datum.components):
        nodes = {-c} | set(range(start + 1, start + rank + 1))
        if nodes <= set(J):
            return False
    return True


def _left_parabolic_split(x: ExtAffElt, J):
    """x = u * rest, u the W_J part (greedy left descents in J), rest J-minimal."""
    refl = simple_reflections(x.datum)
    u = identity(x.datum)
    rest = x
    changed = True
    while changed:
        changed = False
        for j in sorted(J):
            s = refl[j]
            if (s * rest).length < rest.length:
                u = u * s
                rest = s * rest
                changed = True
                break
    return u, rest


def _subset_conjugation_map(x: ExtAffElt, source, target) -> dict[int, int] | None:
    """The map j -> j' with x s_j x^{-1} = s_{j'}, landing onto target, else None."""
    refl = simple_reflections(x.datum)
    out = _conjugate_labels(
        x, {j: refl[j] for j in source}, {lab: refl[lab] for lab in target}
    )
    return out if set(out.values()) == set(target) else None


@dataclass(frozen=True)
class Min2Decomposition:
    J: tuple[int, ...]
    straight: ExtAffElt
    finite_factor: ExtAffElt  # u in W_J with u * straight in the class


def min2_decompose(
    x_min: ExtAffElt,
    delta: DiagramAut | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Min2Decomposition:
    """Split a minimal element, along its same-length orbit, as u * x.

    An ``OrbitWalk`` under length-preserving conjugation by simple
    reflections (no length-0 twists) stops at the first member u x with u
    in a finite W_J and x straight, minimal on both sides for
    (J, delta(J)) and with Ad(x) delta(J) = J.
    """
    delta = coerce_delta(x_min.datum, delta)
    datum = x_min.datum
    refl = simple_reflections(datum)
    subsets = sorted(
        (
            J
            for k in range(len(refl) + 1)
            for J in itertools.combinations(sorted(refl), k)
        ),
        key=lambda J: (len(J), J),
    )
    walk = OrbitWalk(lambda y: _simple_moves(y, delta, refl), budget, "decomposition")
    for y, _ in walk.walk([x_min]):
        for J in subsets:
            if not _finite_wj(datum, J):
                continue
            u, x = _left_parabolic_split(y, J)
            if u.length + x.length != y.length:
                raise IntegrityError("parabolic split lost length")
            dJ = tuple(sorted(delta.on_label(j) for j in J))
            if any((x * refl[j]).length < x.length for j in dJ):
                continue
            if _subset_conjugation_map(x, dJ, J) is None:
                continue
            if not is_straight(x, delta):
                continue
            return Min2Decomposition(J=tuple(J), straight=x, finite_factor=u)
    raise IntegrityError(
        "no straight decomposition found in the same-length orbit; "
        "either the input was not minimal or this is a bug"
    )


# ---------------------------------------------------------------------------
# Superstraight classes


def _length_in_levi(x: ExtAffElt, J) -> int:
    """Length of x inside P x W_J: the length sum restricted to roots spanned by J."""
    inside = levi_root_mask(x.datum, J)
    return sum(map(abs, itertools.compress(length_summands(x), inside)))


def _levi_components(datum: RootDatum, J):
    """Connected components of the sub-diagram on the finite labels J."""
    J = sorted(J)
    comps = []
    remaining = set(J)
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            for j in remaining - comp:
                if datum.cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    frontier.append(j)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return comps


def _levi_highest_root(datum: RootDatum, comp):
    inside = levi_root_mask(datum, comp)
    best = max(itertools.compress(range(len(inside)), inside),
               key=lambda k: sum(datum.positive_roots[k]))
    return datum.positive_roots[best], datum.positive_coroots[best]


def _levi_affine_diagram(datum: RootDatum, J):
    """Nodes of the affine diagram of P x W_J: (component id, name, reflection)."""
    refl = simple_reflections(datum)
    nodes = []
    for cid, comp in enumerate(_levi_components(datum, J)):
        for j in comp:
            nodes.append((cid, ("s", j), refl[j]))
        theta, theta_vee = _levi_highest_root(datum, comp)
        s0 = ExtAffElt(datum, theta_vee, datum.reflection_in_root(theta, theta_vee))
        nodes.append((cid, ("aff", comp), s0))
    return nodes


def _perm_orbits(perm: dict[int, int]):
    """Orbits of a permutation given as a dict, each sorted, by least member."""
    labels = set(perm)
    out = []
    while labels:
        seed = min(labels)
        orbit = {seed}
        j = perm[seed]
        while j != seed:
            orbit.add(j)
            j = perm[j]
        out.append(tuple(sorted(orbit)))
        labels -= orbit
    return out


def _is_superbasic_in_levi(x: ExtAffElt, J, delta: DiagramAut) -> bool:
    """Orbits of Ad(x) o delta on the Levi affine diagram are unions of components."""
    nodes = _levi_affine_diagram(x.datum, J)
    perm = _conjugate_labels(
        x,
        {idx: delta(s) for idx, (_, _, s) in enumerate(nodes)},
        {idx: s for idx, (_, _, s) in enumerate(nodes)},
    )
    if None in perm.values():
        return False
    for orbit in _perm_orbits(perm):
        touched = {nodes[i][0] for i in orbit}
        if len(orbit) != sum(1 for cid, _, _ in nodes if cid in touched):
            return False
    return True


def is_superstraight_class(
    x_min: ExtAffElt, delta: DiagramAut | None = None
) -> bool:
    """True when the class of the minimal element x_min is superstraight.

    Uses the characterization by a superbasic element of the Levi attached to
    the zero-pairing set of the Newton vector: some minimal member, twisted
    back by a minimal coset representative, must be a basic element of that
    Levi with the right Newton vector and a transitive-on-components diagram
    action.
    """
    delta = coerce_delta(x_min.datum, delta)
    datum = x_min.datum
    if not is_straight(x_min, delta):
        return False
    nu = newton_point(x_min, delta)
    J = tuple(j + 1 for j in range(datum.rank) if nu[j] == 0)
    reps = list(min_coset_reps(datum, J, side="right"))
    for m in minimal_class_elements(x_min, delta):
        for y in reps:
            x = ExtAffElt(datum, (0,) * datum.rank, y.inverse()) * m
            x = x * ExtAffElt(datum, (0,) * datum.rank, delta.on_weyl(y))
            if not in_parabolic(x.w, J):
                continue
            if _length_in_levi(x, J) != 0:
                continue
            if raw_newton_point(x, delta) != tuple(nu):
                continue
            if _is_superbasic_in_levi(x, J, delta):
                return True
    return False


# ---------------------------------------------------------------------------
# Alcove criterion


def _delta_stable_labels(delta: DiagramAut, J) -> tuple[int, ...]:
    """J as a sorted tuple, checked to be a delta-stable set of finite labels."""
    J = tuple(sorted(set(J)))
    if any(not 1 <= j <= delta.datum.rank for j in J):
        raise ValueError("J must consist of finite simple labels")
    if tuple(sorted(delta.on_label(j) for j in J)) != J:
        raise ValueError("J must be delta-stable")
    return J


def is_jw_alcove(
    x: ExtAffElt, J, w: FiniteWeylElt, delta: DiagramAut | None = None
) -> bool:
    """The alcove criterion for (J, w, delta); J a delta-stable set of finite labels.

    Condition (1): w^{-1} x delta(w) has finite part in W_J.  Condition (2):
    for each root a = w(alpha) with alpha positive outside the span of J, the
    affine root subgroups x pulls into the Iwahori sit no lower than those
    already there, which reduces to one integer threshold per root line.
    """
    delta = coerce_delta(x.datum, delta)
    datum = x.datum
    J = _delta_stable_labels(delta, J)
    dw = delta.on_weyl(w)
    y = ExtAffElt(datum, (0,) * datum.rank, w.inverse()) * x
    y = y * ExtAffElt(datum, (0,) * datum.rank, dw)
    if not in_parabolic(y.w, J):
        return False
    u = x.w
    for alpha, inside in zip(datum.positive_roots, levi_root_mask(datum, J)):
        if inside:
            continue
        a = w.root_action(alpha)
        pairing = dot(a, x.mu)
        b = u.inverse_root_action(a)
        lhs = pairing + (0 if all(c >= 0 for c in b) else 1)
        rhs = 0 if all(c >= 0 for c in a) else 1
        if lhs < rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Partial conjugation (finite simple reflections only)


@dataclass(frozen=True)
class PartialReduction:
    terminal: ExtAffElt
    finite_factor: ExtAffElt  # u
    core: ExtAffElt  # the S-minimal part x with terminal = u * x
    stable_set: tuple[int, ...]  # I(core)
    trace: ReductionTrace


def _max_stable_subset(x: ExtAffElt, delta: DiagramAut) -> tuple[int, ...]:
    """Largest J with Ad(x) delta(J) = J among the finite simple labels."""
    refl = simple_reflections(x.datum)
    finite = range(1, x.datum.rank + 1)
    phi = _conjugate_labels(
        x, {j: refl[delta.on_label(j)] for j in finite}, {j: refl[j] for j in finite}
    )
    J = {j for j, img in phi.items() if img is not None}
    changed = True
    while changed:
        changed = False
        for j in list(J):
            if phi[j] not in J:
                J.discard(j)
                changed = True
    return tuple(sorted(J))


def partial_reduce(
    x: ExtAffElt,
    delta: DiagramAut | None = None,
    budget: int = DEFAULT_BUDGET,
) -> PartialReduction:
    """Reduce x by conjugations indexed by finite simple reflections only.

    One ``OrbitWalk`` over the finite moves goes level by level, as in
    ``reduce_to_minimal`` (``budget`` caps all levels together), and stops
    at the first node u * core with core minimal for the left W-cosets and
    u inside the parabolic of the largest Ad(core)-delta-stable label set.
    """
    delta = coerce_delta(x.datum, delta)
    finite_labels = list(range(1, x.datum.rank + 1))
    walk = OrbitWalk(
        lambda y: _simple_moves(y, delta, finite_labels),
        budget, "partial reduction", {x: None},
    )
    level = [x]
    while True:
        drops = []
        for y, new in walk.walk(level):
            u, core = _left_parabolic_split(y, finite_labels)
            stable = _max_stable_subset(core, delta)
            if in_parabolic(u.w, stable):
                return PartialReduction(
                    terminal=y,
                    finite_factor=u,
                    core=core,
                    stable_set=stable,
                    trace=walk.trace(y),
                )
            drops.extend(z for _, z in new)
        if not drops:
            raise IntegrityError(
                "partial conjugation closed without reaching a normal form"
            )
        level = drops
