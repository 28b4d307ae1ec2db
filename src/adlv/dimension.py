"""Dimensions of affine Deligne-Lusztig varieties from class polynomials.

The dimension of X_w(b) is the maximum of (len(w) + len(O) + deg f_{w,O})/2
over the twisted classes O whose invariant matches b, minus <nu_b, 2 rho>;
the variety is empty exactly when every matching class polynomial vanishes.
Emptiness is encoded by the exact sentinel ``EMPTY`` of :mod:`adlv.hecke`,
the degree of the zero class polynomial, which equals only itself, orders
below every int and ``Fraction``, and prints as ``EMPTY``.

``DimProfile`` holds what these formulas need from one element w: its class
polynomials grouped by class invariant, read once, and its Kottwitz class,
finite invariant and lowest-cell test, each computed once when first needed.
It answers ``report(b)`` and ``ghkr(b)`` for any b; ``dim_adlv``,
``ghkr_check`` and ``virtual_dimension`` are views of it for a single b.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .errors import IntegrityError
from .lattices import dot, mat_vec, smith_normal_form
from .roots import RootDatum, is_dominant, min_coset_reps, weyl_group, in_parabolic
from .elements import (
    DiagramAut,
    ExtAffElt,
    coerce_delta,
    double_coset_form,
    element_literal,
    eta_delta,
    from_weyl,
    is_lowest_cell,
    omega_group,
    omega_conjugation_perm,
    supp_delta,
    translation,
)
from .conjugacy import (
    SigmaClassDescriptor,
    _delta_stable_labels,
    _perm_orbits,
    class_info,
    invariant_f,
    kottwitz_class,
    kottwitz_quotient,
    newton_point,
    raw_newton_point,
)
from .hecke import EMPTY, ClassPolyEngine, _format_terms, class_polynomials

__all__ = [
    "EMPTY",
    "BElement",
    "ClassContribution",
    "DimReport",
    "DimProfile",
    "dim_adlv",
    "dim_grassmannian",
    "grassmannian_closed_form",
    "mazur_check",
    "defect_basic",
    "virtual_dimension",
    "GhkrReport",
    "ghkr_check",
    "point_count_superbasic_a",
    "format_q_poly",
]


def _json_number(x):
    """An exact value for JSON: an integral ``Fraction`` as an int, any other
    ``Fraction`` and ``EMPTY`` as their text, anything else as it is."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return str(x) if x is EMPTY else x


@dataclass(frozen=True)
class BElement:
    """A sigma-conjugacy class, held as its combinatorial invariant.

    ``newton_pairing_2rho``, ``is_basic`` and the defect of a basic class
    depend only on the class, so each is computed once per instance and kept
    (``functools.cached_property`` stores it in the instance dict, outside the
    dataclass fields, so ``==`` and ``hash`` are unchanged).  A computation
    that raises is not cached.  ``is_basic`` and the defect read one length-0
    tau of b's Kottwitz class; for basic b = [tau] on an irreducible type,
    def(b) = #(delta-orbits on S) - #(Ad(tau) o delta-orbits on S~) + 1
    (Kottwitz, Compositio Math. 109, 1997; Tits, Corvallis 1979).  Read it
    with ``defect_basic``, which checks its inputs on every call.
    """

    datum: RootDatum
    delta_perm: tuple[int, ...]
    descriptor: SigmaClassDescriptor
    label: str = "b"

    @classmethod
    def from_element(cls, x: ExtAffElt, delta: DiagramAut | None = None,
                     label: str | None = None) -> "BElement":
        delta = coerce_delta(x.datum, delta)
        return cls(
            datum=x.datum,
            delta_perm=delta.perm,
            descriptor=invariant_f(x, delta),
            label=label if label is not None else element_literal(x),
        )

    @classmethod
    def from_descriptor(cls, datum: RootDatum, delta, newton, kappa,
                        label: str = "b") -> "BElement":
        delta = coerce_delta(datum, delta)
        desc = SigmaClassDescriptor(
            newton=tuple(Fraction(c) for c in newton), kappa=tuple(kappa)
        )
        if not is_dominant(desc.newton):
            raise ValueError("Newton vector must be dominant")
        return cls(datum=datum, delta_perm=delta.perm, descriptor=desc, label=label)

    @classmethod
    def unit(cls, datum: RootDatum, delta: DiagramAut | None = None) -> "BElement":
        delta = coerce_delta(datum, delta)
        return cls.from_element(
            from_weyl(datum.identity_weyl), delta, label="unit"
        )

    @property
    def delta(self) -> DiagramAut:
        return DiagramAut(self.datum, self.delta_perm)

    @property
    def newton(self):
        return self.descriptor.newton

    @property
    def kappa(self):
        return self.descriptor.kappa

    @cached_property
    def newton_pairing_2rho(self) -> Fraction:
        return Fraction(dot(self.datum.rho2, self.newton))

    @cached_property
    def _tau(self) -> ExtAffElt:
        """The first element of ``omega_group`` in b's Kottwitz class."""
        for tau in omega_group(self.datum):
            if kottwitz_class(tau, self.delta) == self.kappa:
                return tau
        raise IntegrityError("no length-0 element matches the Kottwitz class")

    @cached_property
    def is_basic(self) -> bool:
        """Newton vector matches the length-0 class with the same Kottwitz class."""
        tau_value = dot(self.datum.rho2, newton_point(self._tau, self.delta))
        return self.newton_pairing_2rho == tau_value

    @property
    def defect_known(self) -> bool:
        """Whether ``defect_basic`` gives def(b): b is basic, on an irreducible type."""
        return len(self.datum.components) == 1 and self.is_basic

    @cached_property
    def _defect(self) -> int:
        """The orbit count of ``defect_basic``, unchecked.  Any tau of the class
        gives the same count: two of them are delta-conjugate in Omega."""
        delta = self.delta
        finite = {i: delta.on_label(i) for i in range(1, self.datum.rank + 1)}
        affine = _ad_delta_perm(self._tau, delta)
        return len(_perm_orbits(finite)) - len(_perm_orbits(affine)) + 1


@dataclass(frozen=True)
class ClassContribution:
    rep: str
    length: int
    degree: int
    candidate: Fraction  # (len(w) + len(O) + deg f) / 2

    def jsonable(self):
        return {
            "rep": self.rep,
            "len": self.length,
            "deg": self.degree,
            "candidate": _json_number(self.candidate),
        }


@dataclass
class DimReport:
    input: dict
    contributions: list[ClassContribution]
    dim: object  # Fraction/int, or EMPTY
    nonempty: bool
    newton_drop: Fraction  # <nu_b, 2 rho>
    virtual_dim: object = None
    bounds: dict = field(default_factory=dict)

    def jsonable(self):
        return {
            "schema_version": 1,
            "input": self.input,
            "classes": [c.jsonable() for c in self.contributions],
            "dim": _json_number(self.dim),
            "nonempty": self.nonempty,
            "virtual_dim": _json_number(self.virtual_dim),
            "bounds": self.bounds,
        }


@dataclass(frozen=True)
class GhkrReport:
    element: str
    b_label: str
    dim: object
    virtual: object
    kappa_match: bool
    lower_applicable: bool
    lower_holds: bool | None
    upper_applicable: bool
    upper_holds: bool | None
    equality_applicable: bool
    equality_holds: bool | None

    def jsonable(self):
        return {
            "element": self.element,
            "b": self.b_label,
            "dim": _json_number(self.dim),
            "virtual_dim": _json_number(self.virtual),
            "kappa_match": self.kappa_match,
            "lower": {"applicable": self.lower_applicable, "holds": self.lower_holds},
            "upper": {"applicable": self.upper_applicable, "holds": self.upper_holds},
            "equal": {
                "applicable": self.equality_applicable,
                "holds": self.equality_holds,
            },
        }


class DimProfile:
    """dim X_w(b) and the GHKR comparison of one element w, for any b.

    The class-polynomial table of w is read once, on the first query, through
    ``class_polynomials`` with its engine checks, and grouped by the invariant
    of each class (``class_info``): an invariant keeps its contributions in
    class-key order and its best candidate.  A query for b is then one lookup.
    The literal of w, kappa(w), eta_delta(w) and the lowest-cell hypothesis of
    the lower bound are computed at most once each, when first needed.  Every
    query checks that b was formed for the profile's twist; the defect of b is
    read through ``defect_basic``, which checks its inputs on every call.
    """

    def __init__(
        self,
        w: ExtAffElt,
        delta: DiagramAut | None = None,
        engine: ClassPolyEngine | None = None,
    ):
        self.w = w
        self.delta = coerce_delta(w.datum, delta)
        self.engine = engine

    @cached_property
    def _by_invariant(self) -> dict:
        """{descriptor: (contributions, best candidate)} over w's table."""
        w, delta = self.w, self.delta
        table = class_polynomials(w, delta, engine=self.engine)
        groups = {}
        for key, poly in table.entries.items():
            info = class_info(w.datum, delta, key)
            groups.setdefault(info["descriptor"], []).append(
                ClassContribution(
                    rep=key,
                    length=info["length"],
                    degree=poly.degree,
                    candidate=Fraction(w.length + info["length"] + poly.degree, 2),
                )
            )
        return {
            desc: (tuple(cs), max(c.candidate for c in cs))
            for desc, cs in groups.items()
        }

    @cached_property
    def literal(self) -> str:
        return element_literal(self.w)

    @cached_property
    def kappa(self) -> tuple[int, ...]:
        return kottwitz_class(self.w, self.delta)

    @cached_property
    def eta(self):
        return eta_delta(self.w, self.delta)

    @cached_property
    def _lower_cell(self) -> bool:
        """The hypotheses of the lower bound on w alone: an irreducible type,
        the lowest two-sided cell, and eta_delta(w) of full delta-support."""
        datum = self.w.datum
        return (
            len(datum.components) == 1
            and is_lowest_cell(self.w)
            and supp_delta(from_weyl(self.eta), self.delta)
            == frozenset(range(1, datum.rank + 1))
        )

    def report(self, b: BElement) -> DimReport:
        """Dimension of X_w(b) by the degree formula over matching classes."""
        if b.delta_perm != self.delta.perm:
            raise ValueError("b was formed for a different twist")
        contributions, best = self._by_invariant.get(b.descriptor, ((), EMPTY))
        drop = b.newton_pairing_2rho
        dim = EMPTY if best is EMPTY else best - drop
        return DimReport(
            input={
                "element": self.literal,
                "b": b.descriptor.jsonable() | {"label": b.label},
                "type": self.w.datum.label,
            },
            contributions=list(contributions),
            dim=dim,
            nonempty=dim is not EMPTY,
            newton_drop=drop,
        )

    def virtual(self, b: BElement, defect: int | None = None) -> Fraction:
        """(len(w) + len(eta(w)) - def(b)) / 2 - <nu_b, rho>.

        Requires the Kottwitz classes of w and b to agree; the defect is
        computed where ``b.defect_known`` and must be supplied otherwise.
        """
        if self.kappa != b.kappa:
            raise ValueError("Kottwitz classes of the element and b differ")
        if defect is None:
            if not b.is_basic:
                raise ValueError("non-basic b needs an explicit defect")
            defect = defect_basic(b, self.delta)
        return (
            Fraction(self.w.length + self.eta.length - defect, 2)
            - b.newton_pairing_2rho / 2
        )

    def ghkr(self, b: BElement) -> GhkrReport:
        """Compare the true dimension against the virtual dimension.

        Both bounds need def(b), known for basic b on an irreducible type; the
        lower one also needs w in the lowest two-sided cell with a finite
        invariant of full support, the upper one no twist.  Failed hypotheses
        are recorded, never raised.
        """
        report = self.report(b)
        kappa_match = self.kappa == b.kappa
        known = kappa_match and b.defect_known
        virtual = self.virtual(b) if known else None
        lower_applicable = known and self._lower_cell
        upper_applicable = known and self.delta.is_identity
        lower_holds = (report.dim >= virtual) if lower_applicable else None
        upper_holds = (report.dim <= virtual) if upper_applicable else None
        equality_applicable = lower_applicable and upper_applicable
        equality_holds = (report.dim == virtual) if equality_applicable else None
        return GhkrReport(
            element=self.literal,
            b_label=b.label,
            dim=report.dim,
            virtual=virtual,
            kappa_match=kappa_match,
            lower_applicable=lower_applicable,
            lower_holds=lower_holds,
            upper_applicable=upper_applicable,
            upper_holds=upper_holds,
            equality_applicable=equality_applicable,
            equality_holds=equality_holds,
        )


def dim_adlv(
    w: ExtAffElt,
    b: BElement,
    delta: DiagramAut | None = None,
    engine: ClassPolyEngine | None = None,
) -> DimReport:
    """Dimension of X_w(b): ``DimProfile(w, delta, engine).report(b)``.

    To query many b for one w, build the profile once and ask it.
    """
    return DimProfile(w, delta, engine).report(b)


def _double_coset(datum: RootDatum, mu) -> list[ExtAffElt]:
    """All elements x t^mu y with y minimal for the stabilizer of mu."""
    stab = [i + 1 for i in range(datum.rank) if mu[i] == 0]
    t_mu = translation(datum, mu)
    out = []
    for x in weyl_group(datum):
        for y in min_coset_reps(datum, stab, side="left"):
            out.append(from_weyl(x) * t_mu * from_weyl(y))
    return out


def dim_grassmannian(
    mu,
    b: BElement,
    delta: DiagramAut | None = None,
    engine: ClassPolyEngine | None = None,
    cross_check: bool = True,
) -> DimReport:
    """Dimension of X_mu(b) in the affine Grassmannian.

    Evaluates the maximal element w0 t^mu of its coset and subtracts the
    longest-element length; with ``cross_check`` the whole double coset is
    swept to confirm the maximum sits at w0 t^mu and that each member obeys
    the partial-conjugation bound.
    """
    datum = b.datum
    mu = tuple(mu)
    if not is_dominant(mu):
        raise ValueError("coweight must be dominant")
    delta = coerce_delta(datum, delta)
    if engine is None:
        engine = ClassPolyEngine(datum, delta)
    w0 = datum.w0()
    top = from_weyl(w0) * translation(datum, mu)
    report = dim_adlv(top, b, delta, engine=engine)
    l0 = w0.length
    dim = EMPTY if report.dim == EMPTY else report.dim - l0
    bounds = {}
    if cross_check:
        best = EMPTY
        for elt in _double_coset(datum, mu):
            r = dim_adlv(elt, b, delta, engine=engine)
            x_w, _, _ = double_coset_form(elt)
            limit = EMPTY if dim is EMPTY else dim + x_w.length
            if not (r.dim == EMPTY or r.dim <= limit):
                raise IntegrityError(
                    f"partial-conjugation bound fails at {element_literal(elt)}"
                )
            if r.dim != EMPTY and (best == EMPTY or r.dim > best):
                best = r.dim
        if best != report.dim:
            raise IntegrityError(
                "double-coset maximum is not attained at the longest member"
            )
        bounds["coset_max"] = "checked"
    return DimReport(
        input={
            "grassmannian_coweight": list(mu),
            "b": b.descriptor.jsonable() | {"label": b.label},
            "type": datum.label,
        },
        contributions=report.contributions,
        dim=dim,
        nonempty=dim != EMPTY,
        newton_drop=report.newton_drop,
        bounds=bounds,
    )


def grassmannian_closed_form(mu, b: BElement, delta: DiagramAut | None = None):
    """dim X_mu(b) by the closed form of Görtz, Haines, Kottwitz and Reuman.

    ``EMPTY`` when kappa(t^mu) differs from kappa(b), for any twist and any b;
    <mu - nu_b, rho> - def(b)/2 for the identity twist and basic b on an
    irreducible type; ``None`` wherever no formula is implemented.
    """
    delta = coerce_delta(b.datum, delta)
    if not is_dominant(mu):
        raise ValueError("coweight must be dominant")
    if kottwitz_class(translation(b.datum, mu), delta) != b.kappa:
        return EMPTY
    if not delta.is_identity or not b.defect_known:
        return None
    pairing = Fraction(dot(b.datum.rho2, mu)) - b.newton_pairing_2rho
    return (pairing - defect_basic(b, delta)) / 2


# ---------------------------------------------------------------------------
# The nonemptiness criterion on the Grassmannian


def mazur_check(
    mu,
    levi_rep: ExtAffElt,
    J,
    delta: DiagramAut | None = None,
) -> bool:
    """Nonemptiness test for X_mu(b) when b is basic inside the Levi of J.

    ``levi_rep`` represents b inside P x W_J; the test asks whether the image
    of mu minus the Levi Kottwitz point of b is a nonnegative integral
    combination of the images of the simple coroots outside J in the
    delta-coinvariants of P modulo the J-coroots.
    """
    datum = levi_rep.datum
    delta = coerce_delta(datum, delta)
    mu = tuple(mu)
    if not is_dominant(mu):
        raise ValueError("coweight must be dominant")
    J = _delta_stable_labels(delta, J)
    if not in_parabolic(levi_rep.w, J):
        raise ValueError("representative does not lie in the Levi subgroup")
    nu = raw_newton_point(levi_rep, delta)
    if any(nu[j - 1] != 0 for j in J):
        raise ValueError("representative is not basic for its Levi")
    if not is_dominant(nu):
        raise ValueError("Levi Kottwitz point does not meet the dominant cone")

    quotient = kottwitz_quotient(datum, delta, J)
    diff = tuple(a - b for a, b in zip(mu, levi_rep.mu))
    target = quotient.reduce(diff)
    orbits = _perm_orbits(
        {i: delta.on_label(i) for i in range(1, datum.rank + 1) if i not in J}
    )
    gens = [quotient.reduce(datum.simple_coroots[o[0] - 1]) for o in orbits]
    orders = [quotient.order_of(datum.simple_coroots[o[0] - 1]) for o in orbits]
    free_rows = [i for i, d in enumerate(quotient.orders) if d == 0]

    # coefficients of infinite-order generators are pinned by the free rows,
    # where those generators are independent: with U M V = D the Smith normal
    # form of that system M c = target, its one solution is integral exactly
    # when d_i divides (U target)_i within the rank and (U target)_i = 0
    # beyond it, and then c = V y with y_i = (U target)_i / d_i.
    # Finite-order generators only matter modulo their order.
    infinite = [k for k, d in enumerate(orders) if d == 0]
    finite = [k for k, d in enumerate(orders) if d != 0]
    U, D, V = smith_normal_form([[gens[k][i] for k in infinite] for i in free_rows])
    n = len(infinite)
    if any(i >= len(D) or D[i][i] == 0 for i in range(n)):
        raise IntegrityError("cone generators are not independent")
    rhs = mat_vec(U, [target[i] for i in free_rows])
    if any(rhs[i] % D[i][i] for i in range(n)) or any(rhs[n:]):
        return False
    coeffs_inf = mat_vec(V, [rhs[i] // D[i][i] for i in range(n)])
    if any(c < 0 for c in coeffs_inf):
        return False

    def torsion_matches(coeffs):
        # gens and target are in canonical quotient coordinates; the free rows
        # match already, as finite-order generators vanish there
        return all(
            sum(c * g[i] for c, g in zip(coeffs, gens)) % d == target[i]
            for i, d in enumerate(quotient.orders)
            if d
        )

    ranges = [range(orders[k]) for k in finite]
    for combo in itertools.product(*ranges):
        coeffs = [0] * len(gens)
        for k, c in zip(infinite, coeffs_inf):
            coeffs[k] = c
        for k, c in zip(finite, combo):
            coeffs[k] = c
        if torsion_matches(coeffs):
            return True
    return False


# ---------------------------------------------------------------------------
# Defect and virtual dimension


def _ad_delta_perm(tau: ExtAffElt, delta: DiagramAut) -> dict[int, int]:
    """The permutation of S~ labels given by s -> tau * delta(s) * tau^{-1}."""
    conj = omega_conjugation_perm(tau)
    return {lab: conj[delta.on_label(lab)] for lab in conj}


def defect_basic(b: BElement, delta: DiagramAut | None = None) -> int:
    """Defect of a basic class b = [tau] on an irreducible type,
    def(b) = rank_F G - rank_F J_b (Kottwitz, "Isocrystals with additional
    structure. II", Compositio Math. 109, 1997).  The relative local Dynkin
    diagram of J_tau has one vertex per Ad(tau) o delta-orbit on S~ (Tits,
    "Reductive groups over local fields", Corvallis 1979), so
    def(b) = #(delta-orbits on S) - #(Ad(tau) o delta-orbits on S~) + 1.

    The count runs once per ``BElement`` and is kept on it; the checks on
    the type, the twist and basicness run on every call.
    """
    datum = b.datum
    if len(datum.components) != 1:
        raise ValueError("defect computation requires an irreducible type")
    delta = coerce_delta(datum, delta)
    if delta.perm != b.delta_perm:
        raise ValueError("b was formed for a different twist")
    if not b.is_basic:
        raise ValueError("defect search needs a basic class")
    return b._defect


def virtual_dimension(
    w: ExtAffElt,
    b: BElement,
    delta: DiagramAut | None = None,
    defect: int | None = None,
) -> Fraction:
    """(len(w) + len(eta(w)) - def(b)) / 2 - <nu_b, rho> for w and b of one
    Kottwitz class: ``DimProfile(w, delta).virtual(b, defect)``, which reads
    no table and needs ``defect`` for non-basic b."""
    return DimProfile(w, delta).virtual(b, defect)


def ghkr_check(
    w: ExtAffElt,
    b: BElement,
    delta: DiagramAut | None = None,
    engine: ClassPolyEngine | None = None,
) -> GhkrReport:
    """Compare the true dimension against the virtual dimension:
    ``DimProfile(w, delta, engine).ghkr(b)``, which records where each bound
    applies and never raises on a failed hypothesis."""
    return DimProfile(w, delta, engine).ghkr(b)


# ---------------------------------------------------------------------------
# Point counts over F_q for superbasic classes in type A


def point_count_superbasic_a(
    w: ExtAffElt,
    x: ExtAffElt,
    delta: DiagramAut | None = None,
    engine: ClassPolyEngine | None = None,
) -> tuple[int, ...]:
    """Rational points of X_w over F_q at a superbasic class, type A only.

    Returns the coefficients (ascending powers of q) of
    ``n * q^{len(w)/2} * f_{w,O}`` after substituting v = sqrt(q); the parity
    of the class polynomial guarantees integrality.  With n = |Omega| and
    f_{w,O} = sum_k c_k xi^k (xi = v - v^{-1}), the count is
    ``n * sum_k c_k * q^{(len(w)-k)/2} * (q-1)^k``, a nonnegative integer
    combination of q^a (q-1)^k.  Its monomial coefficients may be negative:
    on PGL_3 the count 3q^3 - 3q^2 = 3q^2(q-1) occurs.
    """
    datum = w.datum
    delta = coerce_delta(datum, delta)
    if not delta.is_identity:
        raise ValueError("point counts are implemented for the untwisted case")
    if len(datum.components) != 1 or datum.components[0][0] != "A":
        raise ValueError("point counts require an irreducible type A datum")
    # the type is irreducible: superbasic means one orbit of Ad(x) o delta on S~
    if x.length != 0 or len(_perm_orbits(_ad_delta_perm(x, delta))) != 1:
        raise ValueError("x must be a superbasic length-0 element")
    from math import comb

    from .conjugacy import class_key

    n = len(omega_group(datum))
    key = class_key(x, delta)
    table = class_polynomials(w, delta, engine=engine)
    poly = table.poly(key)
    if poly.is_zero:
        return ()
    out = [0] * (((w.length + poly.degree) // 2) + 1)
    for k, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        if (w.length - k) % 2 != 0:
            raise IntegrityError("parity violation in a class polynomial")
        base = (w.length - k) // 2
        # c * q^base * (q-1)^k
        for j in range(k + 1):
            out[base + j] += n * c * comb(k, j) * (-1) ** (k - j)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_q_poly(coeffs) -> str:
    """Coefficients in ascending powers of q as text, highest power first."""
    return _format_terms(reversed(tuple(enumerate(coeffs))), "q")
