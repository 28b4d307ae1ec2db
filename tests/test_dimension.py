"""Dimension formulas, nonemptiness, defects, virtual dimensions, counts."""

import itertools
import json
from fractions import Fraction

import pytest

from adlv.lattices import dot
from adlv.roots import build_root_datum, is_dominant
from adlv.elements import (
    identity,
    omega_group,
    parse_element,
    translation,
)
from adlv.conjugacy import kottwitz_class, raw_newton_point
from adlv.dimension import (
    EMPTY,
    BElement,
    ClassContribution,
    DimReport,
    GhkrReport,
    defect_basic,
    dim_adlv,
    dim_grassmannian,
    format_q_poly,
    ghkr_check,
    grassmannian_closed_form,
    mazur_check,
    point_count_superbasic_a,
    virtual_dimension,
)
from adlv.hecke import ClassPolyEngine


@pytest.fixture(scope="module")
def a1():
    return build_root_datum("A1")


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


def test_b_element_basics(a1):
    unit = BElement.unit(a1)
    assert unit.is_basic and unit.newton == (Fraction(0),)
    tau = BElement.from_element(omega_group(a1)[1])
    assert tau.is_basic and tau.kappa == (1,)
    trans = BElement.from_element(translation(a1, (2,)))
    assert not trans.is_basic
    assert trans.newton_pairing_2rho == 2
    made = BElement.from_descriptor(a1, None, [Fraction(2)], [0])
    assert made.descriptor == trans.descriptor
    with pytest.raises(ValueError):
        BElement.from_descriptor(a1, None, [Fraction(-1)], [0])


def test_dim_fixtures(a1):
    unit = BElement.unit(a1)
    x = parse_element(a1, "w[0 1 0]")
    report = dim_adlv(x, unit)
    assert report.dim == 2 and report.nonempty
    assert [c.rep for c in report.contributions] == ["t[0]*s1"]
    b_t = BElement.from_element(translation(a1, (2,)))
    assert dim_adlv(x, b_t).dim == 1
    # a minimal element with a mismatched invariant gives the empty variety
    tau_b = BElement.from_element(omega_group(a1)[1])
    report = dim_adlv(translation(a1, (2,)), tau_b)
    assert report.dim == EMPTY and not report.nonempty
    assert report.jsonable()["dim"] == "EMPTY"


def test_dim_report_json(a1):
    report = dim_adlv(parse_element(a1, "w[0 1 0]"), BElement.unit(a1))
    data = report.jsonable()
    assert data["schema_version"] == 1
    assert data["dim"] == 2
    assert data["classes"] == [
        {"rep": "t[0]*s1", "len": 1, "deg": 0, "candidate": 2}
    ]
    assert data["nonempty"] is True


def test_grassmannian_fixtures(a1):
    unit = BElement.unit(a1)
    report = dim_grassmannian((2,), unit)
    assert report.dim == 1
    assert report.bounds["coset_max"] == "checked"
    # closed form: <mu - nu_b, rho> - def(b)/2 = 1 - 0
    assert report.dim == 1
    # Kottwitz obstruction empties the variety
    assert dim_grassmannian((1,), unit).dim == EMPTY
    with pytest.raises(ValueError):
        dim_grassmannian((-1,), unit)


def test_defect_fixtures(a1, a2):
    assert defect_basic(BElement.unit(a1)) == 0
    assert defect_basic(BElement.from_element(omega_group(a1)[1])) == 1
    assert defect_basic(BElement.unit(a2)) == 0
    assert defect_basic(BElement.from_element(omega_group(a2)[1])) == 2
    c2 = build_root_datum("C2")
    assert defect_basic(BElement.unit(c2)) == 0
    assert defect_basic(BElement.from_element(omega_group(c2)[1])) == 1
    with pytest.raises(ValueError):
        defect_basic(BElement.from_element(translation(a1, (2,))))
    with pytest.raises(ValueError):
        defect_basic(BElement.unit(build_root_datum("A1xA1")))


def test_cached_defect_still_checks_twist(a2):
    b = BElement.unit(a2)
    assert defect_basic(b) == 0
    assert "_defect" in vars(b)
    with pytest.raises(ValueError):
        defect_basic(b, (2, 1))


def test_reducible_type_has_no_known_defect():
    datum = build_root_datum("A1xA1")
    unit = BElement.unit(datum)
    assert unit.is_basic and not unit.defect_known
    report = ghkr_check(parse_element(datum, "s1*s2"), unit)
    assert report.dim == 2 and report.virtual is None
    assert not (report.lower_applicable or report.upper_applicable)
    assert grassmannian_closed_form((0, 0), unit) is None
    assert grassmannian_closed_form((1, 0), unit) == EMPTY
    with pytest.raises(ValueError, match="irreducible type"):
        virtual_dimension(parse_element(datum, "s1*s2"), unit)


def test_virtual_dimension_fixtures(a1):
    unit = BElement.unit(a1)
    assert virtual_dimension(parse_element(a1, "w[0 1 0]"), unit) == 2
    assert virtual_dimension(parse_element(a1, "t[-2]*s1"), unit) == 2
    # dominant translation: eta is trivial
    t = translation(a1, (4,))
    assert virtual_dimension(t, unit) == Fraction(t.length, 2)
    with pytest.raises(ValueError):
        virtual_dimension(translation(a1, (1,)), unit)  # kappa mismatch
    trans_b = BElement.from_element(translation(a1, (2,)))
    with pytest.raises(ValueError):
        virtual_dimension(t, trans_b)  # non-basic without explicit defect
    assert virtual_dimension(t, trans_b, defect=0) == Fraction(4, 2) - 1


def test_ghkr_fixture(a1):
    unit = BElement.unit(a1)
    report = ghkr_check(parse_element(a1, "w[0 1 0]"), unit)
    assert report.dim == 2 and report.virtual == 2
    assert report.lower_applicable and report.upper_applicable
    assert report.equality_applicable and report.equality_holds
    data = report.jsonable()
    assert data["equal"] == {"applicable": True, "holds": True}


def test_ghkr_hypothesis_gate(a2):
    # a dominant translation has trivial finite invariant: support is empty,
    # so the lower bound is not applicable, and no violation is reported
    unit = BElement.unit(a2)
    report = ghkr_check(translation(a2, (1, 1)), unit)
    assert not report.lower_applicable
    assert report.upper_applicable  # untwisted
    assert report.upper_holds
    # kappa mismatch: nothing applies and the variety is empty
    tau_b = BElement.from_element(omega_group(a2)[1])
    report = ghkr_check(translation(a2, (1, 1)), tau_b)
    assert not report.kappa_match and report.dim == EMPTY
    assert report.virtual is None


def test_mazur_fixtures(a1, a2):
    # J = S: the criterion degenerates to the Kottwitz comparison
    assert mazur_check((1, 1), identity(a2), (1, 2))
    assert not mazur_check((1, 0), identity(a2), (1, 2))
    tau = omega_group(a1)[1]
    assert not mazur_check((2,), tau, (1,))
    assert mazur_check((1,), tau, (1,))
    with pytest.raises(ValueError):
        mazur_check((-1,), tau, (1,))
    with pytest.raises(ValueError):
        mazur_check((1, 1), parse_element(a2, "w[1 2]"), (1,))  # not in the Levi


def test_mazur_proper_levi_against_dimension(a2):
    # b basic inside the Levi of J = {1}, given by t^{omega2^vee}
    rep = translation(a2, (0, 1))
    b = BElement.from_element(rep, label="t[0,1]")
    engine = ClassPolyEngine(a2)
    for mu in [(0, 1), (1, 0), (2, 0), (1, 2), (0, 2), (1, 1), (3, 0), (2, 1)]:
        claim = mazur_check(mu, rep, (1,))
        truth = dim_grassmannian(
            mu, b, engine=engine, cross_check=False
        ).nonempty
        assert claim == truth, (mu, claim, truth)


def test_mazur_on_every_proper_levi_against_dimension():
    """``mazur_check`` agrees with the class-polynomial nonemptiness of X_mu(b).

    On A2, C2, G2 and A3: every nonempty proper J; every t^lambda with lambda in
    {0,1,2}^r that is basic in the Levi of J and has a dominant Newton point;
    every dominant mu in {0,1,2}^r with <mu, 2 rho> <= 8.  Each pair reaches
    the free-row solve of the criterion.
    """
    pairs = 0
    for label in ("A2", "C2", "G2", "A3"):
        datum = build_root_datum(label)
        engine = ClassPolyEngine(datum)
        box = list(itertools.product(range(3), repeat=datum.rank))
        mus = [mu for mu in box if dot(datum.rho2, mu) <= 8]
        for size in range(1, datum.rank):
            for J in itertools.combinations(range(1, datum.rank + 1), size):
                for lam in box:
                    rep = translation(datum, lam)
                    nu = raw_newton_point(rep)
                    if any(nu[j - 1] for j in J) or not is_dominant(nu):
                        continue
                    b = BElement.from_element(rep)
                    for mu in mus:
                        truth = dim_grassmannian(
                            mu, b, engine=engine, cross_check=False
                        ).nonempty
                        assert mazur_check(mu, rep, J) == truth, (label, J, lam, mu)
                        pairs += 1
    assert pairs == 102 + 360


def test_mazur_hypothesis_checks(a2):
    # representative must be basic inside its Levi
    with pytest.raises(ValueError):
        mazur_check((1, 1), translation(a2, (1, 0)), (1,))


def test_point_count_fixtures(a1):
    tau = omega_group(a1)[1]
    assert point_count_superbasic_a(tau, tau) == (2,)
    assert format_q_poly((2,)) == "2"
    # Kottwitz mismatch gives the zero polynomial
    assert point_count_superbasic_a(translation(a1, (2,)), tau) == ()
    y = parse_element(a1, "w[1 0]@tau^1")
    assert point_count_superbasic_a(y, tau) == (0, 2)
    assert format_q_poly((0, 2)) == "2q"
    with pytest.raises(ValueError):
        point_count_superbasic_a(y, identity(a1))  # not superbasic
    c2 = build_root_datum("C2")
    with pytest.raises(ValueError):
        point_count_superbasic_a(identity(c2), omega_group(c2)[1])


def test_point_count_degree_matches_dimension(a1):
    tau = omega_group(a1)[1]
    b = BElement.from_element(tau)
    engine = ClassPolyEngine(a1)
    from adlv.elements import elements_of_length

    for n in range(7):
        for w in elements_of_length(a1, n):
            if kottwitz_class(w) != b.kappa:
                continue
            count = point_count_superbasic_a(w, tau, engine=engine)
            dim = dim_adlv(w, b, engine=engine).dim
            if dim == EMPTY:
                assert count == ()
            else:
                assert len(count) - 1 == dim


def test_format_q_poly():
    assert format_q_poly(()) == "0"
    assert format_q_poly((0, 0)) == "0"  # all-zero coefficients; "" before
    assert format_q_poly((0, 0, -1)) == "-q^2"
    assert format_q_poly((1, -1)) == "-q + 1"
    assert format_q_poly((0, -3, 3)) == "3q^2 - 3q"
    assert format_q_poly((-1, 0, 1)) == "q^2 - 1"
    assert format_q_poly((1, 1, 1)) == "q^2 + q + 1"


def test_reports_render_exact_values_for_json():
    """Integral values are ints, other fractions and EMPTY are text, and None
    and booleans pass through, in every report's ``jsonable``."""
    for value, rendered in ((Fraction(3), 3), (Fraction(3, 2), "3/2")):
        contribution = ClassContribution("t[0,0]", 0, 1, value)
        assert contribution.jsonable()["candidate"] == rendered
    whole = ClassContribution("t[0,0]", 0, 1, Fraction(3))
    cases = (
        (EMPTY, None, "EMPTY", None),
        (Fraction(3), Fraction(3, 2), 3, "3/2"),
        (Fraction(3, 2), Fraction(3), "3/2", 3),
    )
    for dim, virtual, dim_out, virtual_out in cases:
        data = DimReport(
            input={"element": "x"},
            contributions=[whole],
            dim=dim,
            nonempty=dim is not EMPTY,
            newton_drop=Fraction(0),
            virtual_dim=virtual,
        ).jsonable()
        assert (data["dim"], data["virtual_dim"]) == (dim_out, virtual_out)
        assert data["nonempty"] is (dim is not EMPTY)
        assert data["classes"] == [
            {"rep": "t[0,0]", "len": 0, "deg": 1, "candidate": 3}
        ]
        ghkr = GhkrReport(
            element="x",
            b_label="unit",
            dim=dim,
            virtual=virtual,
            kappa_match=True,
            lower_applicable=False,
            lower_holds=None,
            upper_applicable=True,
            upper_holds=False,
            equality_applicable=False,
            equality_holds=None,
        ).jsonable()
        assert (ghkr["dim"], ghkr["virtual_dim"]) == (dim_out, virtual_out)
        assert ghkr["kappa_match"] is True
        assert ghkr["lower"] == {"applicable": False, "holds": None}
        assert ghkr["upper"] == {"applicable": True, "holds": False}
        for out in (data, ghkr):
            for key in ("dim", "virtual_dim"):
                assert type(out[key]) in (int, str, type(None))
            json.dumps(out)


def _classes(datum, delta, literals=()):
    """One b per basic class, from the length-0 elements, then the given literals."""
    out = {}
    for x in list(omega_group(datum)) + [parse_element(datum, t) for t in literals]:
        b = BElement.from_element(x, delta)
        out.setdefault(b.descriptor, b)
    return list(out.values())


@pytest.mark.parametrize(
    "label,delta,bound,non_basic",
    [
        ("A1", None, 8, ["t[1]"]),
        ("A2", None, 10, ["t[1,0]", "t[1,1]"]),
        ("C2", None, 8, ["t[1,0]"]),
        ("G2", None, 14, ["t[1,0]"]),
        ("A3", None, 10, ["t[1,0,0]"]),
        ("A2", [2, 1], 8, ["t[1,1]", "t[1,0]"]),
    ],
)
def test_grassmannian_closed_form_against_the_dimension(label, delta, bound, non_basic):
    datum = build_root_datum(label)
    engine = ClassPolyEngine(datum, delta)
    classes = _classes(datum, delta, non_basic)
    assert any(not b.is_basic for b in classes)
    rho2 = datum.rho2
    box = itertools.product(*(range(bound // r + 1) for r in rho2))
    formulas = 0
    for mu in (m for m in box if dot(rho2, m) <= bound):
        kappa = kottwitz_class(translation(datum, mu), delta)
        for b in classes:
            closed = grassmannian_closed_form(mu, b, delta)
            if kappa != b.kappa:
                assert closed is EMPTY, (mu, b.label)
            elif delta is None and b.is_basic:
                assert closed not in (None, EMPTY), (mu, b.label)
                formulas += 1
            else:
                assert closed is None, (mu, b.label)
            if closed is not None:
                dim = dim_grassmannian(mu, b, delta, engine=engine, cross_check=False).dim
                assert closed == dim, (mu, b.label)
    assert (formulas > 0) == (delta is None)


def test_grassmannian_closed_form_rejects_a_coweight_that_is_not_dominant(a2):
    with pytest.raises(ValueError, match="dominant"):
        grassmannian_closed_form((1, -1), BElement.unit(a2))
