"""``DimProfile``: one class-polynomial table per element, read for every b.

The reference here is the per-pair formula: for each (w, b) it reads w's
table through ``class_polynomials``, keeps the classes whose ``class_info``
invariant is b's, and takes the best candidate; the GHKR fields come from
``kottwitz_class``, ``eta_delta``, ``defect_basic`` and ``is_lowest_cell``
directly.  The profile must agree with it on every field for every element
up to a length bound and every b met there.
"""

import copy
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest

from adlv.conjugacy import class_info, invariant_f, kottwitz_class
from adlv.dimension import (
    EMPTY,
    BElement,
    ClassContribution,
    DimProfile,
    DimReport,
    GhkrReport,
    defect_basic,
    dim_adlv,
    ghkr_check,
)
from adlv.elements import (
    DiagramAut,
    element_literal,
    elements_of_length,
    eta_delta,
    from_weyl,
    is_lowest_cell,
    omega_group,
    supp_delta,
)
from adlv.hecke import ClassPolyEngine, class_polynomials
from adlv.roots import build_root_datum


def reference_report(w, b, delta, engine):
    table = class_polynomials(w, delta, engine=engine)
    contributions = []
    for key, poly in table.entries.items():
        info = class_info(w.datum, delta, key)
        if info["descriptor"] == b.descriptor:
            cand = Fraction(w.length + info["length"] + poly.degree, 2)
            contributions.append(ClassContribution(key, info["length"], poly.degree, cand))
    drop = Fraction(sum(r * v for r, v in zip(w.datum.rho2, b.newton)))
    best = max((c.candidate for c in contributions), default=None)
    return DimReport(
        input={
            "element": element_literal(w),
            "b": b.descriptor.jsonable() | {"label": b.label},
            "type": w.datum.label,
        },
        contributions=sorted(contributions, key=lambda c: c.rep),
        dim=EMPTY if best is None else best - drop,
        nonempty=best is not None,
        newton_drop=drop,
    )


def reference_ghkr(w, b, delta, engine):
    dim = reference_report(w, b, delta, engine).dim
    kappa_match = kottwitz_class(w, delta) == b.kappa
    basic = kappa_match and b.is_basic and len(w.datum.components) == 1
    virtual = lower = None
    if basic:
        eta = eta_delta(w, delta)
        pairing = Fraction(sum(r * v for r, v in zip(w.datum.rho2, b.newton)))
        virtual = Fraction(w.length + eta.length - defect_basic(b, delta), 2) - pairing / 2
        lower = (
            len(w.datum.components) == 1
            and is_lowest_cell(w)
            and supp_delta(from_weyl(eta), delta) == frozenset(range(1, w.datum.rank + 1))
        )
    upper = basic and delta.is_identity
    return {
        "element": element_literal(w),
        "b_label": b.label,
        "dim": dim,
        "virtual": virtual,
        "kappa_match": kappa_match,
        "lower_applicable": bool(lower),
        "lower_holds": (dim >= virtual) if lower else None,
        "upper_applicable": upper,
        "upper_holds": (dim <= virtual) if upper else None,
        "equality_applicable": bool(lower) and upper,
        "equality_holds": (dim == virtual) if lower and upper else None,
    }


def outcome(fn, *args):
    """fn(*args), or the ValueError it raises as (type, message)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def ghkr_fields(report):
    return {f.name: getattr(report, f.name) for f in fields(GhkrReport)}


def _setup(label, images, max_length):
    datum = build_root_datum(label)
    delta = (
        DiagramAut.identity(datum) if images is None
        else DiagramAut.from_one_based(datum, images)
    )
    elements = [x for n in range(max_length + 1) for x in elements_of_length(datum, n)]
    descriptors = {invariant_f(x, delta) for x in elements}
    descriptors |= {invariant_f(tau, delta) for tau in omega_group(datum)}
    ordered = sorted(descriptors, key=lambda d: (d.newton, d.kappa))
    bs = [BElement(datum, delta.perm, d, label=f"b{i}") for i, d in enumerate(ordered)]
    return datum, delta, elements, bs


@pytest.mark.parametrize(
    "label,images,max_length",
    [
        ("A2", None, 5),
        ("A2", [2, 1], 5),
        ("C2", None, 5),
        ("G2", None, 5),
        ("A1xA1", [2, 1], 5),
        ("A3", None, 4),
    ],
)
def test_profile_matches_per_pair_formula(label, images, max_length):
    datum, delta, elements, bs = _setup(label, images, max_length)
    engine = ClassPolyEngine(datum, delta)
    ref_engine = ClassPolyEngine(datum, delta)
    nonempty = 0
    for w in elements:
        profile = DimProfile(w, delta, engine)
        for b in bs:
            report = profile.report(b)
            expected = reference_report(w, b, delta, ref_engine)
            assert report.jsonable() == expected.jsonable(), (element_literal(w), b)
            assert report.dim == expected.dim and report.newton_drop == expected.newton_drop
            nonempty += report.nonempty
            got = outcome(lambda: ghkr_fields(profile.ghkr(b)))
            assert got == outcome(reference_ghkr, w, b, delta, ref_engine), (
                element_literal(w), b.label,
            )
    assert nonempty >= len(elements)


def test_views_agree_with_the_profile():
    datum, delta, elements, bs = _setup("C2", None, 4)
    engine = ClassPolyEngine(datum, delta)
    for w in elements:
        profile = DimProfile(w, delta, engine)
        for b in bs:
            assert dim_adlv(w, b, delta, engine).jsonable() == profile.report(b).jsonable()
            assert ghkr_check(w, b, delta, engine) == profile.ghkr(b)


def _count_top_level_tables(engine):
    """Record each top-level ``engine.table`` call; recursive calls pass."""
    calls = []
    table = engine.table
    depth = [0]

    def counting(x):
        if depth[0] == 0:
            calls.append(x)
        depth[0] += 1
        try:
            return table(x)
        finally:
            depth[0] -= 1

    engine.table = counting
    return calls


@pytest.mark.parametrize("warm", [False, True])
def test_one_profile_reads_one_table(warm):
    datum, delta, elements, bs = _setup("A2", None, 4)
    engine = ClassPolyEngine(datum, delta)
    w = elements_of_length(datum, 4)[0]
    if warm:
        class_polynomials(w, delta, engine=engine)
    calls = _count_top_level_tables(engine)
    profile = DimProfile(w, delta, engine)
    for _ in range(3):
        for b in bs:
            profile.report(b)
            profile.ghkr(b)
    assert len(bs) > 3
    assert calls == [w]


def test_profile_checks_the_twist_of_every_b():
    datum = build_root_datum("A2")
    flip = DiagramAut.from_one_based(datum, [2, 1])
    w = elements_of_length(datum, 3)[0]
    profile = DimProfile(w, None, ClassPolyEngine(datum))
    unit = BElement.unit(datum)
    profile.ghkr(unit)
    twisted = BElement.unit(datum, flip)
    for query in (profile.report, profile.ghkr):
        with pytest.raises(ValueError, match="different twist"):
            query(twisted)
    with pytest.raises(ValueError, match="different diagram automorphism"):
        DimProfile(w, flip, ClassPolyEngine(datum)).report(twisted)


def test_empty_is_exact():
    assert not isinstance(EMPTY, float)
    for x in (0, -10**12, Fraction(-7, 2), Fraction(5, 3)):
        assert EMPTY < x and EMPTY <= x and x > EMPTY and x >= EMPTY
        assert not (EMPTY > x or EMPTY >= x or x < EMPTY or x <= EMPTY)
        assert EMPTY != x and x != EMPTY
    assert EMPTY == EMPTY and EMPTY <= EMPTY and EMPTY >= EMPTY
    assert not (EMPTY < EMPTY or EMPTY > EMPTY)
    assert max(Fraction(1, 2), EMPTY) == Fraction(1, 2)
    assert str(EMPTY) == repr(EMPTY) == "EMPTY"
    assert copy.deepcopy(EMPTY) is EMPTY
    assert pickle.loads(pickle.dumps(EMPTY)) is EMPTY
    with pytest.raises(TypeError):
        EMPTY < "0"
