"""Twisted conjugation: invariants, reduction, classes, decompositions."""

import random
from fractions import Fraction

import pytest

from adlv.errors import BudgetError
from adlv.lattices import mat_inverse, mat_mul
from adlv.roots import build_root_datum, dominant_rep, weyl_group
from adlv.elements import (
    DiagramAut,
    coerce_delta,
    element_literal,
    elements_of_length,
    from_weyl,
    identity,
    omega_group,
    parse_element,
    simple_reflections,
    translation,
)
from adlv.conjugacy import (
    SigmaClassDescriptor,
    class_key,
    enumerate_straight_classes,
    invariant_f,
    is_jw_alcove,
    is_minimal_in_class,
    is_straight,
    is_superstraight_class,
    kottwitz_class,
    min2_decompose,
    minimal_class_elements,
    newton_point,
    partial_reduce,
    raw_newton_point,
    reduce_to_minimal,
    same_conjugacy_class,
    _twisted_weyl_conjugators,
)

from test_elements import random_element


def twisted_power_oracle(x, delta, n):
    """x delta(x) ... delta^{n-1}(x) by direct multiplication."""
    delta = coerce_delta(x.datum, delta)
    out = x
    for k in range(1, n):
        out = out * (delta**k)(x)
    return out


# --- Newton and Kottwitz maps -------------------------------------------------


def test_newton_fixtures():
    a1 = build_root_datum("A1")
    assert newton_point(translation(a1, (2,))) == (Fraction(2),)
    assert newton_point(translation(a1, (-2,))) == (Fraction(2),)
    assert newton_point(omega_group(a1)[1]) == (Fraction(0),)
    assert newton_point(parse_element(a1, "t[-2]*s1")) == (Fraction(0),)


def test_newton_independent_of_n():
    # doubling the exponent must not change lambda / n
    rng = random.Random(10)
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    for delta in (DiagramAut.identity(a2), flip):
        for _ in range(25):
            x = random_element(a2, rng, 8)
            nu = raw_newton_point(x, delta)
            n = 1
            while True:
                y = twisted_power_oracle(x, delta, n)
                if y.is_translation and n % delta.order == 0:
                    break
                n += 1
            doubled = twisted_power_oracle(x, delta, 2 * n)
            assert doubled.is_translation
            assert tuple(Fraction(c, 2 * n) for c in doubled.mu) == nu


def test_kottwitz_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    assert kottwitz_class(refl[0]) == (0,)
    assert kottwitz_class(refl[1]) == (0,)
    assert kottwitz_class(translation(a1, (1,))) == (1,)


def test_kottwitz_homomorphism():
    rng = random.Random(11)
    a2 = build_root_datum("A2")
    quotient_mod = 3
    for _ in range(40):
        x = random_element(a2, rng, 8)
        y = random_element(a2, rng, 8)
        kx, ky, kxy = (kottwitz_class(z) for z in (x, y, x * y))
        assert (kx[0] + ky[0]) % quotient_mod == kxy[0] % quotient_mod or (
            tuple((a + b) % d if d else a + b
                  for a, b, d in zip(kx, ky, (quotient_mod,) * len(kx)))
            == kxy
        )


def test_invariant_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    assert invariant_f(identity(a1)).newton == (Fraction(0),)
    assert invariant_f(identity(a1)).kappa == (0,)
    assert invariant_f(refl[1]) == invariant_f(refl[0])
    f = invariant_f(translation(a1, (2,)))
    assert f.newton == (Fraction(2),) and f.kappa == (0,)


def test_is_straight():
    a1 = build_root_datum("A1")
    assert is_straight(translation(a1, (2,)))
    assert not is_straight(simple_reflections(a1)[1])
    for label in ("A1", "A2", "C2"):
        for tau in omega_group(build_root_datum(label)):
            assert is_straight(tau)


# --- reduction --------------------------------------------------------------


def test_reduce_fixtures():
    a1 = build_root_datum("A1")
    x = translation(a1, (2,))
    m, trace = reduce_to_minimal(x)
    assert m == x and trace.steps == ()
    m, trace = reduce_to_minimal(parse_element(a1, "w[0 1 0]"))
    assert m.length == 1
    assert trace.replay(parse_element(a1, "w[0 1 0]"), DiagramAut.identity(a1))
    m, _ = reduce_to_minimal(parse_element(a1, "t[-2]*s1"))
    assert m.length == 1


def test_reduce_properties():
    rng = random.Random(12)
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        delta = DiagramAut.identity(datum)
        for _ in range(15):
            x = random_element(datum, rng, 10)
            m, trace = reduce_to_minimal(x)
            assert trace.replay(x, delta)
            assert is_minimal_in_class(m)
            assert invariant_f(m) == invariant_f(x)
            for step in trace.steps:
                assert step.dl in (0, -2)
                assert invariant_f(step.before) == invariant_f(step.after)
            # a second start in the same class reaches the same class
            z = random_element(datum, rng, 4)
            conj = z * x * z.inverse()
            m2, _ = reduce_to_minimal(conj)
            assert m2.length == m.length
            assert same_conjugacy_class(m, m2)


def test_reduce_budget():
    a2 = build_root_datum("A2")
    with pytest.raises(BudgetError):
        reduce_to_minimal(parse_element(a2, "w[0 1 2 0 1 2 0 1]"), budget=3)


def test_invariant_under_random_conjugation():
    rng = random.Random(13)
    for label in ("A1", "A2", "C2"):
        datum = build_root_datum(label)
        flip = (
            DiagramAut.from_one_based(datum, [2, 1])
            if label == "A2"
            else DiagramAut.identity(datum)
        )
        for delta in {DiagramAut.identity(datum), flip}:
            for _ in range(60):
                x = random_element(datum, rng, 8)
                z = random_element(datum, rng, 6)
                conj = z * x * delta(z).inverse()
                assert invariant_f(conj, delta) == invariant_f(x, delta)


# --- class identity ----------------------------------------------------------


def test_same_class_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    x = parse_element(a1, "t[-2]*s1")
    assert same_conjugacy_class(x, x)
    assert same_conjugacy_class(refl[1], refl[0])
    assert not same_conjugacy_class(
        translation(a1, (2,)), translation(a1, (4,))
    )


def test_same_class_consistency():
    rng = random.Random(14)
    a2 = build_root_datum("A2")
    for _ in range(25):
        x = random_element(a2, rng, 6)
        z = random_element(a2, rng, 6)
        assert same_conjugacy_class(x, z * x * z.inverse())
        y = random_element(a2, rng, 6)
        assert same_conjugacy_class(x, y) == same_conjugacy_class(y, x)


# --- straight classes ---------------------------------------------------------


def test_straight_classes_a1():
    a1 = build_root_datum("A1")
    at0 = enumerate_straight_classes(a1, None, 0)
    assert [(element_literal(r), d.kappa) for r, d in at0] == [
        ("t[0]", (0,)),
        ("t[1]*s1", (1,)),
    ]
    assert [d.newton for _, d in at0] == [(Fraction(0),), (Fraction(0),)]
    at2 = enumerate_straight_classes(a1, None, 2)
    lits = [element_literal(r) for r, _ in at2]
    assert "t[-2]" in lits  # the class of t^{alpha^vee} appears by length 2
    assert len(at2) == 4


def test_straight_classes_a2_basic():
    a2 = build_root_datum("A2")
    at0 = enumerate_straight_classes(a2, None, 0)
    assert len(at0) == 3
    assert all(r.length == 0 for r, _ in at0)
    kappas = sorted(d.kappa for _, d in at0)
    assert len(set(kappas)) == 3


@pytest.mark.parametrize("label", ["A1", "A2", "C2"])
def test_straight_class_descriptors_injective(label):
    datum = build_root_datum(label)
    found = enumerate_straight_classes(datum, None, 8)  # raises on collision
    descs = [d for _, d in found]
    assert len({(d.newton, d.kappa) for d in descs}) == len(descs)


def test_straight_class_minimal_elements_connected():
    # minimal members of a straight class all have the Newton length and are
    # mutually reachable by length-preserving moves including Omega twists
    rng = random.Random(15)
    for label, mu in (("A1", (2,)), ("A2", (1, 1))):
        datum = build_root_datum(label)
        start = translation(datum, mu)
        datum_rho2 = datum.rho2
        members = minimal_class_elements(start)
        expected = sum(a * b for a, b in zip(datum_rho2, newton_point(start)))
        for m in members:
            assert m.length == expected
        # reachability: closure of one member under same-length moves
        refl = simple_reflections(datum)
        delta = DiagramAut.identity(datum)
        closure = {members[0]}
        queue = [members[0]]
        while queue:
            y = queue.pop()
            for lab, s in refl.items():
                z = s * y * refl[lab]
                if z.length == y.length and z not in closure:
                    closure.add(z)
                    queue.append(z)
            for tau in omega_group(datum):
                z = tau * y * tau.inverse()
                if z not in closure:
                    closure.add(z)
                    queue.append(z)
        for _ in range(30):
            z = random_element(datum, rng, 5)
            m, _ = reduce_to_minimal(z * start * z.inverse())
            assert m in closure
        assert set(members) <= closure


# --- decomposition of minimal elements ----------------------------------------


def test_min2_fixtures():
    a1 = build_root_datum("A1")
    s1 = simple_reflections(a1)[1]
    out = min2_decompose(s1)
    assert out.J == (1,)
    assert out.straight == identity(a1)
    assert out.finite_factor == s1
    t = translation(a1, (2,))
    out = min2_decompose(t)
    assert out.straight == t and out.finite_factor == identity(a1)
    a2 = build_root_datum("A2")
    s1 = simple_reflections(a2)[1]
    out = min2_decompose(s1)
    assert out.J == (1,) and out.finite_factor == s1
    assert out.straight == identity(a2)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_min2_exists_for_minimal_elements(label):
    datum = build_root_datum(label)
    for n in range(7):
        for x in elements_of_length(datum, n):
            if not is_minimal_in_class(x):
                continue
            out = min2_decompose(x)
            assert is_straight(out.straight)
            assert out.finite_factor.length + out.straight.length == x.length
            assert invariant_f(out.straight) == invariant_f(x)
            prod = out.finite_factor * out.straight
            assert same_conjugacy_class(prod, x)


# --- superstraight -------------------------------------------------------------


def test_superstraight_fixtures():
    a1 = build_root_datum("A1")
    assert is_superstraight_class(translation(a1, (2,)))  # regular
    assert is_superstraight_class(omega_group(a1)[1])  # superbasic
    a2 = build_root_datum("A2")
    assert not is_superstraight_class(identity(a2))
    assert is_superstraight_class(translation(a2, (1, 1)))


# --- alcove criterion -----------------------------------------------------------


def test_alcove_fixtures():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    assert is_jw_alcove(translation(a2, (2, 1)), [1, 2], a2.identity_weyl)
    assert not is_jw_alcove(omega_group(a1)[1], [], a1.identity_weyl)
    assert is_jw_alcove(translation(a1, (2,)), [], a1.identity_weyl)
    with pytest.raises(ValueError):
        flip = DiagramAut.from_one_based(a2, [2, 1])
        is_jw_alcove(identity(a2), [1], a2.identity_weyl, flip)  # J not stable


# --- partial conjugation ----------------------------------------------------------


def test_partial_reduce_fixtures():
    a1 = build_root_datum("A1")
    s0 = parse_element(a1, "w[0]")
    out = partial_reduce(s0)
    assert out.terminal == s0 and out.finite_factor == identity(a1)
    x = parse_element(a1, "t[-2]*s1")  # = s1 t^{alpha^vee}
    out = partial_reduce(x)
    assert out.core == parse_element(a1, "t[2]*s1")
    assert out.core.length == 1 and out.finite_factor == identity(a1)


def test_partial_reduce_properties():
    rng = random.Random(16)
    a2 = build_root_datum("A2")
    delta = DiagramAut.identity(a2)
    for _ in range(25):
        x = random_element(a2, rng, 9)
        out = partial_reduce(x)
        assert out.trace.replay(x, delta)
        for step in out.trace.steps:
            assert not step.move.startswith("tau")
            assert 1 <= int(step.move) <= a2.rank
        assert out.finite_factor * out.core == out.terminal
        assert out.finite_factor.length + out.core.length == out.terminal.length
        # the core is minimal for left cosets of the finite group
        refl = simple_reflections(a2)
        for i in (1, 2):
            assert (refl[i] * out.core).length > out.core.length
        from adlv.roots import in_parabolic

        assert in_parabolic(out.finite_factor.w, out.stable_set)


def test_partial_reduce_maximal_coset_element():
    # the longest member of its coset: conjugation by finite reflections only
    # already reaches the translation-like core of its orbit
    a2 = build_root_datum("A2")
    w0t = from_weyl(a2.w0()) * translation(a2, (1, 1))
    out = partial_reduce(w0t)
    assert out.core.length == out.terminal.length - out.finite_factor.length
    assert out.trace.replay(w0t, DiagramAut.identity(a2))
    # the core here is the minimal coset member t^{rho^vee} w0 of length 1
    assert out.core == parse_element(a2, "t[1,1]*s1*s2*s1")
    assert out.core.length == 1


def _fresh_invariant(x, delta):
    """invariant_f's formula, recomputed without any stored level index."""
    newton, _ = dominant_rep(x.datum, raw_newton_point(x, delta))
    return SigmaClassDescriptor(newton=newton, kappa=kottwitz_class(x, delta))


@pytest.mark.parametrize(
    "label,images",
    [("A2", None), ("A2", [2, 1]), ("C2", None), ("G2", None), ("D4", None)],
)
def test_class_members_and_keys_match_full_level_scan(label, images):
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    scanned = {}  # minimal element -> its class's minimal members, level order
    for n in range(6):
        level = elements_of_length(datum, n)
        invariant = {z: _fresh_invariant(z, delta) for z in level}
        for x in level:
            if x in scanned or not is_minimal_in_class(x, delta):
                continue
            members = tuple(
                z
                for z in level
                if invariant[z] == invariant[x] and same_conjugacy_class(z, x, delta)
            )
            for m in members:
                scanned[m] = members
        for x in level:
            if x in scanned:
                assert minimal_class_elements(x, delta) == scanned[x], x
                expected = min(element_literal(m) for m in scanned[x])
                assert class_key(x, delta) == expected, x


def _twist_matrix(perm, mat):
    """delta w delta^{-1} on plain matrices: entry (i, j) moves to (perm i, perm j)."""
    r = len(perm)
    out = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            out[perm[i]][perm[j]] = mat[i][j]
    return tuple(map(tuple, out))


@pytest.mark.parametrize(
    "label,images",
    [("A3", None), ("A3", [3, 2, 1]), ("B3", None), ("G2", None),
     ("D4", [3, 2, 4, 1]), ("A1xA1", [2, 1])],
)
def test_twisted_conjugators_match_full_scan(label, images):
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    group = weyl_group(datum)
    # u -> (u, delta(u)^{-1}) on plain matrices, nothing read from the class map
    mats = [(u, u.mat, mat_inverse(_twist_matrix(delta.perm, u.mat))) for u in group]
    rng = random.Random(f"{label}:{images}")
    for wx in group:
        image = {}  # u wx delta(u)^{-1} -> the set of such u, as matrices
        for u, umat, dinv in mats:
            image.setdefault(mat_mul(mat_mul(umat, wx.mat), dinv), set()).add(umat)
        in_class = [w for w in group if w.mat in image]
        for wy in rng.sample(group, 3) + rng.sample(in_class, min(2, len(in_class))):
            found = [u.mat for u in _twisted_weyl_conjugators(datum, wx, wy, delta)]
            assert len(found) == len(set(found))
            assert set(found) == image.get(wy.mat, set()), (wx, wy)
    # every element now has a class root; the classes partition W
    cmap = delta.class_map
    classes = {}
    for w in group:
        classes.setdefault(cmap.root[w], []).append(w)
    assert sum(len(c) for c in classes.values()) == len(group)
    for r, members in classes.items():
        assert cmap.root[r] is r
        assert len(members) * len(cmap.centraliser[r]) == len(group)
