"""Extended affine Weyl group: group law, length, normal forms, literals."""

import random
from fractions import Fraction

import pytest

from adlv.errors import ConfigError
from adlv.roots import build_root_datum
from adlv.elements import (
    DiagramAut,
    ExtAffElt,
    bruhat_leq,
    demazure_product,
    double_coset_form,
    element_literal,
    elements_of_length,
    eta_delta,
    from_weyl,
    identity,
    is_lowest_cell,
    omega_group,
    parse_element,
    reduced_word,
    simple_reflections,
    supp_delta,
    tau_power,
    translation,
)


def random_element(datum, rng, max_word=20):
    refl = simple_reflections(datum)
    labels = list(refl)
    x = rng.choice(omega_group(datum))
    for _ in range(rng.randrange(max_word + 1)):
        x = refl[rng.choice(labels)] * x
    return x


# --- group law -------------------------------------------------------------


def test_group_law_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    assert refl[0] * refl[1] == translation(a1, (2,))  # s0 s1 = t^{alpha^vee}
    assert translation(a1, (3,)) * translation(a1, (-1,)) == translation(a1, (2,))
    x = parse_element(a1, "t[-2]*s1")
    assert x * identity(a1) == x
    assert x * x.inverse() == identity(a1)


def test_group_law_random():
    rng = random.Random(2)
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        for _ in range(40):
            x, y, z = (random_element(datum, rng, 8) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * x.inverse() == identity(datum)


def test_datum_mismatch_rejected():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError):
        identity(a1) * identity(a2)


# --- length ----------------------------------------------------------------


def hyperplane_length(x):
    """Independent oracle: affine hyperplanes separating x(alcove) from it."""
    datum = x.datum
    point = [Fraction(0)] * datum.rank
    for _, rank, start in datum.components:
        theta = max(
            (a for a in datum.positive_roots
             if all(start <= j < start + rank or a[j] == 0
                    for j in range(datum.rank))),
            key=sum,
        )
        for j in range(start, start + rank):
            point[j] = Fraction(1, sum(theta) + 1)
    image = [
        Fraction(c) + m
        for c, m in zip(x.w.coweight_action(tuple(point)), x.mu)
    ]
    crossings = 0
    for a in datum.positive_roots:
        lo = sum(Fraction(c) * p for c, p in zip(a, point))
        hi = sum(Fraction(c) * p for c, p in zip(a, image))
        if lo > hi:
            lo, hi = hi, lo
        assert lo.denominator != 1 and hi.denominator != 1
        crossings += (hi.numerator // hi.denominator) - (lo.numerator // lo.denominator)
    return crossings


def test_length_fixtures():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    assert translation(a2, (1, 1)).length == 4  # t^{theta^vee}
    assert parse_element(a1, "t[-2]*s1").length == 3
    for label in ("A1", "A2", "C2", "G2"):
        for tau in omega_group(build_root_datum(label)):
            assert tau.length == 0


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "B3", "C2", "C3", "G2", "D5", "E6", "A2xA2"]
)
def test_length_matches_hyperplane_count(label):
    datum = build_root_datum(label)
    rng = random.Random(label)
    for _ in range(200):
        x = random_element(datum, rng)
        assert x.length == hyperplane_length(x)


def test_length_parity_and_symmetries():
    rng = random.Random(3)
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    for _ in range(50):
        x = random_element(a2, rng, 10)
        y = random_element(a2, rng, 10)
        assert (x * y).length % 2 == (x.length + y.length) % 2
        assert flip(x).length == x.length
        for tau in omega_group(a2):
            assert (tau * x * flip(tau).inverse()).length == x.length


def assert_carried_length(x):
    """x's length came with it, and equals the full sum and the hyperplane count."""
    assert x._length is not None, x
    fresh = ExtAffElt(x.datum, x.mu, x.w)
    assert x._length == fresh.length == hyperplane_length(x), x


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "B3", "C2", "G2", "D4", "E6", "A2xA1"]
)
def test_products_carry_the_length(label):
    # right and left products with simple reflections, inverses and Omega
    # conjugates, each starting from an element whose length is known
    datum = build_root_datum(label)
    rng = random.Random(f"carry:{label}")
    refl = simple_reflections(datum)
    labels = list(refl)
    omega = omega_group(datum)
    for _ in range(20):
        x = rng.choice(omega)
        for _ in range(rng.randrange(1, 16)):
            x = x * refl[rng.choice(labels)]
            assert_carried_length(x)
        s = refl[rng.choice(labels)]
        for y in (x.inverse(), s * x, x * s, s * x * s, s * x.inverse() * s):
            assert_carried_length(y)
        for tau in omega:
            assert_carried_length(tau * x * tau.inverse())
            assert_carried_length(x * tau)


@pytest.mark.parametrize(
    "label,images",
    [("A2", (2, 1)), ("A1xA1", (2, 1)), ("D4", (3, 2, 4, 1))],
    ids=["A2-flip", "A1xA1-swap", "D4-triality"],
)
def test_twisted_moves_carry_the_length(label, images):
    datum = build_root_datum(label)
    delta = DiagramAut.from_one_based(datum, images)
    rng = random.Random(f"carry:{label}:{images}")
    refl = simple_reflections(datum)
    labels = list(refl)
    omega = omega_group(datum)
    for _ in range(30):
        x = rng.choice(omega)
        for _ in range(rng.randrange(1, 16)):
            lab = rng.choice(labels)
            x = x * refl[lab] if rng.randrange(2) else refl[lab] * x
        assert_carried_length(delta(x))
        for lab in labels:
            assert_carried_length(refl[lab] * x * refl[delta.on_label(lab)])
        for tau in omega:
            assert_carried_length(tau * x * delta(tau).inverse())


# --- Omega -----------------------------------------------------------------


def test_omega_fixtures():
    a1 = build_root_datum("A1")
    assert [element_literal(t) for t in omega_group(a1)] == ["t[0]", "t[1]*s1"]
    a2 = build_root_datum("A2")
    omega = omega_group(a2)
    assert len(omega) == 3
    gen = omega[1]
    assert gen * gen == omega[2] and gen * gen * gen == identity(a2)


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "G2", "A3", "A1xA1"])
def test_omega_is_a_group(label):
    datum = build_root_datum(label)
    omega = set(omega_group(datum))
    assert identity(datum) in omega
    assert len(omega) == datum.fundamental_group.group_order()
    for a in omega:
        assert a.length == 0
        assert a.inverse() in omega
        for b in omega:
            assert a * b in omega


@pytest.mark.parametrize("label", ["A1", "A2", "C2", "A2xA2"])
def test_simple_reflections_are_involutions(label):
    datum = build_root_datum(label)
    for lab, s in simple_reflections(datum).items():
        assert s.length == 1
        assert (s * s).is_identity, lab


def test_affine_reflection_wrapper():
    from adlv.elements import AffineReflection
    from adlv.hecke import hecke_mul_basis, XiPoly

    a1 = build_root_datum("A1")
    s0 = AffineReflection(0, simple_reflections(a1)[0])
    assert repr(s0) == "s0"
    assert hecke_mul_basis(identity(a1), s0) == {s0.elt: XiPoly.ONE}


# --- reduced words ---------------------------------------------------------


def test_reduced_word_fixtures():
    a1 = build_root_datum("A1")
    tau = omega_group(a1)[1]
    assert reduced_word(tau) == ((), tau)
    s0 = simple_reflections(a1)[0]
    assert reduced_word(s0) == ((0,), identity(a1))
    word, rest = reduced_word(translation(a1, (2,)))
    assert word == (0, 1) and rest == identity(a1)


def test_reduced_word_reconstructs():
    rng = random.Random(4)
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        refl = simple_reflections(datum)
        for _ in range(30):
            x = random_element(datum, rng, 12)
            word, tau = reduced_word(x)
            assert len(word) == x.length
            rebuilt = identity(datum)
            for lab in word:
                rebuilt = rebuilt * refl[lab]
            assert rebuilt * tau == x


# --- double coset normal form ----------------------------------------------


def test_double_coset_fixtures():
    a1 = build_root_datum("A1")
    s = a1.simple_weyl(1)
    x_w, mu, y = double_coset_form(translation(a1, (2,)))
    assert (x_w.is_identity, mu, y.is_identity) == (True, (2,), True)
    # t^{-alpha^vee} s = s * t^{alpha^vee} * e
    x_w, mu, y = double_coset_form(parse_element(a1, "t[-2]*s1"))
    assert (x_w, mu, y.is_identity) == (s, (2,), True)
    x_w, mu, y = double_coset_form(parse_element(a1, "t[4]*s1"))
    assert (x_w.is_identity, mu, y) == (True, (4,), s)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_double_coset_roundtrip_exhaustive(label):
    datum = build_root_datum(label)
    for n in range(13):
        for x in elements_of_length(datum, n):
            x_w, mu, y = double_coset_form(x)  # raises on round-trip failure
            assert all(c >= 0 for c in mu)
            stab = [i + 1 for i in range(datum.rank) if mu[i] == 0]
            assert not any(y.has_left_descent(i) for i in stab)


def test_eta_fixtures():
    a1 = build_root_datum("A1")
    s = a1.simple_weyl(1)
    assert eta_delta(translation(a1, (4,))).is_identity
    assert eta_delta(parse_element(a1, "t[4]*s1")) == s
    assert eta_delta(parse_element(a1, "t[-2]*s1")) == s


# --- support ---------------------------------------------------------------


def test_supp_fixtures():
    a1 = build_root_datum("A1")
    a2 = build_root_datum("A2")
    assert supp_delta(identity(a2)) == frozenset()
    flip = DiagramAut.from_one_based(a2, [2, 1])
    assert supp_delta(simple_reflections(a2)[1], flip) == frozenset({1, 2})
    assert supp_delta(parse_element(a1, "t[4]*s1")) == frozenset({0, 1})


# --- Demazure product -------------------------------------------------------


def test_demazure_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    x = parse_element(a1, "t[4]*s1")
    assert demazure_product(x, identity(a1)) == x
    assert demazure_product(refl[1], refl[1]) == refl[1]
    assert demazure_product(refl[0], refl[1]) == translation(a1, (2,))


def test_demazure_properties():
    rng = random.Random(5)
    a2 = build_root_datum("A2")
    for _ in range(40):
        x, y, z = (random_element(a2, rng, 6) for _ in range(3))
        assert demazure_product(demazure_product(x, y), z) == demazure_product(
            x, demazure_product(y, z)
        )
        assert demazure_product(x, y).length <= x.length + y.length
    # support union law, stated for elements of the affine Weyl group itself
    for _ in range(40):
        x, y = (random_element(a2, rng, 6) for _ in range(2))
        if reduced_word(x)[1].is_identity and reduced_word(y)[1].is_identity:
            assert supp_delta(demazure_product(x, y)) == supp_delta(x) | supp_delta(y)


# --- Bruhat order ----------------------------------------------------------


def subword_oracle(x, y):
    """Independent oracle: x is below y iff some subword of y's word gives x."""
    datum = x.datum
    refl = simple_reflections(datum)
    word, tau_y = reduced_word(y)
    _, tau_x = reduced_word(x)
    if tau_x != tau_y:
        return False
    target = x * tau_x.inverse()
    found = {identity(datum)}
    for lab in word:
        found |= {z * refl[lab] for z in found}
    return target in found


def test_bruhat_fixtures():
    a1 = build_root_datum("A1")
    x = parse_element(a1, "w[0 1 0]")
    s0 = simple_reflections(a1)[0]
    s1 = simple_reflections(a1)[1]
    tau = omega_group(a1)[1]
    assert bruhat_leq(x, x)
    assert bruhat_leq(s0, x)
    assert not bruhat_leq(tau * s1, s1)  # different Omega cosets


def test_bruhat_against_subword_oracle():
    rng = random.Random(6)
    for label in ("A1", "A2"):
        datum = build_root_datum(label)
        for _ in range(60):
            x = random_element(datum, rng, 5)
            y = random_element(datum, rng, 7)
            assert bruhat_leq(x, y) == subword_oracle(x, y)


# --- lowest two-sided cell ---------------------------------------------------


def test_lowest_cell_fixtures():
    a2 = build_root_datum("A2")
    assert is_lowest_cell(translation(a2, (1, 1)))
    assert not is_lowest_cell(identity(a2))
    assert not is_lowest_cell(translation(a2, (1, 0)))
    a1 = build_root_datum("A1")
    # every positive-length element of the rank-1 group factors through w0
    assert is_lowest_cell(parse_element(a1, "w[0]"))
    assert is_lowest_cell(parse_element(a1, "t[4]*s1"))
    assert not is_lowest_cell(omega_group(a1)[1])


def _lowest_cell_by_quotients(x):
    """Reference: walk the additive right quotients of x.

    x lies in the lowest two-sided cell exactly when it factors as
    u * w0 * v with adding lengths, that is, when peeling letters and
    length-0 factors off the right, never below the length of w0, reaches
    an element whose right descents cover every finite label.
    """
    datum = x.datum
    w0_len = datum.w0().length
    if x.length < w0_len:
        return False
    refl = simple_reflections(datum)
    finite = set(range(1, datum.rank + 1))
    omegas = [t for t in omega_group(datum) if not t.is_identity]
    seen = {x}
    queue = [x]
    for z in queue:
        descents = {lab: zs for lab, s in refl.items()
                    if (zs := z * s).length < z.length}
        if finite <= descents.keys():
            return True
        follow = [zs for zs in descents.values() if zs.length >= w0_len]
        for y in follow + [z * tau for tau in omegas]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return False


@pytest.mark.parametrize(
    "label,max_length",
    [("A1", 8), ("A2", 9), ("C2", 10), ("G2", 14), ("A3", 8), ("B3", 10),
     ("C3", 10), ("A1xA1", 6), ("A2xA1", 5)],
)
def test_lowest_cell_matches_quotient_walk(label, max_length):
    datum = build_root_datum(label)
    found = set()
    for n in range(max_length + 1):
        for x in elements_of_length(datum, n):
            inside = is_lowest_cell(x)
            assert inside == _lowest_cell_by_quotients(x), x
            found.add(inside)
    assert found == {False, True}


def test_lowest_cell_additive_factorization():
    # membership certifies u * w0 * v with adding lengths; spot-check closure
    a2 = build_root_datum("A2")
    w0 = from_weyl(a2.w0())
    rng = random.Random(7)
    for _ in range(25):
        u = random_element(a2, rng, 4)
        v = random_element(a2, rng, 4)
        x = u * w0 * v
        if x.length == u.length + w0.length + v.length:
            assert is_lowest_cell(x)


# --- literals and parsing ----------------------------------------------------


def test_literal_roundtrip():
    rng = random.Random(8)
    for label in ("A1", "A2", "C2", "A1xA1"):
        datum = build_root_datum(label)
        for _ in range(40):
            x = random_element(datum, rng, 10)
            assert parse_element(datum, element_literal(x)) == x


def test_parse_forms():
    a1 = build_root_datum("A1")
    assert parse_element(a1, "w[0 1 0]") == parse_element(a1, "t[4]*s1")
    assert parse_element(a1, " w[ 0 , 1 , 0 ] ") == parse_element(a1, "t[4]*s1")
    assert parse_element(a1, "t[ -2 ] * s1") == parse_element(a1, "t[-2]*s1")
    assert parse_element(a1, "w[] @ tau^1") == omega_group(a1)[1]
    assert parse_element(a1, "tau^1") == tau_power(a1, 1)
    assert parse_element(a1, "w[1 0]@tau^1").length == 2
    assert parse_element(a1, "s1*s1") == identity(a1)


def test_parse_strict_reduced():
    a1 = build_root_datum("A1")
    assert parse_element(a1, "w[1 1 1]") == simple_reflections(a1)[1]
    with pytest.raises(ConfigError):
        parse_element(a1, "w[1 1 1]", strict_reduced=True)
    # a genuinely reduced word passes the strict check
    assert parse_element(a1, "w[0 1 0]", strict_reduced=True).length == 3


@pytest.mark.parametrize("bad", ["t[1,2]", "s9", "w[5]", "t[1]*t[1]", "s1*t[1]", ""])
def test_parse_errors(bad):
    a1 = build_root_datum("A1")
    with pytest.raises(ConfigError):
        parse_element(a1, bad)


# --- diagram automorphisms ----------------------------------------------------


def test_diagram_aut_validation():
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    assert flip.order == 2 and not flip.is_identity
    c2 = build_root_datum("C2")
    with pytest.raises(ConfigError):
        DiagramAut.from_one_based(c2, [2, 1])  # does not preserve the Cartan matrix
    with pytest.raises(ConfigError):
        DiagramAut.from_one_based(a2, [1, 1])


def test_diagram_aut_action():
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    assert flip.on_coweight((1, 0)) == (0, 1)
    assert {l: flip.on_label(l) for l in (0, 1, 2)} == {0: 0, 1: 2, 2: 1}
    s1 = a2.simple_weyl(1)
    assert flip.on_weyl(s1) == a2.simple_weyl(2)
    p = build_root_datum("A1xA1")
    swap = DiagramAut.from_one_based(p, [2, 1])
    assert swap.on_label(0) == -1 and swap.on_label(-1) == 0
    assert swap(translation(p, (1, 0))) == translation(p, (0, 1))
