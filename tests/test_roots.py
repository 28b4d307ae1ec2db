"""Root datum tables and finite Weyl group arithmetic."""

import itertools
import random

import pytest

from adlv.elements import DiagramAut
from adlv.errors import ConfigError
from adlv.lattices import identity_matrix, mat_inverse, mat_mul, vec_mat
from adlv.roots import (
    build_root_datum,
    dominant_rep,
    in_parabolic,
    min_coset_reps,
    weyl_act,
    weyl_group,
    zero_pairing_set,
)

# (label, #positive roots, |P/Q|)
TYPE_TABLE = [
    ("A1", 1, 2),
    ("A2", 3, 3),
    ("A3", 6, 4),
    ("B2", 4, 2),
    ("B3", 9, 2),
    ("C2", 4, 2),
    ("C3", 9, 2),
    ("D4", 12, 4),
    ("G2", 6, 1),
    ("F4", 24, 1),
    ("E6", 36, 3),
    ("A2xA2", 6, 9),
    ("A1xC2", 5, 4),
]


@pytest.mark.parametrize("label,npos,fg", TYPE_TABLE)
def test_type_tables(label, npos, fg):
    datum = build_root_datum(label)
    assert len(datum.positive_roots) == npos
    assert datum.fundamental_group.group_order() == fg
    for i in range(datum.rank):
        assert datum.cartan[i][i] == 2
        # adjoint convention: fundamental coweights pair to delta_ij
        omega = tuple(1 if k == i else 0 for k in range(datum.rank))
        for j in range(datum.rank):
            assert datum.pairing(omega, datum.simple_root(j + 1)) == (i == j)
    # positive roots are nonnegative integer combinations of simple roots
    for a in datum.positive_roots:
        assert all(c >= 0 for c in a) and sum(a) >= 1
    # 2 rho pairs to 2 with every simple coroot
    for i in range(datum.rank):
        assert datum.pairing_2rho(datum.simple_coroots[i]) == 2
    assert datum.rho2 == tuple(
        sum(a[i] for a in datum.positive_roots) for i in range(datum.rank)
    )


@pytest.mark.parametrize("bad", ["Z9", "A0", "D2", "E5", "H3", "", "A2x"])
def test_unknown_labels_rejected(bad):
    with pytest.raises(ConfigError):
        build_root_datum(bad)


def test_labels_case_insensitive():
    assert build_root_datum("a2xc2") is build_root_datum("A2xC2")


# Poincare polynomial oracle: |{w : l(w) = k}| equals the coefficient of q^k
# in prod_i (1 + q + ... + q^{d_i - 1}) for the degrees of the type.
DEGREES = {"A1": (2,), "A2": (2, 3), "C2": (2, 4), "G2": (2, 6), "A3": (2, 3, 4)}


@pytest.mark.parametrize("label,degrees", sorted(DEGREES.items()))
def test_length_generating_function(label, degrees):
    datum = build_root_datum(label)
    poly = [1]
    for d in degrees:
        nxt = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                nxt[i + j] += c
        poly = nxt
    counts = {}
    for w in weyl_group(datum):
        counts[w.length] = counts.get(w.length, 0) + 1
    assert counts == {k: c for k, c in enumerate(poly) if c}


def test_weyl_act_fixtures():
    a1 = build_root_datum("A1")
    assert weyl_act(a1.identity_weyl, (5,)) == (5,)
    assert weyl_act(a1.simple_weyl(1), (2,)) == (-2,)  # alpha^vee -> -alpha^vee
    a2 = build_root_datum("A2")
    assert weyl_act(a2.w0(), (1, 0)) == (0, -1)  # w0(omega1) = -omega2


def test_weyl_act_inverse_property():
    rng = random.Random(0)
    for label in ("A2", "C2", "G2"):
        datum = build_root_datum(label)
        group = weyl_group(datum)
        for _ in range(50):
            w = rng.choice(group)
            v = tuple(rng.randrange(-4, 5) for _ in range(datum.rank))
            assert weyl_act(w.inverse(), weyl_act(w, v)) == v


def _orbit_scan(datum, v):
    """Independent oracle: scan the whole W-orbit for the dominant member."""
    best = None
    for w in weyl_group(datum):
        u = w.coweight_action(v)
        if all(c >= 0 for c in u):
            if best is None:
                best = u
            else:
                assert best == u  # the dominant member is unique
    return best


def test_dominant_rep_fixtures():
    a1 = build_root_datum("A1")
    vbar, w = dominant_rep(a1, (-2,))
    assert vbar == (2,) and w is a1.simple_weyl(1)
    vbar, w = dominant_rep(a1, (3,))
    assert vbar == (3,) and w.is_identity
    a2 = build_root_datum("A2")
    vbar, w = dominant_rep(a2, (-1, 2))
    assert vbar == (1, 1) and w.reduced_word == (1,)


def test_dominant_rep_against_orbit_scan():
    rng = random.Random(1)
    for label in ("A2", "C2"):
        datum = build_root_datum(label)
        group = weyl_group(datum)
        for _ in range(60):
            v = tuple(rng.randrange(-4, 5) for _ in range(datum.rank))
            vbar, w = dominant_rep(datum, v)
            assert vbar == _orbit_scan(datum, v)
            assert w.coweight_action(v) == vbar
            minimal = min(
                u.length for u in group if u.coweight_action(v) == vbar
            )
            assert w.length == minimal
            # orbit invariance
            u = rng.choice(group)
            assert dominant_rep(datum, u.coweight_action(v))[0] == vbar


def test_zero_pairing_set():
    a2 = build_root_datum("A2")
    assert zero_pairing_set(a2, (0, 0)) == (1, 2)
    assert zero_pairing_set(a2, (1, 1)) == ()
    assert zero_pairing_set(a2, (1, 0)) == (2,)
    with pytest.raises(ValueError):
        zero_pairing_set(a2, (-1, 0))


def test_min_coset_reps():
    a2 = build_root_datum("A2")
    # right cosets of W_{1}: representatives of lengths 0, 1, 2
    reps = list(min_coset_reps(a2, [1], side="right"))
    assert sorted(w.length for w in reps) == [0, 1, 2]
    # oracle: each is the shortest inside its coset w W_J
    wj = [a2.identity_weyl, a2.simple_weyl(1)]
    seen = set()
    for w in reps:
        coset = frozenset(w * u for u in wj)
        assert coset not in seen
        seen.add(coset)
        assert w.length == min(u.length for u in coset)
    assert len(seen) == 3

    left = list(min_coset_reps(a2, [1], side="left"))
    for w in left:
        coset = frozenset(u * w for u in wj)
        assert w.length == min(u.length for u in coset)

    assert [w.length for w in min_coset_reps(a2, [1, 2])] == [0]  # J = S
    assert len(list(min_coset_reps(a2, []))) == 6  # J = empty: all of W

    with pytest.raises(ValueError):
        list(min_coset_reps(a2, [0]))


def test_longest_element():
    for label, length in (("A1", 1), ("A2", 3), ("C2", 4), ("G2", 6)):
        datum = build_root_datum(label)
        w0 = datum.w0()
        assert w0.length == length == len(datum.positive_roots)
        assert (w0 * w0).is_identity
        assert w0.coweight_action((1,) * datum.rank) == (-1,) * datum.rank


def _random_weyl(datum, rng, n=12):
    w = datum.identity_weyl
    for _ in range(n):
        w = w * datum.simple_weyl(rng.randrange(1, datum.rank + 1))
    return w


def test_memoised_product_is_interned_matrix_product():
    b3 = build_root_datum("B3")
    group = weyl_group(b3)
    e6 = build_root_datum("E6")
    rng = random.Random(6)
    pairs = [(u, v) for u in group for v in group]
    pairs += [(_random_weyl(e6, rng), _random_weyl(e6, rng)) for _ in range(200)]
    for u, v in pairs:
        expected = u.datum.weyl_from_matrix(mat_mul(u.mat, v.mat))
        assert u * v is expected
        assert u * v is expected  # second call is served by the memo


def _reference_weyl_group(datum):
    """The matrix-product BFS on plain matrices: (matrices, s_i matrices, words).

    W is grown by right multiplication w * s_i, lengths are counted over the
    positive roots, and each level is sorted by greedy reduced word; nothing
    here reads the interned elements or their caches.
    """
    r = datum.rank
    cartan = datum.cartan
    gens = [
        tuple(
            tuple((1 if k == j else 0) - (cartan[i][k] if j == i else 0) for j in range(r))
            for k in range(r)
        )
        for i in range(r)
    ]
    ident = identity_matrix(r)

    def length(mat):
        return sum(any(c < 0 for c in vec_mat(a, mat)) for a in datum.positive_roots)

    words = {ident: ()}

    def greedy_word(mat):  # smallest left descent first
        if mat not in words:
            i = next(i for i in range(r) if any(c < 0 for c in mat[i]))
            words[mat] = (i + 1,) + greedy_word(mat_mul(gens[i], mat))
        return words[mat]

    levels = [[ident]]
    seen = {ident}
    while levels[-1]:
        nxt = []
        for w in levels[-1]:
            for s in gens:
                u = mat_mul(w, s)
                if u not in seen and length(u) == len(levels):
                    seen.add(u)
                    nxt.append(u)
        nxt.sort(key=greedy_word)
        levels.append(nxt)
    mats = [w for level in levels for w in level]
    return mats, gens, [greedy_word(w) for w in mats]


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "D5", "G2", "F4", "A2xA1"])
def test_weyl_group_matches_matrix_product_reference(label):
    datum = build_root_datum(label)
    group = weyl_group(datum)
    mats, gens, words = _reference_weyl_group(datum)
    assert [w.mat for w in group] == mats
    assert all(datum.weyl_from_matrix(w.mat) is w for w in group)
    assert [w.reduced_word for w in group] == words
    for w in group:
        assert w.inverse().mat == mat_inverse(w.mat)
        assert w.inverse().inverse() is w
        for i, s in enumerate(gens, start=1):
            assert (datum.simple_weyl(i) * w).mat == mat_mul(s, w.mat)



def _simple_matrices(datum):
    """The matrices of s_1, ..., s_r on coweights, from the Cartan matrix."""
    r = datum.rank
    return [
        tuple(
            tuple((1 if k == j else 0) - (datum.cartan[i][k] if j == i else 0)
                  for j in range(r))
            for k in range(r)
        )
        for i in range(r)
    ]


def _diagram_perms(datum):
    """Every permutation of the simple labels that preserves the Cartan matrix."""
    r = datum.rank
    return [
        perm
        for perm in itertools.permutations(range(r))
        if all(datum.cartan[perm[i]][perm[j]] == datum.cartan[i][j]
               for i in range(r) for j in range(r))
    ]


def _matrix_neg_flags(datum, mat):
    return tuple(
        1 if any(c < 0 for c in vec_mat(a, mat)) else 0 for a in datum.positive_roots
    )


def _check_element(datum, w, gens, labels, by_elimination=True):
    """Inverse, neg_flags, length and left descents of w from its matrix alone."""
    assert mat_mul(w.inverse().mat, w.mat) == identity_matrix(datum.rank)
    if by_elimination:
        assert w.inverse().mat == mat_inverse(w.mat)
    flags = _matrix_neg_flags(datum, w.mat)
    assert w.neg_flags == flags
    assert w.length == sum(flags)
    for i in labels:
        shorter = sum(_matrix_neg_flags(datum, mat_mul(gens[i - 1], w.mat))) < sum(flags)
        assert w.has_left_descent(i) == shorter


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "C3", "D4", "D5", "G2", "F4", "A2xA1"])
def test_root_permutation_kernel_matches_matrices(label):
    datum = build_root_datum(label)
    group = weyl_group(datum)
    gens = _simple_matrices(datum)
    labels = range(1, datum.rank + 1)
    rng = random.Random(label)
    small = len(group) <= 200
    for w in group:  # D5 and F4: one seeded label, no Fraction elimination
        if small:
            _check_element(datum, w, gens, labels)
        else:
            _check_element(datum, w, gens, [rng.choice(labels)], by_elimination=False)
    if small:
        pairs = [(u, v) for u in group for v in group]
    else:  # D5 and F4: every element against a seeded sample of 8
        pairs = [(u, v) for u in group for v in rng.sample(group, 8)]
    for u, v in pairs:
        assert (u * v).mat == mat_mul(u.mat, v.mat)
    for u, v in pairs[:: max(1, len(pairs) // 500)]:
        assert u * v is datum.weyl_from_matrix(mat_mul(u.mat, v.mat))
    r = datum.rank
    for perm in _diagram_perms(datum):
        delta = DiagramAut(datum, perm)
        for w in group:
            mat = [[0] * r for _ in range(r)]
            for i in range(r):
                for j in range(r):
                    mat[perm[i]][perm[j]] = w.mat[i][j]
            assert delta.on_weyl(w).mat == tuple(map(tuple, mat))


@pytest.mark.parametrize("label", ["E6", "E7", "E8"])
def test_root_permutation_kernel_on_large_types(label):
    datum = build_root_datum(label)
    rng = random.Random(label)
    gens = _simple_matrices(datum)
    for _ in range(200):
        u = _random_weyl(datum, rng, n=4 * datum.rank)
        v = _random_weyl(datum, rng, n=4 * datum.rank)
        assert u * v is datum.weyl_from_matrix(mat_mul(u.mat, v.mat))
        _check_element(datum, u, gens, [rng.randrange(1, datum.rank + 1)])
    if label != "E6":
        assert datum._weyl_levels is None  # W(E7) and W(E8) are never built


@pytest.mark.parametrize(
    "label,symmetry",
    [
        ("A2", ((0, 1), (1, 0))),  # the diagram flip
        ("D4", ((0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0))),  # triality
    ],
)
def test_weyl_from_matrix_rejects_root_symmetries_outside_w(label, symmetry):
    # these permute the roots but are not in W, and neither is any product
    # of one with an element of W
    datum = build_root_datum(label)
    group = weyl_group(datum)
    for w in group:
        for mat in (symmetry, mat_mul(symmetry, w.mat), mat_mul(w.mat, symmetry)):
            with pytest.raises(ValueError, match="not a Weyl group element"):
                datum.weyl_from_matrix(mat)
        assert datum.weyl_from_matrix(w.mat) is w
    assert set(datum._weyl_cache.values()) == set(group)


def _in_parabolic_by_descents(w, J):
    """Reference: peel left descents in J one product at a time."""
    u = w
    while not u.is_identity:
        for i in J:
            if u.has_left_descent(i):
                u = w.datum.simple_weyl(i) * u
                break
        else:
            return False
    return True


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4", "A2xA1"])
def test_in_parabolic_matches_descent_peeling(label):
    datum = build_root_datum(label)
    labels = range(1, datum.rank + 1)
    subsets = [J for k in range(datum.rank + 1) for J in itertools.combinations(labels, k)]
    members = {J: 0 for J in subsets}
    for w in weyl_group(datum):
        for J in subsets:
            inside = in_parabolic(w, J)
            assert inside == _in_parabolic_by_descents(w, J), (w, J)
            members[J] += inside
    # |W_J| for the whole set and the empty set
    assert members[()] == 1
    assert members[tuple(labels)] == len(weyl_group(datum))
