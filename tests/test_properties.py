"""Property tests on random elements (Hypothesis).

Each example draws an element x and a conjugator z of the extended affine
Weyl group, as an Omega element times a word in the affine simple
reflections.  The tests check that the class of x does not see the twisted
conjugation x -> z x delta(z)^{-1}, and that the length and the lowest-cell
test of x and of its conjugate agree with their test-only oracles, that the
reduction of the conjugate to minimal length replays and keeps the
invariant of x at every step, and that the class polynomials of x do not
depend on the descent path.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adlv.conjugacy import (
    class_key,
    invariant_f,
    reduce_to_minimal,
    same_conjugacy_class,
)
from adlv.elements import (
    coerce_delta,
    is_lowest_cell,
    length_summands,
    omega_group,
    simple_reflections,
)
from adlv.hecke import verify_path_independence
from adlv.roots import build_root_datum

from test_elements import _lowest_cell_by_quotients, hyperplane_length

# (type, delta images or None, longest word for x, longest word for z)
CASES = [
    ("G2", None, 8, 4),
    ("B3", None, 6, 4),
    ("A3", None, 6, 4),
    ("A3", [3, 2, 1], 6, 4),
    ("D4", [3, 2, 4, 1], 5, 3),
]

# letter choices for x in the length and lowest-cell tests: 6 to 16 letters
# of a reduced word, so x reaches the length of w0 on G2 and A3 (6) and
# often passes it on B3 (9) and D4 (12)
LONG_WORDS = st.lists(st.integers(0, 8), min_size=6, max_size=16)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _element(datum, omega_index, word):
    refl = simple_reflections(datum)
    labels = list(refl)
    omega = omega_group(datum)
    x = omega[omega_index % len(omega)]
    for k in word:
        x = refl[labels[k % len(labels)]] * x
    return x


def _draw(data, datum, max_word):
    omega_index = data.draw(st.integers(0, 8), label="omega")
    word = data.draw(st.lists(st.integers(0, 8), max_size=max_word), label="word")
    return _element(datum, omega_index, word)


def _pair(label, images, x_word, z_word, data):
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    x = _draw(data, datum, x_word)
    z = _draw(data, datum, z_word)
    return delta, x, z * x * delta(z).inverse()


def _long_pair(label, images, z_word, data, words=LONG_WORDS):
    """Like ``_pair``, with x an Omega element times a reduced word, each
    letter drawn among those that lengthen it."""
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    refl = simple_reflections(datum).values()
    x = _element(datum, data.draw(st.integers(0, 8), label="omega"), [])
    for k in data.draw(words, label="word"):
        longer = [s for s in refl if (s * x).length > x.length]
        x = longer[k % len(longer)] * x
    z = _draw(data, datum, z_word)
    return delta, x, z * x * delta(z).inverse()


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_class_key_is_a_class_invariant(label, images, x_word, z_word, data):
    delta, x, y = _pair(label, images, x_word, z_word, data)
    assert class_key(y, delta) == class_key(x, delta)


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_twisted_conjugate_is_in_the_same_class(label, images, x_word, z_word, data):
    delta, x, y = _pair(label, images, x_word, z_word, data)
    assert same_conjugacy_class(x, y, delta)
    assert same_conjugacy_class(y, x, delta)


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_length_is_the_hyperplane_count(label, images, x_word, z_word, data):
    _, x, y = _long_pair(label, images, z_word, data)
    assert x._length is not None  # carried through the products that built x
    assert x._length == hyperplane_length(x)
    assert sum(map(abs, length_summands(y))) == hyperplane_length(y)


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_lowest_cell_agrees_with_the_quotient_walk(label, images, x_word, z_word, data):
    _, x, y = _long_pair(label, images, z_word, data)
    assert is_lowest_cell(x) == _lowest_cell_by_quotients(x)
    assert is_lowest_cell(y) == _lowest_cell_by_quotients(y)


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_reduction_trace_replays_and_keeps_the_invariant(label, images, x_word, z_word, data):
    # x of length x_word: reducing its conjugates past that length costs
    # seconds on D4, and one reduction serves both properties
    words = st.lists(st.integers(0, 8), min_size=x_word, max_size=x_word)
    delta, x, y = _long_pair(label, images, z_word, data, words)
    m, trace = reduce_to_minimal(y, delta)
    assert trace.terminal == m
    assert trace.replay(y, delta)
    fx = invariant_f(x, delta)
    assert invariant_f(y, delta) == fx
    assert all(invariant_f(step.after, delta) == fx for step in trace.steps)


@pytest.mark.parametrize("label,images,x_word,z_word", CASES)
@SETTINGS
@given(data=st.data())
def test_class_polynomials_do_not_depend_on_the_descent_path(
    label, images, x_word, z_word, data
):
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    x = _draw(data, datum, x_word)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    report = verify_path_independence(x, delta, trials=3, seed=seed)
    assert report.ok, report.divergences


@SETTINGS
@given(data=st.data())
def test_class_polynomials_of_twisted_e6_do_not_depend_on_the_descent_path(data):
    # beside CASES, so the class-key properties do not scan E6 length levels
    datum = build_root_datum("E6")
    delta = coerce_delta(datum, [6, 2, 5, 4, 3, 1])
    x = _draw(data, datum, 6)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    report = verify_path_independence(x, delta, trials=3, seed=seed)
    assert report.ok, report.divergences
