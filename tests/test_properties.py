"""Property tests of twisted class identity on random elements (Hypothesis).

Each example draws an element x and a conjugator z of the extended affine
Weyl group, as an Omega element times a word in the affine simple
reflections, and checks that the class of x does not see the twisted
conjugation x -> z x delta(z)^{-1}.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adlv.conjugacy import class_key, same_conjugacy_class
from adlv.elements import coerce_delta, omega_group, simple_reflections
from adlv.roots import build_root_datum

# (type, delta images or None, longest word for x, longest word for z)
CASES = [
    ("G2", None, 8, 4),
    ("B3", None, 6, 4),
    ("A3", None, 6, 4),
    ("A3", [3, 2, 1], 6, 4),
    ("D4", [3, 2, 4, 1], 5, 3),
]

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
