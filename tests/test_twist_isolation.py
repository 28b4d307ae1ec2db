"""The class state of one twist does not reach another twist of the datum.

Class keys, invariants, class entries and minimal class members live on the
class map of each (datum, delta).  Here the twists of one datum are queried
element by element in turn, and every value must equal the one a fresh
process computes while it touches a single twist only.
"""

import json
import os
import subprocess
import sys

import pytest

from adlv.conjugacy import (
    class_info,
    class_key,
    invariant_f,
    minimal_class_elements,
    reduce_to_minimal,
)
from adlv.elements import coerce_delta, element_literal, elements_of_length
from adlv.roots import build_root_datum

MAX_LENGTH = 4


def class_values(datum, delta, x):
    """JSON-ready class_key, invariant, class descriptor and minimal members of x."""
    key = class_key(x, delta)
    x_min, _ = reduce_to_minimal(x, delta)
    return [
        key,
        invariant_f(x, delta).jsonable(),
        class_info(datum, delta, key)["descriptor"].jsonable(),
        [element_literal(m) for m in minimal_class_elements(x_min, delta)],
    ]


def one_twist(label, images):
    """Every element's values under one twist, in a fresh process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import json, sys\n"
        "from test_twist_isolation import all_values\n"
        f"json.dump(all_values({label!r}, {images!r}), sys.stdout)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        cwd=os.path.dirname(os.path.abspath(__file__)), timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def all_values(label, images):
    datum = build_root_datum(label)
    delta = coerce_delta(datum, images)
    return {
        element_literal(x): class_values(datum, delta, x)
        for n in range(MAX_LENGTH + 1)
        for x in elements_of_length(datum, n)
    }


@pytest.mark.parametrize("label,twists", [
    ("A2", [None, [2, 1]]),
    ("A1xA1", [None, [2, 1]]),
])
def test_twists_interleaved_match_separate_processes(label, twists):
    datum = build_root_datum(label)
    deltas = [coerce_delta(datum, images) for images in twists]
    mixed = [{} for _ in twists]
    for n in range(MAX_LENGTH + 1):
        for x in elements_of_length(datum, n):
            for values, delta in zip(mixed, deltas):
                values[element_literal(x)] = class_values(datum, delta, x)
    mismatches = []
    for images, values in zip(twists, mixed):
        alone = one_twist(label, images)
        assert alone.keys() == values.keys()
        mismatches += [(images, literal) for literal in alone
                       if values[literal] != alone[literal]]
    assert mismatches == []
