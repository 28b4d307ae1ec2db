"""What the same-length orbit searches must keep: visit order and budgets.

For every element up to length 5 on A2, A2 with delta = (2,1) and C2, each
budgeted search must succeed with a budget of exactly its node count and
fail one node earlier, and that count must equal a reference walk below that
recomputes every move with group products.  A ``BudgetError`` of a reduction
must carry a trace that replays up to the node where the budget ran out.
"""

import pytest

from adlv.errors import BudgetError
from adlv.elements import elements_of_length, omega_group, simple_reflections
from adlv.conjugacy import (
    is_minimal_in_class,
    min2_decompose,
    partial_reduce,
    reduce_to_minimal,
)
from adlv.hecke import ClassPolyEngine

from test_hecke import TWISTS, _reference_descent_options, _twist

MAX_LENGTH = 5


def _orbit(level, neighbours):
    """Breadth-first order of the closure of ``level`` under ``neighbours``."""
    seen = set(level)
    queue = list(level)
    for y in queue:
        for z in neighbours(y):
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return queue


class _Moves:
    """Twisted conjugation moves with group products at every call."""

    def __init__(self, datum, delta):
        self.delta = delta
        self.refl = simple_reflections(datum)
        self.omegas = [t for t in omega_group(datum) if not t.is_identity]
        self.finite = [lab for lab in self.refl if lab > 0]

    def conj(self, lab, y):
        return self.refl[lab] * y * self.refl[self.delta.on_label(lab)]

    def simple_same(self, labels):
        def neighbours(y):
            for lab in labels:
                z = self.conj(lab, y)
                if z.length == y.length:
                    yield z
        return neighbours

    def full_same(self, y):
        yield from self.simple_same(self.refl)(y)
        for tau in self.omegas:
            yield tau * y * self.delta(tau).inverse()

    def drops(self, y, labels):
        return [z for lab in labels for z in (self.conj(lab, y),) if z.length < y.length]


def _level_walk(x, neighbours, labels, moves):
    """The nodes of a level-by-level reduction, in visit order, by levels."""
    levels = []
    reached = {x}
    level = [x]
    while True:
        orbit = _orbit(level, neighbours)
        levels.append(orbit)
        drops = []
        for y in orbit:
            for z in moves.drops(y, labels):
                if z not in reached:
                    reached.add(z)
                    drops.append(z)
        if not drops:
            return levels
        level = drops


def _budget_error(call, nodes, phase):
    """Run ``call`` one node short of ``nodes``; check and return the error."""
    budget = nodes - 1
    with pytest.raises(BudgetError) as info:
        call(budget)
    assert str(info.value) == f"{phase} exceeded the {budget}-node budget"
    return info.value


def _check_partial_traces(call, x, delta, visits, phase):
    """Each BudgetError trace replays from x and ends at the node it stopped on."""
    for budget in sorted({0, len(visits) // 2, len(visits) - 1}):
        err = _budget_error(call, budget + 1, phase)
        assert err.partial is not None and err.partial.replay(x, delta)
        assert err.partial.terminal == visits[budget]


@pytest.mark.parametrize("label,images", TWISTS)
def test_least_budget_is_the_reference_node_count(label, images):
    datum, delta = _twist(label, images)
    moves = _Moves(datum, delta)
    all_labels = list(moves.refl)
    for n in range(MAX_LENGTH + 1):
        for x in elements_of_length(datum, n):
            # reduce_to_minimal walks every level to its end
            levels = _level_walk(x, moves.full_same, all_labels, moves)
            visits = [y for orbit in levels for y in orbit]
            m, _ = reduce_to_minimal(x, delta, budget=len(visits))
            assert m == levels[-1][0]
            _check_partial_traces(
                lambda b: reduce_to_minimal(x, delta, budget=b),
                x, delta, visits, "reduction",
            )

            # is_minimal_in_class stops at the first node with a drop
            orbit = _orbit([x], moves.full_same)
            first = next(
                (k for k, y in enumerate(orbit, 1) if moves.drops(y, all_labels)),
                None,
            )
            minimal = first is None
            nodes = len(orbit) if minimal else first
            assert is_minimal_in_class(x, delta, budget=nodes) is minimal
            _budget_error(
                lambda b: is_minimal_in_class(x, delta, budget=b),
                nodes, "minimality test",
            )

            # the class-polynomial search, both with and without first_only
            for first_only in (True, False):
                options, nodes = _reference_descent_options(datum, delta, x, first_only)
                engine = ClassPolyEngine(datum, delta, budget=nodes)
                assert engine._descent_options(x, first_only) == options
                assert engine.nodes == nodes
                engine = ClassPolyEngine(datum, delta, budget=nodes - 1)
                _budget_error(
                    lambda b: engine._descent_options(x, first_only),
                    nodes, "class polynomial search",
                )
                assert engine.nodes == nodes

            # min2_decompose walks simple moves only, up to the member it splits
            if minimal:
                orbit = _orbit([x], moves.simple_same(all_labels))
                out = min2_decompose(x, delta)
                nodes = orbit.index(out.finite_factor * out.straight) + 1
                assert min2_decompose(x, delta, budget=nodes) == out
                _budget_error(
                    lambda b: min2_decompose(x, delta, budget=b),
                    nodes, "decomposition",
                )

            # partial_reduce walks finite moves level by level, up to its terminal
            out = partial_reduce(x, delta)
            levels = _level_walk(x, moves.simple_same(moves.finite), moves.finite, moves)
            visits = [y for orbit in levels for y in orbit]
            nodes = visits.index(out.terminal) + 1
            assert partial_reduce(x, delta, budget=nodes) == out
            _check_partial_traces(
                lambda b: partial_reduce(x, delta, budget=b),
                x, delta, visits[:nodes], "partial reduction",
            )
