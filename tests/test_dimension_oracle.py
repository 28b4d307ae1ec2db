"""Independent oracles: the Deligne-Lusztig reduction, and the defect by
twisted Coxeter elements.

``dim_adlv`` reads dimensions off class-polynomial degrees.  The oracle here
reaches them by the reduction method instead, using only group products,
``.length`` and ``invariant_f``:

* same-length moves ``x -> s x delta(s)`` and ``x -> tau x delta(tau)^{-1}``
  keep dim X_x(b);
* if ``s x delta(s)`` is two shorter, dim X_x(b) is
  ``1 + max(dim X_{s x delta(s)}(b), dim X_{s x}(b))``, an empty variety
  counting as minus infinity;
* when no chain of same-length moves reaches such a drop, x has minimal
  length in its class (He-Nie), and X_x(b) is nonempty exactly when b has
  x's invariant, of dimension ``len(x) - <nu_b, 2 rho>``.

``defect_basic`` counts the Ad(tau) o delta-orbits on the affine labels.  The
oracle ``_coxeter_defect`` searches for a twisted Coxeter element instead,
using only group products, ``.length``, ``invariant_f`` and
``is_minimal_in_class``.
"""

import itertools

import pytest

from adlv.elements import (
    DiagramAut,
    elements_of_length,
    from_weyl,
    omega_group,
    simple_reflections,
)
from adlv.conjugacy import invariant_f, is_minimal_in_class
from adlv.dimension import BElement, defect_basic, dim_adlv
from adlv.hecke import ClassPolyEngine
from adlv.roots import build_root_datum


class _Reduction:
    """dim X_x(b) + <nu_b, 2 rho> for every b, as {invariant of b: value}."""

    def __init__(self, datum, delta):
        self.delta = delta
        self.refl = simple_reflections(datum)
        self.omegas = [t for t in omega_group(datum) if not t.is_identity]
        self.memo = {}

    def _drop(self, x):
        """(y, s) with y reached from x by same-length moves and s y delta(s)
        two shorter, or None when x is minimal."""
        refl, delta = self.refl, self.delta
        seen = {x}
        queue = [x]
        for y in queue:
            same = []
            for lab, s in refl.items():
                z = s * y * refl[delta.on_label(lab)]
                if z.length < y.length:
                    return y, lab
                if z.length == y.length:
                    same.append(z)
            same += [tau * y * delta(tau).inverse() for tau in self.omegas]
            for z in same:
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
        return None

    def __call__(self, x):
        if x not in self.memo:
            found = self._drop(x)
            if found is None:
                out = {invariant_f(x, self.delta): x.length}
            else:
                y, lab = found
                s, ds = self.refl[lab], self.refl[self.delta.on_label(lab)]
                pieces = (self(s * y * ds), self(s * y))
                out = {
                    d: 1 + max(p[d] for p in pieces if d in p)
                    for d in pieces[0].keys() | pieces[1].keys()
                }
            self.memo[x] = out
        return self.memo[x]


@pytest.mark.parametrize(
    "label,images,max_length",
    [
        ("A2", None, 5),
        ("A2", [2, 1], 5),
        ("C2", None, 6),
        ("G2", None, 7),
        ("A1xA1", [2, 1], 4),
    ],
)
def test_dim_adlv_matches_deligne_lusztig_reduction(label, images, max_length):
    datum = build_root_datum(label)
    delta = (
        DiagramAut.identity(datum) if images is None
        else DiagramAut.from_one_based(datum, images)
    )
    elements = [x for n in range(max_length + 1) for x in elements_of_length(datum, n)]
    # every class met up to the bound has its straight representative there,
    # so these are the invariants of all b that matter
    descriptors = {invariant_f(x, delta) for x in elements}
    bs = [BElement(datum, delta.perm, d) for d in descriptors]
    oracle = _Reduction(datum, delta)
    engine = ClassPolyEngine(datum, delta)
    nonempty = 0
    for x in elements:
        expected = oracle(x)
        for b in bs:
            report = dim_adlv(x, b, delta, engine=engine)
            if b.descriptor in expected:
                nonempty += 1
                assert report.nonempty, (x, b.descriptor)
                drop = sum(c * v for c, v in zip(datum.rho2, b.descriptor.newton))
                assert report.dim == expected[b.descriptor] - drop, (x, b.descriptor)
            else:
                assert not report.nonempty, (x, b.descriptor)
    assert nonempty >= len(elements)


def _orbits(perm):
    """Orbits of a permutation given as a dict, each sorted, by least member."""
    out, seen = [], set()
    for start in sorted(perm):
        if start not in seen:
            orbit = [start]
            while perm[orbit[-1]] != start:
                orbit.append(perm[orbit[-1]])
            seen.update(orbit)
            out.append(tuple(sorted(orbit)))
    return out


def _coxeter_defect(tau, delta):
    """def([tau]) by a search over twisted Coxeter elements.

    phi sends a label s to the label of tau delta(s) tau^{-1}.  For every
    phi-orbit left out, and every choice of one label per remaining orbit
    taken in every order, the product c of those reflections is a twisted
    Coxeter element of the rest; the first c with c tau minimal in its class
    and of tau's invariant gives the defect, the number of delta-orbits on
    the finite labels minus len(c).  Every orbit left out must give one.
    """
    datum = tau.datum
    refl = simple_reflections(datum)
    by_element = {s: lab for lab, s in refl.items()}
    phi = {
        lab: by_element[tau * refl[delta.on_label(lab)] * tau.inverse()]
        for lab in refl
    }
    target = invariant_f(tau, delta)
    lengths = set()
    for removed in _orbits(phi):
        kept = {lab: phi[lab] for lab in phi if lab not in removed}
        found = None
        for reps in itertools.product(*_orbits(kept)):
            for order in itertools.permutations(reps):
                c = from_weyl(datum.identity_weyl)
                for lab in order:
                    c = c * refl[lab]
                assert c.length == len(order), "twisted Coxeter word is not reduced"
                ctau = c * tau
                if invariant_f(ctau, delta) == target and is_minimal_in_class(ctau, delta):
                    found = c.length
                    break
            if found is not None:
                break
        assert found is not None, "no twisted Coxeter element matches the class"
        lengths.add(found)
    assert len(lengths) == 1, sorted(lengths)
    finite = {i: delta.on_label(i) for i in range(1, datum.rank + 1)}
    return len(_orbits(finite)) - lengths.pop()


_UNTWISTED = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7", "B2", "B3", "B4", "C2", "C3",
    "C4", "D4", "D5", "D6", "E6", "E7", "F4", "G2",
]
_TWISTED = [
    ("A2", [2, 1]),
    ("A3", [3, 2, 1]),
    ("A4", [4, 3, 2, 1]),
    ("A5", [5, 4, 3, 2, 1]),
    ("D4", [3, 2, 4, 1]),
    ("D4", [1, 2, 4, 3]),
    ("D5", [1, 2, 3, 5, 4]),
    ("E6", [6, 2, 5, 4, 3, 1]),
]
# the search on the unit class of these walks long orbits (about 0.5 and 1.2 s)
_SLOW_UNIT = ("A6", "A7")


@pytest.mark.parametrize(
    "label,images", [(t, None) for t in _UNTWISTED] + _TWISTED
)
def test_defect_matches_twisted_coxeter_search(label, images):
    datum = build_root_datum(label)
    delta = (
        DiagramAut.identity(datum) if images is None
        else DiagramAut.from_one_based(datum, images)
    )
    classes = {}
    for tau in omega_group(datum):
        classes.setdefault(invariant_f(tau, delta), tau)
    checked = 0
    for tau in classes.values():
        if tau.is_identity and label in _SLOW_UNIT:
            continue
        b = BElement.from_element(tau, delta)
        assert defect_basic(b, delta) == _coxeter_defect(tau, delta), tau
        checked += 1
    assert checked
