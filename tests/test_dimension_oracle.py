"""An independent dimension oracle: the Deligne-Lusztig reduction.

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
"""

import pytest

from adlv.elements import DiagramAut, elements_of_length, omega_group, simple_reflections
from adlv.conjugacy import invariant_f
from adlv.dimension import BElement, dim_adlv
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
