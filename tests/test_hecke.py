"""T-basis arithmetic and class polynomials."""

import random

import pytest

from adlv.cli import main
from adlv.errors import BudgetError
from adlv.roots import build_root_datum
from adlv.elements import (
    DiagramAut,
    OrbitWalk,
    demazure_product,
    elements_of_length,
    identity,
    omega_group,
    parse_element,
    simple_reflections,
    translation,
)
from adlv.conjugacy import class_key, class_info, same_conjugacy_class
from adlv.hecke import (
    ClassPolyEngine,
    ClassPolyTable,
    EMPTY,
    XiPoly,
    class_polynomials,
    hecke_mul,
    hecke_mul_basis,
    t_basis,
    verify_path_independence,
)

from test_elements import random_element


# --- coefficient ring ---------------------------------------------------------


def test_xipoly_arithmetic():
    xi = XiPoly.XI
    one = XiPoly.ONE
    assert xi * xi + one == XiPoly((1, 0, 1))
    assert (xi + one).coeffs == (1, 1)
    assert XiPoly((0, 0)).is_zero and XiPoly((0, 0)).degree is EMPTY
    assert XiPoly((1, 2)).shift(2).coeffs == (0, 0, 1, 2)
    assert 3 * xi == XiPoly((0, 3))
    assert XiPoly((1, 0, 3)).coeff(2) == 3 and XiPoly((1, 0, 3)).coeff(5) == 0


@pytest.mark.parametrize("coeffs", [(1.5, True), (1, True), (2.0,), ("1",), (None,)])
def test_xipoly_rejects_coefficients_that_are_not_ints(coeffs):
    with pytest.raises(TypeError, match="is not an int"):
        XiPoly(coeffs)


def test_xipoly_keeps_int_coefficients():
    assert XiPoly([3, -1, 0]).coeffs == (3, -1)
    assert XiPoly(c for c in (0, 2)).coeffs == (0, 2)
    assert (XiPoly.XI * 2).coeffs == (0, 2)


def test_xipoly_display_and_json():
    assert XiPoly((1, 0, 3)).format_xi() == "3ξ^2 + 1"
    assert XiPoly((0, 0, 1)).format_v() == "v^2 - 2 + v^-2"
    assert XiPoly((0, 1)).format_v() == "v - v^-1"
    assert XiPoly.ZERO.format_xi() == "0"
    p = XiPoly((2, 0, 5))
    assert XiPoly.from_jsonable(p.jsonable()) == p
    assert p.jsonable() == {"xi_coeffs": [2, 0, 5]}


def test_format_v_signs_units_and_negative_powers():
    assert XiPoly.ZERO.format_v() == "0"
    assert XiPoly((0, -1)).format_v() == "-v + v^-1"
    assert XiPoly((1, -2)).format_v() == "-2v + 1 + 2v^-1"
    assert XiPoly((0, 0, -1)).format_v() == "-v^2 + 2 - v^-2"
    assert XiPoly((0, 1, 0, 1)).format_v() == "v^3 - 2v + 2v^-1 - v^-3"
    assert XiPoly((-1,)).format_v() == "-1"


@pytest.mark.parametrize(
    "data",
    [
        None,
        [],
        {"element": "t[0]"},
        {"element": 0, "table": {}},
        {"element": "t[0]", "table": {"t[0]": 5}},
        {"element": "t[0]", "table": {"t[0]": {}}},
        {"element": "t[0]", "table": {"t[0]": {"xi_coeffs": ["x"]}}},
        {"element": "t[0]", "table": {"t[0]": {"xi_coeffs": [1.5]}}},
        {"element": "t[0]", "table": {"t[0]": {"xi_coeffs": [True]}}},
    ],
)
def test_table_from_jsonable_rejects_other_shapes(data):
    with pytest.raises(ValueError):
        ClassPolyTable.from_jsonable(data)


# --- T-basis multiplication -----------------------------------------------------


def test_mul_basis_fixtures():
    a1 = build_root_datum("A1")
    refl = simple_reflections(a1)
    e = identity(a1)
    assert hecke_mul_basis(e, refl[1]) == {refl[1]: XiPoly.ONE}
    # the quadratic relation
    assert hecke_mul_basis(refl[1], refl[1]) == {
        refl[1]: XiPoly.XI,
        e: XiPoly.ONE,
    }
    s0s1 = refl[0] * refl[1]
    assert hecke_mul_basis(s0s1, refl[0]) == {s0s1 * refl[0]: XiPoly.ONE}


def test_hecke_mul_fixtures():
    a1 = build_root_datum("A1")
    x = parse_element(a1, "t[-2]*s1")
    assert hecke_mul(t_basis(x), t_basis(identity(a1))) == t_basis(x)
    t = translation(a1, (2,))
    assert hecke_mul(t_basis(t), t_basis(t)) == t_basis(translation(a1, (4,)))
    tau = omega_group(a1)[1]
    s1 = simple_reflections(a1)[1]
    assert hecke_mul(t_basis(tau), t_basis(s1)) == t_basis(tau * s1)
    assert hecke_mul(t_basis(s1), t_basis(tau)) == t_basis(s1 * tau)


def test_hecke_mul_associative():
    rng = random.Random(20)
    a2 = build_root_datum("A2")
    for _ in range(10):
        x, y, z = (t_basis(random_element(a2, rng, 4)) for _ in range(3))
        assert hecke_mul(hecke_mul(x, y), z) == hecke_mul(x, hecke_mul(y, z))


def test_positive_cone_closure():
    rng = random.Random(21)
    a2 = build_root_datum("A2")
    for _ in range(20):
        h = {}
        for _ in range(3):
            h[random_element(a2, rng, 5)] = XiPoly(
                tuple(rng.randrange(3) for _ in range(3))
            )
        x = random_element(a2, rng, 5)
        for poly in hecke_mul(t_basis(x), h).values():
            assert poly.is_nonnegative
        for poly in hecke_mul(h, t_basis(x)).values():
            assert poly.is_nonnegative


def test_leading_term_demazure_law():
    # T_x T_y lands in xi^{l(x)+l(y)-l(x*y)} T_{x*y} plus the positive cone
    rng = random.Random(22)
    a2 = build_root_datum("A2")
    for _ in range(50):
        x = random_element(a2, rng, 5)
        y = random_element(a2, rng, 5)
        prod = hecke_mul(t_basis(x), t_basis(y))
        star = demazure_product(x, y)
        gap = x.length + y.length - star.length
        assert all(p.is_nonnegative for p in prod.values())
        assert prod[star].coeff(gap) >= 1


# --- class polynomials -----------------------------------------------------------


def test_class_polynomials_golden_a1():
    a1 = build_root_datum("A1")
    t = translation(a1, (2,))
    assert class_polynomials(t).entries == {class_key(t): XiPoly.ONE}
    table = class_polynomials(parse_element(a1, "w[0 1 0]"))
    assert table.entries == {
        "t[-2]": XiPoly.XI,  # the translation class
        "t[0]*s1": XiPoly.ONE,  # the reflection class
    }
    # a conjugate element carries the identical table
    table2 = class_polynomials(parse_element(a1, "t[-2]*s1"))
    assert table2.entries == table.entries


def test_path_independence():
    a1 = build_root_datum("A1")
    report = verify_path_independence(parse_element(a1, "w[0 1 0]"), trials=4)
    assert report.ok and report.trials == 4
    with pytest.raises(ValueError):
        verify_path_independence(identity(a1), trials=1)


@pytest.mark.parametrize("label", ["A1", "A2"])
def test_table_invariants(label):
    datum = build_root_datum(label)
    engine = ClassPolyEngine(datum)
    for n in range(7):
        for w in elements_of_length(datum, n):
            table = engine.table(w)
            consts = {k: p.constant_term for k, p in table.items()}
            assert sum(consts.values()) == 1
            own = class_key(w)
            assert consts[own] == 1
            assert same_conjugacy_class(w, class_info(datum, None, own)["rep"])
            for key, poly in table.items():
                assert poly.is_nonnegative and not poly.is_zero
                lo = class_info(datum, None, key)["length"]
                assert poly.degree <= n - lo
                for k, c in enumerate(poly.coeffs):
                    if c:
                        assert (k - (n - lo)) % 2 == 0


def test_conjugation_invariance_of_tables():
    # elements linked by length-preserving moves share their table
    a2 = build_root_datum("A2")
    refl = simple_reflections(a2)
    engine = ClassPolyEngine(a2)
    for n in range(7):
        for w in elements_of_length(a2, n):
            base = engine.table(w)
            for lab, s in refl.items():
                z = s * w * s
                if z.length == w.length:
                    assert engine.table(z) == base
            for tau in omega_group(a2):
                assert engine.table(tau * w * tau.inverse()) == base


def test_twisted_class_polynomials():
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    engine = ClassPolyEngine(a2, flip)
    for n in range(6):
        for w in elements_of_length(a2, n):
            table = engine.table(w)
            assert sum(p.constant_term for p in table.values()) == 1
            for poly in table.values():
                assert poly.is_nonnegative
            report = verify_path_independence(w, flip, trials=3)
            assert report.ok


def test_table_serialization_roundtrip():
    a1 = build_root_datum("A1")
    table = class_polynomials(parse_element(a1, "w[0 1 0]"))
    data = table.jsonable()
    assert ClassPolyTable.from_jsonable(data) == table
    assert data["table"]["t[-2]"] == {"xi_coeffs": [0, 1]}


def test_shared_engine_matches_fresh():
    a2 = build_root_datum("A2")
    engine = ClassPolyEngine(a2)
    for n in range(5):
        for w in elements_of_length(a2, n):
            assert engine.table(w) == class_polynomials(w).entries


# --- move memo, forks and the cocenter trace ----------------------------------

TWISTS = [("A2", None), ("A2", [2, 1]), ("C2", None)]


def _twist(label, images):
    datum = build_root_datum(label)
    if images is None:
        return datum, DiagramAut.identity(datum)
    return datum, DiagramAut.from_one_based(datum, images)


def _reference_descent_options(datum, delta, x, first_only):
    """The orbit search with group products at every node: (options, nodes)."""
    refl = simple_reflections(datum)
    omegas = [t for t in omega_group(datum) if not t.is_identity]
    seen = {x}
    queue = [x]
    options = []
    nodes = 0
    for y in queue:
        nodes += 1
        for lab, s in refl.items():
            z = s * y * refl[delta.on_label(lab)]
            if z.length < y.length:
                options.append((y, lab))
                if first_only:
                    return options, nodes
            elif z.length == y.length and z not in seen:
                seen.add(z)
                queue.append(z)
        for tau in omegas:
            z = tau * y * delta(tau).inverse()
            if z not in seen:
                seen.add(z)
                queue.append(z)
    return options, nodes


@pytest.mark.parametrize("label,images", TWISTS)
def test_descent_replay_is_exact(label, images):
    datum, delta = _twist(label, images)
    elements = [w for n in range(7) for w in elements_of_length(datum, n)]
    warm = ClassPolyEngine(datum, delta)
    for w in reversed(elements):
        warm._descent_options(w, first_only=False)
    for first_only in (True, False):
        for w in elements:
            fresh = ClassPolyEngine(datum, delta)
            options = fresh._descent_options(w, first_only)
            before = warm.nodes
            assert warm._descent_options(w, first_only) == options
            assert warm.nodes - before == fresh.nodes
            assert (options, fresh.nodes) == _reference_descent_options(
                datum, delta, w, first_only
            )


def test_fork_shares_moves_and_budget_not_tables():
    a2 = build_root_datum("A2")
    base = ClassPolyEngine(a2, budget=50)
    base.table(parse_element(a2, "w[0 1 2 0]"))
    fork = base.fork(random.Random(0).choice)
    assert base.memo and fork.memo == {}
    assert fork._moves is base._moves
    assert fork.budget == 50 and fork.delta is base.delta
    assert fork.choose is not None and base.choose is None


def test_path_independence_trials_do_not_read_base_tables():
    a2 = build_root_datum("A2")
    refl = simple_reflections(a2)
    probe = ClassPolyEngine(a2)
    x = next(w for w in elements_of_length(a2, 4) if probe._descent_options(w, True))
    w1, lab = probe._descent_options(x, True)[0]
    down = refl[lab] * w1  # the first descendant the base recursion reads
    assert verify_path_independence(x, engine=ClassPolyEngine(a2), trials=3).ok
    base = ClassPolyEngine(a2)
    base.memo[down] = {
        key: poly.shift(2) for key, poly in ClassPolyEngine(a2).table(down).items()
    }
    report = verify_path_independence(x, engine=base, trials=3)
    assert not report.ok and len(report.divergences) == 2


def _cocenter_trace(engine, h):
    """f(sum c_y T_y) = sum c_y * table(y), keyed by class keys."""
    out = {}
    for y, c in h.items():
        for key, poly in engine.table(y).items():
            out[key] = out.get(key, XiPoly.ZERO) + c * poly
    return {key: poly for key, poly in out.items() if not poly.is_zero}


@pytest.mark.parametrize("label,images", TWISTS)
def test_cocenter_trace_identity(label, images):
    # f(T_s T_x) = f(T_x T_delta(s)) and f(T_tau T_x) = f(T_x T_delta(tau)):
    # the products come from hecke_mul, not from the descent recursion
    datum, delta = _twist(label, images)
    engine = ClassPolyEngine(datum, delta)
    refl = simple_reflections(datum)
    moves = [(s, refl[delta.on_label(lab)]) for lab, s in refl.items()]
    moves += [(tau, delta(tau)) for tau in omega_group(datum)]
    for n in range(6):
        for x in elements_of_length(datum, n):
            tx = t_basis(x)
            for left, right in moves:
                assert _cocenter_trace(
                    engine, hecke_mul(t_basis(left), tx)
                ) == _cocenter_trace(engine, hecke_mul(tx, t_basis(right))), (x, left)


@pytest.mark.parametrize("label,images", [("G2", None), ("A1xA1", [2, 1])])
def test_cocenter_trace_identity_g2_and_swapped_a1xa1(label, images):
    # the same oracle on a non-simply-laced type and on a twist that swaps
    # two components (so it moves the affine labels too)
    test_cocenter_trace_identity(label, images)


def test_class_polynomials_rejects_engine_of_other_delta():
    a2 = build_root_datum("A2")
    flip = DiagramAut.from_one_based(a2, [2, 1])
    x = parse_element(a2, "w[0 1 2 0]")
    with pytest.raises(ValueError, match="diagram automorphism"):
        class_polynomials(x, flip, engine=ClassPolyEngine(a2))
    with pytest.raises(ValueError, match="diagram automorphism"):
        class_polynomials(x, engine=ClassPolyEngine(a2, flip))
    with pytest.raises(ValueError, match="diagram automorphism"):
        verify_path_independence(x, [2, 1], engine=ClassPolyEngine(a2))
    twisted = ClassPolyEngine(a2, flip)
    assert class_polynomials(x, [2, 1], engine=twisted) == class_polynomials(x, flip)


def test_format_xi_signs_units_and_powers():
    assert XiPoly((-1, 1)).format_xi() == "ξ - 1"
    assert XiPoly((0, -2)).format_xi() == "-2ξ"
    assert XiPoly((1, 0, -1, 1)).format_xi() == "ξ^3 - ξ^2 + 1"
    assert XiPoly((-3,)).format_xi() == "-3"
    assert XiPoly((2, 1, 0, 4)).format_xi() == "4ξ^3 + ξ + 2"


# --- the work stack of the descent recursion ----------------------------------


def _recursive_table(engine, x):
    """The descent recursion written as a recursion, on ``engine``'s memo and
    orbit searches: the oracle of the work stack in ``ClassPolyEngine.table``."""
    if x in engine.memo:
        return engine.memo[x]
    options = engine._descent_options(x, first_only=engine.choose is None)
    if not options:
        result = {class_key(x, engine.delta): XiPoly.ONE}
    else:
        w1, lab = options[0] if engine.choose is None else engine.choose(options)
        refl = simple_reflections(engine.datum)
        down = refl[lab] * w1
        down2 = down * refl[engine.delta.on_label(lab)]
        ta = _recursive_table(engine, down)
        tb = _recursive_table(engine, down2)
        result = {key: poly.shift() for key, poly in ta.items()}
        for key, poly in tb.items():
            result[key] = result.get(key, XiPoly.ZERO) + poly
        result = {k: v for k, v in result.items() if not v.is_zero}
    engine.memo[x] = result
    return result


@pytest.mark.parametrize(
    "label,images,max_length",
    [("A2", None, 10), ("C2", None, 12), ("G2", None, 14), ("A2", [2, 1], 10)],
)
@pytest.mark.parametrize("seed", [None, 5], ids=["first-option", "seeded-random"])
def test_table_stack_matches_the_recursion(label, images, max_length, seed):
    # longest elements first, so each table runs a deep subtree on a cold memo
    datum, delta = _twist(label, images)
    seen = {"stack": [], "recursion": []}

    def chooser(side):
        if seed is None:
            return None
        rng = random.Random(seed)

        def choose(options):
            seen[side].append(list(options))
            return rng.choice(options)

        return choose

    stack = ClassPolyEngine(datum, delta, chooser("stack"))
    recursion = ClassPolyEngine(datum, delta, chooser("recursion"))
    for n in reversed(range(max_length + 1)):
        for w in elements_of_length(datum, n):
            assert stack.table(w) == _recursive_table(recursion, w)
            assert stack.nodes == recursion.nodes
    assert [(x, list(t.items())) for x, t in stack.memo.items()] == [
        (x, list(t.items())) for x, t in recursion.memo.items()
    ]
    assert seen["stack"] == seen["recursion"]
    assert (seed is None) == (not seen["stack"])


# --- searches and descents shared by an engine and its forks --------------------


def _memo_items(engine):
    return [(x, list(table.items())) for x, table in engine.memo.items()]


def _logging_chooser(log, seed):
    rng = random.Random(seed)

    def choose(options):
        log.append(list(options))
        return rng.choice(options)

    return choose


@pytest.mark.parametrize(
    "label,images,max_length",
    [("A2", None, 7), ("C2", None, 8), ("G2", None, 10), ("A2", [2, 1], 6)],
)
def test_forks_that_share_searches_match_engines_that_share_nothing(
    label, images, max_length
):
    # as in verify_path_independence: one base engine, and for each element
    # new forks with seeded random choosers; beside them, engines that share
    # nothing run the recursion oracle with the same choosers
    datum, delta = _twist(label, images)
    shared_log, alone_log = [], []
    base = ClassPolyEngine(datum, delta)
    base_alone = ClassPolyEngine(datum, delta)
    for n in range(max_length + 1):
        for w in elements_of_length(datum, n):
            assert base.table(w) == _recursive_table(base_alone, w)
            assert base.nodes == base_alone.nodes
            for t in (1, 2):
                seed = f"{t}:{w!r}"
                fork = base.fork(_logging_chooser(shared_log, seed))
                alone = ClassPolyEngine(datum, delta, _logging_chooser(alone_log, seed))
                assert fork.table(w) == _recursive_table(alone, w)
                assert fork.nodes == alone.nodes
                assert _memo_items(fork) == _memo_items(alone)
    assert _memo_items(base) == _memo_items(base_alone)
    assert shared_log == alone_log and shared_log


def _long_search(datum, budget):
    """An element whose full orbit search takes more than ``budget`` nodes."""
    probe = ClassPolyEngine(datum)
    for n in range(2, 7):
        for w in elements_of_length(datum, n):
            before = probe.nodes
            probe._descent_options(w, first_only=False)
            if probe.nodes - before > budget:
                return w, probe.nodes - before
    raise AssertionError("no search is long enough")


def test_search_that_ran_out_of_budget_is_not_stored():
    a2 = build_root_datum("A2")
    x, _ = _long_search(a2, 3)
    engine = ClassPolyEngine(a2, budget=3)
    for _ in range(2):
        before = engine.nodes
        with pytest.raises(BudgetError, match="3-node budget"):
            engine._descent_options(x, first_only=False)
        assert engine.nodes - before == 4
    assert (x, False) not in engine._searches


def test_replay_of_a_search_longer_than_a_lowered_budget_raises():
    a2 = build_root_datum("A2")
    x, size = _long_search(a2, 3)
    engine = ClassPolyEngine(a2)
    options = engine._descent_options(x, first_only=False)
    engine.budget = size - 1
    fresh = ClassPolyEngine(a2, budget=size - 1)
    for probe in (engine, fresh):
        before = probe.nodes
        with pytest.raises(BudgetError, match=f"{size - 1}-node budget"):
            probe._descent_options(x, first_only=False)
        assert probe.nodes - before == size
    engine.budget = size
    before = engine.nodes
    assert engine._descent_options(x, first_only=False) == options
    assert engine.nodes - before == size


def test_path_independence_walks_each_search_once(monkeypatch, capsys):
    walks, searches = [], []
    walk, descent_options = OrbitWalk.walk, ClassPolyEngine._descent_options

    def counting_walk(self, level):
        if self.phase == "class polynomial search":
            walks.append(level)
        return walk(self, level)

    def recording_options(self, x, first_only):
        searches.append((x, first_only))
        return descent_options(self, x, first_only)

    monkeypatch.setattr(OrbitWalk, "walk", counting_walk)
    monkeypatch.setattr(ClassPolyEngine, "_descent_options", recording_options)
    assert main(["sweep", "--type", "A2", "--max-length", "6",
                 "--check", "path-independence", "--trials", "3"]) == 0
    capsys.readouterr()
    assert len(walks) == len(set(searches)) < len(searches)
