import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germforge import cli, groupkit, moebius as moebius_module
from germforge.cyclo import OrderResult, cyclotomic_polynomial, field
from germforge.groupkit import (
    ClosureResult,
    GroupPresentation,
    LinearizationFailure,
    check_basic_set,
    closure_enumerate,
    linearize_group,
)
from germforge.moebius import (
    MoebiusMap,
    ProjectivePoint,
    cyclo_sqrt,
    fixed_points,
    germ_at_fixed_point,
    holonomy_check,
    moebius_order,
)

F1 = field(1)
F5 = field(5)


def moebius(fld, rows):
    return MoebiusMap(tuple(tuple(fld.from_rational(x) for x in row) for row in rows))


def scaling(xi):
    """z -> xi z."""
    return MoebiusMap(((xi, xi.field.zero()), (xi.field.zero(), xi.field.one())))


# the anharmonic pair z -> 1/z and z -> 1 - z generates S3
S = moebius(F1, [[0, 1], [1, 0]])
T = moebius(F1, [[-1, 1], [0, 1]])
# z -> -1/(z - 1), order 3, fixed points need sqrt(-3)
R3 = moebius(F1, [[0, -1], [1, -1]])


@pytest.mark.parametrize(
    "entry, want",
    [
        ("moebius-rotation-5", {"finite_cyclic": True, "order": 5, "model": "rotation"}),
        ("moebius-inversion", {"finite_cyclic": True, "order": 2, "model": "inversion"}),
        ("moebius-dilation", {"finite_cyclic": False, "model": "other"}),
    ],
)
def test_corpus_holonomy_verdicts(entry, want):
    report = cli.run_corpus_entry(entry, 6, 10_000, None)
    assert report["matched"]
    got = report["checks"]["holonomy"]["actual"]
    assert {k: got[k] for k in want} == want


def test_moebius_order_examples():
    rotation = scaling(F5.zeta())
    assert (moebius_order(rotation).kind, moebius_order(rotation).order) == ("finite", 5)
    assert moebius_order(MoebiusMap.identity(F1)).order == 1
    assert moebius_order(moebius(F1, [[2, 0], [0, 1]])).kind == "infinite"
    parabolic = moebius_order(moebius(F1, [[1, 1], [0, 1]]))
    assert parabolic.kind == "infinite" and "power 12 is not" in parabolic.certificate
    assert moebius_order(S).order == 2 and moebius_order(T).order == 2
    assert moebius_order(R3).order == 3


def test_fixed_points():
    zero, inf = ProjectivePoint.make(F1.zero(), F1.one()), ProjectivePoint.infinity(F1)
    assert fixed_points(moebius(F1, [[2, 0], [0, 1]])) == [zero, inf]
    assert fixed_points(moebius(F1, [[1, 1], [0, 1]])) == [inf]
    one, minus_one = (ProjectivePoint.make(F1.from_rational(x), F1.one()) for x in (1, -1))
    assert sorted(fixed_points(S), key=lambda p: p.sort_key()) == sorted(
        [one, minus_one], key=lambda p: p.sort_key()
    )
    for m in (S, T):
        assert all(m.apply(p) == p for p in fixed_points(m))
    with pytest.raises(ValueError):
        fixed_points(MoebiusMap.identity(F1))


def test_germ_at_fixed_point_multiplier():
    rotation = scaling(F5.zeta())
    germ = germ_at_fixed_point(rotation, ProjectivePoint.make(F5.zero(), F5.one()), 3)
    assert germ.linear_matrix()[0][0] == F5.zeta()
    assert germ.is_linear()


def test_closure_of_anharmonic_group_has_six_elements():
    pres = GroupPresentation((("s", S), ("t", T)))
    result = closure_enumerate(pres)
    assert (result.status, result.count) == ("closed", 6)
    assert MoebiusMap.identity(F1) in result.elements
    assert closure_enumerate(pres, cap=4).status == "cap-exceeded"


def test_closure_of_two_inversions_is_infinite_by_the_screen():
    # z -> 1/z and z -> 2/z have order 2; their product z -> z/2 does not
    pres = GroupPresentation((("s", S), ("i", moebius(F1, [[0, 2], [1, 0]]))))
    result = closure_enumerate(pres)
    assert (result.status, result.count, result.word) == ("infinite", 4, "s*i")
    assert result.certificate.startswith("trace^2/det = 9/2 is not an algebraic integer")


def test_holonomy_names_an_infinite_closure(monkeypatch):
    infinite = ClosureResult("infinite", None, 3, "g1*g2", "certificate")
    monkeypatch.setattr(groupkit, "closure_enumerate", lambda pres, cap: infinite)
    verdict = holonomy_check([scaling(F5.zeta())] * 5)
    assert verdict.finite_cyclic is True
    assert verdict.detail.endswith("; moebius closure is infinite: g1*g2 has infinite order")


def test_basic_set_on_moebius_presentation():
    report = check_basic_set(GroupPresentation((("a", S), ("b", S), ("c", T), ("d", T))))
    assert report.product_is_identity
    assert report.verdict == "irreducible-verified"
    assert report.conjugacy[(1, 2)].found


def test_exhausted_witness_search_is_unresolved_not_false():
    gens = [S, S, T, T]
    verdict = holonomy_check(gens, word_bound=0)
    assert verdict.finite_cyclic == "unresolved"
    assert "word length 0" in verdict.detail
    verdict = holonomy_check(gens, word_bound=6)
    assert verdict.finite_cyclic is False
    assert "no common fixed point" in verdict.detail


def test_missing_square_root_is_unresolved():
    verdict = holonomy_check([R3, R3, R3])
    assert verdict.finite_cyclic == "unresolved"
    assert "square root of -3" in verdict.detail


def test_product_not_identity_is_false():
    verdict = holonomy_check([S, T])
    assert verdict.finite_cyclic is False
    assert verdict.detail == "ordered product of generators is not the identity"


def test_non_conjugate_generators_are_disproved():
    rotation = scaling(F5.zeta())
    verdict = holonomy_check([rotation, rotation.inverse()])
    assert verdict.finite_cyclic is False
    assert "commuting-generators" in verdict.detail


def test_generator_count_must_be_a_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        holonomy_check([S] * 6)


@st.composite
def maps_with_a_common_fixed_point(draw):
    """1-4 listed maps, drawn from 1-3 maps z -> a z / (c z + 1) with a a
    root of unity, all moved by one translation to fix a common point q;
    returns (listed maps, q)."""
    fld = field(draw(st.sampled_from([1, 2, 3, 4, 5, 8, 9])))
    N = fld.conductor

    def number():
        return fld.from_rational(draw(st.integers(-2, 2))) * fld.zeta(draw(st.integers(0, N - 1)))

    one, zero = fld.one(), fld.zero()
    shift = MoebiusMap(((one, number()), (zero, one)))
    maps = [
        shift.compose(MoebiusMap(((fld.zeta(draw(st.integers(0, N - 1))), zero), (number(), one))))
        .compose(shift.inverse())
        for _ in range(draw(st.integers(1, 3)))
    ]
    listed = draw(st.lists(st.sampled_from(maps), min_size=1, max_size=4))
    return listed, shift.apply(ProjectivePoint.make(zero, one))


@settings(max_examples=60, deadline=None)
@given(maps_with_a_common_fixed_point())
def test_local_linearization_verdict_is_the_same_at_orders_2_and_5(case):
    """A Moebius map fixing q is determined by its 2-jet there, so local
    germs of a higher order change no verdict of `linearize_group`.  The
    product check is bypassed to reach the per-degree loop; it too is decided
    by the 2-jets."""
    maps, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupkit, "check_product_identity", lambda g: (True, g.identity()))
        low, high = (
            linearize_group(GroupPresentation(tuple(
                (f"g{i}", germ_at_fixed_point(m, q, K)) for i, m in enumerate(maps, start=1))))
            for K in (2, 5))
    assert type(low) is type(high)
    if isinstance(low, LinearizationFailure):
        assert (low.reason, low.degree, low.detail) == (high.reason, high.degree, high.detail)
    else:
        assert (low.diagonal_generator, low.group_order) == (high.diagonal_generator, high.group_order)


# --- square roots of rationals ----------------------------------------------------


@pytest.mark.parametrize(
    "m, n, want",
    [
        (2, 8, True), (2, 11, False), (2, 13, False), (-2, 8, True), (-2, 24, True),
        (-1, 4, True), (-1, 3, False), (-3, 3, True), (-3, 6, True), (3, 3, False),
        (3, 12, True), (12, 12, True), (5, 5, True), (-5, 20, True), (-5, 5, False),
        (9, 1, True), (-4, 1, False),
        # only the primes of 2n are divided out: the large square cofactor is never factored
        (2 * 1_000_003**2, 8, True), (2 * 1_000_003, 8, False),
    ],
)
def test_rational_root_conductor_rule(m, n, want):
    assert moebius_module._rational_root_in_field(m, n) is want


def exact_search(a):
    """The residue screen and the sign search on any radicand, rational or not."""
    c = tuple(x * a.den for x in a.num)
    found = moebius_module._search_prime(c, a.field.conductor)
    return found and moebius_module._sign_search(a.field, c, *found)


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
def test_conductor_rule_agrees_with_the_numeric_search(n):
    fld = field(n)
    for m in range(-15, 16):
        if m:
            a = fld.from_rational(m)
            found = exact_search(a)
            assert (found is not None) == moebius_module._rational_root_in_field(m, n), (m, n)
            root = cyclo_sqrt(a)
            assert (root is not None) == (found is not None)
            assert root is None or root * root == a


def test_rational_sqrt_of_a_fraction():
    half = field(8).from_rational(Fraction(1, 2))
    root = cyclo_sqrt(half)
    assert root is not None and root * root == half
    assert cyclo_sqrt(field(7).from_rational(Fraction(1, 2))) is None


def test_equal_maps_hash_equal_however_built():
    fld = field(5)
    z = fld.zeta()
    m = MoebiusMap(((z, fld.one()), (fld.from_rational(2), z * z - 3)))
    for scale in (fld.from_rational(Fraction(-2, 3)), z, z + Fraction(1, 2)):
        scaled = MoebiusMap(tuple(tuple(x * scale for x in row) for row in m.matrix))
        assert scaled == m and hash(scaled) == hash(m)
    assert m.inverse().inverse() == m and hash(m.inverse().inverse()) == hash(m)
    identity = MoebiusMap.identity(fld)
    for other in (m.compose(m.inverse()), m.inverse().compose(m)):
        assert other == identity and hash(other) == hash(identity)
    # z -> 1 - z is an involution; z -> -1/(z - 1) has order 3
    assert T.compose(T) == MoebiusMap.identity(F1)
    assert hash(T.compose(T)) == hash(MoebiusMap.identity(F1))
    assert hash(R3.compose(R3).compose(R3)) == hash(MoebiusMap.identity(F1))
    sts, tst = S.compose(T).compose(S), T.compose(S).compose(T)
    assert sts == tst and hash(sts) == hash(tst)
    assert len({MoebiusMap.identity(F1), S, T, S.compose(T), T.compose(S), sts, tst}) == 6


# --- the residue screen before the exact sign search ---------------------------


def conjugated_r3(n):
    """R3 conjugated by z -> z*zeta + 1 over Q(zeta_n): its discriminant is -3*zeta^2."""
    fld = field(n)
    z = fld.zeta()
    one = fld.one()
    return MoebiusMap(((one, -one - z - z * z), (one, -one - z)))


def test_non_square_discriminant_is_unresolved_without_the_numeric_search(monkeypatch):
    # 3 does not divide 13, so sqrt(-3) is not in Q(zeta_13); a residue symbol
    # proves it before the sign search over 2^11 sign choices starts
    def sign_search(*args):
        raise AssertionError("the sign search ran")

    monkeypatch.setattr(moebius_module, "_sign_search", sign_search)
    m = conjugated_r3(13)
    assert m.order().order == 3
    (a, b), (c, d) = m.matrix
    assert (a - d) * (a - d) + b * c * 4 == field(13).zeta(2) * -3
    verdict = holonomy_check([m, m, m])
    assert verdict.finite_cyclic == "unresolved"
    assert "no square root of -3*z^2" in verdict.detail


@pytest.mark.parametrize("n", [420, 1000])
def test_conjugated_rotation_has_order_three_at_large_conductors(n):
    # by powers of the map, each product renormalized by a field inverse,
    # this took seconds at N = 420 and minutes at N = 1000
    assert conjugated_r3(n).order() == OrderResult("finite", order=3)


def test_square_discriminant_still_resolves():
    # sqrt(-3) = 1 + 2*zeta_3 lies in Q(zeta_12)
    m = conjugated_r3(12)
    verdict = holonomy_check([m, m, m])
    assert (verdict.finite_cyclic, verdict.order, verdict.model) == (True, 3, "rotation")


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 13, 1000])
def test_roots_of_the_cyclotomic_polynomial_mod_p(n):
    phi = cyclotomic_polynomial(n)
    for p in itertools.islice(moebius_module._primes_one_mod(n), 3):
        roots = moebius_module._roots_of_cyclotomic_mod(n, p)
        assert len(set(roots)) == len(phi) - 1
        assert all(sum(c * pow(r, i, p) for i, c in enumerate(phi)) % p == 0 for r in roots)


@st.composite
def field_elements(draw):
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 8, 12])))
    num = draw(st.lists(st.integers(-5, 5), min_size=fld.degree, max_size=fld.degree))
    return fld.element([Fraction(c, draw(st.integers(1, 4))) for c in num])


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_square_root_of_a_square_is_plus_or_minus_the_root(b):
    root = cyclo_sqrt(b * b)
    assert root == b or root == -b


@st.composite
def large_field_elements(draw):
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12])))
    big = st.integers(-10**30, 10**30)
    coeffs = [Fraction(draw(big), draw(st.sampled_from([1, 2, 3, 7, 10**30 + 1])))
              for _ in range(fld.degree)]
    assume(any(coeffs))
    return fld.element(coeffs)


@settings(max_examples=80, deadline=None)
@given(large_field_elements())
@example(field(5).element([10**16 + 7 * i + 1 for i in range(4)]))
def test_square_roots_of_large_squares_are_exact(b):
    root = cyclo_sqrt(b * b)
    assert root == b or root == -b
    if b.field.conductor % 8:
        assert cyclo_sqrt(b * b * 2) is None  # sqrt(2) lies in Q(zeta_N) only for 8 | N


def test_rotation_5_holonomy_is_unchanged():
    report = cli.run_corpus_entry("moebius-rotation-5", 6, 10_000, None)
    assert report["matched"]
    assert report["checks"]["holonomy"]["actual"]["detail"] == (
        "local multipliers generate a cyclic group of order 5; moebius closure has 5 elements")


@pytest.mark.parametrize("entry", ["moebius-rotation-5", "moebius-inversion"])
def test_holonomy_builds_one_local_germ_per_distinct_map(monkeypatch, entry):
    # moebius-rotation-5 lists one rotation 5 times, moebius-inversion one inversion twice
    calls = []
    original = moebius_module.germ_at_fixed_point

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(moebius_module, "germ_at_fixed_point", counted)
    assert cli.run_corpus_entry(entry, 6, 10_000, None)["matched"]
    assert len(calls) == 1


def no_sign_search(monkeypatch):
    def sign_search(fld, c, *rest):
        raise AssertionError(f"the sign search ran on {c}")

    monkeypatch.setattr(moebius_module, "_sign_search", sign_search)


def fixed_points_from_the_square_root(m):
    """The eigendirections of the eigenvalues (t +- sqrt(disc)) / 2, sorted."""
    fld = m.field
    a, b, c, d = m.entries()
    s = cyclo_sqrt((a - d) * (a - d) + b * c * 4)
    points = set()
    for mu in ((a + d + s) * Fraction(1, 2), (a + d - s) * Fraction(1, 2)):
        if not b.is_zero():
            points.add(ProjectivePoint.make(b, mu - a))
        elif not c.is_zero():
            points.add(ProjectivePoint.make(mu - d, c))
        else:
            points.add(ProjectivePoint.infinity(fld) if mu == a
                       else ProjectivePoint.make(fld.zero(), fld.one()))
    return sorted(points, key=lambda p: p.sort_key())


@st.composite
def triangular_maps(draw):
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 8])))

    def entry(nonzero):
        num = draw(st.lists(st.integers(-3, 3), min_size=fld.degree, max_size=fld.degree))
        if nonzero and not any(num):
            num[0] = 1
        return fld.element([Fraction(c, draw(st.integers(1, 3))) for c in num])

    a, d, off = entry(True), entry(True), entry(False)
    zero = fld.zero()
    m = MoebiusMap(((a, off), (zero, d)) if draw(st.booleans()) else ((a, zero), (off, d)))
    if m.is_identity():
        m = MoebiusMap(((a, zero), (zero, a + 1 if not (a + 1).is_zero() else a * 2)))
    return m


@settings(max_examples=60, deadline=None)
@given(triangular_maps())
def test_triangular_fixed_points_take_no_square_root(m):
    want = fixed_points_from_the_square_root(m)
    calls = []
    original = moebius_module.cyclo_sqrt
    moebius_module.cyclo_sqrt = lambda a, *rest: calls.append(a) or original(a, *rest)
    try:
        got = fixed_points(m)
    finally:
        moebius_module.cyclo_sqrt = original
    assert got == want and calls == []
    assert all(m.apply(p) == p for p in got)


def test_rotation_5_runs_no_numeric_square_root(monkeypatch):
    no_sign_search(monkeypatch)
    assert cli.run_corpus_entry("moebius-rotation-5", 6, 10_000, None)["matched"]


def test_rational_roots_are_built_exactly(monkeypatch):
    """sqrt(d) for every squarefree |d| <= 30 in every Q(zeta_N), N <= 120, that
    holds it, by Gauss sums; the sign search never runs."""
    no_sign_search(monkeypatch)
    squarefree = [d for d in range(-30, 31) if d and all(d % (p * p) for p in (2, 3, 5))]
    checked = 0
    for n in range(1, 121):
        fld = field(n)
        for d in squarefree:
            if not moebius_module._rational_root_in_field(d, n):
                assert cyclo_sqrt(fld.rational(d)) is None
                continue
            for a in (fld.rational(d), fld.rational(4 * d, 9), fld.rational(25 * d, 49)):
                root = cyclo_sqrt(a)
                assert root is not None and root * root == a, (d, n)
            checked += 1
    assert checked > 300


def test_rational_root_at_conductor_40_is_quick(monkeypatch):
    no_sign_search(monkeypatch)
    a = field(40).rational(-5)
    started = time.perf_counter()
    root = cyclo_sqrt(a)
    assert time.perf_counter() - started < 1.0
    assert root * root == a
