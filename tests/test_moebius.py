import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germforge import cli, groupkit, moebius as moebius_module
from germforge.cyclo import OrderResult, cyclotomic_polynomial, field, is_prime_power
from germforge.groupkit import (
    GroupPresentation,
    check_basic_set,
    closure_enumerate,
    is_cyclic,
)
from germforge.moebius import MoebiusMap, cyclo_sqrt, holonomy_check, moebius_order

F1 = field(1)
F5 = field(5)


def moebius(fld, rows):
    return MoebiusMap(tuple(tuple(fld.from_rational(x) for x in row) for row in rows))


def listing(*maps):
    """The maps as a presentation, named g1..gn."""
    return GroupPresentation(tuple((f"g{i}", m) for i, m in enumerate(maps, start=1)))


def scaling(xi):
    """z -> xi z."""
    return MoebiusMap(((xi, xi.field.zero()), (xi.field.zero(), xi.field.one())))


# the anharmonic pair z -> 1/z and z -> 1 - z generates S3
S = moebius(F1, [[0, 1], [1, 0]])
T = moebius(F1, [[-1, 1], [0, 1]])
# z -> -1/(z - 1), order 3; its fixed points need sqrt(-3), which Q lacks
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


def test_rotation_composes_only_its_ordered_product(monkeypatch):
    """moebius-rotation-5 lists one map g five times: the ordered product g^5
    by square-and-multiply is its only 3 composes.  `check_basic_set` reads
    the product `holonomy_check` already composed, and no closure is listed."""
    def refuse(*args):
        raise AssertionError("a closure was enumerated")

    calls = []
    original = moebius_module.moebius_compose
    monkeypatch.setattr(groupkit, "closure_enumerate", refuse)
    monkeypatch.setattr(moebius_module, "moebius_compose",
                        lambda *args: calls.append(args) or original(*args))
    report = cli.run_corpus_entry("moebius-rotation-5", 6, 10_000, None)
    assert report["matched"]
    assert len(calls) == 3


def test_basic_set_on_moebius_presentation():
    report = check_basic_set(GroupPresentation((("a", S), ("b", S), ("c", T), ("d", T))))
    assert report.product_is_identity
    assert report.verdict == "irreducible-verified"
    assert report.conjugacy[(1, 2)].found


def test_exhausted_witness_search_is_unresolved_not_false():
    gens = listing(S, S, T, T)
    verdict = holonomy_check(gens, word_bound=0)
    assert verdict.finite_cyclic == "unresolved"
    assert "word length 0" in verdict.detail
    verdict = holonomy_check(gens, word_bound=6)
    assert verdict.finite_cyclic is False
    assert verdict.detail == (
        "generator pair (g1, g3): distinct but conjugate by g3*g1, so the group is not abelian")


def test_rotation_with_fixed_points_outside_the_field_is_decided():
    verdict = holonomy_check(listing(R3, R3, R3))
    assert (verdict.finite_cyclic, verdict.order, verdict.model) == (True, 3, "rotation")


def test_product_not_identity_is_false():
    verdict = holonomy_check(listing(S, T))
    assert verdict.finite_cyclic is False
    assert verdict.detail == "ordered product of generators is not the identity"


def test_non_conjugate_generators_are_disproved():
    rotation = scaling(F5.zeta())
    verdict = holonomy_check(listing(rotation, rotation.inverse()))
    assert verdict.finite_cyclic is False
    assert "commuting-generators" in verdict.detail


def test_generator_count_must_be_a_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        holonomy_check(listing(*[S] * 6))


@st.composite
def moebius_listings(draw):
    """2-4 maps drawn from a pool of finite- and infinite-order maps, one
    finite-order map listed ord(g) times, or S, S, T, T; the listing is
    conjugated by a drawn map h or left as it is."""
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 12])))
    one, zero = fld.one(), fld.zero()
    s, t = moebius(fld, [[0, 1], [1, 0]]), moebius(fld, [[-1, 1], [0, 1]])
    r3 = moebius(fld, [[0, -1], [1, -1]])
    finite = [s, t, r3, r3.inverse(), moebius(fld, [[0, 2], [1, 0]]), MoebiusMap.identity(fld),
              *(scaling(fld.zeta(k)) for k in range(1, fld.conductor))]
    pool = finite + [moebius(fld, [[2, 0], [0, 1]]), moebius(fld, [[1, 1], [0, 1]])]
    kind = draw(st.sampled_from(["any", "power", "anharmonic"]))
    if kind == "any":
        maps = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
    elif kind == "power":
        g = draw(st.sampled_from([m for m in finite if m.order().order == 1
                                  or is_prime_power(m.order().order) is not None]))
        maps = [g] * g.order().order
    else:
        maps = [s, s, t, t]
    if draw(st.booleans()):
        b, c = (fld.rational(draw(st.integers(-2, 2))) * fld.zeta(draw(st.integers(0, 11)))
                for _ in range(2))
        assume(not (one - b * c).is_zero())
        h = MoebiusMap(((one, b), (c, one)))
        maps = [h.compose(m).compose(h.inverse()) for m in maps]
    return maps


@settings(max_examples=200, deadline=None)
@given(moebius_listings())
def test_holonomy_verdict_agrees_with_the_closure(maps):
    """True means a closed cyclic closure of the reported order; False after
    a verified basic set means no closed cyclic closure."""
    pres = listing(*maps)
    verdict = holonomy_check(pres)
    if verdict.finite_cyclic is True:
        closure = closure_enumerate(pres, 2000)
        assert closure.status == "closed" and is_cyclic(closure) is not None
        assert closure.count == verdict.order
    elif verdict.finite_cyclic is False and check_basic_set(pres).verdict == "irreducible-verified":
        closure = closure_enumerate(pres, 2000)
        assert closure.status != "closed" or is_cyclic(closure) is None


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


def test_non_square_discriminant_is_decided_without_the_numeric_search(monkeypatch):
    # 3 does not divide 13, so sqrt(-3) is not in Q(zeta_13); the verdict
    # needs no square root, so the sign search over 2^11 sign choices never starts
    def sign_search(*args):
        raise AssertionError("the sign search ran")

    monkeypatch.setattr(moebius_module, "_sign_search", sign_search)
    m = conjugated_r3(13)
    assert m.order().order == 3
    (a, b), (c, d) = m.matrix
    assert (a - d) * (a - d) + b * c * 4 == field(13).zeta(2) * -3
    verdict = holonomy_check(listing(m, m, m))
    assert (verdict.finite_cyclic, verdict.order, verdict.model) == (True, 3, "rotation")


@pytest.mark.parametrize("n", [420, 1000])
def test_conjugated_rotation_has_order_three_at_large_conductors(n):
    # by powers of the map, each product renormalized by a field inverse,
    # this took seconds at N = 420 and minutes at N = 1000
    assert conjugated_r3(n).order() == OrderResult("finite", order=3)


def test_square_discriminant_still_resolves():
    # sqrt(-3) = 1 + 2*zeta_3 lies in Q(zeta_12)
    m = conjugated_r3(12)
    verdict = holonomy_check(listing(m, m, m))
    assert (verdict.finite_cyclic, verdict.order, verdict.model) == (True, 3, "rotation")


def test_conductor_84_is_decided_without_a_square_root(monkeypatch):
    # the fixed points need a root of -3*zeta^2; finding it by the sign search
    # over 2^23 sign choices took about a minute
    def refuse(*args):
        raise AssertionError("a square root was taken")

    monkeypatch.setattr(moebius_module, "_sign_search", refuse)
    monkeypatch.setattr(moebius_module, "cyclo_sqrt", refuse)
    m = conjugated_r3(84)
    verdict = holonomy_check(listing(m, m, m))
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
        "the listed maps are one map m1, of order 5; moebius closure has 5 elements")


def no_sign_search(monkeypatch):
    def sign_search(fld, c, *rest):
        raise AssertionError(f"the sign search ran on {c}")

    monkeypatch.setattr(moebius_module, "_sign_search", sign_search)


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
