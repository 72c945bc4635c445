from fractions import Fraction

import pytest

from germforge import cli, moebius as moebius_module
from germforge.cyclo import field
from germforge.groupkit import ClosureResult, GroupPresentation, check_basic_set, closure_enumerate
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
    rotation = MoebiusMap.scaling(F5.zeta())
    assert (moebius_order(rotation).kind, moebius_order(rotation).order) == ("finite", 5)
    assert moebius_order(MoebiusMap.inversion(F1)).order == 2
    assert moebius_order(MoebiusMap.identity(F1)).order == 1
    assert moebius_order(moebius(F1, [[2, 0], [0, 1]])).kind == "infinite"
    parabolic = moebius_order(moebius(F1, [[1, 1], [0, 1]]))
    assert parabolic.kind == "infinite" and "power 12 is not" in parabolic.certificate
    assert moebius_order(S).order == 2 and moebius_order(T).order == 2
    assert moebius_order(R3).order == 3


def test_fixed_points():
    zero, inf = ProjectivePoint.affine(F1.zero()), ProjectivePoint.infinity(F1)
    assert fixed_points(moebius(F1, [[2, 0], [0, 1]])) == [zero, inf]
    assert fixed_points(moebius(F1, [[1, 1], [0, 1]])) == [inf]
    one, minus_one = (ProjectivePoint.affine(F1.from_rational(x)) for x in (1, -1))
    assert sorted(fixed_points(S), key=lambda p: p.sort_key()) == sorted(
        [one, minus_one], key=lambda p: p.sort_key()
    )
    for m in (S, T):
        assert all(m.apply(p) == p for p in fixed_points(m))
    with pytest.raises(ValueError):
        fixed_points(MoebiusMap.identity(F1))


def test_germ_at_fixed_point_multiplier():
    rotation = MoebiusMap.scaling(F5.zeta())
    germ = germ_at_fixed_point(rotation, ProjectivePoint.affine(F5.zero()), 3)
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
    monkeypatch.setattr(moebius_module, "closure_enumerate", lambda pres, cap: infinite)
    verdict = holonomy_check([MoebiusMap.scaling(F5.zeta())] * 5)
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
    rotation = MoebiusMap.scaling(F5.zeta())
    verdict = holonomy_check([rotation, rotation.inverse()])
    assert verdict.finite_cyclic is False
    assert "commuting-generators" in verdict.detail


def test_generator_count_must_be_a_prime_power():
    with pytest.raises(ValueError, match="prime power"):
        holonomy_check([S] * 6)


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


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])  # degree <= 4 keeps the search fast
def test_conductor_rule_agrees_with_the_numeric_search(n):
    fld = field(n)
    for m in range(-15, 16):
        if m:
            a = fld.from_rational(m)
            found = moebius_module._numeric_sqrt(a, 60)
            assert (found is not None) == moebius_module._rational_root_in_field(m, n), (m, n)
            root = cyclo_sqrt(a)
            assert (root is not None) == (found is not None)
            assert root is None or root * root == a


def test_rational_sqrt_of_a_fraction():
    half = field(8).from_rational(Fraction(1, 2))
    root = cyclo_sqrt(half)
    assert root is not None and root * root == half
    assert cyclo_sqrt(field(7).from_rational(Fraction(1, 2))) is None
