import pytest

from germforge import cli
from germforge.cyclo import field
from germforge.groupkit import GroupPresentation, check_basic_set, closure_enumerate
from germforge.moebius import (
    MoebiusMap,
    ProjectivePoint,
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
