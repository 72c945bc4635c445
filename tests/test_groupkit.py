import random
from fractions import Fraction

import pytest

from germforge.cyclo import field, root_of_unity_order
from germforge.groupkit import (
    AffineFamily,
    GroupPresentation,
    LinearizationFailure,
    LinearizationSuccess,
    WordError,
    affine_conjugacy_bruteforce,
    affine_conjugacy_decide,
    check_basic_set,
    check_product_identity,
    closure_enumerate,
    evaluate_word,
    find_conjugacy_witness,
    format_word,
    is_cyclic,
    linearize_group,
    parse_word,
    slice_morphism_report,
)
from germforge.jets import GermJet, compose, conjugate, invert, power

F1 = field(1)
F3 = field(3)
F4 = field(4)


def jet(fld, n, K, entries):
    return GermJet(n, K, fld, {(s, tuple(q)): c for (s, q, c) in entries})


def linear_jet(fld, rows, K=1):
    n = len(rows)
    entries = []
    for s in range(n):
        for i, v in enumerate(rows[s]):
            c = fld.from_rational(v) if not hasattr(v, "field") else v
            if not c.is_zero():
                entries.append((s, tuple(1 if t == i else 0 for t in range(n)), c))
    return jet(fld, n, K, entries)


def ex21_presentation(with_witnesses=False):
    lam = F3.zeta()
    one = F3.one()
    f1 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam)])
    f5 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), one)])
    f6 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), lam ** 2)])
    gens = tuple(zip(("f1", "f2", "f3", "f4", "f5", "f6"), (f1, f1, f1, f1, f5, f6)))
    witnesses = {}
    if with_witnesses:
        witnesses = {(0, 4): "f1^4*f5*f1", (0, 5): "f5*f1^5", (4, 5): "f5^2*f1^4"}
    return GroupPresentation(gens, witnesses)


def prop_512_presentation():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -i]])
    b = linear_jet(F4, [[0, 1], [1, 0]])
    return GroupPresentation((("A", a), ("B", b)))


def prop_513_presentation():
    a = linear_jet(F1, [[1, 0], [0, -1]])
    b = linear_jet(F1, [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]])
    c = linear_jet(F1, [[Fraction(-1, 2), 2], [Fraction(3, 8), Fraction(1, 2)]])
    return GroupPresentation(
        (("A", a), ("B", b), ("B2", b), ("C", c), ("C2", c), ("A2", a))
    )


def prop_514_presentation():
    a = [[1, 0], [0, -1]]
    b = [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]]

    def block(p, q):
        rows = [[0] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                rows[r][c] = p[r][c]
                rows[r + 2][c + 2] = q[r][c]
        return linear_jet(F1, rows)

    return GroupPresentation(
        (
            ("DAA", block(a, a)),
            ("DAB", block(a, b)),
            ("DBB", block(b, b)),
            ("DBA", block(b, a)),
        )
    )


# --- words ---------------------------------------------------------------------


def test_word_round_trip():
    assert parse_word("f1^4*f5*f1") == [("f1", 4), ("f5", 1), ("f1", 1)]
    assert parse_word("") == []
    assert format_word([("f1", 1), ("f1", 3), ("f5", 1)]) == "f1^4*f5"
    with pytest.raises(WordError):
        parse_word("f1^^2")


def test_evaluate_word_matches_manual_composition():
    g = ex21_presentation()
    by_name = dict(g.generators)
    got = evaluate_word(g, "f1^4*f5*f1")
    want = compose(compose(power(by_name["f1"], 4), by_name["f5"]), by_name["f1"])
    assert got == want
    assert evaluate_word(g, "").is_identity()
    assert evaluate_word(g, "f1^-1*f1").is_identity()


# --- condition (a) ----------------------------------------------------------------


def test_product_identity_single_identity_generator():
    pres = GroupPresentation((("e", GermJet.identity(F1, 1, 2)),))
    ok, residual = check_product_identity(pres)
    assert ok and residual.is_identity()


def test_product_identity_sextuple():
    ok, residual = check_product_identity(ex21_presentation())
    assert ok and residual.is_identity()


def test_product_identity_fails_for_pair():
    i = F4.zeta()
    pres = prop_512_presentation()
    ok, residual = check_product_identity(pres)
    assert not ok
    # A o B = antidiagonal(i, -i)
    assert residual == linear_jet(F4, [[0, i], [-i, 0]])


def test_product_identity_triangular_triple():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    ct = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]])
    ok, _ = check_product_identity(GroupPresentation((("At", at), ("Bt", bt), ("Ct", ct))))
    assert ok


# --- witnesses -----------------------------------------------------------------------


def test_same_index_gives_empty_word():
    g = ex21_presentation()
    assert find_conjugacy_witness(g, 2, 2).word == ""


def test_witness_found_and_verifies():
    g = ex21_presentation()
    res = find_conjugacy_witness(g, 0, 4)
    assert res.found
    w = evaluate_word(g, res.word)
    assert conjugate(w, g.elements[4]) == g.elements[0]
    assert len(parse_word(res.word)) <= 6


def test_supplied_witness_is_verified_and_echoed():
    g = ex21_presentation(with_witnesses=True)
    res = find_conjugacy_witness(g, 0, 4)
    assert res.word == "f1^4*f5*f1"
    bad = GroupPresentation(g.generators, {(0, 4): "f1^2"})
    with pytest.raises(ValueError):
        find_conjugacy_witness(bad, 0, 4)


def test_order_prescreen_disproves():
    g = prop_512_presentation()
    res = find_conjugacy_witness(g, 0, 1)
    assert res.status == "disproved"
    assert "order-mismatch" in res.reason and "4" in res.reason and "2" in res.reason


def test_abelian_prescreen_disproves():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    g = GroupPresentation((("At", at), ("Bt", bt)))
    res = find_conjugacy_witness(g, 0, 1)
    assert res.status == "disproved"
    assert "abelian" in res.reason


# --- basic set reports -----------------------------------------------------------------


def test_basic_set_sextuple_verified():
    report = check_basic_set(ex21_presentation())
    assert report.verdict == "irreducible-verified"
    assert report.product_is_identity
    assert len(report.conjugacy) == 15
    assert all(r.found for r in report.conjugacy.values())


def test_basic_set_5_1_1a():
    a = linear_jet(F1, [[2, 0], [0, 1]])
    b = linear_jet(F1, [[2, 0], [1, 1]])
    g = GroupPresentation((("A", a), ("B", b)))
    report = check_basic_set(g)
    assert report.verdict == "condition-a-failed"
    res = report.conjugacy[(0, 1)]
    assert res.found
    w = evaluate_word(g, res.word)
    assert conjugate(w, b) == a
    # the witness H = B^{-1} A from the generators themselves
    h = compose(invert(b), a)
    assert h == linear_jet(F1, [[1, 0], [-1, 1]])
    assert conjugate(h, b) == a


def test_basic_set_5_1_1b_unresolved_with_disproofs():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    ct = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]])
    report = check_basic_set(GroupPresentation((("At", at), ("Bt", bt), ("Ct", ct))))
    assert report.product_is_identity
    assert report.verdict == "condition-b-unresolved"
    assert all(r.status == "disproved" for r in report.conjugacy.values())


def test_basic_set_5_1_4_verified():
    report = check_basic_set(prop_514_presentation())
    assert report.verdict == "irreducible-verified"


# --- closures -----------------------------------------------------------------------------


def test_closure_identity_only():
    pres = GroupPresentation((("e", GermJet.identity(F1, 1, 1)),))
    res = closure_enumerate(pres)
    assert res.status == "closed" and res.count == 1


def test_closure_5_1_2_exactly_the_printed_eight():
    res = closure_enumerate(prop_512_presentation())
    assert res.status == "closed"
    i = F4.zeta()
    matrices = [
        [[1, 0], [0, 1]],
        [[i, 0], [0, -i]],
        [[0, 1], [1, 0]],
        [[-1, 0], [0, -1]],
        [[-i, 0], [0, i]],
        [[0, -1], [-1, 0]],
        [[0, i], [-i, 0]],
        [[0, -i], [i, 0]],
    ]
    want = {linear_jet(F4, m) for m in matrices}
    assert set(res.elements) == want


def test_closure_5_1_2_not_cyclic():
    res = closure_enumerate(prop_512_presentation())
    assert is_cyclic(res.elements) is None


def test_closure_block_group_order_18_by_independent_oracle():
    # independent closure via raw matrix tuples
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    b = ((Fraction(-1, 2), Fraction(1)), (Fraction(3, 4), Fraction(1, 2)))

    def mul(x, y):
        return tuple(
            tuple(sum(x[r][t] * y[t][c] for t in range(len(y))) for c in range(len(y[0])))
            for r in range(len(x))
        )

    def block(p, q):
        m = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                m[r][c] = p[r][c]
                m[r + 2][c + 2] = q[r][c]
        return tuple(tuple(row) for row in m)

    gens = [block(a, a), block(a, b), block(b, b), block(b, a)]
    ident = tuple(tuple(Fraction(1) if r == c else Fraction(0) for c in range(4)) for r in range(4))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = mul(e, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    assert len(seen) == 18

    res = closure_enumerate(prop_514_presentation())
    assert res.status == "closed"
    assert res.count == 18
    assert is_cyclic(res.elements) is None


def test_closure_cap_exceeded():
    res = closure_enumerate(prop_513_presentation(), cap=200)
    assert res.status == "cap-exceeded"
    assert res.count > 200


def test_is_cyclic_small_cases():
    e = GermJet.identity(F1, 1, 1)
    assert is_cyclic([e]) == e
    f5c = field(5)
    g = linear_jet(f5c, [[f5c.zeta(), 0], [0, f5c.zeta(2)]])
    elements = [power(g, k) for k in range(5)]
    assert is_cyclic(elements) is not None
    with pytest.raises(ValueError):
        is_cyclic([g])  # not closed


def test_basic_set_5_1_3_verified_and_bc_infinite():
    pres = prop_513_presentation()
    report = check_basic_set(pres)
    assert report.verdict == "irreducible-verified"
    from germforge.jets import germ_order

    bc = evaluate_word(pres, "B*C")
    res = germ_order(bc)
    assert res.is_infinite
    assert "power 12 is not the identity" in res.certificate


# --- slice morphisms -----------------------------------------------------------------------


def test_resonant_character_example():
    lam = F1.from_rational(-1)
    f = jet(F1, 1, 3, [(0, (1,), lam), (0, (3,), F1.one())])
    g = jet(F1, 1, 3, [(0, (1,), lam), (0, (3,), F1.from_rational(2))])
    pres = GroupPresentation((("f", f), ("g", g)))
    entries = slice_morphism_report(pres, 3)
    entry = next(e for e in entries if e.resonant)
    assert entry.phi_values == (F1.from_rational(-1), F1.from_rational(-2))
    assert entry.additive_on_pairs
    assert entry.phi_sum == F1.from_rational(-3)
    assert not entry.product_forces_zero
    # direct cross-check of the composed coefficient
    comp = compose(f, g)
    assert comp.coeff(0, (3,)) == F1.from_rational(-3)


def test_all_linear_gives_zero_characters():
    lam = F3.zeta()
    a = linear_jet(F3, [[lam, 0], [0, lam]], K=2)
    pres = GroupPresentation((("a", a), ("b", a)))
    for entry in slice_morphism_report(pres, 2):
        if entry.resonant:
            assert all(v.is_zero() for v in entry.phi_values)
        else:
            assert all(t.is_zero() for t in entry.family.translations)


def test_sextuple_nonresonant_family():
    entries = slice_morphism_report(ex21_presentation(), 2)
    lam = F3.zeta()
    entry = next(e for e in entries if e.coord == 0 and e.monomial == (0, 2))
    assert not entry.resonant
    # eta = lambda_1 / lambda^Q = -1/lam^2, of order 6
    assert entry.family.multiplier == -(lam ** 2).inverse()
    assert entry.multiplier_order == 6
    # translations beta_i = a_i / lambda^Q with lambda^Q = lam^2
    want = (
        F3.zero(), F3.zero(), F3.zero(), F3.zero(),
        (lam ** 2).inverse(), F3.one(),
    )
    assert entry.family.translations == want
    # mixed-prime spectrum: no nominal single-prime order to compare against
    assert entry.nominal_order is None


def test_slice_morphism_preconditions():
    lam = F3.zeta()
    a = linear_jet(F3, [[lam, 0], [0, 1]], K=3)
    b = jet(F3, 2, 3, [(0, (1, 0), lam), (1, (0, 1), F3.one()), (0, (0, 2), F3.one())])
    with pytest.raises(ValueError):
        slice_morphism_report(GroupPresentation((("a", a), ("b", b))), 3)


# --- affine criterion -----------------------------------------------------------------------


def test_affine_decide_examples():
    f4 = field(4)
    i = f4.zeta()
    ok, reason = affine_conjugacy_decide(AffineFamily(i, (f4.zero(), f4.zero(), f4.zero())))
    assert ok and "prime power" in reason
    ok, _ = affine_conjugacy_decide(AffineFamily(i, (f4.zero(), f4.one())))
    assert not ok
    f6 = field(6)
    eta = f6.zeta()
    assert root_of_unity_order(eta) == 6
    ok, reason = affine_conjugacy_decide(
        AffineFamily(eta, (f6.zero(), f6.one(), f6.zeta(2)))
    )
    assert ok and "distinct prime divisors" in reason


def test_affine_decide_rejects_trivial_multiplier():
    with pytest.raises(ValueError):
        affine_conjugacy_decide(AffineFamily(F1.one(), (F1.zero(),)))
    with pytest.raises(ValueError):
        affine_conjugacy_decide(AffineFamily(F1.from_rational(2), (F1.zero(),)))


def test_affine_oracle_agrees_on_small_sample():
    for ell in (2, 3, 4, 6):
        fld = field(ell)
        eta = fld.zeta()
        for translations in (
            (fld.zero(), fld.zero()),
            (fld.zero(), fld.one()),
            (fld.one(), fld.zeta() if ell > 1 else fld.one()),
        ):
            family = AffineFamily(eta, translations)
            want, _ = affine_conjugacy_decide(family)
            assert affine_conjugacy_bruteforce(family, word_bound=8) == want


# --- linearization ---------------------------------------------------------------------------


def test_linearize_trivial_linear_group():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -1]], K=3)
    pres = GroupPresentation((("a1", a), ("a2", a), ("a3", a), ("a4", a)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationSuccess)
    assert out.conjugator.is_identity()
    assert out.group_order == 4


def test_linearize_synthetic_conjugated_group():
    # psi = Id + (z2^2, 0), A = diag(i, -1): generators psi o A o psi^{-1} x4
    i = F4.zeta()
    K = 4
    a = linear_jet(F4, [[i, 0], [0, -1]], K=K)
    psi = GermJet(
        2, K, F4,
        {(0, (1, 0)): F4.one(), (1, (0, 1)): F4.one(), (0, (0, 2)): F4.one()},
    )
    f = conjugate(psi, a)
    assert not f.is_linear()
    pres = GroupPresentation(tuple((f"g{k}", f) for k in range(1, 5)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationSuccess)
    for j in pres.elements:
        assert conjugate(out.conjugator, j) == a


def test_linearize_rejects_mixed_prime_spectrum():
    out = linearize_group(ex21_presentation())
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "precondition-violated"
    assert out.eigenvalue_orders == (2, 3)
    assert "distinct primes" in out.detail


def test_linearize_reports_differing_generators():
    # 4 generators iz + a_k z^2 with a = (1, 0, 1, 0): product is Id at K=2
    i = F4.zeta()
    f_a = jet(F4, 1, 2, [(0, (1,), i), (0, (2,), F4.one())])
    f_b = jet(F4, 1, 2, [(0, (1,), i)])
    pres = GroupPresentation((("g1", f_a), ("g2", f_b), ("g3", f_a), ("g4", f_b)))
    ok, _ = check_product_identity(pres)
    assert ok
    out = linearize_group(pres)
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "generators-differ"
    assert out.degree == 2


def test_linearize_rejects_broken_product():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -1]], K=2)
    pres = GroupPresentation((("a1", a), ("a2", a), ("a3", a)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "precondition-violated"
    assert "product" in out.detail


def test_linearize_cross_validates_with_closure():
    rng = random.Random(71)
    for _ in range(8):
        p, s = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1)])
        order = p ** s
        fld = field(order)
        n = rng.choice([1, 2])
        K = rng.choice([2, 3, 4])
        diag = [fld.zeta(rng.randrange(order)) for _ in range(n)]
        if all((d ** 1).is_one() for d in diag):
            diag[0] = fld.zeta(1)
        rows = [[diag[r] if r == c else fld.zero() for c in range(n)] for r in range(n)]
        a = GermJet.from_linear(tuple(tuple(r) for r in rows), K)
        coeffs = dict(GermJet.identity(fld, n, K).coeffs)
        for _ in range(2):
            sdx = rng.randrange(n)
            q = tuple(rng.choice([2, 0, 1]) for _ in range(n))
            if 2 <= sum(q) <= K:
                c = fld.element([rng.randint(-2, 2) for _ in range(fld.degree)])
                if not c.is_zero():
                    coeffs[(sdx, q)] = c
        psi = GermJet(n, K, fld, coeffs)
        f = conjugate(psi, a)
        count = order
        pres = GroupPresentation(tuple((f"g{k}", f) for k in range(count)))
        closure = closure_enumerate(pres, cap=2000)
        assert closure.status == "closed"
        gen = is_cyclic(closure.elements)
        assert gen is not None  # cyclic of prime-power order
        out = linearize_group(pres)
        assert isinstance(out, LinearizationSuccess)
        linear_target = GermJet.from_linear(f.linear_matrix(), K)
        for j in pres.elements:
            assert conjugate(out.conjugator, j) == linear_target
