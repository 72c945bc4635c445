import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from germforge import corpus, jets
from germforge.cyclo import field
from germforge.documents import DocumentError, parse_document
from germforge.groupkit import closure_enumerate
from germforge.jets import (
    GermJet,
    ShapeMismatchError,
    char_poly,
    compose,
    conjugate,
    germ_order,
    invert,
    linear_order,
    mat_identity,
    mat_mul,
    power,
)

F1 = field(1)
F3 = field(3)
F4 = field(4)


def jet(fld, n, K, entries):
    return GermJet(n, K, fld, {(s, tuple(q)): c for (s, q, c) in entries})


def ex21_generators(K=2):
    """The conductor-3 sextuple (-z1, la z2) x4, (-z1+z2^2, la z2), (-z1+la^2 z2^2, la z2)."""
    lam = F3.zeta()
    one = F3.one()
    f1 = jet(F3, 2, K, [(0, (1, 0), -one), (1, (0, 1), lam)])
    f5 = jet(F3, 2, K, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), one)])
    f6 = jet(F3, 2, K, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), lam ** 2)])
    return f1, f5, f6


def random_jet(rng, fld, n, K, terms=3):
    """Random jet with unit diagonal-ish linear part plus sparse nonlinear terms."""
    coeffs = {}
    for s in range(n):
        coeffs[(s, tuple(1 if i == s else 0 for i in range(n)))] = fld.from_rational(
            rng.choice([1, -1, 2])
        )
    monos = []
    for deg in range(2, K + 1):
        stack = [(deg, ())]
        while stack:
            rest, pre = stack.pop()
            if len(pre) == n - 1:
                monos.append(pre + (rest,))
            else:
                for h in range(rest + 1):
                    stack.append((rest - h, pre + (h,)))
    for _ in range(terms):
        s = rng.randrange(n)
        q = rng.choice(monos)
        c = fld.element(
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(fld.degree)]
        )
        if not c.is_zero():
            coeffs[(s, q)] = c
    return GermJet(n, K, fld, coeffs)


# --- construction invariants -------------------------------------------------


def test_rejects_degree_out_of_range():
    with pytest.raises(ShapeMismatchError):
        jet(F1, 1, 2, [(0, (1,), F1.one()), (0, (3,), F1.one())])
    with pytest.raises(ShapeMismatchError):
        jet(F1, 1, 2, [(0, (0,), F1.one())])


def test_rejects_singular_linear_part():
    with pytest.raises(ValueError):
        jet(F1, 2, 1, [(0, (1, 0), F1.one()), (1, (1, 0), F1.one())])
    singular = {"conductor": 1, "dimension": 2, "generators": [{"name": "f", "coords": [
        [{"coeff": "1", "monomial": [1, 0]}], [{"coeff": "1", "monomial": [1, 0]}]]}]}
    with pytest.raises(DocumentError, match="^generators\\[0\\]: linear part is not invertible"):
        parse_document(singular)


def test_rejects_bad_key():
    with pytest.raises(ShapeMismatchError):
        jet(F1, 1, 1, [(1, (1,), F1.one())])
    with pytest.raises(ShapeMismatchError):
        jet(F1, 2, 1, [(0, (1,), F1.one())])


def test_zero_coefficients_dropped():
    j = jet(F1, 1, 2, [(0, (1,), F1.one()), (0, (2,), F1.zero())])
    assert (0, (2,)) not in j.coeffs


# --- composition ----------------------------------------------------------------


def test_compose_identity():
    rng = random.Random(1)
    g = random_jet(rng, F3, 2, 3)
    ident = GermJet.identity(F3, 2, 3)
    assert compose(ident, g) == g
    assert compose(g, ident) == g


def test_compose_shape_mismatch():
    a = GermJet.identity(F1, 1, 2)
    b = GermJet.identity(F1, 2, 2)
    with pytest.raises(ShapeMismatchError):
        compose(a, b)


def test_sextuple_product_is_identity():
    f1, f5, f6 = ex21_generators()
    prod = f1
    for g in (f1, f1, f1, f5, f6):
        prod = compose(prod, g)
    assert prod.is_identity()


def test_f1_pow4_f5_f1():
    f1, f5, _ = ex21_generators()
    lam = F3.zeta()
    got = compose(compose(power(f1, 4), f5), f1)
    want = jet(F3, 2, 2, [(0, (1, 0), F3.one()), (1, (0, 1), F3.one()), (0, (0, 2), lam ** 2)])
    assert got == want


# --- inversion --------------------------------------------------------------------


def test_invert_identity():
    ident = GermJet.identity(F4, 2, 3)
    assert invert(ident) == ident


def test_invert_linear_diag():
    i = F4.zeta()
    a = jet(F4, 2, 1, [(0, (1, 0), i), (1, (0, 1), -i)])
    want = jet(F4, 2, 1, [(0, (1, 0), -i), (1, (0, 1), i)])
    assert invert(a) == want


def test_invert_quadratic_example():
    # -z + z^2 at K=3 inverts to -z + z^2 - 2z^3 (solved degree by degree by hand)
    f = jet(F1, 1, 3, [(0, (1,), F1.from_rational(-1)), (0, (2,), F1.one())])
    g = invert(f)
    want = jet(
        F1, 1, 3,
        [(0, (1,), F1.from_rational(-1)), (0, (2,), F1.one()), (0, (3,), F1.from_rational(-2))],
    )
    assert g == want
    assert compose(f, g).is_identity()
    assert compose(g, f).is_identity()


def test_group_axioms_random():
    rng = random.Random(23)
    for _ in range(30):
        fld = field(rng.choice([1, 2, 3, 4]))
        f = random_jet(rng, fld, 2, 3)
        g = random_jet(rng, fld, 2, 3)
        h = random_jet(rng, fld, 2, 3)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(f, invert(f)).is_identity()
        assert compose(invert(f), f).is_identity()
        assert invert(invert(f)) == f


def test_truncation_coherence():
    rng = random.Random(29)
    for _ in range(20):
        f = random_jet(rng, F3, 2, 4, terms=4)
        g = random_jet(rng, F3, 2, 4, terms=4)
        assert compose(f, g).truncate(2) == compose(f.truncate(2), g.truncate(2))
        assert compose(f, g).truncate(3) == compose(f.truncate(3), g.truncate(3))


def test_linear_part_of_composition_is_product():
    rng = random.Random(31)
    for _ in range(20):
        f = random_jet(rng, F4, 2, 3)
        g = random_jet(rng, F4, 2, 3)
        assert compose(f, g).linear_matrix() == mat_mul(f.linear_matrix(), g.linear_matrix())


# --- conjugation -----------------------------------------------------------------


def test_conjugate_by_identity():
    rng = random.Random(37)
    f = random_jet(rng, F3, 2, 3)
    assert conjugate(GermJet.identity(F3, 2, 3), f) == f


def test_paper_conjugacy_witness():
    f1, f5, _ = ex21_generators()
    g1 = compose(compose(power(f1, 4), f5), f1)
    assert conjugate(g1, f5) == f1
    assert compose(f1, g1) == compose(g1, f5)


def test_conjugation_preserves_charpoly():
    rng = random.Random(41)
    for _ in range(15):
        f = random_jet(rng, F4, 2, 1, terms=0)
        h = random_jet(rng, F4, 2, 1, terms=0)
        assert char_poly(conjugate(h, f).linear_matrix()) == char_poly(f.linear_matrix())


# --- powers ------------------------------------------------------------------------


def test_power_zero_is_identity():
    rng = random.Random(43)
    f = random_jet(rng, F3, 2, 3)
    assert power(f, 0).is_identity()


def test_translation_like_powers_never_identity():
    f1, f5, _ = ex21_generators()
    lam = F3.zeta()
    g1 = compose(compose(power(f1, 4), f5), f1)
    for n in range(1, 8):
        want = jet(
            F3, 2, 2,
            [(0, (1, 0), F3.one()), (1, (0, 1), F3.one()), (0, (0, 2), lam ** 2 * n)],
        )
        assert power(g1, n) == want
        assert not power(g1, n).is_identity()


def test_diag_i_minus_i_fourth_power():
    i = F4.zeta()
    a = jet(F4, 2, 1, [(0, (1, 0), i), (1, (0, 1), -i)])
    assert power(a, 4).is_identity()
    assert not power(a, 2).is_identity()


def test_tangent_to_identity_power_law():
    rng = random.Random(47)
    for _ in range(15):
        k = rng.choice([2, 3])
        base = GermJet.identity(F3, 2, 3)
        coeffs = dict(base.coeffs)
        slice_terms = {}
        for _ in range(2):
            q = tuple(rng.choice([(k, 0), (0, k), (1, k - 1)]))
            s = rng.randrange(2)
            c = F3.element([rng.randint(-2, 2), rng.randint(-2, 2)])
            if not c.is_zero():
                slice_terms[(s, q)] = slice_terms.get((s, q), F3.zero()) + c
        coeffs.update({key: c for key, c in slice_terms.items() if not c.is_zero()})
        f = GermJet(2, 3, F3, coeffs)
        for m in (2, 3, 5):
            fm = power(f, m)
            for key, c in f.degree_slice(k).items():
                assert fm.coeff(*key) == c * m


# --- chain rule cross-check ----------------------------------------------------------


def _derivative_at_zero(j, s, idxs):
    """Partial derivative of coordinate s with respect to z_{idxs} at 0."""
    q = [0] * j.n
    for i in idxs:
        q[i] += 1
    c = j.coeff(s, tuple(q))
    scale = 1
    for e in q:
        scale *= math.factorial(e)
    return c * scale


def test_chain_rule_degree_2_and_3():
    rng = random.Random(53)
    n = 2
    for _ in range(10):
        f = random_jet(rng, F3, n, 3, terms=4)
        g = random_jet(rng, F3, n, 3, terms=4)
        comp = compose(f, g)
        idx_pairs = [(r1, r2) for r1 in range(n) for r2 in range(n)]
        for s in range(n):
            for (r1, r2) in idx_pairs:
                lhs = _derivative_at_zero(comp, s, (r1, r2))
                rhs = F3.zero()
                for k1 in range(n):
                    for k2 in range(n):
                        rhs = rhs + (
                            _derivative_at_zero(f, s, (k1, k2))
                            * _derivative_at_zero(g, k2, (r2,))
                            * _derivative_at_zero(g, k1, (r1,))
                        )
                for k in range(n):
                    rhs = rhs + _derivative_at_zero(f, s, (k,)) * _derivative_at_zero(g, k, (r1, r2))
                assert lhs == rhs
            for (r1, r2, r3) in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
                lhs = _derivative_at_zero(comp, s, (r1, r2, r3))
                rhs = F3.zero()
                for k1 in range(n):
                    for k2 in range(n):
                        for k3 in range(n):
                            rhs = rhs + (
                                _derivative_at_zero(f, s, (k1, k2, k3))
                                * _derivative_at_zero(g, k3, (r3,))
                                * _derivative_at_zero(g, k2, (r2,))
                                * _derivative_at_zero(g, k1, (r1,))
                            )
                for k in range(n):
                    rhs = rhs + _derivative_at_zero(f, s, (k,)) * _derivative_at_zero(
                        g, k, (r1, r2, r3)
                    )
                for k1 in range(n):
                    for k2 in range(n):
                        d2f = _derivative_at_zero(f, s, (k1, k2))
                        rhs = rhs + d2f * (
                            _derivative_at_zero(g, k2, (r3, r2)) * _derivative_at_zero(g, k1, (r1,))
                            + _derivative_at_zero(g, k2, (r3, r1)) * _derivative_at_zero(g, k1, (r2,))
                            + _derivative_at_zero(g, k2, (r2, r1)) * _derivative_at_zero(g, k1, (r3,))
                        )
                assert lhs == rhs


# --- linear and germ orders -----------------------------------------------------------


def m2(fld, rows):
    return tuple(tuple(fld.from_rational(x) for x in r) for r in rows)


def test_linear_order_identity():
    assert linear_order(mat_identity(F1, 2)).order == 1


def test_linear_order_bc_infinite_certificate():
    b = m2(F1, [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]])
    c = m2(F1, [[Fraction(-1, 2), 2], [Fraction(3, 8), Fraction(1, 2)]])
    bc = mat_mul(b, c)
    assert bc == m2(F1, [[Fraction(5, 8), Fraction(-1, 2)], [Fraction(-3, 16), Fraction(7, 4)]])
    res = linear_order(bc)
    assert res.is_infinite
    # every finite order of a 2x2 matrix over Q divides 12
    assert "power 12 is not the identity" in res.certificate


def test_linear_order_ab_is_three():
    a = m2(F1, [[1, 0], [0, -1]])
    b = m2(F1, [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]])
    ab = mat_mul(a, b)
    assert linear_order(ab).order == 3
    # power-iteration oracle
    cur = ab
    found = None
    for m in range(1, 10):
        if cur == mat_identity(F1, 2):
            found = m
            break
        cur = mat_mul(cur, ab)
    assert found == 3


def test_linear_order_unipotent_triangular_infinite():
    a = m2(F1, [[1, 0], [1, 1]])
    assert linear_order(a).is_infinite


def test_linear_order_diagonal_lcm():
    i = F4.zeta()
    a = ((i, F4.zero()), (F4.zero(), F4.from_rational(-1)))
    assert linear_order(a).order == 4


def test_linear_order_matches_power_iteration_on_random_finite():
    rng = random.Random(59)
    ident = mat_identity(F1, 2)
    finite_samples = [
        m2(F1, [[0, -1], [1, 0]]),
        m2(F1, [[0, -1], [1, -1]]),
        m2(F1, [[1, 0], [0, -1]]),
        m2(F1, [[0, 1], [1, 0]]),
    ]
    for a in finite_samples:
        res = linear_order(a)
        cur = a
        oracle = None
        for m in range(1, 30):
            if cur == ident:
                oracle = m
                break
            cur = mat_mul(cur, a)
        assert res.order == oracle
    # conjugated copies keep the order
    for a in finite_samples:
        h = m2(F1, [[1, rng.randint(-3, 3)], [0, 1]])
        h_inv = m2(F1, [[1, -h[0][1].as_rational()], [0, 1]])
        conj = mat_mul(mat_mul(h, a), h_inv)
        assert linear_order(conj).order == linear_order(a).order


def test_germ_order_examples():
    assert germ_order(GermJet.identity(F1, 1, 2)).order == 1
    f = jet(F1, 1, 2, [(0, (1,), F1.one()), (0, (2,), F1.one())])
    assert germ_order(f).is_infinite
    i = F4.zeta()
    a = jet(F4, 2, 1, [(0, (1, 0), i), (1, (0, 1), -i)])
    assert germ_order(a).order == 4


def test_germ_order_finite_is_minimal():
    lam = F3.zeta()
    a = jet(F3, 1, 2, [(0, (1,), lam)])
    res = germ_order(a)
    assert res.order == 3
    assert power(a, 3).is_identity()
    assert not power(a, 1).is_identity()


def test_finite_order_nonlinear_germ():
    # f5 of the sextuple has order 6 despite its quadratic term
    _, f5, _ = ex21_generators()
    assert germ_order(f5).order == 6
    assert power(f5, 6).is_identity()


# --- trusted construction of group-operation results --------------------------


@st.composite
def invertible_jets(draw, fld, n, K):
    """A jet with small coefficients in Z[zeta_N] and an invertible linear part."""
    values = [fld.zero(), fld.one(), -fld.one(), fld.from_rational(2), fld.zeta()]
    keys = [(s, q) for s in range(n) for q in jets.iter_multiindices(n, 1)]
    higher = [(s, q) for s in range(n) for d in range(2, K + 1) for q in jets.iter_multiindices(n, d)]
    if higher:
        keys += draw(st.lists(st.sampled_from(higher), max_size=4, unique=True))
    coeffs = {key: draw(st.sampled_from(values)) for key in keys}
    try:
        return GermJet(n, K, fld, coeffs)
    except ValueError:
        assume(False)


@st.composite
def jet_pairs(draw):
    fld = field(draw(st.sampled_from([1, 3, 4])))
    n, K = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    return draw(invertible_jets(fld, n, K)), draw(invertible_jets(fld, n, K))


@settings(max_examples=40, deadline=None)
@given(jet_pairs(), st.integers(-3, 3))
def test_group_operation_results_equal_validated_jets(pair, m):
    f, g = pair
    for r in (compose(f, g), invert(f), power(f, m), GermJet.identity(*f.shape)):
        validated = GermJet(r.n, r.K, r.field, r.coeffs)
        assert r == validated
        assert r.canonical_key() == validated.canonical_key()
        assert hash(r) == hash(validated)
        assert not any(c.is_zero() for c in r.coeffs.values())


def test_closure_runs_no_determinant(monkeypatch):
    """Only validated input pays for `mat_det`; closure results are trusted."""
    g = corpus.load("prop-5-1-4").presentation()
    calls = []
    original = jets.mat_det
    monkeypatch.setattr(jets, "mat_det", lambda a: calls.append(a) or original(a))
    result = closure_enumerate(g)
    assert (result.status, result.count) == ("closed", 18)
    assert calls == []
