import cProfile
import itertools
import math
import pstats
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from germforge import corpus, cyclo, jets
from germforge.cyclo import (
    CycloField,
    CycloNum,
    binary_power,
    element_order,
    field,
    root_of_unity_order,
    torsion_exponent,
)
from germforge.documents import DocumentError, parse_document
from germforge.groupkit import check_basic_set, closure_enumerate
from germforge.jets import (
    GermJet,
    ShapeMismatchError,
    char_poly,
    compose,
    conjugate,
    germ_order,
    invert,
    linear_order,
    mat_det,
    mat_identity,
    mat_inv,
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


# --- integer keys and the determinant's inverses -------------------------------------


@settings(max_examples=40, deadline=None)
@given(jet_pairs())
def test_equal_jets_hash_equal_however_built(pair):
    f, g = pair
    fg = compose(f, g)
    same = (
        GermJet(fg.n, fg.K, fg.field, dict(fg.coeffs)),  # validated
        invert(invert(fg)),
        compose(fg, compose(invert(g), g)),
        compose(f, compose(g, compose(invert(f), f))),
    )
    for other in same:
        assert other == fg and hash(other) == hash(fg)
    identity = GermJet.identity(*f.shape)
    for other in (compose(f, invert(f)), compose(invert(g), g), power(f, 0)):
        assert other == identity and hash(other) == hash(identity)


def test_equal_jets_from_rational_and_field_coefficients():
    half = F1.element([Fraction(1, 2)])
    from_fractions = jet(F1, 1, 3, [(0, (1,), Fraction(2, 4)), (0, (3,), 3)])
    from_field = jet(F1, 1, 3, [(0, (1,), half), (0, (3,), F1.from_rational(6) * half)])
    assert from_fractions == from_field and hash(from_fractions) == hash(from_field)
    assert from_fractions != jet(F1, 1, 3, [(0, (1,), Fraction(1, 2))])


def _leibniz_det(a):
    n = len(a)
    total = a[0][0].field.zero()
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = a[0][0].field.one()
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term * sign
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mat_det_inverts_every_pivot_but_the_last(n, monkeypatch):
    """Elimination over the field inverts every pivot but the last; the
    fraction-free kernel's Bareiss elimination inverts no field element."""
    rng = random.Random(n)
    calls = []
    inverse = CycloNum.inverse
    monkeypatch.setattr(CycloNum, "inverse", lambda self: calls.append(self) or inverse(self))
    nonsingular = 0
    for fld in (F1, F3, F4):
        values = [fld.zero(), fld.one(), -fld.one(), fld.from_rational(Fraction(3, 2)), fld.zeta()]
        for _ in range(10):
            a = tuple(tuple(rng.choice(values) for _ in range(n)) for _ in range(n))
            calls.clear()
            det = jets.mat_det(a)
            calls_made = len(calls)
            assert det == _leibniz_det(a)
            assert calls_made == 0
            if not det.is_zero():
                nonsingular += 1
    assert nonsingular >= 10


def test_elimination_takes_no_norm_for_the_determinant_of_the_last_pivot(monkeypatch):
    """On a fixed 4 x 4 matrix over Q(zeta_5), `mat_det` divides by the two
    inner pivots and never by the last one, and `mat_inv` divides by the
    three inner pivots and then by the last; one of the first two pivots and
    two of the last three lie outside Q, so each needs a norm."""
    z = field(5).zeta()
    a = tuple(tuple(z ** ((3 * i + 2 * j) % 5) + 2 * (i == j) + j * z for j in range(4))
              for i in range(4))
    det, inv = reference_det(a), reference_inv(a)
    calls = []
    adjugate = CycloField._norm_adjugate
    monkeypatch.setattr(CycloField, "_norm_adjugate",
                        lambda fld, v: calls.append(any(v[1:])) or adjugate(fld, v))
    assert jets.mat_det(a) == det
    assert sum(calls) == 1
    calls.clear()
    assert jets.mat_inv(a) == inv
    assert sum(calls) == 3


def test_parsing_inverts_once_per_two_by_two_generator(monkeypatch):
    """Each of the 36 generators is validated by `mat_det`, which inverted its
    pivot over the field; the fraction-free determinant inverts nothing."""
    calls = []
    inverse = CycloNum.inverse
    monkeypatch.setattr(CycloNum, "inverse", lambda self: calls.append(self) or inverse(self))
    doc = corpus.load("ex-2-3")
    assert (doc.dimension, len(doc.generators)) == (2, 36)
    assert len(calls) == 0


# --- the integer matrix kernel against CycloNum-entry reference bodies ---------------
#
# The kernel holds a matrix as integer numerators over one denominator; these
# references compute entry by entry in `CycloNum` arithmetic over the field.


def reference_mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(m))
        for i in range(n)
    )


def reference_det(a):
    n = len(a)
    fld = a[0][0].field
    rows = [list(r) for r in a]
    det = fld.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return fld.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            for c in range(col, n):
                rows[r][c] = rows[r][c] - f * rows[col][c]
    return det


def reference_inv(a):
    n = len(a)
    fld = a[0][0].field
    rows = [list(r) + list(mat_identity(fld, n)[i]) for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [c * inv for c in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def reference_char_poly(a):
    """Faddeev-LeVerrier over the field."""
    n = len(a)
    fld = a[0][0].field
    coeffs = [fld.zero()] * n + [fld.one()]
    m = mat_identity(fld, n)
    for k in range(1, n + 1):
        m = reference_mat_mul(a, m)
        tr = sum((m[i][i] for i in range(1, n)), m[0][0])
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        m = tuple(tuple(m[r][s] + c if r == s else m[r][s] for s in range(n)) for r in range(n))
    return tuple(coeffs)


def reference_linear_order(a):
    fld, n = a[0][0].field, len(a)
    return element_order(a, torsion_exponent(fld.conductor, n), reference_mat_mul,
                         mat_identity(fld, n))


KERNEL_CONDUCTORS = [1, 3, 4, 5, 9, 12]


@st.composite
def field_matrices(draw, fld, rows, cols):
    """Sparse entries with coordinates in -3..3 over denominators 1..3."""
    def entry():
        if draw(st.booleans()):
            return fld.zero()
        num = draw(st.lists(st.integers(-3, 3), min_size=fld.degree, max_size=fld.degree))
        return fld.element([Fraction(c, draw(st.integers(1, 3))) for c in num])

    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


@st.composite
def kernel_cases(draw):
    fld = field(draw(st.sampled_from(KERNEL_CONDUCTORS)))
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = draw(field_matrices(fld, n, n))
    if n > 1 and draw(st.booleans()):  # a singular matrix: a repeated row
        a = (a[0],) + a[:1] + a[2:]
    return a, draw(field_matrices(fld, n, k)), draw(field_matrices(fld, k, n))


@settings(max_examples=80, deadline=None)
@given(kernel_cases())
def test_kernel_matches_the_reference(case):
    a, b, c = case
    fld, n = a[0][0].field, len(a)
    assert mat_mul(a, a) == reference_mat_mul(a, a)
    assert mat_mul(b, c) == reference_mat_mul(b, c)  # n x k times k x n
    assert mat_mul(c, b) == reference_mat_mul(c, b)
    det = mat_det(a)
    assert det == reference_det(a)
    assert char_poly(a) == reference_char_poly(a)
    assert char_poly(a)[0] == det * (-1) ** n
    if det.is_zero():
        with pytest.raises(ZeroDivisionError):
            mat_inv(a)
    else:
        inv = mat_inv(a)
        assert inv == reference_inv(a)
        assert mat_mul(a, inv) == mat_identity(fld, n)


@st.composite
def monomial_matrices(draw):
    """(fld, a, order): a = P * diag of roots of unity, with its order from the cycles."""
    fld = field(draw(st.sampled_from(KERNEL_CONDUCTORS)))
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    scalars = [fld.zeta(draw(st.integers(0, fld.conductor - 1))) * draw(st.sampled_from([1, -1]))
               for _ in range(n)]
    a = tuple(tuple(scalars[i] if j == perm[i] else fld.zero() for j in range(n))
              for i in range(n))
    order, seen = 1, set()
    for start in range(n):
        if start in seen:
            continue
        length, product, i = 0, fld.one(), start
        while i not in seen:
            seen.add(i)
            product, i, length = product * scalars[i], perm[i], length + 1
        order = math.lcm(order, length * root_of_unity_order(product))
    return fld, a, order


@settings(max_examples=30, deadline=None)
@given(monomial_matrices(), st.integers(0, 3))
def test_linear_order_matches_the_reference(case, row):
    fld, a, order = case
    n = len(a)
    assert linear_order(a).order == reference_linear_order(a).order == order
    # scaling a row by 2 gives determinant of absolute value 2: infinite order
    row %= n
    doubled = tuple(tuple(x * 2 for x in r) if i == row else r for i, r in enumerate(a))
    assert linear_order(doubled).is_infinite and reference_linear_order(doubled).is_infinite
    assert linear_order(doubled).certificate == reference_linear_order(doubled).certificate
    if n > 1:  # a shear may give finite or infinite order; both sides must agree
        shear = tuple(tuple(fld.one() if i == j or (i, j) == (0, 1) else fld.zero()
                            for j in range(n)) for i in range(n))
        sheared = mat_mul(a, shear)
        assert linear_order(sheared) == reference_linear_order(sheared)


def test_orders_and_invariants_run_no_field_multiplication(monkeypatch):
    """After parsing, the order test and the characteristic polynomial of the
    prop-5-1-4 generators run on integers: no `CycloNum` product is taken."""
    mats = [g.linear_matrix() for _, g in corpus.load("prop-5-1-4").generators]
    calls = []
    mul = CycloNum.__mul__

    def counted(self, other):
        calls.append(self)
        return mul(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    monkeypatch.setattr(CycloNum, "__rmul__", counted)
    results = [(linear_order(a), char_poly(a)) for a in mats]
    assert [r.order for r, _ in results] == [2, 2, 2, 2]
    assert calls == []


# --- group operations against CycloNum-coefficient reference bodies -------------------
#
# A jet is held as integer numerators over one denominator; these references
# compose and invert coefficient by coefficient in `CycloNum` arithmetic, and
# build their results through the validating constructor.


def reference_poly_mul(p, q, cap):
    out = {}
    for q1, c1 in p.items():
        d1 = sum(q1)
        for q2, c2 in q.items():
            if d1 + sum(q2) > cap:
                continue
            key = tuple(x + y for x, y in zip(q1, q2))
            prod = c1 * c2
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def reference_compose(f, g):
    n, cap = f.n, f.K
    components = [dict() for _ in range(n)]
    for (s, q), c in g.coeffs.items():
        components[s][q] = c
    pow_cache, mono_cache = {}, {}

    def component_power(i, e):
        hit = pow_cache.get((i, e))
        if hit is not None:
            return hit
        out = components[i] if e == 1 else reference_poly_mul(
            component_power(i, e - 1), components[i], cap)
        pow_cache[(i, e)] = out
        return out

    def monomial(q):
        hit = mono_cache.get(q)
        if hit is not None:
            return hit
        out = None
        for i, e in enumerate(q):
            if e:
                p = component_power(i, e)
                out = p if out is None else reference_poly_mul(out, p, cap)
        mono_cache[q] = out
        return out

    acc = {}
    for (s, q), c in f.coeffs.items():
        for r, v in monomial(q).items():
            key = (s, r)
            prod = c * v
            cur = acc.get(key)
            acc[key] = prod if cur is None else cur + prod
    return GermJet(n, cap, f.field, acc)


def reference_invert(f):
    lin_inv = reference_inv(f.linear_matrix())
    g = GermJet.from_linear(lin_inv, f.K)
    for k in range(2, f.K + 1):
        residual = reference_compose(f, g).degree_slice(k)
        if not residual:
            continue
        correction = dict(g.coeffs)
        for q in {key[1] for key in residual}:
            col = [residual.get((t, q), f.field.zero()) for t in range(f.n)]
            for s in range(f.n):
                val = sum((lin_inv[s][t] * col[t] for t in range(1, f.n)), lin_inv[s][0] * col[0])
                if not val.is_zero():
                    key = (s, q)
                    correction[key] = correction.get(key, f.field.zero()) - val
        g = GermJet(f.n, f.K, f.field, correction)
    return g


def reference_power(f, m):
    if m < 0:
        return reference_power(reference_invert(f), -m)
    if m == 0:
        return GermJet.from_linear(mat_identity(f.field, f.n), f.K)
    return binary_power(f, m, reference_compose)


@st.composite
def invertible_matrices(draw, fld, n):
    """A row permutation of L * U: L lower triangular with diagonal entries
    +-(a/b) zeta^k, U unit upper triangular, and their other entries from
    `field_matrices`."""
    rand = draw(field_matrices(fld, n, n))

    def pivot():
        scale = Fraction(draw(st.sampled_from([1, -1, 2, -3])), draw(st.integers(1, 3)))
        return fld.zeta(draw(st.integers(0, fld.conductor - 1))) * scale

    lower = tuple(tuple(rand[i][j] if j < i else pivot() if j == i else fld.zero()
                        for j in range(n)) for i in range(n))
    upper = tuple(tuple(rand[i][j] if j > i else fld.one() if j == i else fld.zero()
                        for j in range(n)) for i in range(n))
    product = reference_mat_mul(lower, upper)
    return tuple(product[i] for i in draw(st.permutations(range(n))))


@st.composite
def field_jets(draw, fld, n, K):
    """An invertible linear part and up to four higher terms, with coordinates
    in -3..3 over denominators 1..3."""
    lin = draw(invertible_matrices(fld, n))
    coeffs = {(s, jets.unit_index(n, i)): lin[s][i] for s in range(n) for i in range(n)}
    higher = [(s, q) for s in range(n) for d in range(2, K + 1) for q in jets.iter_multiindices(n, d)]
    if higher:
        for key in draw(st.lists(st.sampled_from(higher), max_size=4, unique=True)):
            num = draw(st.lists(st.integers(-3, 3), min_size=fld.degree, max_size=fld.degree))
            coeffs[key] = fld.element([Fraction(c, draw(st.integers(1, 3))) for c in num])
    return GermJet(n, K, fld, coeffs)


@st.composite
def jet_cases(draw):
    fld = field(draw(st.sampled_from(KERNEL_CONDUCTORS)))
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return draw(field_jets(fld, n, K)), draw(field_jets(fld, n, K)), draw(st.integers(-2, 3))


def assert_canonical(jet):
    assert jet.den > 0 and math.gcd(jet.den, *(x for v in jet.nums.values() for x in v)) == 1
    assert all(len(v) == jet.field.degree and any(v) for v in jet.nums.values())


@settings(max_examples=100, deadline=None)
@given(jet_cases())
def test_group_operations_match_the_reference(case):
    f, g, m = case
    pairs = (
        (compose(f, g), reference_compose(f, g)),
        (invert(f), reference_invert(f)),
        (power(f, m), reference_power(f, m)),
        (conjugate(g, f), reference_compose(reference_compose(g, f), reference_invert(g))),
    )
    for got, want in pairs:
        assert_canonical(got)
        assert got == want and hash(got) == hash(want)
        assert got.canonical_key() == want.canonical_key()
        assert dict(got.coeffs) == dict(want.coeffs)


@settings(max_examples=40, deadline=None)
@given(jet_cases())
def test_coeffs_round_trip(case):
    f, g, m = case
    for jet in (f, compose(f, g), invert(g), power(f, m)):
        again = GermJet(jet.n, jet.K, jet.field, jet.coeffs)
        assert (again.den, again.nums) == (jet.den, jet.nums)
        assert again == jet and hash(again) == hash(jet)
        assert_canonical(again)
        assert all(c.field is jet.field and not c.is_zero() for c in jet.coeffs.values())
        with pytest.raises(TypeError):
            jet.coeffs[next(iter(jet.nums))] = jet.field.one()
        doubled = GermJet(jet.n, jet.K, jet.field, {key: c * 2 for key, c in jet.coeffs.items()})
        assert doubled != jet


def test_the_denominator_is_part_of_the_value():
    """z / 2 has the numerators of the identity over the denominator 2, and
    z + z^2 / 2 has the identity as its linear part, in lowest terms."""
    half = jet(F3, 2, 2, [(0, (1, 0), Fraction(1, 2)), (1, (0, 1), Fraction(1, 2))])
    assert half.nums == GermJet.identity(F3, 2, 2).nums and half.den == 2
    assert not half.is_identity() and half != GermJet.identity(F3, 2, 2)
    assert germ_order(half).is_infinite
    f = jet(F1, 1, 2, [(0, (1,), 1), (0, (2,), Fraction(1, 2))])
    assert f.den == 2 and f.linear_matrix() == mat_identity(F1, 1)
    assert f.infinite_order_screen() == "tangent to the identity with a nonzero nonlinear slice"
    assert germ_order(f).certificate == "f^1 is tangent to identity with a nonzero nonlinear slice"


def test_group_operations_take_no_field_products():
    """After parsing, the prop-5-1-4 closure and the ex-2-2 basic-set check run
    `compose` and `invert` on integers: no call path leads from either to a
    `CycloNum` product."""
    for name, search in (("prop-5-1-4", closure_enumerate), ("ex-2-2", check_basic_set)):
        g = corpus.load(name).presentation()
        profile = cProfile.Profile()
        result = profile.runcall(search, g)
        assert getattr(result, "verdict", getattr(result, "status", None)) in (
            "irreducible-verified", "closed")
        stats = pstats.Stats(profile).stats
        # every profiled function from which some call path reaches CycloNum.__mul__
        stack = [key for key in stats if key[0] == cyclo.__file__ and key[2] == "__mul__"]
        above = set()
        while stack:
            key = stack.pop()
            if key not in above:
                above.add(key)
                stack += stats[key][4]
        reaching = {fn for path, _, fn in above if path == jets.__file__}
        assert not reaching & {"compose", "invert"}, (name, reaching)
