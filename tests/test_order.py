"""The one exact order routine: torsion exponents, powers, and orders of
scalars, matrices, jets and Moebius maps against independent ground truth."""

import math
import operator
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from germforge import corpus, cyclo, jets
from germforge.cyclo import (
    OrderResult,
    binary_power,
    element_order,
    field,
    root_of_unity_order,
    torsion_exponent,
)
from germforge.groupkit import GroupPresentation, evaluate_word
from germforge.cyclo import euler_phi
from germforge.jets import GermJet, conjugate, germ_order, linear_order
from germforge.moebius import MoebiusMap, moebius_compose, moebius_order


def identity_matrix(fld, n):
    one, zero = fld.one(), fld.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def reference_mat_mul(a, b):
    """a times b, entry by entry in `CycloNum` arithmetic."""
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(m))
        for i in range(n)
    )


# --- the exponent -------------------------------------------------------------


@pytest.mark.parametrize(
    "conductor, row",
    [
        (1, (2, 12, 12, 120)),
        (3, (6, 12, 36, 360)),
        (9, (18, 36, 108, 1080)),
        (12, (12, 24, 72, 720)),
    ],
)
def test_torsion_exponent_table(conductor, row):
    assert tuple(torsion_exponent(conductor, n) for n in (1, 2, 3, 4)) == row


@pytest.mark.parametrize("conductor", [1, 2, 3, 5, 8, 12])
def test_torsion_exponent_of_scalars_is_lcm_2_n(conductor):
    assert torsion_exponent(conductor, 1) == math.lcm(2, conductor)


def scan_torsion_exponent(conductor, n):
    """The reference: the lcm of the multiples L of N with phi(L) <= n*phi(N),
    scanned up to 2*(n*phi(N))^2, as `torsion_exponent` scanned before it
    bounded the cofactor L/N by 2n^2."""
    budget = n * euler_phi(conductor)
    limit = 2 * budget * budget
    return math.lcm(
        *(L for L in range(conductor, limit + 1, conductor) if euler_phi(L) <= budget)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_torsion_exponent_matches_the_scan(n):
    for conductor in range(1, 121):
        assert torsion_exponent(conductor, n) == scan_torsion_exponent(conductor, n)


@pytest.mark.parametrize("conductor, n", [(997, 2), (1000, 2), (420, 3), (256, 5), (30, 8)])
def test_torsion_exponent_matches_the_scan_at_spot_values(conductor, n):
    assert torsion_exponent(conductor, n) == scan_torsion_exponent(conductor, n)


def test_torsion_exponent_is_computed_once_per_conductor_and_dimension(monkeypatch):
    expected = torsion_exponent(7, 3)
    calls = []
    original = cyclo.prime_factors
    monkeypatch.setattr(cyclo, "prime_factors", lambda n: calls.append(n) or original(n))
    assert torsion_exponent(7, 3) == expected
    assert calls == []


# --- powers -------------------------------------------------------------------


def test_binary_power_squares_only_below_the_top_bit():
    calls = []

    def mul(a, b):
        calls.append(1)
        return a + b

    for e in range(1, 70):
        calls.clear()
        assert binary_power(1, e, mul) == e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1


def scan_order(x, exponent, mul, identity):
    """The reference: one power test x**exponent, then a scan of x, x**2, ...
    until the identity, as `element_order` worked before it read the order
    off the prime powers of `exponent`."""
    if binary_power(x, exponent, mul) != identity:
        return OrderResult("infinite", certificate=(
            f"power {exponent} is not the identity, and every finite order divides {exponent}"
        ))
    power, order = x, 1
    while power != identity:
        power, order = mul(power, x), order + 1
    return OrderResult("finite", order=order)


def test_element_order_on_integers_mod_n():
    # the additive group Z/12: 8 has order 3, and 12 is the exponent
    def add(a, b):
        return (a + b) % 12

    assert element_order(8, 12, add, 0).order == 3
    assert element_order(0, 12, add, 0).order == 1
    assert element_order(5, 12, add, 0).order == 12


@pytest.mark.parametrize("x", [0, 5])
def test_exponent_one_matches_the_scan(x):
    def add(a, b):
        return (a + b) % 12

    assert element_order(x, 1, add, 0) == scan_order(x, 1, add, 0)
    assert element_order(x, 1, add, 0).is_infinite == (x != 0)


@st.composite
def monomial_matrices(draw, dims=st.integers(1, 3)):
    """(field, n, a): a permutation matrix times +-zeta^k entries, over N in
    {1, 3, 4, 5, 9, 12} and n from `dims`, times a shear I + c E_ij
    (infinite order) when one is drawn."""
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 9, 12])))
    n = draw(dims)
    perm = draw(st.permutations(range(n)))
    rows = [[fld.zero()] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = fld.zeta(draw(st.integers(0, fld.conductor - 1))) * draw(st.sampled_from([1, -1]))
    a = tuple(map(tuple, rows))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        shear = [list(r) for r in identity_matrix(fld, n)]
        shear[i][j] = fld.zeta(draw(st.integers(0, fld.conductor - 1))) * draw(st.sampled_from([1, 2, -3]))
        a = reference_mat_mul(a, tuple(map(tuple, shear)))
    return fld, n, a


def int_matrix_group(fld, n):
    """(multiplication, identity) of GL_n(Q(zeta_N)) on the canonical integer form."""
    return (lambda x, y: jets._int_mul(fld, n, n, x, y)), (1, jets._int_identity(fld.degree, n))


@settings(max_examples=80, deadline=None)
@given(monomial_matrices())
def test_linear_order_matches_the_scan(case):
    fld, n, a = case
    exponent = torsion_exponent(fld.conductor, n)
    mul, identity = int_matrix_group(fld, n)
    assert linear_order(a) == scan_order(jets._int_form(a), exponent, mul, identity)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 12]), st.integers(2, 3), st.integers(0, 11),
       st.sampled_from([1, -1, 2]))
def test_shears_have_infinite_order_as_in_the_scan(conductor, n, k, c):
    fld = field(conductor)
    shear = [list(r) for r in identity_matrix(fld, n)]
    shear[0][n - 1] = fld.zeta(k) * c
    a = tuple(map(tuple, shear))
    mul, identity = int_matrix_group(fld, n)
    res = linear_order(a)
    assert res.is_infinite
    assert res == scan_order(jets._int_form(a), torsion_exponent(conductor, n), mul, identity)


@settings(max_examples=60, deadline=None)
@given(monomial_matrices(dims=st.just(2)))
def test_moebius_order_matches_the_scan(case):
    fld, _, a = case
    m = MoebiusMap(a)
    want = scan_order(m, torsion_exponent(fld.conductor, 2), moebius_compose, MoebiusMap.identity(fld))
    assert moebius_order(m) == want


def reference_moebius_order(m):
    """The reference: the order by powers of the map itself, each product
    through `moebius_compose`, as `moebius_order` worked before it read the
    order off A^2 / det(A) on the integer kernel."""
    fld = m.field
    return element_order(m, torsion_exponent(fld.conductor, 2), moebius_compose,
                         MoebiusMap.identity(fld))


@st.composite
def moebius_cases(draw):
    """(kind, map) over N in {1, 3, 4, 5, 8, 12}: c * H D H^-1 for a nonzero
    c = +-zeta^k * (a/b), H a product of shears I + c E_ij (`random_shears`)
    and D scalar, parabolic [[1, x], [0, 1]], diag(1, -1), a rotation
    diag(zeta^i, zeta^j), or any invertible matrix of small entries."""
    fld = field(draw(st.sampled_from([1, 3, 4, 5, 8, 12])))
    N = fld.conductor

    def unit():
        return fld.zeta(draw(st.integers(0, N - 1))) * draw(st.sampled_from([1, -1]))

    one, zero = fld.one(), fld.zero()
    kind = draw(st.sampled_from(["scalar", "parabolic", "order-2", "rotation", "any"]))
    if kind == "scalar":
        d = ((one, zero), (zero, one))
    elif kind == "parabolic":
        d = ((one, unit() * draw(st.sampled_from([1, 2, -3]))), (zero, one))
    elif kind == "order-2":
        d = ((one, zero), (zero, -one))
    elif kind == "rotation":
        d = ((unit(), zero), (zero, unit()))
    else:
        entries = [fld.element([draw(st.integers(-2, 2)) for _ in range(fld.degree)])
                   for _ in range(4)]
        d = ((entries[0], entries[1]), (entries[2], entries[3]))
        assume(not (d[0][0] * d[1][1] - d[0][1] * d[1][0]).is_zero())
    h, h_inv = random_shears(random.Random(draw(st.integers(0, 2**32))), fld, 2,
                             count=draw(st.integers(0, 3)))
    c = unit() * fld.rational(draw(st.sampled_from([1, 2, -3])), draw(st.integers(1, 3)))
    a = reference_mat_mul(reference_mat_mul(h, d), h_inv)
    return kind, MoebiusMap(tuple(tuple(x * c for x in row) for row in a))


@settings(max_examples=150, deadline=None)
@given(moebius_cases())
def test_moebius_order_matches_the_order_by_map_powers(case):
    kind, m = case
    res = moebius_order(m)
    assert res == reference_moebius_order(m)
    if kind == "scalar":
        assert (res.kind, res.order) == ("finite", 1)
    elif kind == "parabolic":
        assert res.is_infinite
    elif kind == "order-2":
        assert (res.kind, res.order) == ("finite", 2)
    elif kind == "rotation":
        assert res.kind == "finite"


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.integers(0, 59), st.sampled_from([1, -1, 2]))
def test_root_of_unity_order_matches_the_scan(conductor, k, scale):
    fld = field(conductor)
    a = fld.zeta(k) * scale
    want = scan_order(a, torsion_exponent(conductor, 1), operator.mul, fld.one())
    assert root_of_unity_order(a) == want.order
    assert (want.order is None) == (scale == 2)


@pytest.mark.parametrize("exponent", [1, 12, 24, 36, 120])
def test_the_identity_takes_no_product(exponent):
    """The identity has order 1 whatever E, and no power of it is formed."""
    calls = []

    def mul(x, y):
        calls.append((x, y))
        return x * y

    fld = field(12)
    assert element_order(fld.one(), exponent, mul, fld.one()) == OrderResult("finite", order=1)
    assert calls == []


# the scan took 23 products on ex-2-3 and 16 on ex-2-2
@pytest.mark.parametrize("entry, order, most", [("ex-2-3", 18, 11), ("ex-2-2", 12, 9)])
def test_linear_order_of_a_generator_takes_few_products(monkeypatch, entry, order, most):
    f = corpus.load(entry).presentation().elements[0]
    calls = []
    original = jets._int_mul
    monkeypatch.setattr(jets, "_int_mul", lambda *args: calls.append(1) or original(*args))
    assert linear_order(f.linear_matrix()).order == order
    assert len(calls) <= most


# --- ground truth: H D H^-1 with H a product of integer shears ------------------

COMPANIONS = {3: ((0, -1), (1, -1)), 4: ((0, -1), (1, 0)), 6: ((0, -1), (1, 1))}


def scalar_order(conductor, a, sign):
    """Order of sign * zeta_N^a, read off as a power of zeta_2N."""
    e = 2 * a + (conductor if sign < 0 else 0)
    return 2 * conductor // math.gcd(2 * conductor, e)


def root_block(fld, r):
    """(companion of x^r - zeta_N, its order).

    The eigenvalues zeta_rN^(1 + N j), j < r, are distinct, so the order is
    the lcm of theirs; they lie in an extension of degree up to r.
    """
    N = fld.conductor
    rows = [[fld.zero()] * r for _ in range(r)]
    rows[0][r - 1] = fld.zeta()
    for i in range(1, r):
        rows[i][i - 1] = fld.one()
    order = math.lcm(*(r * N // math.gcd(r * N, 1 + N * j) for j in range(r)))
    return rows, order


def block_diagonal(fld, n, blocks):
    rows = [[fld.zero()] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, c in enumerate(row):
                rows[at + i][at + j] = c if hasattr(c, "field") else fld.from_rational(c)
        at += len(block)
    return tuple(tuple(r) for r in rows)


def random_diagonal_part(rng, fld, n, jordan=False):
    """(D, order of D): scalar blocks +-zeta^a, rational companions of
    Phi_3, 4, 6, and companions of x^r - zeta_N.

    With `jordan`, the first two scalars are equal and joined by a 1 above the
    diagonal, so D has infinite order.
    """
    N = fld.conductor
    blocks, orders = [], []
    size = 0
    if jordan:
        lam = fld.zeta(rng.randrange(N)) * rng.choice([1, -1])
        blocks.append(((lam, fld.one()), (fld.zero(), lam)))
        size = 2
    while size < n:
        kind = rng.random()
        if n - size >= 2 and kind < 0.3:
            k = rng.choice(sorted(COMPANIONS))
            blocks.append(COMPANIONS[k])
            orders.append(k)
            size += 2
        elif n - size >= 2 and kind < 0.6:
            block, order = root_block(fld, rng.randint(2, n - size))
            blocks.append(block)
            orders.append(order)
            size += len(block)
        else:
            a, sign = rng.randrange(N), rng.choice([1, -1])
            blocks.append(((fld.zeta(a) * sign,),))
            orders.append(scalar_order(N, a, sign))
            size += 1
    return block_diagonal(fld, n, blocks), (None if jordan else math.lcm(*orders))


def random_shears(rng, fld, n, count=3):
    """(H, H^-1) for H a product of shears I + c E_ij with c in Z[zeta_N].

    Each shear's inverse is I - c E_ij, so no field inverse is computed.
    """
    h = h_inv = identity_matrix(fld, n)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = fld.zeta(rng.randrange(fld.conductor)) * rng.choice([-2, -1, 1, 2])
        shear, unshear = ([list(r) for r in identity_matrix(fld, n)] for _ in range(2))
        shear[i][j], unshear[i][j] = c, -c
        h = reference_mat_mul(h, tuple(map(tuple, shear)))
        h_inv = reference_mat_mul(tuple(map(tuple, unshear)), h_inv)
    return h, h_inv


def conjugated(rng, fld, n, jordan=False):
    d, order = random_diagonal_part(rng, fld, n, jordan)
    h, h_inv = random_shears(rng, fld, n)
    assert reference_mat_mul(h, h_inv) == identity_matrix(fld, n)
    return reference_mat_mul(reference_mat_mul(h, d), h_inv), order


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
@pytest.mark.parametrize("n", [2, 3])
def test_linear_order_matches_ground_truth(conductor, n):
    rng = random.Random(1000 * conductor + n)
    fld = field(conductor)
    for _ in range(8):
        a, order = conjugated(rng, fld, n)
        res = linear_order(a)
        assert (res.kind, res.order) == ("finite", order)
    exponent = torsion_exponent(conductor, n)
    for _ in range(4):
        a, _ = conjugated(rng, fld, n, jordan=True)
        res = linear_order(a)
        assert res.is_infinite and res.order is None
        assert f"every finite order divides {exponent}" in res.certificate
        # a non-root-of-unity scalar multiple is infinite too
        b, _ = conjugated(rng, fld, n)
        assert linear_order(tuple(tuple(c * 2 for c in row) for row in b)).is_infinite


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 4, 12]), st.sampled_from([2, 3]), st.integers(0, 2**32))
def test_finite_orders_pass_every_screen(conductor, n, seed):
    """The closure's screens are sound: no finite-order element trips one."""
    rng = random.Random(seed)
    fld = field(conductor)
    a, _ = conjugated(rng, fld, n)
    linear = GermJet(n, 2, fld, {(r, tuple(int(i == c) for i in range(n))): a[r][c]
                                 for r in range(n) for c in range(n)})
    # psi = Id + c x_s^2 in coordinate t; psi o linear o psi^-1 has finite order
    # and, unless the term commutes with the linear part, nonlinear terms
    s, t = rng.randrange(n), rng.randrange(n)
    square = tuple(2 if i == s else 0 for i in range(n))
    psi = GermJet(n, 2, fld, {**GermJet.identity(fld, n, 2).coeffs,
                              (t, square): fld.zeta(rng.randrange(conductor)) * rng.choice([-1, 1, 3])})
    for f in (linear, conjugate(psi, linear), GermJet.identity(fld, n, 2)):
        assert f.infinite_order_screen() is None
    if n == 2:
        assert MoebiusMap(a).infinite_order_screen() is None


def brute_force_order(m, limit):
    cur = m
    for k in range(1, limit + 1):
        if cur.is_identity():
            return k
        cur = cur.compose(m)
    return None


@pytest.mark.parametrize("conductor", [1, 3, 4, 12])
def test_moebius_order_matches_brute_force(conductor):
    rng = random.Random(conductor)
    fld = field(conductor)
    exponent = torsion_exponent(conductor, 2)
    for jordan in [False] * 6 + [True] * 3:
        m = MoebiusMap(conjugated(rng, fld, 2, jordan)[0])
        res = moebius_order(m)
        want = brute_force_order(m, exponent)
        assert res.order == want
        assert res.kind == ("infinite" if want is None else "finite")
        if jordan:
            assert want is None


# --- jets: one linear order, one jet power -----------------------------------------


def test_germ_order_computes_one_jet_power(monkeypatch):
    calls = []
    original = jets.power

    def counting(f, m):
        calls.append(m)
        return original(f, m)

    monkeypatch.setattr(jets, "power", counting)
    F3, F1 = field(3), field(1)
    lam, one = F3.zeta(), F3.one()
    # (-x + y^2, lam y) has order 6; -x + x^3 carries a resonant term and has infinite order
    finite = GermJet(2, 2, F3, {(0, (1, 0)): -one, (1, (0, 1)): lam, (0, (0, 2)): one})
    infinite = GermJet(1, 3, F1, {(0, (1,)): F1.from_rational(-1), (0, (3,)): F1.one()})
    assert germ_order(finite).order == 6 and calls == [6]
    calls.clear()
    res = germ_order(infinite)
    assert res.is_infinite and "f^2 is tangent to identity" in res.certificate and calls == [2]


def test_evaluate_word_composes_from_its_first_factor(monkeypatch):
    pres = corpus.load("prop-5-1-3").presentation()
    calls = []
    original = jets.compose

    def counting(f, g):
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(jets, "compose", counting)
    gens = dict(pres.generators)
    assert evaluate_word(pres, "B*C") == original(gens["B"], gens["C"])
    assert len(calls) <= 2


def test_evaluate_word_on_moebius_presentation():
    F1 = field(1)
    s = MoebiusMap(((F1.zero(), F1.one()), (F1.one(), F1.zero())))
    t = MoebiusMap(((F1.from_rational(-1), F1.one()), (F1.zero(), F1.one())))
    pres = GroupPresentation((("s", s), ("t", t)))
    assert evaluate_word(pres, "s*t^-1*s^2").matrix == s.compose(t.inverse()).matrix
    assert evaluate_word(pres, "").is_identity()
    assert evaluate_word(pres, "t^0").is_identity()
    assert moebius_order(evaluate_word(pres, "s*t")).order == 3
