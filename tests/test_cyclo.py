import cmath
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from germforge.cyclo import (
    CoefficientParseError,
    FieldMismatchError,
    cyclotomic_polynomial,
    field,
    format_coefficient,
    parse_coefficient,
    root_of_unity_order,
)
from germforge.jets import GermJet

CONDUCTORS = (1, 2, 3, 4, 5, 8, 12)


def to_complex(a):
    """Numeric value of a at zeta = exp(2*pi*i/N): an independent oracle for the exact arithmetic."""
    zeta = cmath.exp(2j * cmath.pi / a.field.conductor)
    return sum(float(c) * zeta**i for i, c in enumerate(a.coeffs))


def random_element(rng, fld, size=6):
    return fld.element([Fraction(rng.randint(-size, size), rng.randint(1, size)) for _ in range(fld.degree)])


# --- field construction -----------------------------------------------------


def test_field_degree_one_is_q():
    f = field(1)
    assert f.degree == 1
    assert f.modulus == (-1, 1)


def test_phi_3():
    assert field(3).modulus == (1, 1, 1)


def test_phi_12():
    # independent route: divide x^12 - 1 by Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 over Q
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_div(num, den):
        num = list(num)
        q = [0] * (len(num) - len(den) + 1)
        for k in range(len(q) - 1, -1, -1):
            c = num[k + len(den) - 1]
            q[k] = c
            for i, d in enumerate(den):
                num[k + i] -= c * d
        assert all(c == 0 for c in num)
        return q

    prod = [1]
    for d in (1, 2, 3, 4, 6):
        prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    x12 = [-1] + [0] * 11 + [1]
    assert tuple(poly_div(x12, prod)) == (1, 0, -1, 0, 1)
    assert field(12).modulus == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_zeta_satisfies_modulus_and_unity(n):
    f = field(n)
    z = f.zeta()
    acc = f.zero()
    for i, c in enumerate(f.modulus):
        acc = acc + z ** i * c
    assert acc.is_zero()
    assert z ** n == f.one()


# --- arithmetic ---------------------------------------------------------------


def test_paper_zeta3_relations():
    lam = field(3).zeta()
    assert lam * lam ** 2 == field(3).one()
    assert lam + lam ** 2 == -1


def test_additive_identity():
    f = field(5)
    a = f.element([1, 2, 3, 4])
    assert a + f.zero() == a


def test_field_axioms_random():
    rng = random.Random(7)
    for n in CONDUCTORS:
        f = field(n)
        for _ in range(25):
            a, b, c = (random_element(rng, f) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == f.one()


def test_inverse_examples():
    assert field(1).one().inverse() == field(1).one()
    lam = field(3).zeta()
    assert lam.inverse() == lam ** 2
    i = field(4).zeta()
    assert i.inverse() == -i


def test_inverse_stays_exact():
    # Phi_4 = x^2 + 1 has int coefficients; an int / int quotient would be a float
    inv = (field(4).zeta() * -3).inverse()
    assert inv == field(4).zeta() * Fraction(1, 3)
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert parse_coefficient(format_coefficient(inv), field(4)) == inv


ORACLE_CONDUCTORS = (1, 3, 4, 5, 8, 9, 12)
X = sympy.Symbol("x")


@st.composite
def elements(draw, conductor):
    fld = field(conductor)
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return fld.element(draw(st.lists(small, min_size=fld.degree, max_size=fld.degree)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_keeps_every_coefficient_a_fraction(data):
    conductor = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    a, b = data.draw(elements(conductor)), data.draw(elements(conductor))
    e = data.draw(st.integers(-4, 4))
    results = [a + b, a - b, a * b, a ** abs(e)]
    if not b.is_zero():
        results += [a / b, b ** e, b * b.inverse()]
        assert b * b.inverse() == b.field.one()
    for r in results:
        assert all(type(c) is Fraction for c in r.coeffs), r.coeffs


@pytest.mark.parametrize("n", range(1, 37))
def test_cyclotomic_polynomial_matches_sympy(n):
    expected = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
    assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_inverse_matches_sympy_oracle(data):
    conductor = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    a = data.draw(elements(conductor))
    assume(not a.is_zero())
    poly = sum(sympy.Rational(c.numerator, c.denominator) * X ** i for i, c in enumerate(a.coeffs))
    oracle = sympy.Poly(sympy.invert(poly, sympy.cyclotomic_poly(conductor, X), X), X)
    coeffs = oracle.all_coeffs()[::-1]
    coeffs += [0] * (a.field.degree - len(coeffs))
    expected = tuple(Fraction(int(sympy.numer(c)), int(sympy.denom(c))) for c in coeffs)
    assert a.inverse().coeffs == expected


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(3).zero().inverse()


def test_conductor_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        field(3).zeta() + field(4).zeta()


# --- root of unity orders -------------------------------------------------------


def test_order_examples():
    assert root_of_unity_order(field(3).one()) == 1
    assert root_of_unity_order(field(12).zeta(8)) == 3
    assert root_of_unity_order(field(3).from_rational(2)) is None
    # 1 + zeta_3 = -zeta_3^2 has order 6
    assert root_of_unity_order(1 + field(3).zeta()) == 6


@pytest.mark.parametrize("n", (2, 3, 4, 5, 8, 12))
def test_order_of_zeta_powers(n):
    f = field(n)
    for k in range(1, n):
        assert root_of_unity_order(f.zeta(k)) == n // math.gcd(n, k)


# --- numeric evaluation -----------------------------------------------------------


def test_to_complex_examples():
    assert to_complex(field(1).one()) == 1
    assert abs(to_complex(field(4).zeta()) - 1j) < 1e-14
    v = to_complex(field(3).zeta())
    assert abs(v - complex(-0.5, 0.8660254037844386)) < 1e-12


def test_to_complex_multiplicative():
    rng = random.Random(3)
    for n in (3, 5, 12):
        f = field(n)
        for _ in range(10):
            a, b = random_element(rng, f, 4), random_element(rng, f, 4)
            assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-10


# --- coefficient grammar ------------------------------------------------------------


def test_parse_examples():
    f3 = field(3)
    assert parse_coefficient("-1", f3) == -1
    assert parse_coefficient("3/2*z^2 - 1", f3) == f3.zeta(2) * Fraction(3, 2) - 1
    assert parse_coefficient("z^4", f3) == f3.zeta()  # z^4 = z in Q(zeta_3)
    assert parse_coefficient("-z", f3) == -f3.zeta()
    assert parse_coefficient(" 1/2 + z ", f3) == f3.zeta() + Fraction(1, 2)


def test_parse_errors():
    f = field(3)
    for bad in ("", "z^", "1//2", "q", "1 +", "1/0"):
        with pytest.raises(CoefficientParseError):
            parse_coefficient(bad, f)


_REFERENCE_TOKEN = re.compile(r"\s*([0-9]+|z|\^|\*|/|\+|\-)")


def reference_tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CoefficientParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} at position {pos}"
                )
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def reference_parse_coefficient(text, fld):
    """The tokenizer and recursive-descent parser that read the grammar
    before `parse_coefficient` matched it one signed term at a time: the oracle."""
    toks = reference_tokenize(text)
    if not toks:
        raise CoefficientParseError("empty coefficient")
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = peek()
        pos += 1
        return t

    def parse_nat():
        t = take()
        if t is None or not t.isdigit():
            raise CoefficientParseError(f"expected integer, got {t!r} in {text!r}")
        return int(t)

    def parse_zpart():
        t = take()
        if t != "z":
            raise CoefficientParseError(f"expected 'z', got {t!r} in {text!r}")
        if peek() == "^":
            take()
            return parse_nat()
        return 1

    def parse_term():
        if peek() == "z":
            return fld.zeta(parse_zpart())
        num = parse_nat()
        den = 1
        if peek() == "/":
            take()
            den = parse_nat()
            if den == 0:
                raise CoefficientParseError(f"zero denominator in {text!r}")
        q = fld.rational(num, den)
        if peek() == "*":
            take()
            return fld.zeta(parse_zpart()) * q
        return q

    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    total = parse_term() * sign
    while peek() is not None:
        op = take()
        if op not in ("+", "-"):
            raise CoefficientParseError(f"expected '+' or '-', got {op!r} in {text!r}")
        term = parse_term()
        total = total + term if op == "+" else total - term
    return total


def parse_or_error(parse, text, fld):
    try:
        return parse(text, fld)
    except CoefficientParseError:
        return CoefficientParseError


# the grammar's alphabet, with a tab, a letter and a non-ASCII (Arabic-Indic) digit
GRAMMAR_PIECES = ("0", "1", "2", "12", "z", "^", "*", "/", "+", "-", " ", "\t", "q", "٣")


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=8).map("".join))
def test_parse_matches_the_recursive_descent_reference(text):
    for n in (3, 12):
        f = field(n)
        assert parse_or_error(parse_coefficient, text, f) == \
            parse_or_error(reference_parse_coefficient, text, f)


@pytest.mark.parametrize("text", ["", " ", "z^", "1//2", "2 z", "2*", "--1", "1/0", "1 2",
                                  "z^-1", "+", "1 +", "z*2", "1/2/3", "١", "１"])
def test_parse_rejects_what_the_reference_rejects(text):
    for parse in (parse_coefficient, reference_parse_coefficient):
        with pytest.raises(CoefficientParseError):
            parse(text, field(3))


def test_format_round_trip_random():
    rng = random.Random(5)
    for n in CONDUCTORS:
        f = field(n)
        for _ in range(25):
            a = random_element(rng, f)
            assert parse_coefficient(format_coefficient(a), f) == a
    assert format_coefficient(field(3).zero()) == "0"


def format_coefficient_from_fractions(a):
    """`format_coefficient` as it was written on the Fraction coefficients: the oracle."""
    pieces = []
    for i, c in enumerate(a.coeffs):
        if not c:
            continue
        sign = 1 if c > 0 else -1
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            z = "z" if i == 1 else f"z^{i}"
            body = z if mag == 1 else f"{mag}*{z}"
        pieces.append((sign, body))
    if not pieces:
        return "0"
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign < 0 else "") + first_body
    for sign, body in pieces[1:]:
        out += (" - " if sign < 0 else " + ") + body
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 3, 4, 5, 9, 12)), st.data())
def test_format_from_integers_matches_the_fraction_rendering(n, data):
    f = field(n)
    coeff = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6)
    a = f.element(data.draw(st.lists(coeff | st.sampled_from([0, 1, -1]),
                                     min_size=f.degree, max_size=f.degree)))
    assert format_coefficient(a) == format_coefficient_from_fractions(a)


# --- the fraction-free representation -------------------------------------------------

HASH_CONDUCTORS = (1, 3, 4, 12)


def reference_mul(a, b, modulus):
    """Product of two Fraction coefficient vectors, reduced mod the monic modulus."""
    d = len(modulus) - 1
    conv = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for e in range(2 * d - 2, d - 1, -1):
        c, conv[e] = conv[e], Fraction(0)
        for i in range(d):
            conv[e - d + i] -= c * modulus[i]
    return tuple(conv[:d])


def assert_canonical(a):
    assert type(a.den) is int and all(type(c) is int for c in a.num)
    assert len(a.num) == a.field.degree
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert a.coeffs == tuple(Fraction(c, a.den) for c in a.num)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_results_are_in_canonical_form(data):
    conductor = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    fld = field(conductor)
    a, b = data.draw(elements(conductor)), data.draw(elements(conductor))
    q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    results = [a, b, a + b, a - b, a * b, -a, a * q, a + q, q - a, a ** 3]
    if not b.is_zero():
        results += [a / b, b.inverse(), b ** -2]
    for r in results:
        assert_canonical(r)
    zeros = [fld.zero(), a - a, a * 0, b * fld.zero(), fld.element([0] * fld.degree),
             fld.from_rational(Fraction(0, 7)), a + (-a)]
    for z in zeros:
        assert (z.num, z.den) == ((0,) * fld.degree, 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_matches_fraction_reference(data):
    conductor = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    fld = field(conductor)
    a, b = data.draw(elements(conductor)), data.draw(elements(conductor))
    q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    e = data.draw(st.integers(-4, 4))
    A, B, mod = a.coeffs, b.coeffs, fld.modulus
    one = (Fraction(1),) + (Fraction(0),) * (fld.degree - 1)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(A, B))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(A, B))
    assert (-a).coeffs == tuple(-x for x in A)
    assert (a * b).coeffs == reference_mul(A, B, mod)
    assert (a * q).coeffs == (q * a).coeffs == tuple(x * q for x in A)
    assert (a + q).coeffs == (A[0] + q,) + A[1:]
    power = one
    for _ in range(abs(e)):
        power = reference_mul(power, A, mod)
    assert (a ** abs(e)).coeffs == power
    if not b.is_zero():
        assert reference_mul((a / b).coeffs, B, mod) == A
        assert reference_mul(b.inverse().coeffs, B, mod) == one
        assert reference_mul((b ** e).coeffs, (b ** -e).coeffs, mod) == one
    if q:
        assert reference_mul((a / q).coeffs, (q,) + (Fraction(0),) * (fld.degree - 1), mod) == A


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HASH_CONDUCTORS), st.fractions(min_value=-50, max_value=50, max_denominator=40))
def test_rational_element_hashes_like_its_value(conductor, q):
    a = field(conductor).from_rational(q)
    assert a == q and hash(a) == hash(q)
    assert {q: "x"}.get(a) == "x"
    assert {a: "x"}.get(q) == "x"
    if q.denominator == 1:
        assert a == int(q) and hash(a) == hash(int(q))
        assert {int(q): "x"}.get(a) == "x"


def test_rational_hash_examples():
    assert {3: "x"}.get(field(1).from_rational(3)) == "x"
    assert {Fraction(1, 2): "x"}.get(field(4).from_rational(Fraction(1, 2))) == "x"
    assert hash(field(3).from_rational(-1)) == hash(-1) == -2
    # a denominator divisible by the hash modulus hashes as infinity, as for Fraction
    huge = Fraction(-3, 2 ** 61 - 1)
    assert hash(field(12).from_rational(huge)) == hash(huge)
    # an irrational element equals no rational number
    assert field(4).zeta() != 0 and {0: "x"}.get(field(4).zeta()) is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sort_key_orders_like_fraction_coefficients(data):
    conductor = data.draw(st.sampled_from(ORACLE_CONDUCTORS))
    a, b = data.draw(elements(conductor)), data.draw(elements(conductor))
    assert (a.sort_key() < b.sort_key()) == (a.coeffs < b.coeffs)
    assert (a.sort_key() == b.sort_key()) == (a.coeffs == b.coeffs)
    assert not a.sort_key() < a.sort_key()


def test_inverse_runs_on_integers_for_every_conductor():
    rng = random.Random(13)
    for n in range(1, 31):
        f = field(n)
        for _ in range(4):
            a = random_element(rng, f)
            if not a.is_zero():
                assert a * a.inverse() == f.one()
                assert_canonical(a.inverse())


@pytest.mark.parametrize("value", [0.1, "1/10", Decimal("0.1")], ids=["float", "str", "Decimal"])
def test_constructors_refuse_inexact_and_textual_numbers(value):
    fld = field(1)
    with pytest.raises(TypeError):
        fld.from_rational(value)
    with pytest.raises(TypeError):
        fld.element([value])
    with pytest.raises(TypeError):
        GermJet(1, 1, fld, {(0, (1,)): value})
    with pytest.raises(TypeError):
        fld.one() * value
    assert fld.from_rational(Fraction(1, 10)) == fld.element([Fraction(1, 10)]) == Fraction(1, 10)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((1, 3, 4, 5, 9, 12)), st.booleans(), st.data())
def test_norm_adjugate_multiplies_to_an_integer(conductor, rational, data):
    fld = field(conductor)
    coords = st.integers(-6, 6)
    a = (data.draw(coords),) + (0,) * (fld.degree - 1) if rational else tuple(
        data.draw(st.lists(coords, min_size=fld.degree, max_size=fld.degree)))
    assume(any(a))
    adj, n = fld._norm_adjugate(a)
    assert n != 0 and fld._mul(a, adj) == (n,) + (0,) * (fld.degree - 1)
    if rational:
        assert (adj, n) == (fld.one().num, a[0])
