"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_N).

An element is its reduced remainder modulo the N-th cyclotomic polynomial,
held fraction-free: a tuple of integer numerators in the power basis over one
positive integer denominator, in lowest terms (see `CycloNum`).  Every
operation is integer arithmetic: convolution, folding through the integer
coefficients of Phi_N, and one gcd; the inverse is a product of Galois
conjugates over the norm.  So equality and hashing compare integers, and no
per-coefficient Fraction is built or normalised on the hot path.  The
package computes no floating-point value anywhere.

Exact scalars enter as an int or rational (`numbers.Rational`, such as a
`Fraction`).  `fractions` is imported only where a `Fraction` is returned or
hashed (`CycloNum.coeffs` and the hash of a non-integer rational element),
so importing this module or parsing a document does not load it.
Coefficients are written in a regular grammar, which `parse_coefficient`
matches one signed term at a time with one regular expression.

`_lowest_terms` is the one place for the canonical form (den > 0, gcd 1),
here and in `jets`, and `CycloField._norm_adjugate` the one place for
division by an element of Z[zeta_N].
"""

from __future__ import annotations

import functools
import math
import operator
import re
from numbers import Rational
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    from fractions import Fraction


class FieldMismatchError(ValueError):
    """Operands belong to cyclotomic fields with different conductors."""


class CoefficientParseError(ValueError):
    """Malformed coefficient expression."""


# ---------------------------------------------------------------------------
# small integer utilities shared across the package


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization as {p: multiplicity}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out

def is_prime_power(n: int) -> Optional[tuple[int, int]]:
    """Return (p, s) with n = p**s and p prime, or None.  n = 1 gives None."""
    if n <= 1:
        return None
    fac = prime_factors(n)
    if len(fac) != 1:
        return None
    [(p, s)] = fac.items()
    return p, s


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


@functools.cache
def torsion_exponent(conductor: int, n: int) -> int:
    """A multiple of every finite element order in GL_n(Q(zeta_N)).

    An eigenvalue of order k generates Q(zeta_L), L = lcm(N, k), which has
    degree at most n over Q(zeta_N); so k divides the lcm of all multiples L
    of N with phi(L) <= n*phi(N).  For L = N*j, phi(L) >= phi(N) * phi(j)
    >= phi(N) * sqrt(j/2), so j <= 2n^2 caps the scan, whatever N is.
    Computed once per (N, n): every exact order asks for it.
    """
    budget = n * euler_phi(conductor)
    return math.lcm(*(conductor * j for j in range(1, 2 * n * n + 1)
                      if euler_phi(conductor * j) <= budget))


# ---------------------------------------------------------------------------
# powers and element orders in any group, given its multiplication


def binary_power(x, e: int, mul: Callable):
    """x**e for e >= 1 by square-and-multiply, squaring only below the top bit."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else mul(out, x)
        e >>= 1
        if not e:
            return out
        x = mul(x, x)


class OrderResult(NamedTuple):
    kind: str  # "finite" | "infinite"; every order is decided exactly
    order: Optional[int] = None
    certificate: Optional[str] = None

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"


def element_order(x, exponent: int, mul: Callable, identity) -> OrderResult:
    """Exact order of x, given a multiple E = `exponent` of every finite order x can have.

    The order is read off E by prime powers (Cohen, "A Course in
    Computational Algebraic Number Theory", Alg. 1.4.3).  For each p^a
    exactly dividing E, y = x^(E/p^a) is a product of the squares x^(2^i),
    each formed once, and y is raised to p-th powers until it is the
    identity: b of them give p^b, the p-part of the order.  If a of them do
    not, x^E != identity, which proves infinite order (`torsion_exponent`).
    An order 18 against E = 36 costs 9 products; a scan of x, x^2, ... took 23.
    The identity has order 1 and takes no product.
    """
    if x == identity:
        return OrderResult("finite", order=1)
    infinite = OrderResult("infinite", certificate=(
        f"power {exponent} is not the identity, and every finite order divides {exponent}"
    ))
    squares, order = [x], 1
    for p, a in prime_factors(exponent).items():
        cofactor, y = exponent // p ** a, None
        for i in range(cofactor.bit_length()):
            if i == len(squares):
                squares.append(mul(squares[-1], squares[-1]))
            if cofactor >> i & 1:
                y = squares[i] if y is None else mul(y, squares[i])
        for _ in range(a):
            if y == identity:
                break
            y, order = binary_power(y, p, mul), order * p
        if y != identity:
            return infinite
    if order == 1:  # x is not the identity: only E = 1, which has no prime, gets here
        return infinite
    return OrderResult("finite", order=order)


# ---------------------------------------------------------------------------
# cyclotomic polynomials (integer coefficients, ascending order, monic)


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # den is monic; division is exact by construction.
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quot = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return quot


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending; computed as (x^n - 1) / prod Phi_d
    over the proper divisors d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# ---------------------------------------------------------------------------


class CycloField:
    """The cyclotomic field Q(zeta_N); instances are cached per conductor.

    It holds the integer tables that `CycloNum` arithmetic runs on: the
    nonzero low terms of Phi_N (to fold a product back below degree phi(N)),
    zeta^k for k = 0..N-1 as integer vectors, and the units k != 1 mod N,
    which name the Galois automorphisms zeta -> zeta^k used by `inverse`.
    """

    __slots__ = ("conductor", "degree", "modulus", "_fold", "_zeta_pows", "_units",
                 "_zero", "_one")

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        # x^d = -(sum of these terms) mod Phi_N, d the degree
        self._fold = tuple((i, m) for i, m in enumerate(self.modulus[:-1]) if m)
        pows = [(1,) + (0,) * (self.degree - 1)]
        for _ in range(conductor - 1):
            pows.append(self._reduce([0, *pows[-1]]))
        self._zeta_pows = tuple(pows)
        self._units = tuple(k for k in range(2, conductor) if math.gcd(k, conductor) == 1)
        self._zero = CycloNum(self, (0,) * self.degree, 1)
        self._one = CycloNum(self, pows[0], 1)

    # -- integer vector arithmetic ---------------------------------------------

    def _reduce(self, conv: list[int]) -> tuple[int, ...]:
        """Remainder mod Phi_N of an integer polynomial (ascending, modified in place)."""
        d = self.degree
        for e in range(len(conv) - 1, d - 1, -1):
            c = conv[e]
            if c:
                base = e - d
                for i, m in self._fold:
                    conv[base + i] -= c * m
        return tuple(conv[:d])

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """Product of two reduced integer vectors, reduced."""
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    if y:
                        conv[k] += x * y
        return self._reduce(conv)

    def _galois(self, a: Sequence[int], k: int) -> list[int]:
        """Image of a reduced integer vector under zeta -> zeta^k."""
        out = [0] * self.degree
        n, pows = self.conductor, self._zeta_pows
        for i, x in enumerate(a):
            if x:
                for j, z in enumerate(pows[i * k % n]):
                    if z:
                        out[j] += x * z
        return out

    def _norm_adjugate(self, a: Sequence[int]) -> tuple[tuple[int, ...], int]:
        """(P, n) for a nonzero reduced integer vector a, with a * P = n a
        nonzero integer: x / a = x * P / n.

        A rational a gives (1, a).  Otherwise P is the product of the images
        of a under zeta -> zeta^k for the units k != 1 mod N, and n = Norm(a).
        """
        if not any(a[1:]):
            return self._one.num, a[0]
        adj = self._galois(a, self._units[0])
        for k in self._units[1:]:
            adj = self._mul(adj, self._galois(a, k))
        return tuple(adj), self._mul(a, adj)[0]

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Sequence[int | Rational]) -> "CycloNum":
        """The element with the given power-basis coefficients, each an int or rational."""
        vec = [_exact(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        den = math.lcm(*(c.denominator for c in vec))
        num = [c.numerator * (den // c.denominator) for c in vec]
        return _canonical(self, num + [0] * (self.degree - len(vec)), den)

    def zero(self) -> "CycloNum":
        return self._zero

    def one(self) -> "CycloNum":
        return self._one

    def from_integers(self, num: Sequence[int], den: int) -> "CycloNum":
        """num/den from a reduced integer vector and a nonzero integer."""
        if den == 0:
            raise ZeroDivisionError("element with zero denominator")
        return _canonical(self, num, den)

    def rational(self, n: int, d: int = 1) -> "CycloNum":
        """The rational number n/d, from integers."""
        if d == 0:
            raise ZeroDivisionError("rational with zero denominator")
        return _canonical(self, (n,) + (0,) * (self.degree - 1), d)

    def from_rational(self, q: int | Rational) -> "CycloNum":
        """q given as an int or rational."""
        q = _exact(q)
        return self.rational(q.numerator, q.denominator)

    def zeta(self, k: int = 1) -> "CycloNum":
        """zeta_N ** k, reduced."""
        return CycloNum(self, self._zeta_pows[k % self.conductor], 1)

    # -- plumbing -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CycloField({self.conductor})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("CycloField", self.conductor))


@functools.cache
def field(conductor: int) -> CycloField:
    """Shared field instance for the given conductor."""
    return CycloField(conductor)


def _exact(q: int | Rational) -> int | Rational:
    """q, which must be an int or rational: no float enters exact arithmetic."""
    if not isinstance(q, Rational):
        raise TypeError(f"exact coefficient must be an int or rational, not {type(q).__name__}")
    return q


def _lowest_terms(den: int, nums: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(den, nums) for nums / den, den != 0, with the common factor divided out
    and den > 0: the canonical form of elements, matrices and jets."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple(c // g for c in nums)


def _canonical(fld: CycloField, num: Sequence[int], den: int) -> "CycloNum":
    """The element num/den, den != 0, in canonical form."""
    den, num = _lowest_terms(den, num)
    return CycloNum(fld, num, den)


def _add_or_sub(x: "CycloNum", y: "CycloNum", op: Callable) -> "CycloNum":
    a, b, d1, d2 = x.num, y.num, x.den, y.den
    if d1 == d2:
        num = tuple(map(op, a, b))
        return CycloNum(x.field, num, 1) if d1 == 1 else _canonical(x.field, num, d1)
    g = math.gcd(d1, d2)
    m1, m2 = d2 // g, d1 // g
    return _canonical(x.field, [op(s * m1, t * m2) for s, t in zip(a, b)], d1 * m1)


class CycloNum:
    """An element of Q(zeta_N): integer numerators `num` over one denominator `den`.

    The value is sum(num[i] * zeta^i) / den, the reduced remainder mod Phi_N
    in the power basis, which is an integral basis of Z[zeta_N].  The form
    is canonical: den > 0, gcd(den, *num) = 1, and zero is (0, ..., 0)/1.
    So equality compares integers, an algebraic integer is one with den = 1,
    and arithmetic is integer convolution plus one gcd, with no per-coefficient
    rational normalisation (the fraction-free representation of Cohen, "A
    Course in Computational Algebraic Number Theory", section 4.2).
    `coeffs` gives the coefficients as Fractions.

    Immutable; all arithmetic returns fresh values.  Mixed arithmetic with
    an int or rational coerces the scalar into the same field, and an element
    of Q hashes like the rational number it equals.
    """

    __slots__ = ("field", "num", "den", "_hash", "_coeffs")

    def __init__(self, fld: CycloField, num: tuple[int, ...], den: int):
        # trusted: (num, den) must be canonical; `_canonical` makes it so
        self.field = fld
        self.num = num
        self.den = den
        self._hash = None
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions, built on first use."""
        if self._coeffs is None:
            from fractions import Fraction

            self._coeffs = tuple(Fraction(c, self.den) for c in self.num)
        return self._coeffs

    # -- helpers --------------------------------------------------------------

    def _coerce(self, other) -> Optional["CycloNum"]:
        if isinstance(other, CycloNum):
            if other.field.conductor != self.field.conductor:
                raise FieldMismatchError(
                    f"conductor mismatch: {self.field.conductor} vs {other.field.conductor}"
                )
            return other
        if isinstance(other, Rational):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        """Whether this is an algebraic integer.

        Z[zeta_N] is the ring of integers of Q(zeta_N) and the power basis is
        an integral basis of it, so this holds iff the denominator is 1.
        """
        return self.den == 1

    def sort_key(self) -> "CoefficientOrder":
        """Key that sorts elements by their `coeffs` tuples, on integers."""
        return CoefficientOrder(self.num, self.den)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add_or_sub(self, o, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add_or_sub(self, o, operator.sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        fld = self.field
        if fld.degree == 1:
            num = (self.num[0] * o.num[0],)
        else:
            num = fld._mul(self.num, o.num)
        den = self.den * o.den
        return CycloNum(fld, num, 1) if den == 1 else _canonical(fld, num, den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse, on integers.

        For a = A/D with A in Z[zeta_N], `CycloField._norm_adjugate` gives P
        with A * P = n, a nonzero integer; so 1/a = D * P / n.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        adj, norm = self.field._norm_adjugate(self.num)
        return _canonical(self.field, [c * self.den for c in adj], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.field.one()
        return binary_power(self if n > 0 else self.inverse(), abs(n), operator.mul)

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNum):
            if not isinstance(other, Rational):
                return NotImplemented
            other = self.field.from_rational(other)
        return (
            self.den == other.den
            and self.num == other.num
            and self.field.conductor == other.field.conductor
        )

    def __hash__(self) -> int:
        if self._hash is None:
            num, den = self.num, self.den
            if any(num[1:]):
                self._hash = hash((self.field.conductor, num, den))
            elif den == 1:  # in Q: hash like the int or Fraction this equals
                self._hash = hash(num[0])
            else:
                from fractions import Fraction

                self._hash = hash(Fraction(num[0], den))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CycloNum({format_coefficient(self)!r}, N={self.field.conductor})"

    def __str__(self) -> str:
        return format_coefficient(self)


class CoefficientOrder:
    """Sort key of a CycloNum (`CycloNum.sort_key`).

    Orders like the `coeffs` tuples of Fractions, lexicographically, but
    compares num/den coefficients by integer cross-multiplication.  It makes
    sorting canonical; it is not an order of the field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: int):
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        return self.num == other.num and self.den == other.den

    def __lt__(self, other) -> bool:
        d1, d2 = self.den, other.den
        for x, y in zip(self.num, other.num):
            if x * d2 != y * d1:
                return x * d2 < y * d1
        return False


# ---------------------------------------------------------------------------
# operations on elements


def root_of_unity_order(a: CycloNum) -> Optional[int]:
    """Least m >= 1 with a**m == 1, or None when a is not a root of unity.

    The torsion of Q(zeta_N)* is the group of lcm(2, N)-th roots of unity:
    `torsion_exponent` with n = 1.
    """
    fld = a.field
    return element_order(a, torsion_exponent(fld.conductor, 1), operator.mul, fld.one()).order


# ---------------------------------------------------------------------------
# textual coefficient grammar, which is regular:
#   coeff    := ["+"|"-"] term (("+"|"-") term)*
#   term     := rational ("*" zpart)? | zpart
#   zpart    := "z" ("^" nat)?
#   rational := nat ("/" nat)?
#   nat      := ASCII digits 0-9, one or more
# where z denotes zeta_N of the ambient field.  Whitespace may stand between
# any two tokens, but not inside a number.  `_TERM` matches one signed term
# and the whitespace around it; its groups are the sign, the rational, and
# "z" and its exponent, after the rational's "*" or alone.

_ZPART = r"(z)(?:\s*\^\s*([0-9]+))?"
_TERM = re.compile(rf"\s*([+-]?)\s*(?:([0-9]+)(?:\s*/\s*([0-9]+))?(?:\s*\*\s*{_ZPART})?|{_ZPART})\s*")


def parse_coefficient(text: str, fld: CycloField) -> CycloNum:
    """The element of `fld` that `text` writes in the coefficient grammar.

    Matches one signed term at a time, the sign optional on the first term
    only, and sums the terms from the first; a "-" negates its term.
    """
    total, pos = None, 0
    while total is None or pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (total is not None and not m[1]):
            signed = "signed " if total is not None else ""
            raise CoefficientParseError(f"expected a {signed}term at position {pos} in {text!r}")
        num, den, z, exp = m[2], int(m[3] or 1), m[4] or m[6], int(m[5] or m[7] or 1)
        if not den:
            raise CoefficientParseError(f"zero denominator in {text!r}")
        term = fld.rational(int(num), den) if num else fld.zeta(exp)
        if num and z:  # rational "*" zpart
            term = fld.zeta(exp) * term
        if m[1] == "-":
            term = -term
        total = term if total is None else total + term
        pos = m.end()
    return total


def format_coefficient(a: CycloNum) -> str:
    """Render in the textual grammar; parse(format(a)) == a.

    Reads the integer numerators over the one denominator: each nonzero
    coefficient c/D is reduced by gcd(c, D) alone, with no Fraction built.
    """
    den, out = a.den, ""
    for i, c in enumerate(a.num):
        if not c:
            continue
        g = math.gcd(c, den)
        p, q = abs(c) // g, den // g
        body = str(p) if q == 1 else f"{p}/{q}"
        if i:
            z = "z" if i == 1 else f"z^{i}"
            body = z if body == "1" else f"{body}*{z}"
        if out:
            out += " - " if c < 0 else " + "
        elif c < 0:
            out = "-"
        out += body
    return out or "0"
