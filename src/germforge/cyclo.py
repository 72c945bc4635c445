"""Exact arithmetic in the rationals and in cyclotomic fields Q(zeta_N).

Elements are represented by their reduced remainder modulo the N-th
cyclotomic polynomial, so equality is a plain coefficient comparison and
every value is hashable.  No floating point enters any decision path;
numeric evaluation exists only as a diagnostic.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import mpmath


class FieldMismatchError(ValueError):
    """Operands belong to cyclotomic fields with different conductors."""


class EmbeddingError(ValueError):
    """Embedding requested into a conductor that is not a multiple."""


class CoefficientParseError(ValueError):
    """Malformed coefficient expression."""


# ---------------------------------------------------------------------------
# small integer utilities shared across the package


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


def torsion_exponent(conductor: int, n: int) -> int:
    """A multiple of every finite element order in GL_n(Q(zeta_N)).

    An eigenvalue of order k generates Q(zeta_L), L = lcm(N, k), which has
    degree at most n over Q(zeta_N); so k divides the lcm of all multiples L
    of N with phi(L) <= n*phi(N).  phi(L) >= sqrt(L/2) caps the scan.
    """
    budget = n * euler_phi(conductor)
    limit = 2 * budget * budget
    return math.lcm(
        *(L for L in range(conductor, limit + 1, conductor) if euler_phi(L) <= budget)
    )


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


@dataclass(frozen=True)
class OrderResult:
    kind: str  # "finite" | "infinite"; every order is decided exactly
    order: Optional[int] = None
    certificate: Optional[str] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"


def element_order(x, exponent: int, mul: Callable, identity) -> OrderResult:
    """Exact order of x, given a multiple `exponent` of every finite order x can have.

    x**exponent != identity proves infinite order (see `torsion_exponent`);
    otherwise the order divides `exponent`, and scanning x, x**2, ... finds
    it within `exponent` products.
    """
    if binary_power(x, exponent, mul) != identity:
        return OrderResult("infinite", certificate=(
            f"power {exponent} is not the identity, and every finite order divides {exponent}"
        ))
    power, order = x, 1
    while power != identity:
        power, order = mul(power, x), order + 1
    return OrderResult("finite", order=order)


# ---------------------------------------------------------------------------
# cyclotomic polynomials (integer coefficients, ascending order, monic)


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
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


_CYCLO_CACHE: dict[int, tuple[int, ...]] = {1: (-1, 1)}
_CYCLO_LOCK = threading.Lock()


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending; computed as (x^n - 1) / prod Phi_d."""
    with _CYCLO_LOCK:
        return _cyclotomic_locked(n)


def _cyclotomic_locked(n: int) -> tuple[int, ...]:
    hit = _CYCLO_CACHE.get(n)
    if hit is not None:
        return hit
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d != n:
            poly = _poly_div_exact(poly, list(_cyclotomic_locked(d)))
    out = tuple(poly)
    _CYCLO_CACHE[n] = out
    return out


# ---------------------------------------------------------------------------


_FIELD_CACHE: dict[int, "CycloField"] = {}
_FIELD_LOCK = threading.Lock()

_ZERO = Fraction(0)
_ONE = Fraction(1)


class CycloField:
    """The cyclotomic field Q(zeta_N); instances are cached per conductor."""

    __slots__ = ("conductor", "degree", "modulus", "_zeta_pows")

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        self.conductor = conductor
        self.modulus = cyclotomic_polynomial(conductor)
        self.degree = len(self.modulus) - 1
        # reduced coefficient vectors of zeta^k for k = 0..N-1
        pows = []
        cur = [_ONE] + [_ZERO] * (self.degree - 1)
        for _ in range(conductor):
            pows.append(tuple(cur))
            cur = self._shift_reduce(cur)
        self._zeta_pows = tuple(pows)

    def _shift_reduce(self, vec: list[Fraction]) -> list[Fraction]:
        # multiply by x, then fold the overflow term through the monic modulus
        out = [_ZERO] + vec[:-1] if self.degree > 1 else [_ZERO]
        top = vec[-1]
        if top:
            for i in range(self.degree):
                out[i] -= top * self.modulus[i]
        return out

    # -- element constructors ------------------------------------------------

    def element(self, coeffs: Sequence[Fraction | int]) -> "CycloNum":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        vec += [_ZERO] * (self.degree - len(vec))
        return CycloNum(self, tuple(vec))

    def zero(self) -> "CycloNum":
        return self.element([])

    def one(self) -> "CycloNum":
        return self.element([_ONE])

    def from_rational(self, q) -> "CycloNum":
        return self.element([Fraction(q)])

    def zeta(self, k: int = 1) -> "CycloNum":
        """zeta_N ** k, reduced."""
        return CycloNum(self, self._zeta_pows[k % self.conductor])

    # -- plumbing -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"CycloField({self.conductor})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloField) and other.conductor == self.conductor

    def __hash__(self) -> int:
        return hash(("CycloField", self.conductor))


def field(conductor: int) -> CycloField:
    """Shared field instance for the given conductor."""
    with _FIELD_LOCK:
        f = _FIELD_CACHE.get(conductor)
        if f is None:
            f = CycloField(conductor)
            _FIELD_CACHE[conductor] = f
        return f


class CycloNum:
    """An element of Q(zeta_N), stored as the reduced remainder mod Phi_N.

    Immutable; all arithmetic returns fresh values.  Mixed arithmetic with
    int and Fraction coerces the scalar into the same field.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, fld: CycloField, coeffs: tuple[Fraction, ...]):
        self.field = fld
        self.coeffs = coeffs
        self._hash = None

    # -- helpers --------------------------------------------------------------

    def _coerce(self, other) -> Optional["CycloNum"]:
        if isinstance(other, CycloNum):
            if other.field.conductor != self.field.conductor:
                raise FieldMismatchError(
                    f"conductor mismatch: {self.field.conductor} vs {other.field.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Optional[Fraction]:
        """The value as a Fraction when it lies in Q, else None."""
        if any(c for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        if d == 1:
            return CycloNum(self.field, (self.coeffs[0] * o.coeffs[0],))
        conv = [_ZERO] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        conv[i + j] += a * b
        mod = self.field.modulus
        for e in range(2 * d - 2, d - 1, -1):
            c = conv[e]
            if c:
                conv[e] = _ZERO
                base = e - d
                for i in range(d):
                    conv[base + i] -= c * mod[i]
        return CycloNum(self.field, tuple(conv[:d]))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.field.degree == 1:
            return CycloNum(self.field, (1 / self.coeffs[0],))
        # extended gcd of (coeffs as polynomial, Phi_N) over Q; Fraction
        # remainders keep every quotient exact (int / int would be a float)
        r0 = [Fraction(c) for c in self.field.modulus]
        r1 = list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                vec = [c * inv_c for c in s1]
                vec += [_ZERO] * (self.field.degree - len(vec))
                return CycloNum(self.field, tuple(vec[: self.field.degree]))
            q, rem = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))

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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycloNum):
            return NotImplemented
        return (
            self.field.conductor == other.field.conductor
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field.conductor, self.coeffs))
        return self._hash

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"CycloNum({format_coefficient(self)!r}, N={self.field.conductor})"

    def __str__(self) -> str:
        return format_coefficient(self)


def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dd = len(den) - 1
    lead = den[dd]
    quot = [_ZERO] * max(len(num) - dd, 0)
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        quot[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    rem = num[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_ZERO] * (n - len(a))
    b = b + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# ---------------------------------------------------------------------------
# operations on elements


def root_of_unity_order(a: CycloNum) -> Optional[int]:
    """Least m >= 1 with a**m == 1, or None when a is not a root of unity.

    The torsion of Q(zeta_N)* is the group of lcm(2, N)-th roots of unity:
    `torsion_exponent` with n = 1.
    """
    fld = a.field
    return element_order(a, torsion_exponent(fld.conductor, 1), operator.mul, fld.one()).order


def embed_to_conductor(a: CycloNum, m: int) -> CycloNum:
    """Image of a under zeta_N -> zeta_M**(M/N); requires N | M."""
    n = a.field.conductor
    if m % n != 0:
        raise EmbeddingError(f"conductor {n} does not divide {m}")
    target = field(m)
    step = m // n
    out = target.zero()
    for i, c in enumerate(a.coeffs):
        if c:
            out = out + target.zeta(i * step) * c
    return out


def to_complex(a: CycloNum, digits: int = 15) -> mpmath.mpc:
    """Numeric value of a at zeta = exp(2*pi*i/N).  Diagnostics only."""
    n = a.field.conductor
    with mpmath.workdps(digits + 10):
        total = mpmath.mpc(0)
        for i, c in enumerate(a.coeffs):
            if c:
                w = mpmath.expjpi(mpmath.mpf(2 * i % (2 * n)) / n)
                total += w * mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
        return +total


# ---------------------------------------------------------------------------
# textual coefficient grammar:
#   coeff    := ["+"|"-"] term (("+"|"-") term)*
#   term     := rational ("*" zpart)? | zpart
#   zpart    := "z" ("^" nat)?
#   rational := nat ("/" nat)?
# where z denotes zeta_N of the ambient field.

_TOKEN = re.compile(r"\s*(\d+|z|\^|\*|/|\+|\-)")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise CoefficientParseError(
                    f"unexpected character {text[pos:].strip()[0]!r} at position {pos}"
                )
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_coefficient(text: str, fld: CycloField) -> CycloNum:
    toks = _tokenize(text)
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

    def parse_nat() -> int:
        t = take()
        if t is None or not t.isdigit():
            raise CoefficientParseError(f"expected integer, got {t!r} in {text!r}")
        return int(t)

    def parse_zpart() -> int:
        t = take()
        if t != "z":
            raise CoefficientParseError(f"expected 'z', got {t!r} in {text!r}")
        if peek() == "^":
            take()
            return parse_nat()
        return 1

    def parse_term() -> CycloNum:
        if peek() == "z":
            return fld.zeta(parse_zpart())
        num = parse_nat()
        den = 1
        if peek() == "/":
            take()
            den = parse_nat()
            if den == 0:
                raise CoefficientParseError(f"zero denominator in {text!r}")
        q = Fraction(num, den)
        if peek() == "*":
            take()
            return fld.zeta(parse_zpart()) * q
        return fld.from_rational(q)

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


def format_coefficient(a: CycloNum) -> str:
    """Render in the textual grammar; parse(format(a)) == a."""
    pieces: list[tuple[int, str]] = []  # (sign, body without sign)
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
