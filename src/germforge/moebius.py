"""Exact projective automorphisms of P^1 over a cyclotomic field.

Maps are 2x2 matrices up to scale, stored with the first nonzero entry in
row-major order scaled to 1 so projective equality is plain comparison.
Orders are decided exactly by the shared torsion-exponent power test;
fixed points are eigenvector computations.  A triangular map needs no square
root; a rational radicand's root is built exactly from Gauss sums; other
roots are found by verified reconstruction, or proven absent by a residue
screen, or reported as requiring a field extension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cyclo import (
    CycloField,
    CycloNum,
    FieldMismatchError,
    OrderResult,
    element_order,
    is_prime_power,
    prime_factors,
    torsion_exponent,
)
from .jets import GermJet
from .groupkit import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_WITNESS_BOUND,
    GroupPresentation,
    LinearizationSuccess,
    check_basic_set,
    check_product_identity,
    closure_enumerate,
    linearize_group,
)


class ExtensionRequiredError(ArithmeticError):
    """No square root was found in the working field; the answer may live in
    a quadratic extension of it."""


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """Point [u : v] of P^1; canonical form is (z, 1) for affine z, (1, 0) for infinity."""

    u: CycloNum
    v: CycloNum

    @staticmethod
    def make(u: CycloNum, v: CycloNum) -> "ProjectivePoint":
        if v.is_zero():
            if u.is_zero():
                raise ValueError("[0 : 0] is not a projective point")
            return ProjectivePoint(u.field.one(), u.field.zero())
        return ProjectivePoint(u / v, v.field.one())

    @staticmethod
    def infinity(fld: CycloField) -> "ProjectivePoint":
        return ProjectivePoint(fld.one(), fld.zero())

    @staticmethod
    def affine(z: CycloNum) -> "ProjectivePoint":
        return ProjectivePoint(z, z.field.one())

    @property
    def is_infinity(self) -> bool:
        return self.v.is_zero()

    def sort_key(self):
        return (1 if self.is_infinity else 0, self.u.sort_key(), self.v.sort_key())

    def __repr__(self) -> str:
        return "Point(inf)" if self.is_infinity else f"Point({self.u})"


class MoebiusMap:
    """z -> (a z + b) / (c z + d) as the matrix [[a, b], [c, d]], det != 0.

    Equality and hashing use the integer numerators and denominators of the
    normalized entries, kept from construction; the hash is cached.
    """

    __slots__ = ("matrix", "field", "_key", "_hash", "_order")

    def __init__(self, matrix: Sequence[Sequence[CycloNum]]):
        (a, b), (c, d) = matrix
        fld = a.field
        scale = next((x for x in (a, b, c, d) if not x.is_zero()), None)
        if scale is None:
            raise ValueError("zero matrix is not a Moebius map")
        inv = scale.inverse()
        a, b, c, d = a * inv, b * inv, c * inv, d * inv
        if (a * d - b * c).is_zero():
            raise ValueError("matrix determinant is zero")
        self.matrix = ((a, b), (c, d))
        self.field = fld
        self._key = (fld.conductor, tuple((x.num, x.den) for x in (a, b, c, d)))
        self._hash = None
        self._order = None

    @classmethod
    def scaling(cls, xi: CycloNum) -> "MoebiusMap":
        one, zero = xi.field.one(), xi.field.zero()
        return cls(((xi, zero), (zero, one)))

    @classmethod
    def inversion(cls, fld: CycloField) -> "MoebiusMap":
        one, zero = fld.one(), fld.zero()
        return cls(((zero, one), (one, zero)))

    @classmethod
    def identity(cls, fld: CycloField) -> "MoebiusMap":
        one, zero = fld.one(), fld.zero()
        return cls(((one, zero), (zero, one)))

    @property
    def shape(self) -> tuple[CycloField]:
        return (self.field,)

    def is_identity(self) -> bool:
        (a, b), (c, d) = self.matrix
        return b.is_zero() and c.is_zero() and a == d

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return moebius_compose(self, other)

    def order(self) -> OrderResult:
        """`moebius_order`, computed once per map object."""
        if self._order is None:
            self._order = moebius_order(self)
        return self._order

    def conjugacy_invariant(self) -> CycloNum:
        """trace^2 / det, the projective class of the characteristic polynomial."""
        t = self.trace()
        return t * t / self.det()

    def infinite_order_screen(self) -> Optional[str]:
        """Why this map has infinite order, from one cheap sound test, or None.

        A finite-order map has eigenvalues with ratio u a root of unity, so
        trace^2/det = 2 + u + 1/u is an algebraic integer.  None decides
        nothing.
        """
        invariant = self.conjugacy_invariant()
        if not invariant.is_integral():
            return (f"trace^2/det = {invariant} is not an algebraic integer, but a "
                    "finite-order map has 2 + u + 1/u with u a root of unity")
        return None

    def canonical_key(self):
        return (self.field.conductor, tuple(c.sort_key() for row in self.matrix for c in row))

    def entries(self):
        (a, b), (c, d) = self.matrix
        return a, b, c, d

    def det(self) -> CycloNum:
        a, b, c, d = self.entries()
        return a * d - b * c

    def trace(self) -> CycloNum:
        a, _, _, d = self.entries()
        return a + d

    def inverse(self) -> "MoebiusMap":
        a, b, c, d = self.entries()
        return MoebiusMap(((d, -b), (-c, a)))

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        a, b, c, d = self.entries()
        return ProjectivePoint.make(a * p.u + b * p.v, c * p.u + d * p.v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self) -> str:
        a, b, c, d = self.entries()
        return f"MoebiusMap([[{a}, {b}], [{c}, {d}]])"


def moebius_compose(m1: MoebiusMap, m2: MoebiusMap) -> MoebiusMap:
    if m1.field.conductor != m2.field.conductor:
        raise FieldMismatchError("Moebius maps from different fields")
    (a, b), (c, d) = m1.matrix
    (e, f), (g, h) = m2.matrix
    return MoebiusMap(((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)))


# ---------------------------------------------------------------------------
# projective order


def moebius_order(m: MoebiusMap) -> OrderResult:
    """Projective order: least k with m^k a scalar matrix; exact.

    Maps are stored scale-normalized, so m^k is the identity map exactly when
    the matrix power is scalar.  The eigenvalue ratio has degree <= 2 over
    the field, so every finite order divides `torsion_exponent(N, 2)`.
    """
    fld = m.field
    return element_order(
        m, torsion_exponent(fld.conductor, 2), moebius_compose, MoebiusMap.identity(fld)
    )


# ---------------------------------------------------------------------------
# exact square roots by verified reconstruction


def _fraction_from_mpf(x, max_den: int = 10**24) -> Optional[Fraction]:
    """Best rational approximation by continued fractions, None when unstable."""
    import mpmath

    num0, den0 = 0, 1
    num1, den1 = 1, 0
    rem = mpmath.mpf(x)
    for _ in range(200):
        a = int(mpmath.floor(rem))
        num0, num1 = num1, a * num1 + num0
        den0, den1 = den1, a * den1 + den0
        if den1 > max_den:
            return None
        frac = rem - a
        approx = Fraction(num1, den1)
        if abs(mpmath.mpf(approx.numerator) / approx.denominator - mpmath.mpf(x)) < mpmath.mpf(10) ** (-(mpmath.mp.dps - 12)):
            return approx
        if frac == 0:
            return approx
        rem = 1 / frac
    return None


def _square_split(m: int, n: int) -> tuple[int, int]:
    """(d, m / d) for a nonzero integer m: d is the sign of m times the
    primes of 2n of odd multiplicity in m, so m / d > 0 has even multiplicity
    at every prime of 2n.  Nothing is factored."""
    d, rest = (1 if m > 0 else -1), abs(m)
    for p in prime_factors(2 * n):
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        if e % 2:
            d *= p
    return d, m // d


def _rational_root_in_field(m: int, n: int) -> bool:
    """Whether Q(zeta_n) holds a square root of the nonzero integer m.

    With d the squarefree part of m, Q(sqrt(d)) has conductor |d| when
    d = 1 (mod 4) and 4|d| otherwise, and it lies in Q(zeta_n) iff n is a
    multiple of that conductor.  Only the primes of 2n are divided out of m
    (`_square_split`): a remaining cofactor that is not a square holds a
    prime of odd multiplicity that divides the conductor but not n.
    """
    d, rest = _square_split(m, n)
    if math.isqrt(rest) ** 2 != rest:
        return False
    return n % (abs(d) if d % 4 == 1 else 4 * abs(d)) == 0


def _integer_sqrt(fld: CycloField, m: int) -> CycloNum:
    """A square root of the nonzero integer m in Q(zeta_N), for m with
    `_rational_root_in_field(m, N)`, built exactly.

    With m = d * r^2 and d squarefree, write d = e * 2^a * prod(p*) over
    the odd primes p of d, p* = (-1)^((p-1)/2) p and e = +-1.  Then
    sqrt(p*) is the quadratic Gauss sum sum_k (k/p) zeta_p^k, sqrt(-1) is
    zeta_4, and sqrt(2e) is zeta_8 - e * zeta_8^3.  Every factor lies in
    Q(zeta_c), c the conductor of Q(sqrt(d)), which divides N; zeta_m is
    zeta_N^(N/m).
    """
    n = fld.conductor
    d, rest = _square_split(m, n)
    root = fld.rational(math.isqrt(rest))
    e = 1 if d > 0 else -1
    for p in prime_factors(abs(d)):
        if p == 2:
            continue
        step = n // p
        gauss = fld.zero()
        for k in range(1, p):
            gauss = gauss + fld.zeta(k * step) * (1 if pow(k, (p - 1) // 2, p) == 1 else -1)
        root = root * gauss
        if p % 4 == 3:
            e = -e
    if d % 2 == 0:
        return root * (fld.zeta(n // 8) - fld.zeta(3 * n // 8) * e)
    return root if e == 1 else root * fld.zeta(n // 4)


SQUARE_SCREEN_PRIMES = 6  # degree-one primes tried by `_proven_non_square`


def _primes_one_mod(n: int) -> Iterator[int]:
    """The odd primes p = 1 (mod n), increasing."""
    p = n + 1
    while True:
        if p > 2 and all(p % q for q in range(2, math.isqrt(p) + 1)):
            yield p
        p += n


def _roots_of_cyclotomic_mod(n: int, p: int) -> list[int]:
    """The roots of Phi_n mod a prime p = 1 (mod n): the elements of order n."""
    primes = prime_factors(n)
    r = next(r for r in (pow(g, (p - 1) // n, p) for g in range(2, p))
             if all(pow(r, n // q, p) != 1 for q in primes))
    return [pow(r, k, p) for k in range(1, n + 1) if math.gcd(k, n) == 1]


def _proven_non_square(a: CycloNum) -> bool:
    """Whether a residue symbol proves that `a` is no square in its field.

    For a prime p = 1 (mod N) not dividing the denominator D of a = A/D, and
    a root r of Phi_N mod p, zeta -> r maps the elements of Q(zeta_N) that
    are integral at the prime (p, zeta - r) onto F_p, a ring homomorphism.
    A root b of a is integral there too, so the image A(r)/D of a is a
    square mod p.  A nonzero non-residue (Euler's criterion) thus proves
    that a has no root.  False decides nothing.
    """
    n = a.field.conductor
    primes = (p for p in _primes_one_mod(n) if a.den % p)
    for p in itertools.islice(primes, SQUARE_SCREEN_PRIMES):
        for r in _roots_of_cyclotomic_mod(n, p):
            v = 0
            for c in reversed(a.num):
                v = (v * r + c) % p
            v = v * a.den % p
            if v and pow(v, (p - 1) // 2, p) == p - 1:
                return True
    return False


def cyclo_sqrt(a: CycloNum, digits: int = 60) -> Optional[CycloNum]:
    """A square root of `a` in its own field, or None when none is found.

    A rational radicand q = num/den has a root in the field iff num * den
    does (`_rational_root_in_field`), and then sqrt(num * den) / den is
    built exactly (`_integer_sqrt`).  Otherwise a radicand that is a
    non-residue at some small degree-one prime is None
    (`_proven_non_square`); what remains is reconstructed from the numeric
    embeddings.  Every root is verified by exact squaring, so a returned
    value is always correct.
    """
    fld = a.field
    if a.is_zero():
        return fld.zero()
    q = a.as_rational()
    if q is not None:
        m = q.numerator * q.denominator
        if not _rational_root_in_field(m, fld.conductor):
            return None
        root = _integer_sqrt(fld, m) * Fraction(1, q.denominator)
        if root * root == a:
            return root
    if _proven_non_square(a):
        return None
    return _numeric_sqrt(a, digits)


def _numeric_sqrt(a: CycloNum, digits: int) -> Optional[CycloNum]:
    """Search the sign choices of the embeddings' square roots (one per
    embedding but the first) for a root with rational coordinates."""
    import mpmath

    fld = a.field
    n, deg = fld.conductor, fld.degree
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    with mpmath.workdps(digits):
        zetas = [mpmath.expjpi(mpmath.mpf(2 * k % (2 * n)) / n) for k in range(n)]
        emb_matrix = mpmath.matrix(
            [[zetas[(u * i) % n] for i in range(deg)] for u in units]
        )
        values = []
        for u in units:
            total = mpmath.mpc(0)
            for i, c in enumerate(a.coeffs):
                if c:
                    total += zetas[(u * i) % n] * mpmath.mpf(c.numerator) / c.denominator
            values.append(total)
        roots = [mpmath.sqrt(v) for v in values]
        for mask in range(1 << (deg - 1)):
            rhs = mpmath.matrix(
                [
                    roots[j] if (j == 0 or not (mask >> (j - 1)) & 1) else -roots[j]
                    for j in range(deg)
                ]
            )
            try:
                sol = mpmath.lu_solve(emb_matrix, rhs)
            except ZeroDivisionError:
                return None
            coeffs = []
            for i in range(deg):
                if abs(mpmath.im(sol[i])) > mpmath.mpf(10) ** (-(digits // 2)):
                    coeffs = None
                    break
                frac = _fraction_from_mpf(mpmath.re(sol[i]))
                if frac is None:
                    coeffs = None
                    break
                coeffs.append(frac)
            if coeffs is None:
                continue
            candidate = fld.element(coeffs)
            if candidate * candidate == a:
                return candidate
    return None


def fixed_points(m: MoebiusMap) -> list[ProjectivePoint]:
    """Fixed points, i.e. the eigendirections of the matrix; 1 or 2 of them.

    Raises ExtensionRequiredError when no square root of the discriminant is
    found in the field (for a rational discriminant, when none exists); the
    caller can embed into a larger conductor and retry.
    """
    if m.is_identity():
        raise ValueError("the identity fixes every point")
    a, b, c, d = m.entries()
    t = m.trace()
    disc = (a - d) * (a - d) + b * c * 4
    half = m.field.rational(1, 2)

    def eigenvector(mu: CycloNum) -> ProjectivePoint:
        if not b.is_zero():
            return ProjectivePoint.make(b, mu - a)
        if not c.is_zero():
            return ProjectivePoint.make(mu - d, c)
        # diagonal with distinct entries
        return ProjectivePoint.infinity(m.field) if mu == a else ProjectivePoint.make(
            m.field.zero(), m.field.one()
        )

    if disc.is_zero():
        return [eigenvector(t * half)]
    # a triangular matrix has the eigenvalues a and d: disc = (a - d)^2
    s = a - d if b.is_zero() or c.is_zero() else cyclo_sqrt(disc)
    if s is None:
        raise ExtensionRequiredError(
            f"no square root of {disc} found in Q(zeta_{m.field.conductor})"
        )
    mu1 = (t + s) * half
    mu2 = (t - s) * half
    pts = [eigenvector(mu1), eigenvector(mu2)]
    pts.sort(key=lambda p: p.sort_key())
    return pts


def germ_at_fixed_point(m: MoebiusMap, q: ProjectivePoint, order: int) -> GermJet:
    """K-jet at 0 of m in the local chart w = z - q (or w = 1/z at infinity).

    The local expression is A*w / (1 + B*w), so the jet coefficients form the
    geometric sequence A * (-B)**(k-1); A is the multiplier of m at q.
    """
    if m.apply(q) != q:
        raise ValueError("the given point is not fixed by the map")
    a, b, c, d = m.entries()
    if q.is_infinity:
        lead, ratio = d / a, b / a
    else:
        gamma = c * q.u + d
        lead, ratio = (a - q.u * c) / gamma, c / gamma
    coeffs = {}
    cur = lead
    for k in range(1, order + 1):
        if not cur.is_zero():
            coeffs[(0, (k,))] = cur
        cur = cur * (-ratio)
    return GermJet(1, order, m.field, coeffs)


# ---------------------------------------------------------------------------
# holonomy verdict


@dataclass(frozen=True)
class HolonomyVerdict:
    """`finite_cyclic` is True, False, or "unresolved": the witness search was
    exhausted without a disproof, or the fixed points lie outside the field."""

    finite_cyclic: bool | str
    order: Optional[int] = None
    model: Optional[str] = None  # "rotation" | "inversion" | "other"
    first_integral_exponent: Optional[int] = None
    detail: str = ""
    certificate: Optional[str] = None


def holonomy_check(
    generators: Sequence[MoebiusMap],
    word_bound: int = DEFAULT_WITNESS_BOUND,
    order: int = 3,
    closure_cap: int = DEFAULT_CLOSURE_CAP,
) -> HolonomyVerdict:
    """Decide whether the generated Moebius group is finite cyclic.

    The number of generators must be 1 or a prime power (the
    ramification-degree hypothesis).  The generators must have finite order
    and satisfy the two basic-set conditions, checked by `check_basic_set`
    with witness words up to `word_bound` (its word ball grows only until
    every pair is answered); a common fixed point is then
    localized to a 1-dimensional jet presentation which is linearized
    simultaneously.  The closure of the Moebius group (`closure_enumerate`,
    listing at most `closure_cap` elements) is reported as an independent
    finiteness certificate.
    """
    gens = list(generators)
    if len(gens) != 1 and is_prime_power(len(gens)) is None:
        raise ValueError(f"generator count {len(gens)} is not a prime power")
    pres = GroupPresentation(tuple((f"g{i+1}", g) for i, g in enumerate(gens)))
    distinct = list(dict.fromkeys(gens))

    for g in distinct:
        o = g.order()
        if o.kind != "finite":
            return HolonomyVerdict(
                False,
                model="other",
                detail=f"generator {g!r} has infinite projective order",
                certificate=o.certificate,
            )

    if not check_product_identity(pres)[0]:
        return HolonomyVerdict(
            False, model="other", detail="ordered product of generators is not the identity"
        )
    report = check_basic_set(pres, word_bound)
    failed = [(pair, r) for pair, r in sorted(report.conjugacy.items()) if not r.found]
    if failed:
        disproved = [(pair, r) for pair, r in failed if r.status == "disproved"]
        (i, j), res = (disproved or failed)[0]
        return HolonomyVerdict(
            False if disproved else "unresolved",
            model="other" if disproved else None,
            detail=f"generator pair ({i}, {j}): {res.reason}",
        )

    nontrivial = [g for g in distinct if not g.is_identity()]
    if not nontrivial:
        return HolonomyVerdict(
            True, order=1, model="rotation", first_integral_exponent=1,
            detail="all generators are the identity",
        )
    common: Optional[list[ProjectivePoint]] = None
    try:
        for g in nontrivial:
            pts = fixed_points(g)
            common = pts if common is None else [p for p in common if p in pts]
    except ExtensionRequiredError as exc:
        return HolonomyVerdict("unresolved", detail=str(exc))
    if not common:
        return HolonomyVerdict(
            False, model="other", detail="generators have no common fixed point"
        )
    q = sorted(common, key=lambda p: p.sort_key())[0]

    germs = [(f"g{i+1}", germ_at_fixed_point(g, q, order)) for i, g in enumerate(gens)]
    outcome = linearize_group(GroupPresentation(tuple(germs)))
    if not isinstance(outcome, LinearizationSuccess):
        return HolonomyVerdict(
            False,
            model="other",
            detail=f"local germs at the fixed point do not linearize: {outcome.detail}",
        )
    k = outcome.group_order

    closure = closure_enumerate(pres, closure_cap)
    closure_note = {
        "closed": f"moebius closure has {closure.count} elements",
        "infinite": f"moebius closure is infinite: {closure.word} has infinite order",
        "cap-exceeded": f"moebius closure exceeded cap {closure_cap}",
    }[closure.status]

    if len(distinct) == 1 and distinct[0].order().order == 2 and len(common) == 2:
        return HolonomyVerdict(
            True, order=2, model="inversion",
            detail=f"single order-2 generator with two fixed points; {closure_note}",
        )
    return HolonomyVerdict(
        True,
        order=k,
        model="rotation",
        first_integral_exponent=k,
        detail=f"local multipliers generate a cyclic group of order {k}; {closure_note}",
    )
