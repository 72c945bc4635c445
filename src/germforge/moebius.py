"""Operations on Moebius maps: composition, orders, holonomy.

The map type `MoebiusMap` is in `mapform`, which parsing a document of
Moebius maps loads without this module; it is re-exported here.
`MoebiusMap.compose` and `order` call `moebius_compose` and `moebius_order`
through the package, so a function replaced here by name is the one they
run.

A map's projective order is the exact order of a 2x2 matrix built from it
with one field inverse, decided on the integer kernel of `jets`
(`linear_order`).  The holonomy verdict reads a document's presentation,
as every group check does, and needs no fixed point and no closure: once
the basic set is verified, it asks only whether the listed maps are one map
g, and the group's order is then the exact order of g.

`cyclo_sqrt` decides exact square roots in the field: a rational
radicand's root is built from Gauss sums, and any other root is found, or
proven absent, by an exact sign search modulo a prime power.  No command
calls it; it stays until `benchmarks/tracer.py` stops patching it by name.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .cyclo import (
    CycloField,
    CycloNum,
    FieldMismatchError,
    OrderResult,
    is_prime_power,
    prime_factors,
)
from .jets import linear_order
from .mapform import MoebiusMap
from .words import DEFAULT_WITNESS_BOUND

if TYPE_CHECKING:
    from .groupkit import GroupPresentation


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

    It is the matrix order (`jets.linear_order`) of B = A^2 / det(A), for A
    the matrix of m, taken with one field inverse.  B's eigenvalues are u
    and 1/u, u the ratio of A's: B = I exactly when A is scalar, B is
    unipotent and not I exactly when A is parabolic, and otherwise B^k = I
    exactly when u^k = 1, that is when A^k is scalar.  So the order of B is
    the projective order of A, and every finite one divides
    `torsion_exponent(N, 2)`.
    """
    a, b, c, d = m.entries()
    inv = m.det().inverse()
    bc, t = b * c, (a + d) * inv
    return linear_order((((a * a + bc) * inv, b * t), (c * t, (d * d + bc) * inv)))


# ---------------------------------------------------------------------------
# exact square roots


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


SQUARE_SCREEN_PRIMES = 6  # degree-one primes whose residue symbols `_search_prime` reads


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


def _horner(c: Sequence[int], r: int, m: int) -> int:
    """c(r) mod m for an ascending integer coefficient vector c."""
    v = 0
    for x in reversed(c):
        v = (v * r + x) % m
    return v


def _search_prime(c: tuple[int, ...], n: int) -> Optional[tuple[int, list[int], list[int]]]:
    """(p, roots, values) to start `_sign_search` from, or None when a residue
    symbol proves that the nonzero c has no square root in Z[zeta_n].

    For a prime p = 1 (mod n) and a root r of Phi_n mod p, zeta -> r is a
    ring homomorphism Z[zeta_n] -> F_p, so a root beta of c gives
    c(r) = beta(r)^2 mod p.  A nonzero non-residue (Euler's criterion) at any
    of the first `SQUARE_SCREEN_PRIMES` primes thus proves that c has no
    root.  Otherwise the search runs at the first prime where every value
    c(r) is a nonzero residue; one exists, since c vanishes at only finitely
    many primes.
    """
    search = None
    for i, p in enumerate(_primes_one_mod(n)):
        roots = _roots_of_cyclotomic_mod(n, p)
        values = [_horner(c, r, p) for r in roots]
        if any(v and pow(v, (p - 1) // 2, p) == p - 1 for v in values):
            return None
        if search is None and all(values):
            search = p, roots, values
        if search is not None and i + 1 >= SQUARE_SCREEN_PRIMES:
            return search


def _sqrt_mod_prime(v: int, p: int) -> int:
    """A square root of the quadratic residue v mod the odd prime p (Tonelli-Shanks)."""
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd, s = odd // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, x = pow(z, odd, p), pow(v, odd, p), pow(v, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


def _sign_search(fld: CycloField, c: tuple[int, ...], p: int, roots: list[int],
                 values: list[int]) -> Optional[tuple[int, ...]]:
    """A root beta in Z[zeta_N] of the integer vector c, or None when c has none.

    Each coordinate of a root is at most B = phi^(phi/2) * sqrt(sum |c_i|):
    beta solves V beta = (beta(zeta^k))_k, V the embedding matrix, each
    |beta(zeta^k)| is at most sqrt(sum |c_i|), |det V| >= 1 since det(V)^2
    is a nonzero integer, and Hadamard's bound caps each Cramer numerator.
    So beta is its own symmetric residue mod q = p^(2^j) > 2B.  Newton's
    method lifts the roots r_k of Phi_N and square roots s_k of the values
    c(r_k) from p to q.  zeta -> (r_k)_k is an isomorphism from Z[zeta_N]/q
    onto (Z/q)^phi, and beta(r_k) squares to the unit c(r_k), so it is
    +-s_k.  Fixing the first sign, one of +-beta is rebuilt by Lagrange
    interpolation from some choice of the other signs, and an exhausted
    search proves that c has no root.
    """
    n, phi, modulus = fld.conductor, fld.degree, fld.modulus
    bound_sq = phi ** phi * sum(map(abs, c))
    q, steps = p, 0
    while q * q <= 4 * bound_sq:
        q, steps = q * q, steps + 1
    half = pow(2, -1, q)
    weights = []
    for r, v in zip(roots, values):
        s = _sqrt_mod_prime(v, p)
        for _ in range(steps):
            r = (r - (pow(r, n, q) - 1) * pow(n * pow(r, n - 1, q), -1, q)) % q
        v = _horner(c, r, q)
        for _ in range(steps):
            s = (s + v * pow(s, -1, q)) * half % q
        # the Lagrange basis polynomial of r: Phi_N(x) / (x - r), scaled to 1 at r
        quotient, acc = [0] * phi, 0
        for i in range(phi, 0, -1):
            acc = (acc * r + modulus[i]) % q
            quotient[i - 1] = acc
        scale = s * pow(_horner(quotient, r, q), -1, q)
        weights.append([x * scale % q for x in quotient])
    beta = [sum(col) % q for col in zip(*weights)]
    signs = [1] * phi
    for mask in range(1 << (phi - 1)):
        if mask:  # Gray code: flip one sign per step
            k = (mask & -mask).bit_length()
            signs[k] = -signs[k]
            beta = [(x + 2 * signs[k] * w) % q for x, w in zip(beta, weights[k])]
        root = tuple(x - q if 2 * x > q else x for x in beta)
        if all(x * x <= bound_sq for x in root) and fld._mul(root, root) == c:
            return root
    return None


def cyclo_sqrt(a: CycloNum) -> Optional[CycloNum]:
    """A square root of `a` in its own field, or None when it has none there.

    A rational radicand q = num/den has a root in the field iff num * den
    does (`_rational_root_in_field`), and then sqrt(num * den) / den is
    built exactly (`_integer_sqrt`).  Any other radicand a = A/D has the
    roots beta/D for the roots beta in Z[zeta_N] of c = A*D: a residue
    symbol may prove at once that there is none (`_search_prime`), and
    otherwise the exact sign search finds one or proves it absent
    (`_sign_search`).  Every root is verified by exact squaring, so a
    returned value is always correct, and None is a proof.
    """
    fld = a.field
    if a.is_zero():
        return fld.zero()
    if not any(a.num[1:]):  # rational: a = num[0] / den in lowest terms
        m = a.num[0] * a.den
        if not _rational_root_in_field(m, fld.conductor):
            return None
        root = _integer_sqrt(fld, m) * fld.rational(1, a.den)
        if root * root == a:
            return root
    c = tuple(x * a.den for x in a.num)
    found = _search_prime(c, fld.conductor)
    beta = None if found is None else _sign_search(fld, c, *found)
    return None if beta is None else fld.from_integers(beta, a.den)


# ---------------------------------------------------------------------------
# holonomy verdict


class HolonomyVerdict(NamedTuple):
    """`finite_cyclic` is True, False, or "unresolved" when the witness search
    was exhausted without a disproof."""

    finite_cyclic: bool | str
    order: Optional[int] = None
    model: Optional[str] = None  # "rotation" | "inversion" | "other"
    first_integral_exponent: Optional[int] = None
    detail: str = ""
    certificate: Optional[str] = None


def holonomy_check(pres: GroupPresentation,
                   word_bound: int = DEFAULT_WITNESS_BOUND) -> HolonomyVerdict:
    """Decide whether the group of Moebius maps `pres` presents is finite cyclic.

    The number of generators must be 1 or a prime power (the
    ramification-degree hypothesis).  The generators must have finite order
    and satisfy the two basic-set conditions, checked by `check_basic_set`
    with witness words up to `word_bound` (its word ball grows only until
    every pair is answered) and with the presentation's own witnesses.  A
    cyclic group is abelian, and conjugate elements of an abelian group are
    equal, so the group is then finite cyclic exactly when the listed maps
    are one map g.  The group is then <g>, and its element count, reported
    in the closure note, is the exact order of g: no closure is enumerated.
    """
    # imported here, so that parsing a document of Moebius maps loads no groupkit
    from .groupkit import check_basic_set, check_product_identity

    gens = pres.elements
    if len(gens) != 1 and is_prime_power(len(gens)) is None:
        raise ValueError(f"generator count {len(gens)} is not a prime power")

    for name, g in pres.generators:  # equal generators are one object: one order each
        o = g.order()
        if o.kind != "finite":
            return HolonomyVerdict(False, model="other", certificate=o.certificate,
                                   detail=f"generator {name} has infinite projective order")

    if not check_product_identity(pres)[0]:
        return HolonomyVerdict(
            False, model="other", detail="ordered product of generators is not the identity"
        )
    report = check_basic_set(pres, word_bound)
    names = pres.names
    failed = [(pair, r) for pair, r in report.conjugacy.items() if not r.found]
    if failed:
        disproved = [(pair, r) for pair, r in failed if r.status == "disproved"]
        (i, j), res = (disproved or failed)[0]
        return HolonomyVerdict(
            False if disproved else "unresolved",
            model="other" if disproved else None,
            detail=f"generator pair ({names[i]}, {names[j]}): {res.reason}",
        )

    slots = report.slots
    if any(slots):
        (i, j), res = next(
            (pair, r) for pair, r in report.conjugacy.items() if slots[pair[0]] != slots[pair[1]])
        return HolonomyVerdict(
            False,
            model="other",
            detail=f"generator pair ({names[i]}, {names[j]}): distinct but conjugate by "
                   f"{res.word}, so the group is not abelian",
        )
    name, g = pres.generators[0]
    if g.is_identity():
        return HolonomyVerdict(
            True, order=1, model="rotation", first_integral_exponent=1,
            detail="all generators are the identity",
        )
    k = g.order().order
    return HolonomyVerdict(
        True, order=k, model="inversion" if k == 2 else "rotation",
        first_integral_exponent=None if k == 2 else k,
        detail=f"the listed maps are one map {name}, of order {k}; moebius closure has {k} elements")
