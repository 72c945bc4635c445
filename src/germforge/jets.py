"""Operations on jets, and exact linear algebra over a cyclotomic field.

The jet type `GermJet`, its canonical integer form and its constructor's
check are in `jetform`, which parsing a document loads without this module;
every name of `jetform` that callers use is re-exported here.  This module
holds what a parsed jet is used for: `compose`, `invert`, `power`,
`conjugate`, the orders (`germ_order`, `linear_order`) and the matrix
algebra (`char_poly`, `mat_det`).  `GermJet.compose`, `inverse` and
`order`, and the order a `jetform.LinearPart` keeps, call these functions
through the package, so a function replaced here by name is the one they
run.

Composition runs on the integer form: the products G^Q of the substituted
components are memoized per jet (`_monomial`), each coefficient of the
result is a sum of unreduced integer convolutions folded through Phi_N once,
and the result takes one gcd.  Inversion starts from the integer inverse of
the linear part and corrects one degree at a time on integers.

The jets that group operations return (`compose`, `invert` and so `power`
and `conjugate`, and `identity`) are built by `GermJet._trusted`, which
skips the constructor's checks: their keys come from valid jets, and
invertibility is preserved, since the linear part of f o g is the product
of the linear parts and the determinant is multiplicative.

Matrices enter as rows of `CycloNum`s only at the exported interface
(`char_poly`, `mat_det`, `linear_order`), which puts them in the same
integer form at once; every decision reads that form, as a jet's
`LinearPart` holds it.  The exact linear algebra runs on it: `_int_mul` and
the `_linear_order` powers here, and the Faddeev-LeVerrier pass
`_char_poly` in `jetform`, which gives the characteristic polynomial, the
determinant as (-1)^n times its constant term, and the inverse.  Jets and
matrices share one helper per rule (see the comment above `IntMatrix` in
`jetform`): `_common_form`, `_accumulate` with `_fold_sums`, and
`cyclo._lowest_terms`.
"""

from __future__ import annotations

import math
import operator
from itertools import chain
from typing import Iterable

from .cyclo import (
    CycloField,
    CycloNum,
    FieldMismatchError,
    OrderResult,
    _lowest_terms,
    binary_power,
    element_order,
    torsion_exponent,
)
from .jetform import (
    GermJet,
    IntMatrix,
    Matrix,
    MultiIndex,
    ShapeMismatchError,
    _accumulate,
    _char_poly,
    _common_form,
    _entries,
    _fold_sums,
    _int_identity,
    _mul_nums,
    iter_multiindices,
    term_order,
    unit_index,
)


def _int_form(a: Matrix) -> IntMatrix:
    """The integer form of a, over the lcm of the entry denominators."""
    den, nums = _common_form([c for row in a for c in row])
    return den, tuple(chain.from_iterable(nums))


def _int_mul(fld: CycloField, k: int, m: int, a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a (rows x k) times b (k x m) in canonical form, with one gcd."""
    return _lowest_terms(a[0] * b[0], _mul_nums(fld, k, m, a[1], b[1]))


def mat_det(a: Matrix) -> CycloNum:
    """Determinant, (-1)^n times the constant term of `char_poly`."""
    c0 = char_poly(a)[0]
    return -c0 if len(a) % 2 else c0


def char_poly(a: Matrix) -> tuple[CycloNum, ...]:
    """Characteristic polynomial coefficients, ascending, monic."""
    return _char_poly(a[0][0].field, len(a), _int_form(a))[0]


def _check_shapes(f: GermJet, g: GermJet) -> None:
    if (f.n, f.K) != (g.n, g.K):
        raise ShapeMismatchError(
            f"jet shape mismatch: (n={f.n}, K={f.K}) vs (n={g.n}, K={g.K})"
        )
    if f.field.conductor != g.field.conductor:
        raise FieldMismatchError(
            f"conductor mismatch: {f.field.conductor} vs {g.field.conductor}"
        )


def _canonical_sums(fld: CycloField, den: int, terms: Iterable) -> tuple[int, dict]:
    """The canonical (den, nums) of the sums of products in terms (see
    `_accumulate`) over den > 0, with one gcd."""
    acc = _accumulate(fld, terms)
    if fld.degree == 1:
        g = math.gcd(den, *acc.values()) if den != 1 else 1
        if g == 1:
            return den, {key: (x,) for key, x in acc.items() if x}
        return den // g, {key: (x // g,) for key, x in acc.items() if x}
    nums = _fold_sums(fld, acc)
    g = math.gcd(den, *chain.from_iterable(nums.values())) if den != 1 else 1
    if g == 1:
        return den, nums
    divide = g.__rfloordiv__  # x -> x // g
    return den // g, {key: tuple(map(divide, v)) for key, v in nums.items()}


def _poly_mul(fld: CycloField, p: dict, q: dict, cap: int) -> dict:
    """p * q without the terms above degree cap; polynomials as
    {multi-index: integer numerator vector}."""
    return _fold_sums(fld, _accumulate(fld, (
        (tuple(map(operator.add, q1, q2)), c1, c2)
        for q1, c1 in p.items() for q2, c2 in q.items() if sum(q1) + sum(q2) <= cap
    )))


def _monomial(g: GermJet, q: MultiIndex) -> dict:
    """The numerators of G^q, G = den * g, up to degree K, as
    {multi-index: vector}; memoized in g's `_monomials` slot, from the
    components G_i."""
    memo = g._monomials
    if memo is None:
        n = g.n
        memo = g._monomials = {unit_index(n, s): {} for s in range(n)}
        units = list(memo.values())
        for (s, p), v in g.nums.items():
            units[s][p] = v
    hit = memo.get(q)
    if hit is None:
        i = max(j for j, e in enumerate(q) if e)
        rest = q[:i] + (q[i] - 1,) + q[i + 1:]
        hit = memo[q] = _poly_mul(g.field, _monomial(g, rest), memo[unit_index(g.n, i)], g.K)
    return hit


def compose(f: GermJet, g: GermJet) -> "GermJet":
    """K-jet of f o g on the integer forms; terms above K are discarded eagerly.

    With f = F / D_f and g = G / D_g, the term of f at Q contributes
    F_Q * G^Q * D_g^(K-|Q|) over the shared denominator D_f * D_g^K; the
    products G^Q are memoized on g (`_monomial`).  For K = 1 this is
    a sparse matrix product: f's entry at (s, e_i) meets the nonzero entries
    of g's row i.
    """
    _check_shapes(f, g)
    fld, K, dg = f.field, f.K, g.den
    items = f.nums.items()
    if dg != 1 and K > 1:
        items = [((s, q), c if sum(q) == K else [x * dg ** (K - sum(q)) for x in c])
                 for (s, q), c in items]
    terms = (((s, r), c, v) for (s, q), c in items for r, v in _monomial(g, q).items())
    return GermJet._trusted(f.n, K, fld, *_canonical_sums(fld, f.den * dg ** K, terms))


def invert(f: GermJet) -> "GermJet":
    """Jet inverse, solved degree by degree from the linear part.

    It starts from the inverse L / D_L of the linear part, read from f's
    `LinearPart` (`LinearPart.inverse`, once per linear part).  At degree k, with
    R / D_h the degree-k slice of f o g, it sets g <- g - L * R / (D_L * D_h),
    over the lcm m of the two denominators.
    """
    fld, n, K = f.field, f.n, f.K
    den, flat = f._linear_part().inverse()
    entries = _entries(fld, flat)
    units = [unit_index(n, i) for i in range(n)]
    g = GermJet._trusted(n, K, fld, den, {
        (s, units[t]): entries[s * n + t]
        for s in range(n) for t in range(n) if any(entries[s * n + t])
    })
    # the nonzero entries of column t of L, as (row, entry)
    columns = [[(s, entries[s * n + t]) for s in range(n) if any(entries[s * n + t])]
               for t in range(n)]
    for k in range(2, K + 1):
        h = compose(f, g)
        residual = [(key, v) for key, v in h.nums.items() if sum(key[1]) == k]
        if not residual:
            continue
        m = math.lcm(g.den, den * h.den)
        scale = (m // g.den,) + (0,) * (fld.degree - 1)
        minus = -(m // (den * h.den))
        terms = chain(
            ((key, v, scale) for key, v in g.nums.items()),
            (((s, q), e, [minus * y for y in v]) for (t, q), v in residual for s, e in columns[t]),
        )
        g = GermJet._trusted(n, K, fld, *_canonical_sums(fld, m, terms))
    return g


def conjugate(h: GermJet, f: GermJet) -> "GermJet":
    """h o f o h^{-1}."""
    return compose(compose(h, f), invert(h))


def power(f: GermJet, m: int) -> "GermJet":
    if m < 0:
        return power(invert(f), -m)
    if m == 0:
        return GermJet.identity(f.field, f.n, f.K)
    return binary_power(f, m, compose)


# ---------------------------------------------------------------------------
# element orders


def linear_order(a: Matrix) -> OrderResult:
    """Exact order of an invertible n x n matrix over Q(zeta_N)."""
    return _linear_order(a[0][0].field, len(a), _int_form(a))


def _linear_order(fld: CycloField, n: int, a: IntMatrix) -> OrderResult:
    """`linear_order` of the integer form a.

    Every finite order divides E = `torsion_exponent(N, n)`, so
    `element_order` reads the order off the prime powers of E, or proves it
    infinite; the identity takes no product.  Its products run on the
    canonical integer form, so each comparison with the identity compares
    integers.  A jet's `LinearPart` runs this once and keeps the result.
    """
    return element_order(
        a, torsion_exponent(fld.conductor, n),
        lambda x, y: _int_mul(fld, n, n, x, y), (1, _int_identity(fld.degree, n)),
    )


def germ_order(f: GermJet) -> OrderResult:
    """Order of a jet in the K-jet group, with at most one jet power.

    A finite-order jet must have finite-order linear part; with m0 its order,
    f**d has linear part != Id for d < m0, and f**m0 is tangent to the
    identity: any nonzero slice of it is multiplied by m under further
    powers, so it can never return to Id.  A linear jet L needs no power:
    f**m0 is L**m0 = Id.  m0 is read from f's `LinearPart`, so jets that
    share one compute it once.
    """
    lo = f._linear_part().order()
    if lo.is_infinite:
        return OrderResult("infinite", certificate=f"linear part has infinite order: {lo.certificate}")
    if not f.is_linear() and not power(f, lo.order).is_identity():
        return OrderResult(
            "infinite",
            certificate=f"f^{lo.order} is tangent to identity with a nonzero nonlinear slice",
        )
    return lo
