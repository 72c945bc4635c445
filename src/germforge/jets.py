"""Sparse truncated polynomial jets of invertible self-maps of (C^n, 0).

A jet is held in one canonical integer form: a positive denominator D and a
sparse dict from (coordinate, multi-index), 1 <= |Q| <= K, to the phi(N)
integer numerators over Z[zeta_N] of that coefficient times D.  Zero
coefficients are absent and gcd(D, *all numerators) = 1, so equality and
hashing compare integers.  `GermJet.coeffs`, the coefficients as
`CycloNum`s, is a read-only view built on first read.

Composition runs on that form: the products G^Q of the substituted
components are memoized per jet, each coefficient of the result is a sum of
unreduced integer convolutions folded through Phi_N once, and the result
takes one gcd.  Inversion starts from the integer inverse of the linear part
and corrects one degree at a time on integers.

`GermJet(...)` validates its input: every key, every coefficient's field and,
with a determinant, the invertibility of the linear part.  Documents and
other outside input go through it.  The jets that group operations return
(`compose`, `invert` and so `power` and `conjugate`, and `identity`) are built
by `GermJet._trusted`, which skips all of that: their keys come from valid
jets, and invertibility is preserved, since the linear part of f o g is the
product of the linear parts and the determinant is multiplicative.

Linear parts are matrices of `CycloNum`s at the interface, but the exact
linear algebra (`mat_mul`, `mat_det`, `mat_inv`, `char_poly` and the
`linear_order` power test) runs on the same integer form, and jets and
matrices share one helper per rule (see the comment above `IntMatrix`):
`_common_form`, `_accumulate` with `_fold_sums`, `_bareiss`, and
`cyclo._lowest_terms` and `CycloField._norm_adjugate`.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

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

Matrix = tuple[tuple[CycloNum, ...], ...]
MultiIndex = tuple[int, ...]


class ShapeMismatchError(ValueError):
    """Jets with different dimension, truncation order, or field."""


def grlex_key(q: MultiIndex) -> tuple[int, MultiIndex]:
    return (sum(q), q)


def iter_multiindices(n: int, degree: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given total degree, in lexicographic order."""
    if n == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for tail in iter_multiindices(n - 1, degree - head):
            yield (head,) + tail


def unit_index(n: int, i: int) -> MultiIndex:
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# exact linear algebra over a cyclotomic field
#
# The kernel runs on one integer form of a matrix, `IntMatrix`: a pair
# (D, nums) of a positive denominator D and the flat row-major integer
# numerators, phi(N) per entry, of the entries over D.  The form is
# canonical, gcd(D, *nums) = 1, so two matrices are equal iff their forms
# are.  Each rule has one helper, shared by matrices and jets:
#   - `_common_form` puts `CycloNum`s over one denominator; `cyclo._lowest_terms`
#     divides out the gcd of any other result;
#   - `_accumulate` and `_fold_sums` take every sum of products, as integer
#     convolutions folded through Phi_N once per sum; for phi(N) = 1 they are
#     integer sums, and `_mul_nums` keeps its own dot products;
#   - `_bareiss` is the fraction-free elimination (Bareiss, "Sylvester's
#     identity and multistep integer-preserving Gaussian elimination", Math.
#     Comp. 22, 1968) of `mat_det` and `_int_inv`; its only divisions are
#     exact, through `CycloField._norm_adjugate`.
# `CycloNum`s are built only at the boundary.

IntMatrix = tuple[int, tuple[int, ...]]


def _common_form(values: Iterable[CycloNum]) -> tuple[int, list[tuple[int, ...]]]:
    """(D, nums): the canonical values (read twice) over D, the lcm of their denominators.

    The numerators are canonical without a gcd: a prime power p^e exactly
    dividing D exactly divides some value's denominator, and that value has
    a numerator prime to p, scaled by the prime-to-p factor D / den.
    """
    den = math.lcm(*[c.den for c in values])
    return den, [c.num if c.den == den else tuple(x * (den // c.den) for x in c.num)
                 for c in values]


def _int_form(a: Matrix) -> IntMatrix:
    """The integer form of a, over the lcm of the entry denominators."""
    den, nums = _common_form([c for row in a for c in row])
    return den, tuple(chain.from_iterable(nums))


def _int_identity(d: int, n: int) -> tuple[int, ...]:
    one = (1,) + (0,) * (d - 1)
    zero = (0,) * d
    return tuple(x for i in range(n) for j in range(n) for x in (one if i == j else zero))


def _entries(fld: CycloField, nums: Sequence[int]) -> list[tuple[int, ...]]:
    d = fld.degree
    return [tuple(nums[s:s + d]) for s in range(0, len(nums), d)]


def _matrix(fld: CycloField, cols: int, den: int, nums: Sequence[int]) -> Matrix:
    entries = [fld.from_integers(e, den) for e in _entries(fld, nums)]
    return tuple(tuple(entries[r:r + cols]) for r in range(0, len(entries), cols))


def _int_rows(fld: CycloField, n: int, a: IntMatrix) -> tuple[int, list[list[tuple[int, ...]]]]:
    """(D, rows): the n x n integer form a as mutable rows of entry vectors."""
    den, nums = a
    entries = _entries(fld, nums)
    return den, [entries[i:i + n] for i in range(0, len(entries), n)]


def _mul_nums(fld: CycloField, k: int, m: int, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """Numerators of (rows x k) times (k x m), integer matrices over Z[zeta_N]."""
    if fld.degree == 1:
        cols = [y[j::m] for j in range(m)]
        return [sum(map(operator.mul, x[i:i + k], col)) for i in range(0, len(x), k) for col in cols]
    a, b = _entries(fld, x), _entries(fld, y)
    pairs = list(product([a[i:i + k] for i in range(0, len(a), k)], [b[j::m] for j in range(m)]))
    sums = _fold_sums(fld, _accumulate(fld, (
        (s, u, v) for s, (row, col) in enumerate(pairs)
        for u, v in zip(row, col) if any(u) and any(v))))
    zero = (0,) * fld.degree
    return [c for s in range(len(pairs)) for c in sums.get(s, zero)]


def _int_mul(fld: CycloField, k: int, m: int, a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a (rows x k) times b (k x m) in canonical form, with one gcd."""
    return _lowest_terms(a[0] * b[0], _mul_nums(fld, k, m, a[1], b[1]))


def _exact_divider(fld: CycloField, v: tuple[int, ...]) -> Callable:
    """x -> x / v on the x in Z[zeta_N] that v divides; v nonzero.

    x / v = x * P / n with (P, n) from `CycloField._norm_adjugate`; for a
    rational v, P = 1 and x is divided by n alone.
    """
    adj, norm = fld._norm_adjugate(v)
    if adj == fld.one().num:
        return lambda x: tuple(c // norm for c in x)
    return lambda x: tuple(c // norm for c in fld._mul(x, adj))


def _eliminate(fld: CycloField, rows: list[list[tuple[int, ...]]], k: int, i: int,
               start: int, divide: Optional[Callable]) -> None:
    """One fraction-free step on row i with pivot row k, from column `start` on:
    row_i = (p * row_i - row_i[k] * row_k) / previous pivot.  Zeros are skipped."""
    mul = fld._mul
    p, f, pivot_row, row = rows[k][k], rows[i][k], rows[k], rows[i]
    if not any(f):
        f = None
    for j in range(start, len(row)):
        x, y = row[j], pivot_row[j]
        e = mul(p, x) if any(x) else None
        if f is not None and any(y):
            fy = mul(f, y)
            e = tuple(-c for c in fy) if e is None else tuple(map(operator.sub, e, fy))
        if e is not None:
            row[j] = e if divide is None else divide(e)


def _bareiss(fld: CycloField, rows: list[list[tuple[int, ...]]], steps: int,
             jordan: bool) -> Optional[int]:
    """Eliminate the first `steps` columns of the integer rows in place: step
    k swaps a row with a nonzero entry in column k into row k and runs
    `_eliminate` on the rows below it or, with `jordan`, on every other row.
    Returns the sign of the row swaps, or None for a zero pivot column."""
    n, sign = len(rows), 1
    for k in range(steps):
        pivot = next((r for r in range(k, n) if any(rows[r][k])), None)
        if pivot is None:
            return None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        divide = _exact_divider(fld, rows[k - 1][k - 1]) if k else None
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                _eliminate(fld, rows, k, i, k + 1, divide)
    return sign


def mat_identity(fld: CycloField, n: int) -> Matrix:
    one, zero = fld.one(), fld.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a times b, computed on integer forms."""
    fld = a[0][0].field
    k, m = len(b), len(b[0])
    den, nums = _int_mul(fld, k, m, _int_form(a), _int_form(b))
    return _matrix(fld, m, den, nums)


def mat_det(a: Matrix) -> CycloNum:
    """Determinant by Bareiss elimination of the numerators: det(a) = det(X) / D^n.
    The last pivot is det(X), so no divider is built for it."""
    n = len(a)
    fld = a[0][0].field
    den, rows = _int_rows(fld, n, _int_form(a))
    sign = _bareiss(fld, rows, n - 1, jordan=False)
    if sign is None:
        return fld.zero()
    return fld.from_integers([sign * c for c in rows[n - 1][n - 1]], den ** n)


def mat_inv(a: Matrix) -> Matrix:
    """Inverse, computed on the integer form (`_int_inv`)."""
    fld = a[0][0].field
    return _matrix(fld, len(a), *_int_inv(fld, len(a), _int_form(a)))


def _int_inv(fld: CycloField, n: int, a: IntMatrix) -> IntMatrix:
    """Inverse by fraction-free Gauss-Jordan on [X | I], X the numerators of a.

    The elimination ends with p * I on the left, p the last pivot, and
    p * X^-1 on the right; so a^-1 = D * right / p, one division.
    """
    den, rows = _int_rows(fld, n, a)
    unit = _entries(fld, _int_identity(fld.degree, n))
    for i, row in enumerate(rows):
        row += unit[i * n:(i + 1) * n]
    if _bareiss(fld, rows, n, jordan=True) is None:
        raise ZeroDivisionError("singular matrix")
    adj, out_den = fld._norm_adjugate(rows[n - 1][n - 1])
    scale = [c * den for c in adj]
    return _lowest_terms(out_den, [x for row in rows for e in row[n:] for x in fld._mul(e, scale)])


def mat_is_diagonal(a: Matrix) -> bool:
    return all(a[i][j].is_zero() for i in range(len(a)) for j in range(len(a)) if i != j)


def char_poly(a: Matrix) -> tuple[CycloNum, ...]:
    """Characteristic polynomial coefficients, ascending, monic."""
    return _char_poly(a[0][0].field, len(a), _int_form(a))


def _char_poly(fld: CycloField, n: int, a: IntMatrix) -> tuple[CycloNum, ...]:
    """`char_poly` by Faddeev-LeVerrier on the numerators X = D * a, an
    integer matrix over Z[zeta_N]: its coefficients are algebraic integers,
    so each division of a trace by k is exact, and a's coefficient of
    x^(n-k) is X's over D^k.
    """
    d = fld.degree
    den, x = a
    coeffs = [fld.zero()] * n + [fld.one()]
    m = _int_identity(d, n)
    diagonal = [(i * n + i) * d for i in range(n)]
    for k in range(1, n + 1):
        m = _mul_nums(fld, n, n, x, m)
        c = [-sum(m[s + t] for s in diagonal) // k for t in range(d)]
        coeffs[n - k] = fld.from_integers(c, den ** k)
        for s in diagonal:
            for t in range(d):
                m[s + t] += c[t]
    return tuple(coeffs)


# ---------------------------------------------------------------------------


class GermJet:
    """K-jet of a holomorphic self-map of (C^n, 0) with invertible linear part.

    A jet is held as one positive integer denominator `den` and the sparse
    dict `nums` mapping (coordinate, multi-index) to the phi(N) integer
    numerators of that coefficient times `den`, in the power basis of
    Z[zeta_N].  Keys with |Q| = 0 or |Q| > K do not occur, zero coefficients
    are absent, and gcd(den, *all numerators) = 1, so the form is canonical:
    equality compares it and the cached hash is taken from it.

    `coeffs` is the read-only mapping of the coefficients as `CycloNum`s,
    built on first read and cached; `coeff`, `degree_slice`,
    `linear_matrix()` and `canonical_key()` read the jet through it or
    through the linear part's integer form.  The constructor checks every
    key and coefficient and rejects a singular linear part; `_trusted`
    builds the results of group operations, invertible by construction,
    without checks.
    """

    __slots__ = ("n", "K", "field", "den", "nums", "_coeffs", "_lin", "_monomials", "_hash",
                 "_order")

    def __init__(self, n: int, K: int, fld: CycloField, coeffs: Mapping):
        if n < 1 or K < 1:
            raise ValueError("dimension and truncation order must be >= 1")
        clean: dict[tuple[int, MultiIndex], CycloNum] = {}
        for (s, q), c in coeffs.items():
            q = tuple(q)
            if not (0 <= s < n) or len(q) != n:
                raise ShapeMismatchError(f"bad coefficient key ({s}, {q})")
            deg = sum(q)
            if deg < 1 or deg > K:
                raise ShapeMismatchError(f"monomial {q} outside degree range 1..{K}")
            if not isinstance(c, CycloNum):
                c = fld.from_rational(c)
            if c.field.conductor != fld.conductor:
                raise FieldMismatchError("coefficient from a different field")
            if not c.is_zero():
                clean[(s, q)] = c
        den, nums = _common_form(clean.values())
        self.n = n
        self.K = K
        self.field = fld
        self.den = den
        self.nums = dict(zip(clean, nums))
        self._coeffs = MappingProxyType(clean)
        self._lin = None
        self._monomials = None
        self._hash = None
        self._order = None
        if mat_det(self.linear_matrix()).is_zero():
            raise ValueError("linear part is not invertible")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, K: int, fld: CycloField, den: int, nums: dict) -> "GermJet":
        """The jet of the canonical form (den, nums), with well-formed keys and
        an invertible linear part, as group operations produce it; unchecked."""
        jet = object.__new__(cls)
        jet.n = n
        jet.K = K
        jet.field = fld
        jet.den = den
        jet.nums = nums
        jet._coeffs = None
        jet._lin = None
        jet._monomials = None
        jet._hash = None
        jet._order = None
        return jet

    @classmethod
    def identity(cls, fld: CycloField, n: int, K: int) -> "GermJet":
        one = fld.one().num
        return cls._trusted(n, K, fld, 1, {(s, unit_index(n, s)): one for s in range(n)})

    @classmethod
    def from_linear(cls, matrix: Matrix, K: int) -> "GermJet":
        return cls(len(matrix), K, matrix[0][0].field, _linear_coeffs(matrix))

    # -- accessors ---------------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[tuple[int, MultiIndex], CycloNum]:
        """The nonzero coefficients as `CycloNum`s, read-only, built on first use."""
        if self._coeffs is None:
            fld, den = self.field, self.den
            self._coeffs = MappingProxyType(
                {key: fld.from_integers(v, den) for key, v in self.nums.items()})
        return self._coeffs

    def coeff(self, s: int, q: MultiIndex) -> CycloNum:
        return self.coeffs.get((s, tuple(q)), self.field.zero())

    def _linear(self) -> IntMatrix:
        """The canonical integer form of the linear part, computed once."""
        if self._lin is None:
            n, d = self.n, self.field.degree
            flat = [0] * (n * n * d)
            for (s, q), v in self.nums.items():
                if sum(q) == 1:
                    start = (s * n + q.index(1)) * d
                    flat[start:start + d] = v
            self._lin = _lowest_terms(self.den, flat)
        return self._lin

    def _monomial(self, q: MultiIndex) -> dict:
        """The numerators of G^q, G = den * self, up to degree K, as
        {multi-index: vector}; memoized per jet, from the components G_i."""
        memo = self._monomials
        if memo is None:
            n = self.n
            memo = self._monomials = {unit_index(n, s): {} for s in range(n)}
            units = list(memo.values())
            for (s, p), v in self.nums.items():
                units[s][p] = v
        hit = memo.get(q)
        if hit is None:
            i = max(j for j, e in enumerate(q) if e)
            rest = q[:i] + (q[i] - 1,) + q[i + 1:]
            hit = memo[q] = _poly_mul(self.field, self._monomial(rest),
                                      memo[unit_index(self.n, i)], self.K)
        return hit

    def linear_matrix(self) -> Matrix:
        n, zero, coeffs = self.n, self.field.zero(), self.coeffs
        return tuple(
            tuple(coeffs.get((s, unit_index(n, i)), zero) for i in range(n)) for s in range(n)
        )

    def degree_slice(self, k: int) -> dict:
        return {key: c for key, c in self.coeffs.items() if sum(key[1]) == k}

    def is_identity(self) -> bool:
        if self.den != 1 or len(self.nums) != self.n:
            return False
        one, n = self.field.one().num, self.n
        return all(self.nums.get((s, unit_index(n, s))) == one for s in range(n))

    def is_linear(self) -> bool:
        return all(sum(q) == 1 for (_, q) in self.nums)

    def truncate(self, new_k: int) -> "GermJet":
        if new_k > self.K:
            raise ValueError("cannot raise truncation order of an existing jet")
        kept = {key: c for key, c in self.coeffs.items() if sum(key[1]) <= new_k}
        return GermJet(self.n, new_k, self.field, kept)

    def canonical_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][0], grlex_key(kv[0][1])))

    # -- group structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[CycloField, int, int]:
        return (self.field, self.n, self.K)

    def compose(self, other: "GermJet") -> "GermJet":
        return compose(self, other)

    def inverse(self) -> "GermJet":
        return invert(self)

    def order(self) -> "OrderResult":
        """`germ_order`, computed once per jet object."""
        if self._order is None:
            self._order = germ_order(self)
        return self._order

    def conjugacy_invariant(self) -> tuple[CycloNum, ...]:
        """Characteristic polynomial of the linear part."""
        return _char_poly(self.field, self.n, self._linear())

    def infinite_order_screen(self) -> Optional[str]:
        """Why this jet has infinite order, from two cheap sound tests, or None.

        A finite-order matrix has roots of unity as eigenvalues, so its trace
        is an algebraic integer; a jet whose linear part is the identity has
        infinite order unless it is the identity (see `germ_order`).  None
        decides nothing.
        """
        fld, n, d = self.field, self.n, self.field.degree
        den, lin = self._linear()
        trace = [sum(lin[(i * n + i) * d + t] for i in range(n)) for t in range(d)]
        if any(x % den for x in trace):
            return (f"trace {fld.from_integers(trace, den)} of the linear part is not an "
                    "algebraic integer, but the trace of a finite-order matrix is a sum of "
                    "roots of unity")
        if not self.is_linear() and (den, lin) == (1, _int_identity(d, n)):
            return "tangent to the identity with a nonzero nonlinear slice"
        return None

    # -- equality / hashing ----------------------------------------------------------

    def canonical_key(self):
        """Sort key: coordinates, then monomials in grlex order, then coefficients
        by `CycloNum.sort_key`."""
        items = tuple((s, q, c.sort_key()) for (s, q), c in self.canonical_items())
        return (self.n, self.K, self.field.conductor, items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GermJet):
            return NotImplemented
        return (self.den == other.den and self.nums == other.nums and self.K == other.K
                and self.n == other.n and self.field.conductor == other.field.conductor)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.K, self.field.conductor, self.den,
                               frozenset(self.nums.items())))
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for s in range(self.n):
            terms = [
                f"({c})*Z^{list(q)}" for (t, q), c in self.canonical_items() if t == s
            ]
            parts.append(" + ".join(terms) if terms else "0")
        return f"GermJet[{'; '.join(parts)}]"


def _linear_coeffs(matrix: Matrix) -> dict:
    n = len(matrix)
    return {(s, unit_index(n, i)): matrix[s][i] for s in range(n) for i in range(n)}


def _check_shapes(f: GermJet, g: GermJet) -> None:
    if (f.n, f.K) != (g.n, g.K):
        raise ShapeMismatchError(
            f"jet shape mismatch: (n={f.n}, K={f.K}) vs (n={g.n}, K={g.K})"
        )
    if f.field.conductor != g.field.conductor:
        raise FieldMismatchError(
            f"conductor mismatch: {f.field.conductor} vs {g.field.conductor}"
        )


def _accumulate(fld: CycloField, terms: Iterable) -> dict:
    """{key: the sum of a * b over the (key, a, b) in terms}, for integer
    vectors a, b over Z[zeta_N], unreduced: an int for phi(N) = 1, else the
    convolution list, to be folded through Phi_N once per key."""
    acc: dict = {}
    if fld.degree == 1:
        for key, a, b in terms:
            acc[key] = acc.get(key, 0) + a[0] * b[0]
        return acc
    width = 2 * fld.degree - 1
    for key, a, b in terms:
        conv = acc.get(key)
        if conv is None:
            conv = acc[key] = [0] * width
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    if y:
                        conv[j] += x * y
    return acc


def _fold_sums(fld: CycloField, acc: dict) -> dict:
    """The nonzero sums of `_accumulate` as reduced numerator vectors."""
    if fld.degree == 1:
        return {key: (x,) for key, x in acc.items() if x}
    out = {}
    for key, conv in acc.items():
        v = fld._reduce(conv)
        if any(v):
            out[key] = v
    return out


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


def compose(f: GermJet, g: GermJet) -> "GermJet":
    """K-jet of f o g on the integer forms; terms above K are discarded eagerly.

    With f = F / D_f and g = G / D_g, the term of f at Q contributes
    F_Q * G^Q * D_g^(K-|Q|) over the shared denominator D_f * D_g^K; the
    products G^Q are memoized on g (`GermJet._monomial`).  For K = 1 this is
    a sparse matrix product: f's entry at (s, e_i) meets the nonzero entries
    of g's row i.
    """
    _check_shapes(f, g)
    fld, K, dg = f.field, f.K, g.den
    items = f.nums.items()
    if dg != 1 and K > 1:
        items = [((s, q), c if sum(q) == K else [x * dg ** (K - sum(q)) for x in c])
                 for (s, q), c in items]
    monomial = g._monomial
    terms = (((s, r), c, v) for (s, q), c in items for r, v in monomial(q).items())
    return GermJet._trusted(f.n, K, fld, *_canonical_sums(fld, f.den * dg ** K, terms))


def invert(f: GermJet) -> "GermJet":
    """Jet inverse, solved degree by degree from the linear part.

    It starts from the inverse L / D_L of the linear part (`_int_inv`).  At
    degree k, with R / D_h the degree-k slice of f o g, it sets
    g <- g - L * R / (D_L * D_h), over the lcm m of the two denominators.
    """
    fld, n, K = f.field, f.n, f.K
    den, flat = _int_inv(fld, n, f._linear())
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

    Every finite order divides `torsion_exponent(N, n)`, so one power test
    decides finiteness and a scan of the powers finds the order.  Both run
    on the canonical integer form, so each comparison with the identity
    compares integers.
    """
    return element_order(
        a, torsion_exponent(fld.conductor, n),
        lambda x, y: _int_mul(fld, n, n, x, y), (1, _int_identity(fld.degree, n)),
    )


def germ_order(f: GermJet) -> OrderResult:
    """Order of a jet in the K-jet group, with one jet power.

    A finite-order jet must have finite-order linear part; with m0 its order,
    f**d has linear part != Id for d < m0, and f**m0 is tangent to the
    identity: any nonzero slice of it is multiplied by m under further
    powers, so it can never return to Id.
    """
    lo = _linear_order(f.field, f.n, f._linear())
    if lo.is_infinite:
        return OrderResult("infinite", certificate=f"linear part has infinite order: {lo.certificate}")
    if not power(f, lo.order).is_identity():
        return OrderResult(
            "infinite",
            certificate=f"f^{lo.order} is tangent to identity with a nonzero nonlinear slice",
        )
    return lo
