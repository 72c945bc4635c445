"""The jet element type, `GermJet`, and the integer kernel its constructor checks with.

A jet is held in one canonical integer form: a positive denominator D and a
sparse dict from (coordinate, multi-index), 1 <= |Q| <= K, to the phi(N)
integer numerators over Z[zeta_N] of that coefficient times D.  Zero
coefficients are absent and gcd(D, *all numerators) = 1, so equality and
hashing compare integers.  `GermJet.coeffs`, the coefficients as
`CycloNum`s, is a read-only view built on first read.

`GermJet(...)` validates its input: every key, every coefficient's field and,
with the determinant of its own integer linear part (`_int_det`), the
invertibility of the linear part.  The jets that group operations return
are built by `GermJet._trusted`, which skips all of that (see `jets`), and
so are a document's jets, after parsing has checked the same, invertibility
once per distinct linear part (see `documents.parse_document`).

Parsing a document builds `GermJet`s and uses nothing else of the jet layer.
Without a bytecode cache every module on that path is compiled at each
start, so this module holds only the type, its multi-index helpers and the
part of the integer kernel that `_int_det` runs on.  The operations on jets
(compose, invert, power, conjugate, the orders) and the matrix algebra are
in `jets`, which re-exports every name here.  The methods that need an
operation call it through the package at call time, as
`germforge.jets.compose(...)`: the first such call imports `jets`, and a
function replaced on `jets` by name is the one that runs.

A jet's linear part is a `LinearPart`: its integer form and the facts
computed on it (the exact order, the characteristic polynomial and the
inverse form), each computed once per object, and its diagonal read off
the form.  That integer form is the only matrix that any decision reads;
`GermJet.linear_matrix()`, rows of `CycloNum`s, is for reports.  Jets
that one document lists with equal linear parts share one object (see
`documents.parse_document`), so each fact is computed once per distinct
linear part of the document.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import germforge

from .cyclo import (CoefficientOrder, CycloField, CycloNum, FieldMismatchError, OrderResult,
                    _lowest_terms)

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
#   - `_common_form` (here) puts `CycloNum`s over one denominator;
#     `cyclo._lowest_terms` divides out the gcd of any other result;
#   - `jets._accumulate` and `jets._fold_sums` take every sum of products, as
#     integer convolutions folded through Phi_N once per sum; for phi(N) = 1
#     they are integer sums, and `jets._mul_nums` keeps its own dot products;
#   - `_int_det` (here) is fraction-free elimination (Bareiss, "Sylvester's
#     identity and multistep integer-preserving Gaussian elimination", Math.
#     Comp. 22, 1968); its only divisions are exact, through
#     `CycloField._norm_adjugate`, as is the one division of the inverse
#     that `jets._char_poly` reads off its Faddeev-LeVerrier pass.
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


def _int_identity(d: int, n: int) -> tuple[int, ...]:
    one = (1,) + (0,) * (d - 1)
    zero = (0,) * d
    return tuple(x for i in range(n) for j in range(n) for x in (one if i == j else zero))


def _entries(fld: CycloField, nums: Sequence[int]) -> list[tuple[int, ...]]:
    d = fld.degree
    return [tuple(nums[s:s + d]) for s in range(0, len(nums), d)]


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


def _int_det(fld: CycloField, n: int, a: IntMatrix) -> tuple[list[int], int]:
    """(num, den) with det(a) = num / den, by fraction-free elimination of
    the numerators X, swapping a nonzero pivot up: det(a) = det(X) / D^n.
    The last pivot is det(X), so no divider is built for it; num is the zero
    vector when a is singular."""
    den, nums = a
    entries = _entries(fld, nums)
    rows = [entries[i:i + n] for i in range(0, len(entries), n)]
    sign = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if any(rows[r][k])), None)
        if pivot is None:
            return [0] * fld.degree, 1
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        divide = _exact_divider(fld, rows[k - 1][k - 1]) if k else None
        for i in range(k + 1, n):
            _eliminate(fld, rows, k, i, k + 1, divide)
    return [sign * c for c in rows[n - 1][n - 1]], den ** n


class LinearPart:
    """The linear part of a jet: its canonical integer form `form`, and the
    facts computed on it, each once per object: the order by
    `jets._linear_order`, and the characteristic polynomial and the inverse
    form by one `jets._char_poly` pass (called through the package).

    The object points at no jet, so jets that share it form no reference
    cycle through it.
    """

    __slots__ = ("field", "n", "form", "_order", "_char_poly", "_inverse")

    def __init__(self, fld: CycloField, n: int, form: IntMatrix):
        self.field = fld
        self.n = n
        self.form = form
        self._order = None
        self._char_poly = None
        self._inverse = None

    def order(self) -> OrderResult:
        """The exact order of the matrix (`jets._linear_order`)."""
        if self._order is None:
            self._order = germforge.jets._linear_order(self.field, self.n, self.form)
        return self._order

    def char_poly(self) -> tuple[CycloNum, ...]:
        """The characteristic polynomial, ascending (`jets._char_poly`)."""
        if self._char_poly is None:
            self._char_poly, self._inverse = germforge.jets._char_poly(self.field, self.n, self.form)
        return self._char_poly

    def inverse(self) -> IntMatrix:
        """The integer form of the inverse matrix, from the pass of `char_poly`."""
        self.char_poly()
        return self._inverse

    def diagonal(self) -> Optional[tuple[CycloNum, ...]]:
        """The diagonal entries, read off the integer form, or None when an
        off-diagonal numerator is nonzero."""
        fld, n = self.field, self.n
        den, nums = self.form
        entries = _entries(fld, nums)
        if any(any(entries[i]) for i in range(n * n) if i % (n + 1)):
            return None
        return tuple(fld.from_integers(entries[i * (n + 1)], den) for i in range(n))


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
    built on first read and cached; `degree_slice` and `linear_matrix()`
    read the jet through it, and `canonical_key()` reads the integer form.
    The constructor checks every key and coefficient and rejects a singular
    linear part; `_trusted` builds, without checks, the results of group
    operations, invertible by construction, and the jets parsing checked.

    A jet is immutable, so each derived fact is kept once computed: `_lin`
    (the `LinearPart`, which keeps the linear part's integer form, order,
    characteristic polynomial and inverse form, and may be shared with other
    jets of one document), `_monomials` (the memo of `jets._monomial`),
    `_hash`, and `order()` and `inverse()` in `_order` and `_inverse`.
    `conjugacy_invariant()` is the `LinearPart`'s characteristic polynomial.
    """

    __slots__ = ("n", "K", "field", "den", "nums", "_coeffs", "_lin", "_monomials", "_hash",
                 "_order", "_inverse")

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
        self._inverse = None
        if not any(_int_det(fld, n, self._linear())[0]):
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
        jet._inverse = None
        return jet

    @classmethod
    def identity(cls, fld: CycloField, n: int, K: int) -> "GermJet":
        one = fld.one().num
        return cls._trusted(n, K, fld, 1, {(s, unit_index(n, s)): one for s in range(n)})

    # -- accessors ---------------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[tuple[int, MultiIndex], CycloNum]:
        """The nonzero coefficients as `CycloNum`s, read-only, built on first use."""
        if self._coeffs is None:
            fld, den = self.field, self.den
            self._coeffs = MappingProxyType(
                {key: fld.from_integers(v, den) for key, v in self.nums.items()})
        return self._coeffs

    def _linear_part(self) -> LinearPart:
        """The `LinearPart` of this jet, built on first use."""
        if self._lin is None:
            n, d = self.n, self.field.degree
            flat = [0] * (n * n * d)
            for (s, q), v in self.nums.items():
                if sum(q) == 1:
                    start = (s * n + q.index(1)) * d
                    flat[start:start + d] = v
            self._lin = LinearPart(self.field, n, _lowest_terms(self.den, flat))
        return self._lin

    def _linear(self) -> IntMatrix:
        """The canonical integer form of the linear part."""
        return self._linear_part().form

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

    def canonical_items(self):
        return sorted(self.coeffs.items(), key=_term_order)

    # -- group structure -----------------------------------------------------------

    @property
    def shape(self) -> tuple[CycloField, int, int]:
        return (self.field, self.n, self.K)

    def compose(self, other: "GermJet") -> "GermJet":
        return germforge.jets.compose(self, other)

    def inverse(self) -> "GermJet":
        """`jets.invert`, computed once per jet object.  The inverse does not
        point back, so a jet and its inverse form no reference cycle."""
        if self._inverse is None:
            self._inverse = germforge.jets.invert(self)
        return self._inverse

    def order(self) -> OrderResult:
        """`germ_order`, computed once per jet object."""
        if self._order is None:
            self._order = germforge.jets.germ_order(self)
        return self._order

    def conjugacy_invariant(self) -> tuple[CycloNum, ...]:
        """Characteristic polynomial of the linear part, computed once per `LinearPart`."""
        return self._linear_part().char_poly()

    def infinite_order_screen(self) -> Optional[str]:
        """Why this jet has infinite order, from two cheap sound tests, or None.

        A finite-order matrix has roots of unity as eigenvalues, so its trace
        is an algebraic integer; a jet whose linear part is the identity has
        infinite order unless it is the identity (see `jets.germ_order`).
        None decides nothing.
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
        by `CycloNum.sort_key`, each read off the integer form in its own
        lowest terms, without the `coeffs` view."""
        items = []
        for (s, q), v in sorted(self.nums.items(), key=_term_order):
            den, num = _lowest_terms(self.den, v)
            items.append((s, q, CoefficientOrder(num, den)))
        return (self.n, self.K, self.field.conductor, tuple(items))

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


def _term_order(item) -> tuple:
    """Sort key of a ((coordinate, multi-index), value) item: coordinate, then grlex."""
    (s, q), _ = item
    return (s, grlex_key(q))