"""The jet element type, `GermJet`, and the integer kernel of its linear part.

A jet is held in one canonical integer form: a positive denominator D and a
sparse dict from (coordinate, multi-index), 1 <= |Q| <= K, to the phi(N)
integer numerators over Z[zeta_N] of that coefficient times D.  Zero
coefficients are absent and gcd(D, *all numerators) = 1, so equality and
hashing compare integers.  `GermJet.coeffs`, the coefficients as
`CycloNum`s, is a read-only view built on first read.

A jet's linear part is a `LinearPart`: its integer form and the facts
computed on it, each once per object.  One Faddeev-LeVerrier pass
(`_char_poly`) gives every fact but the order: the characteristic
polynomial, which is the conjugacy invariant; invertibility and the
determinant, from its constant term; and the inverse form, by one exact
division of the pass's last auxiliary matrix, made on the first call.  The
exact order is `jets._linear_order`'s, and the diagonal is read off the
form.  That integer form is the only matrix that any decision reads;
`GermJet.linear_matrix()`, rows of `CycloNum`s, is for reports.

`GermJet(...)` validates its input: every key, every coefficient's field and
the invertibility of the linear part.  The jets that group operations
return are built by `GermJet._trusted`, which skips all of that (see
`jets`), and so are a document's jets, after parsing has checked the same,
invertibility once per distinct linear part: jets that one document lists
with equal linear parts share one `LinearPart` (see
`documents.parse_document`), and the pass that checked it gives its
invariant and its inverse later.

Parsing a document builds `GermJet`s and uses nothing else of the jet layer.
Without a bytecode cache every module on that path is compiled at each
start, so this module holds only the type, its multi-index helpers and the
part of the integer kernel that the pass runs on.  The operations on jets
(compose, invert, power, conjugate, the orders) and the exported matrix
functions are in `jets`, which re-exports every name here.  The methods that
need an operation call it through the package at call time, as
`germforge.jets.compose(...)`: the first such call imports `jets`, and a
function replaced on `jets` by name is the one that runs.
"""

from __future__ import annotations

import math
import operator
from itertools import product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import germforge

from .cyclo import (CoefficientOrder, CycloField, CycloNum, FieldMismatchError, OrderResult,
                    _lowest_terms)

Matrix = tuple[tuple[CycloNum, ...], ...]
MultiIndex = tuple[int, ...]


class ShapeMismatchError(ValueError):
    """Jets with different dimension, truncation order, or field."""


def term_order(key: tuple[int, MultiIndex]) -> tuple[int, int, MultiIndex]:
    """Sort key of a (coordinate, multi-index) key: the coordinate, then the
    multi-index in grlex order (total degree, then lexicographic)."""
    s, q = key
    return s, sum(q), q


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
#   - `_common_form` puts `CycloNum`s over one denominator;
#     `cyclo._lowest_terms` divides out the gcd of any other result;
#   - `_accumulate` and `_fold_sums` take every sum of products, as integer
#     convolutions folded through Phi_N once per sum; for phi(N) = 1 they
#     are integer sums, and `_mul_nums` keeps its own dot products;
#   - `_char_poly` is the one Faddeev-LeVerrier pass, which divides only by
#     integers; the only division by a field element is that of
#     `LinearPart.inverse`, exact, through `CycloField._norm_adjugate`.
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


def _char_poly(fld: CycloField, n: int, a: IntMatrix) -> tuple[tuple[CycloNum, ...], Sequence[int]]:
    """(the characteristic polynomial of a, ascending and monic, the
    numerators of M_n) from one Faddeev-LeVerrier pass on X = D * a, an
    integer matrix over Z[zeta_N]: each division of a trace by k is exact,
    and a's coefficient of x^(n-k) is X's, c_k = -tr(X M_k) / k, over D^k,
    with M_1 = I and M_(k+1) = X M_k + c_k I.  X M_1 is X, and only the
    trace of X M_n is needed, so the pass takes n - 2 products and divides
    by nothing but k.  X M_n = -c_n I (Cayley-Hamilton), so a is singular
    exactly when c_n = 0, det(a) = (-1)^n c_n / D^n, and a^-1 = -D M_n / c_n
    (Cohen, GTM 138, Algorithm 2.2.7; `LinearPart.inverse`).
    """
    d = fld.degree
    den, x = a
    coeffs = [fld.zero()] * n + [fld.one()]
    diagonal = [(i * n + i) * d for i in range(n)]
    m = _int_identity(d, n)  # M_k
    for k in range(1, n):
        m = list(x) if k == 1 else _mul_nums(fld, n, n, x, m)
        c = [-sum(m[s + t] for s in diagonal) // k for t in range(d)]
        coeffs[n - k] = fld.from_integers(c, den ** k)
        for s in diagonal:
            for t in range(d):
                m[s + t] += c[t]
    xe, me = _entries(fld, x), _entries(fld, m)
    trace = _fold_sums(fld, _accumulate(fld, (
        (0, xe[i * n + j], me[j * n + i]) for i in range(n) for j in range(n)
        if any(xe[i * n + j]) and any(me[j * n + i]))))
    if trace:
        coeffs[0] = fld.from_integers([-v // n for v in trace[0]], den ** n)
    return tuple(coeffs), m


class LinearPart:
    """The linear part of a jet: its canonical integer form `form`, and the
    facts computed on it, each once per object: the order by
    `jets._linear_order` (called through the package), and the
    characteristic polynomial by one `_char_poly` pass, whose M_n gives the
    inverse form with one exact division on the first call of `inverse()`.

    The object points at no jet, so jets that share it form no reference
    cycle through it.
    """

    __slots__ = ("field", "n", "form", "_order", "_char_poly", "_m_n", "_inverse")

    def __init__(self, fld: CycloField, n: int, form: IntMatrix):
        self.field = fld
        self.n = n
        self.form = form
        self._order = None
        self._char_poly = None
        self._m_n = None
        self._inverse = None

    def order(self) -> OrderResult:
        """The exact order of the matrix (`jets._linear_order`)."""
        if self._order is None:
            self._order = germforge.jets._linear_order(self.field, self.n, self.form)
        return self._order

    def char_poly(self) -> tuple[CycloNum, ...]:
        """The characteristic polynomial, ascending (`_char_poly`); its
        constant term is zero exactly when the matrix is singular."""
        if self._char_poly is None:
            self._char_poly, self._m_n = _char_poly(self.field, self.n, self.form)
        return self._char_poly

    def inverse(self) -> IntMatrix:
        """The integer form of the inverse of an invertible matrix, from the
        pass of `char_poly`: with c_0 = r / s in lowest terms the constant
        term, D^n c_0 = c_n, so a^-1 = -D M_n / c_n = -s M_n / (D^(n-1) r),
        one exact division through `CycloField._norm_adjugate`."""
        if self._inverse is None:
            fld, c0 = self.field, self.char_poly()[0]
            adj, norm = fld._norm_adjugate(c0.num)
            scale = [v * c0.den for v in adj]
            self._inverse = _lowest_terms(-norm * self.form[0] ** (self.n - 1), [
                v for e in _entries(fld, self._m_n) for v in fld._mul(e, scale)])
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
        if self._linear_part().char_poly()[0].is_zero():
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
        coeffs = self.coeffs
        return [(key, coeffs[key]) for key in sorted(coeffs, key=term_order)]

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
        for s, q in sorted(self.nums, key=term_order):
            den, num = _lowest_terms(self.den, self.nums[s, q])
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
