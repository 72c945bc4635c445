"""Sparse truncated polynomial jets of invertible self-maps of (C^n, 0).

A jet stores only nonzero coefficients for 1 <= |Q| <= K, keyed by
(coordinate, multi-index); the linear part must be invertible.  Composition
truncates eagerly at K, and powers of the substituted components are
memoized per call since they dominate the cost.

`GermJet(...)` validates its input: every key, every coefficient's field and,
with a determinant, the invertibility of the linear part.  Documents and
other outside input go through it.  The jets that group operations return
(`compose`, `invert` and so `power` and `conjugate`, and `identity`) are built
by `GermJet._trusted`, which skips all of that: their keys come from valid
jets, and invertibility is preserved, since the linear part of f o g is the
product of the linear parts and the determinant is multiplicative.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .cyclo import (
    CycloField,
    CycloNum,
    FieldMismatchError,
    OrderResult,
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


def mat_identity(fld: CycloField, n: int) -> Matrix:
    one, zero = fld.one(), fld.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(1, k)), a[i][0] * b[0][j]) for j in range(m))
        for i in range(n)
    )


def mat_det(a: Matrix) -> CycloNum:
    n = len(a)
    fld = a[0][0].field
    rows = [list(r) for r in a]
    det = fld.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return fld.zero()
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        if col == n - 1:
            break  # no row below the last pivot needs its inverse
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            f = rows[r][col] * inv
            if not f.is_zero():
                for c in range(col, n):
                    rows[r][c] = rows[r][c] - f * rows[col][c]
    return det


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    fld = a[0][0].field
    rows = [list(r) + list(mat_identity(fld, n)[i]) for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col].inverse()
        rows[col] = [c * inv for c in rows[col]]
        for r in range(n):
            if r != col and not rows[r][col].is_zero():
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def mat_is_diagonal(a: Matrix) -> bool:
    return all(a[i][j].is_zero() for i in range(len(a)) for j in range(len(a)) if i != j)


def char_poly(a: Matrix) -> tuple[CycloNum, ...]:
    """Characteristic polynomial coefficients, ascending, monic (Faddeev-LeVerrier)."""
    n = len(a)
    fld = a[0][0].field
    coeffs = [fld.zero()] * n + [fld.one()]
    m = mat_identity(fld, n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        tr = sum((m[i][i] for i in range(1, n)), m[0][0]) if n > 1 else m[0][0]
        c = tr * fld.rational(-1, k)
        coeffs[n - k] = c
        m = tuple(
            tuple(m[r][s] + c if r == s else m[r][s] for s in range(n)) for r in range(n)
        )
    return tuple(coeffs)


# ---------------------------------------------------------------------------


class GermJet:
    """K-jet of a holomorphic self-map of (C^n, 0) with invertible linear part.

    coeffs maps (coordinate, multi-index) to a nonzero field element; keys with
    |Q| = 0 or |Q| > K are rejected.  The constructor checks every key and
    coefficient and rejects a singular linear part; `_trusted` builds the
    results of group operations, invertible by construction, without checks.

    Equality and hashing use an integer key, built once per jet: the shape
    and the set of (coordinate, multi-index, numerators, denominator) of the
    canonical `CycloNum` coefficients.  The hash is cached, so the word balls
    and pair dictionaries of the group searches hash each jet once.
    `canonical_key()` is a separate sort key that orders coefficients as
    rationals; only sorting uses it.
    """

    __slots__ = ("n", "K", "field", "coeffs", "_key", "_hash", "_order")

    def __init__(self, n: int, K: int, fld: CycloField, coeffs: dict):
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
        self.n = n
        self.K = K
        self.field = fld
        self.coeffs = clean
        self._key = None
        self._hash = None
        self._order = None
        if mat_det(self.linear_matrix()).is_zero():
            raise ValueError("linear part is not invertible")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _trusted(cls, n: int, K: int, fld: CycloField, coeffs: dict) -> "GermJet":
        """A jet from well-formed keys and `fld` coefficients with an invertible
        linear part, as group operations produce them; only zeros are dropped."""
        jet = object.__new__(cls)
        jet.n = n
        jet.K = K
        jet.field = fld
        jet.coeffs = {key: c for key, c in coeffs.items() if not c.is_zero()}
        jet._key = None
        jet._hash = None
        jet._order = None
        return jet

    @classmethod
    def identity(cls, fld: CycloField, n: int, K: int) -> "GermJet":
        one = fld.one()
        return cls._trusted(n, K, fld, {(s, unit_index(n, s)): one for s in range(n)})

    @classmethod
    def from_linear(cls, matrix: Matrix, K: int) -> "GermJet":
        return cls(len(matrix), K, matrix[0][0].field, _linear_coeffs(matrix))

    # -- accessors ---------------------------------------------------------------

    def coeff(self, s: int, q: MultiIndex) -> CycloNum:
        return self.coeffs.get((s, tuple(q)), self.field.zero())

    def linear_matrix(self) -> Matrix:
        zero = self.field.zero()
        return tuple(
            tuple(self.coeffs.get((s, unit_index(self.n, i)), zero) for i in range(self.n))
            for s in range(self.n)
        )

    def degree_slice(self, k: int) -> dict:
        return {key: c for key, c in self.coeffs.items() if sum(key[1]) == k}

    def is_identity(self) -> bool:
        return self == GermJet.identity(self.field, self.n, self.K)

    def is_linear(self) -> bool:
        return all(sum(q) == 1 for (_, q) in self.coeffs)

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
        return char_poly(self.linear_matrix())

    def infinite_order_screen(self) -> Optional[str]:
        """Why this jet has infinite order, from two cheap sound tests, or None.

        A finite-order matrix has roots of unity as eigenvalues, so its trace
        is an algebraic integer; a jet whose linear part is the identity has
        infinite order unless it is the identity (see `germ_order`).  None
        decides nothing.
        """
        lin = self.linear_matrix()
        trace = sum((lin[i][i] for i in range(1, self.n)), lin[0][0])
        if not trace.is_integral():
            return (f"trace {trace} of the linear part is not an algebraic integer, "
                    "but the trace of a finite-order matrix is a sum of roots of unity")
        if lin == mat_identity(self.field, self.n) and not self.is_linear():
            return "tangent to the identity with a nonzero nonlinear slice"
        return None

    # -- equality / hashing ----------------------------------------------------------

    def canonical_key(self):
        """Sort key: coordinates, then monomials in grlex order, then coefficients
        by `CycloNum.sort_key`."""
        items = tuple((s, q, c.sort_key()) for (s, q), c in self.canonical_items())
        return (self.n, self.K, self.field.conductor, items)

    def _integer_key(self):
        if self._key is None:
            self._key = (self.n, self.K, self.field.conductor, frozenset(
                (key, c.num, c.den) for key, c in self.coeffs.items()
            ))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, GermJet):
            return NotImplemented
        return self._integer_key() == other._integer_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._integer_key())
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


def _poly_mul(p: dict, q: dict, cap: int) -> dict:
    out: dict[MultiIndex, CycloNum] = {}
    for q1, c1 in p.items():
        d1 = sum(q1)
        for q2, c2 in q.items():
            if d1 + sum(q2) > cap:
                continue
            key = tuple(x + y for x, y in zip(q1, q2))
            prod = c1 * c2
            cur = out.get(key)
            out[key] = prod if cur is None else cur + prod
    return {k: v for k, v in out.items() if not v.is_zero()}


def compose(f: GermJet, g: GermJet) -> "GermJet":
    """K-jet of f o g; terms above K are discarded eagerly."""
    _check_shapes(f, g)
    n, cap = f.n, f.K
    components = [dict() for _ in range(n)]
    for (s, q), c in g.coeffs.items():
        components[s][q] = c
    pow_cache: dict[tuple[int, int], dict] = {}
    mono_cache: dict[MultiIndex, dict] = {}

    def component_power(i: int, e: int) -> dict:
        hit = pow_cache.get((i, e))
        if hit is not None:
            return hit
        out = components[i] if e == 1 else _poly_mul(component_power(i, e - 1), components[i], cap)
        pow_cache[(i, e)] = out
        return out

    def monomial(q: MultiIndex) -> dict:
        hit = mono_cache.get(q)
        if hit is not None:
            return hit
        out = None
        for i, e in enumerate(q):
            if e:
                p = component_power(i, e)
                out = p if out is None else _poly_mul(out, p, cap)
        mono_cache[q] = out
        return out

    acc: dict[tuple[int, MultiIndex], CycloNum] = {}
    for (s, q), c in f.coeffs.items():
        for r, v in monomial(q).items():
            key = (s, r)
            prod = c * v
            cur = acc.get(key)
            acc[key] = prod if cur is None else cur + prod
    return GermJet._trusted(n, cap, f.field, acc)


def invert(f: GermJet) -> "GermJet":
    """Jet inverse, solved degree by degree from the linear part."""
    lin_inv = mat_inv(f.linear_matrix())
    g = GermJet._trusted(f.n, f.K, f.field, _linear_coeffs(lin_inv))
    for k in range(2, f.K + 1):
        residual = compose(f, g).degree_slice(k)
        if not residual:
            continue
        correction = dict(g.coeffs)
        for q in {key[1] for key in residual}:
            col = [residual.get((t, q), f.field.zero()) for t in range(f.n)]
            for s in range(f.n):
                val = sum(
                    (lin_inv[s][t] * col[t] for t in range(1, f.n)),
                    lin_inv[s][0] * col[0],
                )
                if not val.is_zero():
                    key = (s, q)
                    cur = correction.get(key, f.field.zero())
                    correction[key] = cur - val
        g = GermJet._trusted(f.n, f.K, f.field, correction)
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
    """Exact order of an invertible n x n matrix over Q(zeta_N).

    Every finite order divides `torsion_exponent(N, n)`, so one power test
    decides finiteness and a scan of the powers finds the order.
    """
    fld = a[0][0].field
    n = len(a)
    return element_order(a, torsion_exponent(fld.conductor, n), mat_mul, mat_identity(fld, n))


def germ_order(f: GermJet) -> OrderResult:
    """Order of a jet in the K-jet group, with one jet power.

    A finite-order jet must have finite-order linear part; with m0 its order,
    f**d has linear part != Id for d < m0, and f**m0 is tangent to the
    identity: any nonzero slice of it is multiplied by m under further
    powers, so it can never return to Id.
    """
    lo = linear_order(f.linear_matrix())
    if lo.is_infinite:
        return OrderResult("infinite", certificate=f"linear part has infinite order: {lo.certificate}")
    if not power(f, lo.order).is_identity():
        return OrderResult(
            "infinite",
            certificate=f"f^{lo.order} is tangent to identity with a nonzero nonlinear slice",
        )
    return lo
