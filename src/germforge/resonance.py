"""Multiplicative resonances and Poincare-Dulac normalization of a jet.

A resonance is an exact identity lambda_s = lambda^Q among the linear-part
eigenvalues with |Q| >= 2.  Normalization removes every nonresonant monomial
degree by degree, conjugating with Id + P_k where P_k solves the homological
equation; the resonant/nonresonant split is exact field equality, never
numeric.  The eigenvalues are read off the diagonal of the jet's integer
linear part (`jetform.LinearPart.diagonal`), with no matrix of `CycloNum`s.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cyclo import CycloNum
from .jets import (
    GermJet,
    MultiIndex,
    compose,
    grlex_key,
    invert,
    iter_multiindices,
)


class ResonanceDomainError(ValueError):
    """A resonant key was fed to the homological division."""


class DiagonalLinearPartError(ValueError):
    """The operation requires a diagonal linear part."""


class ResonanceRecord(NamedTuple):
    """Witness of lambda^order == lambda_coord with |order| >= 2."""

    coord: int
    order: MultiIndex


class NormalizationResult(NamedTuple):
    normal_form: GermJet
    conjugator: GermJet
    removed: tuple[tuple[int, MultiIndex, CycloNum], ...]


def eigenvalue_power(eigenvalues: Sequence[CycloNum], q: MultiIndex) -> CycloNum:
    out = eigenvalues[0].field.one()
    for lam, e in zip(eigenvalues, q):
        if e:
            out = out * lam ** e
    return out


def enumerate_resonances(
    eigenvalues: Sequence[CycloNum], max_degree: int
) -> list[ResonanceRecord]:
    """All (s, Q) with 2 <= |Q| <= max_degree and lambda^Q = lambda_s, exactly."""
    if any(lam.is_zero() for lam in eigenvalues):
        raise ValueError("eigenvalues must be nonzero")
    n = len(eigenvalues)
    out = []
    for s in range(n):
        for deg in range(2, max_degree + 1):
            for q in iter_multiindices(n, deg):
                if eigenvalue_power(eigenvalues, q) == eigenvalues[s]:
                    out.append(ResonanceRecord(s, q))
    out.sort(key=lambda r: (r.coord, grlex_key(r.order)))
    return out


def is_resonant(eigenvalues: Sequence[CycloNum], s: int, q: MultiIndex) -> bool:
    return eigenvalue_power(eigenvalues, q) == eigenvalues[s]


def homological_solve(eigenvalues: Sequence[CycloNum], degree_slice: dict) -> dict:
    """Solve P(A z) - A P(z) = slice for a nonresonant homogeneous slice.

    Returns {(s, Q): a_(s,Q) / (lambda^Q - lambda_s)}; conjugating the source
    jet by Id + P cancels exactly those monomials at their degree.
    """
    if not degree_slice:
        return {}
    degrees = {sum(q) for (_, q) in degree_slice}
    if len(degrees) != 1:
        raise ValueError("slice is not homogeneous")
    out = {}
    for (s, q), c in degree_slice.items():
        denom = eigenvalue_power(eigenvalues, q) - eigenvalues[s]
        if denom.is_zero():
            raise ResonanceDomainError(
                f"resonant key (coord {s}, {q}) has zero homological denominator"
            )
        out[(s, q)] = c / denom
    return out


def homological_step(
    eigenvalues: Sequence[CycloNum], degree_slice: dict, shape: tuple
) -> tuple[GermJet, GermJet]:
    """(h, h^{-1}) for h = Id + P, P from `homological_solve`, jets of `shape`."""
    fld, n, K = shape
    step = dict(GermJet.identity(*shape).coeffs)
    step.update(homological_solve(eigenvalues, degree_slice))
    h = GermJet(n, K, fld, step)
    return h, invert(h)


def _diagonal_eigenvalues(f: GermJet) -> tuple[CycloNum, ...]:
    eigenvalues = f._linear_part().diagonal()
    if eigenvalues is None:
        raise DiagonalLinearPartError("linear part must be diagonal")
    return eigenvalues


def poincare_dulac_normalize(f: GermJet) -> NormalizationResult:
    """Poincare-Dulac normal form of a jet with diagonal linear part.

    Iterates k = 2..K, cancelling the nonresonant part of each degree slice;
    the returned conjugator chi satisfies chi o f o chi^{-1} = normal_form
    exactly to order K, and the normal form carries resonant monomials only.
    """
    eigenvalues = _diagonal_eigenvalues(f)
    current = f
    chi = GermJet.identity(f.field, f.n, f.K)
    removed: list[tuple[int, MultiIndex, CycloNum]] = []
    for k in range(2, f.K + 1):
        nonres = {
            key: c
            for key, c in current.degree_slice(k).items()
            if not is_resonant(eigenvalues, key[0], key[1])
        }
        if not nonres:
            continue
        for (s, q), c in sorted(nonres.items(), key=lambda kv: (kv[0][0], grlex_key(kv[0][1]))):
            removed.append((s, q, c))
        h, h_inv = homological_step(eigenvalues, nonres, f.shape)
        current = compose(h_inv, compose(current, h))
        chi = compose(h_inv, chi)
    return NormalizationResult(current, chi, tuple(removed))
