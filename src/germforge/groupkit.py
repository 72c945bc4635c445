"""Group-level machinery for finitely generated jet and Moebius groups.

Covers the two generator conditions (ordered product is the identity;
generators pairwise conjugate), bounded witness search, the closure and its
finite/infinite verdict, the degree-slice coefficient morphisms, the affine
conjugacy criterion, and the simultaneous linearization algorithm for groups
whose common diagonal linear part has prime-power eigenvalue orders.

The conditions, witness search and closure run on any `GroupElement`: jets
and Moebius maps alike.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field as dc_field
from itertools import count
from typing import Callable, Optional, Protocol, Sequence

from .cyclo import (
    CycloNum,
    OrderResult,
    binary_power,
    is_prime_power,
    prime_factors,
    root_of_unity_order,
)
from .jets import (
    GermJet,
    Matrix,
    MultiIndex,
    compose,
    grlex_key,
    iter_multiindices,
    mat_is_diagonal,
)
from .resonance import eigenvalue_power, homological_step, is_resonant

DEFAULT_WITNESS_BOUND = 6
DEFAULT_CLOSURE_CAP = 10_000
# Longest word, in letters (the sum of |exponent| over its factors), that
# `parse_word` accepts: far above every corpus word and every witness the
# default bound can find, and low enough that `evaluate_word` answers in well
# under a second, since the coefficients of a power grow with its exponent.
MAX_WORD_LETTERS = 1000


class WordError(ValueError):
    """Malformed word or unknown generator name."""


class GroupElement(Protocol):
    """What presentations need of an element; `GermJet` and `MoebiusMap` have it.

    Elements are hashable and compare with `==`; `type(x).identity(*x.shape)`
    is the identity, `conjugacy_invariant()` is equal on conjugate elements,
    `infinite_order_screen()` is a certificate of infinite order from cheap
    sound tests or None (undecided), and `canonical_key()` sorts elements
    deterministically.
    """

    shape: tuple
    def compose(self, other): ...
    def inverse(self): ...
    def is_identity(self) -> bool: ...
    def order(self) -> OrderResult: ...
    def conjugacy_invariant(self): ...
    def infinite_order_screen(self) -> Optional[str]: ...
    def canonical_key(self): ...


# ---------------------------------------------------------------------------
# presentations and words


@dataclass(frozen=True)
class GroupPresentation:
    """Named generators of one type and shape, plus optional witness words."""

    generators: tuple[tuple[str, GroupElement], ...]
    witnesses: dict = dc_field(default_factory=dict)  # (i, j) -> word

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        # equal generators share one object, so a value memoized on it
        # (such as its order) is computed once per distinct element
        canonical: dict = {}
        object.__setattr__(self, "generators", tuple(
            (name, canonical.setdefault(x, x)) for name, x in self.generators
        ))
        names = [name for name, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        shapes = {x.shape for _, x in self.generators}
        if len(shapes) != 1:
            raise ValueError("generators must share dimension, truncation and field")
        for (i, j), word in self.witnesses.items():
            if not (0 <= i < len(names) and 0 <= j < len(names)):
                raise ValueError(f"witness pair ({i}, {j}) out of range")
            for name, _ in parse_word(word):
                if name not in names:
                    raise WordError(f"witness word uses unknown generator {name!r}")

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.generators]

    @property
    def elements(self) -> list[GroupElement]:
        return [x for _, x in self.generators]

    @property
    def shape(self) -> tuple:
        return self.generators[0][1].shape

    def identity(self) -> GroupElement:
        first = self.generators[0][1]
        return type(first).identity(*first.shape)


_WORD_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(-?\d+))?\s*")


def parse_word(word: str) -> list[tuple[str, int]]:
    """Parse 'f1^4*f5*f1' into [(name, exponent), ...]; '' is the empty word.

    A word longer than MAX_WORD_LETTERS letters is a WordError.
    """
    if word.strip() == "":
        return []
    out = []
    for chunk in word.split("*"):
        m = _WORD_TOKEN.fullmatch(chunk)
        if not m:
            raise WordError(f"bad word factor {chunk!r}")
        out.append((m.group(1), int(m.group(2)) if m.group(2) else 1))
    letters = sum(abs(e) for _, e in out)
    if letters > MAX_WORD_LETTERS:
        raise WordError(f"word has {letters} letters, above the limit {MAX_WORD_LETTERS}")
    return out


def format_word(tokens: Sequence[tuple[str, int]]) -> str:
    merged: list[tuple[str, int]] = []
    for name, e in tokens:
        if merged and merged[-1][0] == name:
            merged[-1] = (name, merged[-1][1] + e)
            if merged[-1][1] == 0:
                merged.pop()
        else:
            merged.append((name, e))
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in merged)


def evaluate_word(presentation: GroupPresentation, word: str) -> GroupElement:
    """The element a word names, composed left to right from its first factor."""
    by_name = dict(presentation.generators)
    out = None
    for name, e in parse_word(word):
        if name not in by_name:
            raise WordError(f"unknown generator {name!r}")
        if e:
            x = by_name[name] if e > 0 else by_name[name].inverse()
            factor = binary_power(x, abs(e), type(x).compose)
            out = factor if out is None else out.compose(factor)
    return presentation.identity() if out is None else out


# ---------------------------------------------------------------------------
# condition (a)


def check_product_identity(g: GroupPresentation) -> tuple[bool, GroupElement]:
    """Compose generators in listed order; the residual is the composite."""
    elements = g.elements
    out = elements[0]
    for x in elements[1:]:
        out = out.compose(x)
    return out.is_identity(), out


# ---------------------------------------------------------------------------
# bounded BFS over group elements (shared by witness search and closures)


def bfs_ball(
    identity, letters, depth: int, compose_fn: Callable, *, stop: Optional[Callable] = None
):
    """Deduplicated (element, word) pairs reachable in <= depth letters.

    Letters are (token, value) pairs explored in list order; FIFO expansion
    yields, per element, the shortest and then lexicographically least word.
    `stop` is called on each new element after the identity; the ball then
    grows only until it is true and ends with that element, a prefix of the
    full ball in the same order.  Without `stop`, or when it is never true,
    the whole depth-`depth` ball is built.
    """
    order = [(identity, ())]
    seen = {identity}
    frontier = list(order)
    for _ in range(depth):
        nxt = []
        for elem, word in frontier:
            for token, value in letters:
                new = compose_fn(elem, value)
                if new not in seen:
                    seen.add(new)
                    entry = (new, word + (token,))
                    order.append(entry)
                    nxt.append(entry)
                    if stop is not None and stop(new):
                        return order
        if not nxt:
            break
        frontier = nxt
    return order


def _distinct_letters(g: GroupPresentation):
    """Generators and inverses, deduplicated by value, in listing order.

    A generator that is already a letter is skipped before it is inverted:
    its inverse is then a letter too.
    """
    letters = []
    seen = set()
    for name, x in g.generators:
        if x in seen:
            continue
        for token_exp, value in (((name, 1), x), ((name, -1), x.inverse())):
            if value not in seen:
                seen.add(value)
                letters.append((token_exp, value))
    return letters


def _word_ball(g: GroupPresentation, bound: int, stop: Callable):
    ident = g.identity()
    return bfs_ball(ident, _distinct_letters(g), bound, type(ident).compose, stop=stop)


# ---------------------------------------------------------------------------
# condition (b): conjugacy witnesses


@dataclass(frozen=True)
class WitnessResult:
    status: str  # "witness" | "disproved" | "unresolved"
    word: Optional[str] = None
    reason: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.status == "witness"


def _conjugation_prescreen(fi: GroupElement, fj: GroupElement) -> Optional[WitnessResult]:
    """Sound non-conjugacy certificates that avoid any search."""
    if fi == fj:
        return WitnessResult("witness", word="")
    oi, oj = fi.order(), fj.order()
    if (oi.kind, oi.order) != (oj.kind, oj.order):
        return WitnessResult(
            "disproved",
            reason=f"order-mismatch: {oi.order or oi.kind} vs {oj.order or oj.kind}",
        )
    if fi.conjugacy_invariant() != fj.conjugacy_invariant():
        return WitnessResult("disproved", reason="linear-part-charpoly-mismatch")
    return None


def _generators_commute(g: GroupPresentation) -> bool:
    distinct = []
    for _, x in g.generators:
        if x not in distinct:
            distinct.append(x)
    return all(
        a.compose(b) == b.compose(a) for i, a in enumerate(distinct) for b in distinct[i + 1 :]
    )


def _conjugates(w: GroupElement, fi: GroupElement, fj: GroupElement) -> bool:
    """w o f_j o w^{-1} = f_i."""
    return w.compose(fj) == fi.compose(w)


_UNSCREENED = object()  # `find_conjugacy_witness` runs the pre-screen itself


def find_conjugacy_witness(
    g: GroupPresentation,
    i: int,
    j: int,
    bound: int = DEFAULT_WITNESS_BOUND,
    *,
    _ball=None,
    _abelian: Optional[bool] = None,
    _screened=_UNSCREENED,
) -> WitnessResult:
    """Witness word w with w o f_j o w^{-1} = f_i, searched to word length `bound`.

    A supplied witness is verified instead of searched.  Pre-screens can
    disprove conjugacy outright (order or characteristic polynomial mismatch;
    commuting generators generate an abelian group, where conjugacy is
    equality).  The witness is the first element of the word ball, in BFS
    order, that conjugates the pair: the ball grows only until it, so it is
    the ball's last element, and only a pair with no witness within `bound`
    letters ("unresolved") builds the full ball.  `_ball` is such a ball and
    `_screened` the pre-screen's answer (None: left open), both from the
    caller (see `check_basic_set`).
    """
    fi, fj = g.elements[i], g.elements[j]
    if i == j:
        return WitnessResult("witness", word="")
    supplied = g.witnesses.get((i, j))
    if supplied is not None:
        w = evaluate_word(g, supplied)
        if not _conjugates(w, fi, fj):
            raise ValueError(f"supplied witness {supplied!r} fails for pair ({i}, {j})")
        return WitnessResult("witness", word=supplied)
    screened = _conjugation_prescreen(fi, fj) if _screened is _UNSCREENED else _screened
    if screened is not None:
        return screened
    if _abelian is None:
        _abelian = _generators_commute(g)
    if _abelian:
        return WitnessResult(
            "disproved", reason="commuting-generators: abelian group, conjugacy is equality"
        )
    ball = _ball if _ball is not None else _word_ball(g, bound, lambda w: _conjugates(w, fi, fj))
    last, word = ball[-1]
    if _conjugates(last, fi, fj):
        return WitnessResult("witness", word=format_word(word))
    return WitnessResult("unresolved", reason=f"no witness within word length {bound}")


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class BasicSetReport:
    product_is_identity: bool
    residual: GroupElement
    conjugacy: dict  # (i, j), i < j -> WitnessResult
    verdict: str  # "irreducible-verified" | "condition-a-failed" | "condition-b-unresolved"


def check_basic_set(g: GroupPresentation, bound: int = DEFAULT_WITNESS_BOUND) -> BasicSetReport:
    """Condition (a), then condition (b) for every generator pair i < j.

    Pairs of equal elements share one answer.  Supplied witnesses and the
    pre-screens answer what they can; the pairs left share one word ball,
    which grows in BFS order only until every one of them has its witness.
    Each pair reads its witness off the end of the ball prefix that ends at
    it.  A pair with no witness within `bound` letters makes the ball the
    full one and is reported unresolved.
    """
    elements = g.elements
    prod_ok, residual = check_product_identity(g)
    abelian = _generators_commute(g)
    first: dict = {}  # (f_i, f_j) -> the first pair (i, j) naming it
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            first.setdefault((elements[i], elements[j]), (i, j))
    # each distinct pair is screened once, here; a supplied witness is verified instead
    screens = {key: _conjugation_prescreen(*key) for key, pair in first.items()
               if pair not in g.witnesses}
    pending = [key for key, screened in screens.items() if screened is None and not abelian]

    ends: dict = {}  # pending pair -> length of the ball prefix ending at its witness
    sizes = count(2)  # `stop` sees the ball's elements from the second on

    def all_answered(w) -> bool:
        size = next(sizes)
        left = {fi: fi.compose(w) for fi in {fi for fi, _ in pending}}
        right = {fj: w.compose(fj) for fj in {fj for _, fj in pending}}
        for fi, fj in pending:
            if left[fi] == right[fj]:
                ends[(fi, fj)] = size
        pending[:] = [pair for pair in pending if pair not in ends]
        return not pending

    ball = _word_ball(g, bound, all_answered) if pending else None
    answers = {
        key: find_conjugacy_witness(
            g, i, j, bound, _ball=ball[: ends[key]] if key in ends else ball, _abelian=abelian,
            _screened=screens.get(key),
        )
        for key, (i, j) in first.items()
    }
    conjugacy = {
        (i, j): answers[(elements[i], elements[j])]
        for i in range(len(elements))
        for j in range(i + 1, len(elements))
    }
    if not prod_ok:
        verdict = "condition-a-failed"
    elif all(r.found for r in conjugacy.values()):
        verdict = "irreducible-verified"
    else:
        verdict = "condition-b-unresolved"
    return BasicSetReport(prod_ok, residual, conjugacy, verdict)


# ---------------------------------------------------------------------------
# closure enumeration and cyclicity


@dataclass(frozen=True)
class ClosureResult:
    """How the closure ended: `status` is "closed", "infinite" or "cap-exceeded".

    "closed": `elements` is the finite group, sorted by `canonical_key()`, and
    `count` its order.  "infinite": `word` is the BFS word of the first
    element proven to have infinite order (a generator's name when a
    generator is), and `certificate` the proof.  "cap-exceeded": more than the
    cap were listed and none has infinite order.  Unless closed, `count` is
    the number of elements listed, the identity included.
    """

    status: str
    elements: Optional[tuple[GroupElement, ...]]
    count: int
    word: Optional[str] = None
    certificate: Optional[str] = None


def closure_enumerate(g: GroupPresentation, cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Decide whether the generated group is finite, by a BFS of at most `cap` elements.

    A finitely generated linear group in which every element has finite
    order is finite (Burnside), and K-jet groups and PGL_2 are linear.  So an
    infinite group holds an element of infinite order at some finite word
    length, and the BFS ends at it; the cap bounds only the work.  The exact
    checks, in order: the `order()` of each generator; the
    `infinite_order_screen()` of each new element; and once more than `cap`
    elements are listed, the `order()` of each in BFS order.
    """
    for name, x in g.generators:
        generator_order = x.order()
        if generator_order.is_infinite:
            return ClosureResult("infinite", None, 1, name, generator_order.certificate)
    sizes = count(2)  # `stop` sees the ball's elements from the second on
    # every BFS level adds an element, so a group of at most `cap` elements
    # closes within depth `cap`, and a larger one passes the cap first
    ball = _word_ball(g, cap, lambda x: x.infinite_order_screen() is not None or next(sizes) > cap)
    last, last_word = ball[-1]
    reason = last.infinite_order_screen()  # the screen that ended the ball, if one did
    if reason is not None:
        return ClosureResult("infinite", None, len(ball), format_word(last_word), reason)
    if len(ball) > cap:
        for x, word in ball[1:]:
            x_order = x.order()
            if x_order.is_infinite:
                return ClosureResult("infinite", None, len(ball), format_word(word),
                                     x_order.certificate)
        return ClosureResult("cap-exceeded", None, len(ball))
    elements = tuple(sorted((x for x, _ in ball), key=lambda x: x.canonical_key()))
    return ClosureResult("closed", elements, len(elements))


def is_cyclic(closure: ClosureResult) -> Optional[GroupElement]:
    """A generator of a closed group, or None when the group is not cyclic.

    The first element in canonical order whose order is the group order M.
    Every order divides M, so x has order M iff x^(M/p) is not the identity
    for each prime p dividing M.
    """
    if closure.status != "closed":
        raise ValueError(f"closure is {closure.status}, not closed")
    m = closure.count
    for x in closure.elements:
        powers = (binary_power(x, m // p, type(x).compose) for p in prime_factors(m))
        if not any(power.is_identity() for power in powers):
            return x
    return None


# ---------------------------------------------------------------------------
# degree-slice morphisms into (C, +) and Aff(C)


@dataclass(frozen=True)
class AffineFamily:
    """Maps w -> multiplier * w + translation_i with a finite-order multiplier."""

    multiplier: CycloNum
    translations: tuple[CycloNum, ...]


@dataclass(frozen=True)
class SliceMorphismEntry:
    coord: int
    monomial: MultiIndex
    resonant: bool
    # resonant case: phi_(r,Q)(f) = a_(r,Q)/a_r per generator, an additive character
    phi_values: Optional[tuple[CycloNum, ...]] = None
    additive_on_pairs: Optional[bool] = None
    phi_sum: Optional[CycloNum] = None
    product_forces_zero: Optional[bool] = None
    # nonresonant case: affine images w -> (lambda_r w + a_(r,Q)) / lambda^Q
    family: Optional[AffineFamily] = None
    multiplier_order: Optional[int] = None
    nominal_order: Optional[int] = None
    order_differs_from_nominal: Optional[bool] = None


def _prime_power_spectrum(eigenvalues) -> tuple[tuple, Optional[str]]:
    """Root-of-unity orders of the eigenvalues, and why they are not all
    powers of one prime (None when they are, 1 included).

    The orders stop at the first eigenvalue that is not a root of unity,
    which is recorded as None.
    """
    orders = []
    for lam in eigenvalues:
        orders.append(root_of_unity_order(lam))
        if orders[-1] is None:
            return tuple(orders), f"eigenvalue {lam} is not a root of unity"
    powers = [(o, is_prime_power(o)) for o in orders if o > 1]
    for o, pp in powers:
        if pp is None:
            return tuple(orders), f"eigenvalue order {o} is not a prime power"
    primes = sorted({pp[0] for _, pp in powers})
    if len(primes) > 1:
        return tuple(orders), (
            "eigenvalue orders "
            + ", ".join(str(o) for o in orders)
            + " are powers of distinct primes "
            + ", ".join(str(p) for p in primes)
        )
    return tuple(orders), None


def slice_morphism_report(g: GroupPresentation, k: int) -> list[SliceMorphismEntry]:
    """Per-(coordinate, monomial) analysis of the degree-k coefficients.

    Requires all generators to share one diagonal linear part and to carry no
    nonlinear terms below degree k.  Resonant monomials yield an additive
    character on the group (checked on generator pairs) whose total along the
    listed product must vanish; nonresonant monomials yield a family of
    affine maps whose multiplier is lambda_r / lambda^Q.

    It stays public though no command calls it: it is the library's only
    route from a jet presentation to the affine families that
    `affine_conjugacy_decide` judges, while the `keylemma` command reads its
    family from the document.
    """
    jets = g.elements
    _, n, _ = g.shape
    lin = jets[0].linear_matrix()
    if not mat_is_diagonal(lin):
        raise ValueError("generators must have a diagonal linear part")
    if any(j.linear_matrix() != lin for j in jets):
        raise ValueError("generators must share one linear part")
    for name, j in g.generators:
        low = [key for key in j.coeffs if 1 < sum(key[1]) < k]
        if low:
            raise ValueError(f"generator {name} has nonlinear terms below degree {k}")
    eigenvalues = [lin[i][i] for i in range(n)]
    orders, problem = _prime_power_spectrum(eigenvalues)
    nominal = math.prod(orders) if problem is None and math.prod(orders) > 1 else None
    entries = []
    nu_plus_1 = len(jets)
    for s in range(n):
        for q in iter_multiindices(n, k):
            coeffs = [j.coeff(s, q) for j in jets]
            if is_resonant(eigenvalues, s, q):
                lam_r = eigenvalues[s]
                phi = tuple(c / lam_r for c in coeffs)
                additive = True
                for a in range(len(jets)):
                    for b in range(len(jets)):
                        comp = compose(jets[a], jets[b])
                        lhs = comp.coeff(s, q) / (lam_r * lam_r)
                        if lhs != phi[a] + phi[b]:
                            additive = False
                total = sum(phi[1:], phi[0])
                entries.append(
                    SliceMorphismEntry(
                        coord=s,
                        monomial=q,
                        resonant=True,
                        phi_values=phi,
                        additive_on_pairs=additive,
                        phi_sum=total,
                        product_forces_zero=total.is_zero(),
                    )
                )
            else:
                lam_q = eigenvalue_power(eigenvalues, q)
                eta = eigenvalues[s] / lam_q
                family = AffineFamily(eta, tuple(c / lam_q for c in coeffs))
                eta_order = root_of_unity_order(eta)
                entries.append(
                    SliceMorphismEntry(
                        coord=s,
                        monomial=q,
                        resonant=False,
                        family=family,
                        multiplier_order=eta_order,
                        nominal_order=nominal,
                        order_differs_from_nominal=(
                            None if (eta_order is None or nominal is None) else eta_order != nominal
                        ),
                    )
                )
    return entries


# ---------------------------------------------------------------------------
# affine conjugacy criterion


def affine_conjugacy_decide(family: AffineFamily) -> tuple[bool, str]:
    """Pairwise conjugacy inside the group generated by w -> eta*w + beta_i.

    True iff the multiplier order has two distinct prime divisors, or it is a
    prime power and all translations coincide.
    """
    ell = root_of_unity_order(family.multiplier)
    if ell is None or ell <= 1:
        raise ValueError("multiplier must be a root of unity of order > 1")
    primes = prime_factors(ell)
    if len(primes) >= 2:
        return True, f"multiplier order {ell} has distinct prime divisors {sorted(primes)}"
    first = family.translations[0]
    if all(b == first for b in family.translations[1:]):
        return True, f"multiplier order {ell} is a prime power and all translations are equal"
    return False, f"multiplier order {ell} is a prime power but translations differ"


# ---------------------------------------------------------------------------
# simultaneous linearization


@dataclass(frozen=True)
class LinearizationSuccess:
    conjugator: GermJet
    diagonal_generator: Matrix
    group_order: int

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class LinearizationFailure:
    reason: str  # "generators-differ" | "resonant-coefficient-nonzero" | "precondition-violated"
    degree: Optional[int] = None
    offending: tuple = ()
    detail: str = ""
    eigenvalue_orders: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return False


LinearizationOutcome = LinearizationSuccess | LinearizationFailure


def linearize_group(g: GroupPresentation):
    """Conjugate all generators to their common diagonal linear part at once.

    Preconditions (any violation is a structured failure): the ordered product
    of the generators is the identity, all generators share one diagonal
    linear part, and every eigenvalue is a root of unity whose order is a
    power of one common prime.  The loop then checks per degree that the
    generators carry identical coefficient slices with vanishing resonant
    part, and cancels the shared nonresonant slice through one homological
    step applied to every generator simultaneously.
    """
    jets = g.elements
    fld, n, K = g.shape
    names = g.names
    prod_ok, residual = check_product_identity(g)
    if not prod_ok:
        return LinearizationFailure(
            "precondition-violated",
            detail="ordered product of generators is not the identity",
        )
    lin = jets[0].linear_matrix()
    if any(j.linear_matrix() != lin for j in jets):
        return LinearizationFailure(
            "precondition-violated", detail="generators do not share one linear part"
        )
    if not mat_is_diagonal(lin):
        return LinearizationFailure(
            "precondition-violated", detail="common linear part is not diagonal"
        )
    eigenvalues = [lin[i][i] for i in range(n)]
    orders, problem = _prime_power_spectrum(eigenvalues)
    if problem is not None:
        return LinearizationFailure(
            "precondition-violated", detail=problem, eigenvalue_orders=orders
        )

    current = jets
    chi = g.identity()
    for k in range(2, K + 1):
        slices = [j.degree_slice(k) for j in current]
        keys = sorted(
            {key for sl in slices for key in sl}, key=lambda key: (key[0], grlex_key(key[1]))
        )
        reference = slices[0]
        offending = []
        for idx, sl in enumerate(slices[1:], start=1):
            for key in keys:
                if sl.get(key, fld.zero()) != reference.get(key, fld.zero()):
                    offending.append((names[idx], key[0], key[1], sl.get(key, fld.zero())))
        if offending:
            return LinearizationFailure(
                "generators-differ",
                degree=k,
                offending=tuple(offending),
                detail=f"degree-{k} coefficients differ from generator {names[0]}",
            )
        resonant_bad = tuple(
            (names[0], s, q, c)
            for (s, q), c in sorted(reference.items(), key=lambda kv: (kv[0][0], grlex_key(kv[0][1])))
            if is_resonant(eigenvalues, s, q)
        )
        if resonant_bad:
            return LinearizationFailure(
                "resonant-coefficient-nonzero",
                degree=k,
                offending=resonant_bad,
                detail=f"nonzero resonant coefficients survive at degree {k}",
            )
        if reference:
            h, h_inv = homological_step(eigenvalues, reference, g.shape)
            current = [compose(h_inv, compose(j, h)) for j in current]
            chi = compose(h_inv, chi)
    linear_target = GermJet.from_linear(lin, K)
    assert all(j == linear_target for j in current), "linearization left nonlinear residue"
    return LinearizationSuccess(
        conjugator=chi,
        diagonal_generator=lin,
        group_order=math.lcm(*orders),
    )
