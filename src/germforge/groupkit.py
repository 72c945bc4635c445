"""Group-level machinery for finitely generated jet and Moebius groups.

Covers the two generator conditions (ordered product is the identity;
generators pairwise conjugate), bounded witness search, the closure and its
finite/infinite verdict, the degree-slice coefficient morphisms, the affine
conjugacy criterion, and the simultaneous linearization algorithm for groups
whose common diagonal linear part has prime-power eigenvalue orders.

The conditions, witness search and closure run on any `GroupElement`: jets
and Moebius maps alike.  Condition (b) is written once, in `_conjugacy`:
`find_conjugacy_witness` asks it about one pair and `check_basic_set` about
all of them at once.  Witness search and closure share one BFS, `bfs_ball`;
a closed group keeps the right-multiplication table that its BFS recorded,
so `is_cyclic` takes its powers by table lookups and composes nothing.
"""

from __future__ import annotations

import math
from itertools import count
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Protocol

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
# the word grammar and the search defaults live in `words`; they are
# re-exported here, where the searches that use them are
from .words import (
    DEFAULT_CLOSURE_CAP,
    DEFAULT_WITNESS_BOUND,
    MAX_WORD_LETTERS,
    WordError,
    format_word,
    parse_word,
)


class GroupElement(Protocol):
    """What presentations need of an element; `GermJet` and `MoebiusMap` have it.

    Elements are immutable and hashable and compare with `==`;
    `type(x).identity(*x.shape)` is the identity, `conjugacy_invariant()` is
    equal on conjugate elements, `infinite_order_screen()` is a certificate
    of infinite order from cheap sound tests or None (undecided), and
    `canonical_key()` sorts elements deterministically.  Since an element
    never changes, `order()`, `inverse()` and `conjugacy_invariant()` may be
    memoized on it; callers may rely on repeated calls being cheap.
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


class GroupPresentation:
    """Named generators of one type and shape, plus optional witness words
    (`witnesses` maps a generator pair (i, j) to its word; it holds a
    read-only copy of the caller's mapping).

    Immutable, so what it determines can be kept: equal generators are one
    object, and `check_product_identity` composes the ordered product once
    per presentation and keeps it in `_product`.
    """

    __slots__ = ("generators", "witnesses", "_product")

    generators: tuple[tuple[str, GroupElement], ...]
    witnesses: MappingProxyType

    def __init__(self, generators, witnesses: Optional[dict] = None):
        # equal generators share one object, so a value memoized on it
        # (such as its order) is computed once per distinct element
        canonical: dict = {}
        generators = tuple((name, canonical.setdefault(x, x)) for name, x in generators)
        witnesses = MappingProxyType({} if witnesses is None else dict(witnesses))
        if not generators:
            raise ValueError("presentation needs at least one generator")
        names = [name for name, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        shapes = {x.shape for _, x in generators}
        if len(shapes) != 1:
            raise ValueError("generators must share dimension, truncation and field")
        for (i, j), word in witnesses.items():
            if not (0 <= i < len(names) and 0 <= j < len(names)):
                raise ValueError(f"witness pair ({i}, {j}) out of range")
            for name, _ in parse_word(word):
                if name not in names:
                    raise WordError(f"witness word uses unknown generator {name!r}")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "_product", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: GroupPresentation is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: GroupPresentation is immutable")

    def __repr__(self) -> str:
        return f"GroupPresentation(generators={self.generators!r}, witnesses={dict(self.witnesses)!r})"

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
    """(whether it is the identity, the composite) for the generators composed
    in listed order; computed once per presentation, so `check_basic_set`,
    `linearize_group` and `holonomy_check` share one ordered product."""
    if g._product is None:
        elements = g.elements
        out = elements[0]
        for x in elements[1:]:
            out = out.compose(x)
        object.__setattr__(g, "_product", (out.is_identity(), out))
    return g._product


# ---------------------------------------------------------------------------
# bounded BFS over group elements (shared by witness search and closures)


def bfs_ball(
    identity,
    letters,
    depth: int,
    compose_fn: Callable,
    *,
    stop: Optional[Callable] = None,
    table: Optional[list] = None,
):
    """Deduplicated (element, word) pairs reachable in <= depth letters.

    Letters are (token, value) pairs explored in list order; FIFO expansion
    yields, per element, the shortest and then lexicographically least word.
    `stop` is called on each new element after the identity; the ball then
    grows only until it is true and ends with that element, a prefix of the
    full ball in the same order.  Without `stop`, or when it is never true,
    the whole depth-`depth` ball is built.

    A list `table` receives the ball's Cayley graph as it is built: expanding
    the i-th element appends, per letter k, the ball index of
    element_i o letter_k, so `table[i * len(letters) + k]` holds it.  The
    table is complete, with len(ball) * len(letters) entries, exactly when
    the frontier emptied: the ball is then the whole group the letters
    generate and the table its right-multiplication table.
    """
    order = [(identity, ())]
    seen = {identity: 0}  # element -> its index in `order`
    frontier = list(order)
    for _ in range(depth):
        nxt = []
        for elem, word in frontier:
            for token, value in letters:
                new = compose_fn(elem, value)
                index = seen.setdefault(new, len(order))
                if table is not None:
                    table.append(index)
                if index == len(order):
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


# ---------------------------------------------------------------------------
# condition (b): conjugacy witnesses


class WitnessResult(NamedTuple):
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
    distinct = list(dict.fromkeys(g.elements))
    return all(
        a.compose(b) == b.compose(a) for i, a in enumerate(distinct) for b in distinct[i + 1 :]
    )


def _conjugates(w: GroupElement, fi: GroupElement, fj: GroupElement) -> bool:
    """w o f_j o w^{-1} = f_i."""
    return w.compose(fj) == fi.compose(w)


def _conjugacy(g: GroupPresentation, pairs, bound: int) -> dict:
    """Condition (b) for each pair (i, j) of `pairs`: the one routine behind
    `find_conjugacy_witness` and `check_basic_set`.

    Pairs of equal elements share the answer of the first pair naming them.
    A supplied witness is verified instead of searched.  Pre-screens can
    disprove conjugacy outright (order or characteristic polynomial mismatch;
    commuting generators generate an abelian group, where conjugacy is
    equality).  The pairs left share one word ball, which grows in BFS order
    only until each has its witness: the first element that conjugates it.
    A pair with no witness within `bound` letters makes the ball the full one
    and is reported unresolved.
    """
    elements = g.elements
    first: dict = {}  # (f_i, f_j) -> the first pair (i, j) naming it
    for i, j in pairs:
        first.setdefault((elements[i], elements[j]), (i, j))
    answers: dict = {}
    for key, (i, j) in first.items():
        supplied = g.witnesses.get((i, j)) if i != j else None
        if supplied is not None:
            if not _conjugates(evaluate_word(g, supplied), *key):
                raise ValueError(f"supplied witness {supplied!r} fails for pair ({i}, {j})")
            answers[key] = WitnessResult("witness", word=supplied)
        elif (screened := _conjugation_prescreen(*key)) is not None:
            answers[key] = screened
    pending = [key for key in first if key not in answers]
    if pending and _generators_commute(g):
        reason = "commuting-generators: abelian group, conjugacy is equality"
        answers.update((key, WitnessResult("disproved", reason=reason)) for key in pending)
    elif pending:
        witnesses: dict = {}  # pair -> the ball element that first conjugates it

        def all_answered(w) -> bool:
            left = {fi: fi.compose(w) for fi in {fi for fi, _ in pending}}
            right = {fj: w.compose(fj) for fj in {fj for _, fj in pending}}
            for fi, fj in pending:
                if left[fi] == right[fj]:
                    witnesses[(fi, fj)] = w
            pending[:] = [key for key in pending if key not in witnesses]
            return not pending

        ident = g.identity()
        ball = bfs_ball(ident, _distinct_letters(g), bound, type(ident).compose, stop=all_answered)
        words = dict(ball)
        answers.update((key, WitnessResult("witness", word=format_word(words[w])))
                       for key, w in witnesses.items())
        # the pairs still pending after the full ball
        unresolved = WitnessResult("unresolved", reason=f"no witness within word length {bound}")
        answers.update((key, unresolved) for key in pending)
    return {(i, j): answers[(elements[i], elements[j])] for i, j in pairs}


def find_conjugacy_witness(
    g: GroupPresentation, i: int, j: int, bound: int = DEFAULT_WITNESS_BOUND
) -> WitnessResult:
    """Witness word w with w o f_j o w^{-1} = f_i, searched to word length `bound`.

    The pair alone through `_conjugacy`: a supplied witness, a pre-screen or
    the first element of the word ball, in BFS order, that conjugates the pair.
    """
    return _conjugacy(g, [(i, j)], bound)[(i, j)]


# ---------------------------------------------------------------------------
# combined report


class BasicSetReport(NamedTuple):
    product_is_identity: bool
    residual: GroupElement
    conjugacy: dict  # (i, j), i < j -> WitnessResult
    verdict: str  # "irreducible-verified" | "condition-a-failed" | "condition-b-unresolved"


def check_basic_set(g: GroupPresentation, bound: int = DEFAULT_WITNESS_BOUND) -> BasicSetReport:
    """Condition (a), then condition (b) for every generator pair i < j in one
    `_conjugacy` call, so all pairs left open share one word ball."""
    n = len(g.generators)
    prod_ok, residual = check_product_identity(g)
    conjugacy = _conjugacy(g, [(i, j) for i in range(n) for j in range(i + 1, n)], bound)
    if not prod_ok:
        verdict = "condition-a-failed"
    elif all(r.found for r in conjugacy.values()):
        verdict = "irreducible-verified"
    else:
        verdict = "condition-b-unresolved"
    return BasicSetReport(prod_ok, residual, conjugacy, verdict)


# ---------------------------------------------------------------------------
# closure enumeration and cyclicity


class CayleyTable(NamedTuple):
    """The right-multiplication table of a closed group, in the order
    `bfs_ball` listed its elements.

    `ball[i]` is the i-th (element, word) pair, the identity at index 0, and
    `letters` the (token, value) letters the BFS multiplied by.
    `products[i * len(letters) + k]` is the index of ball[i] o letters[k],
    and `ranks[r]` the index of `ClosureResult.elements[r]`, the r-th
    element in canonical order.
    """

    ball: list[tuple]
    letters: list[tuple]
    products: list[int]
    ranks: list[int]

    def multiplication(self) -> Callable[[int, int], int]:
        """The product u o v of ball indices: a walk from u along the word
        of v, one table lookup per letter and no compose."""
        width = len(self.letters)
        # column k maps each index i to the index of ball[i] o letters[k]
        columns = {token: self.products[k::width] for k, (token, _) in enumerate(self.letters)}
        walks = [[columns[token] for token in word] for _, word in self.ball]

        def multiply(u: int, v: int) -> int:
            for column in walks[v]:
                u = column[u]
            return u

        return multiply


class ClosureResult(NamedTuple):
    """How the closure ended: `status` is "closed", "infinite" or "cap-exceeded".

    "closed": the BFS frontier emptied.  `elements` is the finite group,
    sorted by `canonical_key()`, `count` its order, and `table` its
    right-multiplication table, recorded by the BFS that listed it.
    "infinite": `word` is the BFS word of the first element proven to have
    infinite order (a generator's name when a generator is), and
    `certificate` the proof.  "cap-exceeded": more than the cap were listed
    and none has infinite order.  Unless closed, `count` is the number of
    elements listed, the identity included, and there is no table.
    """

    status: str
    elements: Optional[tuple[GroupElement, ...]]
    count: int
    word: Optional[str] = None
    certificate: Optional[str] = None
    table: Optional[CayleyTable] = None


def closure_enumerate(g: GroupPresentation, cap: int = DEFAULT_CLOSURE_CAP) -> ClosureResult:
    """Decide whether the generated group is finite, by a BFS of at most `cap` elements.

    A finitely generated linear group in which every element has finite
    order is finite (Burnside), and K-jet groups and PGL_2 are linear.  So an
    infinite group holds an element of infinite order at some finite word
    length, and the BFS ends at it; the cap bounds only the work.  The exact
    checks, in order: the `order()` of each generator; the
    `infinite_order_screen()` of each new element; and once more than `cap`
    elements are listed, the `order()` of each in BFS order.  The group is
    closed exactly when the BFS frontier empties, which is when its
    multiplication table is complete.
    """
    for name, x in g.generators:
        generator_order = x.order()
        if generator_order.is_infinite:
            return ClosureResult("infinite", None, 1, name, generator_order.certificate)
    ident = g.identity()
    letters = _distinct_letters(g)
    products: list[int] = []
    sizes = count(2)  # `stop` sees the ball's elements from the second on
    # every BFS level adds an element, so a group of at most `cap` elements
    # closes within depth `cap`, and a larger one passes the cap first
    ball = bfs_ball(ident, letters, cap, type(ident).compose, table=products,
                    stop=lambda x: x.infinite_order_screen() is not None or next(sizes) > cap)
    if len(products) == len(ball) * len(letters):  # the frontier emptied
        ranks = sorted(range(len(ball)), key=lambda i: ball[i][0].canonical_key())
        elements = tuple(ball[i][0] for i in ranks)
        return ClosureResult("closed", elements, len(elements),
                             table=CayleyTable(ball, letters, products, ranks))
    last, last_word = ball[-1]
    reason = last.infinite_order_screen()  # the screen that ended the ball, if one did
    if reason is not None:
        return ClosureResult("infinite", None, len(ball), format_word(last_word), reason)
    for x, word in ball[1:]:
        x_order = x.order()
        if x_order.is_infinite:
            return ClosureResult("infinite", None, len(ball), format_word(word),
                                 x_order.certificate)
    return ClosureResult("cap-exceeded", None, len(ball))


def is_cyclic(closure: ClosureResult) -> Optional[GroupElement]:
    """A generator of a closed group, or None when the group is not cyclic.

    The first element in canonical order whose order is the group order M.
    Every order divides M, so x has order M iff x^(M/p) is not the identity
    for each prime p dividing M.  The powers are taken on ball indices
    through the closure's multiplication table, so no element is composed.
    """
    if closure.status != "closed":
        raise ValueError(f"closure is {closure.status}, not closed")
    table = closure.table
    multiply = table.multiplication()
    exponents = [closure.count // p for p in prime_factors(closure.count)]
    for r, i in enumerate(table.ranks):
        # index 0 is the identity
        if all(binary_power(i, e, multiply) for e in exponents):
            return closure.elements[r]
    return None


# ---------------------------------------------------------------------------
# degree-slice morphisms into (C, +) and Aff(C)


class AffineFamily(NamedTuple):
    """Maps w -> multiplier * w + translation_i with a finite-order multiplier."""

    multiplier: CycloNum
    translations: tuple[CycloNum, ...]


class SliceMorphismEntry(NamedTuple):
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


class LinearizationSuccess(NamedTuple):
    conjugator: GermJet
    diagonal_generator: Matrix
    group_order: int

    @property
    def ok(self) -> bool:
        return True


class LinearizationFailure(NamedTuple):
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
    first = jets[0]._linear()  # the cached integer form, not a matrix per generator
    if any(j._linear() != first for j in jets):
        return LinearizationFailure(
            "precondition-violated", detail="generators do not share one linear part"
        )
    lin = jets[0].linear_matrix()
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
