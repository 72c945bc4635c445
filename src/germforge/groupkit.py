"""Group-level machinery for finitely generated jet and Moebius groups.

Covers the two generator conditions (ordered product is the identity;
generators pairwise conjugate), bounded witness search, the closure and its
finite/infinite verdict, the affine conjugacy criterion, and the simultaneous
linearization algorithm for groups whose common diagonal linear part has
prime-power eigenvalue orders.  Its homological steps are
`poincare_dulac_normalize`'s, run once per distinct generator; given its
preconditions it succeeds exactly when the listed generators are one jet.

The conditions, witness search and closure run on any `GroupElement`: jets
and Moebius maps alike.  Both conditions cost per distinct generator: the
ordered product composes a run of one generator as one power, and condition
(b) is decided once per pair of distinct elements.  It is written once, in
`_conjugacy`: `find_conjugacy_witness` asks it about one pair and
`check_basic_set` about all of them at once.  Its word ball tests each new
element by comparing two conjugates it already holds, so the test composes
nothing.  Witness search and closure share one BFS, `bfs_ball`; a closed
group keeps the right-multiplication table that its BFS recorded, so
`is_cyclic` takes its powers by table lookups and composes nothing.
"""

from __future__ import annotations

import math
from itertools import groupby
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
# `compose` is read by benchmarks/test_bench.py::test_tracer_leaves_no_patched_function_behind
from .jets import GermJet, Matrix, compose, grlex_key
from .resonance import poincare_dulac_normalize
# the word grammar lives in `words`, so that parsing a document loads no groupkit
from .words import WordError, format_word, parse_word

DEFAULT_WITNESS_BOUND = 6
DEFAULT_CLOSURE_CAP = 10_000


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


def _run_product(runs) -> Optional[GroupElement]:
    """x1^e1 o x2^e2 o ... for the (x, e) runs, e >= 1, composed left to right
    with each power by square-and-multiply; None for no runs."""
    out = None
    for x, e in runs:
        factor = binary_power(x, e, type(x).compose)
        out = factor if out is None else out.compose(factor)
    return out


def evaluate_word(presentation: GroupPresentation, word: str) -> GroupElement:
    """The element a word names, composed left to right from its first factor."""
    by_name = dict(presentation.generators)
    runs = []
    for name, e in parse_word(word):
        if name not in by_name:
            raise WordError(f"unknown generator {name!r}")
        if e:
            runs.append((by_name[name] if e > 0 else by_name[name].inverse(), abs(e)))
    out = _run_product(runs)
    return presentation.identity() if out is None else out


# ---------------------------------------------------------------------------
# condition (a)


def check_product_identity(g: GroupPresentation) -> tuple[bool, GroupElement]:
    """(whether it is the identity, the composite) for the generators composed
    in listed order; computed once per presentation, so `check_basic_set`,
    `linearize_group` and `holonomy_check` share one ordered product.

    A run of one generator listed e times in a row is composed as its e-th
    power: a^34 b c, as in Example 2.3, costs 8 composes instead of 35.
    Equal generators are one object, so runs are found by identity."""
    if g._product is None:
        runs = [list(run) for _, run in groupby(g.elements, key=id)]
        out = _run_product((run[0], len(run)) for run in runs)
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
    Elements are expanded in the order they were listed; the identity's
    products are the letters themselves, so level 1 composes nothing.
    `stop(new, index, parent, letter)` is called on each new element after
    the identity, with its ball index, the ball index of the element it was
    composed from and the (token, value) letter: ball[index] is new =
    ball[parent] o value.  The ball then grows only until it is true and ends
    with that element, a prefix of the full ball in the same order.  Without
    `stop`, or when it is never true, the whole depth-`depth` ball is built.

    A list `table` receives the ball's Cayley graph as it is built: expanding
    the i-th element appends, per letter k, the ball index of
    element_i o letter_k, so `table[i * len(letters) + k]` holds it.  The
    table is complete, with len(ball) * len(letters) entries, exactly when
    the frontier emptied: the ball is then the whole group the letters
    generate and the table its right-multiplication table.
    """
    ball = [(identity, ())]
    seen = {identity: 0}  # element -> its ball index
    end = 0
    for _ in range(depth):
        start, end = end, len(ball)  # the frontier: the elements the last level listed
        if start == end:
            break
        for parent in range(start, end):
            elem, word = ball[parent]
            for letter in letters:
                new = compose_fn(elem, letter[1]) if parent else letter[1]
                index = seen.setdefault(new, len(ball))
                if table is not None:
                    table.append(index)
                if index == len(ball):
                    ball.append((new, word + (letter[0],)))
                    if stop is not None and stop(new, index, parent, letter):
                        return ball
    return ball


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
    """Answers that need no search, cheapest first: equality, then the
    conjugacy invariant, with orders taken only to name its disproof."""
    if fi == fj:
        return WitnessResult("witness", word="")
    if fi.conjugacy_invariant() != fj.conjugacy_invariant():
        return _order_mismatch(fi, fj) or WitnessResult(
            "disproved", reason="linear-part-charpoly-mismatch")
    return None


def _order_mismatch(fi: GroupElement, fj: GroupElement) -> Optional[WitnessResult]:
    """The disproof of conjugacy by different orders, or None when the orders agree."""
    oi, oj = fi.order(), fj.order()
    if (oi.kind, oi.order) != (oj.kind, oj.order):
        return WitnessResult("disproved", reason=f"order-mismatch: {oi.order or oi.kind} vs "
                                                 f"{oj.order or oj.kind}")
    return None


def _generators_commute(distinct: list) -> bool:
    return all(
        a.compose(b) == b.compose(a) for i, a in enumerate(distinct) for b in distinct[i + 1 :]
    )


def _conjugates(w: GroupElement, fi: GroupElement, fj: GroupElement) -> bool:
    """w o f_j o w^{-1} = f_i."""
    return w.compose(fj) == fi.compose(w)


def _conjugacy(g: GroupPresentation, pairs: list, bound: int) -> tuple[list, list, dict]:
    """Condition (b) for each pair (i, j) of `pairs`: the one routine behind
    `find_conjugacy_witness` and `check_basic_set`.  Returns the slot of each
    listed generator, equal generators sharing one, the slot pair
    (slot[i], slot[j]) of each listed pair, computed once, and the answer of
    each slot pair.

    The listed generators are indexed by distinct element once, and each pair
    of elements is answered once.  Every supplied witness of the presentation
    is verified on its own pair first, whether or not a listed pair reads it;
    a pair of distinct elements then takes the first supplied word among the
    listed pairs naming it, instead of a search.  Screens run cheapest first
    (`_conjugation_prescreen`): equality, then the conjugacy invariant.  The
    pairs left are disproved when the generators commute (an abelian group,
    where conjugacy is equality), else share one word ball,
    `_ball_witnesses`, whose test of a new element w = u o y (u expanded, y
    the letter) compares two conjugates it already holds, u^{-1} f_i u and
    y f_j y^{-1}, and so composes nothing.  Orders are taken only where they
    decide: an order mismatch overrides the commuting reason and an
    unresolved search, and names a differing invariant's disproof.
    """
    index: dict = {}  # distinct element -> its slot, in listing order
    slot = [index.setdefault(x, len(index)) for x in g.elements]
    distinct = list(index)
    witnesses = g.witnesses
    for (i, j), word in witnesses.items():
        if not _conjugates(evaluate_word(g, word), distinct[slot[i]], distinct[slot[j]]):
            raise ValueError(f"supplied witness {word!r} fails for pair "
                             f"({g.names[i]}, {g.names[j]})")
    keys = [(slot[i], slot[j]) for i, j in pairs]
    # slot pair -> the supplied word of the first listed pair naming it
    supplied = {key: witnesses[pair] for pair, key in zip(reversed(pairs), reversed(keys))
                if pair in witnesses} if witnesses else {}
    unique = dict.fromkeys(keys)  # each slot pair once, in order
    answers: dict = {}
    for a, b in unique:
        if a != b and (a, b) in supplied:
            answers[a, b] = WitnessResult("witness", word=supplied[a, b])
        elif (screened := _conjugation_prescreen(distinct[a], distinct[b])) is not None:
            answers[a, b] = screened
    pending = [key for key in unique if key not in answers]
    if pending and _generators_commute(distinct):
        commuting = WitnessResult(
            "disproved", reason="commuting-generators: abelian group, conjugacy is equality")
        searched = dict.fromkeys(pending, commuting)
    else:
        searched = _ball_witnesses(g, distinct, slot, pending, bound) if pending else {}
    for (a, b), res in searched.items():
        if not res.found:
            res = _order_mismatch(distinct[a], distinct[b]) or res
        answers[a, b] = res
    return slot, keys, answers


def _ball_witnesses(g: GroupPresentation, distinct: list, slot: list, pending: list,
                    bound: int) -> dict:
    """The answer of each pending pair (a, b) of slots in `distinct`, from
    one word ball that grows in BFS order only until each pair has its
    witness: the first element w with w o f_b o w^{-1} = f_a.  A pair with no
    witness within `bound` letters makes the ball the full one and is
    reported unresolved.

    The test composes nothing.  A new element w = u o y, with u its parent
    and y the letter, conjugates f_b to f_a exactly when
    u^{-1} f_a u = y f_b y^{-1}, and both sides are held:

    - y f y^{-1} once per letter y and pending generator f; it is f itself
      when y is f or f^{-1}.
    - u^{-1} f u per expanded element u, keyed by its ball index, for each
      f still pending on the left; computed when u is first a parent, by two
      composes from the value of u's parent p, with u = p o y:
      y^{-1} (p^{-1} f p) y.  At level 1 (p the identity) it is the held
      conjugate by y^{-1}.  p's value is dropped once its last child has
      its own.

    They live only for this call; the ball and its exact equality test are
    those of a search that composes w with each pair, so every word is too.
    """
    name_slot = {name: s for (name, _), s in zip(g.generators, slot)}
    by_name = dict(g.generators)
    letters = _distinct_letters(g)
    token_of = {value: token for token, value in letters}
    inverse = {}  # letter token -> the inverse letter
    for token, _ in letters:
        name, e = token
        y_inv = by_name[name].inverse() if e > 0 else by_name[name]
        inverse[token] = (token_of[y_inv], y_inv)
    held: dict = {}  # (letter token, slot of f) -> y f y^{-1}

    def conjugate(letter, s):
        token, y = letter
        value = held.get((token, s))
        if value is None:
            f = distinct[s]
            value = held[token, s] = (
                f if name_slot[token[0]] == s else y.compose(f).compose(inverse[token][1]))
        return value

    ident = g.identity()
    found: dict = {}  # pair -> ball index of its witness
    steps: list = [None]  # per ball index: its parent's index and its letter
    # per expanded ball index u: its u^{-1} f u, per slot pending on the left when u was expanded
    lefts = {0: {a: distinct[a] for a, _ in pending}}

    def answered(_new, index, parent, letter) -> bool:
        steps.append((parent, letter))
        values = lefts.get(parent)
        if values is None:
            grandparent, (token, y) = steps[parent]
            inv = inverse[token]
            left = {a for a, _ in pending}
            if grandparent == 0:
                values = {a: conjugate(inv, a) for a in left}
            else:
                values = {a: inv[1].compose(lefts[grandparent][a]).compose(y) for a in left}
            lefts[parent] = values
            if steps[parent + 1][0] != grandparent:  # the last sibling: siblings are contiguous
                del lefts[grandparent]
        for a, b in pending:
            if values[a] == conjugate(letter, b):
                found[a, b] = index
        pending[:] = [key for key in pending if key not in found]
        return not pending

    ball = bfs_ball(ident, letters, bound, type(ident).compose, stop=answered)
    answers = {key: WitnessResult("witness", word=format_word(ball[k][1]))
               for key, k in found.items()}
    # the pairs still pending after the full ball
    unresolved = WitnessResult("unresolved", reason=f"no witness within word length {bound}")
    answers.update((key, unresolved) for key in pending)
    return answers


def find_conjugacy_witness(
    g: GroupPresentation, i: int, j: int, bound: int = DEFAULT_WITNESS_BOUND
) -> WitnessResult:
    """Witness word w with w o f_j o w^{-1} = f_i, searched to word length `bound`.

    The pair alone through `_conjugacy`: a supplied witness, a pre-screen or
    the first element of the word ball, in BFS order, that conjugates the pair.
    """
    _, keys, answers = _conjugacy(g, [(i, j)], bound)
    return answers[keys[0]]


# ---------------------------------------------------------------------------
# combined report


class BasicSetReport(NamedTuple):
    """What `check_basic_set` found.  `conjugacy` maps every generator pair
    (i, j), i < j, to its answer, with the pairs in lexicographic (i, j)
    order: the order in which reports list them, without sorting.
    `slots[i]` is generator i's index among the distinct generators."""

    product_is_identity: bool
    residual: GroupElement
    conjugacy: dict  # (i, j), i < j -> WitnessResult
    # "condition-a-failed", else "condition-b-failed" when a pair is disproved,
    # else "irreducible-verified" or "condition-b-unresolved"
    verdict: str
    slots: list


def check_basic_set(g: GroupPresentation, bound: int = DEFAULT_WITNESS_BOUND) -> BasicSetReport:
    """Condition (a), then condition (b) for every generator pair i < j in one
    `_conjugacy` call, so all pairs left open share one word ball.  The
    verdict is read off the answers of the distinct pairs."""
    n = len(g.generators)
    prod_ok, residual = check_product_identity(g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    slot, keys, answers = _conjugacy(g, pairs, bound)
    if not prod_ok:
        verdict = "condition-a-failed"
    elif any(r.status == "disproved" for r in answers.values()):
        verdict = "condition-b-failed"
    elif all(r.found for r in answers.values()):
        verdict = "irreducible-verified"
    else:
        verdict = "condition-b-unresolved"
    conjugacy = {pair: answers[key] for pair, key in zip(pairs, keys)}
    return BasicSetReport(prod_ok, residual, conjugacy, verdict, slot)


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
    # every BFS level adds an element, so a group of at most `cap` elements
    # closes within depth `cap`, and a larger one passes the cap first
    ball = bfs_ball(ident, letters, cap, type(ident).compose, table=products,
                    stop=lambda x, index, _parent, _letter: x.infinite_order_screen() is not None
                    or index >= cap)
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
# affine conjugacy criterion


class AffineFamily(NamedTuple):
    """Maps w -> multiplier * w + translation_i with a finite-order multiplier."""

    multiplier: CycloNum
    translations: tuple[CycloNum, ...]


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


def _key_order(key) -> tuple:
    """Sort key of a (coordinate, multi-index) key: coordinate, then grlex."""
    return key[0], grlex_key(key[1])


def _shared_diagonal_part(jets) -> tuple[Optional[tuple[CycloNum, ...]], Optional[str]]:
    """The diagonal of the jets' common linear part, and why it is not one
    diagonal part (None when it is); reads the cached integer forms only."""
    first = jets[0]._linear()
    if any(j._linear() != first for j in jets):
        return None, "generators do not share one linear part"
    eigenvalues = jets[0]._linear_part().diagonal()
    if eigenvalues is None:
        return None, "common linear part is not diagonal"
    return eigenvalues, None


class LinearizationSuccess(NamedTuple):
    conjugator: GermJet
    diagonal_generator: Matrix
    group_order: int


class LinearizationFailure(NamedTuple):
    reason: str  # "generators-differ" | "resonant-coefficient-nonzero" | "precondition-violated"
    degree: Optional[int] = None
    offending: tuple = ()
    detail: str = ""
    eigenvalue_orders: Optional[tuple] = None


def linearize_group(g: GroupPresentation):
    """Conjugate all generators to their common diagonal linear part at once.

    Preconditions (any violation is a structured failure): the ordered product
    of the generators is the identity, all generators share one diagonal
    linear part, and every eigenvalue is a root of unity whose order is a
    power of one common prime.  The rest is read off one Poincare-Dulac
    normalization per distinct generator: below the first degree at which
    two generators differ they are equal, so their normalizations take the
    same homological steps, and a generator's degree-k slice is what its
    normalization removed at degree k plus its normal form's (resonant)
    degree-k slice.  The loop compares these slices; the conjugator is the
    first generator's.  Given the preconditions it succeeds exactly when the
    listed generators are one jet, as a jet of finite order has no resonant
    term in its normal form.
    """
    jets = g.elements
    fld, _, K = g.shape
    names = g.names
    if not check_product_identity(g)[0]:
        return LinearizationFailure(
            "precondition-violated",
            detail="ordered product of generators is not the identity",
        )
    eigenvalues, problem = _shared_diagonal_part(jets)
    if problem is not None:
        return LinearizationFailure("precondition-violated", detail=problem)
    orders, problem = _prime_power_spectrum(eigenvalues)
    if problem is not None:
        return LinearizationFailure(
            "precondition-violated", detail=problem, eigenvalue_orders=orders
        )

    normal = {j: poincare_dulac_normalize(j) for j in dict.fromkeys(jets)}
    # each generator's coefficients at the degree where its normalization met them
    met = [{**{(s, q): c for s, q, c in normal[j].removed}, **normal[j].normal_form.coeffs}
           for j in jets]
    zero = fld.zero()
    for k in range(2, K + 1):
        slices = [{key: c for key, c in m.items() if sum(key[1]) == k} for m in met]
        reference = slices[0]
        keys = sorted({key for sl in slices for key in sl}, key=_key_order)
        offending = tuple(
            (names[idx], s, q, sl.get((s, q), zero))
            for idx, sl in enumerate(slices[1:], start=1)
            for s, q in keys
            if sl.get((s, q), zero) != reference.get((s, q), zero)
        )
        if offending:
            return LinearizationFailure(
                "generators-differ",
                degree=k,
                offending=offending,
                detail=f"degree-{k} coefficients differ from generator {names[0]}",
            )
        resonant = normal[jets[0]].normal_form.degree_slice(k)
        if resonant:
            return LinearizationFailure(
                "resonant-coefficient-nonzero",
                degree=k,
                offending=tuple((names[0], s, q, resonant[s, q])
                                for s, q in sorted(resonant, key=_key_order)),
                detail=f"nonzero resonant coefficients survive at degree {k}",
            )
    return LinearizationSuccess(
        conjugator=normal[jets[0]].conjugator,
        diagonal_generator=jets[0].linear_matrix(),
        group_order=math.lcm(*orders),
    )
