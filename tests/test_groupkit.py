import argparse
import cProfile
import fractions
import json
import math
import os
import pstats
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germforge import cli, corpus, groupkit, jetform, jets, moebius, words
from germforge.cyclo import binary_power, field, prime_factors, root_of_unity_order
from germforge.groupkit import (
    AffineFamily,
    GroupPresentation,
    LinearizationFailure,
    LinearizationSuccess,
    WitnessResult,
    WordError,
    affine_conjugacy_decide,
    bfs_ball,
    check_basic_set,
    check_product_identity,
    closure_enumerate,
    evaluate_word,
    find_conjugacy_witness,
    format_word,
    is_cyclic,
    linearize_group,
    parse_word,
)
from germforge.jets import (
    GermJet,
    compose,
    conjugate,
    germ_order,
    invert,
    iter_multiindices,
    power,
    term_order,
)
from germforge.resonance import homological_step, is_resonant

F1 = field(1)
F3 = field(3)
F4 = field(4)


def jet(fld, n, K, entries):
    return GermJet(n, K, fld, {(s, tuple(q)): c for (s, q, c) in entries})


def linear_jet(fld, rows, K=1):
    n = len(rows)
    entries = []
    for s in range(n):
        for i, v in enumerate(rows[s]):
            c = fld.from_rational(v) if not hasattr(v, "field") else v
            if not c.is_zero():
                entries.append((s, tuple(1 if t == i else 0 for t in range(n)), c))
    return jet(fld, n, K, entries)


def ex21_presentation(with_witnesses=False):
    lam = F3.zeta()
    one = F3.one()
    f1 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam)])
    f5 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), one)])
    f6 = jet(F3, 2, 2, [(0, (1, 0), -one), (1, (0, 1), lam), (0, (0, 2), lam ** 2)])
    gens = tuple(zip(("f1", "f2", "f3", "f4", "f5", "f6"), (f1, f1, f1, f1, f5, f6)))
    witnesses = {}
    if with_witnesses:
        witnesses = {(0, 4): "f1^4*f5*f1", (0, 5): "f5*f1^5", (4, 5): "f5^2*f1^4"}
    return GroupPresentation(gens, witnesses)


def prop_512_presentation():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -i]])
    b = linear_jet(F4, [[0, 1], [1, 0]])
    return GroupPresentation((("A", a), ("B", b)))


def prop_513_presentation():
    a = linear_jet(F1, [[1, 0], [0, -1]])
    b = linear_jet(F1, [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]])
    c = linear_jet(F1, [[Fraction(-1, 2), 2], [Fraction(3, 8), Fraction(1, 2)]])
    return GroupPresentation(
        (("A", a), ("B", b), ("B2", b), ("C", c), ("C2", c), ("A2", a))
    )


def prop_514_presentation():
    a = [[1, 0], [0, -1]]
    b = [[Fraction(-1, 2), 1], [Fraction(3, 4), Fraction(1, 2)]]

    def block(p, q):
        rows = [[0] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                rows[r][c] = p[r][c]
                rows[r + 2][c + 2] = q[r][c]
        return linear_jet(F1, rows)

    return GroupPresentation(
        (
            ("DAA", block(a, a)),
            ("DAB", block(a, b)),
            ("DBB", block(b, b)),
            ("DBA", block(b, a)),
        )
    )


# --- words ---------------------------------------------------------------------


def test_word_round_trip():
    assert parse_word("f1^4*f5*f1") == [("f1", 4), ("f5", 1), ("f1", 1)]
    assert parse_word("") == []
    assert format_word([("f1", 1), ("f1", 3), ("f5", 1)]) == "f1^4*f5"
    with pytest.raises(WordError):
        parse_word("f1^^2")


def test_word_length_is_bounded():
    # letters are counted as the sum of |exponent| over the factors
    half = words.MAX_WORD_LETTERS // 2
    at_limit = f"f^{half}*g^-{words.MAX_WORD_LETTERS - half}"
    assert sum(abs(e) for _, e in parse_word(at_limit)) == words.MAX_WORD_LETTERS
    with pytest.raises(WordError, match="above the limit"):
        parse_word(at_limit + "*f")


def test_evaluate_word_matches_manual_composition():
    g = ex21_presentation()
    by_name = dict(g.generators)
    got = evaluate_word(g, "f1^4*f5*f1")
    want = compose(compose(power(by_name["f1"], 4), by_name["f5"]), by_name["f1"])
    assert got == want
    assert evaluate_word(g, "").is_identity()
    assert evaluate_word(g, "f1^-1*f1").is_identity()


def test_presentation_keeps_its_own_read_only_witnesses():
    g0 = ex21_presentation()
    supplied = {(0, 4): "f1^4*f5*f1"}
    g = GroupPresentation(g0.generators, supplied)
    supplied[(1, 9)] = "nonsense"
    assert dict(g.witnesses) == {(0, 4): "f1^4*f5*f1"}
    with pytest.raises(TypeError):
        g.witnesses[(1, 9)] = "nonsense"


# --- condition (a) ----------------------------------------------------------------


def test_product_identity_single_identity_generator():
    pres = GroupPresentation((("e", GermJet.identity(F1, 1, 2)),))
    ok, residual = check_product_identity(pres)
    assert ok and residual.is_identity()


def test_product_identity_sextuple():
    ok, residual = check_product_identity(ex21_presentation())
    assert ok and residual.is_identity()


def test_product_identity_fails_for_pair():
    i = F4.zeta()
    pres = prop_512_presentation()
    ok, residual = check_product_identity(pres)
    assert not ok
    # A o B = antidiagonal(i, -i)
    assert residual == linear_jet(F4, [[0, i], [-i, 0]])


def test_product_identity_triangular_triple():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    ct = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]])
    ok, _ = check_product_identity(GroupPresentation((("At", at), ("Bt", bt), ("Ct", ct))))
    assert ok


# --- witnesses -----------------------------------------------------------------------


def test_same_index_gives_empty_word():
    g = ex21_presentation()
    assert find_conjugacy_witness(g, 2, 2).word == ""


def test_witness_found_and_verifies():
    g = ex21_presentation()
    res = find_conjugacy_witness(g, 0, 4)
    assert res.found
    w = evaluate_word(g, res.word)
    assert conjugate(w, g.elements[4]) == g.elements[0]
    assert len(parse_word(res.word)) <= 6


def test_supplied_witness_is_verified_and_echoed():
    g = ex21_presentation(with_witnesses=True)
    res = find_conjugacy_witness(g, 0, 4)
    assert res.word == "f1^4*f5*f1"
    bad = GroupPresentation(g.generators, {(0, 4): "f1^2"})
    with pytest.raises(ValueError):
        find_conjugacy_witness(bad, 0, 4)


def test_order_prescreen_disproves():
    g = prop_512_presentation()
    res = find_conjugacy_witness(g, 0, 1)
    assert res.status == "disproved"
    assert "order-mismatch" in res.reason and "4" in res.reason and "2" in res.reason


def test_abelian_prescreen_disproves():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    g = GroupPresentation((("At", at), ("Bt", bt)))
    res = find_conjugacy_witness(g, 0, 1)
    assert res.status == "disproved"
    assert "abelian" in res.reason


# --- basic set reports -----------------------------------------------------------------


def test_basic_set_sextuple_verified():
    report = check_basic_set(ex21_presentation())
    assert report.verdict == "irreducible-verified"
    assert report.product_is_identity
    assert len(report.conjugacy) == 15
    assert all(r.found for r in report.conjugacy.values())


def test_basic_set_5_1_1a():
    a = linear_jet(F1, [[2, 0], [0, 1]])
    b = linear_jet(F1, [[2, 0], [1, 1]])
    g = GroupPresentation((("A", a), ("B", b)))
    report = check_basic_set(g)
    assert report.verdict == "condition-a-failed"
    res = report.conjugacy[(0, 1)]
    assert res.found
    w = evaluate_word(g, res.word)
    assert conjugate(w, b) == a
    # the witness H = B^{-1} A from the generators themselves
    h = compose(invert(b), a)
    assert h == linear_jet(F1, [[1, 0], [-1, 1]])
    assert conjugate(h, b) == a


def test_basic_set_5_1_1b_fails_condition_b_by_disproofs():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    ct = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]])
    report = check_basic_set(GroupPresentation((("At", at), ("Bt", bt), ("Ct", ct))))
    assert report.product_is_identity
    assert report.verdict == "condition-b-failed"
    assert all(r.status == "disproved" for r in report.conjugacy.values())


def test_basic_set_5_1_4_verified():
    report = check_basic_set(prop_514_presentation())
    assert report.verdict == "irreducible-verified"


# --- the lazy witness ball ------------------------------------------------------------


JET_ENTRIES = [name for name in corpus.ENTRIES if corpus.load(name).generators]


def eager_ball(g, bound):
    ident = g.identity()
    return bfs_ball(ident, groupkit._distinct_letters(g), bound, type(ident).compose)


def ball_is_the_group(g, bound):
    """Whether the depth-`bound` ball holds no element of word length `bound`:
    its frontier emptied, so it is the whole group.  At bound 0 the identity
    is never expanded, so that ball is never known to be the group."""
    return bound >= 1 and len(eager_ball(g, bound - 1)) == len(eager_ball(g, bound))


def reference_answer(g, i, j, bound, ball):
    """Pair (i, j) with every search scanning the full depth-`bound` ball; a
    pair left without a witness by a ball that is the whole group is disproved."""
    fi, fj = g.elements[i], g.elements[j]
    # the depth-0 ball, the identity alone, answers nothing a screen leaves open
    screened = find_conjugacy_witness(g, i, j, 0)
    if screened.status != "unresolved":
        return screened
    for w, word in ball:
        if w.compose(fj) == fi.compose(w):
            return WitnessResult("witness", word=format_word(word))
    if ball_is_the_group(g, bound):
        return WitnessResult("disproved", reason=f"exhausted-group: none of its {len(ball)} "
                                                 "elements conjugates the pair")
    return WitnessResult("unresolved", reason=f"no witness within word length {bound}")


def first_pairs(g):
    """Every pair i < j, keyed by its element pair; the first pair naming it wins."""
    first = {}
    for i, fi in enumerate(g.elements):
        for j in range(i + 1, len(g.elements)):
            first.setdefault((fi, g.elements[j]), (i, j))
    return first


def reference_conjugacy(g, bound):
    """Every pair i < j; pairs of equal elements take the first one's answer."""
    ball = eager_ball(g, bound)
    answers = {key: reference_answer(g, i, j, bound, ball) for key, (i, j) in first_pairs(g).items()}
    n = len(g.elements)
    return {(i, j): answers[(g.elements[i], g.elements[j])] for i in range(n) for j in range(i + 1, n)}


def listed_answers(g, pairs, bound):
    """`groupkit._conjugacy` read per listed pair, and its answers per slot pair."""
    index: dict = {}  # distinct element -> its slot, in listing order
    slot = [index.setdefault(x, len(index)) for x in g.elements]
    keys, answers = groupkit._conjugacy(g, pairs, bound)
    assert keys == [(slot[i], slot[j]) for i, j in pairs]
    return {(i, j): answers[slot[i], slot[j]] for i, j in pairs}, answers


@pytest.mark.parametrize("entry", JET_ENTRIES)
def test_lazy_ball_matches_full_ball_on_corpus(entry):
    g = corpus.load(entry).presentation()
    conjugacy = check_basic_set(g).conjugacy
    assert conjugacy == reference_conjugacy(g, 6)
    # a later pair takes its first pair's answer, which may be a supplied
    # witness where the pair alone finds a shorter word (ex-2-1, pair (1, 4))
    for i, j in first_pairs(g).values():
        assert find_conjugacy_witness(g, i, j, 6) == conjugacy[(i, j)]


# 2x2 matrices over Q and Q(zeta_4): the finite groups they generate give
# witnesses and disproofs; the unipotent U and L give pairs no ball resolves
I4 = F4.zeta()
POOL = {
    "S": [[0, 1], [1, 0]],
    "T": [[-1, 1], [0, 1]],
    "R3": [[0, -1], [1, -1]],
    "N": [[1, 0], [0, -1]],
    "U": [[1, 1], [0, 1]],
    "L": [[1, 0], [1, 1]],
    "Li": [[1, 0], [-1, 1]],
    "Di": [[I4, 0], [0, 1]],
    "Ji": [[0, I4], [1, 0]],
}
RATIONAL = [name for name, m in POOL.items() if all(not hasattr(x, "field") for r in m for x in r)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_lazy_ball_matches_full_ball_on_small_linear_groups(data):
    fld = data.draw(st.sampled_from([F1, F4]))
    names = RATIONAL if fld is F1 else list(POOL)
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
    bound = data.draw(st.integers(1, 3))
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(fld, POOL[name])) for k, name in enumerate(chosen)
    ))
    conjugacy = check_basic_set(g, bound).conjugacy
    assert conjugacy == reference_conjugacy(g, bound)
    for (i, j), answer in conjugacy.items():
        assert find_conjugacy_witness(g, i, j, bound) == answer


def test_first_letter_can_be_the_witness():
    s = linear_jet(F1, POOL["S"])
    t = linear_jet(F1, POOL["T"])
    g = GroupPresentation((("S", s), ("T", t), ("C", conjugate(s, t))))
    conjugacy = check_basic_set(g).conjugacy
    # S o C o S^-1 = T: the first letter answers pair (1, 2)
    assert conjugacy[(1, 2)] == WitnessResult("witness", word="S")
    assert conjugacy == reference_conjugacy(g, 6)
    # the group has order 12 and is walked within the bound: S is conjugate to neither
    assert conjugacy[(0, 1)] == conjugacy[(0, 2)] == WitnessResult(
        "disproved", reason="exhausted-group: none of its 12 elements conjugates the pair")


def test_held_conjugates_match_the_reference_on_a_fully_walked_ball():
    # D4 over Q: a = diag(1, -1), b = a o r with r the quarter turn, c = (a o b)^-1.
    # a and b are reflections in different classes, with equal orders and
    # characteristic polynomials, so their pair walks the whole ball: the
    # group, whose 8 elements do not conjugate them
    a = linear_jet(F1, [[1, 0], [0, -1]])
    b = compose(a, linear_jet(F1, [[0, -1], [1, 0]]))
    c = invert(compose(a, b))
    g = GroupPresentation((("a", a), ("b", b), ("c", c)))
    conjugacy, answers = listed_answers(g, [(0, 1), (0, 2), (1, 2)], 6)
    assert conjugacy == reference_conjugacy(g, 6)
    assert conjugacy[(0, 1)] == WitnessResult(
        "disproved", reason="exhausted-group: none of its 8 elements conjugates the pair")
    assert len(eager_ball(g, 6)) == 8
    assert sorted(answers.values()) == sorted(conjugacy.values())  # three distinct pairs


# subsets of POOL whose groups are finite: of orders 12 and 8 over Q, and the
# 32 monomial 2x2 matrices with entries powers of i over Q(zeta_4)
FINITE_POOLS = [(F1, ["S", "T", "R3"]), (F1, ["S", "N"]), (F4, ["S", "N", "Di", "Ji"])]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_group_walked_within_the_bound_leaves_no_pair_unresolved(data):
    """Whenever the ball is the whole group, every pair is decided; and no
    element of the ball conjugates a disproved pair."""
    fld, names = data.draw(st.sampled_from(FINITE_POOLS + [(F1, RATIONAL), (F4, list(POOL))]))
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
    bound = data.draw(st.integers(1, 6))
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(fld, POOL[name])) for k, name in enumerate(chosen)
    ))
    walked = ball_is_the_group(g, bound)
    ball = [w for w, _ in eager_ball(g, bound)]
    for (i, j), answer in check_basic_set(g, bound).conjugacy.items():
        assert not (walked and answer.status == "unresolved")
        if answer.status == "disproved":
            assert not any(groupkit._conjugates(w, g.elements[i], g.elements[j]) for w in ball)


def test_held_conjugates_skip_elements_with_no_new_product():
    # in the ball of Ji, U, L and N over Q(zeta_4), some elements have no new
    # product and are never a parent; each element expanded must still read
    # its own conjugates, held under its ball index, or pairs (1, 2) and (2, 1)
    # are answered by words that do not conjugate them
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(F4, POOL[name])) for k, name in enumerate(["Ji", "U", "L", "N"])
    ))
    pairs = [(i, j) for i in range(4) for j in range(4)]
    conjugacy, _ = listed_answers(g, pairs, 3)
    ball = eager_ball(g, 3)
    assert conjugacy == {(i, j): reference_answer(g, i, j, 3, ball) for i, j in pairs}
    assert conjugacy[(1, 2)] == WitnessResult("witness", word="g2*g1^-1*g3")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_held_conjugates_match_the_reference_on_small_linear_groups(data):
    """Any listed pairs, in either order and repeated, at bounds 0-4."""
    fld = data.draw(st.sampled_from([F1, F4]))
    names = RATIONAL if fld is F1 else list(POOL)
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=2, max_size=4))
    bound = data.draw(st.integers(0, 4))
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(fld, POOL[name])) for k, name in enumerate(chosen)
    ))
    index = st.integers(0, len(chosen) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=6))
    conjugacy, _ = listed_answers(g, pairs, bound)
    ball = eager_ball(g, bound)
    assert conjugacy == {(i, j): reference_answer(g, i, j, bound, ball) for i, j in pairs}


def tangent_pair_jets(fld):
    """f = L + x^3 e_0 + y^2 e_0 with L = -I, and L itself, at K = 3: equal
    characteristic polynomials, but f^2 = (x - 2x^3, y) has infinite order
    and L order 2, and f o L != L o f."""
    one = fld.one()
    f = jet(fld, 2, 3, [(0, (1, 0), -one), (0, (3, 0), one), (0, (0, 2), one),
                        (1, (0, 1), -one)])
    return f, linear_jet(fld, [[-1, 0], [0, -1]], K=3)


def order_first_reference(g, bound):
    """Every pair i < j, screened orders first: equality, then orders, then
    characteristic polynomials, then commuting generators, then a scan of
    the full depth-`bound` ball."""
    ball = eager_ball(g, bound)
    distinct = list(dict.fromkeys(g.elements))
    commute = all(a.compose(b) == b.compose(a) for a in distinct for b in distinct)

    def answer(fi, fj):
        if fi == fj:
            return WitnessResult("witness", word="")
        oi, oj = fi.order(), fj.order()
        if (oi.kind, oi.order) != (oj.kind, oj.order):
            return WitnessResult("disproved", reason=f"order-mismatch: {oi.order or oi.kind} vs "
                                                     f"{oj.order or oj.kind}")
        if fi.conjugacy_invariant() != fj.conjugacy_invariant():
            return WitnessResult("disproved", reason="linear-part-charpoly-mismatch")
        if commute:
            return WitnessResult(
                "disproved", reason="commuting-generators: abelian group, conjugacy is equality")
        for w, word in ball:
            if w.compose(fj) == fi.compose(w):
                return WitnessResult("witness", word=format_word(word))
        return WitnessResult("unresolved", reason=f"no witness within word length {bound}")

    n = len(g.elements)
    return {(i, j): answer(g.elements[i], g.elements[j]) for i in range(n) for j in range(i + 1, n)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invariant_first_screens_give_the_order_first_answers(data):
    """Screening by characteristic polynomial first, with orders only where
    they decide, answers every pair as screening orders first does: over
    POOL matrices and the tangent pair f, L at K = 3, at bounds 0-2."""
    fld = data.draw(st.sampled_from([F1, F4]))
    f, lo = tangent_pair_jets(fld)
    pool = {name: linear_jet(fld, POOL[name], K=3)
            for name in (RATIONAL if fld is F1 else POOL)}
    pool.update(f=f, L=lo)
    chosen = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=2, max_size=3))
    bound = data.draw(st.integers(0, 2))
    g = GroupPresentation(tuple((f"g{k}", pool[name]) for k, name in enumerate(chosen)))
    assert check_basic_set(g, bound).conjugacy == order_first_reference(g, bound)


@pytest.mark.parametrize("third", [None, "S"])
def test_equal_invariants_with_different_orders_are_an_order_mismatch(third):
    """The tangent pair passes the characteristic-polynomial screen and does
    not commute, so the word ball runs to the bound; its order mismatch then
    disproves it."""
    f, lo = tangent_pair_jets(F1)
    gens = [("f", f), ("L", lo)]
    if third is not None:
        gens.append((third, linear_jet(F1, POOL[third], K=3)))
    g = GroupPresentation(gens)
    report = check_basic_set(g)
    assert report.conjugacy[(0, 1)] == WitnessResult(
        "disproved", reason="order-mismatch: infinite vs 2")
    assert report.conjugacy == order_first_reference(g, groupkit.DEFAULT_WITNESS_BOUND)
    assert find_conjugacy_witness(g, 0, 1) == report.conjugacy[(0, 1)]


@pytest.mark.parametrize("entry, most", [("ex-2-2", 70), ("ex-2-3", 75)])
def test_corpus_entry_compose_count(monkeypatch, entry, most):
    # the word ball's stop test composes nothing, the ordered product takes a
    # run of one generator as one power, and a linear jet's order takes no power
    calls = counting(monkeypatch, "compose")
    report = cli.run_corpus_entry(entry, groupkit.DEFAULT_WITNESS_BOUND,
                                  groupkit.DEFAULT_CLOSURE_CAP, None)
    assert report["matched"] and len(calls) <= most


def test_unresolved_pair_builds_the_full_ball(monkeypatch):
    # U and L are conjugate in GL_2(Q) but not in the group they generate
    u = linear_jet(F1, POOL["U"], K=2)
    lo = linear_jet(F1, POOL["L"], K=2)
    g = GroupPresentation((("U", u), ("L", lo)))
    built = []

    def recording(*args, **kwargs):
        built.append(bfs_ball(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(groupkit, "bfs_ball", recording)
    full = eager_ball(g, 3)
    assert check_basic_set(g, 3).conjugacy[(0, 1)].status == "unresolved"
    assert find_conjugacy_witness(g, 0, 1, 3).status == "unresolved"
    assert built == [full, full] and len(full) > 40


@pytest.mark.parametrize("entry", ["ex-2-1", "prop-5-1-2"])
def test_commutation_check_only_for_pairs_left_open(monkeypatch, entry):
    # ex-2-1 supplies a witness for every pair it does not screen; prop-5-1-2's
    # pair is disproved by its orders
    def refuse(g):
        raise AssertionError("commutation checked with no pair open")

    monkeypatch.setattr(groupkit, "_generators_commute", refuse)
    doc = corpus.load(entry)
    assert check_basic_set(doc.presentation()).verdict == doc.expected["basic_set"]["verdict"]


def test_ball_stops_at_the_last_answer():
    g = corpus.load("ex-2-2").presentation()
    full = eager_ball(g, 6)
    pending = [(g.elements[0], g.elements[10]), (g.elements[0], g.elements[11])]
    seen = []

    def stop(w, index, parent, letter):
        # the new element is its parent composed with the letter's value;
        # `seen` holds the ball from index 1 on
        assert index == len(seen) + 1 and parent < index
        u = seen[parent - 1] if parent else g.identity()
        assert w == u.compose(letter[1]) and letter in groupkit._distinct_letters(g)
        seen.append(w)
        pending[:] = [(fi, fj) for fi, fj in pending if not groupkit._conjugates(w, fi, fj)]
        return not pending

    lazy = bfs_ball(g.identity(), groupkit._distinct_letters(g), 6, type(g.identity()).compose,
                    stop=stop)
    assert lazy == full[: len(lazy)] and len(lazy) < len(full)
    assert seen == [w for w, _ in lazy[1:]]


def recorded_ball(g, depth, last=None):
    """The ball of g built with `table=` and a `stop` that records each call
    and is true at ball index `last`."""
    ident = g.identity()
    letters = groupkit._distinct_letters(g)
    table, calls = [], []

    def stop(new, index, parent, letter):
        calls.append((new, index, parent, letter))
        return index == last

    ball = bfs_ball(ident, letters, depth, type(ident).compose, stop=stop, table=table)
    return ball, letters, table, calls


@pytest.mark.parametrize("case", ["closed-pool-group", "ex-2-2"])
def test_stop_sees_ball_indices(case):
    if case == "ex-2-2":
        g = corpus.load("ex-2-2").presentation()
        ball, letters, table, calls = recorded_ball(g, 6, last=40)
        assert len(ball) == 41
    else:
        # Ji, Di and N over Q(zeta_4) generate the 32 monomial matrices G(4,1,2)
        g = GroupPresentation(tuple(
            (f"g{k}", linear_jet(F4, POOL[name])) for k, name in enumerate(["Ji", "Di", "N"])
        ))
        ball, letters, table, calls = recorded_ball(g, 32)
        assert len(ball) == 32 and len(table) == len(ball) * len(letters)  # closed
    assert [index for _, index, _, _ in calls] == list(range(1, len(ball)))
    for new, index, parent, letter in calls:
        k = letters.index(letter)
        assert ball[index][0] is new
        assert table[parent * len(letters) + k] == index
        assert ball[index][1] == ball[parent][1] + (letter[0],)


def test_ball_takes_the_letters_as_the_products_of_the_identity():
    """Level 1 composes nothing: each compose multiplies an element at index
    1 or later by a letter, once per letter, on the closed 32-element ball."""
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(F4, POOL[name])) for k, name in enumerate(["Ji", "Di", "N"])
    ))
    letters = groupkit._distinct_letters(g)
    composed = []

    def compose_fn(x, y):
        composed.append(x)
        return x.compose(y)

    ball = bfs_ball(g.identity(), letters, 32, compose_fn)
    assert len(ball) == 32 and [w for w, _ in ball[1:len(letters) + 1]] == [v for _, v in letters]
    assert composed == [w for w, _ in ball[1:] for _ in letters]


def counting(monkeypatch, name, home=jets):
    """Count calls of <home>.<name> (`jets`, `jetform` or `moebius`); the
    `GermJet`, `LinearPart` and `MoebiusMap` methods call it through the module."""
    calls = []
    original = getattr(home, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (home, groupkit):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# the element methods that need an operation, called on two jets f, g and two
# Moebius maps m, n, in a fresh interpreter and in this one
ELEMENT_CALLS = ("f.compose(g)", "f.inverse()", "f.order()", "f.conjugacy_invariant()",
                 "m.compose(n)", "m.order()")
LAZY_DISPATCH = """
import json, sys
from germforge import corpus
f, g = [x for _, x in corpus.load("ex-2-2").generators[10:12]]
# the document's own list: its `presentation()` would load groupkit, and with it jets
m, n = [x for _, x in corpus.load("moebius-rotation-5").generators[:2]]
operations = ("germforge.jets", "germforge.moebius")
before = [k for k in operations if k in sys.modules]
results = [repr(eval(call)) for call in sys.argv[1:]]
after = [k for k in operations if k in sys.modules]
print(json.dumps([before, results, after]))
"""


def corpus_elements():
    # f11 and f12 of Example 2.2, both nonlinear: the order of a linear jet takes no power
    f, g = [x for _, x in corpus.load("ex-2-2").generators[10:12]]
    m, n = corpus.load("moebius-rotation-5").presentation().elements[:2]
    return f, g, m, n


def test_element_methods_import_their_operations_on_first_call(monkeypatch):
    """Parsing leaves `jets` and `moebius` unloaded.  The first method call
    that needs one imports it, with the same results as in-process, and a
    function replaced on the module by name sees the method's call."""
    src = os.path.dirname(os.path.dirname(jets.__file__))
    done = subprocess.run([sys.executable, "-c", LAZY_DISPATCH, *ELEMENT_CALLS],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    before, fresh, after = json.loads(done.stdout)
    assert before == [] and after == ["germforge.jets", "germforge.moebius"]
    f, g, m, n = corpus_elements()
    scope = {"f": f, "g": g, "m": m, "n": n}
    assert fresh == [repr(eval(call, scope)) for call in ELEMENT_CALLS]

    char_polys = counting(monkeypatch, "_char_poly", jetform)
    f, g, m, n = corpus_elements()  # fresh objects: `order()` is cached per element
    # parsing checked invertibility on the `_char_poly` pass of the one linear part
    assert char_polys == [(f.field, f.n, f._linear())] and f._lin is g._lin
    composed, inverted, ordered = (
        counting(monkeypatch, name) for name in ("compose", "invert", "germ_order"))
    moebius_composed, moebius_ordered = (
        counting(monkeypatch, name, moebius) for name in ("moebius_compose", "moebius_order"))
    f.compose(g)
    assert composed == [(f, g)]
    f.inverse()  # `invert` corrects each degree through `jets.compose`
    # its linear start divides the M_n of that pass, which also keeps the invariant
    assert inverted == [(f,)]
    f.conjugacy_invariant()
    assert len(char_polys) == 1
    m.compose(n)
    assert moebius_composed == [(m, n)]
    assert m.order().order == 5 and moebius_ordered == [(m,)]
    assert moebius_composed == [(m, n)]  # the order is a matrix order: it composes no map
    composed.clear()
    assert f.order().order > 1 and ordered == [(f,)]
    assert composed  # `germ_order` takes a jet power through `jets.compose`


def test_basic_set_compose_count_ex_2_2(monkeypatch):
    g = corpus.load("ex-2-2").presentation()
    calls = counting(monkeypatch, "compose")
    assert check_basic_set(g).verdict == "irreducible-verified"
    assert len(calls) <= 200


ORDERS_TAKEN = {"ex-2-2": 0, "ex-2-3": 0, "prop-5-1-3": 0, "prop-5-1-4": 0,
                "prop-5-1-1b": 3, "prop-5-1-2": 2}


@pytest.mark.parametrize("entry", ORDERS_TAKEN)
def test_basic_set_orders_each_distinct_generator_once(monkeypatch, entry):
    """Orders are taken only where they decide, each at most once per
    distinct generator: none where the word ball witnesses every pair; every
    generator of prop-5-1-1b, whose pairs the characteristic polynomial
    leaves open, before the commuting generators give their reason; both of
    prop-5-1-2, whose characteristic polynomials differ, to name the reason."""
    g = corpus.load(entry).presentation()
    calls = counting(monkeypatch, "germ_order")
    check_basic_set(g)
    assert len(calls) == len(set(calls)) == ORDERS_TAKEN[entry]


def test_basic_set_screens_each_distinct_pair_once(monkeypatch):
    # `GermJet.conjugacy_invariant` and the parse's invertibility check both
    # read the one `_char_poly` pass of a `LinearPart`
    calls = counting(monkeypatch, "_char_poly", jetform)
    for entry in ("ex-2-1", "ex-2-2", "ex-2-3"):
        report = cli.run_corpus_entry(
            entry, groupkit.DEFAULT_WITNESS_BOUND, groupkit.DEFAULT_CLOSURE_CAP, None
        )
        assert report["matched"]
    # each has three distinct generators that share one `LinearPart`: its pass is
    # taken at parse, and the screen of ex-2-2's and ex-2-3's three distinct pairs
    # and the linear inverse of every letter read it; ex-2-1 supplies its witnesses
    assert len(calls) == 3


def test_letters_invert_each_distinct_generator_once(monkeypatch):
    g = corpus.load("ex-2-3").presentation()
    calls = counting(monkeypatch, "invert")
    check_basic_set(g)
    assert len(calls) == len(set(g.elements)) == 3


def test_basic_set_and_linearize_compose_one_ordered_product(monkeypatch):
    g = corpus.load("ex-2-3").presentation()
    calls = counting(monkeypatch, "compose")
    original = groupkit.check_product_identity
    inside = []

    def product(pres):
        before = len(calls)
        out = original(pres)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(groupkit, "check_product_identity", product)
    check_basic_set(g)
    linearize_group(g)
    # 36 listed generators in three runs, f1^34 f35 f36, composed by the first
    # call alone: 6 composes for the power (5 squarings, one product), 2 for the runs
    assert inside == [8, 0]


def test_basic_set_computes_each_linear_fact_once_per_document(monkeypatch):
    """ex-2-3's three distinct generators share one linear part: one
    characteristic polynomial, whose Faddeev-LeVerrier pass also gives the
    linear inverse that inverting the letters reads, and no linear order,
    since the word ball witnesses every pair."""
    char_polys = counting(monkeypatch, "_char_poly", jetform)
    g = corpus.load("ex-2-3").presentation()
    assert len(char_polys) == 1  # taken at parse
    products, orders = (counting(monkeypatch, name) for name in ("_int_mul", "_linear_order"))
    assert check_basic_set(g).verdict == "irreducible-verified"
    assert (len(products), len(char_polys), len(orders)) == (0, 1, 0)


def test_order_check_of_a_tangent_word_takes_no_matrix_product(monkeypatch):
    """ex-2-3's `order` element f1^16 f35 f1 has the identity as linear part,
    whose order is read off without a product."""
    doc = corpus.load("ex-2-3")
    element = doc.expected["order"]["element"]
    products = counting(monkeypatch, "_int_mul")
    assert germ_order(evaluate_word(doc.presentation(), element)).is_infinite
    assert products == []


def test_corpus_entry_inverts_and_screens_each_distinct_generator_once(monkeypatch):
    distinct = set(corpus.load("prop-5-1-4").presentation().elements)
    inverts = counting(monkeypatch, "invert")
    invariants = counting(monkeypatch, "_char_poly", jetform)
    report = cli.run_corpus_entry(
        "prop-5-1-4", groupkit.DEFAULT_WITNESS_BOUND, groupkit.DEFAULT_CLOSURE_CAP, None
    )
    assert report["matched"]
    assert len(inverts) == len(invariants) == len(distinct) == 4
    # one `_char_poly` pass per linear part, taken at parse, gives its
    # invertibility, its invariant and its inverse
    assert len({form for _, _, form in invariants}) == 4


# --- closures -----------------------------------------------------------------------------


def test_closure_identity_only():
    pres = GroupPresentation((("e", GermJet.identity(F1, 1, 1)),))
    res = closure_enumerate(pres)
    assert res.status == "closed" and res.count == 1


def test_closure_5_1_2_exactly_the_printed_eight():
    res = closure_enumerate(prop_512_presentation())
    assert res.status == "closed"
    i = F4.zeta()
    matrices = [
        [[1, 0], [0, 1]],
        [[i, 0], [0, -i]],
        [[0, 1], [1, 0]],
        [[-1, 0], [0, -1]],
        [[-i, 0], [0, i]],
        [[0, -1], [-1, 0]],
        [[0, i], [-i, 0]],
        [[0, -i], [i, 0]],
    ]
    want = {linear_jet(F4, m) for m in matrices}
    assert set(res.elements) == want


def test_closure_5_1_2_not_cyclic():
    res = closure_enumerate(prop_512_presentation())
    assert is_cyclic(res) is None


def test_closure_block_group_order_18_by_independent_oracle():
    # independent closure via raw matrix tuples
    a = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    b = ((Fraction(-1, 2), Fraction(1)), (Fraction(3, 4), Fraction(1, 2)))

    def mul(x, y):
        return tuple(
            tuple(sum(x[r][t] * y[t][c] for t in range(len(y))) for c in range(len(y[0])))
            for r in range(len(x))
        )

    def block(p, q):
        m = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                m[r][c] = p[r][c]
                m[r + 2][c + 2] = q[r][c]
        return tuple(tuple(row) for row in m)

    gens = [block(a, a), block(a, b), block(b, b), block(b, a)]
    ident = tuple(tuple(Fraction(1) if r == c else Fraction(0) for c in range(4)) for r in range(4))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = mul(e, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    assert len(seen) == 18

    res = closure_enumerate(prop_514_presentation())
    assert res.status == "closed"
    assert res.count == 18
    assert is_cyclic(res) is None


def test_closure_cap_exceeded():
    # a finite group of 24 elements: below 24 the cap, not a verdict, ends the
    # BFS once cap + 1 elements are listed; from 24 on the group closes
    g = corpus.load("prop-5-1-2-abelian").presentation()
    for cap in range(1, 31):
        res = closure_enumerate(g, cap=cap)
        if cap < 24:
            assert (res.status, res.count) == ("cap-exceeded", cap + 1), cap
            assert res.elements is None and res.word is None and res.table is None
        else:
            assert (res.status, res.count) == ("closed", 24), cap


def test_is_cyclic_small_cases():
    e = GermJet.identity(F1, 1, 1)
    assert is_cyclic(closure_enumerate(GroupPresentation((("e", e),)))) == e
    f5c = field(5)
    g = linear_jet(f5c, [[f5c.zeta(), 0], [0, f5c.zeta(2)]])
    cyclic = closure_enumerate(GroupPresentation((("g", g),)))
    assert cyclic.count == 5 and is_cyclic(cyclic).order().order == 5
    with pytest.raises(ValueError):
        is_cyclic(closure_enumerate(GroupPresentation((("g", g),)), cap=3))  # not closed
    with pytest.raises(ValueError):
        is_cyclic(closure_enumerate(prop_513_presentation()))  # infinite


def test_is_cyclic_on_moebius_closures():
    from germforge.moebius import MoebiusMap

    one, zero = F1.one(), F1.zero()
    s = MoebiusMap(((zero, one), (one, zero)))  # z -> 1/z
    t = MoebiusMap(((-one, one), (zero, one)))  # z -> 1 - z
    anharmonic = closure_enumerate(GroupPresentation((("s", s), ("t", t))))
    assert anharmonic.count == 6 and is_cyclic(anharmonic) is None
    rotation = closure_enumerate(GroupPresentation((("st", s.compose(t)),)))
    generator = is_cyclic(rotation)
    assert rotation.count == 3 and generator.order().order == 3


def test_is_cyclic_composes_nothing(monkeypatch):
    jet_closure = closure_enumerate(corpus.load("prop-5-1-2-abelian").presentation())
    map_closure = closure_enumerate(small_presentations()["anharmonic"])
    jet_calls = counting(monkeypatch, "compose")
    map_calls = counting(monkeypatch, "moebius_compose", moebius)
    assert is_cyclic(jet_closure) is None
    assert is_cyclic(map_closure) is None
    # the powers x^(M/p) are walks in the closure's multiplication table
    assert jet_calls == [] and map_calls == []


# --- finiteness verdicts ------------------------------------------------------------

# entry -> (status, count, word) of the closure at the default cap
CORPUS_CLOSURES = {
    "ex-2-1": ("infinite", 10, "f1*f5^-1"),
    "ex-2-2": ("infinite", 10, "f1*f11^-1"),
    "ex-2-3": ("infinite", 10, "f1*f35^-1"),
    "moebius-dilation": ("infinite", 1, "m1"),
    "moebius-inversion": ("closed", 2, None),
    "moebius-rotation-5": ("closed", 5, None),
    "prop-5-1-1a": ("infinite", 1, "A"),
    "prop-5-1-1b": ("infinite", 1, "At"),
    "prop-5-1-2": ("closed", 8, None),
    "prop-5-1-2-abelian": ("closed", 24, None),
    "prop-5-1-3": ("infinite", 8, "B*C"),
    "prop-5-1-4": ("closed", 18, None),
}


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_corpus_closure_verdicts(entry):
    pres = corpus.load(entry).presentation()
    res = closure_enumerate(pres)
    assert (res.status, res.count, res.word) == CORPUS_CLOSURES[entry]
    if res.status == "infinite":
        assert res.elements is None and res.certificate and res.table is None
        assert evaluate_word(pres, res.word).order().is_infinite
    else:
        assert len(res.elements) == res.count and res.certificate is None
        # closed: the BFS frontier emptied, so every element met every letter
        assert len(res.table.products) == res.count * len(res.table.letters)


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_every_command_runs_on_every_corpus_entry(entry, capsys):
    """The group commands take jets and Moebius maps alike; the commands of
    one element type refuse a document of the other with exit 2."""
    path = os.path.join(os.path.dirname(cli.__file__), "corpus", f"{entry}.json")

    def run(*argv):
        code = cli.main([argv[0], path, *argv[1:], "--format", "json"])
        out, err = capsys.readouterr()
        return code, json.loads(out)["verdict"] if out else err

    status, count, _ = CORPUS_CLOSURES[entry]
    code, verdict = run("closure")
    assert code == cli.EXIT_OK and (verdict["status"], verdict["count"]) == (status, count)
    assert run("check-basic-set")[0] in (cli.EXIT_OK, cli.EXIT_LIMIT)
    assert run("order", "--element", corpus.load(entry).generators[0][0])[0] == cli.EXIT_OK
    cyclic = cli._cyclic_payload(corpus.load(entry), argparse.Namespace(closure_cap=10_000))
    assert (cyclic is None) == (status != "closed")
    if entry.startswith("moebius-"):
        # without eigenvalues, `resonances` reads the first generator
        for command in ("normalize", "linearize", "resonances"):
            assert run(command) == (cli.EXIT_INPUT, "error: document has no jet generators\n")
    else:
        assert run("moebius-holonomy") == (
            cli.EXIT_INPUT, "error: document has no moebius_generators\n")


def g41n_presentation(n):
    """G(4,1,n), the n x n monomial matrices whose entries are powers of i, as
    K = 1 jets over Q(zeta_4): the adjacent transpositions and diag(i, 1, ..., 1).
    Its order is 4^n n!."""
    def swap(k):
        image = list(range(n))
        image[k], image[k + 1] = k + 1, k
        return [[int(t == image[s]) for t in range(n)] for s in range(n)]

    dilation = [[(I4 if s == 0 else 1) if s == t else 0 for t in range(n)] for s in range(n)]
    gens = [(f"s{k + 1}", linear_jet(F4, swap(k))) for k in range(n - 1)]
    return GroupPresentation((*gens, ("d", linear_jet(F4, dilation))))


CLOSED_ENTRIES = [entry for entry, (status, _, _) in CORPUS_CLOSURES.items() if status == "closed"]


@pytest.mark.parametrize("entry", CLOSED_ENTRIES + ["G(4,1,3)"])
def test_closed_group_keeps_its_multiplication_table(entry):
    if entry == "G(4,1,3)":
        pres, order = g41n_presentation(3), 4 ** 3 * 6
    else:
        pres, order = corpus.load(entry).presentation(), CORPUS_CLOSURES[entry][1]
    res = closure_enumerate(pres)
    table = res.table
    ball, letters, width = table.ball, table.letters, len(table.letters)
    assert res.status == "closed" and len(ball) == res.count == order
    assert len(table.products) == len(ball) * width
    for i, (x, word) in enumerate(ball):
        assert evaluate_word(pres, format_word(word)) == x
        for k, (_, letter) in enumerate(letters):
            assert ball[table.products[i * width + k]][0] == x.compose(letter)
    assert sorted(table.ranks) == list(range(len(ball)))
    assert all(res.elements[r] is ball[i][0] for r, i in enumerate(table.ranks))
    assert ball[0] == (pres.identity(), ())
    assert res.elements[table.ranks.index(0)].is_identity()
    # the walk along the word of v multiplies ball indices
    multiply = table.multiplication()
    index = {x: i for i, (x, _) in enumerate(ball)}
    rng = random.Random(17)
    pairs = [(rng.randrange(len(ball)), rng.randrange(len(ball))) for _ in range(200)]
    for u, v in pairs:
        assert multiply(u, v) == index[ball[u][0].compose(ball[v][0])]


def reference_is_cyclic(closure):
    """`is_cyclic` by composing elements: x^(M/p) by square-and-multiply."""
    m = closure.count
    for x in closure.elements:
        powers = (binary_power(x, m // p, type(x).compose) for p in prime_factors(m))
        if not any(power.is_identity() for power in powers):
            return x
    return None


def small_presentations():
    from germforge.moebius import MoebiusMap

    f3, f12 = field(3), field(12)
    one, zero = F1.one(), F1.zero()
    s = MoebiusMap(((zero, one), (one, zero)))  # z -> 1/z
    t = MoebiusMap(((-one, one), (zero, one)))  # z -> 1 - z
    return {
        "zeta-12": GroupPresentation((("z", linear_jet(f12, [[f12.zeta()]])),)),
        "moebius-rotation-3": GroupPresentation((("st", s.compose(t)),)),
        # orders 2 and 3, commuting: the product, not a letter, generates
        "order-6-from-2-and-3": GroupPresentation((
            ("a", linear_jet(f3, [[-1, 0], [0, 1]])),
            ("b", linear_jet(f3, [[1, 0], [0, f3.zeta()]])),
        )),
        "anharmonic": GroupPresentation((("s", s), ("t", t))),
    }


@pytest.mark.parametrize("name", ["zeta-12", "moebius-rotation-3", "order-6-from-2-and-3",
                                  "anharmonic", "prop-5-1-2", "prop-5-1-2-abelian", "prop-5-1-4"])
def test_is_cyclic_matches_the_composing_reference(name):
    pres = small_presentations().get(name) or corpus.load(name).presentation()
    res = closure_enumerate(pres)
    generator = is_cyclic(res)
    assert generator is reference_is_cyclic(res)
    cyclic = name not in ("anharmonic", "prop-5-1-2", "prop-5-1-2-abelian", "prop-5-1-4")
    assert (generator is not None) == cyclic
    if cyclic:
        assert generator.order().order == res.count
    if name == "order-6-from-2-and-3":
        assert res.count == 6 and generator not in pres.elements


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_is_cyclic_matches_the_composing_reference_on_small_linear_groups(data):
    fld = data.draw(st.sampled_from([F1, F4]))
    names = RATIONAL if fld is F1 else list(POOL)
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    g = GroupPresentation(tuple(
        (f"g{k}", linear_jet(fld, POOL[name])) for k, name in enumerate(chosen)
    ))
    res = closure_enumerate(g, cap=64)
    if res.status == "closed":
        assert is_cyclic(res) is reference_is_cyclic(res)
    else:
        assert res.table is None


def test_closure_certificates_name_their_proof():
    trace = closure_enumerate(prop_513_presentation())
    assert "trace 19/8 of the linear part is not an algebraic integer" in trace.certificate
    tangent = closure_enumerate(corpus.load("ex-2-1").presentation())
    assert tangent.certificate == "tangent to the identity with a nonzero nonlinear slice"
    generator = closure_enumerate(corpus.load("prop-5-1-1a").presentation())
    assert "every finite order divides 12" in generator.certificate


def test_finite_closure_orders_only_its_generators(monkeypatch):
    pres = corpus.load("prop-5-1-4").presentation()
    calls = counting(monkeypatch, "germ_order")
    assert closure_enumerate(pres).status == "closed"
    assert len(calls) == len(set(pres.elements))


def test_exact_order_decides_what_no_screen_catches():
    f = linear_jet(F1, [[2, 1], [1, 1]])
    assert f.infinite_order_screen() is None
    res = closure_enumerate(GroupPresentation((("f", f),)), cap=200)
    assert (res.status, res.count, res.word) == ("infinite", 1, "f")
    assert "every finite order divides 12" in res.certificate


def test_exact_orders_at_the_cap_find_an_infinite_product():
    # s and u have orders 4 and 6 and generate SL_2(Z): every element has an
    # integer trace, so only the order test at the cap proves it infinite
    s = linear_jet(F1, [[0, -1], [1, 0]])
    u = linear_jet(F1, [[0, -1], [1, 1]])
    pres = GroupPresentation((("s", s), ("u", u)))
    res = closure_enumerate(pres, cap=200)
    assert (res.status, res.count) == ("infinite", 201)
    w = evaluate_word(pres, res.word)
    assert w.infinite_order_screen() is None and w.order().is_infinite


def test_basic_set_5_1_3_verified_and_bc_infinite():
    pres = prop_513_presentation()
    report = check_basic_set(pres)
    assert report.verdict == "irreducible-verified"
    from germforge.jets import germ_order

    bc = evaluate_word(pres, "B*C")
    res = germ_order(bc)
    assert res.is_infinite
    assert "power 12 is not the identity" in res.certificate


# --- affine criterion -----------------------------------------------------------------------


def test_affine_decide_examples():
    f4 = field(4)
    i = f4.zeta()
    ok, reason = affine_conjugacy_decide(AffineFamily(i, (f4.zero(), f4.zero(), f4.zero())))
    assert ok and "prime power" in reason
    ok, _ = affine_conjugacy_decide(AffineFamily(i, (f4.zero(), f4.one())))
    assert not ok
    f6 = field(6)
    eta = f6.zeta()
    assert root_of_unity_order(eta) == 6
    ok, reason = affine_conjugacy_decide(
        AffineFamily(eta, (f6.zero(), f6.one(), f6.zeta(2)))
    )
    assert ok and "distinct prime divisors" in reason


def test_affine_decide_rejects_trivial_multiplier():
    with pytest.raises(ValueError):
        affine_conjugacy_decide(AffineFamily(F1.one(), (F1.zero(),)))
    with pytest.raises(ValueError):
        affine_conjugacy_decide(AffineFamily(F1.from_rational(2), (F1.zero(),)))


def affine_conjugacy_bruteforce(family: AffineFamily, word_bound: int = 8) -> bool:
    """Brute-force oracle for `affine_conjugacy_decide`, words up to `word_bound`.

    Affine maps are (multiplier, shift) pairs.  Every word of length <= 2d
    factors as u o v with u, v in the radius-d ball, so candidate conjugators
    are enumerated meet-in-the-middle; a pair (h_i, h_j) is conjugate when
    some group element w satisfies w o h_i = h_j o w exactly.
    """
    eta = family.multiplier
    gens = [(eta, b) for b in family.translations]

    def a_compose(u, v):
        return (u[0] * v[0], u[0] * v[1] + u[1])

    def a_invert(u):
        m_inv = u[0].inverse()
        return (m_inv, -(m_inv * u[1]))

    letters = []
    seen_letters = set()
    for h in gens:
        for cand in (h, a_invert(h)):
            if cand not in seen_letters:
                seen_letters.add(cand)
                letters.append((None, cand))
    half = (word_bound + 1) // 2
    ident = (eta.field.one(), eta.field.zero())
    half_ball = [elem for elem, _ in bfs_ball(ident, letters, half, a_compose)]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            hi, hj = gens[i], gens[j]
            found = False
            for u in half_ball:
                for v in half_ball:
                    w = a_compose(u, v)
                    if a_compose(w, hi) == a_compose(hj, w):
                        found = True
                        break
                if found:
                    break
            if not found:
                return False
    return True


def test_affine_oracle_agrees_on_small_sample():
    for ell in (2, 3, 4, 6):
        fld = field(ell)
        eta = fld.zeta()
        for translations in (
            (fld.zero(), fld.zero()),
            (fld.zero(), fld.one()),
            (fld.one(), fld.zeta() if ell > 1 else fld.one()),
        ):
            family = AffineFamily(eta, translations)
            want, _ = affine_conjugacy_decide(family)
            assert affine_conjugacy_bruteforce(family, word_bound=8) == want


# --- linearization ---------------------------------------------------------------------------


def test_linearize_trivial_linear_group():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -1]], K=3)
    pres = GroupPresentation((("a1", a), ("a2", a), ("a3", a), ("a4", a)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationSuccess)
    assert out.conjugator.is_identity()
    assert out.group_order == 4


def test_linearize_synthetic_conjugated_group():
    # psi = Id + (z2^2, 0), A = diag(i, -1): generators psi o A o psi^{-1} x4
    i = F4.zeta()
    K = 4
    a = linear_jet(F4, [[i, 0], [0, -1]], K=K)
    psi = GermJet(
        2, K, F4,
        {(0, (1, 0)): F4.one(), (1, (0, 1)): F4.one(), (0, (0, 2)): F4.one()},
    )
    f = conjugate(psi, a)
    assert not f.is_linear()
    pres = GroupPresentation(tuple((f"g{k}", f) for k in range(1, 5)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationSuccess)
    for j in pres.elements:
        assert conjugate(out.conjugator, j) == a


def test_linearize_rejects_mixed_prime_spectrum():
    out = linearize_group(ex21_presentation())
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "precondition-violated"
    assert out.eigenvalue_orders == (2, 3)
    assert "distinct primes" in out.detail


def test_linearize_reports_differing_generators():
    # 4 generators iz + a_k z^2 with a = (1, 0, 1, 0): product is Id at K=2
    i = F4.zeta()
    f_a = jet(F4, 1, 2, [(0, (1,), i), (0, (2,), F4.one())])
    f_b = jet(F4, 1, 2, [(0, (1,), i)])
    pres = GroupPresentation((("g1", f_a), ("g2", f_b), ("g3", f_a), ("g4", f_b)))
    ok, _ = check_product_identity(pres)
    assert ok
    out = linearize_group(pres)
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "generators-differ"
    assert out.degree == 2


def test_linearize_rejects_broken_product():
    i = F4.zeta()
    a = linear_jet(F4, [[i, 0], [0, -1]], K=2)
    pres = GroupPresentation((("a1", a), ("a2", a), ("a3", a)))
    out = linearize_group(pres)
    assert isinstance(out, LinearizationFailure)
    assert out.reason == "precondition-violated"
    assert "product" in out.detail


def test_linearize_cross_validates_with_closure():
    rng = random.Random(71)
    for _ in range(8):
        p, s = rng.choice([(2, 1), (2, 2), (3, 1), (5, 1)])
        order = p ** s
        fld = field(order)
        n = rng.choice([1, 2])
        K = rng.choice([2, 3, 4])
        diag = [fld.zeta(rng.randrange(order)) for _ in range(n)]
        if all(d == fld.one() for d in diag):
            diag[0] = fld.zeta(1)
        rows = [[diag[r] if r == c else fld.zero() for c in range(n)] for r in range(n)]
        a = linear_jet(fld, rows, K)
        coeffs = dict(GermJet.identity(fld, n, K).coeffs)
        for _ in range(2):
            sdx = rng.randrange(n)
            q = tuple(rng.choice([2, 0, 1]) for _ in range(n))
            if 2 <= sum(q) <= K:
                c = fld.element([rng.randint(-2, 2) for _ in range(fld.degree)])
                if not c.is_zero():
                    coeffs[(sdx, q)] = c
        psi = GermJet(n, K, fld, coeffs)
        f = conjugate(psi, a)
        count = order
        pres = GroupPresentation(tuple((f"g{k}", f) for k in range(count)))
        closure = closure_enumerate(pres, cap=2000)
        assert closure.status == "closed"
        gen = is_cyclic(closure)
        assert gen is not None  # cyclic of prime-power order
        out = linearize_group(pres)
        assert isinstance(out, LinearizationSuccess)
        linear_target = linear_jet(fld, f.linear_matrix(), K)
        for j in pres.elements:
            assert conjugate(out.conjugator, j) == linear_target


def reference_is_diagonal(a):
    """Whether the matrix of `CycloNum`s a has zero entries off the diagonal."""
    return all(a[i][j].is_zero() for i in range(len(a)) for j in range(len(a)) if i != j)


def reference_linearize(g: GroupPresentation):
    """Simultaneous linearization by its own per-degree loop: at each degree
    every listed generator is conjugated by one homological step, built from
    the first generator's slice, and the product check composes the listed
    jets itself.  A failure's degree and keys are those where the conjugated
    slices first differ, and its values are read off the listed jets.
    `linearize_group` must agree with it in every field."""
    jets = g.elements
    fld, n, K = g.shape
    names = g.names
    product = jets[0]
    for j in jets[1:]:
        product = compose(product, j)
    if not product.is_identity():
        return LinearizationFailure(
            "precondition-violated",
            detail="ordered product of generators is not the identity",
        )
    first = jets[0]._linear()
    if any(j._linear() != first for j in jets):
        return LinearizationFailure(
            "precondition-violated", detail="generators do not share one linear part"
        )
    lin = jets[0].linear_matrix()
    if not reference_is_diagonal(lin):
        return LinearizationFailure(
            "precondition-violated", detail="common linear part is not diagonal"
        )
    eigenvalues = [lin[i][i] for i in range(n)]
    orders, problem = groupkit._prime_power_spectrum(eigenvalues)
    if problem is not None:
        return LinearizationFailure(
            "precondition-violated", detail=problem, eigenvalue_orders=orders
        )

    current = {j: j for j in jets}  # listed jet -> its conjugate so far
    chi = g.identity()
    zero = fld.zero()
    for k in range(2, K + 1):
        slices = [current[j].degree_slice(k) for j in jets]
        keys = sorted({key for sl in slices for key in sl}, key=term_order)
        reference = slices[0]
        offending = tuple(
            (names[idx], s, q, jets[idx].coeffs.get((s, q), zero))
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
        # the listed product is the identity, so no resonant term survives
        assert not any(is_resonant(eigenvalues, s, q) for s, q in reference), k
        if reference:
            h, h_inv = homological_step(eigenvalues, reference, g.shape)
            current = {j: compose(h_inv, compose(c, h)) for j, c in current.items()}
            chi = compose(h_inv, chi)
    linear_target = linear_jet(fld, lin, K)
    assert all(c == linear_target for c in current.values()), "linearization left nonlinear residue"
    return LinearizationSuccess(
        conjugator=chi,
        diagonal_generator=lin,
        group_order=math.lcm(*orders),
    )


@st.composite
def telescoping_cases(draw):
    """(N, n, K, exponents, pool, picks): L = diag(zeta_N^e) and a pool of
    1-3 jets phi = Id + terms.  The listing is a_i = phi_(i-1)^-1 o L o phi_i,
    i = 1..m, with phi_i = pool[picks[i - 1]] and phi_0 = phi_m; m, the
    number of picks, is a multiple of the order of L, so the ordered product
    telescopes to phi_m^-1 o L^m o phi_m = Id.  Equal picks give equal
    generators, and all picks equal give a listing of one jet."""
    N = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9]))
    n = draw(st.integers(1, 3))
    K = draw(st.integers(2, 4))
    exponents = tuple(draw(st.lists(st.integers(0, N - 1), min_size=n, max_size=n)))
    order = math.lcm(*(N // math.gcd(N, e) for e in exponents))
    keys = [(s, q) for k in range(2, K + 1) for q in iter_multiindices(n, k) for s in range(n)]
    term = st.tuples(st.sampled_from(keys), st.integers(-2, 2), st.integers(0, N - 1))
    terms = st.lists(term, min_size=1, max_size=3)
    pool = tuple(tuple(t) for t in draw(st.lists(terms, min_size=1, max_size=3)))
    m = order * draw(st.integers(1, max(1, 4 // order)))
    index = st.integers(0, len(pool) - 1)
    picks = tuple(draw(st.lists(index, min_size=m, max_size=m)))
    return N, n, K, exponents, pool, picks


def telescoping_presentation(case) -> GroupPresentation:
    N, n, K, exponents, pool, picks = case
    fld = field(N)
    lin = GermJet(n, K, fld, {(s, tuple(int(t == s) for t in range(n))): fld.zeta(e)
                              for s, e in enumerate(exponents)})

    def tangent(terms):
        coeffs = dict(GermJet.identity(fld, n, K).coeffs)
        for key, a, b in terms:
            coeffs[key] = coeffs.get(key, fld.zero()) + fld.from_rational(a) * fld.zeta(b)
        return GermJet(n, K, fld, coeffs)

    phis = [tangent(terms) for terms in pool]
    chain = [phis[p] for p in picks]  # phi_1, ..., phi_m; chain[-1] is phi_0
    return GroupPresentation(tuple(
        (f"a{i}", compose(chain[i - 2].inverse(), compose(lin, chain[i - 1])))
        for i in range(1, len(chain) + 1)))


def assert_linearize_matches_reference(g: GroupPresentation) -> str:
    """Compare every field of both outcomes, and count the normalizations
    `linearize_group` runs: one, of the first generator, on success and none
    on failure.  Return the outcome's reason ("success" on success)."""
    normalized = []
    normalize = groupkit.poincare_dulac_normalize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groupkit, "poincare_dulac_normalize",
                   lambda f: normalized.append(f) or normalize(f))
        got = linearize_group(g)
    want = reference_linearize(g)
    assert repr(got) == repr(want)
    assert got == want
    assert normalized == ([g.elements[0]] if isinstance(got, LinearizationSuccess) else [])
    return getattr(got, "reason", "success")


# one case of each outcome that the preconditions leave, reached on every run
LINEARIZE_CASES = {
    # iz conjugated by z + z^2, listed four times
    "success": (4, 1, 3, (1,), ((((0, (2,)), 1, 0),),), (0, 0, 0, 0)),
    # -z - z^2 and -z - z^2 - 2z^3 over Q: phi_1 = Id, phi_2 = z + z^2 + 2z^3
    "generators-differ": (2, 1, 3, (1,), ((), (((0, (2,)), 1, 0), ((0, (3,)), 2, 0))), (0, 1)),
}


def test_linearize_cases_reach_every_outcome():
    assert {reason: assert_linearize_matches_reference(telescoping_presentation(case))
            for reason, case in LINEARIZE_CASES.items()} == {r: r for r in LINEARIZE_CASES}


@settings(max_examples=150, deadline=None)
@given(telescoping_cases())
def test_linearize_group_matches_reference_loop(case):
    g = telescoping_presentation(case)
    assert check_product_identity(g)[0]
    assert_linearize_matches_reference(g)


def test_group_searches_run_no_fraction_arithmetic():
    """After parsing, jets and their keys stay on integers: no `fractions` code runs."""
    for name, search in (("ex-2-2", check_basic_set), ("prop-5-1-4", closure_enumerate)):
        g = corpus.load(name).presentation()
        profile = cProfile.Profile()
        result = profile.runcall(search, g)
        assert getattr(result, "verdict", getattr(result, "status", None)) in (
            "irreducible-verified", "closed")
        touched = [fn for path, _, fn in pstats.Stats(profile).stats if path == fractions.__file__]
        assert touched == [], name
