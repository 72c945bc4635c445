import cProfile
import fractions
import json
import os
import pstats
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germforge import cli, corpus, groupkit, jets, moebius
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
    slice_morphism_report,
)
from germforge.jets import GermJet, compose, conjugate, invert, power

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
    half = groupkit.MAX_WORD_LETTERS // 2
    at_limit = f"f^{half}*g^-{groupkit.MAX_WORD_LETTERS - half}"
    assert sum(abs(e) for _, e in parse_word(at_limit)) == groupkit.MAX_WORD_LETTERS
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


def test_basic_set_5_1_1b_unresolved_with_disproofs():
    at = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    bt = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [0, 1, 1]])
    ct = linear_jet(F1, [[1, 0, 0], [0, 1, 0], [-1, -1, 1]])
    report = check_basic_set(GroupPresentation((("At", at), ("Bt", bt), ("Ct", ct))))
    assert report.product_is_identity
    assert report.verdict == "condition-b-unresolved"
    assert all(r.status == "disproved" for r in report.conjugacy.values())


def test_basic_set_5_1_4_verified():
    report = check_basic_set(prop_514_presentation())
    assert report.verdict == "irreducible-verified"


# --- the lazy witness ball ------------------------------------------------------------


JET_ENTRIES = [name for name in corpus.ENTRIES if corpus.load(name).generators]


def eager_ball(g, bound):
    ident = g.identity()
    return bfs_ball(ident, groupkit._distinct_letters(g), bound, type(ident).compose)


def reference_answer(g, i, j, bound, ball):
    """Pair (i, j) with every search scanning the full depth-`bound` ball."""
    fi, fj = g.elements[i], g.elements[j]
    # the depth-0 ball, the identity alone, answers nothing a screen leaves open
    screened = find_conjugacy_witness(g, i, j, 0)
    if screened.status != "unresolved":
        return screened
    for w, word in ball:
        if w.compose(fj) == fi.compose(w):
            return WitnessResult("witness", word=format_word(word))
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

    def stop(w):
        seen.append(w)
        pending[:] = [(fi, fj) for fi, fj in pending if not groupkit._conjugates(w, fi, fj)]
        return not pending

    lazy = bfs_ball(g.identity(), groupkit._distinct_letters(g), 6, type(g.identity()).compose,
                    stop=stop)
    assert lazy == full[: len(lazy)] and len(lazy) < len(full)
    assert seen == [w for w, _ in lazy[1:]]


def counting(monkeypatch, name, home=jets):
    """Count calls of <home>.<name> (`jets` or `moebius`); the `GermJet` and
    `MoebiusMap` methods call it through the module."""
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
f, g = [x for _, x in corpus.load("ex-2-2").generators[:2]]
m, n = [x for _, x in corpus.load("moebius-rotation-5").moebius_generators[:2]]
operations = ("germforge.jets", "germforge.moebius")
before = [k for k in operations if k in sys.modules]
results = [repr(eval(call)) for call in sys.argv[1:]]
after = [k for k in operations if k in sys.modules]
print(json.dumps([before, results, after]))
"""


def corpus_elements():
    f, g = [x for _, x in corpus.load("ex-2-2").generators[:2]]
    m, n = [x for _, x in corpus.load("moebius-rotation-5").moebius_generators[:2]]
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

    f, g, m, n = corpus_elements()  # fresh objects: `order()` is cached per element
    composed, inverted, ordered, char_polys = (
        counting(monkeypatch, name) for name in ("compose", "invert", "germ_order", "_char_poly"))
    moebius_composed, moebius_ordered = (
        counting(monkeypatch, name, moebius) for name in ("moebius_compose", "moebius_order"))
    f.compose(g)
    assert composed == [(f, g)]
    f.inverse()  # `invert` corrects each degree through `jets.compose`
    f.conjugacy_invariant()
    assert (inverted, char_polys) == ([(f,)], [(f.field, f.n, f._linear())])
    m.compose(n)
    assert moebius_composed == [(m, n)]
    assert m.order().order == 5 and moebius_ordered == [(m,)]
    assert len(moebius_composed) > 1  # the order's power test composes through the module
    composed.clear()
    assert f.order().order > 1 and ordered == [(f,)]
    assert composed  # `germ_order` takes a jet power through `jets.compose`


def test_basic_set_compose_count_ex_2_2(monkeypatch):
    g = corpus.load("ex-2-2").presentation()
    calls = counting(monkeypatch, "compose")
    assert check_basic_set(g).verdict == "irreducible-verified"
    assert len(calls) <= 200


@pytest.mark.parametrize("entry", ["ex-2-2", "ex-2-3", "prop-5-1-3", "prop-5-1-4"])
def test_basic_set_orders_each_distinct_generator_once(monkeypatch, entry):
    g = corpus.load(entry).presentation()
    calls = counting(monkeypatch, "germ_order")
    check_basic_set(g)
    assert len(calls) == len(set(g.elements))


def test_basic_set_screens_each_distinct_pair_once(monkeypatch):
    # `GermJet.conjugacy_invariant` and `char_poly` both run `_char_poly`
    calls = counting(monkeypatch, "_char_poly")
    for entry in ("ex-2-1", "ex-2-2", "ex-2-3"):
        report = cli.run_corpus_entry(
            entry, groupkit.DEFAULT_WITNESS_BOUND, groupkit.DEFAULT_CLOSURE_CAP, None
        )
        assert report["matched"]
    # ex-2-2 and ex-2-3 each leave three distinct pairs to the characteristic-polynomial
    # screen, among three distinct generators whose invariants are memoized;
    # ex-2-1 supplies its witnesses
    assert len(calls) == 6


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
    # 36 listed generators, 35 products, composed by the first call alone
    assert inside == [35, 0]


def test_corpus_entry_inverts_and_screens_each_distinct_generator_once(monkeypatch):
    inverts = counting(monkeypatch, "invert")
    invariants = counting(monkeypatch, "_char_poly")
    report = cli.run_corpus_entry(
        "prop-5-1-4", groupkit.DEFAULT_WITNESS_BOUND, groupkit.DEFAULT_CLOSURE_CAP, None
    )
    assert report["matched"]
    distinct = set(corpus.load("prop-5-1-4").presentation().elements)
    assert len(inverts) == len(invariants) == len(distinct) == 4


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
    # a finite group of 24 elements: the cap, not a verdict, ends the BFS
    res = closure_enumerate(corpus.load("prop-5-1-2-abelian").presentation(), cap=10)
    assert res.status == "cap-exceeded"
    assert res.count == 11
    assert res.elements is None and res.word is None and res.table is None


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


def corpus_presentation(entry):
    doc = corpus.load(entry)
    return doc.presentation() if doc.generators else GroupPresentation(doc.moebius_generators)


@pytest.mark.parametrize("entry", corpus.ENTRIES)
def test_corpus_closure_verdicts(entry):
    pres = corpus_presentation(entry)
    res = closure_enumerate(pres)
    assert (res.status, res.count, res.word) == CORPUS_CLOSURES[entry]
    if res.status == "infinite":
        assert res.elements is None and res.certificate and res.table is None
        assert evaluate_word(pres, res.word).order().is_infinite
    else:
        assert len(res.elements) == res.count and res.certificate is None
        # closed: the BFS frontier emptied, so every element met every letter
        assert len(res.table.products) == res.count * len(res.table.letters)


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
        pres, order = corpus_presentation(entry), CORPUS_CLOSURES[entry][1]
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
    pres = small_presentations().get(name) or corpus_presentation(name)
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
    tangent = closure_enumerate(corpus_presentation("ex-2-1"))
    assert tangent.certificate == "tangent to the identity with a nonzero nonlinear slice"
    generator = closure_enumerate(corpus_presentation("prop-5-1-1a"))
    assert "every finite order divides 12" in generator.certificate


def test_finite_closure_orders_only_its_generators(monkeypatch):
    pres = corpus_presentation("prop-5-1-4")
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


# --- slice morphisms -----------------------------------------------------------------------


def test_resonant_character_example():
    lam = F1.from_rational(-1)
    f = jet(F1, 1, 3, [(0, (1,), lam), (0, (3,), F1.one())])
    g = jet(F1, 1, 3, [(0, (1,), lam), (0, (3,), F1.from_rational(2))])
    pres = GroupPresentation((("f", f), ("g", g)))
    entries = slice_morphism_report(pres, 3)
    entry = next(e for e in entries if e.resonant)
    assert entry.phi_values == (F1.from_rational(-1), F1.from_rational(-2))
    assert entry.additive_on_pairs
    assert entry.phi_sum == F1.from_rational(-3)
    assert not entry.product_forces_zero
    # direct cross-check of the composed coefficient
    comp = compose(f, g)
    assert comp.coeff(0, (3,)) == F1.from_rational(-3)


def test_all_linear_gives_zero_characters():
    lam = F3.zeta()
    a = linear_jet(F3, [[lam, 0], [0, lam]], K=2)
    pres = GroupPresentation((("a", a), ("b", a)))
    for entry in slice_morphism_report(pres, 2):
        if entry.resonant:
            assert all(v.is_zero() for v in entry.phi_values)
        else:
            assert all(t.is_zero() for t in entry.family.translations)


def test_sextuple_nonresonant_family():
    entries = slice_morphism_report(ex21_presentation(), 2)
    lam = F3.zeta()
    entry = next(e for e in entries if e.coord == 0 and e.monomial == (0, 2))
    assert not entry.resonant
    # eta = lambda_1 / lambda^Q = -1/lam^2, of order 6
    assert entry.family.multiplier == -(lam ** 2).inverse()
    assert entry.multiplier_order == 6
    # translations beta_i = a_i / lambda^Q with lambda^Q = lam^2
    want = (
        F3.zero(), F3.zero(), F3.zero(), F3.zero(),
        (lam ** 2).inverse(), F3.one(),
    )
    assert entry.family.translations == want
    # mixed-prime spectrum: no nominal single-prime order to compare against
    assert entry.nominal_order is None


def test_slice_morphism_preconditions():
    lam = F3.zeta()
    a = linear_jet(F3, [[lam, 0], [0, 1]], K=3)
    b = jet(F3, 2, 3, [(0, (1, 0), lam), (1, (0, 1), F3.one()), (0, (0, 2), F3.one())])
    with pytest.raises(ValueError):
        slice_morphism_report(GroupPresentation((("a", a), ("b", b))), 3)


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
        if all((d ** 1).is_one() for d in diag):
            diag[0] = fld.zeta(1)
        rows = [[diag[r] if r == c else fld.zero() for c in range(n)] for r in range(n)]
        a = GermJet.from_linear(tuple(tuple(r) for r in rows), K)
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
        linear_target = GermJet.from_linear(f.linear_matrix(), K)
        for j in pres.elements:
            assert conjugate(out.conjugator, j) == linear_target


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
