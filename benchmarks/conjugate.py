"""Seeded inputs for the conjugated-examples workload.

Each generator f of the corpus Examples 2.1-2.3 is replaced by h o f o h^-1,
where h = S1 o S2 is a product of two shears S1 = (x + p(y), y) and
S2 = (x, y + r(x)) with small rational polynomials p and r of degrees 2..K
drawn from the seed.  The inverse h^-1 = S2^-1 o S1^-1 is exact because each
shear is inverted by flipping the sign of p or r.

The composition runs in sympy, not in germforge, so no change to the
package can change the inputs it is measured on.  h is tangent to the
identity, so linear parts, orders, the product relation and conjugacy are
preserved and every field of the corpus `expected` block stays valid;
witness words given in a corpus entry stay witnesses as well.

Usage: python3 benchmarks/conjugate.py --seed N   (prints a JSON list of documents)
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy

ENTRIES = ("ex-2-1", "ex-2-2", "ex-2-3")
CORPUS_DIR = Path(__file__).resolve().parent.parent / "src" / "germforge" / "corpus"

_Z = sympy.Symbol("z")


class _Ring:
    """Truncated polynomial maps of (C^2, 0) with coefficients in Q[z]/Phi_N."""

    def __init__(self, conductor: int, truncation: int):
        self.K = truncation
        self.phi = sympy.Poly(sympy.cyclotomic_poly(conductor, _Z), _Z, domain="QQ")
        self.zero = sympy.Poly(0, _Z, domain="QQ")

    def coeff(self, value) -> sympy.Poly:
        return sympy.Poly(value, _Z, domain="QQ").rem(self.phi)

    def mul(self, a: dict, b: dict) -> dict:
        out: dict = {}
        for qa, ca in a.items():
            for qb, cb in b.items():
                q = (qa[0] + qb[0], qa[1] + qb[1])
                if sum(q) <= self.K:
                    out[q] = out.get(q, self.zero) + ca * cb
        return self._clean(out)

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for q, c in b.items():
            out[q] = out.get(q, self.zero) + c
        return self._clean(out)

    def scale(self, a: dict, c: sympy.Poly) -> dict:
        return self._clean({q: v * c for q, v in a.items()})

    def _clean(self, poly: dict) -> dict:
        out = {}
        for q, c in poly.items():
            c = c.rem(self.phi)
            if not c.is_zero:
                out[q] = c
        return out

    def compose(self, f: list, g: list) -> list:
        """f o g, both given as [component_x, component_y] of {monomial: coeff}."""
        powers: dict = {}

        def power(i: int, e: int) -> dict:
            if (i, e) not in powers:
                powers[(i, e)] = (
                    {(0, 0): self.coeff(1)} if e == 0 else self.mul(power(i, e - 1), g[i])
                )
            return powers[(i, e)]

        out = []
        for comp in f:
            acc: dict = {}
            for (ex, ey), c in comp.items():
                acc = self.add(acc, self.scale(self.mul(power(0, ex), power(1, ey)), c))
            out.append(acc)
        return out


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _shear_polys(rng: random.Random, truncation: int) -> tuple[dict, dict]:
    p = {k: _small_rational(rng) for k in range(2, truncation + 1)}
    r = {k: _small_rational(rng) for k in range(2, truncation + 1)}
    return p, r


def _shears(ring: _Ring, p: dict, r: dict, sign: int) -> tuple[list, list]:
    """(x + sign*p(y), y) and (x, y + sign*r(x))."""
    one = ring.coeff(1)
    s1 = [{(1, 0): one}, {(0, 1): one}]
    s2 = [{(1, 0): one}, {(0, 1): one}]
    for k, c in p.items():
        s1[0][(0, k)] = ring.coeff(sign * c)
    for k, c in r.items():
        s2[1][(k, 0)] = ring.coeff(sign * c)
    return s1, s2


def format_coeff(c: sympy.Poly) -> str:
    """The coefficient grammar of germforge documents, in its canonical form."""
    pieces = []
    for i, q in enumerate(reversed(c.all_coeffs())):
        q = Fraction(int(q.p), int(q.q))
        if not q:
            continue
        mag = abs(q)
        if i == 0:
            body = str(mag)
        else:
            z = "z" if i == 1 else f"z^{i}"
            body = z if mag == 1 else f"{mag}*{z}"
        pieces.append((q < 0, body))
    if not pieces:
        return "0"
    (neg, first), rest = pieces[0], pieces[1:]
    return ("-" if neg else "") + first + "".join(
        (" - " if neg else " + ") + body for neg, body in rest
    )


def _parse_coeff(ring: _Ring, text: str) -> sympy.Poly:
    expr = sympy.sympify(text.replace("^", "**"), locals={"z": _Z}, rational=True)
    return ring.coeff(expr)


def conjugate_document(raw: dict, rng: random.Random) -> dict:
    if raw.get("dimension") != 2:
        raise ValueError(f"{raw.get('name')}: shear conjugation needs dimension 2")
    ring = _Ring(raw["conductor"], raw["truncation"])
    p, r = _shear_polys(rng, ring.K)
    s1, s2 = _shears(ring, p, r, +1)
    s1_inv, s2_inv = _shears(ring, p, r, -1)
    h = ring.compose(s1, s2)
    h_inv = ring.compose(s2_inv, s1_inv)
    generators = []
    for gen in raw["generators"]:
        f = [
            {tuple(t["monomial"]): _parse_coeff(ring, t["coeff"]) for t in terms}
            for terms in gen["coords"]
        ]
        g = ring.compose(h, ring.compose(f, h_inv))
        coords = [
            [
                {"coeff": format_coeff(c), "monomial": list(q)}
                for q, c in sorted(comp.items(), key=lambda kv: (sum(kv[0]), kv[0]))
            ]
            for comp in g
        ]
        generators.append({"name": gen["name"], "coords": coords})
    doc = {key: value for key, value in raw.items() if key != "generators"}
    doc["generators"] = generators
    doc["shears"] = {
        "p": {str(k): str(c) for k, c in p.items()},
        "r": {str(k): str(c) for k, c in r.items()},
    }
    return doc


def generate(seed: int, entries=ENTRIES) -> list[dict]:
    """Conjugated copies of the given corpus entries; one h per entry, drawn from `seed`."""
    rng = random.Random(seed)
    out = []
    for name in entries:
        raw = json.loads((CORPUS_DIR / f"{name}.json").read_text())
        out.append(conjugate_document(raw, rng))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    json.dump(generate(args.seed), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
