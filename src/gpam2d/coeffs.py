"""Formal coefficient algebra for modelled-distribution expansions.

Coefficients are polynomials over Q in uninterpreted letters: the trace
``u``, the formal gradient ``du``, and the derivative towers ``g, g', g'',
...`` and ``h, h', ...``.  Nothing is ever evaluated; the only nontrivial
operation is formal differentiation with respect to the argument of the
nonlinearity, which sends ``g^(k)`` to ``g^(k+1)`` (and likewise for ``h``)
by the product rule.
"""

from __future__ import annotations

from fractions import Fraction

# A letter is ('u',), ('du',), ('g', k) or ('h', k); a monomial is a sorted
# tuple of (letter, power); a Poly maps monomials to rational coefficients.
Letter = tuple


def letter_g(order: int = 0) -> Letter:
    return ("g", order)


def letter_h(order: int = 0) -> Letter:
    return ("h", order)


U = ("u",)
DU = ("du",)


def _letter_str(letter: Letter) -> str:
    if letter in (U, DU):
        return letter[0]
    name, order = letter
    return name + "'" * order


def _diff_letter(letter: Letter):
    if letter in (U, DU):
        return None
    name, order = letter
    return (name, order + 1)


class Poly:
    """Immutable rational polynomial in the coefficient letters."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {m: Fraction(c) for m, c in (terms or {}).items() if c}
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def letter(letter: Letter, c=1) -> "Poly":
        return Poly({((letter, 1),): Fraction(c)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly({m: c * k for m, k in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                counts = dict(m1)
                for letter, p in m2:
                    counts[letter] = counts.get(letter, 0) + p
                mono = tuple(sorted(counts.items()))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    def diff(self) -> "Poly":
        """Formal d/du: product rule over letters, g^(k) -> g^(k+1)."""
        out: dict = {}
        for mono, coeff in self.terms.items():
            for i, (letter, power) in enumerate(mono):
                dlet = _diff_letter(letter)
                if dlet is None:
                    continue
                counts = dict(mono)
                counts[letter] = power - 1
                if counts[letter] == 0:
                    del counts[letter]
                counts[dlet] = counts.get(dlet, 0) + 1
                new = tuple(sorted(counts.items()))
                out[new] = out.get(new, Fraction(0)) + coeff * power
        return Poly(out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.terms.items():
            factors = []
            if coeff != 1 or not mono:
                factors.append(str(coeff))
            for letter, power in mono:
                s = _letter_str(letter)
                factors.append(s if power == 1 else f"{s}^{power}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__

