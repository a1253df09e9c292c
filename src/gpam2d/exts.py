"""Exact arithmetic for the two symbolic small parameters.

Two flavours of "infinitesimally small, but positive" show up:

* ``Homogeneity`` -- affine expressions ``q0 + q1*kappa`` in the noise
  regularity parameter kappa, ordered as kappa -> 0+.
* ``ExtRational`` -- four-term expressions ``q0 + qh*sqrt(kb) + q1*kb +
  q2*kb**2`` in the auxiliary label parameter kb (written ``sk``/``k``/``k2``
  in text form), again ordered as kb -> 0+.

Both orders are lexicographic on the coefficient tuples, which is exactly the
sign of the expression for sufficiently small parameter values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Rat = Fraction


def _rat(x):
    """Exact rational normal form: plain int when integral, Fraction else."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, str):
        f = Fraction(x)
        return f.numerator if f.denominator == 1 else f
    raise TypeError(f"not a rational: {x!r}")


class Homogeneity(NamedTuple):
    """Value ``q0 + q1*kappa``; tuple comparison is the kappa->0+ order."""

    q0: Fraction
    q1: Fraction

    @staticmethod
    def of(q0, q1=0) -> "Homogeneity":
        return Homogeneity(_rat(q0), _rat(q1))

    def __add__(self, other):
        return Homogeneity(self.q0 + other.q0, self.q1 + other.q1)

    def __sub__(self, other):
        return Homogeneity(self.q0 - other.q0, self.q1 - other.q1)

    def shift(self, c) -> "Homogeneity":
        return Homogeneity(self.q0 + _rat(c), self.q1)

    def __str__(self):
        parts = []
        if self.q0 or not self.q1:
            parts.append(str(self.q0))
        if self.q1:
            sign = "-" if self.q1 < 0 else ("+" if parts else "")
            mag = abs(self.q1)
            term = "kappa" if mag == 1 else f"{mag}*kappa"
            parts.append(f"{sign}{term}" if sign != "+" else f"+{term}")
        return "".join(parts) if parts else "0"


class ExtRational(NamedTuple):
    """Value ``q0 + qh*sqrt(kb) + q1*kb + q2*kb^2`` with lexicographic order."""

    q0: Fraction
    qh: Fraction
    q1: Fraction
    q2: Fraction

    @staticmethod
    def of(q0, qh=0, q1=0, q2=0) -> "ExtRational":
        return ExtRational(_rat(q0), _rat(qh), _rat(q1), _rat(q2))

    def __add__(self, other):
        other = as_ext(other)
        return ExtRational(
            self.q0 + other.q0,
            self.qh + other.qh,
            self.q1 + other.q1,
            self.q2 + other.q2,
        )

    def __sub__(self, other):
        other = as_ext(other)
        return ExtRational(
            self.q0 - other.q0,
            self.qh - other.qh,
            self.q1 - other.q1,
            self.q2 - other.q2,
        )

    def __neg__(self):
        return ExtRational(-self.q0, -self.qh, -self.q1, -self.q2)

    def scale(self, c) -> "ExtRational":
        c = _rat(c)
        return ExtRational(c * self.q0, c * self.qh, c * self.q1, c * self.q2)

    def is_positive(self) -> bool:
        return self > EXT_ZERO

    def __str__(self):
        return format_ext(self)


EXT_ZERO = ExtRational.of(0)
SQRT_KB = ExtRational.of(0, 1)
KB = ExtRational.of(0, 0, 1)
KB2 = ExtRational.of(0, 0, 0, 1)

_UNIT_NAMES = (None, "sk", "k", "k2")


def as_ext(x) -> ExtRational:
    if isinstance(x, ExtRational):
        return x
    if isinstance(x, (int, Fraction, str)) and not (
        isinstance(x, str) and any(u in x for u in ("sk", "k"))
    ):
        return ExtRational.of(_rat(x))
    if isinstance(x, str):
        return parse_ext(x)
    raise TypeError(f"cannot interpret {x!r} as ExtRational")


def format_ext(x: ExtRational) -> str:
    """Render as ``q0[+qh*sk][+q1*k][+q2*k2]``, e.g. ``3-1*k``."""
    parts = [str(x.q0)]
    for coeff, unit in zip(x[1:], _UNIT_NAMES[1:]):
        if coeff:
            sign = "-" if coeff < 0 else "+"
            parts.append(f"{sign}{abs(coeff)}*{unit}")
    return "".join(parts)


def parse_ext(text: str) -> ExtRational:
    """Parse the output of :func:`format_ext` (whitespace tolerated)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty ExtRational literal")
    # Split into signed terms.
    terms: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-/*":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs = {None: Fraction(0), "sk": Fraction(0), "k": Fraction(0), "k2": Fraction(0)}
    for term in terms:
        if not term:
            continue
        unit = None
        body = term
        for u in ("k2", "sk", "k"):
            if term.endswith("*" + u):
                unit, body = u, term[: -len(u) - 1]
                break
            if term == u or term in ("+" + u, "-" + u):
                unit, body = u, term[:-len(u)] + "1"
                break
        coeffs[unit] += Fraction(body)
    return ExtRational(coeffs[None], coeffs["sk"], coeffs["k"], coeffs["k2"])
