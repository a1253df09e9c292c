"""Decorated-tree symbol algebra for the two regularity structures.

Symbols are terms built from the grammar ``One | X1 | X2 | Xi | Xi' |
I(sym) | sym*sym`` with a commutative, associative product.  The unprimed
structure carries the rough noise ``Xi`` of homogeneity ``-3/2 - kappa``;
the primed structure carries ``Xi'`` of homogeneity ``-1 - 2*kappa``.
kappa itself is never given a number: all comparisons are lexicographic in
(constant, kappa-coefficient), i.e. decided as kappa -> 0+.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod
from typing import Iterable, Optional

from .coeffs import DU, Poly, U, letter_g, letter_h
from .exts import Homogeneity

UNPRIMED = "unprimed"
PRIMED = "primed"
RHS = "RHS"
SOL = "sol"

# Homogeneity thresholds: |tau| < kappa on the RHS, |tau| < 3/2 + 2*kappa
# for the solution sector.
RHS_CAP = Homogeneity.of(0, 1)
SOL_CAP = Homogeneity.of(Fraction(3, 2), 2)


@dataclass(frozen=True)
class Symbol:
    """A canonical-form term; compare and hash by structure."""

    kind: str  # 'one' | 'x' | 'xi' | 'xip' | 'i' | 'prod'
    axis: int = 0
    child: Optional["Symbol"] = None
    factors: tuple = field(default_factory=tuple)

    def sort_key(self):
        # Products print polynomial factors first, then planted trees, then
        # the noise, matching the usual way the terms are written out.
        if self.kind == "i":
            return (1, self.child.sort_key())
        if self.kind == "prod":
            return (3, tuple(f.sort_key() for f in self.factors))
        return (2 if self in _STRUCTURE_OF else 0, _RANK[self])

    def __str__(self):
        if self.kind == "i":
            return f"I({self.child})"
        if self.kind == "prod":
            return "*".join(str(f) for f in self.factors)
        return _TEXT[self]

    __repr__ = __str__


ONE = Symbol("one")
XI = Symbol("xi")
XIP = Symbol("xip")
X1 = Symbol("x", axis=1)
X2 = Symbol("x", axis=2)

# The leaves of the grammar, in the order they print within a product.
LEAVES = {"One": ONE, "X1": X1, "X2": X2, "Xi": XI, "Xi'": XIP}
_TEXT = {sym: text for text, sym in LEAVES.items()}
_RANK = {sym: rank for rank, sym in enumerate(LEAVES.values())}
_HOMOGENEITY = {
    ONE: Homogeneity.of(0),
    X1: Homogeneity.of(1),
    X2: Homogeneity.of(1),
    XI: Homogeneity.of(Fraction(-3, 2), -1),
    XIP: Homogeneity.of(-1, -2),
}
# Each structure carries one noise, which lives in no other structure.
NOISE = {UNPRIMED: XI, PRIMED: XIP}
_STRUCTURE_OF = {noise: structure for structure, noise in NOISE.items()}


def X(axis: int) -> Symbol:
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return X1 if axis == 1 else X2


def I(child: Symbol) -> Symbol:
    return Symbol("i", child=child)


def product(factors: Iterable[Symbol]) -> Symbol:
    """Canonical commutative product: flat, sorted, One dropped.

    Rejects combinations outside the two structures: more than one noise
    at the root, or repeated/multiple polynomial decorations (no powers of
    ``X_i`` ever occur).
    """
    flat: list[Symbol] = []
    for f in factors:
        if f.kind == "prod":
            flat.extend(f.factors)
        elif f.kind != "one":
            flat.append(f)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    noises = sum(1 for f in flat if f in _STRUCTURE_OF)
    if noises > 1:
        raise ValueError("at most one noise decoration per product")
    polys = sum(1 for f in flat if f.kind == "x")
    if polys > 1:
        raise ValueError("higher polynomial decorations are not in the structure")
    flat.sort(key=Symbol.sort_key)
    return Symbol("prod", factors=tuple(flat))


def mul(a: Symbol, b: Symbol) -> Symbol:
    return product([a, b])


def homogeneity(tau: Symbol, structure: str = UNPRIMED) -> Homogeneity:
    """Recursive |tau|: leaf values, +2 under I, additive on products."""
    if tau.kind == "i":
        return homogeneity(tau.child, structure).shift(2)
    if tau.kind == "prod":
        return sum((homogeneity(f, structure) for f in tau.factors), Homogeneity.of(0))
    if tau in _STRUCTURE_OF and NOISE.get(structure) != tau:
        raise ValueError(f"{tau} lives in the {_STRUCTURE_OF[tau]} structure")
    return _HOMOGENEITY[tau]


def _rhs_products(factors: list, size: int, structure: str):
    """The right-hand-side products of ``size`` factors with the noise.

    Yields ``(combo, term)`` for each multiset ``combo`` of indices into
    ``factors`` whose product with the structure's noise exists and obeys
    the truncation ``|tau| < kappa``.
    """
    if structure not in NOISE:
        raise ValueError(f"structure must be {UNPRIMED!r} or {PRIMED!r}")
    noise = NOISE[structure]
    base = homogeneity(noise, structure)
    homs = [homogeneity(f, structure) for f in factors]
    for combo in combinations_with_replacement(range(len(factors)), size):
        if not sum((homs[i] for i in combo), base) < RHS_CAP:
            continue
        try:
            term = product([factors[i] for i in combo] + [noise])
        except ValueError:
            continue
        yield combo, term


def generate(structure: str, side: str) -> frozenset:
    """Fixed point of the inductive construction, truncated by homogeneity.

    RHS sets collect products ``tau_1...tau_k * noise`` over solution-sector
    factors; solution sets are the polynomials plus ``I`` of the RHS.
    """
    if side not in (RHS, SOL):
        raise ValueError(f"side must be {RHS!r} or {SOL!r}")
    rhs: set[Symbol] = set()
    sol: set[Symbol] = set()
    while True:
        gens = sorted((s for s in sol if s != ONE), key=Symbol.sort_key)
        new_rhs = set(rhs)
        for size in range(8):
            terms = [term for _, term in _rhs_products(gens, size, structure)]
            new_rhs.update(terms)
            if not terms and size > 1:
                break
        new_sol = {ONE, X1, X2}
        for tau in new_rhs:
            planted = I(tau)
            if homogeneity(planted, structure) < SOL_CAP:
                new_sol.add(planted)
        if new_rhs == rhs and new_sol == sol:
            break
        rhs, sol = new_rhs, new_sol
    return frozenset(rhs if side == RHS else sol)


# The structure-change map: the only symbols with nonzero image.
def _iota_table() -> dict:
    xiixi = mul(I(XI), XI)
    table = {
        ONE: ONE,
        X1: X1,
        X2: X2,
        xiixi: XIP,
        I(xiixi): I(XIP),
    }
    for axis in (1, 2):
        table[product([X(axis), I(XI), XI])] = mul(X(axis), XIP)
        table[mul(I(mul(X(axis), XI)), XI)] = mul(X(axis), XIP)
    # The two four-noise trees share their image.
    tall = mul(I(mul(I(xiixi), XI)), XI)
    branched = product([I(XI), I(xiixi), XI])
    table[tall] = mul(I(XIP), XIP)
    table[branched] = mul(I(XIP), XIP)
    return table


_IOTA = _iota_table()


def iota(tau: Symbol) -> Optional[Symbol]:
    """Structure-change map into the primed structure; None encodes zero."""
    return _IOTA.get(tau)


class Expansion:
    """Finite formal sum ``sum coeff(tau) * tau`` with Poly coefficients."""

    def __init__(self, terms: dict | None = None):
        self.terms: dict[Symbol, Poly] = {
            s: p for s, p in (terms or {}).items() if p
        }

    def __eq__(self, other):
        return isinstance(other, Expansion) and self.terms == other.terms

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda kv: kv[0].sort_key()))

    def add(self, sym: Symbol, coeff: Poly) -> None:
        cur = self.terms.get(sym, Poly.zero()) + coeff
        if cur:
            self.terms[sym] = cur
        else:
            self.terms.pop(sym, None)

    def apply_iota(self) -> "Expansion":
        out = Expansion()
        for sym, coeff in self.terms.items():
            image = iota(sym)
            if image is not None:
                out.add(image, coeff)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        return "  +  ".join(f"({p}) {s}" for s, p in self)

    __repr__ = __str__


def lift_nonlinearity(expansion: Expansion, h, structure: str) -> Expansion:
    """Truncated Taylor lift of a nonlinearity against the structure's noise.

    ``h`` may be the letter name ``'g'``/``'h'`` or an explicit Poly (e.g.
    ``g'*g`` for the effective nonlinearity of the limit equation).  Products
    that leave the structure after multiplication by the noise are dropped.
    """
    if isinstance(h, str):
        h = Poly.letter(letter_g(0) if h == "g" else letter_h(0))
    if ONE not in expansion.terms:
        raise ValueError("expansion has no One component to expand around")
    syms = sorted((s for s in expansion.terms if s != ONE), key=Symbol.sort_key)

    # h^(ell)/ell! sums over ordered ell-tuples; a multiset with multiplicities
    # k_i stands for ell!/prod k_i! of them, so it weighs 1/prod k_i!.
    out = Expansion()
    deriv = h
    for ell in range(6):
        if ell:
            deriv = deriv.diff()
        terms = list(_rhs_products(syms, ell, structure)) if deriv else []
        if not terms:
            break
        for combo, term in terms:
            coeff = deriv
            for i in combo:
                coeff = coeff * expansion.terms[syms[i]]
            weight = Fraction(1, prod(factorial(combo.count(i)) for i in set(combo)))
            out.add(term, coeff.scale(weight))
    return out


def check_iota_intertwines(expansion: Expansion) -> bool:
    """Does the structure change commute with the nonlinearity lift?

    Compares iota applied termwise to the lift of ``g`` against the lift of
    the composite letter word ``g'*g`` on the image expansion.
    """
    lifted = lift_nonlinearity(expansion, "g", UNPRIMED)
    h_eff = Poly.letter(letter_g(1)) * Poly.letter(letter_g(0))
    image = lift_nonlinearity(expansion.apply_iota(), h_eff, PRIMED)
    return lifted.apply_iota() == image


def u_expansion() -> Expansion:
    """The solution-sector expansion driving the nonlinearity lift.

    The ``I(I(Xi)*I(Xi)*Xi)`` coefficient is ``g''*g^2/2`` (the value forced
    by consistency with the lifted right-hand side).
    """
    g = Poly.letter(letter_g(0))
    g1 = Poly.letter(letter_g(1))
    g2 = Poly.letter(letter_g(2))
    du = Poly.letter(DU)
    xiixi = mul(I(XI), XI)
    exp = Expansion()
    exp.add(ONE, Poly.letter(U))
    exp.add(I(XI), g)
    exp.add(I(xiixi), g1 * g)
    exp.add(X1, du)
    exp.add(X2, du)
    exp.add(I(mul(I(xiixi), XI)), g1 * g1 * g)
    exp.add(I(product([I(XI), I(XI), XI])), (g2 * g * g).scale(Fraction(1, 2)))
    exp.add(I(mul(X1, XI)), g1 * du)
    exp.add(I(mul(X2, XI)), g1 * du)
    return exp

