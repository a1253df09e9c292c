import itertools
from fractions import Fraction

import pytest

from gpam2d.coeffs import DU, Poly, U, letter_g
from gpam2d.exts import Homogeneity
from gpam2d.symbols import (
    ONE,
    PRIMED,
    RHS,
    SOL,
    UNPRIMED,
    X,
    X1,
    X2,
    XI,
    XIP,
    Expansion,
    I,
    Symbol,
    check_iota_intertwines,
    generate,
    homogeneity,
    iota,
    lift_nonlinearity,
    mul,
    product,
    u_expansion,
)


def hom(q0, q1):
    return Homogeneity.of(Fraction(q0), Fraction(q1))


# Expected symbol sets, derived by hand from the inductive rules: products
# tau_1...tau_k*noise over solution-sector factors, kept while the total
# homogeneity stays below the cap (lexicographically as kappa -> 0+).
UNPRIMED_RHS = {
    "Xi",
    "X1*Xi",
    "X2*Xi",
    "I(Xi)*Xi",
    "X1*I(Xi)*Xi",
    "X2*I(Xi)*Xi",
    "I(X1*Xi)*Xi",
    "I(X2*Xi)*Xi",
    "I(Xi)*I(Xi)*Xi",
    "I(I(Xi)*Xi)*Xi",
    "I(Xi)*I(Xi)*I(Xi)*Xi",
    "I(Xi)*I(I(Xi)*Xi)*Xi",
    "I(I(I(Xi)*Xi)*Xi)*Xi",
    "I(I(Xi)*I(Xi)*Xi)*Xi",
}

UNPRIMED_SOL = {
    "One",
    "X1",
    "X2",
    "I(Xi)",
    "I(X1*Xi)",
    "I(X2*Xi)",
    "I(I(Xi)*Xi)",
    "I(I(Xi)*I(Xi)*Xi)",
    "I(I(I(Xi)*Xi)*Xi)",
}

PRIMED_RHS = {"Xi'", "X1*Xi'", "X2*Xi'", "I(Xi')*Xi'"}
PRIMED_SOL = {"One", "X1", "X2", "I(Xi')"}

# Every generated symbol, looked up by its printed form.
TABLE = {
    str(s): s
    for structure in (UNPRIMED, PRIMED)
    for side in (RHS, SOL)
    for s in generate(structure, side)
}
S = TABLE.__getitem__


class TestGenerate:
    def test_unprimed_rhs_matches_model_list(self):
        got = {str(s) for s in generate(UNPRIMED, RHS)}
        assert got == UNPRIMED_RHS

    def test_unprimed_sol(self):
        got = {str(s) for s in generate(UNPRIMED, SOL)}
        assert got == UNPRIMED_SOL
        assert {"One", "X1", "X2"} <= got
        assert {"I(Xi)", "I(X1*Xi)", "I(I(Xi)*Xi)"} <= got

    def test_primed_sets(self):
        assert {str(s) for s in generate(PRIMED, RHS)} == PRIMED_RHS
        assert {str(s) for s in generate(PRIMED, SOL)} == PRIMED_SOL

    def test_generate_idempotent(self):
        # Re-running the inductive step on the truncated output adds nothing:
        # every product of solution factors times the noise that satisfies the
        # cap is already present.
        rhs = generate(UNPRIMED, RHS)
        sol = sorted(
            (s for s in generate(UNPRIMED, SOL) if s != ONE), key=Symbol.sort_key
        )
        for size in range(1, 4):
            for combo in itertools.combinations_with_replacement(sol, size):
                total = homogeneity(XI)
                for f in combo:
                    total = total + homogeneity(f)
                if not total < Homogeneity.of(0, 1):
                    continue
                try:
                    term = product(list(combo) + [XI])
                except ValueError:
                    continue
                assert term in rhs


class TestHomogeneity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Xi", hom(Fraction(-3, 2), -1)),
            ("One", hom(0, 0)),
            ("I(Xi)*Xi", hom(-1, -2)),
            ("X1", hom(1, 0)),
            ("I(Xi)", hom(Fraction(1, 2), -1)),
            ("I(X1*Xi)*Xi", hom(0, -2)),
            ("I(Xi)*I(I(Xi)*Xi)*Xi", hom(0, -4)),
        ],
    )
    def test_values(self, text, expected):
        assert homogeneity(S(text)) == expected

    def test_primed_noise(self):
        assert homogeneity(XIP, PRIMED) == hom(-1, -2)

    def test_additive_and_shift_rules_exhaustive(self):
        for structure in (UNPRIMED, PRIMED):
            for s in generate(structure, RHS) | generate(structure, SOL):
                if s.kind == "prod":
                    total = hom(0, 0)
                    for f in s.factors:
                        total = total + homogeneity(f, structure)
                    assert homogeneity(s, structure) == total
                if s.kind == "i":
                    assert homogeneity(s, structure) == homogeneity(
                        s.child, structure
                    ).shift(2)


class TestIota:
    def test_table(self):
        assert iota(S("I(Xi)*Xi")) == XIP
        assert iota(ONE) == ONE
        assert iota(S("I(Xi)*I(Xi)*Xi")) is None
        assert iota(S("I(I(Xi)*Xi)")) == I(XIP)
        assert iota(S("X1*I(Xi)*Xi")) == mul(X1, XIP)
        assert iota(S("I(X2*Xi)*Xi")) == mul(X2, XIP)
        assert iota(S("I(I(I(Xi)*Xi)*Xi)*Xi")) == S("I(Xi')*Xi'")
        assert iota(S("I(Xi)*I(I(Xi)*Xi)*Xi")) == S("I(Xi')*Xi'")
        assert iota(XI) is None

    def test_codomain_and_homogeneity_shift(self):
        primed_rhs = generate(PRIMED, RHS)
        allowed_shifts = {hom(0, 0), hom(Fraction(1, 2), -1)}
        for tau in generate(UNPRIMED, RHS):
            image = iota(tau)
            if image is None:
                continue
            assert image in primed_rhs
            shift = homogeneity(image, PRIMED) - homogeneity(tau, UNPRIMED)
            assert shift in allowed_shifts


# The eleven-term lifted right-hand side, with axis families written out.
HATG = {
    "Xi": "g",
    "I(Xi)*Xi": "g*g'",
    "I(I(Xi)*Xi)*Xi": "g*g'^2",
    "I(Xi)*I(Xi)*Xi": "1/2*g^2*g''",
    "X1*Xi": "du*g'",
    "X2*Xi": "du*g'",
    "I(I(I(Xi)*Xi)*Xi)*Xi": "g*g'^3",
    "I(I(Xi)*I(Xi)*Xi)*Xi": "1/2*g^2*g'*g''",
    "I(Xi)*I(Xi)*I(Xi)*Xi": "1/6*g^3*g'''",
    "I(Xi)*I(I(Xi)*Xi)*Xi": "g^2*g'*g''",
    "I(X1*Xi)*Xi": "du*g'^2",
    "I(X2*Xi)*Xi": "du*g'^2",
    "X1*I(Xi)*Xi": "du*g*g''",
    "X2*I(Xi)*Xi": "du*g*g''",
}

HATH = {
    "Xi'": "h",
    "I(Xi')*Xi'": "g*g'*h'",
    "X1*Xi'": "du*h'",
    "X2*Xi'": "du*h'",
}


class TestLift:
    def test_hat_g_reproduced_coefficient_by_coefficient(self):
        lifted = lift_nonlinearity(u_expansion(), "g", UNPRIMED)
        got = {str(s): str(p) for s, p in lifted}
        assert got == HATG

    def test_hat_h_three_terms(self):
        v = u_expansion().apply_iota()
        lifted = lift_nonlinearity(v, "h", PRIMED)
        got = {str(s): str(p) for s, p in lifted}
        assert got == HATH

    def test_trivial_expansion_lifts_to_noise_only(self):
        exp = Expansion()
        exp.add(ONE, Poly.letter(U))
        lifted = lift_nonlinearity(exp, "h", UNPRIMED)
        assert {str(s): str(p) for s, p in lifted} == {"Xi": "h"}

    def test_rejects_missing_trace(self):
        exp = Expansion()
        exp.add(I(XI), Poly.letter(letter_g(0)))
        with pytest.raises(ValueError):
            lift_nonlinearity(exp, "g", UNPRIMED)

    @pytest.mark.parametrize("structure, letter", [(UNPRIMED, "g"), (PRIMED, "h")])
    def test_lift_stays_inside_the_generated_set(self, structure, letter):
        # The lift and generate share one truncation rule, so every lifted
        # symbol is a right-hand-side symbol of its structure.
        u = u_expansion() if structure == UNPRIMED else u_expansion().apply_iota()
        lifted = lift_nonlinearity(u, letter, structure)
        assert lifted.terms
        assert set(lifted.terms) <= generate(structure, RHS)


class TestIotaIntertwines:
    def test_solution_expansion(self):
        assert check_iota_intertwines(u_expansion())

    def test_trace_only_cannot_intertwine(self):
        # With no higher terms the unprimed lift is a bare-noise term, which
        # the structure change annihilates, while the primed lift is not zero.
        exp = Expansion()
        exp.add(ONE, Poly.letter(U))
        assert not check_iota_intertwines(exp)

    def test_mutated_expansion_fails(self):
        exp = u_expansion()
        exp.terms[S("I(I(Xi)*Xi)")] = Poly.letter(letter_g(0))
        assert not check_iota_intertwines(exp)


class TestGrammar:
    def test_auto_canonicalisation(self):
        assert str(mul(XI, I(XI))) == "I(Xi)*Xi"
        assert product([ONE, X1]) == X1

    @pytest.mark.parametrize(
        "build",
        [lambda: X(3), lambda: product([XI, XI]), lambda: product([X1, X1]),
         lambda: product([X1, X2])],
        ids=["X3", "Xi*Xi", "X1*X1", "X1*X2"],
    )
    def test_rejects(self, build):
        with pytest.raises(ValueError):
            build()
