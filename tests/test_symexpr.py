import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mclcheck import symexpr
from mclcheck.symexpr import (
    FLAG_BAD_ARG,
    FLAG_DEGREE_CAP,
    FLAG_MONOTONICITY,
    FLAG_NO_RANGE,
    FLAG_SUM_GUARD,
    SYM_ZERO,
    ZERO,
    LinConstraint,
    Poly,
    SymExpr,
    VerdictKind,
    add,
    constraint_verdict,
    entails_leq,
    integer_valued,
    integral,
    max_over,
    poly_to_str,
    substitute,
    sum_over,
    sym_max,
    symexpr_to_str,
)

from helpers import brute_max, brute_sum, random_poly, reference_arithmetic

N = Poly.var("n")
M = Poly.var("m")
I = Poly.var("i")
C1 = Poly.const(1)


def interval(var, lo, hi):
    """The range var = lo .. hi as sum_over and max_over take it."""
    lo = lo if isinstance(lo, Poly) else Poly.const(lo)
    hi = hi if isinstance(hi, Poly) else Poly.const(hi)
    return var, lo, hi


# --- polynomial basics -----------------------------------------------------

def test_poly_canonical_equality():
    a = (N + C1) * (N - C1)
    b = N * N - C1
    assert a == b
    assert hash(a) == hash(b)


def test_poly_eval_exact_fractions():
    p = (N * N + N).scale(Fraction(1, 2))
    assert p.eval({"n": 7}) == 28
    assert p.eval({"n": 0}) == 0


def test_split_on_groups_by_exponent():
    p = N * N * M + N * 3 + M
    parts = p.split_on("n")
    assert parts[2] == M
    assert parts[1] == Poly.const(3)
    assert parts[0] == M


# --- dominance pruning -----------------------------------------------------

def test_pruning_drops_dominated_alternative():
    e = sym_max(SymExpr.of(N), SymExpr.of(N - Poly.const(2)))
    assert e.alts == (N,)


def test_pruning_keeps_incomparable_alternatives():
    e = sym_max(SymExpr.of(N + Poly.const(3)), SymExpr.of(M * 2))
    assert len(e.alts) == 2
    assert symexpr_to_str(e) == "max(n + 3, 2*m)"


def test_zero_dominated_by_nonneg_poly():
    half = (N * N + N).scale(Fraction(1, 2))
    e = sym_max(SymExpr.of(half), SymExpr.of(Poly()))
    assert e.alts == (half,)


# --- add / max / substitute agree with evaluation --------------------------

small_polys = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-4, 4)),
    min_size=1, max_size=4,
).map(lambda triples: Poly.from_dict(
    {tuple(k for k in ((("n", a),) if a else ()) + ((("m", b),) if b else ())): Fraction(c)
     for a, b, c in triples for _ in [0]}
))


@settings(max_examples=120, deadline=None)
@given(small_polys, small_polys, st.integers(0, 6), st.integers(0, 6))
def test_add_is_pointwise_sum(p, q, n, m):
    env = {"n": n, "m": m}
    got = add(SymExpr.of(p), SymExpr.of(q)).eval(env)
    assert got == p.eval(env) + q.eval(env)


@settings(max_examples=120, deadline=None)
@given(small_polys, small_polys, st.integers(0, 6), st.integers(0, 6))
def test_sym_max_is_pointwise_max(p, q, n, m):
    env = {"n": n, "m": m}
    got = sym_max(SymExpr.of(p), SymExpr.of(q)).eval(env)
    assert got == max(p.eval(env), q.eval(env))


@settings(max_examples=100, deadline=None)
@given(small_polys, st.integers(0, 5), st.integers(0, 5))
def test_substitute_agrees_with_eval(p, n, k):
    bound = substitute(SymExpr.of(p), {"m": N + Poly.const(k)})
    assert bound.eval({"n": n}) == p.eval({"n": n, "m": n + k})


# --- the integer normal form ------------------------------------------------
#
# A coefficient is an int when integral and a Fraction otherwise; every
# operation must agree with plain Fraction arithmetic on the same terms.

rational_terms = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3])),
    max_size=4)
rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


def rational_poly(terms):
    """The polynomial sum c * m**b * n**a over terms {(a, b): c}."""
    return Poly.from_dict({tuple((v, e) for v, e in (("m", b), ("n", a)) if e): c
                           for (a, b), c in terms.items()})


def fraction_eval(terms, n, m):
    return sum((Fraction(c) * Fraction(m) ** b * Fraction(n) ** a
                for (a, b), c in terms.items()), Fraction(0))


def stored_normally(p):
    return all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms)


@settings(max_examples=150, deadline=None)
@given(rational_terms, rational_terms, rationals, st.integers(0, 5), st.integers(0, 5))
def test_arithmetic_agrees_with_fraction_evaluation(tp, tq, k, n, m):
    p, q = rational_poly(tp), rational_poly(tq)
    fp, fq = fraction_eval(tp, n, m), fraction_eval(tq, n, m)
    env = {"n": n, "m": m}
    results = {"+": (p + q, fp + fq), "-": (p - q, fp - fq), "*": (p * q, fp * fq),
               "scale": (p.scale(k), k * fp),
               # m bound to q: p at (n, q(n, m))
               "substitute": (p.substitute({"m": q}), fraction_eval(tp, n, fq))}
    for op, (got, expect) in results.items():
        assert got.eval(env) == expect, op
        assert stored_normally(got), op


def test_integral_coefficients_are_stored_as_ints():
    half = Fraction(1, 2)
    made = [Poly.const(Fraction(4, 2)), Poly.var("n"), N.scale(Fraction(6, 3)),
            N.scale(half) + N.scale(half), (N * N + N).scale(half) * 2,
            Poly.from_dict({(): Fraction(3), (("n", 1),): half}),
            (N * N + N).scale(half).substitute({"n": M + C1}),
            *sum_over(SymExpr.of(I * I), *interval("i", 1, N)).alts,
            *sum_over(SymExpr.of(I), *interval("i", M, N + M)).alts]
    for p in made:
        assert stored_normally(p), p.terms
        assert all(type(c) is int for _, c in p.scale(6).terms), p.terms
    assert type(N.coeff(())) is int
    assert type((N * N).eval({"n": 3})) is int
    assert type(Poly.const(Fraction(4, 2)).const_value()) is int


@settings(max_examples=200, deadline=None)
@given(rational_terms, rational_terms)
def test_dominance_reads_the_coefficients_of_the_difference(tq, tp):
    q, p = rational_poly(tq), rational_poly(tp)
    for a, b in ((q, p), (p, q), (q, q + p), (q + p, p)):
        assert symexpr._dominates(a, b) == (a - b).coeffs_nonneg()


# --- each operation against the reference ----------------------------------

def _shape(x):
    """What an operation must give: each term with its coefficient's type,
    the alternatives in their order, and the flags."""
    if isinstance(x, Poly):
        return tuple((m, type(c), c) for m, c in x.terms)
    return tuple(_shape(p) for p in x.alts), x.flags


def _random_poly(rng):
    """Zero now and then, else a polynomial over n, m and i, its
    coefficients negative as well and, scaled, fractional."""
    if rng.random() < 0.15:
        return ZERO
    p = random_poly(rng, ["n", "m", "i"], max_degree=2, max_terms=4)
    return p.scale(Fraction(rng.choice((1, -1)), rng.randint(2, 3))) if rng.random() < 0.3 else p


def _random_sym(rng):
    """One, two or three alternatives, now and then flagged; or, as the
    summarizer's headroom is, the same less a polynomial and left unpruned."""
    e = SymExpr.of(*(_random_poly(rng) for _ in range(rng.choice((1, 1, 2, 3)))))
    if rng.random() < 0.15:
        low = _random_poly(rng)
        e = SymExpr(tuple(p - low for p in e.alts), e.flags)
    flags = rng.sample((FLAG_BAD_ARG, FLAG_NO_RANGE, FLAG_MONOTONICITY), rng.randint(0, 2))
    return e.with_flags(*flags) if rng.random() < 0.4 else e


def _random_binding(rng):
    names = rng.sample(["n", "m", "i", "k"], rng.randint(0, 2))
    return {v: _random_poly(rng) for v in names}


def _random_end(rng):
    return rng.choice((Poly.const(rng.randint(0, 3)), N, M, N + C1, N + M, M.scale(2)))


def test_every_operation_matches_the_reference_arithmetic():
    rng = random.Random(38)
    for _ in range(500):
        p, q = _random_poly(rng), _random_poly(rng)
        a, b, c = _random_sym(rng), _random_sym(rng), _random_sym(rng)
        binding, k = _random_binding(rng), rng.choice((0, 1, -2, Fraction(1, 2), Fraction(4, 2)))
        lo, hi = _random_end(rng), _random_end(rng)
        context = rng.choice(((), (LinConstraint.compare(M, "<=", N),)))
        clean = SymExpr.of(*a.alts, flags=a.flags)  # an identity keeps alternatives as given
        ops = {"+": lambda: p + q, "+ const": lambda: p + k, "-": lambda: p - q,
               "*": lambda: p * q, "add": lambda: symexpr.add(a, b),
               "add zero": lambda: symexpr.add(SYM_ZERO.with_flags(*c.flags), b),
               "sym_max": lambda: symexpr.sym_max(a, b),
               "sym_sum": lambda: symexpr.sym_sum([a, b, c]),
               "Poly.substitute": lambda: p.substitute(binding),
               "substitute": lambda: symexpr.substitute(clean, binding),
               "with_flags": lambda: b.with_flags(*c.flags),
               "sum_over": lambda: symexpr.sum_over(a, "i", lo, hi, context),
               "max_over": lambda: symexpr.max_over(a, "i", lo, hi)}
        for name, op in ops.items():
            got = op()
            with reference_arithmetic():
                expect = op()
            assert _shape(got) == _shape(expect), name


def test_each_identity_returns_its_operand():
    p = N.scale(Fraction(1, 2)) + M * M
    e = SymExpr.of(p, N + C1, flags={FLAG_BAD_ARG})
    assert p + ZERO is p and ZERO + p is p and p - ZERO is p and p + 0 is p
    assert e.with_flags() is e and e.with_flags(FLAG_BAD_ARG) is e
    assert p.substitute({"k": N}) is p and substitute(e, {"k": N, "i": M}) is e
    one = (p,)
    assert symexpr._prune(one) is one and symexpr._prune(e.alts) is e.alts
    assert add(SYM_ZERO, e) is e and add(e, SYM_ZERO) is e
    flagged = SYM_ZERO.with_flags(FLAG_NO_RANGE)
    assert add(flagged, e).alts is e.alts
    assert add(flagged, e).flags == {FLAG_BAD_ARG, FLAG_NO_RANGE}


# --- interval summation ----------------------------------------------------

def test_sum_of_ones_is_trip_count():
    got = sum_over(SymExpr.of(C1), *interval("i", 0, N - C1))
    assert got.alts == (N,)
    assert not got.flags


def test_sum_of_index_is_triangular():
    got = sum_over(SymExpr.of(I), *interval("i", 1, N))
    assert got.alts == ((N * N + N).scale(Fraction(1, 2)),)


def test_sum_of_squares_matches_known_form():
    got = sum_over(SymExpr.of(I * I), *interval("i", 1, N))
    expected = (N * (N + C1) * (N * 2 + C1)).scale(Fraction(1, 6))
    assert got.alts == (expected,)


def test_sum_with_concrete_empty_range_is_zero():
    got = sum_over(SymExpr.of(I * I + Poly.const(5)), *interval("i", 4, 1))
    assert got.is_zero()


def test_sum_closed_form_valid_at_adjacent_empty_range():
    # lo == hi + 1 must collapse to zero in the closed form itself.
    got = sum_over(SymExpr.of(I), *interval("i", 1, N))
    assert got.eval({"n": 0}) == 0


def test_sum_brute_force_oracle_random():
    rng = random.Random(20260817)
    space_var = "v"
    for _ in range(1000):
        p = random_poly(rng, ["v", "y"], max_degree=3)
        lo = rng.randint(-3, 12)
        hi = rng.randint(-3, 12)
        y = rng.randint(0, 4)
        got = sum_over(SymExpr.of(p), *interval(space_var, lo, hi))
        expect = brute_sum(p, space_var, lo, hi, {"y": y})
        assert got.eval({"y": y}) == expect, (poly_to_str(p), lo, hi, y)


def test_sum_symbolic_guard_discharged_by_context():
    # Space 10-n .. 5 is nonempty-or-adjacent only once n >= 4.
    lo = Poly.const(10) - N
    space = interval("i", lo, Poly.const(5))
    ctx = (LinConstraint.compare(N, ">=", Poly.const(4)),)
    got = sum_over(SymExpr.of(C1), *space, ctx)
    assert FLAG_SUM_GUARD not in got.flags
    assert got.eval({"n": 6}) == 2


def test_sum_symbolic_guard_left_when_undischarged():
    lo = Poly.const(10) - N
    space = interval("i", lo, Poly.const(5))
    got = sum_over(SymExpr.of(C1), *space)
    assert FLAG_SUM_GUARD in got.flags


def test_sum_nonneg_summand_clamps_instead_of_guard():
    # lo constant, summand nonnegative: empty ranges can only undershoot.
    got = sum_over(SymExpr.of(C1), *interval("i", 3, N))
    assert FLAG_SUM_GUARD not in got.flags
    assert got.eval({"n": 0}) == 0
    assert got.eval({"n": 5}) == 3


def count_solves(monkeypatch):
    calls = []
    solve = symexpr._solve
    monkeypatch.setattr(symexpr, "_solve", lambda *a: calls.append(a) or solve(*a))
    return calls


def test_a_guard_proved_by_coefficients_needs_no_elimination(monkeypatch):
    calls = count_solves(monkeypatch)
    ctx = (LinConstraint.compare(M, "<=", N),)
    # hi + 1 - lo: m + 1, and n*n + 1, which elimination cannot read
    wide = sum_over(SymExpr.of(I), *interval("i", N, N + M), ctx)
    square = sum_over(SymExpr.of(I - M), *interval("i", 0, N * N))
    assert calls == []
    assert wide.flags == square.flags == frozenset()
    assert wide.eval({"n": 2, "m": 3}) == 2 + 3 + 4 + 5
    assert square.eval({"n": 2, "m": 1}) == sum(i - 1 for i in range(5))


def test_a_guard_that_needs_requires_goes_through_elimination(monkeypatch):
    calls = count_solves(monkeypatch)
    # for (i = m .. n) under requires(m <= n + 1)
    ctx = (LinConstraint.compare(M, "<=", N + C1),)
    got = sum_over(SymExpr.of(C1), *interval("i", M, N), ctx)
    assert calls
    assert got == SymExpr.of(N - M + C1)


def test_sum_degree_cap_enforced():
    # a sum of degree 5 and a max of degree 5 keep the summand's flags
    flagged = SymExpr.of(I * I * I * I).with_flags(FLAG_SUM_GUARD)
    for got in (sum_over(flagged, *interval("i", 1, N)),
                max_over(SymExpr.of(N * N * N * N * I).with_flags(FLAG_SUM_GUARD),
                         *interval("i", 1, N))):
        assert got.is_zero()
        assert got.flags == {FLAG_DEGREE_CAP, FLAG_SUM_GUARD}
    # at the cap itself the closed form stands
    assert sum_over(SymExpr.of(I * I * I), *interval("i", 1, N)).alts[0].degree() == 4
    assert not max_over(SymExpr.of(N * N * N * I), *interval("i", 1, N)).flags
    # a concrete empty range is exactly zero whatever the summand's degree
    assert sum_over(SymExpr.of(I * I * I * I), *interval("i", 5, 2)) == SymExpr.of(0)


# --- interval maximization -------------------------------------------------

def test_max_over_nondecreasing_takes_upper_endpoint():
    got = max_over(SymExpr.of(I + C1), *interval("i", 1, N))
    assert got.alts == (N + C1,)
    assert not got.flags


def test_max_over_nonincreasing_takes_lower_endpoint():
    got = max_over(SymExpr.of(N - I), *interval("i", 1, N))
    assert got.alts == (N - C1,)


def test_max_over_mixed_signs_is_flagged():
    p = I * (N - I)  # peaks in the interior
    got = max_over(SymExpr.of(p), *interval("i", 0, N))
    assert FLAG_MONOTONICITY in got.flags
    # Both endpoints evaluate to zero here, which understates the interior.
    assert got.eval({"n": 6}) < brute_max(SymExpr.of(p), "i", 0, 6, {"n": 6})


def test_max_over_monotone_matches_brute_force():
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randint(0, 4) for _ in range(3)]
        p = I * I * coeffs[0] + I * coeffs[1] + Poly.const(coeffs[2])
        lo, hi = sorted((rng.randint(0, 8), rng.randint(0, 8)))
        got = max_over(SymExpr.of(p), *interval("i", lo, hi))
        assert got.eval({}) == brute_max(SymExpr.of(p), "i", lo, hi)


def test_max_over_concrete_empty_range_is_zero():
    got = max_over(SymExpr.of(I + Poly.const(9)), *interval("i", 5, 2))
    assert got.is_zero()


# --- nested space counting -------------------------------------------------

def count(outer, inner):
    """Points of a two-deep nest: the inner sum under the outer range."""
    var, lo, hi = outer
    context = (LinConstraint.compare(lo, "<=", Poly.var(var)),
               LinConstraint.compare(Poly.var(var), "<=", hi))
    return sum_over(sum_over(SymExpr.of(C1), *inner, context), *outer)


def test_count_triangle():
    got = count(interval("i", 1, N), interval("j", 1, I))
    assert got.alts == ((N * N + N).scale(Fraction(1, 2)),)


def test_count_rectangle():
    assert count(interval("i", 1, N), interval("j", 1, M)).alts == (N * M,)


# --- entailment ------------------------------------------------------------

def test_entails_by_coefficient():
    v = entails_leq(SymExpr.of(N + Poly.const(3)), SymExpr.of(N + Poly.const(5)))
    assert v.kind == VerdictKind.VERIFIED
    assert v.method == "coefficient"


def test_entails_violation_carries_witness():
    v = entails_leq(SymExpr.of(N + C1), SymExpr.of(N))
    assert v.kind == VerdictKind.VIOLATED
    assert v.witness == {"n": 0}
    assert SymExpr.of(N + C1).eval(v.witness) > SymExpr.of(N).eval(v.witness)


def test_a_constant_violation_is_decided_without_the_witness_box(monkeypatch):
    # {} is the one integer point of a system with no variables, not a
    # stuck elimination, so the box search is never reached
    def no_box(*_):
        raise AssertionError("the witness box was searched")

    monkeypatch.setattr("mclcheck.symexpr._witness", no_box)
    v = entails_leq(SymExpr.of(1), SymExpr.of(0))
    assert v.kind == VerdictKind.VIOLATED
    assert v.witness == {}


def test_a_clause_whose_difference_is_affine_is_verified_by_farkas():
    # both sides have degree 2, their difference n - 5 is affine
    pre = (LinConstraint.compare(N, "<=", Poly.const(5)),)
    v = entails_leq(SymExpr.of(N * M + N), SymExpr.of(N * M + 5), pre)
    assert (v.kind, v.method) == (VerdictKind.VERIFIED, "farkas")


def test_a_clause_whose_difference_is_affine_is_violated_outside_the_box(monkeypatch):
    def no_box(*_):
        raise AssertionError("the witness box was searched")

    monkeypatch.setattr("mclcheck.symexpr._witness", no_box)
    v = entails_leq(SymExpr.of(N * N * M + N), SymExpr.of(N * N * M + 9))
    assert v.kind == VerdictKind.VIOLATED
    assert v.witness == {"m": 0, "n": 10}


def test_integral_gives_one_denominator_and_terms_in_print_order():
    p = N.scale(Fraction(1, 2)) + (N * N).scale(Fraction(1, 3))
    assert integral(p) == (6, [[(2, (("n", 2),)), (3, (("n", 1),))]])
    assert integral(Poly(), Poly.const(3)) == (1, [[], [(3, ())]])


def test_entails_affine_by_farkas():
    pre = (LinConstraint.compare(M, "<=", N),)
    v = entails_leq(SymExpr.of(M), SymExpr.of(N), pre)
    assert v.kind == VerdictKind.VERIFIED
    assert v.method == "farkas"


def test_entails_nonaffine_clause_is_never_verified():
    # true for every n >= 1, but no sweep of a finite grid proves it
    pre = (LinConstraint.compare(N, ">=", C1),)
    v = entails_leq(SymExpr.of(N), SymExpr.of(N * N), pre)
    assert v.kind == VerdictKind.UNVERIFIED


def test_entails_respects_preconditions():
    # n <= 3 would fail at large n, but the precondition excludes it.
    pre = (LinConstraint.compare(N, "<=", Poly.const(3)),)
    v = entails_leq(SymExpr.of(N), SymExpr.of(Poly.const(3)), pre)
    assert v.kind == VerdictKind.VERIFIED


def test_entails_empty_precondition_grid_is_unverified():
    pre = (LinConstraint.compare(N, ">", Poly.const(99)),)
    v = entails_leq(SymExpr.of(N), SymExpr.of(N * N), pre)
    assert v.kind == VerdictKind.UNVERIFIED


def test_entails_over_many_variables_is_unverified_not_an_error():
    # x <= x*x holds on the integers, but no procedure here proves it, and
    # nine variables put the witness box past its cap
    many = [Poly.var(f"x{k}") for k in range(9)]
    lhs = SymExpr.of(sum(many, Poly()))
    rhs = SymExpr.of(sum((v * v for v in many), Poly()))
    v = entails_leq(lhs, rhs)
    assert v.kind == VerdictKind.UNVERIFIED
    assert v.reason == "the point found breaks a fact that is not affine"


def _random_affine(rng, names):
    return Poly.from_dict({((v, 1),): Fraction(rng.randint(-3, 3)) for v in names}
                          | {(): Fraction(rng.randint(-4, 6))})


def _random_pre(rng, names):
    return tuple(LinConstraint(_random_affine(rng, names), rng.choice(LinConstraint.RELS))
                 for _ in range(rng.randint(0, 2)))


_RELS = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
         ">=": operator.ge, ">": operator.gt}


def _int_form(p, names):
    """An integer-coefficient affine p as a fast function of a point."""
    coeffs = [int(p.coeff(((v, 1),))) for v in names]
    const = int(p.coeff(()))
    return lambda point: const + sum(a * x for a, x in zip(coeffs, point))


def _holds_all(constraints, names):
    forms = [(_int_form(c.lhs, names), _RELS[c.rel]) for c in constraints]
    return lambda point: all(rel(f(point), 0) for f, rel in forms)


def test_entails_never_verified_against_grid_counterexample():
    rng = random.Random(99)
    for _ in range(300):
        p = random_poly(rng, ["n", "m"], max_degree=2, coeff_range=(-3, 3))
        q = random_poly(rng, ["n", "m"], max_degree=2, coeff_range=(-3, 3))
        v = entails_leq(SymExpr.of(p), SymExpr.of(q))
        cex = None
        for n in range(0, 9):
            for m in range(0, 9):
                env = {"n": n, "m": m}
                if p.eval(env) > q.eval(env):
                    cex = env
                    break
            if cex:
                break
        if v.kind == VerdictKind.VERIFIED:
            assert cex is None
        if cex is not None:
            assert v.kind == VerdictKind.VIOLATED
    # affine clauses under affine preconditions, against brute force on 0..20
    names = ["n", "m"]
    for _ in range(300):
        lhs = SymExpr.of(*(_random_affine(rng, names) for _ in range(rng.randint(1, 2))))
        rhs = SymExpr.of(*(_random_affine(rng, names) for _ in range(rng.randint(1, 2))))
        pre = _random_pre(rng, names)
        v = entails_leq(lhs, rhs, pre)
        pre_holds = _holds_all(pre, names)
        lf = [_int_form(p, names) for p in lhs.alts]
        rf = [_int_form(q, names) for q in rhs.alts]
        cexs = [pt for pt in itertools.product(range(21), repeat=2)
                if pre_holds(pt) and max(f(pt) for f in lf) > max(f(pt) for f in rf)]
        if v.kind == VerdictKind.VERIFIED:
            assert not cexs, (lhs, rhs, pre)
        if v.kind == VerdictKind.VIOLATED:
            assert all(c.holds(v.witness) for c in pre)
            assert lhs.eval(v.witness) > rhs.eval(v.witness)
        if any(max(pt) <= 8 for pt in cexs):
            assert v.kind == VerdictKind.VIOLATED


def _int_poly(p, names):
    """An integer-coefficient polynomial p as a fast function of a point."""
    terms = [(int(c), [(names.index(v), e) for v, e in m]) for m, c in p.terms]
    return lambda point: sum(c * math.prod(point[i] ** e for i, e in m) for c, m in terms)


def test_a_quadratic_alternative_keeps_the_affine_decision_sound():
    # rhs = max(affine, quadratic) under a random requires: every answer
    # agrees with brute force on 0..20, and the box 0..8 misses nothing
    rng = random.Random(23)
    names = ["n", "m"]
    decided_non_affine = 0
    for _ in range(300):
        quadratic = random_poly(rng, names, max_degree=2, coeff_range=(-3, 3)) + \
            (Poly.var(rng.choice(names)) * Poly.var(rng.choice(names))).scale(rng.choice((-2, 2)))
        lhs = SymExpr.of(*(_random_affine(rng, names) for _ in range(rng.randint(1, 2))))
        rhs = SymExpr.of(_random_affine(rng, names), quadratic)
        pre = _random_pre(rng, names)
        v = entails_leq(lhs, rhs, pre)
        pre_holds = _holds_all(pre, names)
        lf = [_int_poly(p, names) for p in lhs.alts]
        rf = [_int_poly(q, names) for q in rhs.alts]
        cexs = [pt for pt in itertools.product(range(21), repeat=2)
                if pre_holds(pt) and max(f(pt) for f in lf) > max(f(pt) for f in rf)]
        if v.kind == VerdictKind.VERIFIED:
            assert not cexs, (lhs, rhs, pre)
        if v.kind == VerdictKind.VIOLATED:
            assert all(c.holds(v.witness) for c in pre), (lhs, rhs, pre)
            assert lhs.eval(v.witness) > rhs.eval(v.witness), (lhs, rhs, pre)
        if any(max(pt) <= 8 for pt in cexs):
            assert v.kind == VerdictKind.VIOLATED, (lhs, rhs, pre)
        if v.method == "farkas" and any((p - q).degree() > 1 for p in lhs.alts for q in rhs.alts):
            decided_non_affine += 1
    assert decided_non_affine > 10


def test_a_non_affine_goal_is_decided_on_the_affine_relaxation():
    goal = LinConstraint.compare(N * N, ">=", N + 5)
    # the goal's negation is dropped, and the context alone has no point
    empty = (LinConstraint.compare(N, ">=", Poly.const(3)),
             LinConstraint.compare(N, "<", Poly.const(3)))
    v = constraint_verdict(goal, empty)
    assert (v.kind, v.method) == (VerdictKind.VERIFIED, "farkas")
    # n = 2, the least point of the context, breaks the goal: 4 < 7
    v = constraint_verdict(goal, (LinConstraint.compare(N, ">=", Poly.const(2)),))
    assert (v.kind, v.witness) == (VerdictKind.VIOLATED, {"n": 2})


def test_constraint_entailed_against_brute_force():
    rng = random.Random(7)
    names = ["n", "m", "i"]
    kinds = []
    for _ in range(300):
        context = _random_pre(rng, names)
        goal = LinConstraint(_random_affine(rng, names), rng.choice(LinConstraint.RELS))
        v = constraint_verdict(goal, context)
        kinds.append(v.kind)
        if v.kind == VerdictKind.VIOLATED:
            # a nonnegative integer point of the context that breaks the goal
            assert all(isinstance(x, int) and x >= 0 for x in v.witness.values())
            assert all(c.holds(v.witness) for c in context), (goal, context, v.witness)
            assert not goal.holds(v.witness), (goal, context, v.witness)
        if v.kind != VerdictKind.VERIFIED:
            continue
        assert v.method == "farkas"
        context_holds, goal_holds = _holds_all(context, names), _holds_all((goal,), names)
        for pt in itertools.product(range(11), repeat=3):
            if context_holds(pt):
                assert goal_holds(pt), (goal, context, pt)
    assert kinds.count(VerdictKind.VERIFIED) > 10 and kinds.count(VerdictKind.VIOLATED) > 10


def test_a_non_affine_goal_is_unverified():
    v = constraint_verdict(LinConstraint.compare(N * N, ">=", N), ())
    assert v.kind == VerdictKind.UNVERIFIED and "not affine" in v.reason


def test_constraint_verdict_names_why_it_is_undecided():
    # 3n = 2m + 1 has no integer point with m = 0, but the greedy
    # back-substitution tries m = 0, n = 1 and overshoots
    odd = (LinConstraint.compare(Poly.const(3) * N, "==", Poly.const(2) * M + 1),)
    v = constraint_verdict(LinConstraint.compare(M, ">=", Poly.const(1)), odd)
    assert (v.kind, v.reason) == (VerdictKind.UNVERIFIED,
                                  "elimination stuck, no integer witness found")
    # n * n <= 1 is dropped before elimination, and its point n = 2 breaks it
    square = (LinConstraint.compare(N * N, "<=", Poly.const(1)),)
    v = constraint_verdict(LinConstraint.compare(N, "<=", Poly.const(1)), square)
    assert (v.kind, v.reason) == (VerdictKind.UNVERIFIED,
                                  "the point found breaks a fact that is not affine")


def test_memreq_beyond_the_witness_grid_is_violated():
    # the old 0..8 sweep held here and called the clause Verified
    pre = (LinConstraint.compare(N, ">=", Poly.const(0)),)
    v = entails_leq(SymExpr.of(N), SymExpr.of(Poly.const(8)), pre)
    assert v.kind == VerdictKind.VIOLATED
    assert v.witness == {"n": 9}


# --- integrality and rendering ---------------------------------------------

def _binomial(var, k):
    out = Poly.const(1)
    for j in range(k):
        out = out * (Poly.var(var) - Poly.const(j)).scale(Fraction(1, j + 1))
    return out


def test_triangular_bound_is_integer_valued():
    half = (N * N + N).scale(Fraction(1, 2))
    assert integer_valued(SymExpr.of(half))
    assert not integer_valued(SymExpr.of(N.scale(Fraction(1, 2))))
    # random rational polynomials: integer combinations of binomials, some
    # nudged by a fraction; the box 0..6 covers every degree drawn here
    rng = random.Random(5)
    for _ in range(200):
        p = Poly()
        for _ in range(rng.randint(1, 3)):
            term = _binomial("n", rng.randint(0, 3)) * _binomial("m", rng.randint(0, 3))
            p = p + term.scale(rng.randint(-3, 3))
        if rng.random() < 0.5:
            p = p + Poly.var(rng.choice("nm"), rng.randint(1, 2)).scale(
                Fraction(rng.randint(1, 5), rng.randint(2, 4)))
        brute = all(p.eval({"n": n, "m": m}).denominator == 1
                    for n in range(7) for m in range(7))
        assert integer_valued(SymExpr.of(p)) == brute, poly_to_str(p)


def test_rendering_is_surface_syntax():
    assert poly_to_str(N + Poly.const(3)) == "n + 3"
    assert poly_to_str(N * N - N * 2 + C1) == "n*n - 2*n + 1"
    assert poly_to_str((N * N + N).scale(Fraction(1, 2))) == "(n*n + n)/2"
    assert poly_to_str(Poly()) == "0"
    assert symexpr_to_str(SymExpr.of(N - Poly.const(2), M * 2)) in ("max(n - 2, 2*m)", "max(2*m, n - 2)")


# --- the interpreter's int-string limit -------------------------------------

@pytest.fixture
def digit_limit():
    # sys.get_int_max_str_digits exists from 3.11 and a late 3.10 on
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-string limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    yield
    sys.set_int_max_str_digits(before)


def test_arithmetic_never_reads_the_int_string_limit(digit_limit):
    h = Poly.const(10 ** 600)  # h * h has more digits than the limit
    hh = Poly.const(10 ** 1200)
    for got, exact in ((substitute(SymExpr.of(N * N), {"n": h * I}), hh * I * I),
                       (sum_over(SymExpr.of(h * N), *interval("i", 1, h)), hh * N),
                       (max_over(SymExpr.of(h * I), *interval("i", 1, h * N)), hh * N)):
        assert (got.alts, got.flags) == ((exact,), frozenset())
