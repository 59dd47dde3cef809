"""Symbolic bound arithmetic for the consumption checker.

Every quantity the checker manipulates is a SymExpr: a finite set of
polynomials over named integer variables, read as their pointwise
maximum.  Variables stand for nonnegative integer quantities
(parameters, array lengths, loop indices), and that assumption is what
licenses dominance pruning and the coefficient entailment criterion
below.  The resolver and the summarizer enforce it: a parameter that the
body assigns is never read as its entry value
(`frontend.unassigned_entry_vars`), and an index has a range only when
its header's lower bound has no negative coefficient.  Coefficients are
exact rationals so that closed-form interval sums lose nothing.  A loop
is summed and maximized over the range its header gives, `lo .. hi`;
nothing here reads a range back out of constraints.

`Verified` means proved for every nonnegative integer point of
`requires`: either by coefficient dominance, or (proof kind `farkas`)
because Fourier-Motzkin elimination shows that the points where a clause
fails form an empty set.  `_refute` decides every clause, and every
single fact (`constraint_verdict`), on its affine relaxation whatever the
degree: a non-affine fact is left out of the elimination and checked at
the integer point found, which is then the witness.  That is exact when
every computed-minus-declared difference is affine.
Integrality of a declared bound is decided exactly by Polya's criterion
on a small box of values per polynomial.  The 0..8 grid survives only as
a witness search: it may turn an undecided clause into `Violated`, never
into `Verified`.  A polynomial's one integer form, read by the rows, both
printers and the oracle, is `integral`.

Only a closed form over a loop, summed (`sum_over`) or maximized
(`max_over`), is capped, by `_closed`: one of degree above the module
constant `DEGREE_CAP` is a zero flagged `degree-cap`, which leaves
Unverified only the clauses that read it.  A sum never raises the degree,
and a substitution's result is capped where it is summed or maximized.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, lcm

DEGREE_CAP = 4  # read at run time, so a test can patch it

# Flags mark results whose value can no longer be trusted as an upper bound.
FLAG_MONOTONICITY = "monotonicity-unproven"
FLAG_SUM_GUARD = "sum-guard-unproven"
FLAG_BAD_ARG = "unanalyzable-arg"
FLAG_NO_RANGE = "no-loop-range"
FLAG_DEGREE_CAP = "degree-cap"


# A monomial is a sorted tuple of (variable, exponent) pairs; () is 1.
Monomial = tuple[tuple[str, int], ...]

_ONE: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    acc: dict[str, int] = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def _mono_degree(m: Monomial) -> int:
    return sum(exp for _, exp in m)


@dataclass(frozen=True)
class Poly:
    """A multivariate polynomial with Fraction coefficients.

    Terms are stored sorted by monomial, with zero coefficients dropped,
    so equal polynomials compare and hash equal.
    """

    terms: tuple[tuple[Monomial, Fraction], ...] = ()

    @staticmethod
    def from_dict(d: dict[Monomial, Fraction]) -> Poly:
        items = tuple(sorted((m, c) for m, c in d.items() if c != 0))
        return Poly(items)

    @staticmethod
    def const(value: int | Fraction) -> Poly:
        return Poly.from_dict({_ONE: Fraction(value)})

    @staticmethod
    def var(name: str, exp: int = 1) -> Poly:
        return Poly.from_dict({((name, exp),): Fraction(1)})

    def coeff(self, m: Monomial) -> Fraction:
        for mono, c in self.terms:
            if mono == m:
                return c
        return Fraction(0)

    def __add__(self, other: Poly | int | Fraction) -> Poly:
        other = _as_poly(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return Poly.from_dict(acc)

    def __sub__(self, other: Poly | int | Fraction) -> Poly:
        return self + (-_as_poly(other))

    def __neg__(self) -> Poly:
        return Poly(tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other: Poly | int | Fraction) -> Poly:
        other = _as_poly(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Poly.from_dict(acc)

    __rmul__ = __mul__

    def scale(self, k: int | Fraction) -> Poly:
        k = Fraction(k)
        return Poly(tuple((m, c * k) for m, c in self.terms)) if k else Poly()

    def degree(self) -> int:
        return max((_mono_degree(m) for m, _ in self.terms), default=0)

    def variables(self) -> set[str]:
        return {var for m, _ in self.terms for var, _ in m}

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == _ONE for m, _ in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"{poly_to_str(self)} is not a constant")
        return self.coeff(_ONE)

    def coeffs_nonneg(self) -> bool:
        return all(c >= 0 for _, c in self.terms)

    def eval(self, env: dict[str, int | Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms:
            val = c
            for var, exp in m:
                val *= Fraction(env[var]) ** exp
            total += val
        return total

    def substitute(self, binding: dict[str, Poly]) -> Poly:
        out = Poly()
        for m, c in self.terms:
            term = Poly.const(c)
            for var, exp in m:
                factor = binding.get(var, Poly.var(var))
                for _ in range(exp):
                    term = term * factor
            out = out + term
        return out

    def split_on(self, var: str) -> dict[int, Poly]:
        """Group terms by the exponent of `var`, with `var` factored out."""
        buckets: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self.terms:
            exp = 0
            rest = []
            for v, e in m:
                if v == var:
                    exp = e
                else:
                    rest.append((v, e))
            buckets.setdefault(exp, {})[tuple(rest)] = c
        return {exp: Poly.from_dict(d) for exp, d in buckets.items()}


ZERO = Poly()
ONE = Poly.const(1)


def _as_poly(x: Poly | int | Fraction) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(x)


def integral(*polys: Poly) -> tuple[int, list[list[tuple[int, Monomial]]]]:
    """The polynomials over one common denominator D > 0: D, and per
    polynomial its integer terms (coefficient, monomial) over D, in print
    order, highest degree first and then by monomial."""
    den = lcm(*(c.denominator for p in polys for _, c in p.terms))
    return den, [sorted(((int(c * den), m) for m, c in p.terms),
                        key=lambda t: (-_mono_degree(t[1]), t[1])) for p in polys]


def _dominates(q: Poly, p: Poly) -> bool:
    # q >= p over the nonnegative orthant whenever every coefficient of
    # q - p is nonnegative.  Sufficient, not complete.
    return (q - p).coeffs_nonneg()


def _prune(alts: tuple[Poly, ...]) -> tuple[Poly, ...]:
    uniq = sorted(set(alts), key=lambda p: p.terms)
    kept = [p for p in uniq if not any(q is not p and q != p and _dominates(q, p) for q in uniq)]
    return tuple(kept)


# (sign, shift) per relation: lhs REL 0 becomes sign * lhs - shift >= 0,
# exact over the integers once lhs has integer coefficients
_SENSES = {">=": ((1, 0),), ">": ((1, 1),), "<=": ((-1, 0),), "<": ((-1, 1),),
           "==": ((1, 0), (-1, 0))}
_NEGATIONS = {">=": ("<",), ">": ("<=",), "<=": (">",), "<": (">=",), "==": ("<", ">")}

_HOLDS = {"<=": operator.le, "<": operator.lt, "==": operator.eq,
          ">=": operator.ge, ">": operator.gt}


@dataclass(frozen=True)
class LinConstraint:
    """An affine condition `lhs REL 0` over integer variables."""

    lhs: Poly
    rel: str  # one of <=, <, ==, >=, >

    RELS = ("<=", "<", "==", ">=", ">")

    @staticmethod
    def compare(a: Poly, rel: str, b: Poly) -> LinConstraint:
        if rel not in LinConstraint.RELS:
            raise ValueError(f"unknown relation {rel!r}")
        return LinConstraint(a - b, rel)

    def holds(self, env: dict[str, int | Fraction]) -> bool:
        return _HOLDS[self.rel](self.lhs.eval(env), 0)

    def variables(self) -> set[str]:
        return self.lhs.variables()

    def __str__(self) -> str:
        return f"{poly_to_str(self.lhs)} {self.rel} 0"


@dataclass(frozen=True)
class SymExpr:
    """max of finitely many polynomials, with soundness bookkeeping.

    `flags` mark values that are no longer certified upper bounds (for
    example a maximization whose monotonicity argument failed, or a sum
    whose nonempty-space side condition was not discharged); a value
    carries no side conditions of its own.
    """

    alts: tuple[Poly, ...]
    flags: frozenset[str] = frozenset()

    @staticmethod
    def of(*polys: Poly | int | Fraction, flags=frozenset()) -> SymExpr:
        alts = _prune(tuple(_as_poly(p) for p in polys)) or (ZERO,)
        return SymExpr(alts, frozenset(flags))

    def with_flags(self, *extra: str) -> SymExpr:
        return SymExpr(self.alts, self.flags | set(extra))

    def variables(self) -> set[str]:
        return set().union(*(p.variables() for p in self.alts))

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.alts)

    def eval(self, env: dict[str, int | Fraction]) -> Fraction:
        return max(p.eval(env) for p in self.alts)

    def same_value(self, other: SymExpr) -> bool:
        return self.alts == other.alts

    def __str__(self) -> str:
        return symexpr_to_str(self)


SYM_ZERO = SymExpr.of(ZERO)


def add(a: SymExpr, b: SymExpr) -> SymExpr:
    """Pointwise sum: max(A) + max(B) = max over pairs of (p + q)."""
    return SymExpr(_prune(tuple(p + q for p in a.alts for q in b.alts)), a.flags | b.flags)


def sym_sum(exprs) -> SymExpr:
    """Sum of any number of expressions, zero for none, a lone one as it is."""
    exprs = list(exprs)
    return reduce(add, exprs) if exprs else SYM_ZERO


def sym_max(a: SymExpr, b: SymExpr) -> SymExpr:
    """Pointwise maximum: union the alternatives and prune dominated ones."""
    return SymExpr(_prune(a.alts + b.alts), a.flags | b.flags)


def substitute(e: SymExpr, binding: dict[str, Poly]) -> SymExpr:
    """Substitute polynomials for variables in every alternative."""
    return SymExpr(_prune(tuple(p.substitute(binding) for p in e.alts)), e.flags)


@lru_cache(maxsize=None)
def _power_sum(k: int) -> Poly:
    """The closed form of sum_{t=1..x} t^k as a polynomial in `_x`.

    The defining identity S_k(x) - S_k(x-1) = x^k holds for every integer
    x, so S_k(hi) - S_k(lo-1) equals the interval sum whenever lo <= hi+1.
    """
    x = Poly.var("_x")
    if k == 0:
        return x
    acc = ZERO
    xp1 = x + ONE
    pw = ONE
    for _ in range(k + 1):
        pw = pw * xp1
    acc = pw - ONE
    for j in range(k):
        acc = acc - _power_sum(j).scale(comb(k + 1, j))
    return acc.scale(Fraction(1, k + 1))


def _dominating_poly(e: SymExpr) -> Poly:
    """Collapse alternatives to one polynomial via coefficient-wise max.

    Exact for a single alternative; otherwise an upper bound over the
    nonnegative orthant, since every monomial is nonnegative there.
    """
    if len(e.alts) == 1:
        return e.alts[0]
    monos = {m for p in e.alts for m, _ in p.terms}
    return Poly.from_dict({m: max(p.coeff(m) for p in e.alts) for m in monos})


def _closed(polys: list[Poly], flags) -> SymExpr:
    """The max of a loop's closed forms; a zero flagged degree-cap when one
    has degree above DEGREE_CAP."""
    if any(p.degree() > DEGREE_CAP for p in polys):
        return SYM_ZERO.with_flags(*flags, FLAG_DEGREE_CAP)
    return SymExpr.of(*polys, flags=flags)


def sum_over(e: SymExpr, var: str, lo: Poly, hi: Poly,
             context: tuple[LinConstraint, ...] = ()) -> SymExpr:
    """Closed form of the sum of e over var = lo .. hi, via power-sum formulas.

    With concrete endpoints the result is exact, including the empty sum.
    With symbolic endpoints the closed form is only valid when the space
    is nonempty-or-adjacent (lo <= hi+1); that guard is discharged from
    the context when possible, clamped away when the summand and lower
    bound are coefficient-nonnegative, and otherwise marked FLAG_SUM_GUARD.
    """
    flags = e.flags
    if e.is_zero() or lo.is_const() and hi.is_const() and hi.const_value() < lo.const_value():
        return SymExpr.of(ZERO, flags=flags)
    summand = _dominating_poly(e)
    closed = ZERO
    for exp, rest in summand.split_on(var).items():
        s = _power_sum(exp)
        closed += rest * (s.substitute({"_x": hi}) - s.substitute({"_x": lo - ONE}))
    guard = LinConstraint.compare(lo, "<=", hi + ONE)
    if (lo.is_const() and hi.is_const()
            or constraint_verdict(guard, context).kind == VerdictKind.VERIFIED):
        return _closed([closed], flags)
    if summand.coeffs_nonneg() and lo.coeffs_nonneg():
        # Empty spaces only subtract: max with 0 restores exactness.
        return _closed([closed, ZERO], flags)
    return _closed([closed], flags | {FLAG_SUM_GUARD})


def max_over(e: SymExpr, var: str, lo: Poly, hi: Poly) -> SymExpr:
    """Upper bound for the max of e over var = lo .. hi by endpoint
    substitution.

    Alternatives monotone in the index (index coefficients all of one
    sign) are evaluated at the matching endpoint.  Mixed signs fall back
    to both endpoints and mark the result monotonicity-unproven, since an
    interior maximum could exceed either endpoint.
    """
    flags = set(e.flags)
    if e.is_zero() or lo.is_const() and hi.is_const() and hi.const_value() < lo.const_value():
        return SymExpr.of(ZERO, flags=flags)
    cands: list[Poly] = []
    for p in e.alts:
        split = p.split_on(var)
        idx_coeffs = [c for exp, rest in split.items() if exp > 0 for _, c in rest.terms]
        if not idx_coeffs:
            cands.append(p)
        elif all(c >= 0 for c in idx_coeffs):
            cands.append(p.substitute({var: hi}))
        elif all(c <= 0 for c in idx_coeffs):
            cands.append(p.substitute({var: lo}))
        else:
            cands.append(p.substitute({var: lo}))
            cands.append(p.substitute({var: hi}))
            flags.add(FLAG_MONOTONICITY)
    return _closed(cands, flags)


class VerdictKind:
    VERIFIED = "Verified"
    VIOLATED = "Violated"
    UNVERIFIED = "Unverified"

    @staticmethod
    def worst(kinds) -> str:
        """Violated over Unverified over Verified; Verified when there are none."""
        return max(kinds, default=VerdictKind.VERIFIED, key=(
            VerdictKind.VERIFIED, VerdictKind.UNVERIFIED, VerdictKind.VIOLATED).index)


@dataclass(frozen=True)
class Verdict:
    kind: str
    method: str | None = None       # coefficient | farkas
    witness: dict[str, int] | None = None
    reason: str | None = None

    @staticmethod
    def verified(method: str) -> Verdict:
        return Verdict(VerdictKind.VERIFIED, method=method)

    @staticmethod
    def violated(witness: dict[str, int]) -> Verdict:
        return Verdict(VerdictKind.VIOLATED, witness=witness)

    @staticmethod
    def unverified(reason: str) -> Verdict:
        return Verdict(VerdictKind.UNVERIFIED, reason=reason)

    def to_json(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.method:
            out["proof"] = self.method
        if self.witness is not None:
            out["witness"] = dict(sorted(self.witness.items()))
        if self.reason:
            out["reason"] = self.reason
        return out


# ---------------------------------------------------------------------------
# The decision procedure.  A row ((v, a_v), ...), c stands for the integer
# half-space sum(a_v * v) + c >= 0; its variables are sorted, none with a
# zero coefficient.

Row = tuple[tuple[tuple[str, int], ...], int]

# Elimination gives up (as if stuck) before a step past this many rows.
_MAX_ROWS = 5_000

# _solve's answer when an integer point may or may not exist; never a
# point, not even {}, the one point of a system without variables.
_STUCK = object()

# The witness search walks the box 0..WITNESS_HI in every variable.
WITNESS_HI = 8
WITNESS_POINTS = 1_000_000


def _row(coeffs: dict[str, int], const: int) -> Row:
    # dividing by the gcd of the coefficients and flooring the constant
    # keeps exactly the same integer points
    g = gcd(*coeffs.values()) or 1
    return tuple(sorted((v, a // g) for v, a in coeffs.items() if a)), const // g


def _halfspaces(constraints) -> list[Row]:
    """Affine facts as integer rows; a non-affine fact is dropped, which
    only enlarges the set and so is sound for `_refute`'s infeasibility."""
    rows = []
    for c in constraints:
        if c.lhs.degree() > 1:
            continue
        _, (terms,) = integral(c.lhs)
        coeffs = {m[0][0]: k for k, m in terms if m}
        const = sum(k for k, m in terms if not m)
        for sign, shift in _SENSES[c.rel]:
            rows.append(_row({v: sign * a for v, a in coeffs.items()}, sign * const - shift))
    return rows


def _solve(rows: list[Row], vars_: list[str]) -> dict[str, int] | object | None:
    """Fourier-Motzkin elimination over the rows and vars_ >= 0.

    None when no integer point exists: every row, combined ones too, is
    tightened as in `_row`, which only ever cuts off non-integer points
    (the real shadow of Pugh's Omega test).  Otherwise back-substitution
    gives each variable, in the order of vars_, the ceiling of its lower
    bound: the greedy lexicographically least integer point.  It returns
    _STUCK when a ceiling overshoots an upper bound (or elimination grew
    past _MAX_ROWS), so that an integer point may or may not exist.
    """
    current: dict[tuple, int] = {}
    for coeffs, const in rows + [(((v, 1),), 0) for v in vars_]:
        current[coeffs] = min(const, current.get(coeffs, const))
    levels = []
    for v in reversed(vars_):
        if current.get((), 0) < 0:
            return None
        lower, upper, rest = [], [], {}
        for coeffs, const in current.items():
            a = dict(coeffs).get(v, 0)
            if a:
                (lower if a > 0 else upper).append((a, dict(coeffs), const))
            else:
                rest[coeffs] = const
        if len(rest) + len(lower) * len(upper) > _MAX_ROWS:
            return _STUCK
        for al, lc, lk in lower:
            for au, uc, uk in upper:
                # -au * (lower row) + al * (upper row) has no v left
                combined = {w: -au * lc.get(w, 0) + al * uc.get(w, 0)
                            for w in lc.keys() | uc.keys() if w != v}
                coeffs, const = _row(combined, -au * lk + al * uk)
                rest[coeffs] = min(const, rest.get(coeffs, const))
        levels.append((v, lower, upper))
        current = rest
    if current.get((), 0) < 0:
        return None
    point: dict[str, int] = {}
    for v, lower, upper in reversed(levels):
        # each row as a * v + r >= 0, with r known
        rs = [(a, k + sum(b * point[w] for w, b in c.items() if w != v))
              for a, c, k in lower + upper]
        point[v] = max(-(r // a) for a, r in rs if a > 0)
        if any(a * point[v] + r < 0 for a, r in rs if a < 0):
            return _STUCK
    return point


def _witness(vars_: list[str], breaks) -> dict[str, int] | None:
    """The first point of the 0..WITNESS_HI box, in lexicographic order,
    where `breaks` holds; None when there is none or the box is too big."""
    if (WITNESS_HI + 1) ** len(vars_) > WITNESS_POINTS:
        return None
    box = itertools.product(range(WITNESS_HI + 1), repeat=len(vars_))
    return next((env for env in (dict(zip(vars_, p)) for p in box) if breaks(env)), None)


def _refute(pre: tuple[LinConstraint, ...], systems: list[tuple[LinConstraint, ...]],
            vars_: list[str]) -> Verdict:
    """Whether some nonnegative integer point of pre satisfies one of the
    systems, each a conjunction of LinConstraints, on the affine relaxation
    `_halfspaces` gives.  Verified (farkas) when every system is empty,
    Violated at the least point found where every fact holds, non-affine
    ones included, and otherwise Unverified with why."""
    hyps = _halfspaces(pre)
    points = [_solve(hyps + _halfspaces(system), vars_) for system in systems]
    if all(pt is None for pt in points):
        return Verdict.verified("farkas")
    found = sorted(tuple(pt[v] for v in vars_) for pt, system in zip(points, systems)
                   if pt is not None and pt is not _STUCK
                   and all(c.holds(pt) for c in (*pre, *system)))
    if found:
        return Verdict.violated(dict(zip(vars_, found[0])))
    if any(pt is _STUCK for pt in points):
        return Verdict.unverified("elimination stuck, no integer witness found")
    return Verdict.unverified("the point found breaks a fact that is not affine")


def constraint_verdict(goal: LinConstraint, context: tuple[LinConstraint, ...]) -> Verdict:
    """Whether every nonnegative integer point of the context satisfies the
    goal, whatever its degree: `_refute` over the goal's negations, with no
    box search, so a sum's guard costs one elimination per negation."""
    vars_ = sorted(goal.variables().union(*(c.variables() for c in context)))
    return _refute(context, [(LinConstraint(goal.lhs, rel),) for rel in _NEGATIONS[goal.rel]],
                   vars_)


def entails_leq(lhs: SymExpr, rhs: SymExpr, pre: tuple[LinConstraint, ...] = ()) -> Verdict:
    """Decide lhs <= rhs under the preconditions, three-valued.

    First the coefficient criterion: each lhs alternative must be
    coefficient-dominated by some rhs alternative, which proves the bound
    on the whole nonnegative orthant.  The clause fails exactly where some
    lhs alternative p admits a point of pre and p - q > 0 for every rhs
    alternative q.  `_refute` decides that on its affine part whatever the
    degrees, exactly when every difference is affine.  What stays open goes
    to the witness search; without a witness the verdict is `_refute`'s.
    """
    if all(any(_dominates(q, p) for q in rhs.alts) for p in lhs.alts):
        return Verdict.verified("coefficient")
    vars_ = sorted(lhs.variables() | rhs.variables() | set().union(*(c.variables() for c in pre)))
    verdict = _refute(pre, [tuple(LinConstraint(p - q, ">") for q in rhs.alts)
                            for p in lhs.alts], vars_)
    if verdict.kind != VerdictKind.UNVERIFIED:
        return verdict
    witness = _witness(vars_, lambda env: all(c.holds(env) for c in pre)
                       and lhs.eval(env) > rhs.eval(env))
    return verdict if witness is None else Verdict.violated(witness)


def integer_valued(e: SymExpr) -> bool:
    """True when every alternative takes integer values on all of N^k.

    By Polya, a polynomial is integer-valued exactly when its coefficients
    in the binomial basis prod C(x, k_x) are integers, and those are fixed,
    as integer combinations, by its values on the box 0..deg_x in each
    variable x; so that box decides.
    """
    for p in e.alts:
        if all(c.denominator == 1 for _, c in p.terms):
            continue
        vars_ = sorted(p.variables())
        degs = [max(exp for m, _ in p.terms for w, exp in m if w == v) for v in vars_]
        for point in itertools.product(*(range(d + 1) for d in degs)):
            if p.eval(dict(zip(vars_, point))).denominator != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Rendering.  Output stays inside the surface expression syntax: powers as
# repeated multiplication, rational coefficients as a trailing /denominator.

def _mono_to_str(m: Monomial) -> str:
    factors = []
    for var, exp in m:
        factors.extend([var] * exp)
    return "*".join(factors)


def poly_to_str(p: Poly) -> str:
    den, (terms,) = integral(p)
    parts: list[str] = []
    for c, m in terms:
        mono = _mono_to_str(m)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    text = " ".join(parts) or "0"
    return text if den == 1 else f"({text})/{den}"


def symexpr_to_str(e: SymExpr) -> str:
    if len(e.alts) == 1:
        return poly_to_str(e.alts[0])
    return "max(" + ", ".join(poly_to_str(p) for p in e.alts) + ")"
