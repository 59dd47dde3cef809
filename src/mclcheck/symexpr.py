"""Symbolic bound arithmetic for the consumption checker.

Every quantity the checker manipulates is a SymExpr: a finite set of
polynomials over named integer variables, read as their pointwise maximum.
Variables stand for nonnegative integer quantities (parameters, array
lengths, loop indices), and that assumption is what licenses dominance
pruning and the coefficient entailment criterion below.  Coefficients are
exact rationals so that closed-form interval sums lose nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

DEFAULT_DEGREE_CAP = 4

# Flags mark results whose value can no longer be trusted as an upper bound.
FLAG_MONOTONICITY = "monotonicity-unproven"
FLAG_SUM_GUARD = "sum-guard-unproven"
FLAG_NONRECT_SPACE = "nonrectangular-space"
FLAG_BAD_ARG = "unanalyzable-arg"
FLAG_SPACE_MISMATCH = "iteration-space-mismatch"


class DegreeOverflow(Exception):
    """Raised when an operation would exceed the configured degree cap."""


class UnboundedSpace(Exception):
    """Raised when an iteration space lacks a finite lower or upper bound."""


class GridTooLarge(Exception):
    """Raised when an entailment grid would enumerate too many points."""


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


def _dominates(q: Poly, p: Poly) -> bool:
    # q >= p over the nonnegative orthant whenever every coefficient of
    # q - p is nonnegative.  Sufficient, not complete.
    return (q - p).coeffs_nonneg()


def _prune(alts: tuple[Poly, ...]) -> tuple[Poly, ...]:
    uniq = sorted(set(alts), key=lambda p: p.terms)
    kept = [p for p in uniq if not any(q is not p and q != p and _dominates(q, p) for q in uniq)]
    return tuple(kept)


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
        v = self.lhs.eval(env)
        if self.rel == "<=":
            return v <= 0
        if self.rel == "<":
            return v < 0
        if self.rel == "==":
            return v == 0
        if self.rel == ">=":
            return v >= 0
        return v > 0

    def variables(self) -> set[str]:
        return self.lhs.variables()

    def __str__(self) -> str:
        return f"{poly_to_str(self.lhs)} {self.rel} 0"


@dataclass(frozen=True)
class SymExpr:
    """max of finitely many polynomials, with soundness bookkeeping.

    `flags` mark values that are no longer certified upper bounds (for
    example a maximization whose monotonicity argument failed); `guards`
    carry affine side conditions under which the value is exact.
    """

    alts: tuple[Poly, ...]
    flags: frozenset[str] = frozenset()
    guards: tuple[LinConstraint, ...] = ()

    @staticmethod
    def of(*polys: Poly | int | Fraction, flags=frozenset(), guards=()) -> SymExpr:
        alts = _prune(tuple(_as_poly(p) for p in polys)) or (ZERO,)
        return SymExpr(alts, frozenset(flags), tuple(guards))

    def with_flags(self, *extra: str) -> SymExpr:
        return SymExpr(self.alts, self.flags | set(extra), self.guards)

    def degree(self) -> int:
        return max(p.degree() for p in self.alts)

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


def _merged_meta(*exprs: SymExpr) -> tuple[frozenset[str], tuple[LinConstraint, ...]]:
    flags = frozenset().union(*(e.flags for e in exprs))
    guards: list[LinConstraint] = []
    for e in exprs:
        for g in e.guards:
            if g not in guards:
                guards.append(g)
    return flags, tuple(guards)


def _check_degree(alts, cap: int) -> None:
    for p in alts:
        if p.degree() > cap:
            raise DegreeOverflow(f"degree {p.degree()} exceeds cap {cap}: {poly_to_str(p)}")


def add(a: SymExpr, b: SymExpr, degree_cap: int = DEFAULT_DEGREE_CAP) -> SymExpr:
    """Pointwise sum: max(A) + max(B) = max over pairs of (p + q)."""
    flags, guards = _merged_meta(a, b)
    alts = tuple(p + q for p in a.alts for q in b.alts)
    _check_degree(alts, degree_cap)
    return SymExpr(_prune(alts), flags, guards)


def sym_sum(exprs) -> SymExpr:
    """Sum of any number of expressions, zero for none."""
    total = SYM_ZERO
    for e in exprs:
        total = add(total, e)
    return total


def sym_max(a: SymExpr, b: SymExpr) -> SymExpr:
    """Pointwise maximum: union the alternatives and prune dominated ones."""
    flags, guards = _merged_meta(a, b)
    return SymExpr(_prune(a.alts + b.alts), flags, guards)


def substitute(e: SymExpr, binding: dict[str, Poly], degree_cap: int = DEFAULT_DEGREE_CAP) -> SymExpr:
    """Substitute polynomials for variables in every alternative."""
    alts = tuple(p.substitute(binding) for p in e.alts)
    _check_degree(alts, degree_cap)
    return SymExpr(_prune(alts), e.flags, e.guards)


@dataclass(frozen=True)
class IterSpace:
    """A loop index together with affine constraints that bound it."""

    var: str
    constraints: tuple[LinConstraint, ...]

    def interval(self) -> tuple[Poly, Poly, frozenset[str]]:
        """Extract lo/hi bounds on the index; extra constraints get flagged.

        Only unit-coefficient bounds are interpreted.  When several lower
        or upper bounds are present we keep the first one and flag the
        space, which downgrades any clause that relies on it.
        """
        lowers: list[Poly] = []
        uppers: list[Poly] = []
        flags: set[str] = set()
        for c in self.constraints:
            if c.lhs.degree() > 1:
                flags.add(FLAG_NONRECT_SPACE)
                continue
            split = c.lhs.split_on(self.var)
            coeff = split.get(1, ZERO)
            rest = split.get(0, ZERO)
            if not coeff.is_const():
                flags.add(FLAG_NONRECT_SPACE)
                continue
            a = coeff.const_value() if not coeff.is_zero() else Fraction(0)
            if a == 0:
                continue  # pure context constraint on outer variables
            rels = [(c.rel, a)]
            if c.rel == "==":
                rels = [("<=", a), (">=", a)]
            for rel, acoef in rels:
                # a*v + rest REL 0, with integer v: normalize strict forms.
                if rel in ("<", "<="):
                    bound = -rest
                    if rel == "<":
                        bound = bound - ONE
                    if acoef == 1:
                        uppers.append(bound)
                    elif acoef == -1:
                        lowers.append(-bound)
                    else:
                        flags.add(FLAG_NONRECT_SPACE)
                elif rel in (">", ">="):
                    bound = -rest
                    if rel == ">":
                        bound = bound + ONE
                    if acoef == 1:
                        lowers.append(bound)
                    elif acoef == -1:
                        uppers.append(-bound)
                    else:
                        flags.add(FLAG_NONRECT_SPACE)
        if not lowers:
            raise UnboundedSpace(f"no lower bound for {self.var}")
        if not uppers:
            raise UnboundedSpace(f"no upper bound for {self.var}")
        if len(lowers) > 1 or len(uppers) > 1:
            flags.add(FLAG_NONRECT_SPACE)
        lo, hi = lowers[0], uppers[0]
        if self.var in lo.variables() or self.var in hi.variables():
            raise UnboundedSpace(f"self-referential bound for {self.var}")
        return lo, hi, frozenset(flags)

    @staticmethod
    def interval_space(var: str, lo: Poly, hi: Poly) -> IterSpace:
        return IterSpace(var, (
            LinConstraint.compare(lo, "<=", Poly.var(var)),
            LinConstraint.compare(Poly.var(var), "<=", hi),
        ))


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


def _sum_poly(p: Poly, var: str, lo: Poly, hi: Poly, degree_cap: int) -> Poly:
    closed = ZERO
    lom1 = lo - ONE
    for exp, rest in p.split_on(var).items():
        s = _power_sum(exp)
        piece = s.substitute({"_x": hi}) - s.substitute({"_x": lom1})
        closed = closed + rest * piece
    if closed.degree() > degree_cap:
        raise DegreeOverflow(f"summation degree {closed.degree()} exceeds cap {degree_cap}")
    return closed


def constraint_entailed(goal: LinConstraint, context: tuple[LinConstraint, ...],
                        lo: int = 0, hi: int = 8, max_points: int = 200_000) -> bool:
    """Check `context implies goal` for affine facts.

    Fast path: a goal of the form poly >= 0 with nonnegative coefficients
    holds outright on the nonnegative orthant.  Otherwise enumerate the
    grid; the goal and context are affine, so grid success is conclusive
    on the modeled domain.
    """
    if goal.rel == ">=" and (goal.lhs).coeffs_nonneg() and goal.lhs.degree() <= 1:
        return True
    if goal.rel == "<=" and (-goal.lhs).coeffs_nonneg() and goal.lhs.degree() <= 1:
        return True
    vars_ = sorted(goal.variables() | set().union(*(c.variables() for c in context), set()))
    if not vars_:
        return goal.holds({})
    span = hi - lo + 1
    if span ** len(vars_) > max_points:
        return False
    for point in itertools.product(range(lo, hi + 1), repeat=len(vars_)):
        env = dict(zip(vars_, point))
        if all(c.holds(env) for c in context) and not goal.holds(env):
            return False
    return True


def sum_over(e: SymExpr, space: IterSpace, context: tuple[LinConstraint, ...] = (),
             degree_cap: int = DEFAULT_DEGREE_CAP) -> SymExpr:
    """Closed form of sum over the space of e, via power-sum formulas.

    With concrete endpoints the result is exact, including the empty sum.
    With symbolic endpoints the closed form is only valid when the space
    is nonempty-or-adjacent (lo <= hi+1); that guard is discharged from
    the context when possible, clamped away when the summand and lower
    bound are coefficient-nonnegative, and otherwise left on the result.
    """
    lo, hi, spflags = space.interval()
    summand = _dominating_poly(e)
    closed = _sum_poly(summand, space.var, lo, hi, degree_cap)
    flags = e.flags | spflags
    guards = e.guards

    if lo.is_const() and hi.is_const():
        if hi.const_value() < lo.const_value():
            return SymExpr.of(ZERO, flags=flags, guards=guards)
        return SymExpr.of(closed, flags=flags, guards=guards)

    guard = LinConstraint.compare(lo, "<=", hi + ONE)
    if constraint_entailed(guard, context):
        return SymExpr.of(closed, flags=flags, guards=guards)
    if summand.coeffs_nonneg() and lo.coeffs_nonneg():
        # Empty spaces only subtract: max with 0 restores exactness.
        return SymExpr.of(closed, ZERO, flags=flags, guards=guards)
    return SymExpr.of(closed, flags=flags | {FLAG_SUM_GUARD}, guards=guards + (guard,))


def max_over(e: SymExpr, space: IterSpace, context: tuple[LinConstraint, ...] = (),
             degree_cap: int = DEFAULT_DEGREE_CAP) -> SymExpr:
    """Upper bound for max over the space of e by endpoint substitution.

    Alternatives monotone in the index (index coefficients all of one
    sign) are evaluated at the matching endpoint.  Mixed signs fall back
    to both endpoints and mark the result monotonicity-unproven, since an
    interior maximum could exceed either endpoint.
    """
    lo, hi, spflags = space.interval()
    flags = set(e.flags) | set(spflags)
    if lo.is_const() and hi.is_const() and hi.const_value() < lo.const_value():
        return SymExpr.of(ZERO, flags=flags, guards=e.guards)
    cands: list[Poly] = []
    for p in e.alts:
        split = p.split_on(space.var)
        idx_coeffs = [c for exp, rest in split.items() if exp > 0 for _, c in rest.terms]
        if not idx_coeffs:
            cands.append(p)
        elif all(c >= 0 for c in idx_coeffs):
            cands.append(p.substitute({space.var: hi}))
        elif all(c <= 0 for c in idx_coeffs):
            cands.append(p.substitute({space.var: lo}))
        else:
            cands.append(p.substitute({space.var: lo}))
            cands.append(p.substitute({space.var: hi}))
            flags.add(FLAG_MONOTONICITY)
    _check_degree(cands, degree_cap)
    return SymExpr.of(*cands, flags=flags, guards=e.guards)


def count(spaces: list[IterSpace], context: tuple[LinConstraint, ...] = (),
          degree_cap: int = DEFAULT_DEGREE_CAP) -> SymExpr:
    """Number of points in a nest of iteration spaces, outermost first."""
    result = SymExpr.of(ONE)
    for i in range(len(spaces) - 1, -1, -1):
        outer = tuple(c for sp in spaces[:i] for c in sp.constraints) + tuple(context)
        result = sum_over(result, spaces[i], outer, degree_cap)
    return result


@dataclass(frozen=True)
class GridConfig:
    lo: int = 0
    hi: int = 8
    max_points: int = 1_000_000


class VerdictKind:
    VERIFIED = "Verified"
    VIOLATED = "Violated"
    UNVERIFIED = "Unverified"


@dataclass(frozen=True)
class Verdict:
    kind: str
    method: str | None = None       # coefficient | grid-affine | grid
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


def entails_leq(lhs: SymExpr, rhs: SymExpr, pre: tuple[LinConstraint, ...] = (),
                grid: GridConfig = GridConfig()) -> Verdict:
    """Decide lhs <= rhs under the preconditions, three-valued.

    First the coefficient criterion: each lhs alternative must be
    coefficient-dominated by some rhs alternative, which proves the bound
    on the whole nonnegative orthant.  Failing that, enumerate the grid of
    precondition-satisfying points.  A falsifying point is a Violated
    witness.  A clean affine sweep counts as Verified; a clean non-affine
    sweep is reported distinctly as grid-verified only.
    """
    if all(any(_dominates(q, p) for q in rhs.alts) for p in lhs.alts):
        return Verdict.verified("coefficient")

    vars_ = sorted(lhs.variables() | rhs.variables() | set().union(*(c.variables() for c in pre), set()))
    if not vars_:
        return (Verdict.verified("coefficient") if lhs.eval({}) <= rhs.eval({})
                else Verdict.violated({}))
    span = grid.hi - grid.lo + 1
    if span ** len(vars_) > grid.max_points:
        raise GridTooLarge(f"{len(vars_)} variables over {span} values exceed {grid.max_points} points")

    any_point = False
    for point in itertools.product(range(grid.lo, grid.hi + 1), repeat=len(vars_)):
        env = dict(zip(vars_, point))
        if not all(c.holds(env) for c in pre):
            continue
        any_point = True
        if lhs.eval(env) > rhs.eval(env):
            return Verdict.violated(env)
    if not any_point:
        return Verdict.unverified("no grid point satisfies the preconditions")
    affine = all(p.degree() <= 1 for p in lhs.alts + rhs.alts)
    return Verdict.verified("grid-affine" if affine else "grid")


def integer_valued_on_grid(e: SymExpr, grid: GridConfig = GridConfig()) -> bool:
    """True when every alternative takes integer values on the grid."""
    vars_ = sorted(e.variables())
    if not vars_:
        return all(p.eval({}).denominator == 1 for p in e.alts)
    span = grid.hi - grid.lo + 1
    if span ** len(vars_) > grid.max_points:
        raise GridTooLarge(f"{len(vars_)} variables over {span} values exceed {grid.max_points} points")
    for point in itertools.product(range(grid.lo, grid.hi + 1), repeat=len(vars_)):
        env = dict(zip(vars_, point))
        if any(p.eval(env).denominator != 1 for p in e.alts):
            return False
    return True


# ---------------------------------------------------------------------------
# Rendering.  Output stays inside the surface expression syntax: powers as
# repeated multiplication, rational coefficients as a trailing /denominator.

def _term_sort_key(item):
    m, _ = item
    return (-_mono_degree(m), m)


def _mono_to_str(m: Monomial) -> str:
    factors = []
    for var, exp in m:
        factors.extend([var] * exp)
    return "*".join(factors)


def _int_poly_to_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in sorted(p.terms, key=_term_sort_key):
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
    return " ".join(parts)


def poly_to_str(p: Poly) -> str:
    denom = 1
    for _, c in p.terms:
        denom = denom * c.denominator // _gcd(denom, c.denominator)
    if denom == 1:
        return _int_poly_to_str(p)
    scaled = p.scale(denom)
    return f"({_int_poly_to_str(scaled)})/{denom}"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def symexpr_to_str(e: SymExpr) -> str:
    if len(e.alts) == 1:
        return poly_to_str(e.alts[0])
    return "max(" + ", ".join(poly_to_str(p) for p in e.alts) + ")"
