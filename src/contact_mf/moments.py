"""Pair-correlation dynamics of the additive field, truncated and reduced.

Let F_t(u) = E[value(O) * value(u)] for the field of `bcpp` on the full
lattice, started from all ones.  Working out the jump and decay
contributions gives a closed linear system dF/dt = A F with

    (A F)(u) = -2*lam*F(u) + (lam/d) * sum over lattice neighbors u' of F(u'),
    (A F)(O) = (1 - lam)*F(O) + 2*lam*F(e1),

where hyperoctahedral symmetry has already folded every vertex onto its
canonical class.  The system is truncated to the sup-norm ball of a given
radius with absorbing boundary (classes outside contribute 0).

The same truncation applied to the walk module's Dirichlet solve h gives a
vector with a special role: with b = (lam - 1 - 2*lam*h(e1)) / (lam + 1),
the combination L = h + b satisfies A L = 0 exactly on interior rows
(the origin row cancels by the choice of b; rows adjacent to the absorbing
boundary pick up -b*lam*(dropped neighbors)/d, which is <= 0 when b > 0).
So L/b dominates F_t for all time whenever b > 0, turning the evolved
correlations into rigorous survival lower bounds for finite seed sets.
A caller builds the generator and L once and hands both to the checks;
build_stationary takes h from walk.absorbing_solve, on the generator's
classes in the generator's order (both read one cached class table), and
b and the closed-form floor from analytics.
A is self-adjoint once classes are weighted by their orbit sizes, so h
comes from conjugate gradients and F_t from a Chebyshev expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import second_moment_survival_bound, stationary_offset
from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import canonicalize, class_neighbor_table, origin, unit_vector
from .walk import absorbing_solve

__all__ = [
    "CorrelationGenerator",
    "CorrelationState",
    "evolve_correlations",
    "StationaryVector",
    "build_stationary",
    "StationaryReport",
    "stationary_residual",
    "verify_stationary",
    "PairBoundRow",
    "second_moment_bound_check",
]

CHEBYSHEV_TAIL = 1e-15          # expansion stops once its coefficient tail is below
CHEBYSHEV_MAX_RHO = 10.0        # longest stage: its rounding grows by at most e^(0.8*rho)
STATIONARY_TOL_INTERIOR = 1e-8  # gate on |A L| over interior rows
STATIONARY_TOL_ORIGIN = 1e-12   # gate on |A L| at the origin row
PAIR_BOUND_TOL = 1e-6           # pair-bound slack for rounding and the solvers' error


class CorrelationGenerator:
    """Matrix-free action of the pair-correlation generator on class vectors.

    Vectors are indexed by canonical classes with sup-norm <= radius-1
    (the order of lattice.class_neighbor_table); classes at sup-norm >=
    radius are absorbed to zero.
    """

    def __init__(self, lam: float, d: int, radius: int):
        if not (lam > 0):
            raise UsageError(f"infection rate must be positive, got {lam}")
        if d < 1 or radius < 2:
            raise UsageError(f"need d >= 1 and radius >= 2, got d={d}, radius={radius}")
        self.lam = lam
        self.d = d
        self.radius = radius
        classes, index, nbr = class_neighbor_table(d, radius - 1)
        self.classes = classes
        self.index = index
        self.n = len(classes)
        # slot n holds the absorbed exterior value 0
        self._nbr_idx = np.where(nbr < 0, self.n, nbr)
        self.o = index[origin(d)]
        self.e1 = index[unit_vector(d)]
        # canonical classes are nonincreasing, so the sup-norm is the first entry
        self._sup = np.asarray(classes, dtype=np.int64).reshape(self.n, d)[:, 0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if vec.shape != (self.n,):
            raise UsageError(f"vector length {vec.shape} != class count {self.n}")
        ext = np.append(vec, 0.0)
        out = (self.lam / self.d) * ext[self._nbr_idx].sum(axis=1) - (2.0 * self.lam) * vec
        out[self.o] = (1.0 - self.lam) * vec[self.o] + 2.0 * self.lam * vec[self.e1]
        return out


@dataclass
class CorrelationState:
    """F values over canonical classes at one point in time."""

    generator: CorrelationGenerator
    values: np.ndarray
    time: float

    def value(self, vertex) -> float:
        """F at a pair separation; separations beyond the truncation read 0."""
        c = canonicalize(vertex)
        i = self.generator.index.get(c)
        return float(self.values[i]) if i is not None else 0.0


def evolve_correlations(gen: CorrelationGenerator, t_end: float) -> CorrelationState:
    """F_t = exp(t A) 1, by a Chebyshev expansion on A's Gershgorin interval.

    A is self-adjoint in the inner product weighted by
    lattice.class_orbit_sizes, so its spectrum is real and inside
    [-4*lam, 1 + lam].  There exp(t A) = e^{t(1+lam)} * sum_k c_k T_k(X),
    with X = A shifted and scaled onto [-1, 1], rho = t*(5*lam + 1)/2 and
    c_k = e^-rho I_k(rho), doubled for k >= 1.  The sum stops once a bound
    on its coefficient tail is below CHEBYSHEV_TAIL.  t is cut into equal
    stages of rho <= CHEBYSHEV_MAX_RHO: a stage's sum is scaled by
    e^{dt(1+lam)} while F(O) shrinks no faster than e^{dt(1-lam)}, so its
    rounding grows by up to e^{2*lam*dt} < e^{0.8*rho} against F(O).
    Raises NumericalError if F overflows.
    """
    if not (0 <= t_end < math.inf):
        raise UsageError(f"t_end must be finite and >= 0, got {t_end}")
    lam = gen.lam
    center, half_width = (1.0 - 3.0 * lam) / 2.0, (1.0 + 5.0 * lam) / 2.0
    stages = math.ceil(t_end * half_width / CHEBYSHEV_MAX_RHO)   # 0 when t_end = 0
    dt = t_end / max(stages, 1)
    rho = dt * half_width
    # e^-rho I_k(rho) = (1/pi) int_0^pi e^{rho(cos s - 1)} cos(ks) ds by the
    # midpoint rule, whose aliasing starts far past where they reach 1e-16
    nodes = 2 * math.ceil(rho) + 64
    s = (np.arange(nodes) + 0.5) * (math.pi / nodes)
    coef = np.cos(np.outer(np.arange(nodes), s)) @ np.exp(rho * (np.cos(s) - 1.0)) / nodes
    coef[1:] *= 2.0
    # I_{k+1}(rho)/I_k(rho) < rho/(2k+2), so past k = rho each coefficient is
    # under half the one before and twice the next one bounds the tail (a
    # plain sum of the rest would add up the quadrature's rounding noise)
    k = np.arange(len(coef) - 1)
    degree = max(1, int(np.argmax((k >= rho) & (2.0 * coef[1:] < CHEBYSHEV_TAIL))))
    growth = math.exp(dt * (1.0 + lam))

    def scaled(v: np.ndarray) -> np.ndarray:   # X v
        return (gen.apply(v) - center * v) / half_width

    values = np.ones(gen.n)
    for _ in range(stages):
        prev, cur = values, scaled(values)
        total = coef[0] * prev + coef[1] * cur
        for c in coef[2:degree + 1]:
            prev, cur = cur, 2.0 * scaled(cur) - prev
            total += c * cur
        values = growth * total
    if not np.isfinite(values).all():
        raise NumericalError(
            f"correlation evolution overflowed at lam={lam}, radius={gen.radius}; reduce t"
        )
    return CorrelationState(generator=gen, values=values, time=t_end)


@dataclass(frozen=True)
class StationaryVector:
    """L = h + b over the generator's classes, with its building blocks."""

    values: np.ndarray
    offset: float        # b
    hitting_e1: float    # truncated h at e1, the matched normalization
    positive: bool       # offset > 0, i.e. the bound machinery has teeth


def build_stationary(gen: CorrelationGenerator) -> StationaryVector:
    """L = h + b, with h the Dirichlet solve on the generator's classes."""
    _, h = absorbing_solve(gen.d, gen.radius)
    h_e1 = float(h[gen.e1])
    b = stationary_offset(gen.lam, h_e1)
    return StationaryVector(
        values=h + b, offset=b, hitting_e1=h_e1, positive=b > 0,
    )


@dataclass(frozen=True)
class StationaryReport:
    sup_interior: float      # max |A L| over classes with sup-norm <= radius//2, O excluded
    origin_row: float        # |A L| at O, cancels algebraically
    sup_boundary: float      # max |A L| elsewhere; -b*lam*n_out/d leakage lives here
    interior_radius: int


def stationary_residual(gen: CorrelationGenerator, sv: StationaryVector) -> StationaryReport:
    resid = np.abs(gen.apply(sv.values))
    interior_radius = gen.radius // 2
    interior = gen._sup <= interior_radius
    interior[gen.o] = False
    rest = ~interior
    rest[gen.o] = False
    return StationaryReport(
        sup_interior=float(resid[interior].max()) if interior.any() else 0.0,
        origin_row=float(resid[gen.o]),
        sup_boundary=float(resid[rest].max()) if rest.any() else 0.0,
        interior_radius=interior_radius,
    )


def verify_stationary(gen: CorrelationGenerator, sv: StationaryVector) -> StationaryReport:
    """Check A L = 0 where it must hold, with sv = build_stationary(gen);
    raise InvariantViolation if not.

    Interior rows inherit the Dirichlet solver's equation residual scaled
    by 2*lam; the origin row cancels in exact arithmetic, so anything
    beyond rounding noise there means the offset b or the generator row
    is wrong.  Boundary rows are reported but not gated (their leakage
    is a truncation fact, not a bug).
    """
    report = stationary_residual(gen, sv)
    if report.sup_interior > STATIONARY_TOL_INTERIOR:
        raise InvariantViolation(
            f"stationary vector fails interior rows: sup residual "
            f"{report.sup_interior:.3e} > {STATIONARY_TOL_INTERIOR:.1e}"
        )
    if report.origin_row > STATIONARY_TOL_ORIGIN:
        raise InvariantViolation(
            f"origin-row cancellation off: {report.origin_row:.3e} > "
            f"{STATIONARY_TOL_ORIGIN:.1e}"
        )
    return report


@dataclass(frozen=True)
class PairBoundRow:
    set_size: int
    lhs: float           # sum of F_t over pairs from the seed segment
    rhs: float           # same sum bounded through L/b with h -> h(e1)
    cs_bound: float      # size^2 / lhs, the Cauchy-Schwarz survival floor at time t
    closed_bound: float  # size^2 * b / rhs numerator, the t -> infinity closed form


def second_moment_bound_check(
    gen: CorrelationGenerator,
    sv: StationaryVector,
    t: float,
    max_set_size: int,
) -> list[PairBoundRow]:
    """Evolve gen's F to time t and check the bound chain, with sv =
    build_stationary(gen), on axis segments.

    Seed sets are A = {0, e1, 2*e1, ...} of each size up to max_set_size.
    For each, lhs = sum_{u,v in A} F_t(u - v) must stay below
    rhs = [(n^2 - n)(h(e1) + b) + n(1 + b)] / b  (up to PAIR_BOUND_TOL for
    rounding and the evolution's truncation), and size^2/lhs must dominate the
    closed-form floor.  Raises NumericalError when b <= 0 (the machinery
    is vacuous there — larger d or smaller lam needed),
    InvariantViolation when an inequality fails.
    """
    if max_set_size < 1:
        raise UsageError(f"max_set_size must be >= 1, got {max_set_size}")
    if max_set_size >= gen.radius:
        raise UsageError(
            f"segment of size {max_set_size} does not fit inside radius {gen.radius}"
        )
    if not sv.positive:
        raise NumericalError(
            f"offset b = {sv.offset:.6f} <= 0 at lam={gen.lam}, d={gen.d} (truncated "
            f"h(e1) = {sv.hitting_e1:.6f}): the second-moment bound is vacuous here"
        )
    state = evolve_correlations(gen, t)
    h1 = sv.hitting_e1
    b = sv.offset
    f_origin = state.value(origin(gen.d))
    e1 = unit_vector(gen.d)
    rows = []
    for size in range(1, max_set_size + 1):
        lhs = size * f_origin
        for k in range(1, size):
            sep = tuple(k * c for c in e1)
            lhs += 2.0 * (size - k) * state.value(sep)
        numerator = (size * size - size) * (h1 + b) + size * (1.0 + b)
        rhs = numerator / b
        cs_bound = size * size / lhs
        closed = size * size * b / numerator
        lemma = second_moment_survival_bound(gen.lam, h1, size)
        if lhs > rhs + PAIR_BOUND_TOL:
            raise InvariantViolation(
                f"pair-sum bound violated for size {size}: lhs {lhs:.9f} > "
                f"rhs {rhs:.9f} + {PAIR_BOUND_TOL:.1e}"
            )
        if cs_bound < closed - PAIR_BOUND_TOL:
            raise InvariantViolation(
                f"survival floor out of order for size {size}: "
                f"{cs_bound:.9f} < {closed:.9f} - {PAIR_BOUND_TOL:.1e}"
            )
        if abs(closed - lemma.value) > 1e-10:
            raise InvariantViolation(
                f"closed form departs from the survival-floor formula: "
                f"{closed!r} vs {lemma.value!r}"
            )
        rows.append(PairBoundRow(size, lhs, rhs, cs_bound, closed))
    return rows
