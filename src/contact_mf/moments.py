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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import second_moment_survival_bound
from .errors import InvariantViolation, NumericalError, UsageError
from .lattice import canonicalize, class_neighbor_table, origin, unit_vector
from .walk import _absorbing_solve, stationary_offset

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

_BLOWUP_LIMIT = 1e12


class CorrelationGenerator:
    """Matrix-free action of the pair-correlation generator on class vectors.

    Vectors are indexed by canonical classes with sup-norm <= radius-1
    (the order of lattice.canonical_classes); classes at sup-norm >=
    radius are absorbed to zero.
    """

    def __init__(self, lam: float, d: int, radius: int):
        if lam <= 0:
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

    def matched_hitting(self, tol: float = 1e-10) -> np.ndarray:
        """Dirichlet h on the same classes with the same absorbing radius."""
        classes, h = _absorbing_solve(self.d, self.radius, tol)
        if classes != self.classes:
            raise InvariantViolation("Dirichlet solve and generator disagree on class order")
        return h


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


def evolve_correlations(
    gen: CorrelationGenerator,
    t_end: float,
    dt: float | None = None,
) -> CorrelationState:
    """Integrate dF/dt = A F from F = 1 with classic fourth-order steps.

    The default step 0.05/lam keeps |eigenvalue|*dt around 0.2, far
    inside the stability region, so step size is accuracy-driven.
    """
    if t_end < 0:
        raise UsageError(f"t_end must be >= 0, got {t_end}")
    if dt is None:
        dt = 0.05 / gen.lam
    if dt <= 0:
        raise UsageError(f"dt must be positive, got {dt}")
    values = np.ones(gen.n)
    steps = max(1, math.ceil(t_end / dt)) if t_end > 0 else 0
    h = t_end / steps if steps else 0.0
    apply = gen.apply
    for _ in range(steps):
        k1 = apply(values)
        k2 = apply(values + 0.5 * h * k1)
        k3 = apply(values + 0.5 * h * k2)
        k4 = apply(values + h * k3)
        values = values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        peak = float(np.abs(values).max())
        if not math.isfinite(peak) or peak > _BLOWUP_LIMIT:
            raise NumericalError(
                f"correlation evolution blew up (|F| ~ {peak:.3g}) at "
                f"lam={gen.lam}, radius={gen.radius}; reduce t or dt"
            )
    return CorrelationState(generator=gen, values=values, time=t_end)


@dataclass(frozen=True)
class StationaryVector:
    """L = h + b over the generator's classes, with its building blocks."""

    values: np.ndarray
    offset: float        # b
    hitting_e1: float    # truncated h at e1, the matched normalization
    positive: bool       # offset > 0, i.e. the bound machinery has teeth


def build_stationary(gen: CorrelationGenerator, tol: float = 1e-10) -> StationaryVector:
    h = gen.matched_hitting(tol)
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


def verify_stationary(
    gen: CorrelationGenerator,
    sv: StationaryVector | None = None,
    tol_interior: float = 1e-8,
    tol_origin: float = 1e-12,
) -> StationaryReport:
    """Check A L = 0 where it must hold; raise InvariantViolation if not.

    Interior rows inherit the Dirichlet solver's equation residual scaled
    by 2*lam; the origin row cancels in exact arithmetic, so anything
    beyond rounding noise there means the offset b or the generator row
    is wrong.  Boundary rows are reported but not gated (their leakage
    is a truncation fact, not a bug).
    """
    if sv is None:
        sv = build_stationary(gen)
    report = stationary_residual(gen, sv)
    if report.sup_interior > tol_interior:
        raise InvariantViolation(
            f"stationary vector fails interior rows: sup residual "
            f"{report.sup_interior:.3e} > {tol_interior:.1e}"
        )
    if report.origin_row > tol_origin:
        raise InvariantViolation(
            f"origin-row cancellation off: {report.origin_row:.3e} > {tol_origin:.1e}"
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
    lam: float,
    d: int,
    radius: int,
    t: float,
    max_set_size: int,
    dt: float | None = None,
    tol: float = 1e-6,
) -> list[PairBoundRow]:
    """Evolve F to time t and check the bound chain on axis segments.

    Seed sets are A = {0, e1, 2*e1, ...} of each size up to max_set_size.
    For each, lhs = sum_{u,v in A} F_t(u - v) must stay below
    rhs = [(n^2 - n)(h(e1) + b) + n(1 + b)] / b  (up to `tol` for rounding
    and integrator error), and size^2/lhs must dominate the closed-form
    floor.  Raises NumericalError when b <= 0 (the machinery is vacuous
    there — larger d or smaller lam needed), InvariantViolation when an
    inequality fails.
    """
    if max_set_size < 1:
        raise UsageError(f"max_set_size must be >= 1, got {max_set_size}")
    if max_set_size >= radius:
        raise UsageError(
            f"segment of size {max_set_size} does not fit inside radius {radius}"
        )
    gen = CorrelationGenerator(lam, d, radius)
    sv = build_stationary(gen)
    if not sv.positive:
        raise NumericalError(
            f"offset b = {sv.offset:.6f} <= 0 at lam={lam}, d={d} (truncated "
            f"h(e1) = {sv.hitting_e1:.6f}): the second-moment bound is vacuous here"
        )
    state = evolve_correlations(gen, t, dt)
    h1 = sv.hitting_e1
    b = sv.offset
    f_origin = state.value(origin(d))
    e1 = unit_vector(d)
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
        lemma = second_moment_survival_bound(lam, h1, size)
        if lhs > rhs + tol:
            raise InvariantViolation(
                f"pair-sum bound violated for size {size}: lhs {lhs:.9f} > "
                f"rhs {rhs:.9f} + {tol:.1e}"
            )
        if cs_bound < closed - tol:
            raise InvariantViolation(
                f"survival floor out of order for size {size}: "
                f"{cs_bound:.9f} < {closed:.9f} - {tol:.1e}"
            )
        if abs(closed - lemma.value) > 1e-10:
            raise InvariantViolation(
                f"closed form departs from the survival-floor formula: "
                f"{closed!r} vs {lemma.value!r}"
            )
        rows.append(PairBoundRow(size, lhs, rhs, cs_bound, closed))
    return rows
