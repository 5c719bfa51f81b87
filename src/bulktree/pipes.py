"""Dual representations of concave costs: atomic-level weights and pipe schedules.

A pipe (sigma, delta) charges sigma + delta*x per unit length for x flow; a
schedule's lower envelope min_k(sigma_k + delta_k x) is a concave nondecreasing
cost.  A weight vector over atomic levels converts to a schedule as

    delta_k = sum of weights at levels >= the k-th used level,
    sigma_k = sum over earlier used levels j of weight_j * 2^j,

plus a final flat pipe (rate 0) at the total plateau value.  The inverse
reads each breakpoint between consecutive pipes as an atomic level, which is
only possible when every breakpoint is a power of two; callers hitting the
breakpoint error must regularize (rotate) first.

All arithmetic here is exact: values are converted to Fractions on entry
(floats convert to their exact binary value), so power-of-two breakpoint
tests can never be corrupted by drift.

Key threshold quantities for a schedule, given the separation constant
GAMMA = 1/4 (gamma in the formulas below):

    capacity     u_k = sigma_k / delta_k   (balance point of pipe k's two terms)
    indifference g_k with  sigma_k + delta_k g = sigma_{k+1} + delta_{k+1} g
    significance b_k with  sigma_{k+1} + delta_{k+1} b = 2 gamma (sigma_k + delta_k b)

The flat pipe has unbounded capacity, reported as None, and so is a
significance point that does not exist.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping

__all__ = [
    "GAMMA",
    "AlphaVector",
    "Pipe",
    "PipeSchedule",
    "Thresholds",
    "RegularityCheck",
    "alpha_to_pipes",
    "pipes_to_alpha",
    "thresholds",
    "indifference_point",
    "significance_point",
    "is_gamma_regular",
    "as_fraction",
    "is_power_of_two",
]


# The separation constant gamma of the oracle, an adaptation of Guha, Meyerson
# and Munagala (2001).  Its guarantee holds for any one fixed gamma in
# (0, 1/2), so gamma is a constant, not a setting; 1/4 is the value the solver
# has always run with.
GAMMA = Fraction(1, 4)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational) or isinstance(x, (int, float)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def is_power_of_two(x: Fraction) -> bool:
    """True for 2^j with integer j >= 0."""
    return x > 0 and x.denominator == 1 and (x.numerator & (x.numerator - 1)) == 0


@dataclass(frozen=True)
class AlphaVector:
    """Nonnegative weights on atomic levels 0..log2(D); zero entries are dropped."""

    alpha: Mapping[int, Fraction]
    D: int

    def __post_init__(self):
        if self.D < 1 or (self.D & (self.D - 1)) != 0:
            raise ValueError(f"D must be a power of two, got {self.D}")
        top = self.D.bit_length() - 1
        cleaned: dict[int, Fraction] = {}
        for lvl, val in self.alpha.items():
            if not isinstance(lvl, int) or lvl < 0 or lvl > top:
                raise ValueError(f"level {lvl} outside 0..{top}")
            f = as_fraction(val)
            if f < 0:
                raise ValueError(f"weight at level {lvl} must be >= 0")
            if f > 0:
                cleaned[lvl] = f
        if not cleaned:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "alpha", dict(sorted(cleaned.items())))

    def levels(self) -> tuple[int, ...]:
        """Used levels in ascending order (the map p(k))."""
        return tuple(self.alpha)

    def schedule(self) -> PipeSchedule:
        """``alpha_to_pipes(self)``, derived at most once and kept."""
        sched = self.__dict__.get("_schedule")
        if sched is None:
            sched = alpha_to_pipes(self)
            object.__setattr__(self, "_schedule", sched)
        return sched

    def value(self, x) -> Fraction:
        xf = as_fraction(x)
        return sum((a * min(xf, Fraction(1 << i)) for i, a in self.alpha.items()), Fraction(0))


@dataclass(frozen=True)
class Pipe:
    fixed: Fraction   # sigma
    rate: Fraction    # delta

    def __post_init__(self):
        object.__setattr__(self, "fixed", as_fraction(self.fixed))
        object.__setattr__(self, "rate", as_fraction(self.rate))

    def cost(self, x: Fraction) -> Fraction:
        return self.fixed + self.rate * x


@dataclass(frozen=True)
class PipeSchedule:
    pipes: tuple[Pipe, ...]

    def __post_init__(self):
        ps = tuple(self.pipes)
        object.__setattr__(self, "pipes", ps)
        if not ps:
            raise ValueError("schedule must have at least one pipe")
        for p in ps:
            if p.fixed < 0 or p.rate < 0:
                raise ValueError("pipe parameters must be >= 0")
        for a, b in zip(ps, ps[1:]):
            if b.fixed < a.fixed or b.rate > a.rate:
                raise ValueError("pipes must have nondecreasing fixed and nonincreasing rate")

    def value(self, x) -> Fraction:
        xf = as_fraction(x)
        return min(p.cost(xf) for p in self.pipes)


def make_schedule(pairs) -> PipeSchedule:
    return PipeSchedule(tuple(Pipe(s, d) for s, d in pairs))


def alpha_to_pipes(a: AlphaVector) -> PipeSchedule:
    """Schedule whose lower envelope equals the weighted atomic sum at every x in [0, D]."""
    rate = sum(a.alpha.values(), Fraction(0))  # suffix sum of the weights
    fixed = Fraction(0)  # prefix sum of weight * 2^level
    pipes = []
    for lvl, w in a.alpha.items():
        pipes.append(Pipe(fixed, rate))
        rate -= w
        fixed += w * (1 << lvl)
    pipes.append(Pipe(fixed, Fraction(0)))
    return PipeSchedule(tuple(pipes))


def indifference_point(a: Pipe, b: Pipe) -> Fraction:
    """Flow at which pipes a (steeper) and b cost the same."""
    if a.rate <= b.rate:
        raise ValueError("indifference needs strictly decreasing rates")
    return (b.fixed - a.fixed) / (a.rate - b.rate)


def pipes_to_alpha(p: PipeSchedule, D: int | None = None) -> AlphaVector:
    """Invert alpha_to_pipes.  Requires sigma_0 = 0, a final flat pipe, and
    every breakpoint between consecutive pipes a power of two."""
    ps = p.pipes
    if ps[0].fixed != 0:
        raise ValueError("first pipe must have fixed cost 0")
    if ps[-1].rate != 0:
        raise ValueError("schedule must end with a flat pipe (rate 0)")
    if len(ps) == 1:
        raise ValueError("flat-only schedule carries no positive weight")
    for a, b in zip(ps, ps[1:]):
        if not (a.rate > b.rate and a.fixed < b.fixed):
            raise ValueError("pipes must strictly decrease in rate and increase in fixed cost")
    breaks = [indifference_point(a, b) for a, b in zip(ps, ps[1:])]
    for g0, g1 in zip(breaks, breaks[1:]):
        if not g0 < g1:
            raise ValueError("breakpoints must be strictly increasing (some pipe is never cheapest)")
    alpha: dict[int, Fraction] = {}
    for k, g in enumerate(breaks):
        if not is_power_of_two(g):
            raise ValueError(f"breakpoint not a power of 2: pipe {k} meets pipe {k + 1} at {g}")
        alpha[g.numerator.bit_length() - 1] = ps[k].rate - ps[k + 1].rate
    top = max(alpha)
    if D is None:
        D = 1 << top
    if (1 << top) > D:
        raise ValueError(f"breakpoint {1 << top} exceeds D={D}")
    out = AlphaVector(alpha=alpha, D=D)
    # alpha_to_pipes(out) rebuilds p exactly: with sigma_0 = 0 and a flat last
    # pipe, the suffix sums of the rate drops are the rates and the prefix
    # sums of drop * breakpoint are the fixed costs.
    object.__setattr__(out, "_schedule", p)
    return out


@dataclass(frozen=True)
class Thresholds:
    """Capacity, indifference, and significance points of a schedule.

    capacities has one entry per pipe (None for the flat pipe: unbounded);
    indifference and significance have one entry per adjacent pipe pair.  A
    significance entry is None where ``significance_point`` finds none, which
    no gamma-regular schedule has, since delta_{k+1} < gamma * delta_k there.
    """

    capacities: tuple
    indifference: tuple
    significance: tuple


def significance_point(a: Pipe, b: Pipe) -> Fraction | None:
    """Flow at which pipe b costs 2*GAMMA times pipe a, or None when
    2*GAMMA*delta_a - delta_b <= 0 and no such flow exists."""
    den = 2 * GAMMA * a.rate - b.rate
    if den <= 0:
        return None
    return (b.fixed - 2 * GAMMA * a.fixed) / den


def thresholds(p: PipeSchedule) -> Thresholds:
    """The schedule's threshold table; see ``Thresholds`` for its None entries."""
    caps = tuple(None if pipe.rate == 0 else pipe.fixed / pipe.rate for pipe in p.pipes)
    pairs = list(zip(p.pipes, p.pipes[1:]))
    return Thresholds(
        capacities=caps,
        indifference=tuple(indifference_point(a, b) for a, b in pairs),
        significance=tuple(significance_point(a, b) for a, b in pairs),
    )


@dataclass(frozen=True)
class RegularityCheck:
    ok: bool
    index: int | None = None
    constraint: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_gamma_regular(a: AlphaVector) -> RegularityCheck:
    """Check delta_{k+1} < GAMMA*delta_k and sigma_k < GAMMA*sigma_{k+1} on the
    converted schedule; reports the first violated pair."""
    ps = a.schedule().pipes
    for k in range(len(ps) - 1):
        if not ps[k + 1].rate < GAMMA * ps[k].rate:
            return RegularityCheck(False, k, "rate")
        if not ps[k].fixed < GAMMA * ps[k + 1].fixed:
            return RegularityCheck(False, k, "fixed")
    return RegularityCheck(True)
