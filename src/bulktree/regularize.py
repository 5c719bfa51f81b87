"""Regularize an atomic-weight vector so its pipe schedule is gamma-separated.

Three stages, applied in fixed order, each with a certified pointwise bound
f(x) <= c * f'(x) on integers x in [1, D]:

  1. cap_capacity    (c = 1):   the last sloped pipe gets capacity
     sigma/delta <= D.  Find the first pipe whose capacity reaches D, drop
     everything above it, and rotate it counter-clockwise around its lower
     breakpoint until its capacity is exactly D; the plateau then starts at D.

  2. regularize_delta (c = 3):  enforce rate_{k+1} < gamma * rate_k.  Where a
     pair violates, delete pipes until the rate has dropped below
     (gamma/3) * rate_k, then rotate pipe k clockwise around its lower
     breakpoint until it meets the survivor at the next power of two above.
     The rotation never cuts rate_k below a third of its old value.  When
     the deletion runs into the plateau the pair is already separated and
     the breakpoint is fixed by raising the plateau instead (f only grows).

  3. regularize_sigma (c = 5/2): enforce fixed_k < gamma * fixed_{k+1},
     scanning from the top pair down.  Where a sloped pair violates, delete
     pipes until the fixed cost below is under (2*gamma/5) * fixed_k, then
     rotate pipe k counter-clockwise around its upper breakpoint until it
     meets the survivor at the largest power of two below; the rotation keeps
     fixed_k >= 2/5 and rate_k <= 8/5 of their old values.  When the violating
     pair is (last sloped pipe, plateau), no rotation of the plateau is
     possible without re-creating the violation; instead the surviving sloped
     pipe's reign is extended to the next power of two and the plateau is
     raised to its cost there, which only increases f on the affected range.

A stage that finds nothing to do returns its input with an empty report, as
rebuilding an unchanged schedule would give the same vector.

Every rotation target is reachable because a power of two always lies in
[g/2, 2g]; all arithmetic is exact rationals, so power-of-two tests and the
in-run proof-claim assertions are exact.  Each stage deletes at least one
pipe per iteration and is capped at 4x the pipe count; exceeding the cap is
an internal error, never a silent fallback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .pipes import (
    GAMMA,
    AlphaVector,
    Pipe,
    PipeSchedule,
    indifference_point,
    is_gamma_regular,
    is_power_of_two,
    pipes_to_alpha,
)

__all__ = [
    "RegularizationReport",
    "StageReport",
    "cap_capacity",
    "regularize",
    "regularize_delta",
    "regularize_sigma",
]


class RegularizationInternalError(RuntimeError):
    """A proof-backed in-run claim failed; indicates an implementation bug."""


@dataclass
class StageReport:
    stage: str
    distortion_bound: Fraction
    pipes_removed: int = 0
    rotations: list[str] = field(default_factory=list)  # the kind of each rotation, in order


@dataclass
class RegularizationReport:
    stages: list

    @property
    def total_f_lower_factor(self) -> Fraction:
        out = Fraction(1)
        for st in self.stages:
            out *= st.distortion_bound
        return out


def _pow2_above(x: Fraction) -> Fraction:
    """Smallest power of two >= x (x >= 1)."""
    _require(x >= 1, "power-of-two target below flow 1")
    return Fraction(1 << (math.ceil(x) - 1).bit_length())


def _pow2_below(x: Fraction) -> Fraction:
    """Largest power of two <= x (x >= 1)."""
    return Fraction(1 << (math.floor(x).bit_length() - 1))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise RegularizationInternalError(msg)


def _rebuild(pipes: list[Pipe], D: int) -> AlphaVector:
    return pipes_to_alpha(PipeSchedule(tuple(pipes)), D=D)


def _capped(pipe: Pipe, D: Fraction) -> bool:
    """The capacity cap: a sloped pipe's capacity sigma/delta is at most D."""
    return pipe.rate == 0 or pipe.fixed / pipe.rate <= D


def _through(x0: Fraction, y0: Fraction, survivor: Pipe, x1: Fraction) -> Pipe:
    """The pipe through the anchor (x0, y0) that meets ``survivor`` at flow x1."""
    rate = (survivor.cost(x1) - y0) / (x1 - x0)
    return Pipe(y0 - rate * x0, rate)


def _raise_plateau(pipes: list[Pipe], target: Fraction, D: Fraction, report: StageReport) -> None:
    """Extend the last sloped pipe's reign to ``target`` and raise the plateau
    to its cost there; f only grows, and that pipe's capacity is untouched."""
    _require(target <= D, "raised plateau breakpoint must stay within D")
    new_plateau = Pipe(pipes[-2].cost(target), Fraction(0))
    _require(new_plateau.fixed >= pipes[-1].fixed, "plateau must not drop")
    report.rotations.append("plateau")
    pipes[-1] = new_plateau


def cap_capacity(a: AlphaVector) -> tuple[AlphaVector, StageReport]:
    report = StageReport(stage="cap_capacity", distortion_bound=Fraction(1))
    D = Fraction(a.D)
    pipes = list(a.schedule().pipes)
    k = None
    for idx, p in enumerate(pipes[:-1]):  # sloped pipes only
        if p.fixed / p.rate >= D:
            k = idx
            break
    if k is None:
        return a, report
    _require(k >= 1, "pipe 0 has fixed cost 0 and cannot hit the capacity cap")
    anchor_x = indifference_point(pipes[k - 1], pipes[k])  # lower breakpoint 2^{p(k-1)}
    _require(anchor_x < D, "capped pipe must start strictly below D")
    anchor_y = pipes[k].cost(anchor_x)
    new_rate = anchor_y / (D + anchor_x)
    new_fixed = D * new_rate
    rotated = Pipe(new_fixed, new_rate)
    _require(pipes[k - 1].fixed < new_fixed, "rotation must keep fixed costs increasing")
    _require(new_rate < pipes[k - 1].rate, "rotation must keep rates decreasing")
    report.rotations.append("capacity")
    report.pipes_removed = len(pipes) - (k + 1)
    out = pipes[:k] + [rotated, Pipe(rotated.cost(D), Fraction(0))]
    return _rebuild(out, a.D), report


def regularize_delta(a: AlphaVector) -> tuple[AlphaVector, StageReport]:
    report = StageReport(stage="regularize_delta", distortion_bound=Fraction(3))
    D = Fraction(a.D)
    pipes = list(a.schedule().pipes)
    if not _capped(pipes[-2], D):
        raise ValueError("precondition violated: run cap_capacity first")
    guard = 4 * len(pipes) + 4
    while True:
        guard -= 1
        _require(guard >= 0, "iteration safety cap exceeded in regularize_delta")
        k = next(
            (i for i in range(len(pipes) - 1) if pipes[i + 1].rate >= GAMMA * pipes[i].rate),
            None,
        )
        if k is None:
            break
        m = next(
            i for i in range(k + 1, len(pipes)) if pipes[i].rate < (GAMMA / 3) * pipes[k].rate
        )
        _require(m >= k + 2, "deletion step must remove at least one pipe")
        report.pipes_removed += m - (k + 1)
        survivor = pipes[m]
        del pipes[k + 1 : m]
        anchor_x = Fraction(0) if k == 0 else indifference_point(pipes[k - 1], pipes[k])
        meet = indifference_point(pipes[k], survivor)
        _require(meet > anchor_x, "survivor must meet pipe k above its lower breakpoint")
        if not is_power_of_two(meet):
            target = _pow2_above(meet)
            if survivor.rate == 0:
                # Deletion ran into the plateau, so the rate pair is already
                # separated and only the breakpoint needs fixing.  Raising the
                # plateau keeps pipe k's capacity (hence the stage-1 cap)
                # untouched, which a clockwise rotation of pipe k cannot
                # guarantee.
                _raise_plateau(pipes, target, D, report)
            else:
                _require(target <= D, "rotated breakpoint must stay within D")
                rotated = _through(anchor_x, pipes[k].cost(anchor_x), survivor, target)
                _require(3 * rotated.rate >= pipes[k].rate, "rotation cut the rate below a third")
                _require(survivor.rate < rotated.rate < pipes[k].rate,
                         "rotation broke rate ordering")
                _require(rotated.fixed < survivor.fixed, "rotation broke fixed-cost ordering")
                # survivor is sloped and capped, and the rotated rate exceeds
                # the survivor's, so the rotated pipe's capacity stays within D.
                _require(_capped(rotated, D), "rotation broke the capacity cap")
                report.rotations.append("rate")
                pipes[k] = rotated
        _require(
            pipes[k + 1].rate < GAMMA * pipes[k].rate,
            "pair still violates the rate constraint after rotation",
        )
    if not report.pipes_removed:
        return a, report  # every pass deletes a pipe: the first scan found no pair
    out = _rebuild(pipes, a.D)
    _require(_capped(pipes[-2], D), "capacity cap broken by rate stage")
    return out, report


def regularize_sigma(a: AlphaVector) -> tuple[AlphaVector, StageReport]:
    report = StageReport(stage="regularize_sigma", distortion_bound=Fraction(5, 2))
    D = Fraction(a.D)
    pipes = list(a.schedule().pipes)
    for i in range(len(pipes) - 1):
        if pipes[i + 1].rate >= GAMMA * pipes[i].rate:
            raise ValueError("precondition violated: run regularize_delta first")
    if not _capped(pipes[-2], D):
        raise ValueError("precondition violated: capacity cap does not hold")
    guard = 4 * len(pipes) + 4
    while True:
        guard -= 1
        _require(guard >= 0, "iteration safety cap exceeded in regularize_sigma")
        k = next(
            (
                i
                for i in range(len(pipes) - 1, 0, -1)
                if pipes[i - 1].fixed >= GAMMA * pipes[i].fixed
            ),
            None,
        )
        if k is None:
            break
        lo = next(
            i for i in range(k - 2, -1, -1) if pipes[i].fixed < (2 * GAMMA / 5) * pipes[k].fixed
        )
        _require(lo <= k - 2, "deletion step must remove at least one pipe")
        report.pipes_removed += (k - 1) - lo
        if k == len(pipes) - 1:
            # Violation against the plateau: extend the survivor's reign to the
            # next power of two and raise the plateau to its cost there.  The
            # new pair is separated because
            # fixed_lo < (2g/5) * plateau <= gamma * new plateau.
            del pipes[lo + 1 : k]
            _raise_plateau(pipes, _pow2_above(indifference_point(pipes[-2], pipes[-1])), D, report)
            _require(
                pipes[-2].fixed < GAMMA * pipes[-1].fixed,
                "plateau raise failed to separate fixed costs",
            )
            continue
        upper_x = indifference_point(pipes[k], pipes[k + 1])  # 2^{p(k)}, held fixed
        _require(
            pipes[k].rate * upper_x >= pipes[k].fixed,
            "upper breakpoint below capacity; fixed-above invariant broken",
        )
        survivor = pipes[lo]
        old = pipes[k]
        del pipes[lo + 1 : k]
        ki = lo + 1  # pipe k's index after deletion
        meet = indifference_point(survivor, old)
        _require(meet > 1, "rotated breakpoint would fall below flow 1")
        if not is_power_of_two(meet):
            rotated = _through(upper_x, old.cost(upper_x), survivor, _pow2_below(meet))
            _require(5 * rotated.fixed >= 2 * old.fixed, "rotation cut fixed cost below 2/5")
            _require(5 * rotated.rate <= 8 * old.rate, "rotation grew the rate above 8/5")
            _require(survivor.fixed < rotated.fixed, "rotation broke fixed-cost ordering")
            _require(survivor.rate > rotated.rate, "rotation broke rate ordering")
            _require(
                rotated.rate < GAMMA * survivor.rate, "rotation broke the rate constraint below"
            )
            _require(
                pipes[ki + 1].rate < GAMMA * rotated.rate,
                "rotation broke the rate constraint above",
            )
            report.rotations.append("fixed")
            pipes[ki] = rotated
        _require(
            pipes[ki - 1].fixed < GAMMA * pipes[ki].fixed,
            "pair still violates the fixed-cost constraint",
        )
    if not report.pipes_removed:
        # Every pass deletes a pipe, so the first scan found no pair: with the
        # rate and cap preconditions checked above, a is already regular.
        return a, report
    out = _rebuild(pipes, a.D)
    check = is_gamma_regular(out)
    _require(bool(check), f"sigma stage output not regular: {check}")
    _require(_capped(pipes[-2], D), "capacity cap broken by fixed stage")
    return out, report


def regularize(a: AlphaVector) -> tuple[AlphaVector, RegularizationReport]:
    """cap_capacity, then rate separation, then fixed-cost separation."""
    capped, rep1 = cap_capacity(a)
    rated, rep2 = regularize_delta(capped)
    out, rep3 = regularize_sigma(rated)
    # regularize_sigma has already required its output to be gamma-regular.
    return out, RegularizationReport(stages=[rep1, rep2, rep3])
