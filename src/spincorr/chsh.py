"""CHSH quantity S and deterministic violation search over detector angles.

S combines four joint and two single-spin probabilities,

    S = P[x1, x2] - P[x1, x2'] + P[x1', x2] + P[x1', x2']
        - P[x1', -] - P[-, x2],

all read from the closed-form module for the chosen model.  Local
hidden-variable theories confine S to [-1, 0]; any value outside that
interval counts as a violation, in either direction.

The search minimizes S.  Both joint laws and the marginals are first
harmonics in each angle, so with the first angles fixed the best second
angles have a closed form, and vice versa.  A grid over the first angles,
with the second ones solved exactly in each cell, picks the start of an
exact see-saw that alternates the two pairs until S stops decreasing.
Everything is deterministic; repeated runs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .closed_form import CorrelationModel, joint, marginal
from .kinematics import Speed

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AngleQuad:
    """Measurement angles (radians): unprimed and primed pair per particle."""

    chi1: float
    chi2: float
    chi1p: float
    chi2p: float

    def __post_init__(self) -> None:
        for name in ("chi1", "chi2", "chi1p", "chi2p"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"angle {name} = {value!r} is not finite")
            object.__setattr__(self, name, value)

    @classmethod
    def from_degrees(cls, chi1: float, chi2: float, chi1p: float, chi2p: float) -> "AngleQuad":
        return cls(*(math.radians(a) for a in (chi1, chi2, chi1p, chi2p)))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.chi1, self.chi2, self.chi1p, self.chi2p)

    def degrees(self) -> tuple[float, float, float, float]:
        return tuple(math.degrees(a) for a in self.as_tuple())

    def degrees_mod_360(self) -> tuple[float, float, float, float]:
        return tuple(math.degrees(a) % 360.0 for a in self.as_tuple())


# Finest coarse grid (0.25 degrees); a search then peaks near 95 MB.
MAX_GRID_SIZE = 1440


@dataclass(frozen=True)
class SearchSettings:
    """Deterministic search profile.

    The coarse step must divide 360 degrees into at most MAX_GRID_SIZE
    angles.  It sets the grid over (x1, x1'), at least three angles each;
    (x2, x2') and every see-saw step are solved exactly, so the step is the
    only setting.
    """

    grid_step_deg: float = 5.0

    def __post_init__(self) -> None:
        step = float(self.grid_step_deg)
        if not (math.isfinite(step) and 0.0 < step <= 360.0):
            raise ValueError(f"grid step must be in (0, 360], got {self.grid_step_deg!r}")
        ratio = 360.0 / step   # inf for a subnormal step, so bounded before round()
        if ratio > MAX_GRID_SIZE + 0.5:
            raise ValueError(f"grid step {step!r} is below {360.0 / MAX_GRID_SIZE!r} degrees")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"grid step {step!r} does not divide 360 degrees")
        object.__setattr__(self, "grid_step_deg", step)

    @property
    def grid_size(self) -> int:
        return round(360.0 / self.grid_step_deg)


@dataclass(frozen=True)
class ChshResult:
    """One evaluated (or searched) CHSH point.

    ``terms`` stores the six probabilities in the order joint(x1,x2),
    joint(x1,x2'), joint(x1',x2), joint(x1',x2'), marginal1(x1'),
    marginal2(x2); recombining them with signs (+,-,+,+,-,-) reproduces
    ``s_value`` exactly.
    """

    beta: float
    model: CorrelationModel
    angles: AngleQuad
    terms: tuple[float, float, float, float, float, float]
    s_value: float
    violated: bool

    def recombine(self) -> float:
        t = self.terms
        return t[0] - t[1] + t[2] + t[3] - t[4] - t[5]


def is_violation(s: float) -> bool:
    """Outside the local-hidden-variable interval [-1, 0], either side."""
    return s < -1.0 or s > 0.0


def s_value(model: CorrelationModel, speed: Speed, quad: AngleQuad) -> ChshResult:
    """Evaluate the six-term CHSH combination at one angle quadruple."""
    terms = (
        float(joint(model, speed, quad.chi1, quad.chi2)),
        float(joint(model, speed, quad.chi1, quad.chi2p)),
        float(joint(model, speed, quad.chi1p, quad.chi2)),
        float(joint(model, speed, quad.chi1p, quad.chi2p)),
        float(marginal(model, speed, 1, quad.chi1p)),
        float(marginal(model, speed, 2, quad.chi2)),
    )
    s = terms[0] - terms[1] + terms[2] + terms[3] - terms[4] - terms[5]
    return ChshResult(
        beta=speed.beta,
        model=model,
        angles=quad,
        terms=terms,
        s_value=s,
        violated=is_violation(s),
    )


def _fourier_rows(grid: np.ndarray) -> np.ndarray:
    """Rows turning c0 + c cos(x) + s sin(x) at >= 3 equispaced ``grid`` angles into (c0, c, s)."""
    return np.array([np.ones_like(grid), 2.0 * np.cos(grid), 2.0 * np.sin(grid)]) / grid.size


# Three angles are the fewest that fix a first harmonic; they also serve as
# the coarse grid when the step leaves fewer than three grid angles.
_PROBES = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
_FOURIER = _fourier_rows(_PROBES)


def _coarse_minimum(model: CorrelationModel, speed: Speed, settings: SearchSettings):
    """Grid argmin over (x1, x1'), with (x2, x2') set to their exact minimizers.

    For fixed (x1, x1') the x2 and x2' contributions separate:
    S = g(x2) + h(x2') - m1(x1'), with g = P(x1,.) + P(x1',.) - m2 and
    h = P(x1',.) - P(x1,.).  Both are first harmonics c0 + v.(cos, sin), so
    each has minimum c0 - |v|, and g0 + h0 depends on x1' alone.  The outer
    grid has at least three angles, so the harmonics of the square ``joint``
    table's rows are exact.  The cell totals are formed in place, in three
    n x n buffers.  Ties go to the lexicographically smallest (x1, x1').
    Time and memory are quadratic in grid size.
    """
    n = settings.grid_size
    grid = np.radians(np.arange(n) * settings.grid_step_deg) if n >= 3 else _PROBES
    fourier = _fourier_rows(grid)
    c0, c, s = fourier @ joint(model, speed, grid[:, None], grid[None, :]).T   # of P(x_i, .)
    m20, m2c, m2s = fourier @ marginal(model, speed, 2, grid)
    m1 = marginal(model, speed, 1, grid)
    gc0, gs0 = c - m2c, s - m2s
    g, h, scratch = np.empty((3, grid.size, grid.size))   # [i, k]
    _hypot_into(np.add.outer(c, gc0, out=g), np.add.outer(s, gs0, out=scratch))
    _hypot_into(np.subtract.outer(c, c, out=h), np.subtract.outer(s, s, out=scratch))   # |-h|
    total = np.subtract(2.0 * c0 - m20 - m1, g, out=g)
    total -= h
    i, k = divmod(int(np.argmin(total)), grid.size)   # first occurrence on ties
    x2 = math.atan2(-(s[i] + gs0[k]), -(c[i] + gc0[k]))
    x2p = math.atan2(-(s[k] - s[i]), -(c[k] - c[i]))
    return AngleQuad(grid[i], x2 % TWO_PI, grid[k], x2p % TWO_PI)


def _hypot_into(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sqrt(x*x + y*y) written over ``x``; ``y`` is overwritten too."""
    x *= x
    y *= y
    x += y
    return np.sqrt(x, out=x)


def _lowest(values: np.ndarray) -> tuple[float, float]:
    """Minimizing angle in [0, 2 pi) and minimum of the harmonic through ``values``."""
    c0, c, s = _FOURIER @ values
    return math.atan2(-s, -c) % TWO_PI, c0 - math.hypot(c, s)


def _value_at(values: np.ndarray, x: float) -> float:
    """The harmonic through ``values``, evaluated at angle ``x``."""
    c0, c, s = _FOURIER @ values
    return c0 + c * math.cos(x) + s * math.sin(x)


def _see_saw(model: CorrelationModel, speed: Speed, start: AngleQuad) -> AngleQuad:
    """Alternate exact minimization over (x2, x2') and (x1, x1') from ``start``.

    With (x1, x1') fixed, S = g(x2) + h(x2') - m1(x1'), and with (x2, x2')
    fixed, S = k(x1) + l(x1') - m2(x2); every one of g, h, k, l is a first
    harmonic, so each half sweep sets its two angles to their exact minimizers.
    S never increases.  A harmonic can be flat (h vanishes whenever
    x1 = x1'), so a sweep may make a level move off a saddle that the next
    sweep descends from; the sweeps therefore stop after two in a row fail
    to lower S, and the best quadruple seen is returned.
    """
    x1, x2, x1p, x2p = start.as_tuple()
    best, best_s = start, s_value(model, speed, start).s_value
    stalled = 0
    while stalled < 2:
        p1, p1p = joint(model, speed, np.array([[x1], [x1p]]), _PROBES)   # (2, 3), never square
        m2 = marginal(model, speed, 2, _PROBES)
        x2, _ = _lowest(p1 + p1p - m2)
        x2p, _ = _lowest(p1p - p1)
        q2, q2p = joint(model, speed, _PROBES[:, None], np.array([x2, x2p])).T   # (3, 2)
        x1, k_min = _lowest(q2 - q2p)
        x1p, l_min = _lowest(q2 + q2p - marginal(model, speed, 1, _PROBES))
        s = k_min + l_min - _value_at(m2, x2)
        if s < best_s:
            best, best_s, stalled = AngleQuad(x1, x2, x1p, x2p), s, 0
        else:
            stalled += 1
    return best


def search_violation(
    model: CorrelationModel, speed: Speed, settings: SearchSettings | None = None
) -> ChshResult:
    """Minimize S over all angle quadruples: coarse grid, then see-saw."""
    settings = settings or SearchSettings()
    coarse = _coarse_minimum(model, speed, settings)
    return s_value(model, speed, _see_saw(model, speed, coarse))


def beta_scan(
    model: CorrelationModel,
    speeds: Sequence[Speed] | Iterable[Speed],
    settings: SearchSettings | None = None,
) -> list[ChshResult]:
    """One violation search per speed, in input order."""
    speeds = list(speeds)
    if not speeds:
        raise ValueError("beta_scan needs at least one speed")
    return [search_violation(model, speed, settings) for speed in speeds]


def violation_fraction(results: Sequence[ChshResult]) -> float:
    """Fraction of scan rows whose best S leaves the [-1, 0] interval."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.violated) / len(results)


SCAN_CSV_COLUMNS = (
    "beta",
    "model",
    "chi1_deg",
    "chi2_deg",
    "chi1p_deg",
    "chi2p_deg",
    "S",
    "violated",
)

TERM_NAMES = (
    "joint_11",
    "joint_12p",
    "joint_1p2",
    "joint_1p2p",
    "marginal_1p",
    "marginal_2",
)


def scan_csv(results: Sequence[ChshResult]) -> str:
    """Render scan rows as CSV; floats use repr so parsing round-trips exactly."""
    lines = [",".join(SCAN_CSV_COLUMNS)]
    for r in results:
        degs = r.angles.degrees_mod_360()
        cells = [repr(r.beta), r.model.value]
        cells += [repr(a) for a in degs]
        cells += [repr(r.s_value), "true" if r.violated else "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def scan_json_payload(results: Sequence[ChshResult]) -> list[dict]:
    """JSON mirror of the CSV rows, with the six per-term probabilities."""
    payload = []
    for r in results:
        degs = r.angles.degrees_mod_360()
        payload.append(
            {
                "beta": r.beta,
                "model": r.model.value,
                "angles_deg": {
                    "chi1": degs[0],
                    "chi2": degs[1],
                    "chi1p": degs[2],
                    "chi2p": degs[3],
                },
                "terms": dict(zip(TERM_NAMES, r.terms)),
                "S": r.s_value,
                "violated": r.violated,
            }
        )
    return payload
