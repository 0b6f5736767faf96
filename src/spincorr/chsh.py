"""CHSH quantity S and deterministic violation search over detector angles.

S combines four joint and two single-spin probabilities,

    S = P[x1, x2] - P[x1, x2'] + P[x1', x2] + P[x1', x2']
        - P[x1', -] - P[-, x2],

all read from the closed-form module for the chosen model.  Local
hidden-variable theories confine S to [-1, 0]; any value outside that
interval counts as a violation, in either direction.

The search minimizes S: an exhaustive coarse grid (made cheap by splitting
the six terms into two parts that share only the primed/unprimed first
angles) followed by an exact see-saw from the best cell.  Both joint laws
and the marginals are first harmonics in each angle, so with the first
angles fixed the best second angles have a closed form, and vice versa; the
see-saw alternates the two until S stops decreasing.  Everything is
deterministic; repeated runs give bit-identical results.
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


@dataclass(frozen=True)
class SearchSettings:
    """Deterministic search profile.

    The coarse step must divide 360 degrees.  Refinement is an exact
    see-saw from the best grid cell and runs until S stops decreasing, so
    the grid step is the only setting.
    """

    grid_step_deg: float = 5.0

    def __post_init__(self) -> None:
        step = float(self.grid_step_deg)
        if not (math.isfinite(step) and 0.0 < step <= 360.0):
            raise ValueError(f"grid step must be in (0, 360], got {self.grid_step_deg!r}")
        ratio = 360.0 / step
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


# Bytes of one block of the cubic part arrays in _coarse_minimum: small
# enough that both blocks stay in a core's cache, so a search neither streams
# n^3 arrays through memory nor maps fresh pages for them.
_GRID_BLOCK_BYTES = 1 << 19


def _coarse_minimum(model: CorrelationModel, speed: Speed, settings: SearchSettings):
    """Exact 4D grid argmin, decomposed so the work is cubic in grid size.

    For fixed (x1, x1') the x2 and x2' contributions separate:
    S = [P(x1,x2) + P(x1',x2) - m2(x2)] + [P(x1',x2') - P(x1,x2') - m1(x1')].
    Ties are broken toward the lexicographically smallest (x1,x2,x1',x2').
    The two n^3 parts are filled a block of x1 rows at a time, so memory is
    quadratic in grid size; min and argmin are exact, so blocking does not
    change the result.
    """
    n = settings.grid_size
    grid = np.radians(np.arange(n) * settings.grid_step_deg)
    p = joint(model, speed, grid[:, None], grid[None, :])
    m1 = np.asarray(marginal(model, speed, 1, grid), dtype=float)
    m2 = np.asarray(marginal(model, speed, 2, grid), dtype=float)

    best_j = np.empty((n, n), dtype=np.intp)
    best_l = np.empty((n, n), dtype=np.intp)
    total = np.empty((n, n))
    block = max(1, min(n, _GRID_BLOCK_BYTES // (n * n * p.itemsize)))
    buffer_a, buffer_b = np.empty((block, n, n)), np.empty((block, n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        part_a, part_b, p_i = buffer_a[: hi - lo], buffer_b[: hi - lo], p[lo:hi, None, :]
        np.add(p_i, p, out=part_a)          # [i, k, j]
        part_a -= m2
        np.subtract(p, p_i, out=part_b)     # [i, k, l]
        part_b -= m1[:, None]
        part_a.argmin(axis=2, out=best_j[lo:hi])   # first occurrence = smallest j on ties
        part_b.argmin(axis=2, out=best_l[lo:hi])
        total[lo:hi] = part_a.min(axis=2) + part_b.min(axis=2)

    rows, cols = np.indices((n, n))
    first = np.lexsort([a.ravel() for a in (best_l, cols, best_j, rows, total)])[0]
    i, k = divmod(int(first), n)
    return AngleQuad(grid[i], grid[best_j[i, k]], grid[k], grid[best_l[i, k]])


# A first harmonic c0 + c cos(x) + s sin(x) is fixed by its values at three
# equally spaced angles; rows of _FOURIER turn those values into (c0, c, s).
_PROBES = np.array([0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0])
_FOURIER = np.array([np.full(3, 1.0), 2.0 * np.cos(_PROBES), 2.0 * np.sin(_PROBES)]) / 3.0


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
        p1, p1p = joint(model, speed, x1, _PROBES), joint(model, speed, x1p, _PROBES)
        m2 = marginal(model, speed, 2, _PROBES)
        x2, _ = _lowest(p1 + p1p - m2)
        x2p, _ = _lowest(p1p - p1)
        q2, q2p = joint(model, speed, _PROBES, x2), joint(model, speed, _PROBES, x2p)
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
