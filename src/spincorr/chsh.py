"""CHSH quantity S and deterministic violation search over detector angles.

S combines four joint and two single-spin probabilities,

    S = P[x1, x2] - P[x1, x2'] + P[x1', x2] + P[x1', x2']
        - P[x1', -] - P[-, x2],

all read from the closed-form module for the chosen model.  Local
hidden-variable theories confine S to [-1, 0]; any value outside that
interval counts as a violation, in either direction.

The search minimizes S exactly.  Every joint law is a first harmonic in
each angle, P(x1, x2) = n(x1)^T A n(x2) with n = (1, cos, sin), so one
n x n table of the law fixes the 3 x 3 matrix A, and the in-plane optimum
follows from A in closed form (Horodecki, Horodecki & Horodecki, Phys.
Lett. A 200, 340 (1995)).  Everything is deterministic; repeated runs give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .closed_form import PROBES, CorrelationModel, harmonic_matrix, joint, marginal
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


# Finest sample grid (0.25 degrees); a search then peaks near 61 MB.
MAX_GRID_SIZE = 1440


@dataclass(frozen=True)
class SearchSettings:
    """Deterministic search profile.

    The step must divide 360 degrees into at most MAX_GRID_SIZE angles.  It
    sets only the sample grid (at least three angles) that the search reads
    the law's harmonic matrix from; the search returns the exact in-plane
    optimum, so S is the same at every step up to roundoff.
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


def search_violation(
    model: CorrelationModel, speed: Speed, settings: SearchSettings | None = None
) -> ChshResult:
    """Minimize S over all in-plane angle quadruples, exactly.

    The square ``joint`` table over the sample grid folds to A.  The
    marginal terms cancel from S (each marginal is its defining sum), so
    S = -2 A00 + u(x1).T (u(x2) - u(x2')) + u(x1').T (u(x2) + u(x2')) with
    u = (cos, sin) and T = A[1:, 1:].  With x2 = theta and x2' = -theta the
    two bracketed vectors are 2 sin(theta) T[:, 1] and 2 cos(theta) T[:, 0];
    x1 and x1' point against them, and theta = atan2(|T[:, 1]|, |T[:, 0]|)
    gives the optimum S = -2 A00 - 2 |T|_F.
    """
    settings = settings or SearchSettings()
    n = settings.grid_size
    grid = np.radians(np.arange(n) * settings.grid_step_deg) if n >= 3 else PROBES
    a = harmonic_matrix(joint(model, speed, grid[:, None], grid[None, :]), grid)
    t = a[1:, 1:]   # rows: (cos, sin) of x1; columns: (cos, sin) of x2
    te, tf = t[:, 0], t[:, 1]
    theta = math.atan2(math.hypot(*tf), math.hypot(*te))
    quad = AngleQuad(
        math.atan2(-tf[1], -tf[0]) % TWO_PI, theta, math.atan2(-te[1], -te[0]) % TWO_PI, -theta % TWO_PI
    )
    return s_value(model, speed, quad)


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
