"""Independent numeric rebuild of the correlation intensities.

Two routes, both driven by the Dirac-algebra layer and kept strictly apart
from :mod:`spincorr.closed_form`:

* ``amplitude_polarized`` assembles the two-channel tree amplitude from the
  explicit external spinors and contracts Lorentz indices numerically.
* ``quad_unpolarized`` evaluates the four-term trace expression for the
  initially unpolarized setup verbatim, while ``spin_average_oracle``
  averages the squared amplitude over a complete initial-spin basis.  The
  two are compared against each other because transcribed trace expressions
  are easy to get wrong; the cross check is the arbiter.

All three routes take scalar or array angles.  Scalar angles give a Python
``complex`` or ``float``; arrays broadcast against each other and give an
array of that shape.  Each route is linear in every final spinor and
final adjoint it contains, and each of those is a fixed per-speed linear
map of a measurement two-spinor or of its conjugate (the
:mod:`~spincorr.kinematics` final-spinor maps).  So all of the
angle-independent Dirac algebra (momenta, invariants, initial spinors,
gamma matrices, traces and the channel weights s and t) folds into a small
kernel over the two-spinors.  The kernels are built once per ``Speed``
object and kept while it is alive; a route call, which the fits and the
cross check make once per angle pair, builds only the two two-spinors and
contracts them with a kernel of at most 16 entries.

Both amplitude-level routes return the propagator-cleared combination (the
raw channel denominators are multiplied out).  At fixed speed that is an
angle-independent rescale, absorbed by the fit ``scale``; it keeps the
rest-frame limit finite, where the exchange denominator vanishes.

Angular shapes are then fitted to the closed-form trigonometric templates
with exact linear least squares.  The fit residual on a disjoint validation
grid establishes whether the numeric intensity has the template shape at
all; the fitted-versus-closed-form coefficient table is reported without
being adjudicated.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .closed_form import CorrelationModel, coefficients, unpolarized_coefficients
from .dirac import GAMMA_STACK, METRIC_SIGNS, dirac_adjoint, slash
from .kinematics import (
    Config,
    Speed,
    invariants,
    momenta,
    polarized_final_maps,
    polarized_initial_spinors,
    require_subluminal,
    unpolarized_final_maps,
    unpolarized_initial_basis,
    xi,
    zeta,
)

_SIGNS = np.array(METRIC_SIGNS)
_WEIGHTS = np.outer(_SIGNS, _SIGNS)  # lowers both contracted indices of the trace terms

#: Verdict threshold for fitted-versus-template coefficient agreement.
DEFAULT_COEFF_TOLERANCE = 1e-6

#: Relative residual below which the template shape is considered exact.
TEMPLATE_RESIDUAL_TOLERANCE = 1e-9

FIT_SAMPLE_COUNT = 16
VALIDATION_GRID_N = 24


class FitError(RuntimeError):
    """Raised when the fit design matrix is rank deficient."""


def _point_or_batch(values: np.ndarray, kind: type):
    """A Python ``kind`` for scalar angles, the array for array angles."""
    return kind(values) if np.ndim(values) == 0 else values


def _per_speed(build):
    """Memoize ``build(speed)`` for as long as that ``Speed`` object is alive.

    A fit or a cross check calls a route once per angle pair with one
    ``Speed``; the kernels are built on the first call.
    """
    memo: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def blocks(speed: Speed):
        try:
            return memo[speed]
        except KeyError:
            value = memo[speed] = build(speed)
            return value

    return blocks


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


class _PolarizedBlocks(NamedTuple):
    amplitude: np.ndarray     # (2, 2): axes (conj zeta1, zeta2)


class _UnpolarizedBlocks(NamedTuple):
    amplitudes: np.ndarray    # (2, 2, 2, 2): axes (i, j, conj xi1, xi2)
    trace: np.ndarray         # (2, 2, 2, 2): axes (conj xi1, xi2, conj xi2, xi1)


@_per_speed
def _polarized_blocks(speed: Speed) -> _PolarizedBlocks:
    s, t = invariants(momenta(Config.POLARIZED_AXES, speed))
    u_p1, vbar_p2 = polarized_initial_spinors(speed)
    ubar_k1, v_k2 = polarized_final_maps(speed)
    v_k2 = v_k2.T  # (4, 2): columns act on the two-spinor
    # Vertex values, axes (mu, ...); a final spinor leaves its two-spinor axis.
    final_ann = ubar_k1 @ GAMMA_STACK @ v_k2         # ubar(k1) gamma^mu v(k2)
    initial_ann = vbar_p2 @ GAMMA_STACK @ u_p1       # vbar(p2) gamma^mu u(p1)
    electron = ubar_k1 @ GAMMA_STACK @ u_p1          # ubar(k1) gamma^mu u(p1)
    positron = vbar_p2 @ GAMMA_STACK @ v_k2          # vbar(p2) gamma^mu v(k2)
    annihilation = np.tensordot(_SIGNS * initial_ann, final_ann, axes=1)
    exchange = (_SIGNS[:, np.newaxis] * electron).T @ positron
    amplitude = t * annihilation - s * exchange
    _read_only(amplitude)
    return _PolarizedBlocks(amplitude)


@_per_speed
def _unpolarized_blocks(speed: Speed) -> _UnpolarizedBlocks:
    ms = momenta(Config.UNPOLARIZED_AXES, speed)
    s, t = invariants(ms)
    us, vbars = unpolarized_initial_basis(speed)
    u_k1, v_k2 = unpolarized_final_maps(speed)
    ubar_k1, vbar_k2 = dirac_adjoint(u_k1), dirac_adjoint(v_k2)
    u_k1, v_k2 = u_k1.T, v_k2.T  # (4, 2): columns act on the two-spinor

    # Spin average, axes (i, j, ...): electron basis state i, positron basis state j.
    final_ann = ubar_k1 @ GAMMA_STACK @ v_k2                       # (mu, a, b)
    initial_ann = np.einsum("ja,mab,ib->ijm", vbars, GAMMA_STACK, us)
    electron = ubar_k1 @ GAMMA_STACK @ us.T                        # (mu, a, i)
    positron = vbars @ GAMMA_STACK @ v_k2                          # (mu, j, b)
    annihilation = np.tensordot(_SIGNS * initial_ann, final_ann, axes=1)
    exchange = np.einsum("m,mai,mjb->ijab", _SIGNS, electron, positron)
    amplitudes = t * annihilation - s * exchange

    # Trace expression: b^mu = ubar(k1) gamma^mu v(k2), which is final_ann,
    # and c^sigma = vbar(k2) gamma^sigma u(k1) carry the first three terms,
    # ubar(k1) gamma^mu (m - p1slash) gamma^sigma u(k1) times
    # vbar(k2) gamma^sigma (p2slash + m) gamma^mu v(k2) the fourth.
    eye = np.eye(4, dtype=complex)
    p2_plus = slash(ms.p2) + ms.m * eye
    p1_minus = ms.m * eye - slash(ms.p1)
    trace_1 = np.einsum("sab,bc,mcd,da->sm", GAMMA_STACK, p2_plus, GAMMA_STACK, p1_minus)
    trace_2 = np.einsum("ab,mbc,cd,sda->ms", p2_plus, GAMMA_STACK, p1_minus, GAMMA_STACK)
    trace_3 = np.einsum("mab,bc,scd,da->ms", GAMMA_STACK, p1_minus, GAMMA_STACK, p2_plus)
    c_sigma = vbar_k2 @ GAMMA_STACK @ u_k1                         # (sigma, c, d)
    # One (mu, sigma) weight for terms 1-3; trace_1 is indexed (sigma, mu).
    weights = t * t * (_WEIGHTS * trace_1).T - s * t * _WEIGHTS * (trace_2 + trace_3)
    bilinear_terms = np.tensordot(final_ann, np.tensordot(weights, c_sigma, axes=1), axes=(0, 0))
    gammas = GAMMA_STACK[:, np.newaxis]
    u_block = ubar_k1 @ (gammas @ p1_minus @ GAMMA_STACK) @ u_k1     # (mu, sigma, a, d)
    v_block = vbar_k2 @ (gammas @ p2_plus @ GAMMA_STACK) @ v_k2      # (sigma, mu, c, b)
    fourth_term = np.tensordot(
        _WEIGHTS[:, :, np.newaxis, np.newaxis] * u_block, v_block.transpose(1, 0, 2, 3),
        axes=([0, 1], [0, 1]),
    ).transpose(0, 3, 2, 1)
    trace = bilinear_terms + s * s * fourth_term
    _read_only(amplitudes, trace)
    return _UnpolarizedBlocks(amplitudes, trace)


def amplitude_polarized(speed: Speed, chi1, chi2):
    """Two-channel amplitude of the polarized setup, propagator-cleared.

    Returns t*X - s*Y where X is the annihilation-channel numerator, Y the
    exchange-channel numerator, and (s, t) the channel denominators; this is
    the amplitude X/s - Y/t rescaled by the angle-independent factor s*t.
    Both numerators are bilinear in the final spinors, so the per-speed
    kernel K holds them and the value is conj(zeta(chi1)) K zeta(chi2).
    Scalar angles give a ``complex``; array angles broadcast.
    """
    require_subluminal(speed)
    kernel = _polarized_blocks(speed).amplitude
    value = np.einsum("...a,ab,...b->...", zeta(chi1).conj(), kernel, zeta(chi2))
    return _point_or_batch(value, complex)


def spin_average_oracle(speed: Speed, chi1, chi2):
    """Squared amplitude averaged over the four initial-spin basis states.

    Uses the same propagator-cleared combination as
    :func:`amplitude_polarized`, with the unpolarized-setup momenta and
    final spinors.  Second, independent route to the unpolarized intensity.
    The amplitude for initial basis states (i, j) is
    conj(xi(chi1)) K_ij xi(chi2), with the kernels K_ij built per speed.
    Scalar angles give a ``float``; array angles broadcast.
    """
    require_subluminal(speed)
    kernel = _unpolarized_blocks(speed).amplitudes
    amplitude = np.einsum("...a,ijab,...b->...ij", xi(chi1).conj(), kernel, xi(chi2))
    total = np.add.reduce(abs(amplitude) ** 2, axis=(-2, -1))
    return _point_or_batch(total / 4.0, float)


def quad_unpolarized_complex(speed: Speed, chi1, chi2):
    """Verbatim four-term trace expression, denominators cleared by (s*t)^2.

    The expression is quadratic in each final spinor, so the four terms,
    with their t^2, -st and s^2 weights, fold into one per-speed tensor over
    (conj xi(chi1), xi(chi2), conj xi(chi2), xi(chi1)).  The assembled value
    must come out real; the imaginary part is kept as a numerical
    diagnostic.  Scalar angles give a ``complex``; array angles broadcast.
    """
    require_subluminal(speed)
    kernel = _unpolarized_blocks(speed).trace
    xi1, xi2 = xi(chi1), xi(chi2)
    value = np.einsum("...a,...b,...c,...d,abcd->...", xi1.conj(), xi2, xi2.conj(), xi1, kernel)
    return _point_or_batch(value, complex)


def quad_unpolarized(speed: Speed, chi1, chi2):
    """Real part of :func:`quad_unpolarized_complex`."""
    return quad_unpolarized_complex(speed, chi1, chi2).real


# ----------------------------------------------------------------------
# template fits
# ----------------------------------------------------------------------


def _van_der_corput(index: int, base: int) -> float:
    fraction, value = 1.0, 0.0
    while index > 0:
        fraction /= base
        value += fraction * (index % base)
        index //= base
    return value


def fit_sample_angles(count: int = FIT_SAMPLE_COUNT) -> np.ndarray:
    """Deterministic low-discrepancy angle pairs in [0, 2 pi)^2 (Halton style)."""
    return np.array(
        [
            [2.0 * math.pi * _van_der_corput(i, 2), 2.0 * math.pi * _van_der_corput(i, 3)]
            for i in range(1, count + 1)
        ]
    )


def validation_grid(n: int = VALIDATION_GRID_N) -> tuple[np.ndarray, np.ndarray]:
    """Uniform n x n grid, offset half a cell so it avoids the fit points."""
    axis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return np.meshgrid(axis, axis, indexing="ij")


def _template_value(model: CorrelationModel, coeffs, chi1, chi2):
    """Evaluate a closed-form template shape with the given weights.

    ``coeffs`` is (a, b, c, d) for the polarized two-bracket template and
    (w_sin, w_cos, w_const) for the unpolarized one; angles broadcast.
    """
    half_sum = 0.5 * (np.asarray(chi1) + np.asarray(chi2))
    half_diff = 0.5 * (np.asarray(chi1) - np.asarray(chi2))
    if model is CorrelationModel.POLARIZED:
        a, b, c, d = coeffs
        return (a * np.cos(half_sum) + b * np.sin(half_diff)) ** 2 + (
            c * np.sin(half_sum) + d * np.cos(half_diff)
        ) ** 2
    w_sin, w_cos, w_const = coeffs
    return w_sin * np.sin(half_diff) ** 2 + w_cos * np.cos(half_sum) ** 2 + w_const


@dataclass(frozen=True)
class TrigFit:
    """Result of fitting an oracle's angular shape to a closed-form template.

    ``coefficients`` holds (a, b, c, d) for the polarized two-bracket
    template or (w_sin, w_cos, w_const) for the unpolarized one.
    ``residual`` is the max absolute deviation on the validation grid and
    ``rel_residual`` the same divided by the largest sampled magnitude.
    ``scale`` is the least-squares proportionality constant between the
    fitted coefficients and the closed-form ones; dividing the fitted
    vector by it makes the two directly comparable.
    """

    model: CorrelationModel
    coefficients: tuple[float, ...]
    residual: float
    rel_residual: float
    scale: float

    def evaluate(self, chi1, chi2):
        """Evaluate the fitted template at the given angles."""
        return _template_value(self.model, self.coefficients, chi1, chi2)


def _polarized_design(chi1: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    """Design matrix over the six quadratic monomials a^2, b^2, ab, c^2, d^2, cd."""
    half_sum = 0.5 * (chi1 + chi2)
    half_diff = 0.5 * (chi1 - chi2)
    return np.stack(
        [
            np.cos(half_sum) ** 2,
            np.sin(half_diff) ** 2,
            2.0 * np.cos(half_sum) * np.sin(half_diff),
            np.sin(half_sum) ** 2,
            np.cos(half_diff) ** 2,
            2.0 * np.sin(half_sum) * np.cos(half_diff),
        ],
        axis=-1,
    )


def _reconstruct_brackets(
    monomials: np.ndarray, chi1: np.ndarray, chi2: np.ndarray, values: np.ndarray
) -> tuple[float, float, float, float]:
    """Recover (a, b, c, d) from least-squares quadratic monomial weights.

    The six monomial functions span only five dimensions (the two squared
    brackets share a constant), so the least-squares solution is defined up
    to the null direction (1, -1, 0, 1, -1, 0).  Only null-free combinations
    are read off; the split of a^2+c^2 versus b^2+d^2 between the two roots
    of the consistency quadratic is decided by re-evaluating both candidate
    reconstructions against the samples.  Signs follow the convention
    a >= 0, c >= 0, with b and d taking the signs of the fitted products
    ab and cd.
    """
    total = monomials[0] + monomials[1] + monomials[3] + monomials[4]  # a^2+b^2+c^2+d^2
    delta_ac = monomials[0] - monomials[3]  # a^2 - c^2
    delta_db = monomials[4] - monomials[1]  # d^2 - b^2
    prod_ab = monomials[2]
    prod_cd = monomials[5]

    # s1 = a^2 + c^2 and s2 = b^2 + d^2 solve z^2 - total*z + product = 0.
    product = delta_ac * delta_db + 2.0 * (prod_ab**2 + prod_cd**2)
    disc = math.sqrt(max(total * total - 4.0 * product, 0.0))
    z_hi = 0.5 * (total + disc)
    z_lo = 0.5 * (total - disc)

    floor = 1e-9 * max(abs(total), 1e-300)

    def build(s1: float, s2: float) -> tuple[float, float, float, float]:
        a_sq = max(0.5 * (s1 + delta_ac), 0.0)
        c_sq = max(0.5 * (s1 - delta_ac), 0.0)
        a = math.sqrt(a_sq)
        c = math.sqrt(c_sq)
        # Dividing the fitted products by a (or c) keeps full precision; the
        # square roots of the s2 splits are noise-amplified and only used
        # when the partner weight genuinely vanishes.
        if a_sq > floor:
            b = prod_ab / a
        else:
            b = math.copysign(math.sqrt(max(0.5 * (s2 - delta_db), 0.0)), prod_ab)
        if c_sq > floor:
            d = prod_cd / c
        else:
            d = math.copysign(math.sqrt(max(0.5 * (s2 + delta_db), 0.0)), prod_cd)
        return (a, b, c, d)

    best = None
    for s1, s2 in ((z_hi, z_lo), (z_lo, z_hi)):
        candidate = build(s1, s2)
        fitted = _template_value(CorrelationModel.POLARIZED, candidate, chi1, chi2)
        residual = float(np.max(np.abs(fitted - values)))
        if best is None or residual < best[0]:
            best = (residual, candidate)
    return best[1]


def _unpolarized_design(chi1: np.ndarray, chi2: np.ndarray) -> np.ndarray:
    half_sum = 0.5 * (chi1 + chi2)
    half_diff = 0.5 * (chi1 - chi2)
    return np.stack(
        [np.sin(half_diff) ** 2, np.cos(half_sum) ** 2, np.ones_like(half_sum)], axis=-1
    )


# The fit points, their design matrices and the validation grid are fixed.
_FIT_POINTS = fit_sample_angles()
_read_only(_FIT_POINTS)
_FIT_CHI1, _FIT_CHI2 = _FIT_POINTS.T
_POLARIZED_DESIGN = _polarized_design(_FIT_CHI1, _FIT_CHI2)
_UNPOLARIZED_DESIGN = _unpolarized_design(_FIT_CHI1, _FIT_CHI2)
_VALIDATION_GRID = validation_grid()
_read_only(_POLARIZED_DESIGN, _UNPOLARIZED_DESIGN, *_VALIDATION_GRID)


def _solve_design(design: np.ndarray, sample_fn, min_rank: int):
    """Least squares of the oracle at the fit points; returns (solution, values)."""
    values = np.array([sample_fn(a, b) for a, b in zip(_FIT_CHI1, _FIT_CHI2)])
    solution, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < min_rank:
        raise FitError(f"fit design matrix is rank deficient (rank {rank} < {min_rank})")
    return solution, values


def _projection_scale(fitted: np.ndarray, reference: np.ndarray) -> float:
    denom = float(np.dot(reference, reference))
    return float(np.dot(fitted, reference) / denom) if denom > 0.0 else 0.0


def _finish_fit(model, coeffs, reference, sample_fn) -> TrigFit:
    fit = TrigFit(
        model=model,
        coefficients=tuple(float(c) for c in coeffs),
        residual=0.0,
        rel_residual=0.0,
        scale=_projection_scale(np.asarray(coeffs, dtype=float), np.asarray(reference)),
    )
    grid1, grid2 = _VALIDATION_GRID
    sampled = np.array(
        [sample_fn(a, b) for a, b in zip(grid1.ravel(), grid2.ravel())]
    ).reshape(grid1.shape)
    residual = float(np.max(np.abs(fit.evaluate(grid1, grid2) - sampled)))
    return replace(fit, residual=residual, rel_residual=residual / float(np.max(np.abs(sampled))))


def fit_polarized(speed: Speed) -> TrigFit:
    """Fit |amplitude|^2 of the polarized setup to the two-bracket template.

    Samples the oracle on the deterministic low-discrepancy pairs, solves
    the expanded quadratic-monomial system by exact least squares,
    reconstructs the bracket weights, and validates on a disjoint grid.
    """
    sample = lambda a, b: abs(amplitude_polarized(speed, a, b)) ** 2
    monomials, values = _solve_design(_POLARIZED_DESIGN, sample, min_rank=5)
    coeffs = _reconstruct_brackets(monomials, _FIT_CHI1, _FIT_CHI2, values)
    return _finish_fit(
        CorrelationModel.POLARIZED, coeffs, coefficients(speed).as_tuple(), sample
    )


def fit_unpolarized(speed: Speed) -> TrigFit:
    """Fit the spin-averaged oracle to the three-term unpolarized template."""
    sample = lambda a, b: spin_average_oracle(speed, a, b)
    coeffs, _ = _solve_design(_UNPOLARIZED_DESIGN, sample, min_rank=3)
    return _finish_fit(
        CorrelationModel.UNPOLARIZED, coeffs, unpolarized_coefficients(speed), sample
    )


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Fitted-versus-closed-form coefficient comparison at one speed.

    ``printed`` holds the closed-form template weights and ``fitted`` the
    raw fit output; deviations are taken after dividing the fitted vector
    by ``scale`` and are normalized by the largest closed-form weight.
    ``verdict`` is True when every deviation is below the tolerance; it is
    diagnostic output, never an assertion.
    """

    beta: float
    model: CorrelationModel
    fitted: tuple[float, ...]
    printed: tuple[float, ...]
    relative_deviation: tuple[float, ...]
    residual: float
    scale: float
    verdict: bool

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "model": self.model.value,
            "fitted": list(self.fitted),
            "printed": list(self.printed),
            "relative_deviation": list(self.relative_deviation),
            "residual": self.residual,
            "scale": self.scale,
            "verdict": self.verdict,
        }


def consistency_report(
    model: CorrelationModel, speed: Speed, tolerance: float = DEFAULT_COEFF_TOLERANCE
) -> ConsistencyReport:
    """Run the template fit for one model and tabulate it against closed form."""
    if model is CorrelationModel.POLARIZED:
        fit = fit_polarized(speed)
        reference = coefficients(speed).as_tuple()
    else:
        fit = fit_unpolarized(speed)
        reference = unpolarized_coefficients(speed)
    fitted = np.asarray(fit.coefficients)
    printed = np.asarray(reference, dtype=float)
    norm = float(np.max(np.abs(printed)))
    if fit.scale != 0.0:
        deviations = np.abs(fitted / fit.scale - printed) / norm
    else:
        deviations = np.full(printed.shape, math.inf)
    return ConsistencyReport(
        beta=speed.beta,
        model=model,
        fitted=fit.coefficients,
        printed=tuple(float(p) for p in printed),
        relative_deviation=tuple(float(d) for d in deviations),
        residual=fit.rel_residual,
        scale=fit.scale,
        verdict=bool(np.all(deviations < tolerance)),
    )


@dataclass(frozen=True)
class CrossOracleReport:
    """Comparison of the verbatim trace expression with the spin average.

    ``scale`` is the per-speed least-squares proportionality between the
    two; ``max_rel_deviation`` the largest residual of that one-parameter
    model relative to the largest trace-expression magnitude.
    """

    beta: float
    grid_n: int
    scale: float
    max_rel_deviation: float
    max_imag: float
    agree: bool

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "grid_n": self.grid_n,
            "scale": self.scale,
            "max_rel_deviation": self.max_rel_deviation,
            "max_imag": self.max_imag,
            "agree": self.agree,
        }


def cross_check_unpolarized(
    speed: Speed, grid_n: int = 12, tolerance: float = TEMPLATE_RESIDUAL_TOLERANCE
) -> CrossOracleReport:
    """Compare the two unpolarized oracles on a grid, up to one global scale."""
    axis = (np.arange(grid_n) + 0.5) * (2.0 * math.pi / grid_n)
    grid1, grid2 = np.meshgrid(axis, axis, indexing="ij")
    quad_values = np.array(
        [quad_unpolarized_complex(speed, a, b) for a, b in zip(grid1.ravel(), grid2.ravel())]
    )
    avg_values = np.array(
        [spin_average_oracle(speed, a, b) for a, b in zip(grid1.ravel(), grid2.ravel())]
    )
    quad_real = quad_values.real
    scale = _projection_scale(quad_real, avg_values)
    magnitude = float(np.max(np.abs(quad_real)))
    deviation = float(np.max(np.abs(quad_real - scale * avg_values))) / magnitude
    return CrossOracleReport(
        beta=speed.beta,
        grid_n=grid_n,
        scale=scale,
        max_rel_deviation=deviation,
        max_imag=float(np.max(np.abs(quad_values.imag))) / max(magnitude, 1.0),
        agree=bool(deviation < tolerance),
    )
