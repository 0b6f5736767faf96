"""Independent numeric rebuild of the correlation intensities.

Two routes, both driven by the Dirac-algebra layer and kept strictly apart
from :mod:`spincorr.closed_form`:

* ``amplitude_polarized`` assembles the two-channel tree amplitude from the
  paper's explicit external spinors (:func:`~spincorr.kinematics.polarized_initial_spinors`
  and :func:`~spincorr.kinematics.polarized_final_maps`, both verbatim) and
  contracts Lorentz indices numerically.
* ``quad_unpolarized_complex`` evaluates the four-term trace expression for
  the initially unpolarized setup verbatim (callers take the real part; the
  imaginary part is a numerical diagnostic), while ``spin_average_oracle``
  averages the squared amplitude over a complete initial-spin basis.  The
  two are compared against each other because transcribed trace expressions
  are easy to get wrong; the cross check is the arbiter.  Every spinor of
  this layout comes from the one standard pair builder
  :func:`~spincorr.kinematics.pair_maps`.

Both amplitudes are one channel contraction, t*X - s*Y with X the
annihilation and Y the exchange numerator, over (initial electron spin,
initial positron spin, final two-spinor axes); the polarized route takes
its single initial spin state.

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

The closed-form template weights are then read from the oracle, not
fitted: the polarized (a, b, c, d) from the entries of the kernel K, the
unpolarized weights from the 3 x 3 harmonic matrix of the spin average at
the probe angles.  A read template is evaluated as every closed form is,
through its harmonic matrix (``closed_form.template_matrix``) and the one
evaluator ``closed_form.law``.  Its residual on a 24 x 24 validation grid
establishes whether the numeric intensity has the template shape at all;
the fitted-versus-closed-form coefficient table is reported without being
adjudicated.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import PROBES, CorrelationModel, harmonic_matrix, law, template_coefficients, template_matrix
from .dirac import GAMMA_STACK, METRIC_SIGNS, dirac_adjoint, slash
from .kinematics import (
    Config,
    Speed,
    invariants,
    momenta,
    pair_maps,
    polarized_final_maps,
    polarized_initial_spinors,
    require_subluminal,
    xi,
    zeta,
)

_SIGNS = np.array(METRIC_SIGNS)
_WEIGHTS = np.outer(_SIGNS, _SIGNS)  # lowers both contracted indices of the trace terms

#: Verdict threshold for fitted-versus-template coefficient agreement.
DEFAULT_COEFF_TOLERANCE = 1e-6

#: Relative residual below which the template shape is considered exact.
TEMPLATE_RESIDUAL_TOLERANCE = 1e-9

#: Oracle calls a fit makes before validating: the unpolarized read takes
#: one per probe pair, the polarized read none.
FIT_SAMPLE_COUNT = PROBES.size**2
VALIDATION_GRID_N = 24


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


def _channels(s, t, us, vbars, ubar_k1, v_k2) -> np.ndarray:
    """The propagator-cleared two-channel amplitude t*X - s*Y, axes (i, j, a, b).

    ``us`` (i, 4) holds the electron spinors u(p1) and ``vbars`` (j, 4) the
    positron adjoints vbar(p2), one row per initial spin state; ``ubar_k1``
    (a, 4) and ``v_k2`` (4, b) are the final-spinor maps, whose two-spinor
    axes the kernel keeps.
    """
    final_ann = ubar_k1 @ GAMMA_STACK @ v_k2                       # (mu, a, b)
    initial_ann = np.einsum("ja,mab,ib->ijm", vbars, GAMMA_STACK, us)
    electron = ubar_k1 @ GAMMA_STACK @ us.T                        # (mu, a, i)
    positron = vbars @ GAMMA_STACK @ v_k2                          # (mu, j, b)
    annihilation = np.tensordot(_SIGNS * initial_ann, final_ann, axes=1)
    exchange = np.einsum("m,mai,mjb->ijab", _SIGNS, electron, positron)
    return t * annihilation - s * exchange


@_per_speed
def _polarized_blocks(speed: Speed) -> _PolarizedBlocks:
    s, t = invariants(momenta(Config.POLARIZED_AXES, speed))
    u_p1, vbar_p2 = polarized_initial_spinors(speed)
    ubar_k1, v_k2 = polarized_final_maps(speed)
    amplitude = _channels(s, t, u_p1[np.newaxis], vbar_p2[np.newaxis], ubar_k1, v_k2.T)[0, 0]
    _read_only(amplitude)
    return _PolarizedBlocks(amplitude)


@_per_speed
def _unpolarized_blocks(speed: Speed) -> _UnpolarizedBlocks:
    ms = momenta(Config.UNPOLARIZED_AXES, speed)
    s, t = invariants(ms)
    us, v_p2 = pair_maps(speed, 1)
    u_k1, v_k2 = pair_maps(speed, 0)
    vbars, ubar_k1, vbar_k2 = dirac_adjoint(v_p2), dirac_adjoint(u_k1), dirac_adjoint(v_k2)
    u_k1, v_k2 = u_k1.T, v_k2.T  # (4, 2): columns act on the two-spinor
    # Spin average, axes (i, j, ...): electron basis state i, positron basis state j.
    amplitudes = _channels(s, t, us, vbars, ubar_k1, v_k2)

    # Trace expression: b^mu = ubar(k1) gamma^mu v(k2) and
    # c^sigma = vbar(k2) gamma^sigma u(k1) carry the first three terms,
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
    b_mu = ubar_k1 @ GAMMA_STACK @ v_k2                            # (mu, a, b)
    bilinear_terms = np.tensordot(b_mu, np.tensordot(weights, c_sigma, axes=1), axes=(0, 0))
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


# ----------------------------------------------------------------------
# template reads
# ----------------------------------------------------------------------


def validation_grid(n: int = VALIDATION_GRID_N) -> tuple[np.ndarray, np.ndarray]:
    """Uniform n x n grid, offset half a cell so it avoids the probe angles."""
    axis = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    return np.meshgrid(axis, axis, indexing="ij")


_VALIDATION_GRID = validation_grid()
_read_only(*_VALIDATION_GRID)


@dataclass(frozen=True)
class TrigFit:
    """Closed-form template weights read from an oracle, with their validation.

    ``coefficients`` holds (a, b, c, d) for the polarized two-bracket
    template, read from the kernel, or (w_sin, w_cos, w_const) for the
    unpolarized one, read from the probe matrix.  ``residual`` is the max
    absolute deviation of the template from the oracle on the validation
    grid and ``rel_residual`` the same divided by the largest sampled
    magnitude.  ``scale`` is the least-squares proportionality constant
    between the read coefficients and the closed-form ones; dividing the
    read vector by it makes the two directly comparable.
    """

    model: CorrelationModel
    coefficients: tuple[float, ...]
    residual: float
    rel_residual: float
    scale: float

    def evaluate(self, chi1, chi2):
        """Evaluate the read template at the given angles."""
        return law(template_matrix(self.model, self.coefficients), chi1, chi2)


def _projection_scale(fitted: np.ndarray, reference: np.ndarray) -> float:
    denom = float(np.dot(reference, reference))
    return float(np.dot(fitted, reference) / denom) if denom > 0.0 else 0.0


def _finish_fit(model, speed, coeffs, sample_fn) -> TrigFit:
    coeffs = tuple(float(c) for c in coeffs)
    grid1, grid2 = _VALIDATION_GRID
    sampled = np.array(
        [sample_fn(a, b) for a, b in zip(grid1.ravel(), grid2.ravel())]
    ).reshape(grid1.shape)
    residual = float(np.max(np.abs(law(template_matrix(model, coeffs), grid1, grid2) - sampled)))
    return TrigFit(
        model=model,
        coefficients=coeffs,
        residual=residual,
        rel_residual=residual / float(np.max(np.abs(sampled))),
        scale=_projection_scale(np.asarray(coeffs), np.asarray(template_coefficients(model, speed.beta))),
    )


def fit_polarized(speed: Speed) -> TrigFit:
    """Read the two-bracket template weights from the polarized kernel, then validate.

    conj(zeta(chi1)) K zeta(chi2) equals
    (a cos sigma + b sin delta) + i (c sin sigma + d cos delta), with
    sigma, delta = (chi1 +- chi2) / 2, exactly when
    K = [[i(d - b), a + c], [a - c, i(b + d)]].  So
    v = (K01, K10, i K00, i K11) is (a + c, a - c, b - d, -(b + d)) up to
    a global phase, which the phase of sum(v^2) removes up to a sign.  The
    signs follow the convention a >= 0, c >= 0; flipping (a, b) or (c, d)
    leaves the template unchanged.  The read takes no oracle samples; any
    part of K outside the template form shows in the grid residual.
    """
    require_subluminal(speed)
    kernel = _polarized_blocks(speed).amplitude
    v = np.array([kernel[0, 1], kernel[1, 0], 1j * kernel[0, 0], 1j * kernel[1, 1]])
    v = (v * np.exp(-0.5j * np.angle(np.sum(v * v)))).real
    a, c = 0.5 * (v[0] + v[1]), 0.5 * (v[0] - v[1])
    b, d = 0.5 * (v[2] - v[3]), -0.5 * (v[2] + v[3])
    if a < 0.0:
        a, b = -a, -b
    if c < 0.0:
        c, d = -c, -d
    sample = lambda chi1, chi2: abs(amplitude_polarized(speed, chi1, chi2)) ** 2
    return _finish_fit(CorrelationModel.POLARIZED, speed, (a, b, c, d), sample)


def fit_unpolarized(speed: Speed) -> TrigFit:
    """Read the three unpolarized template weights from the probe matrix, then validate.

    The spin average is a first harmonic in each angle,
    n(chi1)^T A n(chi2) with n = (1, cos, sin), so its table at the probe
    angles, one oracle call per pair, fixes A.  The template
    w_sin sin^2 delta + w_cos cos^2 sigma + w_const has
    A00 = w_const + (w_sin + w_cos)/2, A11 = (w_cos - w_sin)/2 and
    A22 = -(w_sin + w_cos)/2, which give the weights; any other part of A,
    or any higher harmonic, shows in the grid residual.
    """
    sample = lambda a, b: spin_average_oracle(speed, a, b)
    table = np.array([[sample(a, b) for b in PROBES] for a in PROBES])
    m = harmonic_matrix(table, PROBES)
    coeffs = (-m[1, 1] - m[2, 2], m[1, 1] - m[2, 2], m[0, 0] + m[2, 2])
    return _finish_fit(CorrelationModel.UNPOLARIZED, speed, coeffs, sample)


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Fitted-versus-closed-form coefficient comparison at one speed.

    ``printed`` holds the closed-form template weights and ``fitted`` the
    weights read from the oracle; deviations are taken after dividing the fitted vector
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


def consistency_report(
    model: CorrelationModel, speed: Speed, tolerance: float = DEFAULT_COEFF_TOLERANCE
) -> ConsistencyReport:
    """Read the template weights for one model and tabulate them against closed form."""
    fit = (fit_polarized if model is CorrelationModel.POLARIZED else fit_unpolarized)(speed)
    fitted = np.asarray(fit.coefficients)
    printed = np.asarray(template_coefficients(model, speed.beta), dtype=float)
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


def cross_check_unpolarized(
    speed: Speed, grid_n: int = 12, tolerance: float = TEMPLATE_RESIDUAL_TOLERANCE
) -> CrossOracleReport:
    """Compare the two unpolarized oracles on ``validation_grid(grid_n)``, up to one global scale."""
    grid1, grid2 = validation_grid(grid_n)
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
