import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincorr
from spincorr import chsh
from spincorr.chsh import (
    TWO_PI,
    AngleQuad,
    SearchSettings,
    beta_scan,
    is_violation,
    s_value,
    search_violation,
    violation_fraction,
)
from spincorr.closed_form import PROBES, CorrelationModel, joint, joint_probability, marginal
from spincorr.kinematics import Speed

from reference import recombine

# Regression pins, hand-derived before the build by six-term evaluation of
# the closed-form probabilities (double precision, cross-checked at 40
# digits).  The published figures are -1.311 and -1.167; the gap between
# them and these values is reported by the verify command, not asserted.
PINNED_S_POLARIZED_09 = -0.8085870561003567
PINNED_S_UNPOLARIZED_08 = -1.3063175651621299

betas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi, allow_nan=False)
quads = st.builds(AngleQuad, angles, angles, angles, angles)
models = st.sampled_from(list(CorrelationModel))

CI_SETTINGS = SearchSettings(grid_step_deg=15.0)

# Searched minima from the earlier Nelder-Mead refinement; the exact
# optimum equals them to roundoff.
_P, _U = CorrelationModel.POLARIZED, CorrelationModel.UNPOLARIZED
SEARCHED_S_PINS = [
    (5.0, _P, 0.3, -0.7281987574496541),
    (5.0, _P, 0.6, -0.7521473334847799),
    (5.0, _P, 0.9, -0.8909844025787335),
    (5.0, _U, 0.3, -0.8491085573454673),
    (5.0, _U, 0.6, -1.1415645642904755),
    (5.0, _U, 0.9, -1.3642472236297762),
    (15.0, _P, 0.3, -0.728198757449654),
    (15.0, _P, 0.6, -0.7521473334847799),
    (15.0, _P, 0.9, -0.8909844025787335),
    (15.0, _U, 0.3, -0.8491085573454674),
    (15.0, _U, 0.6, -1.1415645642904755),
    (15.0, _U, 0.9, -1.3642472236297762),
]


class TestSValue:
    @settings(deadline=None)
    @given(models, betas, quads)
    def test_terms_recombine_exactly(self, model, b, quad):
        result = s_value(model, Speed(b), quad)
        assert abs(recombine(result) - result.s_value) < 1e-14

    @given(quads)
    def test_rest_frame_polarized_is_minus_half(self, quad):
        result = s_value(CorrelationModel.POLARIZED, Speed(0.0), quad)
        assert result.s_value == pytest.approx(-0.5, abs=1e-14)
        assert not result.violated

    def test_pinned_anchor_polarized(self):
        result = s_value(
            CorrelationModel.POLARIZED, Speed(0.9), AngleQuad.from_degrees(0, 45, 69, 200)
        )
        assert result.s_value == pytest.approx(PINNED_S_POLARIZED_09, abs=1e-9)

    def test_pinned_anchor_unpolarized(self):
        result = s_value(
            CorrelationModel.UNPOLARIZED, Speed(0.8), AngleQuad.from_degrees(0, 45, 210, 15)
        )
        assert result.s_value == pytest.approx(PINNED_S_UNPOLARIZED_08, abs=1e-9)
        assert result.violated

    @settings(max_examples=40, deadline=None)
    @given(models, betas, quads, st.integers(min_value=0, max_value=3))
    def test_two_pi_shift_of_any_single_angle(self, model, b, quad, which):
        speed = Speed(b)
        base = s_value(model, speed, quad).s_value
        shifted_angles = list(quad.as_tuple())
        shifted_angles[which] += 2.0 * math.pi
        shifted = s_value(model, speed, AngleQuad(*shifted_angles)).s_value
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_violation_flag_checks_both_sides(self):
        assert is_violation(-1.0000001)
        assert is_violation(0.0000001)
        assert not is_violation(-1.0)
        assert not is_violation(0.0)
        assert not is_violation(-0.5)


class TestAngleQuad:
    def test_degree_round_trip(self):
        quad = AngleQuad.from_degrees(0.0, 45.0, 210.0, 15.0)
        assert quad.degrees() == pytest.approx((0.0, 45.0, 210.0, 15.0), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AngleQuad(0.0, math.nan, 0.0, 0.0)


class TestSearchSettings:
    @pytest.mark.parametrize("step", (5.0, 15.0, 45.0, 120.0, 360.0))
    def test_valid_steps(self, step):
        assert SearchSettings(grid_step_deg=step).grid_size == round(360.0 / step)

    @pytest.mark.parametrize("step", (7.0, 0.0, -5.0, 11.3))
    def test_invalid_steps(self, step):
        with pytest.raises(ValueError):
            SearchSettings(grid_step_deg=step)

    def test_finest_step_is_quarter_degree(self):
        assert SearchSettings(grid_step_deg=0.25).grid_size == chsh.MAX_GRID_SIZE == 1440

    @pytest.mark.parametrize("step", (0.2, 1e-300, 5e-324))   # 360 / 5e-324 overflows to inf
    def test_steps_below_quarter_degree_rejected(self, step):
        with pytest.raises(ValueError, match="below 0.25 degrees"):
            SearchSettings(grid_step_deg=step)


class TestSearch:
    def test_rest_frame_polarized_cannot_improve(self):
        result = search_violation(CorrelationModel.POLARIZED, Speed(0.0), CI_SETTINGS)
        assert result.s_value == pytest.approx(-0.5, abs=1e-12)
        assert not result.violated

    def test_search_dominates_pinned_anchor(self):
        result = search_violation(CorrelationModel.UNPOLARIZED, Speed(0.8), CI_SETTINGS)
        assert result.s_value <= PINNED_S_UNPOLARIZED_08 + 1e-12
        assert result.violated

    @pytest.mark.parametrize(
        "model,beta",
        [(CorrelationModel.POLARIZED, 0.5), (CorrelationModel.UNPOLARIZED, 0.8)],
    )
    def test_search_dominates_random_quads(self, model, beta):
        speed = Speed(beta)
        best = search_violation(model, speed, CI_SETTINGS)
        rng = np.random.default_rng(97)
        for _ in range(20):
            quad = AngleQuad(*rng.uniform(0.0, 2.0 * math.pi, size=4))
            assert best.s_value <= s_value(model, speed, quad).s_value + 1e-12

    def test_repeat_runs_bit_identical(self):
        first = search_violation(CorrelationModel.UNPOLARIZED, Speed(0.7), CI_SETTINGS)
        second = search_violation(CorrelationModel.UNPOLARIZED, Speed(0.7), CI_SETTINGS)
        assert first == second

    def test_result_reconstructs(self):
        result = search_violation(CorrelationModel.POLARIZED, Speed(0.9), CI_SETTINGS)
        assert abs(recombine(result) - result.s_value) < 1e-14

    @pytest.mark.parametrize("step,model,beta,expected", SEARCHED_S_PINS)
    def test_searched_s_pinned(self, step, model, beta, expected):
        result = search_violation(model, Speed(beta), SearchSettings(grid_step_deg=step))
        assert result.s_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("beta,expected", [(0.3, -0.7281987574496541), (0.9, -0.8909844025787335)])
    def test_one_cell_grid_leaves_saddle(self, beta, expected):
        # A 360-degree step leaves one grid angle, fewer than the three that
        # fix a harmonic, so the sample grid falls back to the three probe
        # angles; the search must still reach the 5-degree minimum.
        result = search_violation(_P, Speed(beta), SearchSettings(grid_step_deg=360.0))
        assert result.s_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("beta,expected", [(0.3, -0.7281987574496541), (0.9, -0.8909844025787335)])
    def test_see_saw_leaves_saddle(self, beta, expected):
        # At (0, 0, 0, 0) the first sweep of the reference see-saw only makes
        # a level move; it must carry on to the 5-degree minimum.
        quad = _see_saw(_P, Speed(beta), AngleQuad(0.0, 0.0, 0.0, 0.0))
        assert s_value(_P, Speed(beta), quad).s_value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("model", list(CorrelationModel))
    @pytest.mark.parametrize("beta", (0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.99))
    def test_search_reaches_global_optimum(self, model, beta):
        # P(x1, x2) = n(x1)^T A n(x2) with n = (1, cos, sin), and the marginal
        # terms cancel from S, so the in-plane optimum is the Horodecki form
        # 2 A00 - 1 - 2 |A[1:, 1:]|_F, here read from the three probe angles.
        # The unpolarized marginals are flat as well.
        speed = Speed(beta)
        a = _FOURIER @ joint(model, speed, PROBES[:, None], PROBES[None, :]) @ _FOURIER.T
        if model is _U:
            assert np.abs(a[0, 1:]).max() < 1e-12 and np.abs(a[1:, 0]).max() < 1e-12
        optimum = 2.0 * a[0, 0] - 1.0 - 2.0 * np.linalg.norm(a[1:, 1:])
        result = search_violation(model, speed, SearchSettings(grid_step_deg=5.0))
        assert result.s_value == pytest.approx(optimum, abs=1e-12)

    @pytest.mark.parametrize("model", list(CorrelationModel))
    @pytest.mark.parametrize("beta", (0.3, 0.9))
    def test_result_is_coordinate_wise_minimum(self, model, beta):
        speed = Speed(beta)
        best = search_violation(model, speed, CI_SETTINGS)
        for which in range(4):
            for delta in (-1e-3, 1e-3):
                moved = list(best.angles.as_tuple())
                moved[which] += delta
                assert s_value(model, speed, AngleQuad(*moved)).s_value >= best.s_value - 1e-12


@pytest.mark.parametrize("model", list(CorrelationModel))
def test_search_makes_one_square_joint_call(monkeypatch, model):
    # One n x n table per search, the scalar calls of the one s_value
    # evaluation, and no other square 2-D call.
    shapes = []

    def recording_joint(*args):
        value = joint(*args)
        shapes.append(np.shape(value))
        return value

    monkeypatch.setattr(chsh, "joint", recording_joint)
    search_violation(model, Speed(0.6), SearchSettings(grid_step_deg=10.0))
    assert [shape for shape in shapes if len(shape) == 2 and shape[0] == shape[1]] == [(36, 36)]
    assert shapes.count(()) == 4


# The grid search and see-saw that the exact optimum replaced, kept
# verbatim as the reference search.
def _fourier_rows(grid: np.ndarray) -> np.ndarray:
    """Rows turning c0 + c cos(x) + s sin(x) at >= 3 equispaced ``grid`` angles into (c0, c, s)."""
    return np.array([np.ones_like(grid), 2.0 * np.cos(grid), 2.0 * np.sin(grid)]) / grid.size


_FOURIER = _fourier_rows(PROBES)


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
    grid = np.radians(np.arange(n) * settings.grid_step_deg) if n >= 3 else PROBES
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
        p1, p1p = joint(model, speed, np.array([[x1], [x1p]]), PROBES)   # (2, 3), never square
        m2 = marginal(model, speed, 2, PROBES)
        x2, _ = _lowest(p1 + p1p - m2)
        x2p, _ = _lowest(p1p - p1)
        q2, q2p = joint(model, speed, PROBES[:, None], np.array([x2, x2p])).T   # (3, 2)
        x1, k_min = _lowest(q2 - q2p)
        x1p, l_min = _lowest(q2 + q2p - marginal(model, speed, 1, PROBES))
        s = k_min + l_min - _value_at(m2, x2)
        if s < best_s:
            best, best_s, stalled = AngleQuad(x1, x2, x1p, x2p), s, 0
        else:
            stalled += 1
    return best


def _loop_coarse_minimum(model, speed, settings):
    """The full 4-D grid argmin, ties to the smallest (x1, x2, x1', x2').

    This was the coarse search before (x2, x2') were solved exactly; the
    exact search must never end at a worse point.  The n^3 part arrays are
    formed one x1 row at a time.
    """
    n = settings.grid_size
    grid = np.radians(np.arange(n) * settings.grid_step_deg)
    p = joint(model, speed, grid[:, None], grid[None, :])
    m1 = np.asarray(marginal(model, speed, 1, grid), dtype=float)
    m2 = np.asarray(marginal(model, speed, 2, grid), dtype=float)
    total, best_j, best_l = np.empty((n, n)), np.empty((n, n), dtype=int), np.empty((n, n), dtype=int)
    for i in range(n):
        part_a = p[i] + p - m2              # [k, j]
        part_b = p - p[i] - m1[:, None]     # [k, l]
        best_j[i], best_l[i] = part_a.argmin(axis=1), part_b.argmin(axis=1)
        total[i] = part_a.min(axis=1) + part_b.min(axis=1)
    ties = zip(*np.nonzero(total == total.min()))
    _, i, j, k, l = min((total[i, k], i, int(best_j[i, k]), k, int(best_l[i, k])) for i, k in ties)
    return AngleQuad(grid[i], grid[j], grid[k], grid[l])


def _loop_exact_coarse_minimum(model, speed, settings, block_rows=None):
    """The reference coarse argmin with the tie-break of ``np.argmin`` replaced.

    Cell totals are formed ``block_rows`` x1 rows at a time (None: all at
    once), with the arithmetic of ``_coarse_minimum``; a Python loop then
    visits the cells in (x1, x1') order and keeps the first lowest one.
    """
    n = settings.grid_size
    grid = np.radians(np.arange(n) * settings.grid_step_deg) if n >= 3 else PROBES
    fourier = _fourier_rows(grid)
    c0, c, s = fourier @ joint(model, speed, grid[:, None], grid[None, :]).T
    m20, m2c, m2s = fourier @ marginal(model, speed, 2, grid)
    m1 = marginal(model, speed, 1, grid)
    block, best = block_rows or grid.size, None
    for lo in range(0, grid.size, block):
        ci, si = c[lo : lo + block, None], s[lo : lo + block, None]
        gc, gs, hc, hs = ci + (c - m2c), si + (s - m2s), c - ci, s - si
        total = (2.0 * c0 - m20 - m1) - np.sqrt(gc * gc + gs * gs) - np.sqrt(hc * hc + hs * hs)
        for r in range(total.shape[0]):
            for k in range(grid.size):
                if best is None or total[r, k] < best[0]:
                    best = (total[r, k], lo + r, k, gc[r, k], gs[r, k], hc[r, k], hs[r, k])
    _, i, k, gc, gs, hc, hs = best
    x2, x2p = math.atan2(-gs, -gc) % TWO_PI, math.atan2(-hs, -hc) % TWO_PI
    return AngleQuad(grid[i], x2, grid[k], x2p)


@pytest.mark.parametrize("block_rows", (None, 1, 7))   # 7 splits the 36-row grid unevenly
@pytest.mark.parametrize("step", (10.0, 30.0, 90.0))
@pytest.mark.parametrize("model", list(CorrelationModel))
@pytest.mark.parametrize("beta", (0.0, 0.5, 0.95))
def test_coarse_tie_break_matches_loop(block_rows, step, model, beta):
    # The reference grid search that bounds the exact search must itself pick
    # the first lowest cell.
    settings = SearchSettings(grid_step_deg=step)
    expected = _loop_exact_coarse_minimum(model, Speed(beta), settings, block_rows)
    assert _coarse_minimum(model, Speed(beta), settings) == expected


_PARITY_GRIDS = [(2.0, [k / 10 for k in range(11)])] + [
    (step, [k / 100 for k in range(101)]) for step in (5.0, 15.0, 45.0, 90.0, 180.0, 360.0)
]


@pytest.mark.parametrize("step,betas", _PARITY_GRIDS, ids=[f"{step:g}deg" for step, _ in _PARITY_GRIDS])
@pytest.mark.parametrize("model", list(CorrelationModel))
def test_exact_search_no_worse_than_grid_searches(step, betas, model):
    settings = SearchSettings(grid_step_deg=step)
    for beta in betas:
        speed = Speed(beta)
        exact = search_violation(model, speed, settings).s_value
        reference = s_value(model, speed, _see_saw(model, speed, _coarse_minimum(model, speed, settings)))
        assert exact <= reference.s_value + 1e-12, beta
        assert exact <= s_value(model, speed, _loop_coarse_minimum(model, speed, settings)).s_value + 1e-12, beta


def _after_fresh_import(expression: str) -> str:
    """Print ``expression`` in a new interpreter that has run ``import sys, spincorr``."""
    package_root = str(Path(spincorr.__file__).resolve().parents[1])
    search_path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=search_path)
    probe = f"import sys, spincorr; print({expression})"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert _after_fresh_import("sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"


def test_import_loads_every_layer_module():
    # The benchmark's tracer wraps the layers that ``import spincorr`` loads.
    layers = ("dirac", "kinematics", "closed_form", "oracle", "chsh", "verification")
    loaded = _after_fresh_import(f"[m for m in {layers!r} if 'spincorr.' + m in sys.modules]")
    assert loaded == repr(list(layers))


def test_readme_library_example_imports(capsys):
    readme = (Path(spincorr.__file__).resolve().parents[2] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    (imports,) = [
        node for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "spincorr"
    ]
    names = [alias.name for alias in imports.names]
    assert {"joint_probability", "search_violation"} <= set(names)
    for name in names:
        assert hasattr(spincorr, name), name
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    speed = Speed(0.8)
    assert printed[0] == str(joint_probability(CorrelationModel.UNPOLARIZED, speed, 0.0, 0.3).value)
    anchor = s_value(CorrelationModel.UNPOLARIZED, speed, AngleQuad.from_degrees(0, 45, 210, 15))
    assert printed[1] == f"{anchor.s_value} {anchor.violated}"
    assert len(printed) == 3


class TestBetaScan:
    def test_rest_frame_row(self):
        rows = beta_scan(CorrelationModel.POLARIZED, [Speed(0.0)], CI_SETTINGS)
        assert len(rows) == 1
        assert rows[0].s_value == pytest.approx(-0.5, abs=1e-12)
        assert not rows[0].violated

    def test_order_and_length(self):
        speeds = [Speed(b) for b in (0.2, 0.5, 0.8)]
        rows = beta_scan(CorrelationModel.UNPOLARIZED, speeds, CI_SETTINGS)
        assert [r.beta for r in rows] == [0.2, 0.5, 0.8]
        for row in rows:
            assert abs(recombine(row) - row.s_value) < 1e-14

    def test_matches_individual_searches(self):
        speeds = [Speed(b) for b in (0.3, 0.6)]
        rows = beta_scan(CorrelationModel.POLARIZED, speeds, CI_SETTINGS)
        singles = [search_violation(CorrelationModel.POLARIZED, s, CI_SETTINGS) for s in speeds]
        assert rows == singles

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            beta_scan(CorrelationModel.POLARIZED, [], CI_SETTINGS)

    def test_violation_fraction(self):
        rows = beta_scan(
            CorrelationModel.UNPOLARIZED, [Speed(0.0), Speed(0.8)], CI_SETTINGS
        )
        fraction = violation_fraction(rows)
        assert fraction == pytest.approx(sum(r.violated for r in rows) / 2.0)
        assert violation_fraction([]) == 0.0
