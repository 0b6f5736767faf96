"""Reference code that no library output needs, kept for the tests that check against it.

Each helper here was library code; the library now computes the same
quantities another way, or never needed them.  The tests keep them as
independent references: the Dirac helpers as the textbook identities'
left-hand sides, the spinor builders as the arithmetic the standard pair
builder and the oracle kernels replaced, and the sum helpers as the
defining sums the closed forms are checked against.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from spincorr.closed_form import FOUR_PAIR_SHIFTS
from spincorr.dirac import (
    GAMMA_STACK,
    METRIC_SIGNS,
    PAULI,
    FourVector,
    Matrix4c,
    RowSpinor,
    Spinor4c,
    dirac_adjoint,
)
from spincorr.kinematics import Speed, pair_maps, polarized_final_maps, require_subluminal, xi, zeta

# ----------------------------------------------------------------------
# Dirac algebra
# ----------------------------------------------------------------------

METRIC = np.diag(METRIC_SIGNS)
METRIC.setflags(write=False)


def gamma(mu: int) -> Matrix4c:
    """Gamma matrix with upper index mu in {0, 1, 2, 3}."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be 0..3, got {mu!r}")
    return GAMMA_STACK[mu]


def bilinear(rbar: RowSpinor, matrix: Matrix4c, column: Spinor4c) -> complex:
    """Sandwich rbar . matrix . column, the elementary vertex contraction."""
    return complex(np.asarray(rbar) @ np.asarray(matrix) @ np.asarray(column))


def trace_product(matrices: Sequence[Matrix4c] | Iterable[Matrix4c]) -> complex:
    """Trace of the left-to-right product of 4x4 matrices."""
    ms = list(matrices)
    if not ms:
        raise ValueError("trace_product requires at least one matrix")
    return complex(np.trace(reduce(np.matmul, ms)))


def spatial(p: FourVector) -> np.ndarray:
    """The three spatial components of a four-vector."""
    return np.array([p.x, p.y, p.z])


# ----------------------------------------------------------------------
# spinors
# ----------------------------------------------------------------------


class PolarizedFinalSpinors(NamedTuple):
    ubar_k1: RowSpinor
    v_k2: Spinor4c


class UnpolarizedFinalSpinors(NamedTuple):
    u_k1: Spinor4c
    v_k2: Spinor4c


_I2 = np.eye(2, dtype=complex)


def unpolarized_final_maps(speed: Speed):
    """The unpolarized final maps as the library built them before ``pair_maps``.

    u(k1) = N (xi1, rho * sigma_1 xi1) and v(k2) = N (-rho * sigma_1 xi2, xi2)
    with the standard normalization N = sqrt((k0 + m)/2m).
    """
    require_subluminal(speed)
    r = speed.rho
    scale = math.sqrt((speed.gamma + 1.0) / 2.0)
    return (
        scale * np.concatenate([_I2, r * PAULI[0]], axis=1),
        scale * np.concatenate([-r * PAULI[0], _I2], axis=1),
    )


def unpolarized_initial_basis(speed: Speed) -> tuple[np.ndarray, np.ndarray]:
    """The initial-spin basis as the library built it before ``pair_maps``.

    The two electron spinors u_s(p1) and the two adjoint positron spinors
    vbar_s(p2), momenta along +/- y, each a (2, 4) array whose rows are
    the spin-up and spin-down states.
    """
    require_subluminal(speed)
    r = speed.rho
    scale = math.sqrt((speed.gamma + 1.0) / 2.0)
    basis = np.eye(2, dtype=complex)  # rows: up, down
    us = scale * np.concatenate([basis, r * (basis @ PAULI[1].T)], axis=-1)
    vbars = dirac_adjoint(scale * np.concatenate([-r * (basis @ PAULI[1].T), basis], axis=-1))
    return us, vbars


def polarized_final_spinors(speed: Speed, chi1, chi2) -> PolarizedFinalSpinors:
    """Emerging-pair spinors for the polarized setup, measurement angles chi1, chi2.

    The polarized final maps applied to zeta(chi1) and zeta(chi2):
    ubar(k1) as a row and v(k2) as a column.  Array angles add leading axes;
    the spinor index is always the last one.
    """
    maps = polarized_final_maps(speed)
    return PolarizedFinalSpinors(zeta(chi1).conj() @ maps.first, zeta(chi2) @ maps.second)


def unpolarized_final_spinors(speed: Speed, chi1, chi2) -> UnpolarizedFinalSpinors:
    """Emerging-pair spinors for the unpolarized setup (pair along +/- x).

    The x-axis pair maps applied to xi(chi1) and xi(chi2), with the
    standard normalization sqrt((k0 + m)/2m), which makes ubar(k1) u(k1) = +1
    and vbar(k2) v(k2) = -1 in natural units.  Array angles add leading axes.
    """
    maps = pair_maps(speed, 0)
    return UnpolarizedFinalSpinors(xi(chi1) @ maps.first, xi(chi2) @ maps.second)


# ----------------------------------------------------------------------
# closed-form sums
# ----------------------------------------------------------------------


def four_pair_sum(fn, chi1, chi2):
    """Sum fn over the four normalization angle pairs starting at (chi1, chi2)."""
    return sum(fn(chi1 + d1, chi2 + d2) for d1, d2 in FOUR_PAIR_SHIFTS)


def recombine(result) -> float:
    """The six CHSH terms of a ``ChshResult`` with signs (+, -, +, +, -, -)."""
    t = result.terms
    return t[0] - t[1] + t[2] + t[3] - t[4] - t[5]
