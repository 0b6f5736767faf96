"""Numeric Dirac algebra: metric signs, gamma matrices, four-vectors, slashes, adjoints.

Conventions used throughout the package:

* metric signature (+, -, -, -),
* gamma matrices in the standard (Dirac) representation, i.e. the
  two-block basis with gamma^0 = diag(I, -I) and gamma^i carrying the
  Pauli matrices off-diagonally,
* four-vectors hold contravariant components (t, x, y, z),
* complex double precision everywhere.

All functions are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Type aliases for readability; everything is a plain complex ndarray.
Matrix4c = np.ndarray
Spinor4c = np.ndarray
RowSpinor = np.ndarray

METRIC_SIGNS = (1.0, -1.0, -1.0, -1.0)

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

_GAMMA = (
    np.block([[_I2, _Z2], [_Z2, -_I2]]),
    np.block([[_Z2, PAULI[0]], [-PAULI[0], _Z2]]),
    np.block([[_Z2, PAULI[1]], [-PAULI[1], _Z2]]),
    np.block([[_Z2, PAULI[2]], [-PAULI[2], _Z2]]),
)
for _g in _GAMMA + PAULI:
    _g.setflags(write=False)

# Stacked view (4, 4, 4) for einsum-heavy callers.
GAMMA_STACK = np.stack(_GAMMA)
GAMMA_STACK.setflags(write=False)


@dataclass(frozen=True)
class FourVector:
    """Minkowski four-vector with contravariant components (natural units)."""

    t: float
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"four-vector component {name} = {value!r} is not finite")
            object.__setattr__(self, name, value)

    def __add__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t + other.t, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "FourVector") -> "FourVector":
        return FourVector(self.t - other.t, self.x - other.x, self.y - other.y, self.z - other.z)

    def dot(self, other: "FourVector") -> float:
        """Minkowski inner product with signature (+, -, -, -)."""
        return self.t * other.t - self.x * other.x - self.y * other.y - self.z * other.z

    def norm2(self) -> float:
        return self.dot(self)

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])


def slash(p: FourVector) -> Matrix4c:
    """Contraction gamma^mu p_mu = gamma^0 p^t - gamma^1 p^x - gamma^2 p^y - gamma^3 p^z."""
    comps = p.as_array()
    return sum(sign * c * g for sign, c, g in zip(METRIC_SIGNS, comps, _GAMMA))


def dirac_adjoint(u: Spinor4c) -> RowSpinor:
    """Adjoint row spinor: conjugate transpose right-multiplied by gamma^0."""
    u = np.asarray(u, dtype=complex)
    return u.conj() @ _GAMMA[0]

