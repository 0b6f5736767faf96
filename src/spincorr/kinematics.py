"""Center-of-momentum kinematics and external spinors for both detector layouts.

The whole process is driven by a single speed parameter beta (units of c).
The colliding pair moves along the y axis; the emerging pair leaves along
the z axis in the polarized layout and along the x axis in the unpolarized
one.  Measurement directions are encoded by unit two-spinors, one family
per layout, parametrized by an angle chi in the plane transverse to the
outgoing momentum.

Angles are radians everywhere in this package; only the CLI speaks degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dirac import PAULI, FourVector, RowSpinor, Spinor4c, dirac_adjoint

#: Hard ceiling for any constructor that needs the Lorentz factor.
BETA_ORACLE_MAX = 1.0 - 1e-6


def rho(beta):
    """Kinematic spinor weight beta / (1 + sqrt(1 - beta^2)); elementwise over an array.

    Monotone on [0, 1], interpolating 0 (rest) to 1 (lightlike), and always
    bounded by beta itself.  A scalar gives a float.
    """
    batch = isinstance(beta, np.ndarray)
    b = beta if batch else float(beta)
    if not (np.all((0.0 <= b) & (b <= 1.0)) if batch else 0.0 <= b <= 1.0):
        raise ValueError(f"beta must lie in [0, 1], got {b!r}")
    return b / (1.0 + (np.sqrt if batch else math.sqrt)(1.0 - b * b))


@dataclass(frozen=True)
class Speed:
    """Speed of each particle in the c.m. frame, as a fraction of c."""

    beta: float

    def __post_init__(self) -> None:
        b = float(self.beta)
        if not (math.isfinite(b) and 0.0 <= b <= 1.0):
            raise ValueError(f"beta must be a finite number in [0, 1], got {self.beta!r}")
        object.__setattr__(self, "beta", b)

    @property
    def gamma(self) -> float:
        if self.beta >= 1.0:
            raise ValueError("Lorentz factor 1/sqrt(1 - beta^2) diverges at beta = 1")
        return 1.0 / math.sqrt(1.0 - self.beta * self.beta)

    @property
    def rho(self) -> float:
        return rho(self.beta)


def require_subluminal(speed: Speed) -> Speed:
    """Reject speeds where the Lorentz factor blows up numerically."""
    if speed.beta > BETA_ORACLE_MAX:
        raise ValueError(
            f"beta = {speed.beta!r} exceeds {BETA_ORACLE_MAX}; the Lorentz factor "
            "1/sqrt(1 - beta^2) diverges at beta = 1, so momenta and spinors are "
            "not representable"
        )
    return speed


class Config(Enum):
    """Detector layout: axis along which the emerging pair leaves."""

    POLARIZED_AXES = "polarized"      # emerging pair along z, spins measured from x
    UNPOLARIZED_AXES = "unpolarized"  # emerging pair along x, spins measured from z


class MomentumSet(NamedTuple):
    p1: FourVector
    p2: FourVector
    k1: FourVector
    k2: FourVector
    m: float


class Invariants(NamedTuple):
    s: float
    t: float


def momenta(config: Config, speed: Speed, m: float = 1.0) -> MomentumSet:
    """All four on-shell momenta of the process for the given layout.

    The initial pair moves along +/- y with momentum gamma*m*beta; the final
    pair leaves along +/- z (polarized layout) or +/- x (unpolarized layout)
    with the same magnitude, so total momentum is conserved exactly.
    """
    require_subluminal(speed)
    energy = speed.gamma * m
    q = speed.gamma * m * speed.beta
    p1 = FourVector(energy, 0.0, q, 0.0)
    p2 = FourVector(energy, 0.0, -q, 0.0)
    if config is Config.POLARIZED_AXES:
        k1 = FourVector(energy, 0.0, 0.0, q)
        k2 = FourVector(energy, 0.0, 0.0, -q)
    elif config is Config.UNPOLARIZED_AXES:
        k1 = FourVector(energy, q, 0.0, 0.0)
        k2 = FourVector(energy, -q, 0.0, 0.0)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown config {config!r}")
    return MomentumSet(p1, p2, k1, k2, float(m))


def invariants(ms: MomentumSet) -> Invariants:
    """Propagator denominators: s = (p1+p2)^2 and t = (p1-k1)^2."""
    return Invariants(s=(ms.p1 + ms.p2).norm2(), t=(ms.p1 - ms.k1).norm2())


_ZETA_PHASES = np.array([-0.5j, 0.5j])


def zeta(chi) -> np.ndarray:
    """Unit two-spinor (e^{-i chi/2}, e^{i chi/2})/sqrt(2).

    Encodes a spin direction at angle chi from the x axis, in the plane
    transverse to a momentum along z.  zeta(chi) and zeta(chi + pi) form an
    orthonormal pair.  Array angles give shape ``chi.shape + (2,)``.
    """
    return np.exp(np.multiply.outer(chi, _ZETA_PHASES)) / math.sqrt(2.0)


def xi(chi) -> np.ndarray:
    """Unit two-spinor (-i cos(chi/2), sin(chi/2)).

    Encodes a spin direction at angle chi from the z axis, in the plane
    transverse to a momentum along x.  xi(chi) and xi(chi + pi) form an
    orthonormal pair.  Array angles give shape ``chi.shape + (2,)``.
    """
    half = 0.5 * np.asarray(chi)
    pair = np.empty(half.shape + (2,), dtype=complex)
    pair[..., 0] = -1.0j * np.cos(half)
    pair[..., 1] = np.sin(half)
    return pair


class InitialSpinors(NamedTuple):
    u_p1: Spinor4c
    vbar_p2: RowSpinor


class PolarizedFinalSpinors(NamedTuple):
    ubar_k1: RowSpinor
    v_k2: Spinor4c


class UnpolarizedFinalSpinors(NamedTuple):
    u_k1: Spinor4c
    v_k2: Spinor4c


class FinalSpinorMaps(NamedTuple):
    """Per-speed (2, 4) maps from measurement two-spinors to final spinors.

    Each map acts on the right of a two-spinor row.  In the polarized layout
    ubar(k1) = conj(zeta(chi1)) @ first and v(k2) = zeta(chi2) @ second; in
    the unpolarized one u(k1) = xi(chi1) @ first and v(k2) = xi(chi2) @ second.
    """

    first: np.ndarray
    second: np.ndarray


_I2 = np.eye(2, dtype=complex)


def polarized_final_maps(speed: Speed) -> FinalSpinorMaps:
    """Final-spinor maps of the polarized setup.

    ubar(k1) = (zeta1^dag, rho * zeta1^dag sigma_3) and
    v(k2) = (rho * sigma_3 zeta2, zeta2), up to overall constants that
    cancel in probabilities.  sigma_3 is symmetric, so one block serves both.
    """
    require_subluminal(speed)
    r = speed.rho
    return FinalSpinorMaps(
        np.concatenate([_I2, r * PAULI[2]], axis=1),
        np.concatenate([r * PAULI[2], _I2], axis=1),
    )


def unpolarized_final_maps(speed: Speed) -> FinalSpinorMaps:
    """Final-spinor maps of the unpolarized setup.

    u(k1) = N (xi1, rho * sigma_1 xi1) and v(k2) = N (-rho * sigma_1 xi2, xi2)
    with the standard normalization N = sqrt((k0 + m)/2m).  sigma_1 is
    symmetric, so one block serves both.
    """
    require_subluminal(speed)
    r = speed.rho
    scale = math.sqrt((speed.gamma + 1.0) / 2.0)
    return FinalSpinorMaps(
        scale * np.concatenate([_I2, r * PAULI[0]], axis=1),
        scale * np.concatenate([-r * PAULI[0], _I2], axis=1),
    )


def polarized_initial_spinors(speed: Speed) -> InitialSpinors:
    """Spin-up electron and spin-down positron spinors of the polarized setup.

    Unnormalized on purpose: u(p1) = (1, 0, 0, i*rho)^T and
    vbar(p2) = (i*rho, 0, 0, -1).  Every probability downstream is a
    normalized ratio, so the proportionality constant is fixed to 1.
    """
    require_subluminal(speed)
    r = speed.rho
    u_p1 = np.array([1.0, 0.0, 0.0, 1.0j * r], dtype=complex)
    vbar_p2 = np.array([1.0j * r, 0.0, 0.0, -1.0], dtype=complex)
    return InitialSpinors(u_p1, vbar_p2)


def polarized_final_spinors(speed: Speed, chi1, chi2) -> PolarizedFinalSpinors:
    """Emerging-pair spinors for the polarized setup, measurement angles chi1, chi2.

    The :func:`polarized_final_maps` applied to zeta(chi1) and zeta(chi2):
    ubar(k1) as a row and v(k2) as a column.  Array angles add leading axes;
    the spinor index is always the last one.
    """
    maps = polarized_final_maps(speed)
    return PolarizedFinalSpinors(zeta(chi1).conj() @ maps.first, zeta(chi2) @ maps.second)


def unpolarized_final_spinors(speed: Speed, chi1, chi2) -> UnpolarizedFinalSpinors:
    """Emerging-pair spinors for the unpolarized setup (pair along +/- x).

    The :func:`unpolarized_final_maps` applied to xi(chi1) and xi(chi2).
    They carry the standard normalization sqrt((k0 + m)/2m), which makes
    ubar(k1) u(k1) = +1 and vbar(k2) v(k2) = -1 in natural units.  Array
    angles add leading axes, as in :func:`polarized_final_spinors`.
    """
    maps = unpolarized_final_maps(speed)
    return UnpolarizedFinalSpinors(xi(chi1) @ maps.first, xi(chi2) @ maps.second)


def unpolarized_initial_basis(speed: Speed) -> tuple[np.ndarray, np.ndarray]:
    """Complete initial-spin basis for the spin average.

    Returns the two electron spinors u_s(p1) and the two adjoint positron
    spinors vbar_s(p2) built from the up/down two-spinor basis, with momenta
    along +/- y and the same normalization as the final spinors.  Each is a
    (2, 4) array whose rows are the spin-up and spin-down states.
    """
    require_subluminal(speed)
    r = speed.rho
    scale = math.sqrt((speed.gamma + 1.0) / 2.0)
    basis = np.eye(2, dtype=complex)  # rows: up, down
    us = scale * np.concatenate([basis, r * (basis @ PAULI[1].T)], axis=-1)
    vbars = dirac_adjoint(scale * np.concatenate([-r * (basis @ PAULI[1].T), basis], axis=-1))
    return us, vbars
