"""Spin-polarization correlations for elastic electron-positron scattering.

Closed-form joint and single-spin probabilities for the polarized and
unpolarized setups, an independent Dirac-algebra oracle that rebuilds the
same intensities numerically, and a deterministic CHSH violation search
over detector angles and particle speed.

The package re-exports the names of the README library example; the rest
of the library is reached through its modules, all of which
``import spincorr`` loads.
"""

from . import chsh, closed_form, dirac, kinematics, oracle, verification
from .chsh import AngleQuad, SearchSettings, s_value, search_violation
from .closed_form import CorrelationModel, joint_probability
from .kinematics import Speed

__version__ = "0.1.0"
