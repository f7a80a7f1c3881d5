"""Physical constants. Natural units (hbar = c = 1), momenta and masses in MeV.

The CODATA values below are fixed: every verdict of the package is for
tree-level QED with the physical electron mass, muon mass and alpha. The
masses enter the process table (`kinematics.ParticleSpec`), from which the
production thresholds follow; the coupling enters the amplitudes, the
closed forms and the switching cut alpha^3. `DEFAULT` is the one instance.
"""
from __future__ import annotations

from dataclasses import dataclass
import math


@dataclass(frozen=True)
class Constants:
    m_e: float = 0.51099895       # electron mass [MeV]
    m_mu: float = 105.6583755     # muon mass [MeV]
    alpha: float = 1.0 / 137.035999084

    @property
    def e2(self) -> float:
        """Squared electromagnetic coupling e^2 = 4 pi alpha."""
        return 4.0 * math.pi * self.alpha

    @property
    def alpha3(self) -> float:
        """alpha^3, the loop-correction scale used by the switching heuristic."""
        return self.alpha ** 3


DEFAULT = Constants()
