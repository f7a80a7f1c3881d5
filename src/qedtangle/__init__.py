"""qedtangle: helicity entanglement of tree-level QED 2->2 scattering.

Builds the outgoing two-qubit helicity density matrix for the six
electron/muon/photon scattering processes, applies the Peres-Horodecki test
with negativity, logarithmic negativity and von Neumann entropy, and scans
the (COM momentum, scattering angle) plane.
"""

__version__ = "0.1.0"

from .amplitudes import AmplitudeMatrix, amplitude, helicity_amplitudes_batch
from .constants import DEFAULT
from .entanglement import (EntanglementReport, analyze, bell_fidelities,
                           bell_fidelities_phase_opt, partial_transpose)
from .errors import (BelowThresholdError, DivergentKinematicsError,
                     InvalidConfigError, InvalidKinematicsError,
                     NonHermitianError, QedTangleError,
                     UnfilterableStateError)
from .kinematics import (KinematicPoint, ProcessKind, build_kinematics,
                         threshold_momentum)
from .linalg import hermitian_eigenvalues
from .qstate import (DensityMatrix, InitialState, diagonal, evolve, pure,
                     unpolarized, werner_symmetric)
from .scan import (ScanConfig, ScanResult, ScanRow, cross_section_check,
                   emit_csv, emit_plot_script, find_threshold, parse_csv,
                   run_scan)

__all__ = [name for name in dir() if not name.startswith("_")]
