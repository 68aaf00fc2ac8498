"""Compactified trigonometric Ruijsenaars-Schneider system on CP(n-1).

The package realizes the phase space as a quasi-Hamiltonian reduction of
SU(n) x SU(n), builds the local and global Lax matrices, the Delzant-type
identifications with the projective model, the self-duality map and its
mapping-class-group presentation, and ships a property-based verification
suite plus a CLI front end.
"""

from .coupling import Coupling
from .double import DoublePoint, DoubleTangent, InvariantHamiltonian

__version__ = "0.1.0"

__all__ = [
    "Coupling",
    "DoublePoint",
    "DoubleTangent",
    "InvariantHamiltonian",
    "__version__",
]
