"""lelab: exact density-matrix evolution, energy-shell reduction, and
effective entropy on momentum lattices, with a classical phase-space
analogue and a config-driven experiment harness.

Every name is imported from its module, e.g. ``lelab.dynamics.build_hamiltonian``."""

__version__ = "0.1.0"
