"""Exact fermionic Fock-space toolkit for Unruh entanglement degradation.

Builds multimode inertial vacuum and one-particle states in Rindler
coordinates, assembles the Alice-Rob density matrices for three maximally
entangled scenarios, and computes entanglement negativity both by
diagonalizing the partial transpose one connected component at a time and
by an analytic 2x2 block decomposition.
"""

__version__ = "0.1.0"
