"""Exact fermionic Fock-space toolkit for Unruh entanglement degradation.

Builds multimode inertial vacuum and one-particle states in Rindler
coordinates, assembles the Alice-Rob density matrices of maximally
entangled states, each named by the Rob modes its two branches excite,
and computes entanglement negativity both by
diagonalizing the partial transpose one connected component at a time and
by an analytic 2x2 block decomposition.
"""

__version__ = "0.1.0"
