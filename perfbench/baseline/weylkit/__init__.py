"""Exact combinatorics of extended affine Weyl groups and their Hecke algebroids.

Everything here computes with arbitrary-precision integers and reduced
rationals; nothing in the package touches floating point.
"""

from weylkit.exact import QmodZ

__all__ = ["QmodZ"]
