"""Numerical laboratory for hyperbolic-extension metrics and their
spherical-cut limits.

Subpackages:

* :mod:`hypext.hyptrig` -- stable hyperbolic right-triangle trigonometry
  and the sphere-radius reparametrization.
* :mod:`hypext.fields` -- closed-form metric fields on the circle over a
  fixed chart atlas, spherical cuts, and the grid C^2 distance.
* :mod:`hypext.extension` -- the warped-product extension metric, join
  coordinates on its geodesic spheres, closed-form cuts and the
  finite-difference pullback oracle.
* :mod:`hypext.cutlimits` -- indexed metric families, predicted cut
  limits of reparametrized extension families, and convergence runs.
* :mod:`hypext.families` -- synthetic families (round and bump) used by
  the experiments.
* :mod:`hypext.cli` -- the ``hypext`` command-line front end.
"""

from .errors import DomainError, VerificationError

__version__ = "0.1.0"

__all__ = ["DomainError", "VerificationError", "__version__"]
