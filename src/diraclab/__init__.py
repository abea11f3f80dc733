"""diraclab: a numerical laboratory for nonlinear Dirac operators.

Clifford-algebra kernel, conformal (Vahlen/Moebius) machinery, strong and
weak residual engines for p-Dirac / p-harmonic closed forms, a lattice
p-Dirichlet minimizer, spherical operators, and a reporting CLI.
"""

from .algebra import (
    AlgebraError,
    Multivector,
    SingularElementError,
    VectorFactorList,
    geometric_product,
    lipschitz_element_inverse,
    pin_action,
    reflect,
    vector_inverse,
)

__version__ = "0.1.0"
