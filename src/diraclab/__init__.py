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
    clifford_inner,
    conjugation,
    geometric_product,
    lipschitz_element_inverse,
    norm,
    pin_action,
    reflect,
    reversion,
    scalar_part,
    vector_inverse,
)

__version__ = "0.1.0"
