"""Stochastic-control toolkit for Hermitian matrix Laplace functionals.

Builds convex trace potentials on matrix tuples, evaluates the associated
value functions and optimal drifts by Monte Carlo, integrates the controlled
and stationary dynamics, samples the matching Gibbs ensembles, and verifies
the variational identities and free-entropy consequences against closed-form
oracles.
"""

from .matrix_core import (
    HermitianTuple,
    RealCoords,
    UnitaryTuple,
    cayley,
    cayley_inverse,
    hs_norm2,
    real_embedding,
    real_embedding_inverse,
    sample_increment,
    stream,
)
from .nc_poly import NCPolynomial, TensorPolynomial, parse_word
from .potentials import (
    PotentialComponent,
    PotentialSpec,
    eval_potential,
    gradient_potential,
    quadratic_spec,
    spec_from_json,
    spec_to_json,
)
from .value_function import (
    TupleEstimate,
    ValueEstimate,
    ValueQuery,
    drift_gradexp,
    drift_logratio,
    value_h,
)

__all__ = [
    "HermitianTuple",
    "RealCoords",
    "UnitaryTuple",
    "NCPolynomial",
    "TensorPolynomial",
    "PotentialComponent",
    "PotentialSpec",
    "TupleEstimate",
    "ValueEstimate",
    "ValueQuery",
    "cayley",
    "cayley_inverse",
    "drift_gradexp",
    "drift_logratio",
    "eval_potential",
    "gradient_potential",
    "hs_norm2",
    "parse_word",
    "quadratic_spec",
    "real_embedding",
    "real_embedding_inverse",
    "sample_increment",
    "spec_from_json",
    "spec_to_json",
    "stream",
    "value_h",
]

__version__ = "0.1.0"
