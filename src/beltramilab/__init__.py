"""Numerical laboratory for planar dilatation pairs, non-symmetric
divergence-form elliptic equations, and quantitative Jacobian diagnostics."""

from .coeff_algebra import (
    BeltramiPair,
    EllipticityReport,
    K_from_lambda,
    K_of_beltrami,
    astala_exponent,
    beltrami_from_sigma,
    ellipticity_constants,
    sigma_from_beltrami,
    tau_bound_oracle,
    tau_ellipticity_bound,
)
from .elliptic_solver import (
    solve_dirichlet,
    solve_periodic_cell,
    stream_function,
)
from .grid import (
    DyadicSquareSet,
    ElementMatrixField,
    ScalarFieldP1,
    TriMesh,
    build_mesh,
    build_periodic_cell,
    build_regular_ngon,
    build_unit_square,
    dyadic_squares,
    element_gradient,
)
from .homogenization import (
    CellMap,
    EffectiveTensor,
    cell_map,
    effective_conductivity,
    image_area,
)
from .sigma_harmonic import (
    PlanarMap,
    WirtingerField,
    beltrami_residual,
    equival_residual,
    injectivity_check,
    primary_pair,
    pushforward_tau,
    sigma_harmonic_map,
    unimodality_check,
)
from .weights_diagnostics import (
    AinftyFit,
    ainfty_probe,
    bmo_norm,
    higher_integrability_probe,
    quantitative_jacobian_check,
    reverse_holder_constant,
)

__version__ = "0.1.0"
