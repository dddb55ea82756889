"""ncharm: exact computer algebra for polynomials in free symmetric variables.

The package computes directional derivatives and Laplacians of polynomials
over the free algebra on symmetric variables, exact harmonic bases in any
number of variables, border-vector / middle-matrix representations, and
classification of homogeneous harmonic and subharmonic polynomials in two
variables, backed by reproducible numeric positivity sampling.

Public names are re-exported lazily: each loads its submodule on first use,
so a process that only does exact algebra never imports numpy or the
sampler.  numpy loads with `positivity`, with `classify2`'s numeric
branches, with `ncpoly`'s matrix points, and with `_evalplan`, the float
evaluation plan, which `evaluate` and `evaluate_middle` load when called.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    "H_LETTER": "ncpoly",
    "MatrixPoint": "ncpoly",
    "ParseError": "ncpoly",
    "Poly": "ncpoly",
    "Word": "ncpoly",
    "degree_profile": "ncpoly",
    "evaluate": "ncpoly",
    "parse": "ncpoly",
    "render_word": "ncpoly",
    "symmetrize": "ncpoly",
    "word": "ncpoly",
    "CommPoly": "calculus",
    "commutative_collapse": "calculus",
    "commutative_laplacian": "calculus",
    "directional_derivative": "calculus",
    "laplacian": "calculus",
    "HarmonicBasis": "harmonicspace",
    "check_independence_property": "harmonicspace",
    "enumerate_words": "harmonicspace",
    "express_in_basis": "harmonicspace",
    "gamma_power_parts": "harmonicspace",
    "harmonic_basis": "harmonicspace",
    "laplacian_coefficient_matrix": "harmonicspace",
    "MiddleMatrixRep": "middlematrix",
    "evaluate_middle": "middlematrix",
    "extract": "middlematrix",
    "reconstruct": "middlematrix",
    "zeroes_violation": "middlematrix",
    "PointVerdict": "positivity",
    "SampleConfig": "_sampleconfig",
    "SampleVerdict": "positivity",
    "Witness": "positivity",
    "ldl_pivots": "positivity",
    "min_eigenvalue": "positivity",
    "sample_matrix_positive": "positivity",
    "subharmonic_at_point": "positivity",
    "Degree4Coeffs": "classify2",
    "Degree4Region": "classify2",
    "GramForm": "classify2",
    "GramObstruction": "classify2",
    "NeighborDecomposition": "classify2",
    "OddSandwich": "classify2",
    "SosDecomposition": "classify2",
    "Verdict": "classify2",
    "classify": "classify2",
    "degree4_coefficients": "classify2",
    "degree4_family": "classify2",
    "degree4_inequalities": "classify2",
    "gram_from_neighbors": "classify2",
    "high_even_membership": "classify2",
    "laplacian_sos_identity_check": "classify2",
    "left_neighbor": "classify2",
    "neighbor_harmonicity_check": "classify2",
    "odd_sandwich": "classify2",
    "odd_sandwich_vanishing_check": "classify2",
    "right_neighbor": "classify2",
    "sos_decompose": "classify2",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
