"""Exact-arithmetic toolkit for finite-dimensional Leibniz algebras.

Structure-constant algebras over exact rationals: identity checking, central
and derived series, derivation algebras, codimension-one solvable extension
solving with replayable transcripts, the named filiform/solvable families,
and a scenario registry that machine-checks the classification results this
package reconstructs.
"""

from fractions import Fraction as Rational

from .algebra import (
    Algebra,
    LeibnizReport,
    Subspace,
    algebra_from_products,
    bracket,
    derived_series,
    is_filiform,
    is_lie,
    is_nilpotent,
    is_solvable,
    leibniz_check,
    lower_central_series,
    nilpotency_index,
    nilradical_equals,
    right_annihilator,
    series_dims,
)
from .derivations import (
    DerivationSpace,
    derivation_space,
    inner_derivations,
    is_derivation,
    max_nil_independent,
    right_multiplication,
)
from .extensions import (
    ConjectureResult,
    ConstraintSystem,
    Contradiction,
    ExtensionProblem,
    Family,
    apply_basis_change,
    build_extension_problem,
    conjecture_check,
    diagonal_branches,
    eliminate,
    generate_constraints,
    instantiate,
    replay,
    resolved_assignments,
    star_change,
)
from .families import (
    FAMILY_IDS,
    ConstructionError,
    FamilySpec,
    family_catalog,
    make_family,
)
from .linalg import binomial, nullspace, rref
from .poly import Poly, PolyRing
from .verify import Report, SCENARIOS, run_all, run_scenario

__version__ = "0.1.0"
