"""Exact models and growth functions for metabelian and wreath-product Lie algebras.

The package computes, over exact rationals and big integers:

* left-normed expansions of Lie expressions and their metabelian normal forms,
* wreath-product models (polynomial module plus abelian torus) with a
  certified generator-wise embedding of the free metabelian algebra,
* finite relation suites checked by direct evaluation,
* exact filtration growth functions with closed-form cross-checks,
* enveloping-algebra coefficient series via the Euler product transform and a
  stretched-exponent estimator for intermediate growth.
"""

from .expr import (
    Bracket,
    Generator,
    LieExpr,
    ParseError,
    UnboundGeneratorError,
    evaluate,
    format_expr,
    left_normalize,
    parse_expr,
)
from .growth import (
    GrowthReport,
    growth_bfs,
    w_gamma_closed,
    wplus_gamma_closed,
    wplus_graded_dims,
    wplus_growth_bound,
    wplus_spanning_count,
)
from .metabelian import (
    MetabelianElement,
    basis_monomials,
    graded_dim,
    normalize_expr,
    normalize_word,
)
from .metabelian import growth as metabelian_growth
from .presentations import (
    Presentation,
    Relator,
    check_presentation,
    tower_commutation_report,
    wplus_presentation,
    wreath_presentation,
)
from .rowspace import RowSpace
from .series import (
    ExponentFit,
    euler_transform,
    fit_stretched_exponent,
)
from .wreath import (
    MODE_W,
    MODE_WPLUS,
    RelationReport,
    WreathElement,
    certify_embedding,
    magnus_embedding,
    model_laws_report,
    standard_assignment,
    wreath_bracket,
)

__version__ = "0.1.0"
