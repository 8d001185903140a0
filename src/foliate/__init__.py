"""Numerical curvature laboratory for weighted almost-product structures.

A structure is a charted Riemannian manifold together with an orthogonal
splitting of its tangent bundle and an optional weight vector field.  The
package computes the associated mixed and weighted curvatures, extrinsic
tensors, and co-nullity flows; verifies the divergence identities and
closed-chart integral formulas they satisfy; and checks the arithmetic and
comparison bounds that constrain such structures.
"""

from .almost_product import (AdaptedPoint, DistributionSpec, ExtrinsicPack,
                             WeightedAlmostProduct, co_nullity,
                             co_nullity_weighted, mixed_invariants,
                             second_fundamental)
from .bounds import (DiameterBoundInput, Thm418Params, diameter_bound,
                     extrinsic_q_ricci, f_delta, ferus_scenario,
                     focal_inequality, nullity_threshold,
                     pinching_inequality, radon_hurwitz, rho_bound_check,
                     thm418_hypothesis)
from .errors import (DomainError, FoliateError, InputError, NumericalError,
                     ParseError)
from .expr import differentiate, eval_jet, eval_value, parse, to_source
from .gallery import GalleryItem, builtin, catalog, default_suite_items
from .geodesics import (EnvelopeReport, JacobiTrace, LeafGeodesicTrace,
                        RiccatiTrace, TurbulenceReport, VtReport,
                        export_trace_csv, extremal_angle_bases, index_form,
                        integrate_geodesic, jacobi_flow, jacobi_ode,
                        lemma47_envelope, pair_sup_bruteforce,
                        random_admissible_R, riccati_flow,
                        riccati_ode, scalar_blowup_time,
                        tangent_weight_series, turbulence, turbulence_at,
                        vt_machinery)
from .identities import (ResidualReport, bench_field, closed_chart_grid,
                         divergence_integral, integral_formula_1,
                         integral_formula_2_leafwise, pointwise_suite,
                         quadrature_integral, splitting_integrands)
from .manifest import from_manifest, load_manifest, save_manifest, to_manifest
from .manifold import (ChartedManifold, PointGeometry, VectorFieldSpec,
                       christoffel, divergence, lie_derivative_metric,
                       random_points, ricci, riemann, sectional, wrap_point)
from .suite import SUITE_KEYS, SuiteItem, format_suite, run_item, run_suite
from .weighted import (CdReport, cd_check, jacobi_operator_bracket,
                       min_partial_ricci, mixed_scalar,
                       mixed_sectional_weighted, partial_ricci_q,
                       sphere_directions, weighted_jacobi_operator)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
