"""wienercap: capacity-based Wiener-type boundary regularity tests for
heat-type operators on metric measure spaces, cross-checked by a Monte
Carlo Perron-Wiener solver on Euclidean domains."""

__version__ = "0.1.0"

from .capacity import (CapacityConvergenceError, CapacityEstimate,
                       CapacityInputError, CapacityProblem, build_problem,
                       constraint_points, potential_many, refine_capacity,
                       solve_capacity)
from .config import ConfigError, RunConfig, config_hash, load_config, parse_config
from .domain import (BENCHMARK_STATUS, BallComplementTarget, DomainError,
                     DomainSpec, RingSpec,
                     RingTarget, SectionTarget, SetSample, benchmark,
                     benchmark_names, cone, contains, contains_many, cusp,
                     cylinder, halfspace_time, mask_domain, max_nonempty_band,
                     punctured, read_mask, ring_mask,
                     sample_set_and_measure, spatial_halfspace,
                     validate_boundary_point, write_mask)
from .kernel import (GaussBounds, GaussianKernel, HeatKernel, KernelError,
                     euclidean_bounds, structural_constant)
from .metric import (MetricError, MetricSpace, SpaceTimePoint, ball_volume,
                     dist, euclidean, heisenberg_koranyi, parabolic_dist,
                     parabolic_dist_many, stp, unit_ball_constant)
from .pde import (HolderFit, PDEError, SolutionEstimate, WalkConfig,
                  boundary_holder, boundary_phi_cutoff, boundary_phi_distance,
                  classification_probe, interior_axis_probes, pwb_solve,
                  pwb_solve_many)
from .regularity import (Classification, ConeReport, RegularityError,
                         classify, cone_check)
from .wiener import (BoundCheckReport, ComparabilityReport, IntegralReport,
                     SeriesReport, SeriesTable, TermTailFit, WienerError,
                     WienerFunctionEstimate, axis_probes, bound_check,
                     divergence_verdict, integral_test, lambda_comparability,
                     nested_partial_value, series_table, term_tail_fit,
                     wiener_function)
