"""Simultaneous confidence tubes for rotation-valued curve data."""

from .curves import (CurveSample, ResidualField, RotationCurve, SpatioTemporalAction,
                     TimeGrid, apply_action, curve_length, length_loss, pointwise_extrinsic_mean,
                     residuals)
from .errors import (DegenerateMean, GridMismatch, InvalidDof, InvalidRotation,
                     NoConvergence, NonMonotoneBracket, NonMonotoneTime, NonRotationRow,
                     NonSkewInput, NoRoot, ParseError, RotubesError, SingularCovariance,
                     ZeroResidualColumn)
from .gkf import EcContext, expected_ec, lkc_estimate, solve_quantile
from .simulation import (CoverageReport, ErrorProcessSpec, coverage_experiment,
                         mc_quantile_oracle, sample_gp_sample)
from .so3 import exp_so3, geodesic_distance, hat, log_so3, project_to_so3, vee
from .tubes import (ConfidenceTube, OverlapReport, TubeIngredients, act_on_tube,
                    build_tube, compare_tubes, tube_contains, tube_ingredients)

__version__ = "0.1.0"
