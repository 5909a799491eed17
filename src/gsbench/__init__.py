"""Verification workbench for composition estimates in weighted smooth classes.

Submodules:
  weights     weight functions, Young conjugates, condition checks
  sequences   weight sequences, associated weight, sequence conditions
  fdb         Faa di Bruno by partial Bell polynomials, partitions
  functions   model functions, jets, seminorm estimators, growth index
  experiments inequality-chain experiments (proof skeletons)
  cli         deterministic command-line front end
"""
from .errors import (BracketError, CapabilityError, DegenerateInputError,
                     GsbenchError, PreconditionError, RangeError, RegimeError,
                     SearchExhaustedError, TruncationError)
from .experiments import (bounded_derivative_chain, cauchy_derivative_bound,
                          compactness_blowup, composed_seminorm_bound,
                          equicontinuity_constant, necessary_growth,
                          negative_chain, nuclearity_sum,
                          sufficient_condition_check)
from .fdb import (Jet, compose_jet, enumerate_partitions, faa_di_bruno,
                  identity_lah, identity_two_power,
                  iter_partition_multi_indices, log_compose_table,
                  partition_count, single_jet_compose)
from .functions import (Gaussian, GevreyBump, IndexEstimate, ModelFunction,
                        MonomialBump, Polynomial, Pow1px2, Sqrt1px2,
                        estimate_growth_exponent, identity_function,
                        jet_log_abs, parse_function, seminorm_p_lambda,
                        seminorm_pi, weighted_log_sup)
from .grids import DEFAULT_T_GRID, GridSpec
from .logdomain import LogReal, log_sum_exp, signed_log_sum
from .reports import ChainReport, atomic_write_bytes, to_json_bytes
from .sequences import (AssociatedWeight, WeightSequence, associated_weight,
                        check_sequence_conditions, doubling_from_sequence,
                        parse_sequence, sandwich_check)
from .weights import (ConjugateEvaluator, WeightFunction,
                      check_weight_conditions, conjugate_shift_bound,
                      factorial_domination, find_log_scaling_constant,
                      parse_weight, verify_log_scaling_constant)

__version__ = "0.1.0"
