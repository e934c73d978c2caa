"""graphon-kit: W-random graph sampling, block-model estimation, and the
matrix/graphon metric layer (L^p, cut norm, alignment- and
coupling-invariant distances, degree-distribution distance), with
reproducible experiment harnesses and a CLI."""

from .common import (ConstructionError, DegenerateError, DomainError,
                     Estimate, GraphonKitError, IntegrabilityError,
                     ParameterError, SearchBudget, SizeError, substream)
from .estimators import (EstimationResult, Partition, block_average,
                         degree_sorting, kappa_class_bounds, least_cut_exact,
                         least_cut_search, least_squares_exact,
                         least_squares_search)
from .experiments import (DensityRule, ExperimentConfig, TrialRecord,
                          emit_csv, emit_summary, run_concentration,
                          run_consistency, run_degree_distribution,
                          run_experiment, run_norm_convergence,
                          step_matrix_vs_graphon_lp)
from .graphon import (AnalyticGraphon, BlockModel, Graphon, IntervalPartition,
                      MixedMembership, PowerLawProduct, PowerLawSum,
                      StepGraphon, constant_graphon, degree, degree_cdf,
                      graphon_from_json, graphon_to_json, holder_rates,
                      lp_norm, named_graphon, normalize, oracle_error_step,
                      power_law_rates, register_graphon, round_to_grid,
                      step_average, tail_rho)
from .metrics import (Cdf, Coupling, cut_norm, cut_norm_exact, cut_norm_lower,
                      degree_cdf_of_degrees, degree_cdf_of_matrix,
                      delta_p_step, hat_delta_cut,
                      hat_delta_p, hat_delta_p_vs_graphon, levy_prokhorov,
                      matrix_lp)
from .sampling import (EdgeList, Sample, SymMatrix, bernoulli_graph, build_h,
                       build_q, density, generate_sample, read_edges,
                       read_matrix, sample_degrees, sample_latent, write_dense,
                       write_latent, write_ssm)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
