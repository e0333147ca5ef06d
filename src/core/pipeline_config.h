// Shared pipeline configuration: the knobs of the netlist -> clique model
// -> eigensolve -> MELO -> split pipeline, in one value-semantic struct.
//
// Before this header existed the same knobs were duplicated across
// MeloOptions, MeloOrderingOptions and every driver call site; the serving
// layer (src/service) would have added a fourth copy. Instead, everything
// that *configures* a pipeline run lives here — MeloOptions is now
// PipelineConfig plus the per-run attachments (diagnostics sink, compute
// budget, embedding provider), and the service's PartitionRequest carries a
// PipelineConfig verbatim, so the CLI and the service cannot drift apart.
//
// The enum token helpers give every enum knob a stable machine-readable
// spelling (lower_snake tokens) used by the wire protocol, the --json CLI
// output and the loadgen; they are parsed case-sensitively and round-trip
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/melo.h"
#include "core/reduction.h"
#include "model/clique_models.h"
#include "spectral/embedding.h"
#include "util/parallel.h"

namespace specpart::core {

/// The single solver-configuration struct (defined in linalg so the
/// spectral layer can consume it without depending on core). PipelineConfig
/// owns the instance every layer passes through.
using SolverOptions = linalg::SolverOptions;
using SolverBackend = linalg::SolverBackend;
using SolverStrategy = linalg::SolverStrategy;
using ObjectiveModel = linalg::ObjectiveModel;

/// Value-semantic pipeline knobs shared by the CLI drivers, the experiment
/// runners and the partitioning service. See MeloOptions (core/drivers.h)
/// for the per-run attachments layered on top.
struct PipelineConfig {
  /// Number of eigenvectors d used to build the vertex vectors. When
  /// include_trivial is true this count includes the trivial
  /// (lambda = 0, constant) eigenvector, as in the reduction theory; the
  /// paper's "MELO with two eigenvectors" = trivial + Fiedler.
  /// 0 = automatic: solve a fixed 16-pair slice of the low spectrum and
  /// keep the prefix ending at the largest relative eigenvalue gap
  /// lambda_{i+1}/lambda_i (the higher-order Cheeger heuristic).
  std::size_t num_eigenvectors = 10;
  bool include_trivial = true;
  /// Weighting scheme #1-#4: how eigenvector coordinates are scaled.
  CoordScaling scaling = CoordScaling::kSqrtGap;
  /// Greedy selection rule (kept at magnitude for the paper's pipeline).
  SelectionRule selection = SelectionRule::kMagnitude;
  /// Recompute H from the first half-ordering and rescale coordinates
  /// (the paper's readjustment step; only affects H-based scalings).
  bool readjust_h = true;
  /// Override H (> 0); 0 = automatic (default_h / readjusted_h).
  double h_override = 0.0;
  model::NetModel net_model = model::NetModel::kPartitioningSpecific;
  /// Diversified orderings: run r uses the (r+1)-th longest vector as the
  /// seed vertex; the best split across runs wins.
  std::size_t num_starts = 1;
  /// Eigensolve configuration: strategy (flat | multilevel), dense
  /// threshold / fallback limit.
  SolverOptions solver;
  /// Which symmetric operator the spectral pipeline optimizes
  /// (linalg/objective.h): the paper's unnormalized min-cut Laplacian
  /// (default — the byte-identity anchor for cache keys, wire frames and
  /// stored bases) or the degree-normalized operator whose splits minimize
  /// conductance through the sweep-cut splitter (part/sweep_cut.h).
  ObjectiveModel objective = ObjectiveModel::kUnnormalized;
  std::uint64_t seed = 0x3E10ULL;
  /// Clique-pair admission budget for the net model: when > 0 and the
  /// exact expansion size sum p(p-1)/2 exceeds it, the pipeline fails fast
  /// with a structured `model_too_large` Error instead of attempting the
  /// allocation (see model::ModelBuildOptions::max_clique_pairs).
  /// 0 = unlimited.
  std::size_t max_clique_pairs = 0;
  /// Compute-kernel threading (see util/parallel.h), forwarded to the
  /// eigensolver, the MELO greedy scan and the DP-RP split. The serial
  /// default is byte-identical to the pre-parallel implementation.
  ParallelConfig parallel;

  /// Eigensolve options implied by this config (count, trivial-pair
  /// accounting, thresholds, seed, threading).
  spectral::EmbeddingOptions embedding_options() const;

  /// Greedy-ordering options implied by this config for multi-start run
  /// `start_rank` (budget attachment is the caller's job).
  MeloOrderingOptions ordering_options(std::size_t start_rank = 0) const;
};

/// Stable machine-readable token for each enum knob ("sqrt_gap",
/// "partitioning_specific", "magnitude", ...). Distinct from the pretty
/// display names (coord_scaling_name etc.), which keep their table-header
/// spellings.
std::string_view coord_scaling_token(CoordScaling s);
std::string_view net_model_token(model::NetModel m);
std::string_view selection_rule_token(SelectionRule s);
std::string_view solver_backend_token(SolverBackend b);
std::string_view solver_strategy_token(SolverStrategy s);
std::string_view objective_model_token(ObjectiveModel m);

/// Parse a token back. Throws specpart::Error on an unknown token, naming
/// the accepted spellings.
CoordScaling parse_coord_scaling(std::string_view token);
model::NetModel parse_net_model(std::string_view token);
SelectionRule parse_selection_rule(std::string_view token);
SolverBackend parse_solver_backend(std::string_view token);
SolverStrategy parse_solver_strategy(std::string_view token);
ObjectiveModel parse_objective_model(std::string_view token);

/// Accepted spellings of each enum knob, " | "-joined ("flat | multilevel"),
/// generated from the same token tables the parse_* functions read — the
/// single source of truth the CLI binaries' --help text and the parse
/// error messages both quote, so they cannot drift.
const std::string& coord_scaling_tokens();
const std::string& net_model_tokens();
const std::string& selection_rule_tokens();
const std::string& solver_backend_tokens();
const std::string& solver_strategy_tokens();
const std::string& objective_model_tokens();

}  // namespace specpart::core
