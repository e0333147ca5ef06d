#include "core/pipeline_config.h"

#include <utility>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::core {

spectral::EmbeddingOptions PipelineConfig::embedding_options() const {
  spectral::EmbeddingOptions eopts;
  eopts.count = num_eigenvectors;
  eopts.skip_trivial = !include_trivial;
  eopts.solver = solver;
  eopts.seed = seed;
  eopts.parallel = parallel;
  eopts.objective = objective;
  return eopts;
}

MeloOrderingOptions PipelineConfig::ordering_options(
    std::size_t start_rank) const {
  MeloOrderingOptions oopts;
  oopts.selection = selection;
  oopts.start_rank = start_rank;
  oopts.parallel = parallel;
  return oopts;
}

namespace {

// One token table per enum knob: the single source every spelling-consumer
// reads. token() prints from it, parse() scans it, and the *_tokens()
// " | "-joined lists — quoted by both the parse error messages and the CLI
// binaries' --help text — are generated from it, so none of them can drift.
template <typename E>
struct TokenEntry {
  std::string_view token;
  E value;
};

constexpr TokenEntry<CoordScaling> kCoordScalingTable[] = {
    {"sqrt_gap", CoordScaling::kSqrtGap},
    {"gap", CoordScaling::kGap},
    {"inv_sqrt_lambda", CoordScaling::kInvSqrtLambda},
    {"unit", CoordScaling::kUnit},
};

constexpr TokenEntry<model::NetModel> kNetModelTable[] = {
    {"standard", model::NetModel::kStandard},
    {"partitioning_specific", model::NetModel::kPartitioningSpecific},
    {"frankle", model::NetModel::kFrankle},
};

constexpr TokenEntry<SelectionRule> kSelectionRuleTable[] = {
    {"magnitude", SelectionRule::kMagnitude},
    {"projection", SelectionRule::kProjection},
    {"cosine", SelectionRule::kCosine},
};

constexpr TokenEntry<SolverBackend> kSolverBackendTable[] = {
    {"scalar", SolverBackend::kScalar},
};

constexpr TokenEntry<SolverStrategy> kSolverStrategyTable[] = {
    {"flat", SolverStrategy::kFlat},
    {"multilevel", SolverStrategy::kMultilevel},
};

constexpr TokenEntry<ObjectiveModel> kObjectiveModelTable[] = {
    {"unnormalized", ObjectiveModel::kUnnormalized},
    {"normalized", ObjectiveModel::kNormalizedSymmetric},
};

template <typename E, std::size_t N>
std::string_view token_of(const TokenEntry<E> (&table)[N], E value) {
  for (const TokenEntry<E>& entry : table)
    if (entry.value == value) return entry.token;
  return "?";
}

template <typename E, std::size_t N>
std::string join_tokens(const TokenEntry<E> (&table)[N]) {
  std::string joined;
  for (std::size_t i = 0; i < N; ++i) {
    if (i > 0) joined += " | ";
    joined += table[i].token;
  }
  return joined;
}

template <typename E, std::size_t N>
E parse_token(const TokenEntry<E> (&table)[N], std::string_view token,
              const char* what, const std::string& accepted) {
  for (const TokenEntry<E>& entry : table)
    if (entry.token == token) return entry.value;
  throw Error("unknown " + std::string(what) + " " + quote_prefix(token) +
              " (expected " + accepted + ")");
}

}  // namespace

std::string_view coord_scaling_token(CoordScaling s) {
  return token_of(kCoordScalingTable, s);
}

std::string_view net_model_token(model::NetModel m) {
  return token_of(kNetModelTable, m);
}

std::string_view selection_rule_token(SelectionRule s) {
  return token_of(kSelectionRuleTable, s);
}

std::string_view solver_backend_token(SolverBackend b) {
  return token_of(kSolverBackendTable, b);
}

std::string_view solver_strategy_token(SolverStrategy s) {
  return token_of(kSolverStrategyTable, s);
}

std::string_view objective_model_token(ObjectiveModel m) {
  return token_of(kObjectiveModelTable, m);
}

const std::string& coord_scaling_tokens() {
  static const std::string joined = join_tokens(kCoordScalingTable);
  return joined;
}

const std::string& net_model_tokens() {
  static const std::string joined = join_tokens(kNetModelTable);
  return joined;
}

const std::string& selection_rule_tokens() {
  static const std::string joined = join_tokens(kSelectionRuleTable);
  return joined;
}

const std::string& solver_backend_tokens() {
  static const std::string joined = join_tokens(kSolverBackendTable);
  return joined;
}

const std::string& solver_strategy_tokens() {
  static const std::string joined = join_tokens(kSolverStrategyTable);
  return joined;
}

const std::string& objective_model_tokens() {
  static const std::string joined = join_tokens(kObjectiveModelTable);
  return joined;
}

CoordScaling parse_coord_scaling(std::string_view token) {
  return parse_token(kCoordScalingTable, token, "scaling",
                     coord_scaling_tokens());
}

model::NetModel parse_net_model(std::string_view token) {
  return parse_token(kNetModelTable, token, "net model", net_model_tokens());
}

SelectionRule parse_selection_rule(std::string_view token) {
  return parse_token(kSelectionRuleTable, token, "selection rule",
                     selection_rule_tokens());
}

SolverBackend parse_solver_backend(std::string_view token) {
  return parse_token(kSolverBackendTable, token, "solver backend",
                     solver_backend_tokens());
}

SolverStrategy parse_solver_strategy(std::string_view token) {
  return parse_token(kSolverStrategyTable, token, "solver strategy",
                     solver_strategy_tokens());
}

ObjectiveModel parse_objective_model(std::string_view token) {
  return parse_token(kObjectiveModelTable, token, "objective model",
                     objective_model_tokens());
}

}  // namespace specpart::core
