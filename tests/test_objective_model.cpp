// Tests for the objective-model refactor: the normalized-symmetric
// Laplacian helpers (linalg/objective.h), the conductance sweep cut
// (part/sweep_cut.h), isolated-vertex safety, disjoint cache-key domains,
// the basis-store header extension, the wire-protocol objective field,
// the metrics gating, and spectral-gap automatic dimension selection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/drivers.h"
#include "core/pipeline_config.h"
#include "graph/generator.h"
#include "graph/laplacian.h"
#include "linalg/objective.h"
#include "model/assembly.h"
#include "model/clique_models.h"
#include "multilevel/vcycle.h"
#include "part/fm.h"
#include "part/ordering.h"
#include "part/sweep_cut.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "service/service.h"
#include "spectral/embedding.h"
#include "storage/basis_store.h"
#include "util/error.h"
#include "util/rng.h"

namespace fs = std::filesystem;

namespace specpart {
namespace {

graph::Hypergraph make_netlist(std::size_t modules, std::uint64_t seed) {
  graph::GeneratorConfig cfg;
  cfg.num_modules = modules;
  cfg.num_nets = modules + modules / 5;
  cfg.num_clusters = 4;
  cfg.seed = seed;
  return graph::generate_netlist(cfg);
}

/// Stored value of N at (i, j), or 0 when the entry is absent.
double entry_at(const linalg::SymCsrMatrix& m, std::size_t i, std::size_t j) {
  for (std::size_t k = m.row_begin(i); k < m.row_end(i); ++k)
    if (m.col_index(k) == j) return m.value(k);
  return 0.0;
}

TEST(NormalizedLaplacian, EntriesMatchDegreeScaling) {
  // Triangle 0-1-2 with a pendant 3 hanging off vertex 2, weighted.
  const graph::Graph g(4, {{0, 1, 1.0}, {1, 2, 2.0}, {0, 2, 1.0},
                           {2, 3, 0.5}});
  const linalg::SymCsrMatrix l = graph::build_laplacian(g);
  const linalg::SymCsrMatrix n = linalg::normalized_laplacian(l);
  ASSERT_EQ(n.size(), 4u);
  // Pattern is preserved (same storage, rescaled values).
  EXPECT_EQ(n.nnz(), l.nnz());
  const linalg::Vec s = linalg::inv_sqrt_degree_scale(l);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_NEAR(entry_at(n, i, j), entry_at(l, i, j) * s[i] * s[j], 1e-15)
          << "entry (" << i << ", " << j << ")";
  // Every non-isolated diagonal of N is exactly 1, so trace(N) counts the
  // non-isolated vertices.
  double trace = 0.0;
  for (std::size_t i = 0; i < 4; ++i) trace += entry_at(n, i, i);
  EXPECT_NEAR(trace, 4.0, 1e-12);
}

TEST(NormalizedLaplacian, ZeroDegreeRowsScaleToZero) {
  // Vertex 3 is isolated: its Laplacian row is a stored zero diagonal, and
  // D^{-1/2} must treat the zero degree as scale 0, not 1/sqrt(0).
  const graph::Graph g(4, {{0, 1, 1.0}, {1, 2, 1.0}});
  const linalg::SymCsrMatrix l = graph::build_laplacian(g);
  const linalg::Vec s = linalg::inv_sqrt_degree_scale(l);
  EXPECT_EQ(s[3], 0.0);
  EXPECT_GT(s[0], 0.0);
  const linalg::SymCsrMatrix n = linalg::normalized_laplacian(l);
  for (std::size_t k = n.row_begin(3); k < n.row_end(3); ++k)
    EXPECT_EQ(n.value(k), 0.0);
  double trace = 0.0;
  for (std::size_t i = 0; i < 4; ++i) trace += entry_at(n, i, i);
  EXPECT_NEAR(trace, 3.0, 1e-12);  // 3 non-isolated vertices
  // All eigenvalues of the normalized operator lie in [0, 2].
  spectral::EmbeddingOptions eo;
  eo.count = 4;
  const spectral::EigenBasis b = spectral::compute_eigenbasis(n, eo);
  for (const double v : b.values) {
    EXPECT_GE(v, -1e-10);
    EXPECT_LE(v, 2.0 + 1e-10);
  }
}

TEST(SweepCut, VolumesFollowNetEligibility) {
  // Net {2} has one pin and net {} would have zero: neither contributes to
  // volume, exactly like neither can contribute to a cut.
  // Weight 100 on the 1-pin net is ineligible and must not appear anywhere;
  // vertex 4 is in no net at all.
  graph::Hypergraph h(5, {{0, 1}, {1, 2, 3}, {2}}, {2.0, 3.0, 100.0});
  const std::vector<double> vol = part::vertex_volumes(h);
  EXPECT_DOUBLE_EQ(vol[0], 2.0);
  EXPECT_DOUBLE_EQ(vol[1], 5.0);
  EXPECT_DOUBLE_EQ(vol[2], 3.0);
  EXPECT_DOUBLE_EQ(vol[3], 3.0);
  EXPECT_DOUBLE_EQ(vol[4], 0.0);  // isolated
}

TEST(SweepCut, BruteForceAgreement) {
  const graph::Hypergraph h = make_netlist(40, 7);
  Rng rng(3);
  part::Ordering o(h.num_nodes());
  std::iota(o.begin(), o.end(), 0u);
  rng.shuffle(o);

  const part::SplitResult best = part::best_conductance_split(h, o);
  ASSERT_TRUE(best.feasible);
  double manual = std::numeric_limits<double>::infinity();
  for (std::size_t i = 1; i < h.num_nodes(); ++i) {
    const double phi =
        part::conductance(h, part::split_to_partition(o, i));
    if (std::isfinite(phi)) manual = std::min(manual, phi);
  }
  EXPECT_DOUBLE_EQ(best.objective, manual);
  EXPECT_DOUBLE_EQ(
      part::conductance(h, part::split_to_partition(o, best.split)),
      best.objective);
}

TEST(SweepCut, MinFractionBoundsTheSplit) {
  const graph::Hypergraph h = make_netlist(30, 9);
  part::Ordering o(h.num_nodes());
  std::iota(o.begin(), o.end(), 0u);
  const part::SplitResult best = part::best_conductance_split(h, o, 0.4);
  ASSERT_TRUE(best.feasible);
  const std::size_t min_side = 12;  // ceil(0.4 * 30)
  EXPECT_GE(best.split, min_side);
  EXPECT_LE(best.split, h.num_nodes() - min_side);
}

TEST(SweepCut, NormalizedPipelineSurvivesIsolatedVertices) {
  // Vertices 6 and 7 are pinless, net {4} is single-pin: the regression
  // netlist for zero-degree rows through the full normalized pipeline.
  const graph::Hypergraph h(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4, 5}, {0, 2},
                                {4, 5}, {1, 3}, {4}});
  core::MeloOptions m;
  m.num_eigenvectors = 4;
  m.objective = core::ObjectiveModel::kNormalizedSymmetric;
  const core::MeloBipartitionResult r = core::melo_bipartition(h, m, 0.0);
  EXPECT_EQ(r.partition.num_nodes(), h.num_nodes());
  EXPECT_TRUE(std::isfinite(r.conductance));
  EXPECT_GE(r.conductance, 0.0);
  EXPECT_DOUBLE_EQ(r.conductance, part::conductance(h, r.partition));
}

TEST(SweepCut, NormalizedObjectiveMinimizesConductance) {
  const graph::Hypergraph h = make_netlist(120, 21);
  core::MeloOptions m;
  m.num_eigenvectors = 8;
  m.num_starts = 3;

  core::MeloOptions norm = m;
  norm.objective = core::ObjectiveModel::kNormalizedSymmetric;
  const core::MeloBipartitionResult sweep =
      core::melo_bipartition(h, norm, 0.25);

  part::FmOptions fo;
  fo.balance = {0.25, 0.75};
  const part::FmResult fm = part::fm_bipartition(h, fo);
  const double fm_phi = part::conductance(h, fm.partition);

  EXPECT_GT(sweep.conductance, 0.0);
  EXPECT_LE(sweep.conductance, fm_phi + 1e-12)
      << "sweep cut should not lose to the FM split on its own objective";
}

TEST(CacheKeys, ObjectiveLivesInADisjointDomain) {
  const graph::Hypergraph h = make_netlist(60, 11);
  spectral::EmbeddingOptions base;
  base.count = 8;
  spectral::EmbeddingOptions norm = base;
  norm.objective = linalg::ObjectiveModel::kNormalizedSymmetric;

  using Cache = service::EmbeddingCache;
  const Fingerprint k_default = Cache::netlist_key(
      h, model::NetModel::kPartitioningSpecific, 0, base, 8);
  const Fingerprint k_norm = Cache::netlist_key(
      h, model::NetModel::kPartitioningSpecific, 0, norm, 8);
  EXPECT_NE(k_default, k_norm);
  // Same inputs, same key: the default domain is stable.
  EXPECT_EQ(k_default, Cache::netlist_key(
                           h, model::NetModel::kPartitioningSpecific, 0,
                           base, 8));
}

TEST(CacheKeys, UnnormalizedWarmedCacheMissesUnderNormalized) {
  const graph::Hypergraph h = make_netlist(50, 13);
  const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
  service::EmbeddingCache cache;
  spectral::EmbeddingOptions opts;
  opts.count = 6;

  cache.compute(cm, opts, nullptr, nullptr);  // cold: miss + insert
  cache.compute(cm, opts, nullptr, nullptr);  // warm: hit
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  spectral::EmbeddingOptions norm = opts;
  norm.objective = linalg::ObjectiveModel::kNormalizedSymmetric;
  const spectral::EigenBasis nb = cache.compute(cm, norm, nullptr, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u)
      << "a normalized request must not hit the unnormalized entry";
  EXPECT_EQ(cache.stats().hits, 1u);
  // And the normalized basis really is the spectrum of a different
  // operator: every nontrivial eigenvalue of N is <= 2.
  ASSERT_GE(nb.dimension(), 2u);
  EXPECT_LE(nb.values.back(), 2.0 + 1e-8);
}

TEST(BasisStore, ObjectiveTokenRoundTripsThroughTheHeader) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("specpart_objhdr_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  spectral::EigenBasis b;
  b.n = 9;
  b.requested = 3;
  b.converged = true;
  b.converged_pairs = 3;
  b.values = {0.0, 0.3, 0.9};
  b.vectors = linalg::DenseMatrix(9, 3);
  Rng rng(17);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 9; ++i) b.vectors.at(i, j) = rng.next_normal();
  Hasher hk;
  hk.mix_string("objhdr");
  const Fingerprint key = hk.digest();

  const std::string def_path = dir + "/default.eb";
  const std::string norm_path = dir + "/normalized.eb";
  storage::write_basis_file(def_path, key, b, "scalar", "flat");
  storage::write_basis_file(norm_path, key, b, "scalar", "flat",
                            "normalized");

  const auto def_hdr = storage::read_basis_header(def_path);
  ASSERT_TRUE(def_hdr.has_value());
  EXPECT_EQ(def_hdr->objective_token, "unnormalized");
  const auto norm_hdr = storage::read_basis_header(norm_path);
  ASSERT_TRUE(norm_hdr.has_value());
  EXPECT_EQ(norm_hdr->objective_token, "normalized");
  EXPECT_EQ(norm_hdr->solver_token, "scalar");

  // Default files keep the pre-extension layout: the zone is all zeros,
  // and spelling the default token out loud writes identical bytes.
  std::ifstream def_in(def_path, std::ios::binary);
  std::vector<char> def_bytes((std::istreambuf_iterator<char>(def_in)),
                              std::istreambuf_iterator<char>());
  ASSERT_GE(def_bytes.size(), storage::kHeaderBytes);
  for (std::size_t i = 128; i < 160; ++i)
    EXPECT_EQ(def_bytes[i], 0) << "extension byte " << i;
  const std::string spelled_path = dir + "/spelled.eb";
  storage::write_basis_file(spelled_path, key, b, "scalar", "flat",
                            "unnormalized");
  std::ifstream spelled_in(spelled_path, std::ios::binary);
  std::vector<char> spelled_bytes(
      (std::istreambuf_iterator<char>(spelled_in)),
      std::istreambuf_iterator<char>());
  EXPECT_EQ(def_bytes, spelled_bytes);

  // The payload reads back bit-identical either way, and the extension
  // zone is integrity-checked: flipping one token byte invalidates the
  // header instead of decoding a wrong objective.
  const spectral::EigenBasis r = storage::read_basis_file(norm_path);
  EXPECT_EQ(r.values[1], b.values[1]);
  std::fstream corrupt(norm_path,
                       std::ios::binary | std::ios::in | std::ios::out);
  corrupt.seekp(130);
  corrupt.put('x');
  corrupt.close();
  EXPECT_FALSE(storage::read_basis_header(norm_path).has_value());

  fs::remove_all(dir);
}

TEST(Protocol, ObjectiveFieldRoundTripsAndDefaultsStayBare) {
  service::PartitionRequest req;
  req.id = "obj";
  req.k = 2;
  req.graph = make_netlist(20, 5);

  // Default objective: the wire bytes carry no objective token at all.
  std::ostringstream def_wire;
  service::write_request(req, def_wire);
  EXPECT_EQ(def_wire.str().find("objective="), std::string::npos);

  req.pipeline.objective = core::ObjectiveModel::kNormalizedSymmetric;
  std::ostringstream wire;
  service::write_request(req, wire);
  EXPECT_NE(wire.str().find(" objective=normalized"), std::string::npos);

  std::istringstream in(wire.str());
  const std::optional<service::PartitionRequest> parsed =
      service::read_request(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pipeline.objective,
            core::ObjectiveModel::kNormalizedSymmetric);
  std::ostringstream rewire;
  service::write_request(*parsed, rewire);
  EXPECT_EQ(wire.str(), rewire.str());
}

TEST(Protocol, UnknownObjectiveTokenIsABadRequest) {
  service::PartitionRequest req;
  req.id = "obj";
  req.k = 2;
  req.graph = make_netlist(20, 5);
  req.pipeline.objective = core::ObjectiveModel::kNormalizedSymmetric;
  std::ostringstream wire;
  service::write_request(req, wire);
  std::string bytes = wire.str();
  const std::size_t pos = bytes.find("objective=normalized");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, std::string("objective=normalized").size(),
                "objective=sharpened");
  std::istringstream in(bytes);
  try {
    service::read_request(in);
    FAIL() << "unknown objective token must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad_request"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sharpened"), std::string::npos);
  }
}

TEST(Service, NormalizedRequestsServeAndGateTheMetrics) {
  service::ServiceOptions opts;
  opts.num_workers = 0;
  service::PartitionService svc(opts);

  service::PartitionRequest req;
  req.id = "default";
  req.k = 2;
  req.graph = make_netlist(40, 19);
  const service::PartitionResponse def_resp = svc.execute(req);
  EXPECT_TRUE(def_resp.ok());

  // Default traffic: the METRICS key set is byte-compatible with the
  // pre-objective frame (no objective_* keys at all).
  for (const auto& [key, value] : svc.snapshot().key_values())
    EXPECT_EQ(key.find("objective"), std::string::npos) << key;

  req.id = "normalized";
  req.pipeline.objective = core::ObjectiveModel::kNormalizedSymmetric;
  const service::PartitionResponse resp = svc.execute(req);
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(resp.assignment.size(), req.graph.num_nodes());

  const service::MetricsSnapshot snap = svc.snapshot();
  EXPECT_EQ(snap.objective_normalized_requests, 1u);
  bool found = false;
  for (const auto& [key, value] : snap.key_values())
    if (key == "objective_normalized_requests") {
      found = true;
      EXPECT_EQ(value, 1.0);
    }
  EXPECT_TRUE(found);
}

TEST(AutoDimension, GapRatioSelectsBetweenTwoAndTheProbeCap) {
  const graph::Hypergraph h = make_netlist(80, 23);
  core::MeloOptions m;
  m.num_eigenvectors = 0;  // automatic
  const std::vector<core::MeloOrderingRun> runs = core::melo_orderings(h, m);
  ASSERT_FALSE(runs.empty());
  EXPECT_GE(runs[0].eigenvectors_used, 2u);
  EXPECT_LE(runs[0].eigenvectors_used, 16u);
  // Deterministic: the same input picks the same d.
  const std::vector<core::MeloOrderingRun> again = core::melo_orderings(h, m);
  EXPECT_EQ(runs[0].eigenvectors_used, again[0].eigenvectors_used);
  // And the auto pipeline completes end to end under both objectives.
  const core::MeloBipartitionResult r = core::melo_bipartition(h, m, 0.3);
  EXPECT_EQ(r.partition.num_nodes(), h.num_nodes());
  core::MeloOptions norm = m;
  norm.objective = core::ObjectiveModel::kNormalizedSymmetric;
  const core::MeloBipartitionResult rn = core::melo_bipartition(h, norm, 0.3);
  EXPECT_GT(rn.conductance, 0.0);
}

TEST(NormalizedSolve, FlatAndMultilevelAgreeAndThreadsAreBitIdentical) {
  const graph::Hypergraph h = make_netlist(600, 31);
  const model::CliqueModel cm(h, model::NetModel::kPartitioningSpecific);
  const linalg::SymCsrMatrix& n =
      cm.operator_matrix(linalg::ObjectiveModel::kNormalizedSymmetric);

  spectral::EmbeddingOptions flat;
  flat.count = 6;
  flat.objective = linalg::ObjectiveModel::kNormalizedSymmetric;
  spectral::EmbeddingOptions ml = flat;
  ml.solver.strategy = linalg::SolverStrategy::kMultilevel;

  const spectral::EigenBasis fb = spectral::compute_eigenbasis(n, flat);
  const spectral::EigenBasis mb = spectral::compute_eigenbasis(n, ml);
  ASSERT_EQ(fb.dimension(), mb.dimension());
  for (std::size_t j = 0; j < fb.dimension(); ++j)
    EXPECT_NEAR(fb.values[j], mb.values[j],
                multilevel::kRefineTolerance * std::max(1.0, fb.values[j]))
        << "eigenvalue " << j;

  // The V-cycle over the normalized operator (general Galerkin coarse
  // operators) keeps the fixed-block determinism contract: 1, 2 and 8
  // threads return bit-identical bases.
  spectral::EigenBasis per_threads[3];
  const std::size_t thread_counts[3] = {1, 2, 8};
  for (std::size_t t = 0; t < 3; ++t) {
    spectral::EmbeddingOptions o = ml;
    o.parallel = ParallelConfig::with_threads(thread_counts[t]);
    per_threads[t] = spectral::compute_eigenbasis(n, o);
  }
  for (std::size_t t = 1; t < 3; ++t) {
    ASSERT_EQ(per_threads[t].dimension(), per_threads[0].dimension());
    for (std::size_t j = 0; j < per_threads[0].dimension(); ++j) {
      EXPECT_EQ(per_threads[t].values[j], per_threads[0].values[j]);
      for (std::size_t i = 0; i < per_threads[0].n; ++i)
        EXPECT_EQ(per_threads[t].vectors.at(i, j),
                  per_threads[0].vectors.at(i, j))
            << "threads=" << thread_counts[t] << " entry (" << i << ", "
            << j << ")";
    }
  }
}

}  // namespace
}  // namespace specpart
