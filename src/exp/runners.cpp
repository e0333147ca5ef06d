#include "exp/runners.h"

#include <algorithm>
#include <cmath>

#include "core/drivers.h"
#include "part/fm.h"
#include "part/kwayfm.h"
#include "part/multilevel.h"
#include "part/objectives.h"
#include "spectral/barnes.h"
#include "spectral/dprp.h"
#include "spectral/fkprobe.h"
#include "spectral/kmeans.h"
#include "spectral/kp.h"
#include "spectral/rsb.h"
#include "spectral/sb.h"
#include "spectral/sfc.h"
#include "util/stringutil.h"
#include "util/timer.h"

namespace specpart::exp {

namespace {

constexpr double kScaledScale = 1e5;  // Scaled Cost is printed x 1e5
/// Balanced-bipartitioning protocol: both sides hold >= 45% of the modules
/// (the paper's Table 5 setting; Tables 2/3 and the figure use it too —
/// see EXPERIMENTS.md for why unconstrained ratio cut is degenerate on the
/// synthetic suite).
constexpr double kMinFraction = 0.45;

core::MeloOptions base_melo_options(const RunnerOptions& opts) {
  core::MeloOptions m;
  m.seed = opts.seed * 0x9E3779B97F4A7C15ULL + 1;
  return m;
}

}  // namespace

Table run_table1(const RunnerOptions& opts) {
  Table t({"benchmark", "modules", "nets", "pins", "max-net", "avg-net",
           "planted-k"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);
    t.add_int(static_cast<long long>(h.num_nodes()));
    t.add_int(static_cast<long long>(h.num_nets()));
    t.add_int(static_cast<long long>(h.num_pins()));
    t.add_int(static_cast<long long>(h.max_net_size()));
    t.add_num(static_cast<double>(h.num_pins()) /
                  static_cast<double>(std::max<std::size_t>(1, h.num_nets())),
              2);
    t.add_int(static_cast<long long>(b.config.num_clusters));
  }
  return t;
}

Table run_table2_schemes(const RunnerOptions& opts, std::size_t d) {
  Table t({"benchmark", "#1 sqrt(H-l)", "#2 (H-l)", "#3 1/sqrt(l)",
           "#4 unit", "best"});
  const core::CoordScaling schemes[] = {
      core::CoordScaling::kSqrtGap, core::CoordScaling::kGap,
      core::CoordScaling::kInvSqrtLambda, core::CoordScaling::kUnit};
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);
    double best = 0.0;
    const char* best_name = "";
    bool first = true;
    for (core::CoordScaling scheme : schemes) {
      core::MeloOptions m = base_melo_options(opts);
      m.num_eigenvectors = d;
      m.scaling = scheme;
      const core::MeloBipartitionResult r =
          core::melo_bipartition(h, m, kMinFraction);
      t.add_num(r.cut, 0);
      if (first || r.cut < best) {
        best = r.cut;
        best_name = core::coord_scaling_name(scheme);
        first = false;
      }
    }
    t.add(best_name);
  }
  return t;
}

Table run_table3_dims(const RunnerOptions& opts,
                      const std::vector<std::size_t>& dims) {
  std::vector<std::string> header{"benchmark"};
  for (std::size_t d : dims) header.push_back(strprintf("d=%zu", d));
  header.push_back("best-d");
  Table t(std::move(header));
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);
    double best = 0.0;
    std::size_t best_d = 0;
    bool first = true;
    for (std::size_t d : dims) {
      core::MeloOptions m = base_melo_options(opts);
      m.num_eigenvectors = d;
      const core::MeloBipartitionResult r =
          core::melo_bipartition(h, m, kMinFraction);
      t.add_num(r.cut, 0);
      if (first || r.cut < best) {
        best = r.cut;
        best_d = d;
        first = false;
      }
    }
    t.add_int(static_cast<long long>(best_d));
  }
  return t;
}

Table run_table4_multiway(const RunnerOptions& opts,
                          const std::vector<std::uint32_t>& ks,
                          Table4Summary* summary) {
  Table t({"benchmark", "k", "RSB", "KP", "SFC", "MELO", "impr-RSB%",
           "impr-KP%", "impr-SFC%"});
  Table4Summary acc;
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    for (std::uint32_t k : ks) {
      if (k >= h.num_nodes()) continue;

      spectral::RsbOptions rsb_opts;
      rsb_opts.seed = opts.seed + 11;
      const part::Partition rsb = spectral::rsb_partition(h, k, rsb_opts);
      const double rsb_sc = part::scaled_cost(h, rsb);

      spectral::KpOptions kp_opts;
      kp_opts.seed = opts.seed + 13;
      const part::Partition kp = spectral::kp_partition(h, k, kp_opts);
      const double kp_sc = part::scaled_cost(h, kp);

      spectral::SfcOptions sfc_opts;
      sfc_opts.seed = opts.seed + 17;
      const part::Ordering sfc = spectral::sfc_ordering(h, sfc_opts);
      spectral::DprpOptions dp_opts;
      dp_opts.k = k;
      const double sfc_sc = spectral::dprp_split(h, sfc, dp_opts).scaled_cost;

      // As in Table 5, MELO takes the best of several orderings: three
      // weighting schemes x two diversified starts.
      double melo_sc = 0.0;
      bool first = true;
      for (core::CoordScaling scheme :
           {core::CoordScaling::kSqrtGap, core::CoordScaling::kInvSqrtLambda,
            core::CoordScaling::kUnit}) {
        core::MeloOptions m = base_melo_options(opts);
        m.scaling = scheme;
        m.num_starts = 2;
        const core::MeloMultiwayResult melo = core::melo_multiway(h, k, m);
        if (first || melo.scaled_cost < melo_sc) {
          melo_sc = melo.scaled_cost;
          first = false;
        }
      }

      t.begin_row();
      t.add(b.name);
      t.add_int(k);
      t.add_num(rsb_sc * kScaledScale, 3);
      t.add_num(kp_sc * kScaledScale, 3);
      t.add_num(sfc_sc * kScaledScale, 3);
      t.add_num(melo_sc * kScaledScale, 3);
      t.add_num(improvement_pct(rsb_sc, melo_sc), 1);
      t.add_num(improvement_pct(kp_sc, melo_sc), 1);
      t.add_num(improvement_pct(sfc_sc, melo_sc), 1);

      acc.avg_improvement_vs_rsb += improvement_pct(rsb_sc, melo_sc);
      acc.avg_improvement_vs_kp += improvement_pct(kp_sc, melo_sc);
      acc.avg_improvement_vs_sfc += improvement_pct(sfc_sc, melo_sc);
      ++acc.rows;
    }
  }
  if (acc.rows > 0) {
    acc.avg_improvement_vs_rsb /= static_cast<double>(acc.rows);
    acc.avg_improvement_vs_kp /= static_cast<double>(acc.rows);
    acc.avg_improvement_vs_sfc /= static_cast<double>(acc.rows);
  }
  if (summary != nullptr) *summary = acc;
  return t;
}

Table run_table5_bipart(const RunnerOptions& opts) {
  Table t({"benchmark", "SB-cut", "FM-cut", "MELO-cut", "MELO-impr-SB%",
           "t-order(d=2)s", "t-order(d=10)s"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);

    spectral::SbOptions sb_opts;
    sb_opts.min_fraction = kMinFraction;
    sb_opts.seed = opts.seed + 23;
    const spectral::SbResult sb = spectral::spectral_bipartition(h, sb_opts);
    const double sb_cut = part::cut_nets(h, sb.partition);

    part::FmOptions fm_opts;
    fm_opts.seed = opts.seed + 29;
    const part::FmResult fm = part::fm_bipartition(h, fm_opts);

    // The paper picks the best of several orderings built under different
    // weighting schemes; we use three scalings x three diversified starts.
    double melo_cut = 0.0;
    bool first = true;
    for (core::CoordScaling scheme :
         {core::CoordScaling::kSqrtGap, core::CoordScaling::kInvSqrtLambda,
          core::CoordScaling::kUnit}) {
      core::MeloOptions m = base_melo_options(opts);
      m.scaling = scheme;
      m.num_starts = 3;
      const core::MeloBipartitionResult r =
          core::melo_bipartition(h, m, kMinFraction);
      if (first || r.cut < melo_cut) {
        melo_cut = r.cut;
        first = false;
      }
    }

    // Ordering-construction runtimes (Table 5's timing columns).
    double t2 = 0.0, t10 = 0.0;
    for (std::size_t d : {std::size_t{2}, std::size_t{10}}) {
      core::MeloOptions m = base_melo_options(opts);
      m.num_eigenvectors = d;
      const auto runs = core::melo_orderings(h, m);
      (d == 2 ? t2 : t10) = runs.front().ordering_seconds;
    }

    t.begin_row();
    t.add(b.name);
    t.add_num(sb_cut, 0);
    t.add_num(fm.cut, 0);
    t.add_num(melo_cut, 0);
    t.add_num(improvement_pct(sb_cut, melo_cut), 1);
    t.add_num(t2, 3);
    t.add_num(t10, 3);
  }
  return t;
}

Table run_fig_quality_vs_d(const RunnerOptions& opts,
                           const std::string& benchmark, std::size_t max_d) {
  const auto suite = paper_suite(opts.scale, 0);
  const Benchmark b = find_benchmark(suite, benchmark);
  const graph::Hypergraph h = load(b);

  spectral::SbOptions sb_opts;
  sb_opts.min_fraction = kMinFraction;
  sb_opts.seed = opts.seed + 31;
  const spectral::SbResult sb = spectral::spectral_bipartition(h, sb_opts);
  const double sb_cut = part::cut_nets(h, sb.partition);

  Table t({"d", "melo-cut", "sb-cut"});
  for (std::size_t d = 1; d <= max_d; ++d) {
    core::MeloOptions m = base_melo_options(opts);
    m.num_eigenvectors = d;
    const core::MeloBipartitionResult r =
        core::melo_bipartition(h, m, kMinFraction);
    t.begin_row();
    t.add_int(static_cast<long long>(d));
    t.add_num(r.cut, 0);
    t.add_num(sb_cut, 0);
  }
  return t;
}

Table run_ablation_net_models(const RunnerOptions& opts) {
  Table t({"benchmark", "MELO-std", "MELO-ps", "MELO-frankle", "RSB-std",
           "RSB-ps", "RSB-frankle"});
  const model::NetModel models[] = {model::NetModel::kStandard,
                                    model::NetModel::kPartitioningSpecific,
                                    model::NetModel::kFrankle};
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);
    for (model::NetModel nm : models) {
      core::MeloOptions m = base_melo_options(opts);
      m.net_model = nm;
      const core::MeloBipartitionResult r =
          core::melo_bipartition(h, m, kMinFraction);
      t.add_num(r.cut, 0);
    }
    for (model::NetModel nm : models) {
      spectral::RsbOptions rsb_opts;
      rsb_opts.net_model = nm;
      rsb_opts.seed = opts.seed + 37;
      const part::Partition p = spectral::rsb_partition(h, 4, rsb_opts);
      t.add_num(part::scaled_cost(h, p) * kScaledScale, 3);
    }
  }
  return t;
}

Table run_ablation_h_readjust(const RunnerOptions& opts) {
  Table t({"benchmark", "2way-cut(off)", "2way-cut(on)", "k4-sc(off)",
           "k4-sc(on)"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    double cut[2] = {0, 0};
    double sc[2] = {0, 0};
    for (int readjust = 0; readjust < 2; ++readjust) {
      core::MeloOptions m = base_melo_options(opts);
      m.readjust_h = readjust == 1;
      cut[readjust] = core::melo_bipartition(h, m, kMinFraction).cut;
      sc[readjust] = core::melo_multiway(h, 4, m).scaled_cost;
    }
    t.begin_row();
    t.add(b.name);
    t.add_num(cut[0], 0);
    t.add_num(cut[1], 0);
    t.add_num(sc[0] * kScaledScale, 3);
    t.add_num(sc[1] * kScaledScale, 3);
  }
  return t;
}

Table run_ablation_selection(const RunnerOptions& opts) {
  Table t({"benchmark", "magnitude", "projection", "cosine", "best"});
  const core::SelectionRule rules[] = {core::SelectionRule::kMagnitude,
                                       core::SelectionRule::kProjection,
                                       core::SelectionRule::kCosine};
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);
    double best = 0.0;
    const char* best_name = "";
    bool first = true;
    for (core::SelectionRule rule : rules) {
      core::MeloOptions m = base_melo_options(opts);
      m.selection = rule;
      const core::MeloBipartitionResult r =
          core::melo_bipartition(h, m, kMinFraction);
      t.add_num(r.cut, 0);
      if (first || r.cut < best) {
        best = r.cut;
        best_name = core::selection_rule_name(rule);
        first = false;
      }
    }
    t.add(best_name);
  }
  return t;
}

Table run_extended_bipartitioners(const RunnerOptions& opts) {
  Table t({"benchmark", "MELO", "FK-probe", "Barnes", "multilevel", "FM"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    t.begin_row();
    t.add(b.name);

    core::MeloOptions m = base_melo_options(opts);
    m.num_starts = 3;
    t.add_num(core::melo_bipartition(h, m, kMinFraction).cut, 0);

    spectral::FkProbeOptions fk;
    fk.min_fraction = kMinFraction;
    fk.seed = opts.seed + 41;
    t.add_num(spectral::fk_probe_bipartition(h, fk).cut, 0);

    spectral::BarnesOptions barnes;
    barnes.seed = opts.seed + 43;
    t.add_num(
        part::cut_nets(h, spectral::barnes_partition(h, 2, barnes)), 0);

    part::MultilevelOptions ml;
    ml.seed = opts.seed + 47;
    t.add_num(part::multilevel_bipartition(h, ml).cut, 0);

    part::FmOptions fm;
    fm.seed = opts.seed + 53;
    t.add_num(part::fm_bipartition(h, fm).cut, 0);
  }
  return t;
}

Table run_ablation_fm_post(const RunnerOptions& opts) {
  Table t({"benchmark", "MELO-cut", "MELO+FM-cut", "gain%"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    core::MeloOptions m = base_melo_options(opts);
    m.num_starts = 2;
    const core::MeloBipartitionResult melo =
        core::melo_bipartition(h, m, kMinFraction);
    part::FmOptions fm;
    fm.seed = opts.seed + 59;
    const part::FmResult refined = part::fm_refine(h, melo.partition, fm);
    t.begin_row();
    t.add(b.name);
    t.add_num(melo.cut, 0);
    t.add_num(refined.cut, 0);
    t.add_num(improvement_pct(melo.cut, refined.cut), 1);
  }
  return t;
}

Table run_extended_multiway(const RunnerOptions& opts,
                            const std::vector<std::uint32_t>& ks) {
  Table t({"benchmark", "k", "RSB", "MELO", "MELO+kFM", "kmeans", "Barnes"});
  for (const Benchmark& b : paper_suite(opts.scale, opts.limit)) {
    const graph::Hypergraph h = load(b);
    for (std::uint32_t k : ks) {
      if (k >= h.num_nodes()) continue;
      t.begin_row();
      t.add(b.name);
      t.add_int(k);

      spectral::RsbOptions rsb_opts;
      rsb_opts.seed = opts.seed + 61;
      t.add_num(part::scaled_cost(h, spectral::rsb_partition(h, k, rsb_opts)) *
                    kScaledScale,
                3);

      core::MeloOptions m = base_melo_options(opts);
      m.num_starts = 2;
      const core::MeloMultiwayResult melo = core::melo_multiway(h, k, m);
      t.add_num(melo.scaled_cost * kScaledScale, 3);

      // kway_fm minimizes net cut; accept its result only when the
      // table's metric (Scaled Cost) also improved.
      part::KWayFmOptions kfm;
      kfm.seed = opts.seed + 73;
      const part::KWayFmResult refined =
          part::kway_fm_refine(h, melo.partition, kfm);
      const double refined_sc = part::scaled_cost(h, refined.partition);
      t.add_num(std::min(refined_sc, melo.scaled_cost) * kScaledScale, 3);

      spectral::KmeansOptions km;
      km.seed = opts.seed + 67;
      t.add_num(part::scaled_cost(h, spectral::kmeans_partition(h, k, km)) *
                    kScaledScale,
                3);

      spectral::BarnesOptions barnes;
      barnes.seed = opts.seed + 71;
      t.add_num(
          part::scaled_cost(h, spectral::barnes_partition(h, k, barnes)) *
              kScaledScale,
          3);
    }
  }
  return t;
}

}  // namespace specpart::exp
