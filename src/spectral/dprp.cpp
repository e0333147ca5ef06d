#include "spectral/dprp.h"

#include <algorithm>
#include <limits>

#include "part/objectives.h"
#include "util/error.h"

namespace specpart::spectral {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fixed number of start-position blocks per DP level on the parallel
/// path. Independent of the thread count (determinism contract).
constexpr std::size_t kDpBlocks = 16;

/// Sweeps start positions [i_begin, i_end) of one DP level, accumulating
/// the best candidate per end position j into cur/parent (strict
/// improvement, so the earliest i wins ties — the serial semantics).
void sweep_level(const graph::Hypergraph& h, const part::Ordering& o,
                 std::size_t n, std::size_t lo, std::size_t hi,
                 const std::vector<double>& prev, std::size_t i_begin,
                 std::size_t i_end, std::vector<std::uint32_t>& inside,
                 std::vector<graph::NetId>& touched, std::vector<double>& cur,
                 std::vector<std::uint32_t>& parent) {
  for (std::size_t i = i_begin; i < i_end; ++i) {
    if (prev[i] == kInf) continue;
    // Incremental sweep: grow segment [i, j) one vertex at a time.
    touched.clear();
    double cut = 0.0;
    const std::size_t j_end = std::min(n, i + hi);
    for (std::size_t j = i + 1; j <= j_end; ++j) {
      const graph::NodeId v = o[j - 1];
      for (graph::NetId e : h.nets_of(v)) {
        const std::size_t size = h.net(e).size();
        if (size < 2) continue;
        const std::uint32_t before = inside[e]++;
        if (before == 0) {
          cut += h.net_weight(e);
          touched.push_back(e);
        }
        if (before + 1 == size) cut -= h.net_weight(e);
      }
      const std::size_t len = j - i;
      if (len < lo) continue;
      const double candidate = prev[i] + cut / static_cast<double>(len);
      if (candidate < cur[j]) {
        cur[j] = candidate;
        parent[j] = static_cast<std::uint32_t>(i);
      }
    }
    for (graph::NetId e : touched) inside[e] = 0;
  }
}

}  // namespace

DprpResult dprp_split(const graph::Hypergraph& h, const part::Ordering& o,
                      const DprpOptions& opts) {
  const std::size_t n = h.num_nodes();
  const std::uint32_t k = opts.k;
  SP_CHECK_INPUT(k >= 2, "DP-RP: need k >= 2");
  SP_REQUIRE(part::is_permutation(o, n), "DP-RP: ordering not a permutation");
  const std::size_t lo = std::max<std::size_t>(1, opts.min_cluster_size);
  const std::size_t hi =
      opts.max_cluster_size == 0 ? n : opts.max_cluster_size;
  SP_CHECK_INPUT(lo <= hi, "DP-RP: min cluster size exceeds max");
  SP_CHECK_INPUT(k * lo <= n && k * hi >= n,
                 "DP-RP: size bounds admit no k-way split");

  // dp[h][j] = best sum of E/|C| using h clusters over the first j
  // positions of the ordering; parent[h][j] = the split point i achieving
  // it.
  std::vector<std::vector<double>> dp(k + 1, std::vector<double>(n + 1, kInf));
  std::vector<std::vector<std::uint32_t>> parents(
      k + 1, std::vector<std::uint32_t>(n + 1, 0));
  dp[0][0] = 0.0;

  std::vector<std::uint32_t> inside(h.num_nets(), 0);
  std::vector<graph::NetId> touched;

  for (std::uint32_t level = 1; level <= k; ++level) {
    auto& cur = dp[level];
    auto& parent = parents[level];
    const auto& prev = dp[level - 1];
    const std::size_t i_begin = (level - 1) * lo;
    const std::size_t i_end = n >= lo ? n - lo + 1 : 0;
    if (i_begin >= i_end) continue;
    const std::size_t range = i_end - i_begin;

    if (opts.parallel.serial() || range < 2 * kDpBlocks) {
      sweep_level(h, o, n, lo, hi, prev, i_begin, i_end, inside, touched,
                  cur, parent);
      continue;
    }

    // Parallel path: fixed i-blocks with private cur/parent/scratch, merged
    // by strict improvement in ascending block order. A smaller i beats an
    // equal-cost larger i exactly as in the serial sweep, so the tables —
    // values AND parents — are bit-identical for any thread count.
    struct Local {
      std::vector<double> cur;
      std::vector<std::uint32_t> parent;
    };
    ParallelConfig blocks = opts.parallel;
    blocks.grain = (range + kDpBlocks - 1) / kDpBlocks;
    parallel_reduce<Local>(
        blocks, i_begin, i_end, Local{},
        [&](std::size_t block_lo, std::size_t block_hi) {
          Local local;
          local.cur.assign(n + 1, kInf);
          local.parent.assign(n + 1, 0);
          std::vector<std::uint32_t> local_inside(h.num_nets(), 0);
          std::vector<graph::NetId> local_touched;
          sweep_level(h, o, n, lo, hi, prev, block_lo, block_hi,
                      local_inside, local_touched, local.cur, local.parent);
          return local;
        },
        [&](Local, Local block) {
          for (std::size_t j = 0; j <= n; ++j) {
            if (block.cur[j] < cur[j]) {
              cur[j] = block.cur[j];
              parent[j] = block.parent[j];
            }
          }
          return Local{};
        });
  }
  SP_CHECK_INPUT(dp[k][n] != kInf, "DP-RP: no feasible restricted partition");

  DprpResult result;
  result.feasible = true;
  result.boundaries.assign(k + 1, 0);
  result.boundaries[k] = n;
  for (std::uint32_t level = k; level >= 1; --level)
    result.boundaries[level - 1] = parents[level][result.boundaries[level]];
  std::vector<std::uint32_t> assignment(n, 0);
  for (std::uint32_t c = 0; c < k; ++c)
    for (std::size_t pos = result.boundaries[c];
         pos < result.boundaries[c + 1]; ++pos)
      assignment[o[pos]] = c;
  result.partition = part::Partition(std::move(assignment), k);
  result.scaled_cost = part::scaled_cost(h, result.partition);
  return result;
}

}  // namespace specpart::spectral
