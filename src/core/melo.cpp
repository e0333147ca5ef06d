#include "core/melo.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::core {

const char* selection_rule_name(SelectionRule s) {
  switch (s) {
    case SelectionRule::kMagnitude:
      return "magnitude";
    case SelectionRule::kProjection:
      return "projection";
    case SelectionRule::kCosine:
      return "cosine";
  }
  return "?";
}

namespace {

/// Block size for the snapshot's parallel dots. Fixed per call site (part
/// of the determinism contract): small enough that mid-size instances still
/// fan out across threads, large enough to amortize dispatch.
constexpr std::size_t kScanGrain = 256;

/// Largest accepted sum of vector norms (2^500): squares of it stay far
/// below the double range.
constexpr double kMaxNormTotal = 0x1p500;

/// Greedy state: rows of the instance, running subset sum, and the scheme
/// evaluation. PrunedScan decides which keys to evaluate.
///
/// Rows live in one contiguous row-major buffer (n x d doubles) instead of
/// n separate heap vectors: snapshots walk it linearly, at memory
/// bandwidth.
class MeloState {
 public:
  MeloState(const VectorInstance& inst, SelectionRule scheme)
      : scheme_(scheme), d_(inst.dimension()) {
    load(inst);
    sum_.assign(d_, 0.0);
  }

  std::size_t size() const { return norms_sq_.size(); }

  /// Replaces coordinates (H readjustment) and recomputes the subset sum
  /// over `chosen`.
  void reload(const VectorInstance& inst,
              const std::vector<graph::NodeId>& chosen) {
    SP_ASSERT(inst.size() == size() && inst.dimension() == d_);
    load(inst);
    sum_.assign(d_, 0.0);
    for (graph::NodeId v : chosen) {
      const double* y = row(v);
      for (std::size_t j = 0; j < d_; ++j) sum_[j] += y[j];
    }
    sum_norm_sq_ = linalg::norm_sq(sum_);
  }

  /// S.y_v: the one dot product every key is built on.
  double dot(graph::NodeId v) const {
    const double* y = row(v);
    double s_dot_y = 0.0;
    for (std::size_t j = 0; j < d_; ++j) s_dot_y += sum_[j] * y[j];
    return s_dot_y;
  }

  /// Selection-rule value of appending vertex v to the current subset.
  double key(graph::NodeId v) const {
    const double s_dot_y = dot(v);
    const double y_sq = norms_sq_[v];
    switch (scheme_) {
      case SelectionRule::kMagnitude:
        return sum_norm_sq_ + 2.0 * s_dot_y + y_sq;
      case SelectionRule::kProjection: {
        if (sum_norm_sq_ <= 1e-300) return y_sq;  // empty: longest first
        return s_dot_y;
      }
      case SelectionRule::kCosine: {
        if (sum_norm_sq_ <= 1e-300) return y_sq;
        const double y_norm = std::sqrt(y_sq);
        if (y_norm <= 1e-300) return -std::numeric_limits<double>::infinity();
        return s_dot_y / y_norm;
      }
    }
    return 0.0;
  }

  void select(graph::NodeId v) {
    const double* y = row(v);
    for (std::size_t j = 0; j < d_; ++j) sum_[j] += y[j];
    sum_norm_sq_ = linalg::norm_sq(sum_);
  }

  const double* row(graph::NodeId v) const { return flat_.data() + v * d_; }
  double row_norm_sq(graph::NodeId v) const { return norms_sq_[v]; }
  SelectionRule scheme() const { return scheme_; }
  std::size_t dimension() const { return d_; }
  const linalg::Vec& sum() const { return sum_; }
  double sum_norm_sq() const { return sum_norm_sq_; }

 private:
  void load(const VectorInstance& inst) {
    const std::size_t n = inst.size();
    const double* data = inst.vectors.data();
    flat_.assign(data, data + n * d_);
    norms_sq_.resize(n);
    double norm_total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* y = flat_.data() + i * d_;
      double s = 0.0;
      for (std::size_t j = 0; j < d_; ++j) s += y[j] * y[j];
      // A non-finite row gives NaN or infinite keys; NaN never wins a `>`
      // comparison and infinities tie, so the argmax stops meaning anything.
      SP_CHECK_INPUT(std::isfinite(s),
                     strprintf("MELO: vector %zu has a non-finite squared "
                               "norm",
                               i));
      norms_sq_[i] = s;
      norm_total += std::sqrt(s);
    }
    // Every key, subset sum and pruning bound is a small multiple of
    // (sum of norms)^2 at most, so this keeps all of them finite.
    SP_CHECK_INPUT(norm_total <= kMaxNormTotal,
                   strprintf("MELO: vector norms sum to %g, above %g; the "
                             "keys would overflow",
                             norm_total, kMaxNormTotal));
  }

  SelectionRule scheme_;
  std::size_t d_;
  std::vector<double> flat_;  // n x d, row-major
  std::vector<double> norms_sq_;
  linalg::Vec sum_;
  double sum_norm_sq_ = 0.0;
};

graph::NodeId pick_start(const MeloState& state, std::size_t start_rank,
                         std::size_t n) {
  // (start_rank+1)-th longest vector; ties by vertex id.
  std::vector<graph::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  const std::size_t rank = std::min(start_rank, n - 1);
  std::nth_element(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(rank),
                   ids.end(), [&](graph::NodeId a, graph::NodeId b) {
                     const double na = state.row_norm_sq(a);
                     const double nb = state.row_norm_sq(b);
                     if (na != nb) return na > nb;
                     return a < b;
                   });
  return ids[rank];
}

/// The exact greedy step with certified pruning (ALGORITHMS.md §2). Every
/// key is c_t + a_v (S_t . y_v) + b_v: magnitude a = 2, b = ||y||^2,
/// c_t = ||S_t||^2; projection a = 1, b = c = 0; cosine a = 1/||y||,
/// b = c = 0, with a zero row's key -inf. A snapshot at S_T stores
/// g_v = S_T . y_v, and Cauchy-Schwarz gives, at any later step,
///   key_t(v) <= c_t + a_v g_v + b_v + a_v ||y_v|| (||S_t - S_T|| + eps_t),
/// where eps_t = gamma (||S_t|| + ||S_T||) covers the rounding of both dot
/// products. The bound also carries a relative allowance for the final
/// combine and absolute ones for underflow, so it holds for the key() bits
/// themselves. A vertex is evaluated only when its bound is not below the
/// best (key, smallest id) found so far, so the winner is the exact argmax
/// with the same tie rule as a full scan.
///
/// a_v, b_v, the drift multiplier w_v = a_v (||y_v|| + norm floor) and the
/// class (the binade of w_v) depend only on the rows, so they are fixed per
/// load (load_terms); a snapshot computes only the dots and orders each
/// class by its static part.
class PrunedScan {
 public:
  PrunedScan(const MeloState& state, const std::vector<char>& chosen,
             const ParallelConfig& parallel)
      : state_(state),
        chosen_(chosen),
        parallel_(parallel),
        // 8 (d + 8) 2^-52: a generous multiple of the (d + O(1)) u
        // rounding of each dot product, norm and combine.
        gamma_(std::ldexp(8.0 * static_cast<double>(state.dimension() + 8),
                          -52)),
        // sqrt(d) 2^-537 bounds a norm whose squares all underflowed.
        norm_floor_(std::ldexp(
            std::sqrt(static_cast<double>(state.dimension())), -537)) {
    load_terms();
  }

  /// Recomputes the per-row terms and the classes from the state's rows:
  /// at construction and after an H-readjust reload.
  void load_terms() {
    const std::size_t n = state_.size();
    terms_.resize(n);
    std::vector<int> binade(n);
    for (graph::NodeId v = 0; v < n; ++v) {
      const double y_sq = state_.row_norm_sq(v);
      const double y_norm = std::sqrt(y_sq);
      Terms& t = terms_[v];
      t.a = 1.0;
      t.b = 0.0;
      switch (state_.scheme()) {
        case SelectionRule::kMagnitude:
          t.a = 2.0;
          t.b = y_sq;
          break;
        case SelectionRule::kProjection:
          break;
        case SelectionRule::kCosine:
          if (y_norm <= 1e-300) {
            // key() is -inf: evaluated only on a tie. a g + b is then
            // -inf for every finite g, and so is the bound.
            t.a = 0.0;
            t.b = -std::numeric_limits<double>::infinity();
            t.w = 0.0;
            binade[v] = std::numeric_limits<int>::min();
            continue;
          }
          t.a = 1.0 / y_norm;
          break;
      }
      t.w = t.a * (y_norm + norm_floor_);
      binade[v] = std::ilogb(t.w);
    }
    // Classes by binade, largest first, each in ascending id: the order
    // the snapshot's stable per-class sort relies on. A stable sort of the
    // ids, so nothing is sized by the binade range (a zero row's binade is
    // INT_MIN).
    members_.resize(n);
    std::iota(members_.begin(), members_.end(), 0u);
    std::stable_sort(members_.begin(), members_.end(),
                     [&](graph::NodeId x, graph::NodeId y) {
                       return binade[x] > binade[y];
                     });
    class_ends_.clear();
    for (std::size_t i = 1; i <= n; ++i)
      if (i == n || binade[members_[i]] != binade[members_[i - 1]])
        class_ends_.push_back(i);
  }

  /// Re-ranks the unchosen vertices against the current subset sum.
  void snapshot() {
    ++stats.reranks;
    snap_ = state_.sum();
    snap_norm_ = std::sqrt(state_.sum_norm_sq());
    // Drops the vertices chosen since the last snapshot from members_ on
    // the way (order kept), so each snapshot reads only live rows.
    entries_.clear();
    classes_.clear();
    std::size_t member = 0;
    for (std::size_t& end : class_ends_) {
      const std::size_t begin = entries_.size();
      double w_max = 0.0;
      for (; member < end; ++member) {
        const graph::NodeId v = members_[member];
        if (chosen_[v]) continue;
        members_[entries_.size()] = v;
        entries_.push_back(Entry{0.0, terms_[v].w, v});
        w_max = std::max(w_max, terms_[v].w);
      }
      end = entries_.size();
      if (end > begin) classes_.push_back(Class{begin, end, w_max});
    }
    parallel_for(parallel_, 0, entries_.size(),
                 [&](std::size_t lo, std::size_t hi) { bound(lo, hi); });
    // Inside a class the bound falls with the static part, so a walk can
    // cut the whole tail.
    for (const Class& cl : classes_) sort_class(cl.begin, cl.end);
  }

  /// The unchosen vertex with the largest key, smallest id among ties.
  graph::NodeId select() {
    double best_key = -std::numeric_limits<double>::infinity();
    graph::NodeId best = static_cast<graph::NodeId>(chosen_.size());
    evaluated_ = 0;
    auto consider = [&](graph::NodeId v) {
      const double k = state_.key(v);
      ++evaluated_;
      if (k > best_key || (k == best_key && v < best)) {
        best_key = k;
        best = v;
      }
    };
    const double c = state_.sum_norm_sq();
    if (state_.scheme() != SelectionRule::kMagnitude && c <= 1e-300) {
      // key() falls back to ||y||^2, which the bound does not describe.
      for (graph::NodeId v = 0; v < chosen_.size(); ++v)
        if (!chosen_[v]) consider(v);
    } else {
      const linalg::Vec& s = state_.sum();
      double drift_sq = 0.0;
      for (std::size_t j = 0; j < s.size(); ++j) {
        const double t = s[j] - snap_[j];
        drift_sq += t * t;
      }
      const double slack = std::sqrt(drift_sq) +
                           gamma_ * (std::sqrt(c) + snap_norm_) +
                           kUnderflowSlack;
      const double base =
          state_.scheme() == SelectionRule::kMagnitude ? c + gamma_ * c : 0.0;
      for (Class& cl : classes_) {
        while (cl.begin < cl.end && chosen_[entries_[cl.begin].v]) ++cl.begin;
        if (cl.begin < cl.end) consider(entries_[cl.begin].v);
      }
      for (const Class& cl : classes_) {
        const double class_slack = cl.w_max * slack;
        for (std::size_t i = cl.begin + 1; i < cl.end; ++i) {
          const Entry& e = entries_[i];
          const double lead = base + e.hi;
          if (lead + class_slack < best_key) break;
          if (!chosen_[e.v] && !(lead + e.w * slack < best_key)) consider(e.v);
        }
      }
    }
    stats.key_evaluations += evaluated_;
    return best;
  }

  /// Keys the last select() evaluated.
  std::size_t evaluated() const { return evaluated_; }

  MeloOrderingStats stats;

 private:
  /// Per-row terms of the bound, fixed per load.
  struct Terms {
    double a;
    double b;
    double w;
  };
  /// One unchosen vertex: hi = a g + b plus its rounding allowance, w the
  /// drift multiplier a (||y|| + norm floor).
  struct Entry {
    double hi;
    double w;
    graph::NodeId v;
  };
  struct Class {
    std::size_t begin;  // advances past entries chosen since the snapshot
    std::size_t end;
    double w_max;
  };

  /// Covers every underflow in the dot products and norms: far above
  /// their d 2^-1074 absolute errors, far below any key worth comparing.
  static constexpr double kUnderflowSlack = 0x1p-500;
  /// Classes shorter than this are ordered by insertion sort.
  static constexpr std::size_t kRadixCutoff = 64;

  /// hi of entries_[lo, hi): g = S_T . y_v four rows at a time, each in
  /// its own accumulator summed in j order (MeloState::dot's bits).
  void bound(std::size_t lo, std::size_t hi) {
    const std::size_t d = state_.dimension();
    const double* s = snap_.data();
    std::size_t r = lo;
    for (; r + 4 <= hi; r += 4) {
      const double* y0 = state_.row(entries_[r].v);
      const double* y1 = state_.row(entries_[r + 1].v);
      const double* y2 = state_.row(entries_[r + 2].v);
      const double* y3 = state_.row(entries_[r + 3].v);
      double g0 = 0.0;
      double g1 = 0.0;
      double g2 = 0.0;
      double g3 = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        g0 += s[j] * y0[j];
        g1 += s[j] * y1[j];
        g2 += s[j] * y2[j];
        g3 += s[j] * y3[j];
      }
      set_hi(entries_[r], g0);
      set_hi(entries_[r + 1], g1);
      set_hi(entries_[r + 2], g2);
      set_hi(entries_[r + 3], g3);
    }
    // The subset sum is still S_T here, so dot() is g_v.
    for (; r < hi; ++r) set_hi(entries_[r], state_.dot(entries_[r].v));
  }

  void set_hi(Entry& e, double g) const {
    const Terms& t = terms_[e.v];
    const double ag = t.a * g;
    e.hi = (ag + t.b) + gamma_ * (std::abs(ag) + t.b);
  }

  /// Image of hi whose ascending unsigned order is descending hi, with
  /// +0 and -0 one key (the comparator's ==).
  static std::uint64_t descending_key(double hi) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(hi + 0.0);
    const std::uint64_t ascending =
        (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
    return ~ascending;
  }

  /// Orders entries_[begin, end) by descending hi. The entries arrive in
  /// ascending id and both sorts are stable, so ties keep the smallest id
  /// first: the (hi desc, id asc) order of a comparison sort.
  void sort_class(std::size_t begin, std::size_t end) {
    Entry* const e = entries_.data();
    const std::size_t len = end - begin;
    if (len < kRadixCutoff) {
      for (std::size_t i = begin + 1; i < end; ++i) {
        const Entry x = e[i];
        std::size_t j = i;
        for (; j > begin && e[j - 1].hi < x.hi; --j) e[j] = e[j - 1];
        e[j] = x;
      }
      return;
    }
    // LSD radix sort, eight 8-bit digits; a digit every key shares is
    // skipped, since its pass would keep the order.
    keys_.resize(2 * len);
    scratch_.resize(len);
    std::uint64_t* key = keys_.data();
    std::uint64_t* key_out = key + len;
    Entry* in = e + begin;
    Entry* out = scratch_.data();
    std::array<std::array<std::uint32_t, 256>, 8> count{};
    for (std::size_t i = 0; i < len; ++i) {
      const std::uint64_t k = descending_key(in[i].hi);
      key[i] = k;
      for (std::size_t b = 0; b < 8; ++b) ++count[b][(k >> (8 * b)) & 0xFF];
    }
    for (std::size_t b = 0; b < 8; ++b) {
      const unsigned shift = static_cast<unsigned>(8 * b);
      std::array<std::uint32_t, 256>& c = count[b];
      if (c[(key[0] >> shift) & 0xFF] == len) continue;
      std::uint32_t at = 0;
      for (std::uint32_t& x : c) {
        const std::uint32_t here = x;
        x = at;
        at += here;
      }
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint32_t to = c[(key[i] >> shift) & 0xFF]++;
        out[to] = in[i];
        key_out[to] = key[i];
      }
      std::swap(in, out);
      std::swap(key, key_out);
    }
    if (in != e + begin) std::copy(in, in + len, e + begin);
  }

  const MeloState& state_;
  const std::vector<char>& chosen_;
  ParallelConfig parallel_;
  double gamma_;
  double norm_floor_;
  std::vector<Terms> terms_;  // by vertex id
  // The vertices unchosen at the last snapshot (all of them after a load),
  // by class, each class in ascending id; class_ends_ ends each class.
  std::vector<graph::NodeId> members_;
  std::vector<std::size_t> class_ends_;
  linalg::Vec snap_;
  double snap_norm_ = 0.0;
  std::vector<Entry> entries_;
  std::vector<Class> classes_;
  std::vector<Entry> scratch_;  // radix sort buffers
  std::vector<std::uint64_t> keys_;
  std::size_t evaluated_ = 0;
};

}  // namespace

part::Ordering melo_order_vectors(const VectorInstance& inst,
                                  const MeloOrderingOptions& opts,
                                  const MeloReadjust* readjust,
                                  MeloOrderingStats* stats) {
  const std::size_t n = inst.size();
  SP_CHECK_INPUT(n >= 1, "MELO: empty instance");
  MeloState state(inst, opts.selection);
  ParallelConfig scan = opts.parallel;
  scan.grain = kScanGrain;

  std::vector<char> chosen(n, 0);
  part::Ordering order;
  order.reserve(n);

  // Returns true when the selection triggered an H-readjust reload (every
  // snapshot key is stale afterwards).
  auto take = [&](graph::NodeId v) -> bool {
    chosen[v] = 1;
    state.select(v);
    order.push_back(v);
    if (readjust != nullptr && readjust->at != 0 &&
        order.size() == readjust->at && order.size() < n) {
      const VectorInstance rebuilt = readjust->rebuild(order);
      state.reload(rebuilt, order);
      return true;
    }
    return false;
  };

  take(pick_start(state, opts.start_rank, n));

  // Exact argmax each step, evaluating only keys whose certified bound can
  // still win. The walk is serial and the snapshot's dots are independent,
  // so the ordering does not depend on the thread count.
  PrunedScan exact(state, chosen, scan);
  exact.snapshot();
  while (order.size() < n) {
    if (!budget_charge(opts.budget)) {
      // Budget exhaustion mid-construction: the ordering must still be a
      // full permutation for the split sweeps, so the remaining vertices
      // are appended in id order (cheap, deterministic) instead of
      // aborting.
      for (graph::NodeId v = 0; v < n; ++v)
        if (!chosen[v]) order.push_back(v);
      break;
    }
    const std::size_t remaining = n - order.size();
    const graph::NodeId best = exact.select();
    SP_ASSERT(best < n);
    // An H-readjust reload moves every coordinate; a step that had to
    // evaluate more than 1/8 of the candidates has a stale snapshot.
    const bool reloaded = take(best);
    if (reloaded) exact.load_terms();
    if (reloaded || (order.size() < n && 8 * exact.evaluated() > remaining))
      exact.snapshot();
  }
  if (stats != nullptr) {
    stats->key_evaluations += exact.stats.key_evaluations;
    stats->reranks += exact.stats.reranks;
  }
  return order;
}

}  // namespace specpart::core
