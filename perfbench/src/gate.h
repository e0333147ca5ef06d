// Correctness gate: every response is checked before its numbers count.
#pragma once

#include <map>
#include <string>

#include "service/protocol.h"
#include "workload.h"

namespace perfbench {

/// Parses `response` into `out` and checks it against its request: status
/// ok, a valid k-way partition of the request's n vertices with no empty
/// cluster, the balance floor of a k = 2 split, and a `cut` equal to
/// part::cut_nets recomputed from the assignment. Returns "" when the
/// response passes, otherwise the first violation.
std::string check_response(const Request& req, const std::string& response,
                           specpart::service::PartitionResponse& out);

/// Identical request bytes (ids aside) must get identical response bytes.
class DeterminismAudit {
 public:
  /// False when an earlier identical request got different bytes.
  bool consistent(const Request& req, const std::string& response);
  std::size_t repeats() const { return repeats_; }

 private:
  std::map<std::string, std::string> seen_;
  std::size_t repeats_ = 0;
};

/// Moves one vertex whose nets are all uncut to the next cluster, which
/// changes the cut: the harness self-test's proof that the gate bites.
std::string tamper(const Request& req, const std::string& response);

}  // namespace perfbench
