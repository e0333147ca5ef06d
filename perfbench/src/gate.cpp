#include "gate.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "part/objectives.h"
#include "part/partition.h"
#include "util/stringutil.h"

using namespace specpart;

namespace perfbench {

namespace {

/// Frame bytes with the `id=<id> ` field blanked, so requests that differ
/// only by id compare equal (the response echoes the id too).
std::string without_id(const std::string& frame, std::uint32_t id) {
  const std::string needle = strprintf("id=q%u ", id);
  const std::size_t pos = frame.find(needle);
  if (pos == std::string::npos) return frame;
  return frame.substr(0, pos) + "id=? " + frame.substr(pos + needle.size());
}

std::optional<service::PartitionResponse> parse(const std::string& response) {
  std::istringstream in(response);
  return service::read_response(in);
}

}  // namespace

std::string check_response(const Request& req, const std::string& response,
                           service::PartitionResponse& out) {
  try {
    std::optional<service::PartitionResponse> parsed = parse(response);
    if (!parsed) return "empty response";
    out = std::move(*parsed);
  } catch (const std::exception& e) {
    return std::string("unparsable response: ") + e.what();
  }
  if (out.status != "ok")
    return "status " + out.status + (out.error.empty() ? "" : ": " + out.error);
  const std::size_t n = req.graph->num_nodes();
  if (out.k != req.k) return strprintf("k=%u, requested %u", out.k, req.k);
  if (out.assignment.size() != n)
    return strprintf("%zu assignment entries for %zu vertices",
                     out.assignment.size(), n);
  std::vector<std::size_t> sizes(req.k, 0);
  for (const std::uint32_t c : out.assignment) {
    if (c >= req.k) return strprintf("cluster id %u with k=%u", c, req.k);
    ++sizes[c];
  }
  for (std::uint32_t c = 0; c < req.k; ++c)
    if (sizes[c] == 0) return strprintf("cluster %u is empty", c);
  if (req.k == 2 && req.balance > 0.0) {
    // The splitter's own floor (part/ordering.cpp).
    const std::size_t floor = static_cast<std::size_t>(std::max(
        1.0, std::ceil(req.balance * static_cast<double>(n) - 1e-9)));
    const std::size_t smaller = std::min(sizes[0], sizes[1]);
    if (smaller < floor)
      return strprintf("smaller side %zu below the balance floor %zu", smaller,
                       floor);
  }
  const double cut =
      part::cut_nets(*req.graph, part::Partition(out.assignment, req.k));
  if (std::abs(cut - out.cut) > 1e-9 * std::max(1.0, cut))
    return strprintf("reported cut %.17g, recomputed %.17g", out.cut, cut);
  return "";
}

bool DeterminismAudit::consistent(const Request& req,
                                  const std::string& response) {
  const std::string resp = without_id(response, req.id);
  const auto [it, inserted] = seen_.emplace(without_id(req.wire, req.id), resp);
  if (inserted) return true;
  ++repeats_;
  return it->second == resp;
}

std::string tamper(const Request& req, const std::string& response) {
  std::optional<service::PartitionResponse> resp = parse(response);
  if (!resp || resp->assignment.empty() || resp->k < 2) return response;
  std::vector<std::uint32_t>& a = resp->assignment;
  const graph::Hypergraph& h = *req.graph;
  std::size_t victim = 0;
  for (graph::NodeId v = 0; v < a.size(); ++v) {
    bool interior = h.node_degree(v) > 0;
    for (const graph::NetId e : h.nets_of(v))
      for (const graph::NodeId u : h.net(e))
        interior = interior && a[u] == a[v] && h.net(e).size() >= 2;
    if (interior) {
      victim = v;
      break;
    }
  }
  a[victim] = (a[victim] + 1) % resp->k;
  std::ostringstream out;
  service::write_response(*resp, out);
  return out.str();
}

}  // namespace perfbench
