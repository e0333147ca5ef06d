// Netlist file I/O.
//
// The paper's experiments run on the ACM/SIGDA benchmark netlists. Those
// files are no longer distributable, so the default experiment suite is
// synthetic (generator.h) — but these parsers let real benchmarks drop in:
//
//  * hMETIS `.hgr` — the de-facto standard hypergraph exchange format.
//    First line: "<#nets> <#vertices> [fmt]"; one net per line of 1-based
//    vertex ids; fmt 1 / 10 / 11 toggle net / vertex weights.
//  * ACM/SIGDA `.netD`/`.net` — the original benchmark pin-list format.
//    Header: five lines (ignored pad offset etc.); then one line per pin:
//    "<module> <s|l|...> <I|O|B>" where 's' opens a new net. Module names
//    `a<k>` are cells and `p<k>` are pads; both become vertices.
//
// Both parsers read through one line scanner: lines end at '\n', tokens are
// separated by std::isspace bytes (of the "C" locale), and blank lines and
// lines whose first non-blank byte is '%' or '#' are comments.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/hypergraph.h"
#include "util/status.h"

namespace specpart::graph {

/// The counts an .hgr header line "<#nets> <#vertices> [fmt]" declares.
struct HgrHeader {
  std::size_t num_nets = 0;
  std::size_t num_nodes = 0;
  /// 0, 1 (net weights), 10 (vertex weights) or 11 (both).
  std::size_t fmt = 0;
};

/// Parses only the header — the first content line — of .hgr text, with
/// read_hgr's checks and messages. Lets a caller bound the declared counts
/// by what it has received before it decodes the rest.
HgrHeader read_hgr_header(std::string_view text);

/// Parses hMETIS .hgr text in one pass, straight into the hypergraph's CSR
/// arrays. Throws specpart::Error on malformed input: overflowing or
/// allocation-scale header counts, out-of-range pins, nets missing relative
/// to the header, and trailing garbage after the declared net (and
/// vertex-weight) lines are all rejected with precise messages. Nothing is
/// sized from the declared net count before the net lines arrive.
/// Recovered anomalies — duplicate pins within a net (merged) — are
/// reported through the optional `diag` sink.
Hypergraph read_hgr(std::string_view text, Diagnostics* diag = nullptr);
/// Reads the whole stream, then parses it as above.
Hypergraph read_hgr(std::istream& in, Diagnostics* diag = nullptr);
Hypergraph read_hgr_file(const std::string& path, Diagnostics* diag = nullptr);

/// Serializes to hMETIS .hgr (with net weights iff any differ from 1).
void write_hgr(const Hypergraph& h, std::ostream& out);

/// Parses ACM/SIGDA .netD/.net pin-list text. Vertex names are preserved
/// (query via Hypergraph::node_names()). Throws specpart::Error on
/// malformed input.
Hypergraph read_netd(std::istream& in);
Hypergraph read_netd_file(const std::string& path);

/// Serializes to ACM/SIGDA .netD pin-list form. Vertices without stored
/// names are emitted as a<index>. Round-trips through read_netd.
void write_netd(const Hypergraph& h, std::ostream& out);

/// Writes a partition as one cluster id per line (vertex order), the format
/// understood by hMETIS/KaHyPar evaluation tools.
void write_partition(const std::vector<std::uint32_t>& assignment,
                     std::ostream& out);
void write_partition_file(const std::vector<std::uint32_t>& assignment,
                          const std::string& path);

}  // namespace specpart::graph
