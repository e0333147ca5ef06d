#include "exp/tableio.h"

#include <algorithm>
#include <ostream>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart::exp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::begin_row() { rows_.emplace_back(); }

void Table::add(const std::string& cell) {
  SP_REQUIRE(!rows_.empty(), "Table: begin_row before add");
  rows_.back().push_back(cell);
}

void Table::add_int(long long v) { add(strprintf("%lld", v)); }

void Table::add_num(double v, int digits) {
  add(strprintf("%.*f", digits, v));
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      out << cell << std::string(width[c] - cell.size() + 2, ' ');
    }
    out << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t w : width) total += w + 2;
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& out) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c)
      out << row[c] << (c + 1 == row.size() ? '\n' : ',');
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void print_banner(std::ostream& out, const std::string& title) {
  out << "\n== " << title << " ==\n\n";
}

double improvement_pct(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

}  // namespace specpart::exp
