// Fixed-width table printing for the experiment harness: every bench binary
// emits the same aligned row/column layout the paper's tables use, plus an
// optional CSV sink for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace specpart::exp {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format consistently. Rendering pads every column to its widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add() calls fill it left to right.
  void begin_row();
  void add(const std::string& cell);
  void add_int(long long v);
  /// Fixed-point with `digits` decimals.
  void add_num(double v, int digits = 3);

  /// Renders with a header underline to the stream.
  void print(std::ostream& out) const;

  /// CSV rendering (no alignment padding).
  void print_csv(std::ostream& out) const;

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner ("== title ==") used between experiment blocks.
void print_banner(std::ostream& out, const std::string& title);

/// Percentage improvement of `ours` over `baseline` (positive = ours is
/// smaller/better for minimization objectives): 100 * (base - ours) / base.
double improvement_pct(double baseline, double ours);

}  // namespace specpart::exp
