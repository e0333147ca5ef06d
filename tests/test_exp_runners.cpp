// Tests for the experiment-runner layer (exp/): every runner must produce a
// well-formed table at tiny scale, CSV output must parse, and the summary
// statistics must be internally consistent.
#include <gtest/gtest.h>

#include <sstream>

#include "exp/runners.h"
#include "exp/tableio.h"
#include "util/stringutil.h"

namespace specpart::exp {
namespace {

RunnerOptions tiny() {
  RunnerOptions opts;
  opts.scale = 0.12;
  opts.limit = 2;
  opts.seed = 5;
  return opts;
}

std::size_t csv_lines(const Table& t) {
  std::ostringstream out;
  t.print_csv(out);
  std::size_t lines = 0;
  for (char c : out.str())
    if (c == '\n') ++lines;
  return lines;
}

TEST(Runners, Table1RowsMatchLimit) {
  const Table t = run_table1(tiny());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(csv_lines(t), 3u);  // header + 2 rows
}

TEST(Runners, Table2EveryCellFilled) {
  const Table t = run_table2_schemes(tiny(), 5);
  ASSERT_EQ(t.num_rows(), 2u);
  for (const auto& row : t.rows()) EXPECT_EQ(row.size(), 6u);
}

TEST(Runners, Table3HeaderTracksDims) {
  const Table t = run_table3_dims(tiny(), {2, 4, 6});
  ASSERT_EQ(t.num_rows(), 2u);
  for (const auto& row : t.rows())
    EXPECT_EQ(row.size(), 5u);  // name + 3 dims + best-d
}

TEST(Runners, Table4SummaryAveragesRows) {
  Table4Summary summary;
  const Table t = run_table4_multiway(tiny(), {2, 3}, &summary);
  EXPECT_EQ(t.num_rows(), 4u);  // 2 benchmarks x 2 ks
  EXPECT_EQ(summary.rows, 4u);
  // Recompute the RSB average from the printed improvement column.
  double acc = 0.0;
  for (const auto& row : t.rows())
    acc += parse_double(row[6], "impr-RSB");
  EXPECT_NEAR(summary.avg_improvement_vs_rsb, acc / 4.0, 0.06);
}

TEST(Runners, Table5HasTimingColumns) {
  const Table t = run_table5_bipart(tiny());
  ASSERT_EQ(t.num_rows(), 2u);
  for (const auto& row : t.rows()) {
    ASSERT_EQ(row.size(), 7u);
    EXPECT_GE(parse_double(row[5], "t2"), 0.0);
    EXPECT_GE(parse_double(row[6], "t10"), 0.0);
  }
}

TEST(Runners, FigSeriesMonotoneDColumn) {
  RunnerOptions opts = tiny();
  opts.limit = 0;  // fig needs the named benchmark in the suite
  const Table t = run_fig_quality_vs_d(opts, "balu", 4);
  ASSERT_EQ(t.num_rows(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(t.rows()[i][0], std::to_string(i + 1));
  // d = 2 row must equal the SB reference (MELO d=2 degenerates to SB).
  EXPECT_EQ(t.rows()[1][1], t.rows()[1][2]);
}

TEST(Runners, AblationsProduceRows) {
  const RunnerOptions opts = tiny();
  EXPECT_EQ(run_ablation_net_models(opts).num_rows(), 2u);
  EXPECT_EQ(run_ablation_h_readjust(opts).num_rows(), 2u);
  EXPECT_EQ(run_ablation_selection(opts).num_rows(), 2u);
  EXPECT_EQ(run_ablation_fm_post(opts).num_rows(), 2u);
}

TEST(Runners, ExtendedTablesProduceRows) {
  const RunnerOptions opts = tiny();
  const Table bi = run_extended_bipartitioners(opts);
  EXPECT_EQ(bi.num_rows(), 2u);
  for (const auto& row : bi.rows()) EXPECT_EQ(row.size(), 6u);
  const Table multi = run_extended_multiway(opts, {3});
  EXPECT_EQ(multi.num_rows(), 2u);
  for (const auto& row : multi.rows()) EXPECT_EQ(row.size(), 7u);
}

TEST(Runners, FmPostNeverWorsens) {
  const Table t = run_ablation_fm_post(tiny());
  for (const auto& row : t.rows()) {
    const double melo = parse_double(row[1], "melo");
    const double refined = parse_double(row[2], "refined");
    EXPECT_LE(refined, melo + 1e-9) << row[0];
  }
}

TEST(Runners, DeterministicAcrossCalls) {
  const Table a = run_table2_schemes(tiny(), 4);
  const Table b = run_table2_schemes(tiny(), 4);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t r = 0; r < a.num_rows(); ++r)
    EXPECT_EQ(a.rows()[r], b.rows()[r]);
}

TEST(TableIo, ImprovementPct) {
  EXPECT_DOUBLE_EQ(improvement_pct(100.0, 90.0), 10.0);
  EXPECT_DOUBLE_EQ(improvement_pct(100.0, 110.0), -10.0);
  EXPECT_DOUBLE_EQ(improvement_pct(0.0, 5.0), 0.0);  // guarded
}

TEST(TableIo, BannerContainsTitle) {
  std::ostringstream out;
  print_banner(out, "Hello Table");
  EXPECT_NE(out.str().find("Hello Table"), std::string::npos);
}

}  // namespace
}  // namespace specpart::exp
