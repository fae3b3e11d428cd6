// OracleMatrix (`ctest -L oracle`): a fixed pairwise covering array of the
// whole configuration matrix (oracle.h) run over the eight zoo models and
// twelve random DAGs, one ctest entry per graph. A failure names its cell.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "oracle.h"

namespace ramiel {
namespace {

std::vector<std::string> graphs() {
  std::vector<std::string> names = models::model_names();
  for (int seed = 1; seed <= 12; ++seed) {
    names.push_back("random_" + std::to_string(seed));
  }
  return names;
}

class OracleMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleMatrix, PairwiseCellsAgreeWithTheOracle) {
  const std::string& name = GetParam();
  oracle::check(name.rfind("random_", 0) == 0
                    ? oracle::random_source(std::stoull(name.substr(7)))
                    : oracle::zoo(name),
                oracle::pairwise_cells());
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, OracleMatrix, ::testing::ValuesIn(graphs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(OracleMatrixCells, CoverEveryPairOfDimensionValues) {
  // Each cell as its nine dimension values.
  std::set<std::pair<std::pair<int, int>, std::pair<int, int>>> pairs;
  for (const oracle::Cell& c : oracle::pairwise_cells()) {
    const int v[] = {static_cast<int>(c.placement), c.arena,
                     static_cast<int>(c.dtype), static_cast<int>(c.rewrites),
                     c.batch == 1 ? 0 : 1 + static_cast<int>(c.hyper),
                     c.in_flight, c.intra_op, static_cast<int>(*c.tier),
                     c.stages};
    for (int i = 0; i < 9; ++i) {
      for (int j = i + 1; j < 9; ++j) pairs.insert({{i, v[i]}, {j, v[j]}});
    }
  }
  // Sizes 2, 2, 4, 4, 3, 2, 2, 2, 2: the sum of size_i * size_j, i < j.
  const int sizes[] = {2, 2, 4, 4, 3, 2, 2, 2, 2};
  std::size_t all = 0;
  for (int i = 0; i < 9; ++i) {
    for (int j = i + 1; j < 9; ++j) all += sizes[i] * sizes[j];
  }
  EXPECT_EQ(pairs.size(), all);
}

}  // namespace
}  // namespace ramiel
