// Tests for the parallel-filesystem bandwidth models behind Figs. 17–18.
#include <gtest/gtest.h>

#include "io/fs_model.hpp"

namespace hpdr::io {
namespace {

TEST(FsModelTest, BandwidthSaturatesAtPeak) {
  auto fs = lustre_frontier();
  EXPECT_LT(fs.write_gbps(10), fs.peak_gbps);
  EXPECT_DOUBLE_EQ(fs.write_gbps(1 << 20), fs.peak_gbps);
  EXPECT_GT(fs.write_gbps(100), fs.write_gbps(10));
}

TEST(FsModelTest, SummitAndFrontierMatchPaperPeaks) {
  EXPECT_DOUBLE_EQ(gpfs_summit().peak_gbps, 2500.0);     // 2.5 TB/s
  EXPECT_DOUBLE_EQ(lustre_frontier().peak_gbps, 9400.0); // 9.4 TB/s
}

TEST(FsModelTest, WriteTimeScalesWithBytesAndWriters) {
  auto fs = gpfs_summit();
  const std::size_t tb = std::size_t{1} << 40;
  const double t1 = fs.write_seconds(tb, 64);
  const double t2 = fs.write_seconds(2 * tb, 64);
  EXPECT_GT(t2, 1.9 * t1 * 0.9);
  EXPECT_LT(fs.write_seconds(tb, 512), t1);  // more writers, more bandwidth
  EXPECT_EQ(fs.write_seconds(0, 64), 0.0);
}

}  // namespace
}  // namespace hpdr::io
