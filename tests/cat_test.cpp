// Unit tests for the CAT benchmark definitions: slot structure, expectation
// bases, and the signature algebra of Section III.
#include "cat/cat.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/qrcp.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {
namespace {

namespace sig = pmu::sig;

// --- CPU FLOPs ---------------------------------------------------------------

TEST(CpuFlops, Has48SlotsAnd16BasisColumns) {
  const auto b = cpu_flops_benchmark();
  EXPECT_EQ(b.slots.size(), 48u);
  EXPECT_EQ(b.basis.e.rows(), 48);
  EXPECT_EQ(b.basis.e.cols(), 16);
  EXPECT_EQ(b.basis.labels.size(), 16u);
}

TEST(CpuFlops, BasisLabelOrderMatchesTableI) {
  const auto b = cpu_flops_benchmark();
  const std::vector<std::string> expect = {
      "SSCAL", "S128", "S256", "S512", "DSCAL", "D128", "D256", "D512",
      "SSCAL_FMA", "S128_FMA", "S256_FMA", "S512_FMA",
      "DSCAL_FMA", "D128_FMA", "D256_FMA", "D512_FMA"};
  EXPECT_EQ(b.basis.labels, expect);
}

TEST(CpuFlops, ScalarKernelCountsMatchPaper) {
  // K_SCAL's three loops perform 24/48/96 DP scalar instructions (Fig. 1).
  const auto b = cpu_flops_benchmark();
  // DSCAL is basis column 4; its kernel occupies slots 12..14.
  const linalg::index_t col = 4;
  EXPECT_DOUBLE_EQ(b.basis.e(12, col), 24.0);
  EXPECT_DOUBLE_EQ(b.basis.e(13, col), 48.0);
  EXPECT_DOUBLE_EQ(b.basis.e(14, col), 96.0);
}

TEST(CpuFlops, FmaKernelCountsMatchPaper) {
  // K^256_FMA loops contain 12/24/48 AVX256 FMA instructions.
  const auto b = cpu_flops_benchmark();
  const linalg::index_t col = 14;  // D256_FMA
  EXPECT_DOUBLE_EQ(b.basis.e(col * 3 + 0, col), 12.0);
  EXPECT_DOUBLE_EQ(b.basis.e(col * 3 + 1, col), 24.0);
  EXPECT_DOUBLE_EQ(b.basis.e(col * 3 + 2, col), 48.0);
}

TEST(CpuFlops, BasisIsBlockDiagonalAndFullRank) {
  const auto b = cpu_flops_benchmark();
  // Each kernel stresses exactly one ideal event.
  for (linalg::index_t r = 0; r < 48; ++r) {
    for (linalg::index_t c = 0; c < 16; ++c) {
      if (r / 3 == c) {
        EXPECT_GT(b.basis.e(r, c), 0.0);
      } else {
        EXPECT_EQ(b.basis.e(r, c), 0.0);
      }
    }
  }
  EXPECT_EQ(linalg::qrcp(b.basis.e).rank, 16);
}

TEST(CpuFlops, ActivityMatchesBasisAfterNormalization) {
  const auto b = cpu_flops_benchmark();
  ASSERT_EQ(b.activities().size(), 1u);
  for (std::size_t s = 0; s < b.slots.size(); ++s) {
    const auto& slot = b.slots[s];
    const auto& act = b.activities()[0][s];
    // Find the slot's FP signal and compare to the basis entry.
    const auto kernel = static_cast<linalg::index_t>(s / 3);
    double fp_total = 0.0;
    for (const auto& [signal, value] : act) {
      if (signal.rfind("fp.", 0) == 0) fp_total += value;
    }
    EXPECT_DOUBLE_EQ(fp_total / slot.normalizer,
                     b.basis.e(static_cast<linalg::index_t>(s), kernel));
  }
}

TEST(CpuFlops, SlotsCarryLoopHeaderPollution) {
  const auto b = cpu_flops_benchmark();
  const auto& act = b.activities()[0][0];
  EXPECT_GT(act.at(sig::int_ops), 0.0);
  EXPECT_GT(act.at(sig::branch_cond_retired), 0.0);
  EXPECT_GT(act.at(sig::cycles), 0.0);
}

TEST(CpuFlops, LabelHelper) {
  EXPECT_EQ(cpu_flops_label("scalar", "sp", false), "SSCAL");
  EXPECT_EQ(cpu_flops_label("256", "dp", true), "D256_FMA");
}

// --- GPU FLOPs ---------------------------------------------------------------

TEST(GpuFlops, Has45SlotsAnd15BasisColumns) {
  const auto b = gpu_flops_benchmark();
  EXPECT_EQ(b.slots.size(), 45u);
  EXPECT_EQ(b.basis.e.rows(), 45);
  EXPECT_EQ(b.basis.e.cols(), 15);
}

TEST(GpuFlops, BasisLabelOrderMatchesTableII) {
  const auto b = gpu_flops_benchmark();
  const std::vector<std::string> expect = {"AH", "AS", "AD", "SH", "SS", "SD",
                                           "MH", "MS", "MD", "SQH", "SQS",
                                           "SQD", "FH", "FS", "FD"};
  EXPECT_EQ(b.basis.labels, expect);
}

TEST(GpuFlops, SubtractionKernelEmitsSubSignal) {
  const auto b = gpu_flops_benchmark();
  // SH kernel = basis column 3 -> slots 9..11.
  const auto& act = b.activities()[0][9];
  EXPECT_GT(act.at(sig::gpu_valu("sub", "f16")), 0.0);
  EXPECT_EQ(act.count(sig::gpu_valu("add", "f16")), 0u);
}

TEST(GpuFlops, FmaKernelsUseSingleInstructionPerBlock) {
  const auto b = gpu_flops_benchmark();
  // FD kernel = last basis column; first loop has 12 instructions.
  EXPECT_DOUBLE_EQ(b.basis.e(14 * 3 + 0, 14), 12.0);
  EXPECT_DOUBLE_EQ(b.basis.e(14 * 3 + 2, 14), 48.0);
}

TEST(GpuFlops, BasisFullRank) {
  const auto b = gpu_flops_benchmark();
  EXPECT_EQ(linalg::qrcp(b.basis.e).rank, 15);
}

// --- Branching -----------------------------------------------------------------

TEST(Branch, ExpectationMatrixMatchesEq3) {
  const auto e = branch_expectation_rows();
  ASSERT_EQ(e.rows(), 11);
  ASSERT_EQ(e.cols(), 5);
  // Spot-check rows 1, 7, 10, 11 of Eq. 3.
  EXPECT_EQ(e.row_copy(0), (linalg::Vector{2, 2, 1.5, 0, 0}));
  EXPECT_EQ(e.row_copy(6), (linalg::Vector{2.5, 2, 1.5, 0, 0.5}));
  EXPECT_EQ(e.row_copy(9), (linalg::Vector{2, 2, 1, 1, 0}));
  EXPECT_EQ(e.row_copy(10), (linalg::Vector{1, 1, 1, 0, 0}));
}

TEST(Branch, BasisFullRank) {
  EXPECT_EQ(linalg::qrcp(branch_expectation_rows()).rank, 5);
}

TEST(Branch, SlotsRealizeExpectationRows) {
  const auto b = branch_benchmark();
  ASSERT_EQ(b.slots.size(), 11u);
  for (std::size_t s = 0; s < 11; ++s) {
    const auto& act = b.activities()[0][s];
    const auto r = static_cast<linalg::index_t>(s);
    EXPECT_DOUBLE_EQ(act.at(sig::branch_cond_exec) / b.slots[s].normalizer,
                     b.basis.e(r, 0));
    EXPECT_DOUBLE_EQ(act.at(sig::branch_cond_retired) / b.slots[s].normalizer,
                     b.basis.e(r, 1));
    EXPECT_DOUBLE_EQ(act.at(sig::branch_cond_taken) / b.slots[s].normalizer,
                     b.basis.e(r, 2));
    EXPECT_DOUBLE_EQ(act.at(sig::branch_uncond) / b.slots[s].normalizer,
                     b.basis.e(r, 3));
    EXPECT_DOUBLE_EQ(act.at(sig::branch_mispredicted) / b.slots[s].normalizer,
                     b.basis.e(r, 4));
  }
}

TEST(Branch, HalfCountsAreIntegralTotals) {
  const auto b = branch_benchmark();
  for (const auto& act : b.activities()[0]) {
    for (const auto& [signal, value] : act) {
      EXPECT_DOUBLE_EQ(value, std::round(value)) << signal;
    }
  }
}

TEST(Branch, MispredictionsRaiseCycles) {
  const auto b = branch_benchmark();
  // Row 4 is row 1 plus 0.5 mispredictions/iter: strictly more cycles.
  const double c1 = b.activities()[0][0].at(sig::cycles);
  const double c4 = b.activities()[0][3].at(sig::cycles);
  EXPECT_GT(c4, c1);
}

// --- Data cache ------------------------------------------------------------------

class DcacheFixture : public ::testing::Test {
 protected:
  static const Benchmark& bench() {
    static const Benchmark b = [] {
      DcacheOptions opt;
      opt.threads = 2;
      opt.hierarchy = cachesim::HierarchyConfig::tiny();
      // tiny() is 256 B / 1 KiB / 4 KiB with 32 B lines: use byte-scale
      // strides and small footprints for fast tests.
      opt.strides = {32, 64};
      return dcache_benchmark(opt);
    }();
    return b;
  }
};

TEST_F(DcacheFixture, SlotCountMatchesPlan) {
  // Per stride: 3 levels x 2 fractions + 2 memory points = 8 slots.
  EXPECT_EQ(bench().slots.size(), 16u);
  EXPECT_EQ(bench().basis.e.rows(), 16);
  EXPECT_EQ(bench().basis.e.cols(), 4);
}

TEST_F(DcacheFixture, EverySlotHasPerThreadActivities) {
  ASSERT_EQ(bench().activities().size(), 2u);
  for (const auto& row : bench().activities()) {
    EXPECT_EQ(row.size(), bench().slots.size());
  }
  for (const auto& slot : bench().slots) {
    EXPECT_GT(slot.normalizer, 0.0) << slot.name;
  }
}

TEST_F(DcacheFixture, L1RegimeMeasurementsNearIdeal) {
  // First slot: L1 regime at 0.35 * L1 capacity: ~all demand hits.
  const auto& slot = bench().slots[0];
  const auto& act = bench().activities()[0][0];
  const double hits = act.at(sig::l1d_demand_hit) / slot.normalizer;
  EXPECT_GT(hits, 0.95);
}

TEST_F(DcacheFixture, MemoryRegimeMissesEverything) {
  // Slot 7 (stride 32): memory regime at 4x L3.
  const auto& slot = bench().slots[7];
  const auto& act = bench().activities()[0][7];
  EXPECT_GT(act.at(sig::l1d_demand_miss) / slot.normalizer, 0.9);
  EXPECT_LT(act.at(sig::l3d_demand_hit) / slot.normalizer, 0.2);
}

TEST_F(DcacheFixture, ConservationPerSlot) {
  for (const auto& row : bench().activities()) {
    for (std::size_t s = 0; s < row.size(); ++s) {
      const auto& slot = bench().slots[s];
      const auto& act = row[s];
      const double served = act.at(sig::l1d_demand_hit) +
                            act.at(sig::l2d_demand_hit) +
                            act.at(sig::l3d_demand_hit) +
                            act.at(sig::l3d_demand_miss);
      EXPECT_NEAR(served / slot.normalizer, 1.0, 1e-12) << slot.name;
    }
  }
}

TEST_F(DcacheFixture, ThreadsSeeDifferentChainsButSameRegime) {
  const auto& slot = bench().slots[0];
  const auto& a0 = bench().activities()[0][0];
  const auto& a1 = bench().activities()[1][0];
  // Same idealized regime...
  EXPECT_NEAR(a0.at(sig::l1d_demand_hit) / slot.normalizer,
              a1.at(sig::l1d_demand_hit) / slot.normalizer, 0.05);
}

TEST(Dcache, SlotInfoParallelsSlots) {
  DcacheOptions opt;
  opt.threads = 1;
  opt.hierarchy = cachesim::HierarchyConfig::tiny();
  opt.strides = {32};
  const auto info = dcache_slot_info(opt);
  const auto bench = dcache_benchmark(opt);
  ASSERT_EQ(info.size(), bench.slots.size());
  EXPECT_EQ(info[0].regime, "L1D");
  EXPECT_EQ(info.back().regime, "M");
}

TEST(Dcache, RejectsBadOptions) {
  DcacheOptions opt;
  opt.threads = 0;
  EXPECT_THROW(dcache_benchmark(opt), std::invalid_argument);
  DcacheOptions opt2;
  opt2.hierarchy.levels.clear();
  EXPECT_THROW(dcache_benchmark(opt2), cachesim::ConfigError);
}

TEST(BenchmarkStruct, SingleThreadActivitiesRejectsMultiThread) {
  DcacheOptions opt;
  opt.threads = 2;
  opt.hierarchy = cachesim::HierarchyConfig::tiny();
  opt.strides = {32};
  const auto b = dcache_benchmark(opt);
  EXPECT_THROW(b.single_thread_activities(), std::logic_error);
  EXPECT_EQ(cpu_flops_benchmark().single_thread_activities().size(), 48u);
}

}  // namespace
}  // namespace catalyst::cat
