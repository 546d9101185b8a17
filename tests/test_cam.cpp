#include <gtest/gtest.h>

#include "align/edstar.h"
#include "align/hamming.h"
#include "cam/array.h"
#include "cam/cell.h"
#include "cam/charge_readout.h"
#include "cam/current_readout.h"

namespace asmcap {
namespace {

TEST(AsmcapCell, PartialMatchOutputs) {
  //           read: A C G T
  const Sequence read = Sequence::from_string("ACGT");
  const AsmcapCell cell(Base::C);
  // At i=1 the stored C matches the co-located read base.
  EXPECT_TRUE(cell.compare(read, 1).co_located);
  // At i=2 the stored C matches the left neighbour (read[1] = C).
  const PartialMatch at2 = cell.compare(read, 2);
  EXPECT_FALSE(at2.co_located);
  EXPECT_TRUE(at2.left);
  EXPECT_FALSE(at2.right);
  // At i=0 the stored C matches the right neighbour (read[1] = C).
  const PartialMatch at0 = cell.compare(read, 0);
  EXPECT_FALSE(at0.co_located);
  EXPECT_FALSE(at0.left);  // no left neighbour at the boundary
  EXPECT_TRUE(at0.right);
  // At i=3 nothing matches.
  const PartialMatch at3 = cell.compare(read, 3);
  EXPECT_FALSE(at3.co_located || at3.left || at3.right);
  EXPECT_THROW(cell.compare(read, 4), std::out_of_range);
}

TEST(AsmcapCell, ModeMux) {
  const Sequence read = Sequence::from_string("ACGT");
  const AsmcapCell cell(Base::C);
  // i=2: neighbour match only. ED* mode: match (O=0); HD mode: mismatch.
  EXPECT_FALSE(cell.mismatch(read, 2, MatchMode::EdStar));
  EXPECT_TRUE(cell.mismatch(read, 2, MatchMode::Hamming));
  // i=1: co-located match in both modes.
  EXPECT_FALSE(cell.mismatch(read, 1, MatchMode::EdStar));
  EXPECT_FALSE(cell.mismatch(read, 1, MatchMode::Hamming));
}

TEST(EdamCell, AlwaysEdStarMode) {
  const Sequence read = Sequence::from_string("ACGT");
  const EdamCell cell(Base::C);
  EXPECT_FALSE(cell.mismatch(read, 2));  // neighbour match accepted
  EXPECT_TRUE(cell.mismatch(Sequence::from_string("AAAA"), 2));
}

TEST(CamArray, WriteAndReadBack) {
  CamArray array(4, 8);
  EXPECT_EQ(array.valid_rows(), 0u);
  const Sequence segment = Sequence::from_string("ACGTACGT");
  array.write_row(1, segment);
  EXPECT_TRUE(array.row_valid(1));
  EXPECT_FALSE(array.row_valid(0));
  EXPECT_EQ(array.row_segment(1), segment);
  EXPECT_THROW(array.row_segment(0), std::logic_error);
  array.invalidate_row(1);
  EXPECT_FALSE(array.row_valid(1));
}

TEST(CamArray, DimensionValidation) {
  EXPECT_THROW(CamArray(0, 8), std::invalid_argument);
  CamArray array(2, 8);
  EXPECT_THROW(array.write_row(5, Sequence::from_string("ACGTACGT")),
               std::out_of_range);
  EXPECT_THROW(array.write_row(0, Sequence::from_string("AC")),
               std::invalid_argument);
}

TEST(CamArray, SearchCountsMatchAlignKernels) {
  Rng rng(301);
  CamArray array(8, 64);
  std::vector<Sequence> rows;
  for (std::size_t r = 0; r < 8; ++r) {
    rows.push_back(Sequence::random(64, rng));
    array.write_row(r, rows.back());
  }
  const Sequence read = Sequence::random(64, rng);
  const auto star = array.search_counts(read, MatchMode::EdStar);
  const auto ham = array.search_counts(read, MatchMode::Hamming);
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(star[r], ed_star(rows[r], read));
    EXPECT_EQ(ham[r], hamming_distance(rows[r], read));
    EXPECT_LE(star[r], ham[r]);
  }
}

TEST(CamArray, InvalidRowsReportAllMismatch) {
  Rng rng(303);
  CamArray array(3, 32);
  array.write_row(1, Sequence::random(32, rng));
  const Sequence read = Sequence::random(32, rng);
  const auto counts = array.search_counts(read, MatchMode::EdStar);
  EXPECT_EQ(counts[0], 32u);  // invalid -> can never pass any threshold
  EXPECT_EQ(counts[2], 32u);
  EXPECT_LT(counts[1], 32u);
  const auto masks = array.search_masks(read, MatchMode::EdStar);
  EXPECT_EQ(masks[0].popcount(), 32u);
}

TEST(CamArray, CellByCellAgreesWithMask) {
  // The functional array must agree with the per-cell logic model.
  Rng rng(305);
  const Sequence stored = Sequence::random(48, rng);
  const Sequence read = Sequence::random(48, rng);
  CamArray array(1, 48);
  array.write_row(0, stored);
  for (const MatchMode mode : {MatchMode::EdStar, MatchMode::Hamming}) {
    const BitVec mask = array.row_mismatch_mask(0, read, mode);
    for (std::size_t i = 0; i < 48; ++i) {
      const AsmcapCell cell(stored[i]);
      EXPECT_EQ(mask.get(i), cell.mismatch(read, i, mode))
          << "i=" << i << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(ChargeReadout, NoiselessThresholdDecisions) {
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  Rng silicon(307);
  ChargeArrayReadout readout(4, 64, params, silicon);
  Rng search(308);
  BitVec mask(64);
  for (std::size_t i = 0; i < 5; ++i) mask.set(i * 7);
  // 5 mismatches: match iff T >= 5.
  for (std::size_t t = 0; t < 10; ++t) {
    const RowDecision decision = readout.sense_row(0, mask, t, search);
    EXPECT_EQ(decision.match, t >= 5) << "t=" << t;
  }
  EXPECT_GT(readout.consumed_energy(), 0.0);
}

TEST(ChargeReadout, DecideFromCachedVoltage) {
  ChargeDomainParams params;
  params.cap_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  Rng silicon(309);
  const ChargeArrayReadout readout(1, 32, params, silicon);
  BitVec mask(32);
  mask.set(3);
  mask.set(17);
  const double vml = readout.settle_row(0, mask);
  Rng search(310);
  EXPECT_TRUE(readout.decide(vml, 2, search));
  EXPECT_FALSE(readout.decide(vml, 1, search));
}

TEST(ChargeReadout, RowsWithoutSiliconUntilManufactured) {
  const ChargeDomainParams params;
  ChargeArrayReadout readout(3, 32, params);
  EXPECT_EQ(readout.manufactured_rows(), 0u);
  EXPECT_THROW(readout.settle_row(1, BitVec(32)), std::logic_error);

  // A row's silicon is a pure function of its stream, whenever it is made.
  Rng eager_rng(311);
  const ChargeArrayReadout eager(3, 32, params, eager_rng);
  Rng row_rng(311);
  for (std::size_t r = 0; r < 3; ++r) readout.remanufacture_row(r, row_rng);
  BitVec mask(32);
  mask.set(5);
  for (std::size_t r = 0; r < 3; ++r)
    EXPECT_EQ(readout.settle_row(r, mask), eager.settle_row(r, mask));

  readout.release_row(1);
  EXPECT_EQ(readout.manufactured_rows(), 2u);
  EXPECT_THROW(readout.settle_row(1, mask), std::logic_error);
}

TEST(CurrentReadout, NoiselessThresholdDecisions) {
  CurrentDomainParams params;
  params.i_sigma_rel = 0.0;
  params.sa_noise_sigma = 0.0;
  params.sh_noise_sigma = 0.0;
  params.timing_jitter_rel = 0.0;
  Rng silicon(311);
  CurrentArrayReadout readout(2, 256, params, silicon);
  Rng search(312);
  BitVec mask(256);
  for (std::size_t i = 0; i < 7; ++i) mask.set(i);
  for (std::size_t t = 0; t < 14; ++t) {
    const RowDecision decision = readout.sense_row(0, mask, t, search);
    EXPECT_EQ(decision.match, t >= 7) << "t=" << t;
  }
}

TEST(CurrentReadout, NoisyDecisionsDegradeNearBoundary) {
  // With the paper's noise parameters, decisions exactly at the boundary
  // flip noticeably often — the EDAM accuracy-loss mechanism.
  const CurrentDomainParams params;  // defaults: 2.5 % etc.
  Rng silicon(313);
  CurrentArrayReadout readout(1, 256, params, silicon);
  Rng search(314);
  BitVec mask(256);
  for (std::size_t i = 0; i < 5; ++i) mask.set(i);  // count = 5
  int mismatch_calls = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t)
    mismatch_calls += readout.sense_row(0, mask, 4, search).match ? 1 : 0;
  // Truth is "mismatch" (5 > 4) but noise flips some decisions.
  EXPECT_GT(mismatch_calls, 10);
  EXPECT_LT(mismatch_calls, trials / 2);
}

TEST(Readouts, MaskSizeValidation) {
  Rng silicon(315);
  ChargeArrayReadout charge(1, 16, {}, silicon);
  CurrentArrayReadout current(1, 16, {}, silicon);
  Rng search(316);
  EXPECT_THROW(charge.sense_row(0, BitVec(8), 1, search),
               std::invalid_argument);
  EXPECT_THROW(current.sense_row(0, BitVec(8), 1, search),
               std::invalid_argument);
  EXPECT_THROW(charge.sense_row(5, BitVec(16), 1, search), std::out_of_range);
}

}  // namespace
}  // namespace asmcap
