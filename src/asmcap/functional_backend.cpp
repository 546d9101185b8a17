#include <algorithm>
#include <stdexcept>

#include "align/kernels.h"
#include "asmcap/backend.h"

namespace asmcap {

namespace {

/// Nominal (mismatch-free silicon) charge-domain search energy of one row:
/// paper Eq. 1 with M = 1 and every capacitor at its mean.
double nominal_row_energy(std::size_t n_mis, std::size_t n_cells,
                          const ChargeDomainParams& charge) {
  const double n = static_cast<double>(n_cells);
  const double mis = static_cast<double>(n_mis);
  return mis * (n - mis) / n * charge.cap_mean * charge.vdd * charge.vdd;
}

}  // namespace

FunctionalBackend::FunctionalBackend(const AsmcapConfig& config,
                                     const LiveDirectory& directory)
    : dir_(&directory),
      cols_(config.array_cols),
      words_per_row_((config.array_cols + 31) / 32),
      charge_(config.process.charge),
      sl_params_() {}

void FunctionalBackend::write_slot(std::size_t slot,
                                   const Sequence& segment) {
  if (segment.size() != cols_)
    throw std::invalid_argument("FunctionalBackend: segment width mismatch");
  if (slot >= rows_) {
    rows_ = slot + 1;
    words_.resize(rows_ * words_per_row_, 0);
  }
  const std::vector<std::uint64_t> packed = segment.packed_words();
  std::copy(packed.begin(), packed.end(),
            words_.begin() + slot * words_per_row_);
}

Sequence FunctionalBackend::row_segment(std::size_t slot) const {
  if (slot >= rows_)
    throw std::out_of_range("FunctionalBackend::row_segment");
  return Sequence::from_packed_words(words_.data() + slot * words_per_row_,
                                     cols_);
}

void FunctionalBackend::copy_rows_from(const FunctionalBackend& other) {
  words_ = other.words_;
  rows_ = other.rows_;
}

PassResult FunctionalBackend::run_pass(const Sequence& read, MatchMode mode,
                                       std::size_t threshold,
                                       const Rng& /*query_rng*/,
                                       std::uint64_t /*pass_salt*/) const {
  if (read.size() != cols_)
    throw std::invalid_argument("FunctionalBackend: read width mismatch");
  // Read-derived work once per (read, rotation), then one SIMD-dispatched
  // block sweep over the whole packed slot matrix (tombstoned slots are
  // counted too — cheaper than scattering — and masked below).
  const PackedReadView view(read);
  std::vector<std::uint32_t> counts(rows_);
  const KernelOps& ops = active_kernel_ops();
  (mode == MatchMode::Hamming ? ops.hamming_block : ops.ed_star_block)(
      words_.data(), rows_, view, counts.data());

  PassResult result;
  result.decisions.assign(rows_, false);
  // Every array holding at least one live row drives its search lines once
  // per pass, whichever backend evaluates the rows; all-dead arrays are
  // never driven (same SL gating as the circuit path).
  result.energy_joules = static_cast<double>(dir_->arrays_in_use()) *
                         sl_params_.energy_per_base *
                         static_cast<double>(cols_);
  for (std::size_t slot = 0; slot < rows_; ++slot) {
    if (!dir_->slot_live(slot)) continue;
    result.decisions[slot] = counts[slot] <= threshold;
    result.energy_joules += nominal_row_energy(counts[slot], cols_, charge_);
  }
  return result;
}

}  // namespace asmcap
