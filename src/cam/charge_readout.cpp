#include "cam/charge_readout.h"

#include <stdexcept>

namespace asmcap {

ChargeArrayReadout::ChargeArrayReadout(std::size_t rows, std::size_t cols,
                                       const ChargeDomainParams& params)
    : params_(params),
      cols_(cols),
      matchlines_(rows),
      row_offsets_(rows, 0.0),
      sense_amp_(params.sa_noise_sigma) {
  if (rows == 0 || cols == 0)
    throw std::invalid_argument("ChargeArrayReadout: empty dimensions");
}

ChargeArrayReadout::ChargeArrayReadout(std::size_t rows, std::size_t cols,
                                       const ChargeDomainParams& params,
                                       Rng& manufacture_rng)
    : ChargeArrayReadout(rows, cols, params) {
  for (std::size_t r = 0; r < rows; ++r) remanufacture_row(r, manufacture_rng);
}

void ChargeArrayReadout::remanufacture_row(std::size_t row, Rng& rng) {
  if (row >= rows())
    throw std::out_of_range("ChargeArrayReadout::remanufacture_row");
  // Draw order: the matchline capacitors, then the residual systematic SA
  // offset (post-cancellation).
  matchlines_[row].emplace(cols_, params_, rng);
  row_offsets_[row] = rng.normal(0.0, params_.sa_offset_sigma);
}

void ChargeArrayReadout::release_row(std::size_t row) {
  if (row >= rows()) throw std::out_of_range("ChargeArrayReadout::release_row");
  matchlines_[row].reset();
}

std::size_t ChargeArrayReadout::manufactured_rows() const {
  std::size_t count = 0;
  for (const std::optional<ChargeMatchline>& line : matchlines_)
    if (line.has_value()) ++count;
  return count;
}

const ChargeMatchline& ChargeArrayReadout::matchline(std::size_t row) const {
  const std::optional<ChargeMatchline>& line = matchlines_.at(row);
  if (!line.has_value())
    throw std::logic_error("ChargeArrayReadout: row has no silicon");
  return *line;
}

double ChargeArrayReadout::settle_row(std::size_t row,
                                      const BitVec& mask) const {
  // The systematic SA offset is folded into the settled voltage: both are
  // fixed per silicon, so the SA effectively compares (V_ML + offset).
  return matchline(row).settle(mask) + row_offsets_[row];
}

bool ChargeArrayReadout::decide(double vml, std::size_t threshold,
                                Rng& search_rng) const {
  return sense_amp_.below(vml, charge_vref(threshold, cols_, params_.vdd),
                          search_rng);
}

RowDecision ChargeArrayReadout::sense_row(std::size_t row, const BitVec& mask,
                                          std::size_t threshold,
                                          Rng& search_rng) {
  const ChargeMatchline& line = matchline(row);
  const double vml = line.settle(mask);
  const double vref = charge_vref(threshold, cols_, params_.vdd);
  RowDecision decision;
  decision.vml = vml;
  decision.match = sense_amp_.below(vml, vref, search_rng);
  energy_ += line.search_energy(mask.popcount());
  return decision;
}

std::vector<RowDecision> ChargeArrayReadout::sense(
    const std::vector<BitVec>& masks, std::size_t threshold, Rng& search_rng) {
  if (masks.size() != rows())
    throw std::invalid_argument("ChargeArrayReadout::sense: mask count");
  std::vector<RowDecision> decisions;
  decisions.reserve(rows());
  for (std::size_t r = 0; r < rows(); ++r)
    decisions.push_back(sense_row(r, masks[r], threshold, search_rng));
  return decisions;
}

}  // namespace asmcap
