#include "telescope/site.h"

#include <stdexcept>
#include <string>

namespace exiot::telescope {

std::vector<Cidr> partition_aperture(Cidr telescope, int n) {
  // Checked in every build: a site count that is not a power of two would
  // leave part of the aperture dark, and 0 would leave no site at all.
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("partition_aperture: site count " +
                                std::to_string(n) +
                                " is not a positive power of two");
  }
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  if (telescope.prefix_len() + bits > 32) {
    throw std::invalid_argument(
        "partition_aperture: " + std::to_string(n) + " sites do not fit in " +
        telescope.to_string());
  }
  const int sub_len = telescope.prefix_len() + bits;
  const std::uint64_t sub_size = telescope.size() >> bits;
  std::vector<Cidr> sites;
  sites.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    sites.emplace_back(telescope.address_at(sub_size * i), sub_len);
  }
  return sites;
}

SightingTable::SightingTable(std::size_t num_sites) { reset(num_sites); }

void SightingTable::reset(std::size_t num_sites) {
  num_sites_ = num_sites == 0 ? 1 : num_sites;
  keys_.clear();
  state_.clear();
  rows_.clear();
  size_ = 0;
  multi_sensor_sources_ = 0;
  first_seen_.clear();
  local_first_seen_.clear();
  packets_.clear();
  sites_seen_.clear();
}

void SightingTable::grow() {
  const std::size_t new_cap =
      capacity() == 0 ? kInitialCapacity : capacity() * 2;
  std::vector<std::uint32_t> old_keys = std::move(keys_);
  std::vector<std::uint8_t> old_state = std::move(state_);
  std::vector<std::uint32_t> old_rows = std::move(rows_);
  keys_.assign(new_cap, 0);
  state_.assign(new_cap, kEmpty);
  rows_.assign(new_cap, kNoRow);
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < old_state.size(); ++i) {
    if (old_state[i] != kFull) continue;
    std::size_t j = hash(old_keys[i]) & mask;
    while (state_[j] == kFull) j = (j + 1) & mask;
    state_[j] = kFull;
    keys_[j] = old_keys[i];
    rows_[j] = old_rows[i];
  }
}

std::uint32_t SightingTable::find_row(std::uint32_t src) const {
  if (size_ == 0) return kNoRow;
  const std::size_t mask = capacity() - 1;
  std::size_t i = hash(src) & mask;
  while (state_[i] != kEmpty) {
    if (keys_[i] == src) return rows_[i];
    i = (i + 1) & mask;
  }
  return kNoRow;
}

void SightingTable::record(std::uint32_t src, std::uint32_t site,
                           TimeMicros ts, TimeMicros local_ts) {
  if (size_ * 4 >= capacity() * 3) grow();
  const std::size_t mask = capacity() - 1;
  std::size_t i = hash(src) & mask;
  while (state_[i] == kFull && keys_[i] != src) i = (i + 1) & mask;
  if (state_[i] != kFull) {
    state_[i] = kFull;
    keys_[i] = src;
    rows_[i] = static_cast<std::uint32_t>(size_);
    ++size_;
    first_seen_.resize(size_ * num_sites_, kNever);
    local_first_seen_.resize(size_ * num_sites_, kNever);
    packets_.resize(size_ * num_sites_, 0);
    sites_seen_.push_back(0);
  }
  const std::size_t base = std::size_t{rows_[i]} * num_sites_ + site;
  if (first_seen_[base] == kNever) {
    first_seen_[base] = ts;
    local_first_seen_[base] = local_ts;
    if (++sites_seen_[rows_[i]] == 2) ++multi_sensor_sources_;
  }
  ++packets_[base];
}

std::vector<SightingTable::Sighting> SightingTable::sightings_of(
    std::uint32_t src) const {
  std::vector<Sighting> out;
  const std::uint32_t row = find_row(src);
  if (row == kNoRow) return out;
  const std::size_t base = std::size_t{row} * num_sites_;
  for (std::size_t s = 0; s < num_sites_; ++s) {
    if (first_seen_[base + s] == kNever) continue;
    out.push_back(Sighting{static_cast<std::uint32_t>(s),
                           first_seen_[base + s],
                           local_first_seen_[base + s],
                           packets_[base + s]});
  }
  return out;
}

}  // namespace exiot::telescope
