#include "cadet/client_engine.h"

#include <algorithm>
#include <array>

namespace cadet {
namespace {

/// SplitMix64 step used to derive per-client streams and cold key material
/// from the engine seed (mirrors util::SplitMix64; re-stated here so the
/// header's inline next_u64 and this derivation agree byte-for-byte).
std::uint64_t splitmix(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ClientEngine::ClientEngine(const Config& config)
    : first_id_(config.first_id),
      count_(config.count),
      pool_capacity_(config.pool_capacity_bits),
      rng_(config.count),
      pool_bits_(config.count, 0),
      usage_(config.count, 0.0F),
      usage_step_(config.count, 0),
      penalty_(config.count, 0.0F),
      pending_bits_(config.count, 0),
      pending_id_(config.count, 0),
      pending_since_(config.count, 0),
      attempts_(config.count, 0),
      flags_(config.count, 0),
      cold_(new std::uint8_t[std::size_t{config.count} * kColdBytes]) {
  for (std::uint32_t i = 0; i < count_; ++i) {
    // Decorrelate the streams: seed ^ f(global id) through one SplitMix64
    // whitening step, then derive the 32 cold bytes from the same chain so
    // each client's key material is a pure function of (seed, id).
    std::uint64_t chain =
        config.seed ^ (0x9e3779b97f4a7c15ULL * (first_id_ + i + 1));
    rng_[i] = splitmix(chain);
    std::uint8_t* cold = cold_.get() + std::size_t{i} * kColdBytes;
    for (std::size_t w = 0; w < kColdBytes / 8; ++w) {
      const std::uint64_t word = splitmix(chain);
      for (std::size_t b = 0; b < 8; ++b) {
        cold[w * 8 + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
  }
}

const float* ClientEngine::decay_powers() noexcept {
  static const std::array<float, kDecayTableSize> table = [] {
    std::array<float, kDecayTableSize> powers{};
    for (std::uint32_t lag = 0; lag < kDecayTableSize; ++lag) {
      powers[lag] = static_cast<float>(
          std::pow(kUsageDecay, static_cast<double>(lag)));
    }
    return powers;
  }();
  return table.data();
}

ClientEngine::HeavyScan ClientEngine::heavy_scan(
    std::uint32_t step, double sigma_k, double median_ratio, float abs_floor,
    std::vector<float>& scratch) noexcept {
  HeavyScan result;
  if (count_ == 0) return result;

  scratch.resize(count_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    scratch[i] = usage_score(i, step);
  }
  const std::size_t mid = count_ / 2;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch.end());
  const float median = scratch[mid];
  // Reuse the (already scrambled) scratch for absolute deviations.
  for (float& value : scratch) value = std::fabs(value - median);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch.end());
  const float mad = scratch[mid];

  float threshold =
      median + static_cast<float>(sigma_k * 1.4826) * mad;
  threshold = std::max(threshold,
                       median * static_cast<float>(median_ratio));
  threshold = std::max(threshold, abs_floor);

  std::uint32_t heavy = 0;
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (usage_score(i, step) > threshold) {
      flags_[i] |= kHeavy;
      ++heavy;
    } else {
      flags_[i] &= static_cast<std::uint8_t>(~kHeavy);
    }
  }
  result.median = median;
  result.threshold = threshold;
  result.heavy = heavy;
  return result;
}

std::size_t ClientEngine::memory_bytes() const noexcept {
  return rng_.capacity() * sizeof(std::uint64_t) +
         pool_bits_.capacity() * sizeof(std::uint32_t) +
         usage_.capacity() * sizeof(float) +
         usage_step_.capacity() * sizeof(std::uint32_t) +
         penalty_.capacity() * sizeof(float) +
         pending_bits_.capacity() * sizeof(std::uint16_t) +
         pending_id_.capacity() * sizeof(std::uint16_t) +
         pending_since_.capacity() * sizeof(util::SimTime) +
         attempts_.capacity() * sizeof(std::uint8_t) +
         flags_.capacity() * sizeof(std::uint8_t) +
         std::size_t{count_} * kColdBytes;
}

}  // namespace cadet
