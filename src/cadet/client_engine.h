// Struct-of-arrays flyweight client state for million-client worlds.
//
// The per-ClientNode object graph (deque, optionals, Csprng, metrics
// handles — kilobytes per client once the allocator has its say) is the
// right model for protocol-fidelity experiments at testbed scale, but it is
// two orders of magnitude too fat for the ROADMAP's "millions of users".
// ClientEngine keeps one client's entire hot state in ~48 bytes spread
// across packed parallel arrays — RNG stream, pool cursor, usage/penalty
// scores, one pending-request slot with its issue timestamp — plus a
// 32-byte arena slot of cold key material, all in a handful of
// allocations for the whole population. The
// engine owns no behaviour: the sharded testbed (testbed/scale.h) drives it
// from simulator events, so the same state supports honest, flooding, and
// bad-uploader roles via the flag byte.
//
// Economics semantics mirror the full protocol engines (usage.h, penalty.h,
// config.h): EWMA usage with decay kUsageDecay, lazily applied — scores
// decay by pow(decay, steps-since-last-touch) on access instead of an
// O(population) sweep per packet, read from one power table shared by all
// engines — and a robust median + 1.4826 * MAD heavy threshold with the
// kUsageHeavyMedianRatio relative floor.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cadet/config.h"
#include "util/time.h"

namespace cadet {

class ClientEngine {
 public:
  /// Role and policing flags; packed into one byte per client.
  enum Flag : std::uint8_t {
    kProducer = 1u << 0,     ///< uploads entropy as well as requesting
    kBadUploader = 1u << 1,  ///< uploads fail the sanity battery
    kFlooder = 1u << 2,      ///< hostile request rate, ignores local pool
    kHeavy = 1u << 3,        ///< flagged by the last heavy-user scan
    kBlacklisted = 1u << 4,  ///< penalty reached kMaxPenalty
  };

  struct Config {
    std::uint64_t seed = 0;
    std::uint32_t first_id = 0;  ///< global id of client index 0
    std::uint32_t count = 0;
    std::uint32_t pool_capacity_bits =
        static_cast<std::uint32_t>(kClientBufferBits);
  };

  explicit ClientEngine(const Config& config);

  std::uint32_t count() const noexcept { return count_; }
  std::uint32_t global_id(std::uint32_t i) const noexcept {
    return first_id_ + i;
  }
  std::uint32_t pool_capacity_bits() const noexcept { return pool_capacity_; }

  // ---------------------------------------------------------------- flags
  std::uint8_t flags(std::uint32_t i) const noexcept { return flags_[i]; }
  bool has(std::uint32_t i, Flag flag) const noexcept {
    return (flags_[i] & flag) != 0;
  }
  void set_flag(std::uint32_t i, Flag flag) noexcept { flags_[i] |= flag; }
  void clear_flag(std::uint32_t i, Flag flag) noexcept {
    flags_[i] &= static_cast<std::uint8_t>(~flag);
  }

  // ------------------------------------------------------------ rng stream
  /// Each client owns an 8-byte SplitMix64 stream — enough randomness for
  /// arrival processes, and the whole population's generators fit in one
  /// vector instead of a Csprng apiece.
  std::uint64_t next_u64(std::uint32_t i) noexcept {
    std::uint64_t z = (rng_[i] += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform01(std::uint32_t i) noexcept {
    return static_cast<double>(next_u64(i) >> 11) * 0x1.0p-53;
  }
  /// Exponential inter-arrival draw in seconds.
  double next_exp(std::uint32_t i, double mean_s) noexcept {
    return -mean_s * std::log(1.0 - uniform01(i));
  }

  // ------------------------------------------------------------ pool cursor
  std::uint32_t pool_bits(std::uint32_t i) const noexcept {
    return pool_bits_[i];
  }
  /// Serve `bits` from the local pool; true when the pool covered it.
  bool pool_consume(std::uint32_t i, std::uint32_t bits) noexcept {
    if (pool_bits_[i] < bits) return false;
    pool_bits_[i] -= bits;
    return true;
  }
  void pool_credit(std::uint32_t i, std::uint32_t bits) noexcept {
    const std::uint64_t sum = std::uint64_t{pool_bits_[i]} + bits;
    pool_bits_[i] = sum > pool_capacity_ ? pool_capacity_
                                         : static_cast<std::uint32_t>(sum);
  }

  // ------------------------------------------------- pending-request slot
  /// One in-flight network request per client (the real ClientNode keeps a
  /// deque; at scale one slot + retries is the paper's behaviour anyway).
  /// `now` stamps the issue time so fulfillment latency is observable
  /// (pending_since). Returns the generation id replies must match.
  std::uint16_t issue_request(std::uint32_t i, std::uint16_t bits,
                              util::SimTime now = 0) noexcept {
    pending_bits_[i] = bits;
    pending_since_[i] = now;
    attempts_[i] = 0;
    return ++pending_id_[i];
  }
  bool request_pending(std::uint32_t i) const noexcept {
    return pending_bits_[i] != 0;
  }
  bool pending_matches(std::uint32_t i, std::uint16_t id) const noexcept {
    return pending_bits_[i] != 0 && pending_id_[i] == id;
  }
  std::uint16_t pending_bits(std::uint32_t i) const noexcept {
    return pending_bits_[i];
  }
  /// Issue time of the slot's current request (the `now` passed to
  /// issue_request; survives until the next issue so a reply handler can
  /// read the latency after resolving the slot).
  util::SimTime pending_since(std::uint32_t i) const noexcept {
    return pending_since_[i];
  }
  /// Retry bookkeeping: returns the attempt count after the bump.
  std::uint8_t bump_attempts(std::uint32_t i) noexcept {
    return ++attempts_[i];
  }
  /// Fulfilled: credit the granted bits and clear the slot.
  void complete_request(std::uint32_t i, std::uint32_t grant_bits) noexcept {
    pool_credit(i, grant_bits);
    pending_bits_[i] = 0;
  }
  /// Denied / expired: clear the slot without credit.
  void cancel_request(std::uint32_t i) noexcept { pending_bits_[i] = 0; }

  // ------------------------------------------------------- edge economics
  /// Lazily decay client i's usage score to `step`, add `add`, return the
  /// new score. `step` is the edge's per-request counter, so decay cost is
  /// O(1) per touched client instead of O(population) per packet.
  float usage_touch(std::uint32_t i, std::uint32_t step, float add) noexcept {
    const float score = usage_score(i, step) + add;
    usage_[i] = score;
    usage_step_[i] = step;
    return score;
  }
  float usage_score(std::uint32_t i, std::uint32_t step) const noexcept {
    const std::uint32_t lag = step - usage_step_[i];
    if (lag == 0) return usage_[i];
    if (lag < kDecayTableSize) return usage_[i] * decay_pow_[lag];
    return usage_[i] *
           static_cast<float>(std::pow(kUsageDecay, static_cast<double>(lag)));
  }

  /// decay_powers()[lag] == static_cast<float>(pow(kUsageDecay, lag)) for
  /// lag < kDecayTableSize — the exact value the pow fallback computes, so
  /// the table changes speed, never a score. One 16 KiB table serves every
  /// engine; a sharded world builds thousands of engines.
  static constexpr std::uint32_t kDecayTableSize = 4096;
  static const float* decay_powers() noexcept;

  /// Add penalty points (negative redeems); clamped to [0, kMaxPenalty].
  /// Sets kBlacklisted at the ceiling and returns the new score.
  float penalty_add(std::uint32_t i, float points) noexcept {
    float score = penalty_[i] + points;
    if (score < 0.0F) score = 0.0F;
    if (score >= static_cast<float>(kMaxPenalty)) {
      score = static_cast<float>(kMaxPenalty);
      flags_[i] |= kBlacklisted;
    }
    penalty_[i] = score;
    return score;
  }
  float penalty_score(std::uint32_t i) const noexcept { return penalty_[i]; }

  /// Robust heavy-user scan over the whole population: threshold is
  /// median + sigma_k * 1.4826 * MAD, floored by median * median_ratio and
  /// by `abs_floor` (the §III-C relative-floor semantics from usage.h).
  /// Sets/clears the kHeavy flag per client and returns the summary.
  /// `scratch` is caller-owned workspace, reused across scans.
  struct HeavyScan {
    float median = 0.0F;
    float threshold = 0.0F;
    std::uint32_t heavy = 0;
  };
  HeavyScan heavy_scan(std::uint32_t step, double sigma_k,
                       double median_ratio, float abs_floor,
                       std::vector<float>& scratch) noexcept;

  /// Cold per-client state: 32 bytes of derived key/token material in one
  /// arena allocation (at scale, derivation at construction stands in for
  /// the registration handshake; the sharded harness documents that).
  static constexpr std::size_t kColdBytes = 32;
  const std::uint8_t* cold(std::uint32_t i) const noexcept {
    return cold_.get() + std::size_t{i} * kColdBytes;
  }

  /// Total heap bytes held by the packed arrays and the arena.
  std::size_t memory_bytes() const noexcept;

 private:
  std::uint32_t first_id_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t pool_capacity_ = 0;
  const float* decay_pow_ = decay_powers();  // cached: skips the static's
                                             // init guard on the hot path

  std::vector<std::uint64_t> rng_;
  std::vector<std::uint32_t> pool_bits_;
  std::vector<float> usage_;
  std::vector<std::uint32_t> usage_step_;
  std::vector<float> penalty_;
  std::vector<std::uint16_t> pending_bits_;  // 0 = no request in flight
  std::vector<std::uint16_t> pending_id_;
  std::vector<util::SimTime> pending_since_;
  std::vector<std::uint8_t> attempts_;
  std::vector<std::uint8_t> flags_;
  std::unique_ptr<std::uint8_t[]> cold_;  // kColdBytes per client
};

}  // namespace cadet
