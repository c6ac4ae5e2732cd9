// cadet_perf: one repetition of one benchmark workload, in its own process.
//
//   cadet_perf --workload NAME --seed N [--trace 0|1]
//              [--check-determinism] [--spans PATH]
//
// Prints one JSON object: the repetition's raw measurements, the model
// fingerprint, and the correctness checks. Exit status is 0 when every
// check passed, 1 when one failed, 2 on bad arguments. perfbench/run.py
// runs repetitions until its time budget is spent and reports medians.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "cadet/packet.h"
#include "cadet/seal.h"
#include "crypto/csprng.h"
#include "crypto/x25519.h"
#include "nist/battery.h"
#include "perf.h"
#include "util/rng.h"

namespace perf {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"values\":{";
  for (std::size_t i = 0; i < nums_.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + json_escape(nums_[i].first) + "\":" +
           json_number(nums_[i].second);
  }
  out += "},\"strings\":{";
  for (std::size_t i = 0; i < strs_.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + json_escape(strs_[i].first) + "\":\"" +
           json_escape(strs_[i].second) + '"';
  }
  out += "},\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"name\":\"" + json_escape(checks_[i].name) + "\",\"ok\":" +
           (checks_[i].ok ? "true" : "false") + ",\"detail\":\"" +
           json_escape(checks_[i].detail) + "\"}";
  }
  out += "]}";
  return out;
}

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            std::int64_t start_ns, std::int64_t attr) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, start_ns, start_ns, attr});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::close(std::uint32_t id, std::int64_t end_ns) {
  if (id == 0) return;
  spans_[id - 1].end_ns = end_ns;
}

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::int64_t attr) {
  const std::uint32_t id = open(name, parent, start_ns, attr);
  close(id, end_ns);
  return id;
}

std::vector<std::int64_t> SpanLog::child_ns() const {
  std::vector<std::int64_t> ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  return ns;
}

double SpanLog::total_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double SpanLog::self_s(const std::string& name) const {
  const std::vector<std::int64_t> children = child_ns();
  std::int64_t ns = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name == s.name) ns += s.end_ns - s.start_ns - children[i];
  }
  return static_cast<double>(ns) * 1e-9;
}

std::size_t SpanLog::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  const std::vector<std::int64_t> children = child_ns();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"dur_ns\":%lld,\"self_ns\":%lld",
                 i + 1, s.parent, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - s.start_ns),
                 static_cast<long long>(s.end_ns - s.start_ns - children[i]));
    if (s.attr >= 0) {
      std::fprintf(f, ",\"attr\":%lld", static_cast<long long>(s.attr));
    }
    std::fputs("}\n", f);
  }
  return std::fclose(f) == 0;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double measure_primitives(std::uint64_t seed, std::size_t payload_bytes,
                          std::size_t upload_bytes, Report& report) {
  using namespace cadet;
  util::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  crypto::Csprng nonce_rng(seed);
  const util::Bytes key = rng.bytes(32);
  const util::Bytes plain = rng.bytes(payload_bytes);
  const util::Bytes sealed = seal(key, plain, nonce_rng);
  if (!open(key, sealed)) {
    report.check("primitive_seal_roundtrip", false, "open rejected seal");
  }

  volatile std::size_t sink = 0;
  report.num("crypto.seal_ns", time_ns_per_call([&] {
               sink = sink + seal(key, plain, nonce_rng).size();
             }));
  report.num("crypto.open_ns", time_ns_per_call([&] {
               sink = sink + open(key, sealed)->size();
             }));

  const Packet packet = Packet::data_ack(sealed, false, true);
  report.num("cadet.packet_codec_ns", time_ns_per_call([&] {
               const util::Bytes w = encode(packet);
               sink = sink + decode(w)->payload.size();
             }));

  crypto::X25519Key scalar{};
  crypto::X25519Key point{};
  const util::Bytes s = rng.bytes(32);
  std::copy(s.begin(), s.end(), scalar.begin());
  point = crypto::x25519_public(scalar);
  report.num("crypto.x25519_ns", time_ns_per_call([&] {
               point = crypto::x25519(scalar, point);
               sink = sink + point[0];
             }));

  const util::Bytes upload = rng.bytes(upload_bytes);
  const util::Bytes previous = rng.bytes(upload_bytes);
  const nist::SanityBattery sanity;
  const double sanity_ns = time_ns_per_call([&] {
    sink = sink +
           static_cast<std::size_t>(sanity.run(upload, previous).passed());
  });
  report.num("nist.sanity_ns_per_upload", sanity_ns);

  const util::Bytes snapshot = rng.bytes(50000 / 8);
  const nist::QualityBattery quality;
  report.num("nist.quality_check_ms",
             time_ns_per_call(
                 [&] {
                   sink = sink + static_cast<std::size_t>(
                                     quality.run(snapshot, 50000).passed());
                 },
                 0.2) *
                 1e-6);
  return sanity_ns;
}

}  // namespace perf

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload scale_million|scale_hostile_parallel|"
               "testbed_paper_hour|udp_loopback --seed N [--trace 0|1] "
               "[--check-determinism] [--spans PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options options;
  options.workers =
      std::max(1u, std::min(std::thread::hardware_concurrency(), 4u));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      options.traced = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--check-determinism") {
      options.check_determinism = true;
    } else if (arg == "--spans" && has_value) {
      options.spans_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  perf::Report report;
  report.str("build_type", CADET_PERF_BUILD_TYPE);
  report.str("compiler", CADET_PERF_COMPILER);

  if (options.workload == "scale_million") {
    perf::run_scale(options, false, report);
  } else if (options.workload == "scale_hostile_parallel") {
    perf::run_scale(options, true, report);
  } else if (options.workload == "testbed_paper_hour") {
    perf::run_testbed(options, report);
  } else if (options.workload == "udp_loopback") {
    perf::run_udp(options, report);
  } else {
    return usage(argv[0]);
  }
  report.num("peak_rss_mb", perf::peak_rss_mb());
  std::printf("%s\n", report.json().c_str());
  return report.all_ok() ? 0 : 1;
}
