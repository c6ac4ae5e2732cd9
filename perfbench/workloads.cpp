// The benchmark's workloads. Every layer is timed from outside, through
// public entry points only: the Executor handed to ScaleWorld::run (with
// each task(i) wrapped), the window hook, SimNode::bind re-bound around
// the engines' on_packet, and the handlers and poll_once handed to
// UdpRunner. Nothing here changes what the program computes; the traced
// and untraced repetitions execute the same events.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cadet/cadet.h"
#include "net/udp_runner.h"
#include "perf.h"
#include "testbed/scale.h"
#include "testbed/topology.h"
#include "testbed/workload.h"
#include "util/rng.h"
#include "util/task_pool.h"

namespace perf {

namespace {

using cadet::testbed::ScaleConfig;
using cadet::testbed::ScaleWorld;

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

// Wall-clock latency of the workload's unit of progress, in microseconds:
// durations between consecutive start stamps, the last one closed by `end`.
void report_steps(const std::vector<std::int64_t>& starts, std::int64_t end,
                  Report& report) {
  std::vector<double> us;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const std::int64_t stop = i + 1 < starts.size() ? starts[i + 1] : end;
    us.push_back(static_cast<double>(stop - starts[i]) * 1e-3);
  }
  report.num("step_p50_us", percentile(us, 0.50));
  report.num("step_p90_us", percentile(us, 0.90));
  report.num("step_p99_us", percentile(us, 0.99));
}

// Edge-policy and NIST counts of the per-node engines (testbed and udp);
// returns the number of uploads that went through the sanity battery.
std::uint64_t report_edge_tier(const std::vector<cadet::EdgeNode::Stats>& edges,
                               const cadet::ServerNode::Stats& server,
                               Report& report) {
  std::uint64_t hits = 0, misses = 0, requests = 0, heavy = 0, rejected = 0,
                checked = 0;
  for (const cadet::EdgeNode::Stats& e : edges) {
    hits += e.cache_hits;
    misses += e.cache_misses;
    requests += e.requests_received;
    heavy += e.heavy_rejections;
    rejected += e.uploads_rejected_sanity + e.uploads_dropped_penalty;
    checked += e.uploads_received - e.uploads_dropped_penalty;
  }
  report.num("cadet.edge.cache_hit_fraction",
             hits + misses > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(hits + misses)
                               : 0.0);
  report.num("cadet.refills_per_1k_requests",
             requests > 0 ? 1000.0 * static_cast<double>(server.requests_served) /
                                static_cast<double>(requests)
                          : 0.0);
  report.num("cadet.heavy_denied", static_cast<double>(heavy));
  report.num("cadet.uploads_rejected", static_cast<double>(rejected));
  return checked;
}

void write_spans(const Options& options, const SpanLog& spans,
                 Report& report) {
  if (options.spans_path.empty()) return;
  report.check("spans_written", spans.write_jsonl(options.spans_path),
               options.spans_path);
}

// ------------------------------------------------------------------ scale

ScaleConfig scale_config(std::uint64_t seed, bool hostile) {
  ScaleConfig config;
  config.seed = seed;
  config.num_clients = 1'000'000;
  config.duration_s = 10.0;
  config.clients_per_edge = hostile ? 128 : 1024;
  if (hostile) {
    config.flooder_fraction = 0.002;
    config.bad_uploader_fraction = 0.05;
    config.drop_prob = 0.02;
  }
  return config;
}

// Wall-time attribution of one traced ScaleWorld run. Spans: run >
// window > {executor, trace_fold, barrier}. A window opens at the executor
// call and closes at the window hook, which ScaleWorld calls at the end of
// its barrier; what runs between the hook and the next executor call is
// left unattributed. Task times are aggregated per window (max and sum)
// and per shard instead of stored one span each.
struct ScaleTrace {
  SpanLog spans{true};
  std::vector<std::int64_t> task_ns;   // this window, by shard
  std::vector<std::int64_t> shard_ns;  // whole run, by shard
  std::int64_t busy_ns = 0;
  std::int64_t exec_ns = 0;
  double imbalance_sum = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t boundary_events = 0;
  std::uint32_t run_id = 0;
  std::uint32_t window_id = 0;
  std::int64_t barrier_start = 0;
};

void run_scale_traced(ScaleWorld& world, cadet::util::TaskPool& pool,
                      ScaleTrace& trace,
                      std::vector<std::int64_t>& window_starts) {
  trace.task_ns.assign(world.num_shards(), 0);
  trace.shard_ns.assign(world.num_shards(), 0);
  world.set_window_hook([&trace](const ScaleWorld::WindowReport& r) {
    const std::int64_t at = now_ns();
    trace.spans.add("barrier", trace.window_id, trace.barrier_start, at);
    trace.spans.close(trace.window_id, at);
    ++trace.windows;
    trace.boundary_events += r.batch;
  });
  const ScaleWorld::Executor executor =
      [&](std::size_t count, const std::function<void(std::size_t)>& task) {
        const std::int64_t start = now_ns();
        window_starts.push_back(start);
        trace.window_id = trace.spans.open("window", trace.run_id, start);
        pool.run(count, [&](std::size_t i) {
          const std::int64_t t0 = now_ns();
          task(i);
          trace.task_ns[i] = now_ns() - t0;
        });
        const std::int64_t exec_end = now_ns();
        std::int64_t sum = 0;
        std::int64_t max = 0;
        for (std::size_t i = 0; i < count; ++i) {
          sum += trace.task_ns[i];
          max = std::max(max, trace.task_ns[i]);
          trace.shard_ns[i] += trace.task_ns[i];
        }
        trace.spans.add("executor", trace.window_id, start, exec_end, max);
        trace.busy_ns += sum;
        trace.exec_ns += exec_end - start;
        if (sum > 0) {
          trace.imbalance_sum += static_cast<double>(max) *
                                 static_cast<double>(count) /
                                 static_cast<double>(sum);
        }
        trace.barrier_start = now_ns();
        trace.spans.add("trace_fold", trace.window_id, exec_end,
                        trace.barrier_start);
      };
  trace.run_id = trace.spans.open("run", 0, now_ns());
  world.run(executor);
  trace.spans.close(trace.run_id, now_ns());
  for (std::size_t s = 0; s < trace.shard_ns.size(); ++s) {
    // Per-shard busy totals as zero-offset root spans (attr = shard), so
    // they do not count against the run span's self time.
    trace.spans.add("shard_busy", 0, 0, trace.shard_ns[s],
                    static_cast<std::int64_t>(s));
  }
}

}  // namespace

void run_scale(const Options& options, bool hostile, Report& report) {
  const ScaleConfig config = scale_config(options.seed, hostile);
  const unsigned workers = hostile ? options.workers : 1;
  report.num("workers", workers);

  if (options.check_determinism) {
    // Same-seed witness at j1 and jN on a small world of the same shape.
    ScaleConfig small = config;
    small.num_clients = 20'000;
    small.duration_s = 2.0;
    ScaleWorld serial(small);
    serial.run();
    ScaleWorld parallel(small);
    cadet::util::TaskPool pool(std::max(2u, options.workers));
    parallel.run([&pool](std::size_t count,
                         const std::function<void(std::size_t)>& task) {
      pool.run(count, task);
    });
    report.check("determinism_j1_vs_jN",
                 serial.checksum() == parallel.checksum(),
                 hex64(serial.checksum()) + " vs " +
                     hex64(parallel.checksum()));
  }

  cadet::util::TaskPool pool(workers);
  const auto setup_start = Clock::now();
  auto world = std::make_unique<ScaleWorld>(config);
  report.num("setup_s", seconds_since(setup_start));

  ScaleTrace trace;
  std::vector<std::int64_t> window_starts;
  const auto run_start = Clock::now();
  std::uint64_t events = 0;
  if (options.traced) {
    run_scale_traced(*world, pool, trace, window_starts);
    events = world->events_executed();
  } else {
    // The one stamp per window is the untraced run's only instrument.
    events = world->run([&](std::size_t count,
                            const std::function<void(std::size_t)>& task) {
      window_starts.push_back(now_ns());
      pool.run(count, task);
    });
  }
  const std::int64_t run_end = now_ns();
  const double run_s = seconds_since(run_start);
  // A step is one window: every shard's executor task plus the barrier.
  report_steps(window_starts, run_end, report);

  const cadet::testbed::ScaleStats stats = world->stats();
  const double clients = static_cast<double>(world->num_clients());
  const double sim_s = config.duration_s;
  const cadet::obs::HdrSnapshot latency = world->obs_plane().merged_latency();
  const std::uint64_t resolved = stats.fulfilled + stats.fallback +
                                 stats.expired;
  const double sent = static_cast<double>(stats.requests_sent);

  report.num("events", static_cast<double>(events));
  report.num("client_sim_s_per_wall_s", clients * sim_s / run_s);
  report.num("fingerprint.sim_request_p50_us", latency.quantile(0.50) * 1e6);
  report.num("fingerprint.sim_request_p99_us", latency.quantile(0.99) * 1e6);
  // A request fails when the client is left without entropy; a local
  // CSPRNG fallback still serves it but counts in failed_fraction.
  report.num("requests_attempted", sent);
  report.num("requests_failed", static_cast<double>(stats.expired));
  report.num("failed_fraction",
             sent > 0 ? static_cast<double>(stats.fallback + stats.expired) /
                            sent
                      : 0.0);
  report.num("testbed.bytes_per_client",
             static_cast<double>(world->memory_bytes()) / clients);
  // Model fingerprint (reported, never gated).
  report.str("fingerprint.checksum", hex64(world->checksum()));
  report.num("fingerprint.fulfilled", static_cast<double>(stats.fulfilled));
  report.num("fingerprint.fallback", static_cast<double>(stats.fallback));
  report.num("fingerprint.expired", static_cast<double>(stats.expired));

  report.check("requests_resolved",
               stats.requests_sent == resolved,
               std::to_string(stats.requests_sent) + " sent vs " +
                   std::to_string(resolved) + " resolved");
  report.check("boundary_conserved",
               world->boundary_emitted() == world->boundary_injected(),
               std::to_string(world->boundary_emitted()) + " emitted vs " +
                   std::to_string(world->boundary_injected()) + " injected");
  report.check("no_lookahead_violations", world->lookahead_violations() == 0,
               std::to_string(world->lookahead_violations()));

  const double ticks = static_cast<double>(stats.local_serves) + sent;
  report.num("sim.events_per_client_sim_s",
             static_cast<double>(events) / (clients * sim_s));
  report.num("cadet.local_serve_fraction",
             ticks > 0 ? static_cast<double>(stats.local_serves) / ticks : 0);
  report.num("cadet.refills_per_1k_requests",
             sent > 0 ? 1000.0 * static_cast<double>(stats.refills_requested) /
                            sent
                      : 0.0);
  report.num("cadet.client.retransmissions",
             static_cast<double>(stats.retried));
  report.num("cadet.edge.cache_hit_fraction",
             sent > 0 ? 1.0 - static_cast<double>(stats.cache_misses) / sent
                      : 0.0);
  report.num("cadet.heavy_denied", static_cast<double>(stats.heavy_denied));
  report.num("cadet.uploads_rejected",
             static_cast<double>(stats.uploads_rejected));

  if (!options.traced) return;
  const double busy_s = static_cast<double>(trace.busy_ns) * 1e-9;
  const double exec_s = static_cast<double>(trace.exec_ns) * 1e-9;
  const double barrier_s = trace.spans.total_s("barrier");
  const double fold_s = trace.spans.total_s("trace_fold");
  const double run_span_s = trace.spans.total_s("run");
  report.num("testbed.shard_busy_s", busy_s);
  report.num("testbed.barrier_s", barrier_s);
  report.num("testbed.barrier_share", barrier_s / run_span_s);
  report.num("testbed.windows", static_cast<double>(trace.windows));
  report.num("sim.ns_per_event",
             events > 0 ? busy_s * 1e9 / static_cast<double>(events) : 0.0);
  report.num("sim.boundary_events", static_cast<double>(trace.boundary_events));
  report.num("sim.boundary_ns_per_event",
             trace.boundary_events > 0
                 ? barrier_s * 1e9 / static_cast<double>(trace.boundary_events)
                 : 0.0);
  report.num("util.parallel_efficiency",
             exec_s > 0 ? busy_s / (workers * exec_s) : 0.0);
  report.num("testbed.shard_imbalance",
             trace.windows > 0
                 ? trace.imbalance_sum / static_cast<double>(trace.windows)
                 : 0.0);
  // The breakdown must add up: executor + barrier (+ the tracer's own
  // per-window fold) covers the run wall within 1 %. The rest is the
  // set-up before the first window, the loop between a barrier's end and
  // the next executor call, and the final fold after the last window.
  const double covered = exec_s + barrier_s + fold_s;
  report.check("breakdown_adds_up",
               std::abs(run_span_s - covered) <= 0.01 * run_span_s,
               "run " + std::to_string(run_span_s) + " s vs executor+" +
                   "barrier+fold " + std::to_string(covered) + " s");
  report.check("boundary_events_seen",
               trace.boundary_events == world->boundary_injected(),
               std::to_string(trace.boundary_events));
  write_spans(options, trace.spans, report);
}

// ---------------------------------------------------------------- testbed

namespace {

using cadet::testbed::World;

constexpr double kPaperHourS = 3600.0;
constexpr double kTestbedStepS = 0.25;  // simulated time per timed step
constexpr int kTestbedSetups = 5;

struct TestbedWorld {
  std::unique_ptr<World> world;
  std::unique_ptr<cadet::testbed::WorkloadDriver> driver;
  cadet::util::SimTime t_end = 0;
};

// World construction plus registration (X25519 init + rereg for every
// client) plus scheduling the hour of Poisson requests and uploads.
TestbedWorld build_testbed(std::uint64_t seed) {
  cadet::testbed::TestbedConfig config;
  config.seed = seed;
  config.server_seed_bytes = 1 << 20;
  TestbedWorld tb;
  tb.world = std::make_unique<World>(config);
  tb.world->register_edges();
  tb.world->register_clients();
  tb.driver =
      std::make_unique<cadet::testbed::WorkloadDriver>(*tb.world, seed + 1);
  const cadet::util::SimTime start = tb.world->simulator().now();
  tb.t_end = start + cadet::util::from_seconds(kPaperHourS);
  for (std::size_t i = 0; i < tb.world->num_clients(); ++i) {
    tb.driver->drive(i,
                     cadet::testbed::ClientBehavior::for_profile(
                         tb.world->profile_of(i)),
                     start, tb.t_end);
  }
  return tb;
}

// Re-binds every node's packet handler with a wall-clock span around the
// engine's on_packet.
void bind_handler_spans(World& world, SpanLog& spans,
                        const std::uint32_t& parent) {
  auto wrap = [&spans, &parent](const char* name, auto* engine) {
    return [&spans, &parent, name, engine](cadet::net::NodeId from,
                                           cadet::util::BytesView data,
                                           cadet::util::SimTime now) {
      const std::int64_t t0 = now_ns();
      auto out = engine->on_packet(from, data, now);
      spans.add(name, parent, t0, now_ns());
      return out;
    };
  };
  for (std::size_t j = 0; j < world.num_servers(); ++j) {
    world.server_sim(j).bind(wrap("handler.server", &world.server(j)));
  }
  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    world.edge_sim(k).bind(wrap("handler.edge", &world.edge(k)));
  }
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    world.client_sim(i).bind(wrap("handler.client", &world.client(i)));
  }
}

}  // namespace

void run_testbed(const Options& options, Report& report) {
  std::vector<double> setups;
  TestbedWorld tb;
  for (int k = 0; k < kTestbedSetups; ++k) {
    tb.driver.reset();  // before the World it drives
    tb.world.reset();
    const auto start = Clock::now();
    tb = build_testbed(options.seed);
    setups.push_back(seconds_since(start));
  }
  report.num("setup_s", percentile(setups, 0.5));
  World& world = *tb.world;

  SpanLog spans(options.traced);
  std::uint32_t run_id = 0;
  if (options.traced) bind_handler_spans(world, spans, run_id);

  const std::uint64_t events_before = world.simulator().events_executed();
  const cadet::util::SimTime drain_end =
      tb.t_end + cadet::util::from_seconds(10);
  const cadet::util::SimTime step = cadet::util::from_seconds(kTestbedStepS);
  std::vector<std::int64_t> step_starts;
  const auto run_start = Clock::now();
  run_id = spans.open("run", 0, now_ns());
  for (cadet::util::SimTime t = world.simulator().now(); t < drain_end;) {
    t = std::min(t + step, drain_end);
    step_starts.push_back(now_ns());
    world.simulator().run_until(t);
  }
  step_starts.push_back(now_ns());
  world.simulator().run();
  const std::int64_t run_end = now_ns();
  spans.close(run_id, run_end);
  const double run_s = seconds_since(run_start);
  // A step is one slice of simulated time (the last one drains the rest).
  report_steps(step_starts, run_end, report);
  const std::uint64_t events =
      world.simulator().events_executed() - events_before;

  const auto& m = tb.driver->metrics();
  std::uint64_t fulfilled = 0, fallback = 0, expired = 0, retried = 0,
                pending = 0;
  for (std::size_t i = 0; i < world.num_clients(); ++i) {
    const cadet::ClientNode& c = world.client(i);
    fulfilled += c.requests_fulfilled();
    fallback += c.requests_fallback();
    expired += c.requests_expired();
    retried += c.requests_retried();
    pending += c.requests_pending();
  }
  std::vector<cadet::EdgeNode::Stats> edges;
  for (std::size_t k = 0; k < world.num_edges(); ++k) {
    edges.push_back(world.edge(k).stats());
  }
  const std::uint64_t uploads_checked =
      report_edge_tier(edges, world.server().stats(), report);
  const double sent = static_cast<double>(m.requests_sent);
  const double clients = static_cast<double>(world.num_clients());

  report.num("events", static_cast<double>(events));
  report.num("client_sim_s_per_wall_s", clients * kPaperHourS / run_s);
  report.num("fingerprint.sim_request_p50_us",
             m.response_times_s.quantile(0.50) * 1e6);
  report.num("fingerprint.sim_request_p99_us",
             m.response_times_s.quantile(0.99) * 1e6);
  report.num("requests_attempted", sent);
  report.num("requests_failed", static_cast<double>(expired + pending));
  report.num("failed_fraction",
             sent > 0 ? static_cast<double>(fallback + expired + pending) / sent
                      : 0.0);
  report.num("fingerprint.fulfilled", static_cast<double>(fulfilled));
  report.num("fingerprint.fallback", static_cast<double>(fallback));
  report.num("fingerprint.expired", static_cast<double>(expired));
  report.num("fingerprint.responses", static_cast<double>(m.responses_received));
  report.num("sim.events_per_client_sim_s",
             static_cast<double>(events) / (clients * kPaperHourS));
  report.num("cadet.client.retransmissions", static_cast<double>(retried));

  report.check("requests_resolved",
               m.requests_sent == fulfilled + fallback + expired &&
                   pending == 0,
               std::to_string(m.requests_sent) + " sent vs " +
                   std::to_string(fulfilled) + " fulfilled + " +
                   std::to_string(fallback) + " fallback + " +
                   std::to_string(expired) + " expired, " +
                   std::to_string(pending) + " pending");

  if (!options.traced) return;
  for (const char* tier : {"server", "edge", "client"}) {
    const std::string span = std::string("handler.") + tier;
    report.num(std::string("cadet.") + tier + ".handler_s",
               spans.total_s(span));
    report.num(std::string("cadet.") + tier + ".calls",
               static_cast<double>(spans.count(span)));
  }
  report.num("sim.self_s", spans.self_s("run"));
  report.num("sim.ns_per_event",
             events > 0 ? spans.self_s("run") * 1e9 / static_cast<double>(events)
                        : 0.0);
  const double sanity_ns = measure_primitives(options.seed, 512 / 8, 32,
                                              report);
  report.num("nist.sanity_share", sanity_ns * 1e-9 *
                                      static_cast<double>(uploads_checked) /
                                      run_s);
  write_spans(options, spans, report);
}

// ------------------------------------------------------------------- udp

namespace {

using cadet::net::NodeId;

constexpr NodeId kUdpServer = 1;
constexpr NodeId kUdpEdge = 100;
constexpr std::size_t kUdpClients = 64;
constexpr std::size_t kUdpProducers = 32;
constexpr std::uint16_t kUdpRequestBits = 512;
// Uploads carry 1.25x the bytes a request draws (64 B) and arrive at the
// request rate, so supply stays ahead of demand at every offered rate.
constexpr std::size_t kUdpUploadBytes = 80;
constexpr std::size_t kUdpServerSeedBytes = 256 * 1024;
constexpr double kUdpNominalRps = 300.0;
constexpr double kUdpNominalS = 5.0;
constexpr double kUdpLadderRps[] = {2000.0, 4000.0, 8000.0, 16000.0,
                                    32000.0};
constexpr double kUdpStepS = 0.25;
constexpr double kUdpP99LimitUs = 10000.0;
constexpr double kUdpDrainS = 0.5;
constexpr int kUdpSetups = 5;

struct UdpDeployment {
  cadet::obs::Registry registry;
  std::unique_ptr<cadet::ServerNode> server;
  std::unique_ptr<cadet::EdgeNode> edge;
  std::vector<std::unique_ptr<cadet::ClientNode>> clients;
  cadet::net::UdpRunner runner;  // last: its handlers point at the nodes
  bool ready = false;
};

// Handler spans are children of the poll span open at dispatch time. The
// log records only while enabled: the measured phase, not registration
// or the capacity ladder.
struct UdpTrace {
  SpanLog spans{false};
  std::uint32_t poll_id = 0;
};

template <typename Engine>
cadet::net::UdpRunner::Handler udp_handler(Engine* engine, const char* name,
                                           UdpTrace* trace) {
  if (trace == nullptr) {
    return [engine](NodeId from, cadet::util::BytesView data,
                    cadet::util::SimTime now) {
      return engine->on_packet(from, data, now);
    };
  }
  return [engine, name, trace](NodeId from, cadet::util::BytesView data,
                               cadet::util::SimTime now) {
    const std::int64_t t0 = now_ns();
    auto out = engine->on_packet(from, data, now);
    trace->spans.add(name, trace->poll_id, t0, now_ns());
    return out;
  };
}

// Seeded nodes on loopback sockets, registered: edge registration, then
// client init (X25519 with the server) and token rereg with the edge.
std::unique_ptr<UdpDeployment> build_udp(std::uint64_t seed,
                                         UdpTrace* trace) {
  cadet::util::Xoshiro256 rng(seed ^ 0x75647030ULL);
  auto d = std::make_unique<UdpDeployment>();
  cadet::ServerNode::Config server_config;
  server_config.id = kUdpServer;
  server_config.seed = rng();
  server_config.metrics = &d->registry;
  d->server = std::make_unique<cadet::ServerNode>(server_config);
  d->server->seed_pool(rng.bytes(kUdpServerSeedBytes));

  cadet::EdgeNode::Config edge_config;
  edge_config.id = kUdpEdge;
  edge_config.server = kUdpServer;
  edge_config.seed = rng();
  edge_config.num_clients = kUdpClients;
  // 64 sockets stand in for a population: each asks ~5 Hz at the nominal
  // rate and up to 500 Hz on the capacity ladder, above the 2.5 Hz
  // honest-device floor that stage-2 heavy policing denies at. A denied request gets no reply, and UdpRunner
  // wires no timer to expire it, so denial would stall the run.
  // Reserve-blocking (stage 1) stays on.
  edge_config.heavy_denial_enabled = false;
  edge_config.metrics = &d->registry;
  d->edge = std::make_unique<cadet::EdgeNode>(edge_config);

  for (std::size_t i = 0; i < kUdpClients; ++i) {
    cadet::ClientNode::Config c;
    c.id = static_cast<NodeId>(1000 + i);
    c.edge = kUdpEdge;
    c.server = kUdpServer;
    c.seed = rng();
    c.metrics = &d->registry;
    d->clients.push_back(std::make_unique<cadet::ClientNode>(c));
  }

  auto& runner = d->runner;
  runner.bind_metrics(d->registry);
  runner.add_node(kUdpServer,
                  udp_handler(d->server.get(), "handler.server", trace));
  runner.add_node(kUdpEdge, udp_handler(d->edge.get(), "handler.edge", trace));
  for (auto& client : d->clients) {
    runner.add_node(client->id(),
                    udp_handler(client.get(), "handler.client", trace));
  }

  using cadet::net::wall_clock_ns;
  runner.send_all(kUdpEdge, d->edge->begin_edge_reg(wall_clock_ns()));
  if (!runner.pump_until([&] { return d->edge->registered(); }, 5000)) {
    return d;
  }
  for (auto& client : d->clients) {
    runner.send_all(client->id(), client->begin_init(wall_clock_ns()));
  }
  auto all = [&d](bool (cadet::ClientNode::*done)() const) {
    for (const auto& client : d->clients) {
      if (!((*client).*done)()) return false;
    }
    return true;
  };
  if (!runner.pump_until(
          [&] { return all(&cadet::ClientNode::initialized); }, 5000)) {
    return d;
  }
  for (auto& client : d->clients) {
    runner.send_all(client->id(), client->begin_rereg(wall_clock_ns()));
  }
  d->ready = runner.pump_until(
      [&] { return all(&cadet::ClientNode::reregistered); }, 5000);
  return d;
}

struct Arrival {
  std::int64_t due_ns = 0;  // offset from the phase start
  std::uint32_t client = 0;
  std::int32_t upload = -1;  // index into the phase's payloads, or -1
};

// Open-loop Poisson schedule: requests at `rps` from uniformly drawn
// clients, uploads at the same rate from the producers.
std::vector<Arrival> udp_schedule(cadet::util::Xoshiro256& rng, double rps,
                                  double seconds,
                                  std::vector<cadet::util::Bytes>& payloads) {
  std::vector<Arrival> arrivals;
  const double end_ns = seconds * 1e9;
  for (double t = rng.exponential(1e9 / rps); t < end_ns;
       t += rng.exponential(1e9 / rps)) {
    arrivals.push_back({static_cast<std::int64_t>(t),
                        static_cast<std::uint32_t>(rng.uniform(kUdpClients)),
                        -1});
  }
  for (double t = rng.exponential(1e9 / rps); t < end_ns;
       t += rng.exponential(1e9 / rps)) {
    payloads.push_back(rng.bytes(kUdpUploadBytes));
    arrivals.push_back(
        {static_cast<std::int64_t>(t),
         static_cast<std::uint32_t>(rng.uniform(kUdpProducers)),
         static_cast<std::int32_t>(payloads.size() - 1)});
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.due_ns < b.due_ns;
                   });
  return arrivals;
}

// Written by the delivery callbacks. Shared with them, because a request
// left unresolved at the drain deadline may still complete later.
struct Completions {
  explicit Completions(std::size_t requests) : done_ns(requests, -1) {}
  std::vector<std::int64_t> done_ns;  // -1 until the callback fires
  std::size_t resolved = 0;
  std::uint64_t delivered = 0;
  std::uint64_t expired = 0;  // callback fired with no data
  std::uint64_t double_completions = 0;
  std::uint64_t delivered_bytes = 0;
};

struct PhaseResult {
  std::vector<double> late_us;     // due -> handed to the socket
  std::uint64_t requests = 0;
  std::uint64_t delivered = 0;
  std::uint64_t expired = 0;     // callback fired with no data
  std::uint64_t unresolved = 0;  // no callback by the drain deadline
  std::uint64_t double_completions = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t uploaded_bytes = 0;  // handed to the producers' sockets
  double busy_s = 0.0;  // generator sends + polls that handled traffic
  // Latency percentiles; unresolved requests count as over any limit.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

PhaseResult run_udp_phase(UdpDeployment& d, std::vector<Arrival> arrivals,
                          std::vector<cadet::util::Bytes>& payloads,
                          UdpTrace& trace, std::uint32_t parent) {
  using cadet::net::wall_clock_ns;
  PhaseResult r;
  std::size_t total_requests = 0;
  for (const Arrival& a : arrivals) total_requests += a.upload < 0 ? 1 : 0;
  std::vector<std::int64_t> due(total_requests, 0);
  const auto completions = std::make_shared<Completions>(total_requests);
  std::int64_t busy_ns = 0;
  std::size_t next = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t last_due =
      arrivals.empty() ? t0 : t0 + arrivals.back().due_ns;
  const std::int64_t deadline =
      last_due + static_cast<std::int64_t>(kUdpDrainS * 1e9);

  for (;;) {
    const std::int64_t now = now_ns();
    while (next < arrivals.size() && t0 + arrivals[next].due_ns <= now) {
      const Arrival& a = arrivals[next++];
      cadet::ClientNode& client = *d.clients[a.client];
      const std::int64_t b0 = now_ns();
      if (a.upload >= 0) {
        r.uploaded_bytes += payloads[a.upload].size();
        d.runner.send_all(client.id(),
                          client.upload_entropy(std::move(payloads[a.upload]),
                                                wall_clock_ns()));
      } else {
        const std::size_t id = r.requests++;
        due[id] = t0 + a.due_ns;
        r.late_us.push_back(static_cast<double>(b0 - due[id]) * 1e-3);
        d.runner.send_all(
            client.id(),
            client.request_entropy(
                kUdpRequestBits, wall_clock_ns(),
                [c = completions, id](cadet::util::BytesView data,
                                      cadet::util::SimTime) {
                  if (c->done_ns[id] >= 0) {
                    ++c->double_completions;
                    return;
                  }
                  c->done_ns[id] = now_ns();
                  ++c->resolved;
                  if (data.empty()) {
                    ++c->expired;
                  } else {
                    ++c->delivered;
                    c->delivered_bytes += data.size();
                  }
                }));
      }
      busy_ns += now_ns() - b0;
    }
    if (next == arrivals.size() &&
        (completions->resolved == total_requests || now > deadline)) {
      break;
    }
    const std::int64_t p0 = now_ns();
    trace.poll_id = trace.spans.open("poll", parent, p0);
    const int handled = d.runner.poll_once(0);
    const std::int64_t p1 = now_ns();
    if (handled > 0) {
      busy_ns += p1 - p0;
      trace.spans.close(trace.poll_id, p1);
    } else {
      trace.spans.discard(trace.poll_id);
    }
  }
  r.busy_s = static_cast<double>(busy_ns) * 1e-9;
  r.delivered = completions->delivered;
  r.expired = completions->expired;
  r.double_completions = completions->double_completions;
  r.delivered_bytes = completions->delivered_bytes;
  const std::vector<std::int64_t>& done = completions->done_ns;
  std::vector<double> with_unresolved;
  for (std::size_t id = 0; id < total_requests; ++id) {
    if (done[id] < 0) {
      ++r.unresolved;
      with_unresolved.push_back(1e300);
      continue;
    }
    const double us = static_cast<double>(done[id] - due[id]) * 1e-3;
    with_unresolved.push_back(us);
    if (trace.spans.enabled()) {
      trace.spans.add("request", 0, due[id], done[id],
                      static_cast<std::int64_t>(id));
    }
  }
  r.p50_us = percentile(with_unresolved, 0.50);
  r.p90_us = percentile(with_unresolved, 0.90);
  r.p99_us = percentile(with_unresolved, 0.99);
  return r;
}

}  // namespace

void run_udp(const Options& options, Report& report) {
  UdpTrace trace;
  std::vector<double> setups;
  std::unique_ptr<UdpDeployment> d;
  for (int k = 0; k < kUdpSetups; ++k) {
    d.reset();
    const auto start = Clock::now();
    d = build_udp(options.seed, options.traced ? &trace : nullptr);
    setups.push_back(seconds_since(start));
    if (!d->ready) break;
  }
  report.num("setup_s", percentile(setups, 0.5));
  report.check("registration", d->ready, "edge + 64 client handshakes");
  if (!d->ready) return;

  cadet::util::Xoshiro256 rng(options.seed ^ 0x6c6f6164ULL);
  std::vector<cadet::util::Bytes> payloads;
  std::vector<Arrival> nominal =
      udp_schedule(rng, kUdpNominalRps, kUdpNominalS, payloads);
  const std::uint64_t datagrams_before = d->runner.datagrams_handled();
  trace.spans.set_enabled(options.traced);
  const std::uint32_t run_id = trace.spans.open("run", 0, now_ns());
  const PhaseResult r =
      run_udp_phase(*d, std::move(nominal), payloads, trace, run_id);
  trace.spans.close(run_id, now_ns());
  trace.spans.set_enabled(false);
  const std::uint64_t datagrams =
      d->runner.datagrams_handled() - datagrams_before;

  const double failed = static_cast<double>(r.expired + r.unresolved);
  const double requests = static_cast<double>(r.requests);
  report.num("client_sim_s_per_wall_s",
             static_cast<double>(kUdpClients) * kUdpNominalS / r.busy_s);
  // A step is one request, from its due time to its delivery.
  report.num("step_p50_us", r.p50_us);
  report.num("step_p90_us", r.p90_us);
  report.num("step_p99_us", r.p99_us);
  report.num("requests_attempted", requests);
  report.num("requests_failed", failed);
  report.num("failed_fraction", requests > 0 ? failed / requests : 0.0);
  const std::uint64_t uploads_checked =
      report_edge_tier({d->edge->stats()}, d->server->stats(), report);
  report.num("udp.generator_late_p99_us", percentile(r.late_us, 0.99));
  report.num("net.datagrams", static_cast<double>(datagrams));
  report.num("fingerprint.delivered", static_cast<double>(r.delivered));
  report.num("fingerprint.expired", static_cast<double>(r.expired));
  report.num("fingerprint.unresolved", static_cast<double>(r.unresolved));
  report.check("requests_accounted",
               r.requests == r.delivered + r.expired + r.unresolved &&
                   r.double_completions == 0,
               std::to_string(r.requests) + " due, " +
                   std::to_string(r.delivered) + " delivered, " +
                   std::to_string(r.expired) + " expired, " +
                   std::to_string(r.unresolved) + " unresolved, " +
                   std::to_string(r.double_completions) +
                   " double completions");
  // Byte conservation: what reached the clients plus what the server pool
  // and the edge cache still hold never exceeds what entered (the seeded
  // pool, the uploads and any edge timing jitter). Mixing passes bytes
  // through one for one; eviction, quality-check drops, sanity rejects and
  // uploads still buffered only widen the margin.
  const std::uint64_t held =
      d->server->pool().size() + d->edge->cache().size_bytes();
  const std::uint64_t entered = kUdpServerSeedBytes + r.uploaded_bytes +
                                d->edge->stats().timing_bytes_injected;
  report.check("delivered_within_uploaded",
               r.delivered_bytes + held <= entered,
               std::to_string(r.delivered_bytes) + " B delivered + " +
                   std::to_string(held) + " B held vs " +
                   std::to_string(entered) + " B seeded or uploaded");

  report.num("net.dropped_sends", static_cast<double>(d->runner.dropped_sends()));
  if (!options.traced) return;

  // Offered-rate ladder (traced repetitions only, after the measured
  // phase): the highest step whose p99 from due time meets the limit with
  // every request resolved and the generator on schedule.
  double capacity = 0.0;
  for (const double rps : kUdpLadderRps) {
    std::vector<cadet::util::Bytes> step_payloads;
    std::vector<Arrival> step =
        udp_schedule(rng, rps, kUdpStepS, step_payloads);
    const PhaseResult s =
        run_udp_phase(*d, std::move(step), step_payloads, trace, 0);
    const bool ok = s.unresolved == 0 && s.expired == 0 &&
                    s.p99_us <= kUdpP99LimitUs &&
                    percentile(s.late_us, 0.99) <= kUdpP99LimitUs;
    if (!ok) break;
    capacity = rps;
  }
  report.num("udp.capacity_rps", capacity);
  for (const char* tier : {"server", "edge", "client"}) {
    const std::string span = std::string("handler.") + tier;
    report.num(std::string("cadet.") + tier + ".handler_s",
               trace.spans.total_s(span));
    report.num(std::string("cadet.") + tier + ".calls",
               static_cast<double>(trace.spans.count(span)));
  }
  report.num("net.io_s", trace.spans.self_s("poll"));
  const double sanity_ns = measure_primitives(
      options.seed, kUdpRequestBits / 8, kUdpUploadBytes, report);
  report.num("nist.sanity_share",
             sanity_ns * 1e-9 * static_cast<double>(uploads_checked) /
                 trace.spans.total_s("run"));
  write_spans(options, trace.spans, report);
}

}  // namespace perf
