// Workload service_sharded: the resident query service over a sharded(2)
// engine (one dispatcher, periodic refresh on), fronted by the socket
// server on loopback. The main thread bursts wire frames through
// QueryService::process_wire_batch (closed loop: the next burst when the
// previous returns); one client connection runs a seeded closed-loop
// command mix with a fixed think time — SNAPSHOT of the base per-flow
// table, ATTACH/DETACH of a switch tenant, ATTACH/DRAIN/DETACH of a stream
// tenant, and STATS. The flow population is a heavy-tailed datacenter mix
// whose working set fits the cache, so evictions are rare.
//
// Why: dispatch, rings, the merge thread, the snapshot rendezvous,
// attach/detach and the socket front end do the work, and reads and tenant
// churn compete with ingest for the service mutex and the shard pipeline —
// a change that speeds pulls by stalling ingest, or the reverse, shows.
// Load: 2 benchmark threads and 1 connection; the system under test adds 2
// workers, 1 merge thread and the server's accept and client threads.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>

#include "bench.hpp"
#include "compiler/program.hpp"
#include "runtime/engine_builder.hpp"
#include "service/line_protocol.hpp"
#include "service/query_service.hpp"
#include "service/server.hpp"
#include "trace/flow_session.hpp"

namespace perfbench {

using namespace perfq;

namespace {

const std::string kProgram =
    std::string(kEwmaFold) + "\n" + kNonMonotonicFold + R"(
base = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
lat = SELECT 5tuple, ewma GROUPBY 5tuple
nonmt = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)";
const char* const kBaseTables[] = {"base", "lat", "nonmt"};

constexpr const char* kSwitchTenant = "SELECT COUNT, SUM(pkt_len) GROUPBY dstip";
constexpr const char* kStreamTenant = "SELECT srcip, dstport WHERE tout == infinity";

constexpr std::size_t kBurst = 64;
constexpr std::size_t kCacheSlots = 1u << 14;  // 16384 pairs, 8-way, 2 shards
constexpr std::size_t kCacheWays = 8;
constexpr std::size_t kShards = 2;
constexpr Nanos kRefresh = Nanos{10'000'000'000};  // 10 s of trace time
constexpr auto kThinkTime = std::chrono::microseconds(5000);
constexpr auto kIngestThinkTime = std::chrono::microseconds(50);

/// Blocking line-protocol client over one loopback connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("client: connect() failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one command; returns true for OK, with the payload in `lines`
  /// (for ERR, lines holds the error text).
  bool call(const std::string& command, std::vector<std::string>& lines) {
    const std::string out = command + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("client: send failed");
      sent += static_cast<std::size_t>(n);
    }
    lines.clear();
    const std::string status = read_line();
    if (status.rfind("OK ", 0) != 0) {
      lines.push_back(status);
      return false;
    }
    const std::size_t count = std::stoul(status.substr(3));
    for (std::size_t i = 0; i < count; ++i) lines.push_back(read_line());
    return true;
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(pos_, nl - pos_);
        pos_ = nl + 1;
        return line;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("client: connection closed");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// What the client thread measured in one pass.
struct ClientLog {
  std::vector<double> pull_us, tenant_us;
  std::vector<std::string> first_pull, last_pull;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

/// The seeded command mix: 60% SNAPSHOT base, 20% switch-tenant cycle,
/// 10% stream-tenant cycle, 10% STATS; fixed think time between commands.
void client_loop(std::uint16_t port, std::uint64_t seed, std::stop_token stop,
                 Tracer& tracer, ClientLog& log) {
  Client client(port);
  std::mt19937_64 rng(seed);
  std::vector<std::string> lines;
  std::uint64_t request = 0;
  const auto timed = [&](const char* span, const std::string& command,
                         std::uint32_t parent = 0) {
    const std::uint64_t a = now_ns();
    const bool ok = client.call(command, lines);
    const std::uint64_t b = now_ns();
    tracer.add(span, a, b, request, parent);
    ++log.attempted;
    if (!ok) {
      ++log.failed;
      if (log.errors.size() < 5) log.errors.push_back(command + " -> " + lines.at(0));
    }
    return static_cast<double>(b - a) * 1e-3;
  };
  // The first command is always a pull, so every pass has one to check.
  do {
    ++request;
    const std::uint64_t pick = request == 1 ? 0 : rng() % 10;
    if (pick < 6) {
      log.pull_us.push_back(timed("service.snapshot_rtt", "SNAPSHOT base"));
      (log.first_pull.empty() ? log.first_pull : log.last_pull) = lines;
    } else if (pick < 8) {
      const std::string name = std::string("t").append(std::to_string(request));
      const std::uint64_t a = now_ns();
      double us = timed("service.attach_rtt", "ATTACH " + name + " " + kSwitchTenant);
      us += timed("service.detach_rtt", "DETACH " + name);
      tracer.add("service.tenant_cycle", a, now_ns(), request);
      log.tenant_us.push_back(us);
    } else if (pick < 9) {
      const std::string name = std::string("s").append(std::to_string(request));
      timed("service.attach_rtt", "ATTACH " + name + " " + kStreamTenant);
      timed("service.drain_rtt", "DRAIN " + name);
      timed("service.detach_rtt", "DETACH " + name);
    } else {
      timed("service.stats_rtt", "STATS");
    }
    std::this_thread::sleep_for(kThinkTime);
  } while (!stop.stop_requested());
}

/// A finished serial engine over a frame prefix (the reference executor).
std::unique_ptr<runtime::Engine> reference(std::span<const FrameObservation> frames,
                                           Nanos refresh) {
  auto engine = runtime::EngineBuilder(compiler::compile_source(kProgram, kParams))
                    .geometry(kv::CacheGeometry::set_associative(kCacheSlots, kCacheWays))
                    .refresh(refresh)
                    .build();
  engine->process_wire_batch(frames);
  engine->finish(frames.empty() ? Nanos{0} : frames.back().tin);
  return engine;
}

/// The first and last socket pulls must equal a fresh engine fed exactly the
/// record prefix each pull reports ("@ record N").
void check_pull(Result& result, const std::vector<std::string>& payload,
                std::span<const FrameObservation> frames, const char* which) {
  if (payload.empty()) {
    result.mismatch(std::string("service_sharded: no ") + which + " SNAPSHOT reply");
    return;
  }
  const std::size_t at = payload[0].find("@ record ");
  char* end = nullptr;
  const std::size_t n =
      at == std::string::npos ? 0 : std::strtoull(payload[0].c_str() + at + 9, &end, 10);
  if (at == std::string::npos || end == payload[0].c_str() + at + 9) {
    result.mismatch(std::string("service_sharded: ") + which + " pull has no record stamp");
    return;
  }
  if (n > frames.size()) {
    result.mismatch(std::string("service_sharded: ") + which + " pull past the input");
    return;
  }
  const auto ref = reference(frames.first(n), Nanos{0});
  const std::string want =
      ref->table("base").to_text("snapshot 'base' @ record " + std::to_string(n), 20);
  std::string got;
  for (const std::string& line : payload) got += line + "\n";
  if (got != want) {
    result.mismatch(std::string("service_sharded: ") + which +
                    " SNAPSHOT of table 'base' @ record " + std::to_string(n) +
                    " differs from a fresh engine over that prefix");
  }
}

}  // namespace

Result run_service_sharded(const Options& options) {
  Result result;
  Tracer tracer(options.trace);

  trace::TraceConfig config =
      trace::TraceConfig::datacenter_like().scaled(0.0025 * options.scale);
  config.seed = options.seed;
  config.max_flow_pkts = 512;
  const std::vector<PacketRecord> records = trace::generate_all(
      config, static_cast<std::uint64_t>(200'000 * options.scale));
  const FrameBuffer input(records);
  const std::span<const FrameObservation> frames(input.frames);
  const auto full_reference = reference(frames, kRefresh);
  const std::size_t base_keys = full_reference->table("base").row_count();
  result.context = {{"records", std::to_string(records.size())},
                    {"pulled_table_keys", std::to_string(base_keys)},
                    {"cache_pairs", std::to_string(kCacheSlots)},
                    {"shards", std::to_string(kShards)},
                    {"burst_frames", std::to_string(kBurst)},
                    {"think_us", std::to_string(kThinkTime.count())}};

  std::vector<double> setup_s, ingest_mrps, final_ms, pull_us, tenant_us;
  std::vector<double> traced_mrps, untraced_mrps, local_cmd_us, socket_cmd_us;
  double accuracy = 0;
  runtime::EngineMetrics last_metrics;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::uint64_t pass = 1;; ++pass) {
    Tracer off(false);
    Tracer& tr = options.trace && pass % 2 == 0 ? tracer : off;
    // The engine's and server's threads inherit the whole CPU set; only
    // the ingest thread is pinned, after they have started.
    pin_to_pass_cpu(0);

    std::uint64_t t0 = now_ns();
    runtime::Engine* raw = nullptr;
    std::unique_ptr<service::QueryService> svc;
    std::unique_ptr<service::QueryServer> server;
    {
      Scope s(tr, "runtime.build", pass);
      auto program = compiler::compile_source(kProgram, kParams);
      tr.add("lang.compile", t0, now_ns(), pass, s.id());
      auto engine = runtime::EngineBuilder(std::move(program))
                        .geometry(kv::CacheGeometry::set_associative(kCacheSlots, kCacheWays))
                        .refresh(kRefresh)
                        .sharded(kShards)
                        .build();
      raw = engine.get();
      svc = std::make_unique<service::QueryService>(std::move(engine));
      server = std::make_unique<service::QueryServer>(*svc, 0);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    // ---- ingest, with the client's command mix running alongside ----
    ClientLog log;
    Tracer client_tracer(tr.enabled());
    // A jthread: on every exit path its destructor asks the client to stop
    // and joins it before the server and service it talks to go away.
    std::jthread client([&](std::stop_token stop) {
      try {
        client_loop(server->port(), options.seed * 1000 + pass, stop, client_tracer, log);
      } catch (const std::exception& e) {
        ++log.failed;
        log.errors.push_back(std::string("client: ") + e.what());
      }
    });
    pin_to_pass_cpu(pass);
    std::uint64_t ingest_ns = 0;
    for (std::size_t i = 0; i < frames.size(); i += kBurst) {
      const std::size_t n = std::min(kBurst, frames.size() - i);
      const std::uint64_t a = now_ns();
      trace::IngestStats stats;
      {
        Scope s(tr, "runtime.process_wire_batch", pass);
        stats = svc->process_wire_batch(frames.subspan(i, n));
      }
      ingest_ns += now_ns() - a;
      ++result.attempted;
      if (stats.parsed != n) ++result.failed;
      // The producer's think time: the service mutex is not fair, so a
      // producer that re-locks at once starves every command.
      std::this_thread::sleep_for(kIngestThinkTime);
    }
    client.request_stop();
    client.join();
    tracer.append(client_tracer);
    const double mrps = static_cast<double>(frames.size()) * 1e3 /
                        static_cast<double>(ingest_ns);
    ingest_mrps.push_back(mrps);
    (tr.enabled() ? traced_mrps : untraced_mrps).push_back(mrps);
    pull_us.insert(pull_us.end(), log.pull_us.begin(), log.pull_us.end());
    tenant_us.insert(tenant_us.end(), log.tenant_us.begin(), log.tenant_us.end());
    result.attempted += log.attempted;
    result.failed += log.failed;
    for (const auto& e : log.errors) result.lines.push_back("command failed: " + e);

    // ---- traced passes: the same calls in-process, with ingest quiescent ----
    if (tr.enabled()) {
      constexpr int kRounds = 8;
      std::vector<std::string> lines;
      Client quiet(server->port());
      for (int r = 0; r < kRounds; ++r) {
        {
          Scope s(tr, "runtime.snapshot", pass);
          (void)svc->snapshot("base");
        }
        std::uint64_t a = now_ns();
        (void)service::execute_line(*svc, "SNAPSHOT base");
        local_cmd_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        a = now_ns();
        quiet.call("SNAPSHOT base", lines);
        socket_cmd_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        {
          Scope s(tr, "lang.compile", pass);
          (void)compiler::compile_source(kSwitchTenant, kParams);
        }
        {
          Scope s(tr, "runtime.attach_query", pass);
          svc->attach("local", kSwitchTenant);
        }
        Scope s(tr, "runtime.detach_query", pass);
        (void)svc->detach("local");
      }
      // Nothing else touches the engine now, so its export surface can be
      // driven directly (QueryService does not expose it).
      export_and_federate(tr, *raw, "base", svc->now(), pass);
    }

    t0 = now_ns();
    {
      Scope s(tr, "runtime.finish", pass);
      svc->finish();
      (void)svc->table("base");
    }
    final_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    server->stop();

    last_metrics = svc->metrics();
    for (const runtime::StoreStats& q : last_metrics.queries) {
      if (q.name == "nonmt") accuracy = q.accuracy.accuracy();
    }
    if (pass == 1) {
      for (const char* name : kBaseTables) {
        tables_equal(result, std::string("service_sharded final table '") + name + "'",
                     full_reference->table(name), svc->table(name));
      }
      check_pull(result, log.first_pull, frames, "first");
      if (!log.last_pull.empty()) check_pull(result, log.last_pull, frames, "last");
    }
    if (now_ns() >= deadline && pass >= (options.trace ? 2u : 1u)) break;
  }

  if (!options.trace) {
    result.metric("ingest_mrps", median(ingest_mrps), "Mrec/s");
    result.metric("final_result_ms", median(final_ms), "ms");
    result.metric("pull_p50_us", quantile(pull_us, 0.5), "us");
    result.metric("pull_p99_us", quantile(pull_us, 0.99), "us");
    result.metric("tenant_p50_us", quantile(tenant_us, 0.5), "us");
    result.metric("tenant_p90_us", quantile(tenant_us, 0.9), "us");
    result.metric("accuracy", accuracy, "fraction");
    result.metric("setup_s", median(setup_s), "s");
    pass_spread(result, "ingest_mrps", ingest_mrps);
    pass_spread(result, "final_result_ms", final_ms);
    pass_spread(result, "setup_s", setup_s);
    result.context.emplace_back("passes", std::to_string(ingest_mrps.size()));
    result.context.emplace_back("pulls", std::to_string(pull_us.size()));
    result.context.emplace_back("tenant_cycles", std::to_string(tenant_us.size()));
    return result;
  }

  const double e2e_ns = 1e3 / median(untraced_mrps);
  const StageCosts stages =
      measure_stages(kProgram, kParams, frames, kCacheSlots, kCacheWays);
  report_ledger(result, stages, e2e_ns, median(traced_mrps), median(untraced_mrps));
  add_common_layers(result, tracer, last_metrics, records.size());

  double stalls = 0;
  for (const runtime::RingMetrics& ring : last_metrics.rings) {
    stalls += static_cast<double>(ring.push_stalls);
  }
  const std::vector<double> batch = tracer.durations("runtime.process_wire_batch");
  result.lines.push_back("layers only this workload runs:");
  layer_line(result, "sharded.ring_push_stalls_per_mrec",
             stalls * 1e6 / static_cast<double>(records.size()), "count",
             "last pass, all rings");
  layer_line(result, "sharded.absorb_p99_us",
             last_metrics.absorb_ns.quantile_ns(0.99) / 1e3, "us",
             "merge-thread absorb sweep, engine histogram");
  layer_line(result, "sharded.snapshot_rendezvous_p99_us",
             last_metrics.snapshot_ns.quantile_ns(0.99) / 1e3, "us",
             "engine snapshot histogram");
  layer_line(result, "service.rtt_overhead_us",
             median(socket_cmd_us) - median(local_cmd_us), "us",
             "SNAPSHOT with ingest quiescent: socket round trip minus "
             "in-process execute_line, medians");
  layer_line(result, "service.ingest_block_us_p99", quantile(batch, 0.99) / 1e3, "us",
             "QueryService::process_wire_batch while commands run");
  result.lines.push_back(
      "note: stages are timed single-threaded; the sharded engine overlaps "
      "them across 2 workers, so the residual can be negative");
  dump_spans(result, tracer, options);
  return result;
}

}  // namespace perfbench
