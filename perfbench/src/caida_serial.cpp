// Workload caida_serial: the paper's CAIDA-like trace, serialized to wire
// frames during set-up, folded by ONE serial engine through the lazy
// process_wire_batch path. The program is three Fig. 2 queries — an
// additive per-flow counter (byte-direct key), the EWMA latency fold (fold
// VM) and the non-linear TCP non-monotonic fold — over a cache sized well
// below the flow working set (the Fig. 5 eviction regime).
//
// Why: frame check, key hash, cache probe/fold, eviction and backing-store
// merge do almost all the work, and sharding, the service and federation do
// none, so this workload is the control on which changes to those layers
// must not move ingest_mrps or final_result_ms. The mid-run pulls and
// tenant cycles are the in-process serial forms (Engine::snapshot,
// Engine::attach_query/detach_query), run in a phase between the two
// ingest halves so they never overlap the timed ingest.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "compiler/program.hpp"
#include "runtime/engine_builder.hpp"
#include "trace/flow_session.hpp"

namespace perfbench {

using namespace perfq;

namespace {

const std::string kProgram =
    std::string(kEwmaFold) + "\n" + kNonMonotonicFold + R"(
counts = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
lat = SELECT 5tuple, ewma GROUPBY 5tuple
nonmt = SELECT 5tuple, nonmt GROUPBY 5tuple WHERE proto == TCP
)";

constexpr const char* kTenant = "SELECT COUNT, SUM(pkt_len) GROUPBY dstip\n";

constexpr std::size_t kBurst = 1024;        // frames per ingest call
constexpr std::size_t kCacheSlots = 1u << 9;  // 512 pairs, 8-way
constexpr std::size_t kCacheWays = 8;
constexpr std::size_t kPullsPerPass = 20;
constexpr std::size_t kTenantCyclesPerPass = 12;

using FlowKey = std::tuple<double, double, double, double, double>;

/// The additive query's exact answer, straight from the generated records.
std::map<FlowKey, std::pair<double, double>> exact_counts(
    const std::vector<PacketRecord>& records) {
  std::map<FlowKey, std::pair<double, double>> out;
  for (const PacketRecord& rec : records) {
    const FlowKey k{field_value(rec, FieldId::kSrcIp),
                    field_value(rec, FieldId::kDstIp),
                    field_value(rec, FieldId::kSrcPort),
                    field_value(rec, FieldId::kDstPort),
                    field_value(rec, FieldId::kProto)};
    auto& [count, bytes] = out[k];
    count += 1.0;
    bytes += field_value(rec, FieldId::kPktLen);
  }
  return out;
}

void check_counts(Result& result, const runtime::ResultTable& table,
                  const std::map<FlowKey, std::pair<double, double>>& exact) {
  if (table.row_count() != exact.size()) {
    result.mismatch("caida_serial table 'counts': " +
                    std::to_string(table.row_count()) + " keys, exact count has " +
                    std::to_string(exact.size()));
    return;
  }
  const std::size_t cs = table.column("srcip"), cd = table.column("dstip"),
                    csp = table.column("srcport"), cdp = table.column("dstport"),
                    cp = table.column("proto"), cc = table.column("COUNT"),
                    cb = table.column("SUM(pkt_len)");
  for (const auto& row : table.rows()) {
    const auto it = exact.find(FlowKey{row[cs], row[cd], row[csp], row[cdp], row[cp]});
    if (it == exact.end() || it->second.first != row[cc] ||
        it->second.second != row[cb]) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "caida_serial table 'counts': key srcip=%.0f dstip=%.0f "
                    "has COUNT=%.0f SUM=%.0f, exact %s",
                    row[cs], row[cd], row[cc], row[cb],
                    it == exact.end() ? "has no such key" : "differs");
      result.mismatch(buf);
      return;
    }
  }
}

}  // namespace

Result run_caida_serial(const Options& options) {
  Result result;
  Tracer tracer(options.trace);

  // ---- inputs (the benchmark's own work; not part of setup_s) ----
  // A fixed record count, and flows bounded at 512 packets so no single
  // elephant fills the prefix: every seed offers the same kind of work.
  trace::TraceConfig config =
      trace::TraceConfig::caida_like().scaled(0.005 * options.scale);
  config.seed = options.seed;
  config.max_flow_pkts = 512;
  const std::vector<PacketRecord> records = trace::generate_all(
      config, static_cast<std::uint64_t>(100'000 * options.scale));
  const FrameBuffer input(records);
  const auto exact = exact_counts(records);
  const std::size_t half = records.size() / 2;
  const auto geometry = kv::CacheGeometry::set_associative(kCacheSlots, kCacheWays);
  result.context = {{"records", std::to_string(records.size())},
                    {"flows", std::to_string(exact.size())},
                    {"cache_pairs", std::to_string(kCacheSlots)},
                    {"burst_frames", std::to_string(kBurst)}};

  std::vector<double> setup_s, ingest_mrps, final_ms, pull_us, tenant_us;
  std::vector<double> traced_mrps, untraced_mrps;
  double accuracy = 0;
  runtime::EngineMetrics last_metrics;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::uint64_t pass = 1;; ++pass) {
    // A traced run alternates untraced and traced passes, so the tracing
    // overhead is measured within one run.
    Tracer off(false);
    Tracer& tr = options.trace && pass % 2 == 0 ? tracer : off;
    pin_to_pass_cpu(pass);

    std::uint64_t t0 = now_ns();
    std::unique_ptr<runtime::Engine> engine;
    {
      Scope s(tr, "runtime.build", pass);
      auto program = compiler::compile_source(kProgram, kParams);
      tr.add("lang.compile", t0, now_ns(), pass, s.id());
      engine = runtime::EngineBuilder(std::move(program)).geometry(geometry).build();
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    const auto ingest = [&](std::size_t begin, std::size_t end) {
      const std::uint64_t start = now_ns();
      for (std::size_t i = begin; i < end; i += kBurst) {
        const std::size_t n = std::min(kBurst, end - i);
        Scope s(tr, "runtime.process_wire_batch", pass);
        const auto stats = engine->process_wire_batch(
            std::span<const FrameObservation>(input.frames).subspan(i, n));
        ++result.attempted;
        if (stats.parsed != n) ++result.failed;
      }
      return now_ns() - start;
    };

    std::uint64_t ingest_ns = ingest(0, half);

    // Mid-run phase: pulls and tenant cycles against the live engine.
    const Nanos mid = records[half - 1].tin;
    for (std::size_t p = 0; p < kPullsPerPass; ++p) {
      const std::uint64_t a = now_ns();
      const runtime::EngineSnapshot snap = [&] {
        Scope s(tr, "runtime.snapshot", pass);
        return engine->snapshot("nonmt", mid);
      }();
      pull_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      ++result.attempted;
      if (snap.records != half) ++result.failed;
    }
    for (std::size_t k = 0; k < kTenantCyclesPerPass; ++k) {
      const std::uint64_t a = now_ns();
      try {
        Scope cycle(tr, "runtime.tenant_cycle", pass);
        auto program = [&] {
          Scope s(tr, "lang.compile", pass, cycle.id());
          return compiler::compile_source(kTenant, kParams);
        }();
        runtime::AttachOptions opts;
        opts.name = "tenant";
        opts.geometry = kv::CacheGeometry::set_associative(1u << 12, 8);
        {
          Scope s(tr, "runtime.attach_query", pass, cycle.id());
          engine->attach_query(std::move(program), opts);
        }
        Scope s(tr, "runtime.detach_query", pass, cycle.id());
        (void)engine->detach_query("tenant", mid);
      } catch (const std::exception& e) {
        ++result.failed;
        result.lines.push_back(std::string("tenant cycle failed: ") + e.what());
      }
      tenant_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      ++result.attempted;
    }

    if (tr.enabled()) export_and_federate(tr, *engine, "nonmt", mid, pass);

    ingest_ns += ingest(half, records.size());
    const double mrps = static_cast<double>(records.size()) * 1e3 /
                        static_cast<double>(ingest_ns);
    ingest_mrps.push_back(mrps);
    (tr.enabled() ? traced_mrps : untraced_mrps).push_back(mrps);

    t0 = now_ns();
    {
      Scope s(tr, "runtime.finish", pass);
      engine->finish(records.back().tin);
      (void)engine->result();
    }
    final_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);

    last_metrics = engine->metrics();
    for (const runtime::StoreStats& q : engine->store_stats()) {
      if (q.name == "nonmt") accuracy = q.accuracy.accuracy();
    }
    if (pass == 1) check_counts(result, engine->table("counts"), exact);
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

  // ---- traced run: the per-layer ledger ----
  const double e2e_ns = 1e3 / median(untraced_mrps);
  const StageCosts stages =
      measure_stages(kProgram, kParams, input.frames, kCacheSlots, kCacheWays);
  report_ledger(result, stages, e2e_ns, median(traced_mrps), median(untraced_mrps));
  add_common_layers(result, tracer, last_metrics, records.size());
  dump_spans(result, tracer, options);
  return result;
}

}  // namespace perfbench
