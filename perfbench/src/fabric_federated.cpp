// Workload fabric_federated: FabricEngine over a 4x4 leaf-spine fabric
// simulated by netsim (fabric_trace: heavy-tailed flows, bursty arrivals,
// incast and hotspot episodes), one serial engine per switch. The program
// is the additive loss-localization query with its collection-layer JOIN
// plus an EWMA latency GROUPBY qid (each queue belongs to one switch, so
// the single-source federation rule keeps it exact). The run makes
// network-wide snapshot pulls of the per-queue latency table (one row per
// switch queue, so its size does not depend on the seed) at fixed
// simulated-time steps, a fabric-wide tenant attach/detach cycle every few
// steps, and one finish.
//
// Why: it is the only workload where export, absorb, the federated read and
// the collection layer run, and the only one exercising serial-engine
// snapshot/export at fabric scale; the netsim event loop is the background
// load. Single-threaded.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "compiler/program.hpp"
#include "federation/collector.hpp"
#include "federation/fabric_engine.hpp"
#include "runtime/engine_builder.hpp"
#include "trace/fabric_trace.hpp"

namespace perfbench {

using namespace perfq;

namespace {

const std::string kProgram = std::string(kEwmaFold) + R"(
flows = SELECT COUNT, SUM(pkt_len) GROUPBY 5tuple
drops = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
lossrate = SELECT drops.COUNT / flows.COUNT FROM flows JOIN drops ON 5tuple
qlat = SELECT qid, ewma GROUPBY qid WHERE tout != infinity
)";
const char* const kTables[] = {"flows", "drops", "lossrate", "qlat"};

constexpr const char* kTenant = "SELECT COUNT GROUPBY dstip";

constexpr std::size_t kCacheSlots = 1u << 10;  // per switch, 8-way
constexpr std::size_t kCacheWays = 8;
constexpr std::int64_t kSteps = 200;      // pulls per pass
constexpr std::int64_t kTenantEvery = 4;  // a tenant cycle every 4th step

trace::FabricTraceConfig fabric_config(std::uint64_t seed, double scale) {
  trace::FabricTraceConfig c;
  c.seed = seed;
  c.leaves = 4;
  c.spines = 4;
  c.hosts_per_leaf = 4;
  c.duration = Nanos{4'000'000};
  c.num_flows = static_cast<std::uint64_t>(2400 * scale) + 16;
  c.mean_flow_pkts = 12.0;
  c.max_flow_pkts = 512;
  c.tcp_fraction = 0.5;
  c.burst_period = Nanos{250'000};
  c.burst_on = 0.25;
  c.edge.queue_capacity_pkts = 32;
  c.fabric_links.queue_capacity_pkts = 32;
  c.incasts.push_back(trace::FabricIncast{8, 0, 0, Nanos{1'000'000}, 64, 1500});
  c.incasts.push_back(trace::FabricIncast{6, 2, 1, Nanos{2'500'000}, 48, 1500});
  c.hotspots.push_back(
      trace::FabricHotspot{1, 3, Nanos{1'500'000}, Nanos{800'000}, 2.0});
  return c;
}

federation::FabricOptions fabric_options() {
  federation::FabricOptions o;
  o.geometry = kv::CacheGeometry::set_associative(kCacheSlots, kCacheWays);
  return o;
}

/// The simulator's own count of drops at switch-owned queues.
std::uint64_t switch_drops(const net::Network& net) {
  std::uint64_t total = 0;
  for (std::uint32_t qid = 0; qid < net.queue_count(); ++qid) {
    if (!net.node_is_host(net.queue_owner(qid))) total += net.queue_stats(qid).dropped;
  }
  return total;
}

}  // namespace

Result run_fabric_federated(const Options& options) {
  Result result;
  Tracer tracer(options.trace);
  const trace::FabricTraceConfig config = fabric_config(options.seed, options.scale);

  // ---- reference (set-up): every switch record in global emission order,
  // folded by one all-packets oracle engine ----
  std::vector<PacketRecord> oracle_in;
  std::uint64_t true_drops = 0;
  Nanos end{0};
  {
    net::Network net(config.seed);
    net.set_telemetry_sink([&](const PacketRecord& rec) { oracle_in.push_back(rec); });
    const net::LeafSpine topo = trace::build_fabric(net, config);
    trace::install_fabric_flows(net, topo, config);
    net.run_all();
    end = net.now();
    true_drops = switch_drops(net);
    std::erase_if(oracle_in, [&](const PacketRecord& rec) {
      return net.node_is_host(net.queue_owner(rec.qid));
    });
  }
  auto oracle = runtime::EngineBuilder(compiler::compile_source(kProgram, kParams))
                    .geometry(kv::CacheGeometry::set_associative(kCacheSlots, kCacheWays))
                    .build();
  oracle->process_batch(oracle_in);
  oracle->finish(end);
  const auto tenant_program = compiler::compile_source(kTenant, kParams);
  const Nanos step{end.count() / kSteps};
  result.context = {{"switches", std::to_string(config.leaves + config.spines)},
                    {"flows", std::to_string(config.num_flows)},
                    {"records", std::to_string(oracle_in.size())},
                    {"switch_drops", std::to_string(true_drops)},
                    {"cache_pairs_per_switch", std::to_string(kCacheSlots)},
                    {"pulls_per_pass", std::to_string(kSteps)}};

  std::vector<double> setup_s, ingest_mrps, final_ms, pull_us, tenant_us;
  std::vector<double> traced_mrps, untraced_mrps;
  double accuracy = 0, netsim_self_s = 0, netsim_ns_per_record = 0;
  std::uint64_t invalid_keys = 0;
  runtime::EngineMetrics last_metrics;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  for (std::uint64_t pass = 1;; ++pass) {
    Tracer off(false);
    Tracer& tr = options.trace && pass % 2 == 0 ? tracer : off;
    pin_to_pass_cpu(pass);

    // The network and its flows are the workload, not the system's set-up.
    net::Network net(config.seed);
    const net::LeafSpine topo = trace::build_fabric(net, config);
    trace::install_fabric_flows(net, topo, config);

    std::uint64_t t0 = now_ns();
    std::unique_ptr<federation::FabricEngine> fabric;
    {
      Scope s(tr, "runtime.build", pass);
      auto program = compiler::compile_source(kProgram, kParams);
      tr.add("lang.compile", t0, now_ns(), pass, s.id());
      fabric = std::make_unique<federation::FabricEngine>(net, std::move(program),
                                                          fabric_options());
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    // Ingest is the simulator run plus handing every tap's buffered records
    // to its engine, so a pull that follows only reads.
    std::uint64_t ingest_ns = 0;
    const auto run_to = [&](Nanos horizon, bool all) {
      Scope s(tr, "netsim.run_until", pass);
      const std::uint64_t a = now_ns();
      all ? net.run_all() : net.run_until(horizon);
      fabric->flush_taps();
      ingest_ns += now_ns() - a;
    };
    for (std::int64_t k = 1; k <= kSteps; ++k) {
      const Nanos now{step.count() * k};
      run_to(now, false);
      const std::uint64_t a = now_ns();
      try {
        Scope s(tr, "federation.snapshot", pass);
        (void)fabric->snapshot("qlat", now);
      } catch (const std::exception& e) {
        ++result.failed;
        result.lines.push_back(std::string("pull failed: ") + e.what());
      }
      pull_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      ++result.attempted;

      if (tr.enabled() && k % (kSteps / 4) == 0) {
        // Traced passes: the per-switch calls the network-wide pull is made
        // of, one at a time.
        const auto& program = fabric->program();
        const compiler::SwitchQueryPlan* plan = nullptr;
        for (const auto& p : program.switch_plans) {
          if (p.name == "qlat") plan = &p;
        }
        std::vector<kv::StoreExport> exports;
        {
          Scope fed(tr, "federation.export", pass);
          for (std::size_t i = 0; i < fabric->switch_count(); ++i) {
            Scope x(tr, "runtime.export_store", pass, fed.id());
            exports.push_back(fabric->engine(i).export_store("qlat", now));
          }
        }
        federation::Collector collector(program, *plan);
        {
          Scope s(tr, "federation.absorb", pass);
          for (std::size_t i = 0; i < exports.size(); ++i) {
            collector.add(static_cast<std::uint32_t>(i), exports[i]);
          }
        }
        {
          Scope s(tr, "federation.read", pass);
          (void)collector.materialize();
        }
        for (std::size_t i = 0; i < fabric->switch_count(); ++i) {
          Scope s(tr, "runtime.snapshot", pass);
          (void)fabric->engine(i).snapshot("qlat", now);
        }
      }

      if (k % kTenantEvery == 0) {
        const std::uint64_t b = now_ns();
        try {
          Scope cycle(tr, "federation.tenant_cycle", pass);
          runtime::AttachOptions opts;
          opts.name = "tenant";
          opts.geometry = kv::CacheGeometry::set_associative(1u << 9, 8);
          {
            Scope s(tr, "runtime.attach_query", pass, cycle.id());
            fabric->attach_query(tenant_program, opts);
          }
          Scope s(tr, "runtime.detach_query", pass, cycle.id());
          (void)fabric->detach_query("tenant", now);
        } catch (const std::exception& e) {
          ++result.failed;
          result.lines.push_back(std::string("tenant cycle failed: ") + e.what());
        }
        tenant_us.push_back(static_cast<double>(now_ns() - b) * 1e-3);
        ++result.attempted;
      }
    }
    run_to(Nanos{0}, true);

    t0 = now_ns();
    {
      Scope s(tr, "runtime.finish", pass);
      fabric->finish(net.now());
      (void)fabric->result();
    }
    final_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);

    const double records = static_cast<double>(fabric->records());
    const double mrps = records * 1e3 / static_cast<double>(ingest_ns);
    ingest_mrps.push_back(mrps);
    (tr.enabled() ? traced_mrps : untraced_mrps).push_back(mrps);
    const federation::FabricMetrics fm = fabric->metrics();
    last_metrics = fm.rollup;
    double engine_ns = 0;
    for (const auto& [label, m] : fm.switches) {
      engine_ns += static_cast<double>(m.batch_ns.sum_ns);
    }
    netsim_self_s = (static_cast<double>(ingest_ns) - engine_ns) * 1e-9;
    netsim_ns_per_record = (static_cast<double>(ingest_ns) - engine_ns) / records;
    const federation::FederatedResult& qlat = fabric->federated("qlat");
    accuracy = qlat.accuracy.accuracy();
    invalid_keys = qlat.accuracy.total_keys - qlat.accuracy.valid_keys;

    if (pass == 1) {
      if (fabric->records() != oracle_in.size()) {
        result.mismatch("fabric_federated: engines folded " +
                        std::to_string(fabric->records()) + " records, switches emitted " +
                        std::to_string(oracle_in.size()));
      }
      for (const char* name : kTables) {
        tables_equal(result, std::string("fabric_federated table '") + name + "'",
                     oracle->table(name), fabric->table(name));
      }
      const runtime::ResultTable& drops = fabric->table("drops");
      double counted = 0;
      for (std::size_t r = 0; r < drops.row_count(); ++r) counted += drops.at(r, "COUNT");
      if (counted != static_cast<double>(true_drops)) {
        result.mismatch("fabric_federated table 'drops': " + std::to_string(counted) +
                        " drops, simulator queues counted " + std::to_string(true_drops));
      }
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

  const FrameBuffer frames(oracle_in);
  const StageCosts stages =
      measure_stages(kProgram, kParams, frames.frames, kCacheSlots, kCacheWays);
  report_ledger(result, stages, 1e3 / median(untraced_mrps), median(traced_mrps),
                median(untraced_mrps), netsim_ns_per_record, /*wire_path=*/false);
  add_common_layers(result, tracer, last_metrics, oracle_in.size());
  result.lines.push_back("layers only this workload runs:");
  layer_line(result, "netsim.self_s", netsim_self_s, "s",
             "run_until time minus switch engines' batch time, last pass");
  layer_line(result, "federation.invalid_keys", static_cast<double>(invalid_keys),
             "count", "qlat keys seen at several switches");
  dump_spans(result, tracer, options);
  return result;
}

}  // namespace perfbench
