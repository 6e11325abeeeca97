#include "bench.hpp"

#include <sched.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "compiler/fold_compiler.hpp"
#include "compiler/key_router.hpp"
#include "compiler/program.hpp"
#include "federation/collector.hpp"
#include "kvstore/backing_store.hpp"
#include "kvstore/cache.hpp"
#include "lang/sema.hpp"
#include "packet/wire.hpp"

namespace perfbench {

using namespace perfq;

void Tracer::append(const Tracer& other) {
  if (!enabled_) return;
  const auto offset = static_cast<std::uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != 0) s.parent += offset;
    spans_.push_back(s);
  }
}

void pin_to_pass_cpu(std::uint64_t pass) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  if (pass == 0) {
    sched_setaffinity(0, sizeof(allowed), &allowed);
    return;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(pass / 2) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::map<std::string, Summary> out;
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= s.start_ns) {
      child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;
    Summary& sum = out[std::string(s.name)];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    ++sum.count;
    sum.total_ns += d;
    sum.self_ns += d - child_ns[i];
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
}

FrameBuffer::FrameBuffer(std::span<const PacketRecord> records) {
  std::vector<std::size_t> offsets;
  offsets.reserve(records.size() + 1);
  // Reserve the bound up front: growth by doubling would make the peak
  // resident set jump with the seed's packet-size mix.
  bytes.reserve(records.size() * kSnapLen);
  for (const PacketRecord& rec : records) {
    const std::vector<std::byte> frame = wire::serialize(rec.pkt);
    offsets.push_back(bytes.size());
    const std::size_t keep = std::min(frame.size(), kSnapLen);
    bytes.insert(bytes.end(), frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
  }
  offsets.push_back(bytes.size());
  frames.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    FrameObservation f;
    f.bytes = std::span<const std::byte>(bytes.data() + offsets[i],
                                         offsets[i + 1] - offsets[i]);
    f.qid = records[i].qid;
    f.tin = records[i].tin;
    f.tout = records[i].tout;
    f.qsize = records[i].qsize;
    frames.push_back(f);
  }
}

namespace {

/// Best-of-`reps` wall time of `body` in ns.
template <typename F>
double best_ns(int reps, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    body();
    best = std::min(best, static_cast<double>(now_ns() - t0));
  }
  return best;
}

/// Defeat dead-code elimination of timed loops.
volatile std::uint64_t g_sink = 0;
volatile double g_double_sink = 0;

}  // namespace

StageCosts measure_stages(const std::string& program_source,
                          const std::map<std::string, double>& params,
                          std::span<const FrameObservation> frames,
                          std::size_t cache_slots, std::size_t cache_ways,
                          int reps) {
  StageCosts c;
  const compiler::CompiledProgram program =
      compiler::compile_source(program_source, params);
  const auto geometry = kv::CacheGeometry::set_associative(cache_slots, cache_ways);
  constexpr std::uint64_t kHashSeed = 0x5eedcafe;  // EngineConfig default

  // packet: header validation alone.
  std::vector<WireRecordView> views;
  views.reserve(frames.size());
  for (const FrameObservation& f : frames) {
    if (wire::check_frame(f.bytes) != 0) views.push_back(wire_record_view(f));
  }
  if (views.empty()) return c;
  const double n = static_cast<double>(views.size());
  c.check_ns = best_ns(reps, [&] {
                 std::uint64_t acc = 0;
                 for (const FrameObservation& f : frames) {
                   acc += wire::check_frame(f.bytes);
                 }
                 g_sink = acc;
               }) / static_cast<double>(frames.size());

  for (const compiler::SwitchQueryPlan& plan : program.switch_plans) {
    // compiler: WHERE evaluation and key extraction, per frame.
    std::vector<std::uint32_t> admitted;
    admitted.reserve(views.size());
    c.prefilter_ns += best_ns(reps, [&] {
                        admitted.clear();
                        for (std::uint32_t i = 0; i < views.size(); ++i) {
                          if (!plan.prefilter.has_value() ||
                              plan.prefilter->eval_bool(
                                  compiler::record_source(views[i]))) {
                            admitted.push_back(i);
                          }
                        }
                      }) / n;
    std::vector<kv::Key> keys(admitted.size());
    c.key_extract_ns += best_ns(reps, [&] {
                          for (std::size_t j = 0; j < admitted.size(); ++j) {
                            keys[j] = compiler::extract_key(plan, views[admitted[j]]);
                          }
                        }) / n;
    if (const auto router = compiler::KeyRouter::make(plan)) {
      c.key_hash_ns += best_ns(reps, [&] {
                         std::uint64_t acc = 0;
                         for (const std::uint32_t i : admitted) {
                           acc ^= router->raw_hash(views[i]);
                         }
                         g_sink = acc;
                       }) / n;
    }

    // kvstore: probe + fold (with the engine's chunked prefetch), evictions
    // dropped; then the same stream again collecting the evictions, whose
    // absorption into a backing store is timed on its own.
    constexpr std::size_t kChunk = 32;  // SwitchFoldCore::kChunk
    const auto fold_all = [&](kv::Cache& cache) {
      for (std::size_t base = 0; base < admitted.size(); base += kChunk) {
        const std::size_t end = std::min(admitted.size(), base + kChunk);
        for (std::size_t j = base; j < end; ++j) cache.prefetch(keys[j]);
        for (std::size_t j = base; j < end; ++j) {
          cache.process(keys[j], views[admitted[j]]);
        }
      }
    };
    double cache_best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      kv::Cache cache(geometry, plan.kernel, kHashSeed);
      const std::uint64_t t0 = now_ns();
      fold_all(cache);
      cache_best = std::min(cache_best, static_cast<double>(now_ns() - t0));
    }
    c.cache_ns += cache_best / n;

    std::vector<kv::EvictedValue> evicted;
    {
      kv::Cache cache(geometry, plan.kernel, kHashSeed);
      cache.set_eviction_sink(
          [&](kv::EvictedValue&& ev) { evicted.push_back(std::move(ev)); });
      fold_all(cache);
    }
    if (!evicted.empty()) {
      const double absorb = best_ns(reps, [&] {
        kv::BackingStore backing(plan.kernel);
        for (const kv::EvictedValue& ev : evicted) backing.absorb(ev);
        g_sink = backing.accuracy().total_keys;
      });
      c.merge_per_frame_ns += absorb / n;
      c.evictions += evicted.size();
    }
  }
  c.backing_merge_ns =
      c.evictions == 0 ? 0.0
                       : c.merge_per_frame_ns * n / static_cast<double>(c.evictions);

  // compiler: the fold VM alone, on the EWMA kernel over the same records.
  const auto analysis = lang::analyze_source(
      std::string(kEwmaFold) + "\nSELECT 5tuple, ewma GROUPBY 5tuple\n", params);
  const compiler::CompiledFoldKernel ewma(analysis.folds.at(0), {});
  std::vector<PacketRecord> records;
  const std::size_t m = std::min<std::size_t>(views.size(), 1u << 16);
  records.reserve(m);
  for (std::size_t i = 0; i < m; ++i) records.push_back(views[i].materialize());
  c.fold_vm_ns = best_ns(reps, [&] {
                   kv::StateVector s = ewma.initial_state();
                   for (const PacketRecord& rec : records) ewma.update(s, rec);
                   g_double_sink = s[0];
                 }) / static_cast<double>(m);
  return c;
}

void report_ledger(Result& result, const StageCosts& s, double e2e_ns,
                   double traced_mrps, double untraced_mrps, double outside_ns,
                   bool wire_path) {
  char buf[256];
  const auto line = [&](const char* name, double ns, const std::string& note) {
    char row[320];
    std::snprintf(row, sizeof(row), "  %-26s %9.2f ns/record  %s", name, ns,
                  note.c_str());
    result.lines.push_back(row);
  };
  result.lines.push_back("ledger, stages timed alone on this workload's frames:");
  line("packet.check", s.check_ns,
       wire_path ? "wire::check_frame"
                 : "wire::check_frame (records arrive parsed: not in the sum)");
  line("compiler.prefilter", s.prefilter_ns, "WHERE, all switch queries");
  line("compiler.key_extract", s.key_extract_ns, "extract_key, all switch queries");
  line("kvstore.cache", s.cache_ns, "Cache::process + prefetch, all queries");
  std::snprintf(buf, sizeof(buf), "backing absorb: %.1f ns/eviction x %llu",
                s.backing_merge_ns, static_cast<unsigned long long>(s.evictions));
  line("kvstore.backing_merge", s.merge_per_frame_ns, buf);
  if (outside_ns != 0.0) {
    line("netsim.self", outside_ns, "event loop outside the switch engines");
  }
  const double sum = s.engine_sum_ns() + (wire_path ? s.check_ns : 0.0) + outside_ns;
  line("= sum of stages", sum, "");
  line("end-to-end ingest", e2e_ns, "untraced passes, median");
  const double residual = e2e_ns - sum;
  std::snprintf(buf, sizeof(buf), "%.0f%% of end-to-end",
                e2e_ns > 0 ? 100.0 * residual / e2e_ns : 0.0);
  line("runtime.residual", residual, buf);
  std::snprintf(buf, sizeof(buf),
                "  (inside the stages: KeyRouter::raw_hash %.2f ns/record, "
                "fold VM EWMA update %.2f ns/update)",
                s.key_hash_ns, s.fold_vm_ns);
  result.lines.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "tracing overhead: untraced %.4f Mrec/s, traced %.4f Mrec/s "
                "(%+.2f%%)",
                untraced_mrps, traced_mrps,
                untraced_mrps > 0 ? 100.0 * (untraced_mrps - traced_mrps) /
                                        untraced_mrps
                                  : 0.0);
  result.lines.push_back(buf);

  result.metric("packet.check_ns", s.check_ns, "ns");
  result.metric("compiler.key_hash_ns", s.key_hash_ns, "ns");
  result.metric("compiler.fold_vm_ns", s.fold_vm_ns, "ns");
  result.metric("kvstore.cache_ns", s.cache_ns, "ns");
  result.metric("kvstore.backing_merge_ns", s.backing_merge_ns, "ns");
  result.metric("runtime.residual_ns", residual, "ns");
}

bool tables_equal(Result& result, const std::string& what,
                  const runtime::ResultTable& want,
                  const runtime::ResultTable& got) {
  if (want.row_count() != got.row_count()) {
    result.mismatch(what + ": " + std::to_string(got.row_count()) +
                    " rows, reference has " + std::to_string(want.row_count()));
    return false;
  }
  for (std::size_t r = 0; r < want.row_count(); ++r) {
    const auto& w = want.rows()[r];
    const auto& g = got.rows()[r];
    if (w.size() != g.size()) {
      result.mismatch(what + ": row " + std::to_string(r) + " width differs");
      return false;
    }
    for (std::size_t col = 0; col < w.size(); ++col) {
      if (w[col] != g[col]) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), ": row %zu column %zu is %.17g, reference %.17g",
                      r, col, g[col], w[col]);
        result.mismatch(what + buf);
        return false;
      }
    }
  }
  return true;
}

double span_median(const Tracer& tracer, std::string_view name,
                   double divisor) {
  return median(tracer.durations(name)) / divisor;
}

void add_common_layers(Result& result, const Tracer& tracer,
                       const runtime::EngineMetrics& metrics,
                       std::uint64_t records) {
  double packets = 0, hits = 0, evictions = 0;
  for (const runtime::StoreStats& q : metrics.queries) {
    if (q.attached) continue;
    packets += static_cast<double>(q.cache.packets.load());
    hits += static_cast<double>(q.cache.hits.load());
    evictions += static_cast<double>(q.cache.evictions.load());
  }
  const std::vector<double> batch = tracer.durations("runtime.process_wire_batch");
  const auto batch_us = [&](double q) {
    return batch.empty() ? metrics.batch_ns.quantile_ns(q) / 1e3
                         : quantile(batch, q) / 1e3;
  };
  result.metric("lang.compile_ms", span_median(tracer, "lang.compile", 1e6), "ms");
  result.metric("kvstore.hit_rate", packets > 0 ? hits / packets : 0.0,
                "fraction");
  result.metric("kvstore.evictions_per_krec",
                records > 0 ? evictions * 1e3 / static_cast<double>(records) : 0.0,
                "count");
  result.metric("runtime.batch_us_p50", batch_us(0.5), "us");
  result.metric("runtime.batch_us_p99", batch_us(0.99), "us");
  result.metric("runtime.finish_ms", span_median(tracer, "runtime.finish", 1e6),
                "ms");
  result.metric("runtime.snapshot_us",
                span_median(tracer, "runtime.snapshot", 1e3), "us");
  result.metric("runtime.export_us",
                span_median(tracer, "runtime.export_store", 1e3), "us");
  result.metric("runtime.attach_us",
                span_median(tracer, "runtime.attach_query", 1e3), "us");
  result.metric("runtime.detach_us",
                span_median(tracer, "runtime.detach_query", 1e3), "us");
  result.metric("federation.export_us",
                span_median(tracer, "federation.export", 1e3), "us");
  result.metric("federation.absorb_us",
                span_median(tracer, "federation.absorb", 1e3), "us");
  result.metric("federation.read_us",
                span_median(tracer, "federation.read", 1e3), "us");
}

void export_and_federate(Tracer& tracer, runtime::Engine& engine,
                         std::string_view query, Nanos now,
                         std::uint64_t request) {
  const compiler::CompiledProgram& program = engine.program();
  const compiler::SwitchQueryPlan* plan = nullptr;
  for (const auto& p : program.switch_plans) {
    if (p.name == query) plan = &p;
  }
  if (plan == nullptr) throw std::runtime_error("no switch query " + std::string(query));
  constexpr int kRounds = 5;
  for (int r = 0; r < kRounds; ++r) {
    const kv::StoreExport exported = [&] {
      Scope fed(tracer, "federation.export", request);
      Scope s(tracer, "runtime.export_store", request, fed.id());
      return engine.export_store(query, now);
    }();
    federation::Collector collector(program, *plan);
    {
      Scope s(tracer, "federation.absorb", request);
      collector.add(0, exported);
    }
    Scope s(tracer, "federation.read", request);
    g_sink = collector.materialize().table.row_count();
  }
}

void pass_spread(Result& result, const std::string& name,
                 const std::vector<double>& per_pass) {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s per pass: n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g max=%.6g",
                name.c_str(), per_pass.size(), quantile(per_pass, 0.0),
                quantile(per_pass, 0.25), quantile(per_pass, 0.5),
                quantile(per_pass, 0.75), quantile(per_pass, 1.0));
  result.lines.push_back(buf);
}

void layer_line(Result& result, const std::string& name, double value,
                const std::string& unit, const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-36s %12.4f %-8s %s", name.c_str(), value,
                unit.c_str(), note.c_str());
  result.lines.push_back(buf);
}

void dump_spans(Result& result, const Tracer& tracer, const Options& options) {
  std::filesystem::create_directories(options.trace_dir);
  const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(path);
  result.lines.push_back("spans (" + std::to_string(tracer.spans().size()) +
                         ", traced passes only) written to " + path + ":");
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-32s %10s %14s %14s", "span", "count",
                "total ms", "self ms");
  result.lines.push_back(buf);
  for (const auto& [name, s] : tracer.summarize()) {
    std::snprintf(buf, sizeof(buf), "  %-32s %10llu %14.3f %14.3f", name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ns / 1e6,
                  s.self_ns / 1e6);
    result.lines.push_back(buf);
  }
}

}  // namespace perfbench
