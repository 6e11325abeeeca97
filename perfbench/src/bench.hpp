// Shared plumbing of the perfbench workloads: run options, the result every
// workload returns, summary statistics, the span tracer, and wire-frame
// buffers built from generated records.
//
// A workload runs repeated *passes* for the measured window. Each pass is a
// whole experiment — set up the system, ingest the generated input, read
// the final result — so every per-pass figure is a sample, and the reported
// end-to-end metrics are medians (times) or percentiles over all samples of
// the run. Output checks run on the first pass.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "packet/record.hpp"
#include "packet/wire_view.hpp"
#include "runtime/engine_api.hpp"
#include "runtime/table.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Input-size multiplier; < 1 shrinks every workload (the smoke mode).
  double scale = 1.0;
  /// Where a traced run writes its spans (one JSON object per line).
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  std::vector<std::string> mismatches;  ///< empty = outputs correct
  std::uint64_t attempted = 0;          ///< operations attempted
  std::uint64_t failed = 0;             ///< ERR replies, exceptions, refusals
  std::vector<Metric> metrics;          ///< end-to-end or per-layer
  /// Workload sizes and settings, printed with the machine context.
  std::vector<std::pair<std::string, std::string>> context;
  /// Human-readable ledger lines (traced runs) and notes.
  std::vector<std::string> lines;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
};

// ---- time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---- placement ----------------------------------------------------------------

/// Pin the calling thread to one CPU of the process's allowed set, chosen
/// round-robin by `pass`, so one run samples every CPU it may use instead
/// of whichever one the scheduler happened to start it on (virtual CPUs of
/// one machine can differ in speed by 20%). Passes 2k and 2k+1 share a CPU,
/// so the untraced and traced passes of a traced run see the same CPUs.
/// pass == 0 restores the whole set, which threads created afterwards
/// inherit.
void pin_to_pass_cpu(std::uint64_t pass);

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---- tracing ----------------------------------------------------------------

/// In-memory span log. A span is one call into a perfq module, recorded from
/// the benchmark's side of the boundary: name, start, end, the span that
/// caused it, and the request (pass or client command) it belongs to.
/// Disabled tracers record nothing, so untraced runs pay one branch.
class Tracer {
 public:
  struct Span {
    std::string_view name;  ///< static string: "layer.call"
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = 0;  ///< 1-based index of the parent span, 0 = root
    std::uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its 1-based id (0 when disabled).
  std::uint32_t begin(std::string_view name, std::uint64_t request,
                      std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }
  /// Record an already-timed interval.
  void add(std::string_view name, std::uint64_t start, std::uint64_t end,
           std::uint64_t request, std::uint32_t parent = 0) {
    if (enabled_) spans_.push_back(Span{name, start, end, parent, request});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Take over the spans another (per-thread) tracer recorded.
  void append(const Tracer& other);

  /// Durations (ns) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// Per-name count, total and self time (total minus child coverage).
  struct Summary {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const;

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::uint64_t request,
        std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ---- wire frames --------------------------------------------------------------

/// Generated records serialized once into one contiguous byte arena, with a
/// FrameObservation per record pointing into it (the arena never grows
/// after the views are taken). Frames are kept to a capture snap length:
/// every header the engines read fits, and a prefix covering the headers
/// parses exactly like the whole frame.
struct FrameBuffer {
  static constexpr std::size_t kSnapLen = 128;

  std::vector<std::byte> bytes;
  std::vector<perfq::FrameObservation> frames;

  explicit FrameBuffer(std::span<const perfq::PacketRecord> records);
  FrameBuffer(const FrameBuffer&) = delete;
  FrameBuffer& operator=(const FrameBuffer&) = delete;
};

// ---- per-layer ledger ----------------------------------------------------------

/// Stage costs measured in isolation on a workload's own inputs: every
/// on-switch GROUPBY of `program_source` is taken apart into the steps the
/// engine runs per record and each step is timed alone over the frames.
struct StageCosts {
  double check_ns = 0;         ///< wire::check_frame, per frame
  double prefilter_ns = 0;     ///< WHERE evaluation, per frame, all queries
  double key_extract_ns = 0;   ///< compiler::extract_key, per frame, all queries
  double key_hash_ns = 0;      ///< KeyRouter::raw_hash, per frame, all queries
  double cache_ns = 0;         ///< kv::Cache::process, per frame, all queries
  double backing_merge_ns = 0; ///< BackingStore::absorb, per absorbed eviction
  double merge_per_frame_ns = 0;  ///< absorb cost spread over the frames
  double fold_vm_ns = 0;       ///< compiled EWMA kernel update, per update
  std::uint64_t evictions = 0;

  [[nodiscard]] double engine_sum_ns() const {
    return prefilter_ns + key_extract_ns + cache_ns + merge_per_frame_ns;
  }
};

/// Measure StageCosts over `frames` for the program's switch queries, using
/// the same cache geometry and hash seed as the engine under test (taking
/// the best of `reps` repetitions per stage, so one preemption does not
/// inflate a stage).
[[nodiscard]] StageCosts measure_stages(
    const std::string& program_source,
    const std::map<std::string, double>& params,
    std::span<const perfq::FrameObservation> frames, std::size_t cache_slots,
    std::size_t cache_ways, int reps = 3);

/// Append the stage table and residual to `result` (lines + per-layer
/// metrics). `e2e_ns_per_record` is the untraced end-to-end ingest cost;
/// `outside_ns` is measured per-record work outside the engine stages (the
/// simulator's event loop on the fabric). With `wire_path` false the
/// records never pass the frame check, so it stays out of the sum.
void report_ledger(Result& result, const StageCosts& stages,
                   double e2e_ns_per_record, double traced_mrps,
                   double untraced_mrps, double outside_ns = 0.0,
                   bool wire_path = true);

/// Per-layer metrics every workload reports from its spans and the engine's
/// metrics() counters: compile, batch, finish, snapshot, export, attach and
/// detach times, cache hit rate and evictions. `records` is the number of
/// records one pass ingests (the counters cover the last pass). Batch times
/// come from runtime.process_wire_batch spans, or from the engine's own
/// batch histogram where the workload does not call the engine directly.
void add_common_layers(Result& result, const Tracer& tracer,
                       const perfq::runtime::EngineMetrics& metrics,
                       std::uint64_t records);

/// Traced passes only: export one GROUPBY's store from a single engine and
/// federate it as the only source (runtime.export_store, federation.absorb,
/// federation.read spans), so the export and federation layers are costed
/// on every workload, not just the fabric.
void export_and_federate(Tracer& tracer, perfq::runtime::Engine& engine,
                         std::string_view query, perfq::Nanos now,
                         std::uint64_t request);

/// Print the quartiles of a per-pass series (the run-internal spread).
void pass_spread(Result& result, const std::string& name,
                 const std::vector<double>& per_pass);

/// A layer metric only this workload exercises: printed in the ledger, not
/// part of the per-layer metric set every workload reports.
void layer_line(Result& result, const std::string& name, double value,
                const std::string& unit, const std::string& note);

/// Median of a span's durations in the given unit divisor (1e3 = us).
[[nodiscard]] double span_median(const Tracer& tracer, std::string_view name,
                                 double divisor);

/// Write the traced run's spans to options.trace_dir and print the per-span
/// summary (count, total, self time) into the ledger.
void dump_spans(Result& result, const Tracer& tracer, const Options& options);

/// The EWMA latency fold of Fig. 2, shared by the workload programs.
inline constexpr const char* kEwmaFold = R"(def ewma (lat_est, (tin, tout)):
    lat_est = (1 - alpha) * lat_est + alpha * (tout - tin)
)";

/// The TCP non-monotonic fold of Fig. 2: not linear in state, so a key
/// evicted and seen again keeps two value segments and is invalid — the
/// Fig. 6 accuracy metric. (The out-of-sequence fold of Fig. 2 merges
/// exactly through its boundary history, so every key stays valid.)
inline constexpr const char* kNonMonotonicFold =
    R"(def nonmt ((maxseq, nm_count), (tcpseq)):
    if maxseq > tcpseq: nm_count = nm_count + 1
    maxseq = max(maxseq, tcpseq)
)";

inline const std::map<std::string, double> kParams{{"alpha", 0.125}};

/// Compare two result tables cell for cell (exact double equality); record
/// the first difference under `what`. Returns true when identical.
bool tables_equal(Result& result, const std::string& what,
                  const perfq::runtime::ResultTable& want,
                  const perfq::runtime::ResultTable& got);

// ---- workloads ------------------------------------------------------------------

Result run_caida_serial(const Options& options);
Result run_service_sharded(const Options& options);
Result run_fabric_federated(const Options& options);

}  // namespace perfbench
