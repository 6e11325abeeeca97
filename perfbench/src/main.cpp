// perfbench: run one workload of the perfq end-to-end benchmark.
//
//   perfbench --workload <caida_serial|service_sharded|fabric_federated>
//             --seed <n> --seconds <s> --trace <0|1> [--scale <f>]
//             [--trace-dir <dir>]
//
// Prints the machine context and workload sizes as "# " lines, any output
// mismatch as "# MISMATCH" lines, the per-layer ledger for --trace 1, and as
// the last line one JSON object:
//   {"correct": ..., "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/resource.h>
#include <sys/sysinfo.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      o.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0) || !(o.scale > 0) || o.scale > 1) {
    usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  return o;
}

void print_context(const Options& o, const Result& r) {
  const char* build = PERFBENCH_BUILD_TYPE;
  struct sysinfo si {};
  sysinfo(&si);
  std::printf("# context: workload=%s seed=%llu seconds=%g scale=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.scale, o.trace ? 1 : 0);
  std::printf(
      "# context: nproc=%ld l1d=%ldKiB l2=%ldKiB l3=%ldKiB compiler=\"%s\" "
      "build=%s loadavg=%.2f,%.2f,%.2f\n",
      sysconf(_SC_NPROCESSORS_ONLN), sysconf(_SC_LEVEL1_DCACHE_SIZE) / 1024,
      sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024, sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024,
      __VERSION__, build, si.loads[0] / 65536.0, si.loads[1] / 65536.0,
      si.loads[2] / 65536.0);
  if (std::string(build) != "Release") {
    std::printf("# WARNING: perfq built as '%s', not Release: figures are not "
                "comparable\n", build);
  }
  std::printf("# context:");
  for (const auto& [k, v] : r.context) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
}

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.mismatches.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : -1.0,
                m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result result;
  try {
    if (options.workload == "caida_serial") {
      result = perfbench::run_caida_serial(options);
    } else if (options.workload == "service_sharded") {
      result = perfbench::run_service_sharded(options);
    } else if (options.workload == "fabric_federated") {
      result = perfbench::run_fabric_federated(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!options.trace) {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    result.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB");
  }
  print_context(options, result);
  for (const std::string& line : result.lines) std::printf("# %s\n", line.c_str());
  if (!options.trace) {
    for (const auto& m : result.metrics) {
      std::printf("# %-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& m : result.mismatches) std::printf("# MISMATCH %s\n", m.c_str());
  std::printf("# error_frac %.6f (%llu of %llu operations failed)\n",
              result.attempted == 0
                  ? 0.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  print_json(result);
  return 0;
}
