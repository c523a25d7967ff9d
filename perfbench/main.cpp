// Time-to-solution benchmark driver: runs one workload and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics (the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1). The line before it records the run's
// provenance. Exits 1 when any correctness or determinism check fails.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--spans FILE]
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name, unit;
};

std::vector<MetricDef> end_to_end_metrics() {
  return {{"setup_s", "s"},
          {"tts_wall_s", "s"},
          {"tts_sim_s", "sim_s"},
          {"resolve_wall_s", "s"},
          {"resolve_sim_s", "sim_s"},
          {"req_per_s", "1/s"},
          {"req_latency_p50_s", "s"},
          {"req_latency_p90_s", "s"},
          {"sim_per_req_s", "sim_s"},
          {"converged_frac", "ratio"},
          {"peak_rss_mb", "MB"},
          {"peak_device_mb", "MB"}};
}

std::vector<MetricDef> per_layer_metrics() {
  std::vector<MetricDef> m = {
      {"fem.assemble_s", "s"},
      {"ordering.mc64_s", "s"},
      {"ordering.graph_s", "s"},
      {"ordering.nd_s", "s"},
      {"ordering.sep_nodes", "count"},
      {"symbolic.build_s", "s"},
      {"symbolic.fronts", "count"},
      {"symbolic.levels", "count"},
      {"symbolic.max_front", "count"},
      {"symbolic.factor_gflop", "GFLOP"},
      {"symbolic.predicted_peak_mb", "MB"},
      {"analyze.wall_s", "s"},
      {"analyze.other_s", "s"},
      {"factor.wall_s", "s"},
      {"factor.sim_s", "sim_s"},
      {"factor.launches", "count"},
      {"factor.host_us_per_launch", "us"},
      {"factor.sim_gflops", "GFLOP/sim_s"},
      {"factor.boosted_pivots", "count"},
      {"factor.pivot_growth", "ratio"},
      {"refactor.wall_s", "s"},
      {"refactor.sim_s", "sim_s"},
      {"refactor.over_factor", "ratio"},
      {"gpusim.host_allocs", "count"},
      {"gpusim.pool_hit_rate", "ratio"}};
  for (const char* f : kKernelFamilies) {
    const std::string p = std::string("kernel.") + f;
    m.push_back({p + ".sim_s", "sim_s"});
    m.push_back({p + ".flops", "flop"});
    m.push_back({p + ".bytes", "B"});
  }
  const std::vector<MetricDef> rest = {
      {"solve.wall_s", "s"},
      {"solve.refine_steps", "count"},
      {"solve.berr", "ratio"},
      {"service.flush_s", "s"},
      {"service.symbolic_hit_rate", "ratio"},
      {"service.refactors", "count"},
      {"service.factor_reuse_frac", "ratio"},
      {"service.rhs_per_batch", "count"},
      {"service.fp64_fallbacks", "count"},
      {"service.evictions", "count"},
      {"service.rejected", "count"},
      {"host.ref_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"trace.tts_coverage", "ratio"}};
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "maxwell_fat|maxwell_tube|service_sweep --seed N --seconds S "
               "--trace 0|1 [--tiny] [--spans FILE]\n",
               msg);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

std::string number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

volatile double g_sink = 0;

}  // namespace

double host_ref_seconds() {
  // A dependent multiply-add chain over a 256 KiB array: core clock and L2
  // bandwidth, nothing the library's code can influence.
  static std::vector<double> buf(std::size_t{1} << 15, 1.0);
  const auto t0 = std::chrono::steady_clock::now();
  double acc = 0;
  for (int rep = 0; rep < 64; ++rep)
    for (double& x : buf) {
      x = x * 0.5 + acc;
      acc += x * 1e-9;
    }
  g_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string spans_path;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = val;
    } else if (a == "--seed") {
      cfg.seed = static_cast<unsigned>(std::strtoul(val.c_str(), &end, 10));
      have_seed = end != val.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && cfg.seconds >= 0;
    } else if (a == "--trace") {
      cfg.trace = val == "1";
      have_trace = val == "0" || val == "1";
    } else if (a == "--spans") {
      spans_path = val;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace need valid values");

  Outcome out;
  if (cfg.workload == "maxwell_fat" || cfg.workload == "maxwell_tube")
    run_maxwell(cfg, out);
  else if (cfg.workload == "service_sweep")
    run_service_sweep(cfg, out);
  else
    return usage(("unknown workload '" + cfg.workload + "'").c_str());

  for (const auto& [k, v] : out.samples)
    if (!out.metrics.count(k) && !v.empty()) out.metrics[k] = median(v);
  out.metrics["converged_frac"] =
      out.attempted > 0 ? static_cast<double>(out.converged) /
                              static_cast<double>(out.attempted)
                        : 0.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.metrics["peak_rss_mb"] =
      static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB

  if (!spans_path.empty()) {
    std::ofstream f(spans_path);
    f << out.spans.to_json() << "\n";
    if (!f) out.errors.push_back("cannot write " + spans_path);
  }

  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  const std::vector<double>& ref = out.samples["host.ref_s"];
  std::printf(
      "{\"provenance\": {\"host\": \"%s\", \"nproc\": %u, \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"irrlu_native_kernels\": %s, "
      "\"workload\": \"%s\", \"seed\": %u, \"seconds\": %s, \"trace\": %d, "
      "\"tiny\": %s, \"host_ref_s\": %s, \"host_ref_samples\": %zu}}\n",
      json_escape(host).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_CXX, PERFBENCH_BUILD_TYPE,
      PERFBENCH_NATIVE_KERNELS ? "true" : "false", cfg.workload.c_str(),
      cfg.seed, number(cfg.seconds).c_str(), cfg.trace ? 1 : 0,
      cfg.tiny ? "true" : "false",
      number(median(ref)).c_str(), ref.size());

  std::string metrics;
  for (const MetricDef& m :
       cfg.trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = out.metrics.find(m.name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) {
      out.errors.push_back("metric " + m.name + " not measured");
      continue;
    }
    metrics += (metrics.empty() ? "\"" : ", \"") + m.name +
               "\": {\"value\": " + number(it->second) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": "
      "{%s}}\n",
      out.errors.empty() ? "true" : "false", out.attempted, out.failed,
      metrics.c_str());
  return out.errors.empty() ? 0 : 1;
}
