// Shared declarations of the time-to-solution benchmark (see README.md).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;  ///< measuring time after set-up and warm-up
  bool trace = false;   ///< record spans and report per-layer metrics
  bool tiny = false;    ///< small meshes and few iterations (tests)
};

/// What a workload hands back: per-iteration samples (reduced to medians
/// by the caller unless the workload already set a metric), final metric
/// values, solve accounting and every violated correctness check.
struct Outcome {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> metrics;
  long attempted = 0;  ///< solves attempted in timed iterations
  long converged = 0;  ///< of those, status converged
  long failed = 0;     ///< of those, status failed, rejected or threw
  std::vector<std::string> errors;
  SpanLog spans;
};

/// Families the gpusim kernels are grouped into for kernel.<family>.*.
inline constexpr const char* kKernelFamilies[] = {
    "gemm", "trsm", "panel", "laswp", "front_asm", "pivot_diag", "convert",
    "solve"};

/// Time of a fixed host loop that no library change can move; sampled
/// before every timed iteration to expose host drift.
double host_ref_seconds();

/// Median of a sample; NaN when it is empty.
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of a sample; NaN when empty.
double quantile(std::vector<double> v, double q);

void run_maxwell(const Config& cfg, Outcome& out);  // maxwell_fat/_tube
void run_service_sweep(const Config& cfg, Outcome& out);

}  // namespace perfbench
