// Solver-service demo: drive a stream of solve requests from several
// tenants through SolverService and watch the pattern-keyed cache,
// batched many-RHS solves, and admission control at work.
//
//   build/examples/service_demo [--requests N] [--flush-window W]
//                               [--patterns P] [--budget-mb M]
//                               [--max-cached K] [--device NAME]
//                               [--trace out.json]
//
// --trace (or the IRRLU_TRACE environment variable) attaches a recorder
// and writes the Chrome trace plus the v3 summary JSON — including the
// critical-path analysis and the service's per-phase/per-tenant latency
// histograms — on exit; the per-tenant table then gains p50/p90/p99
// latency columns from the same registry.
//
// The replay stream models the paper's motivating applications: a few
// distinct sparsity patterns (one per tenant — an electromagnetics mesh, a
// power grid, a circuit), revisited over and over with drifting values
// (refactor) or identical values (factor reuse), plus occasional
// right-hand-side bursts that exercise the batched many-RHS path.
// Prints per-request provenance and the per-tenant accounting table.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "service/solver_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/solver.hpp"
#include "trace/histogram.hpp"
#include "trace/session.hpp"

using namespace irrlu;
using service::SolveRequest;
using service::SolveResponse;

namespace {

std::vector<double> random_rhs(int n, Rng& rng) {
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1, 1);
  return b;
}

gpusim::DeviceModel model_by_name(const std::string& name) {
  if (name == "mi100") return gpusim::DeviceModel::mi100();
  if (name == "max1550") return gpusim::DeviceModel::max1550();
  if (name == "xeon6140x2") return gpusim::DeviceModel::xeon6140x2();
  if (name == "test_tiny") return gpusim::DeviceModel::test_tiny();
  return gpusim::DeviceModel::a100();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int requests = args.get_int("requests", 32);
  const int window = args.get_int("flush-window", 8);
  const int npat = args.get_int("patterns", 3);
  const int budget_mb = args.get_int("budget-mb", 0);
  const int max_cached = args.get_int("max-cached", 8);
  const std::string device = args.get_string("device", "a100");

  gpusim::Device dev(model_by_name(device));
  trace::TraceSession trace_session(dev, args.get_string("trace", ""));
  service::ServiceOptions opts;
  opts.solver.nd.leaf_size = 16;
  opts.max_cached_patterns = static_cast<std::size_t>(max_cached);
  opts.memory_budget_bytes =
      static_cast<std::size_t>(budget_mb) * std::size_t{1} << 20;
  service::SolverService svc(dev, opts);

  // One sparsity pattern per tenant; same pattern, drifting values.
  struct Workload {
    std::string tenant;
    sparse::CsrMatrix a;
  };
  std::vector<Workload> loads;
  const std::vector<std::string> names = {"em", "power", "circuit", "mems",
                                          "thermal", "acoustic"};
  for (int p = 0; p < npat; ++p)
    loads.push_back({names[static_cast<std::size_t>(p) % names.size()] +
                         (p >= static_cast<int>(names.size())
                              ? std::to_string(p)
                              : ""),
                     sparse::laplacian2d(16 + 2 * p, 16 + p)});

  std::printf("solver service demo: %d requests, %d patterns, flush window "
              "%d, budget %s\n\n",
              requests, npat, window,
              budget_mb > 0 ? (std::to_string(budget_mb) + " MiB").c_str()
                            : "unlimited");
  std::printf("%-4s %-9s %-7s %-10s %-9s %-6s %-10s %s\n", "req", "tenant",
              "n", "admission", "symbolic", "factor", "batch", "status");

  Rng rng(11);
  int submitted = 0, base = 0;
  auto drain = [&] {
    const auto out = svc.flush();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const SolveResponse& r = out[i];
      std::printf("%-4d %-9s %-7d %-10s %-9s %-6s %-10d %s\n",
                  base + static_cast<int>(i),
                  loads[(static_cast<std::size_t>(base) + i) % loads.size()]
                      .tenant.c_str(),
                  static_cast<int>(r.report.x.size()),
                  service::to_string(r.admission),
                  r.symbolic_cache_hit ? "hit" : "miss",
                  r.factor_reused ? "reuse" : "build", r.batch_width,
                  sparse::to_string(r.report.status));
    }
    base += static_cast<int>(out.size());
  };

  for (int q = 0; q < requests; ++q) {
    Workload& wl = loads[static_cast<std::size_t>(q) % loads.size()];
    // Values drift periodically (a modulus coprime to the pattern cycle,
    // so every tenant sees refactors) — otherwise the resident factor
    // serves the request untouched.
    if (q >= npat && q % 4 == 0)
      for (auto& v : wl.a.val()) v *= 1.0 + 0.01 * rng.uniform(-1, 1);
    SolveRequest req;
    req.tenant = wl.tenant;
    req.a = wl.a;
    req.b = random_rhs(wl.a.rows(), rng);
    svc.submit(std::move(req));
    ++submitted;
    if (static_cast<int>(svc.pending()) >= window || q + 1 == requests)
      drain();
  }

  const auto& st = svc.stats();
  std::printf("\nstream totals: %ld requests in %d submissions\n",
              st.requests, submitted);
  std::printf("  symbolic: %ld analyze runs, %ld hits (rate %.3f)\n",
              st.analyze_runs, st.symbolic_hits, st.symbolic_hit_rate());
  std::printf("  numeric:  %ld factors, %ld refactors, %ld reuses\n",
              st.factors, st.refactors, st.factor_reuses);
  std::printf("  batching: %ld batched solves for %ld RHS "
              "(%.1f RHS/solve)\n",
              st.batches, st.batched_rhs,
              st.batches > 0 ? static_cast<double>(st.batched_rhs) /
                                   static_cast<double>(st.batches)
                             : 0.0);
  std::printf("  cache:    %zu patterns resident (%.2f MiB), %ld evictions, "
              "%ld rejected\n",
              svc.cached_patterns(),
              static_cast<double>(svc.resident_factor_bytes()) / (1 << 20),
              st.evictions, st.rejected);

  std::printf("\nper-tenant:\n");
  const bool traced = trace_session.enabled();
  std::printf(traced ? "  %-10s %9s %14s %14s %9s %10s %10s %10s\n"
                     : "  %-10s %9s %14s %14s %9s\n",
              "tenant", "requests", "symbolic hits", "factor reuses",
              "rejected", "p50 ms", "p90 ms", "p99 ms");
  for (const auto& [tenant, t] : st.tenants) {
    std::printf("  %-10s %9ld %14ld %14ld %9ld", tenant.c_str(), t.requests,
                t.symbolic_hits, t.factor_reuses, t.rejected);
    if (traced) {
      // Simulated-latency percentiles from the tracer's histogram
      // registry (the same data the summary JSON's "histograms" carries).
      const trace::Histogram& h = trace_session.tracer()->histogram(
          "service.tenant." + tenant + ".latency_s");
      std::printf(" %10.3f %10.3f %10.3f", h.percentile(0.50) * 1e3,
                  h.percentile(0.90) * 1e3, h.percentile(0.99) * 1e3);
    }
    std::printf("\n");
  }

  std::printf("\nsimulated device time: %.6f s\n", dev.synchronize_all());
  if (traced) {
    trace_session.write();
    std::printf("trace written to %s (summary: %s, report: %s)\n",
                trace_session.path().c_str(),
                trace_session.summary_path().c_str(),
                trace_session.report_path().c_str());
  }
  return 0;
}
