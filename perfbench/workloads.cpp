// The benchmark's three workloads (README.md gives the reason for each).
// Every call into a library layer is timed here, from outside the
// library: spans when tracing, plain clock reads otherwise.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_model.hpp"
#include "ordering/graph.hpp"
#include "ordering/mc64.hpp"
#include "ordering/nested_dissection.hpp"
#include "service/solver_service.hpp"
#include "sparse/solver.hpp"
#include "sparse/symbolic.hpp"

namespace perfbench {

using namespace irrlu;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Runs f inside a span named `name` when tracing, and returns its wall
/// seconds either way.
template <typename F>
double timed(SpanLog* log, const char* name, F&& f) {
  if (log != nullptr) {
    const int id = log->open(name);
    f();
    return log->close(id);
  }
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

constexpr double kOmega = 16.0;          // the paper's wavenumber
constexpr double kOmegaResolve = 16.05;  // neighbouring system re-solved
constexpr double kMB = 1e6;
constexpr std::size_t kSetups = 5;  // set-up repetitions per run
constexpr int kMinIterations = 3;  // timed iterations, whatever --seconds says

sparse::SolverOptions solver_options() {
  sparse::SolverOptions o;
  o.nd.leaf_size = 16;  // as every driver in bench/ uses
  return o;
}

sparse::CsrMatrix maxwell_matrix(int ntheta, int ncross, double omega,
                                 std::vector<double>* b = nullptr) {
  fem::EdgeSystem sys = fem::assemble_maxwell(
      fem::HexMesh::torus(ntheta, ncross, ncross), omega,
      fem::paper_maxwell_load(omega, omega / 1.05));
  if (b != nullptr) *b = std::move(sys.b);
  return std::move(sys.a);
}

/// Componentwise backward error max_i |b - Ax|_i / (|A||x| + |b|)_i,
/// computed here rather than taken from the solver's report.
double backward_error(const sparse::CsrMatrix& a, const std::vector<double>& x,
                      const std::vector<double>& b) {
  if (x.size() != b.size()) return INFINITY;
  double worst = 0;
  for (int i = 0; i < a.rows(); ++i) {
    double r = b[static_cast<std::size_t>(i)];
    double d = std::fabs(r);
    for (int k = a.ptr()[static_cast<std::size_t>(i)];
         k < a.ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const double ax = a.val()[static_cast<std::size_t>(k)] *
                        x[static_cast<std::size_t>(
                            a.ind()[static_cast<std::size_t>(k)])];
      r -= ax;
      d += std::fabs(ax);
    }
    const double e = d > 0 ? std::fabs(r) / d : std::fabs(r);
    if (!(e <= worst)) worst = e;  // also propagates NaN
  }
  return worst;
}

/// Classifies one solve into the outcome's counts and checks its report.
void account(const sparse::SolveReport& r, const sparse::CsrMatrix& a,
             const std::vector<double>& b, Outcome& out) {
  ++out.attempted;
  if (!std::isfinite(r.berr))
    out.errors.push_back("non-finite berr (status " +
                         std::string(sparse::to_string(r.status)) + ")");
  if (r.status == sparse::SolveStatus::kFailed) {
    ++out.failed;
    return;
  }
  const double own = backward_error(a, r.x, b);
  if (!std::isfinite(own)) {
    out.errors.push_back("solution with non-finite entries");
  } else if (r.status == sparse::SolveStatus::kConverged) {
    ++out.converged;
    if (own > 1e-12)
      out.errors.push_back("converged solve has backward error " +
                           std::to_string(own));
  }
}

// ---- kernel families ----------------------------------------------------

/// Family of a gpusim kernel name; nullptr when the name is unknown, which
/// the caller reports (every simulated second must land in a family).
const char* kernel_family(const std::string& k) {
  auto has = [&](const char* s) { return k.find(s) != std::string::npos; };
  if (has("laswp")) return "laswp";
  if (has("trsm")) return "trsm";
  if (has("gemm") || has("schur")) return "gemm";
  if (has("getf2") || has("iamax") || has("scal") || has("swap") ||
      has("_ger") || has("lu_setup") || has("getrf") || has("geqr"))
    return "panel";
  if (has("solve") || has("mf_many")) return "solve";
  if (has("assemble") || has("extend_add") || has("extract") ||
      has("ilv_pack") || has("ilv_unpack"))
    return "front_asm";
  if (has("norm") || has("growth") || has("pivot")) return "pivot_diag";
  if (has("promote") || has("demote") || has("convert")) return "convert";
  return nullptr;
}

/// Adds kernel.<family>.{sim_s,flops,bytes} of a device's profile to
/// `det` and checks that the families sum to the profile total.
void kernel_metrics(const gpusim::Device& dev,
                    std::map<std::string, double>& det, Outcome& out) {
  for (const char* f : kKernelFamilies)
    for (const char* m : {".sim_s", ".flops", ".bytes"})
      det[std::string("kernel.") + f + m] = 0;
  double total = 0, grouped = 0;
  for (const auto& [name, st] : dev.profile()) {
    total += st.sim_seconds;
    const char* fam = kernel_family(name);
    if (fam == nullptr) {
      out.errors.push_back("kernel " + name + " has no family");
      continue;
    }
    const std::string p = std::string("kernel.") + fam;
    det[p + ".sim_s"] += st.sim_seconds;
    det[p + ".flops"] += st.flops;
    det[p + ".bytes"] += st.bytes;
  }
  for (const char* f : kKernelFamilies)
    grouped += det[std::string("kernel.") + f + ".sim_s"];
  if (std::fabs(grouped - total) > 1e-12 * std::max(1.0, total))
    out.errors.push_back("kernel families sum to " + std::to_string(grouped) +
                         " s, profile total " + std::to_string(total) + " s");
}

void device_metrics(const gpusim::Device& dev,
                    std::map<std::string, double>& v) {
  const auto& ps = dev.pool_stats();
  v["gpusim.host_allocs"] = static_cast<double>(dev.host_alloc_count());
  v["gpusim.pool_hit_rate"] =
      ratio(static_cast<double>(ps.hits),
            static_cast<double>(ps.hits + ps.misses));
}

void symbolic_metrics(const sparse::SymbolicAnalysis& sym,
                      std::map<std::string, double>& v) {
  v["symbolic.fronts"] += static_cast<double>(sym.fronts.size());
  v["symbolic.levels"] =
      std::max(v["symbolic.levels"], static_cast<double>(sym.levels.size()));
  v["symbolic.max_front"] =
      std::max(v["symbolic.max_front"], static_cast<double>(sym.max_front_dim));
  v["symbolic.factor_gflop"] += sym.factor_flops / 1e9;
  v["symbolic.predicted_peak_mb"] = std::max(
      v["symbolic.predicted_peak_mb"],
      static_cast<double>(
          sym.predicted_peak_bytes(sparse::MemoryMode::kAllUpfront)) /
          kMB);
}

/// Repeats SparseDirectSolver::analyze's inner steps on `a` under spans of
/// their own (the facade exposes no inner timing) and adds their seconds
/// and the separator size to `v`. Returns the seconds they took together.
double analyze_parts(const sparse::CsrMatrix& a,
                     const sparse::SolverOptions& opts, SpanLog& log,
                     std::map<std::string, double>& v) {
  const int n = a.rows();
  const int parts = log.open("analyze.parts");
  ordering::Mc64Result m;
  const double t_mc64 = timed(&log, "ordering.mc64", [&] {
    m = ordering::mc64_scaling(n, a.ptr().data(), a.ind().data(),
                               a.val().data());
  });
  const sparse::CsrMatrix aq =
      m.structurally_nonsingular
          ? a.scaled(m.dr, m.dc).permute_columns(m.col_of_row)
          : a;
  ordering::Graph g;
  const double t_graph = timed(&log, "ordering.graph", [&] {
    g = ordering::Graph::from_pattern(n, aq.ptr().data(), aq.ind().data());
  });
  ordering::Ordering ord;
  const double t_nd = timed(&log, "ordering.nd", [&] {
    ord = ordering::nested_dissection(g, opts.nd);
  });
  const sparse::CsrMatrix ap = aq.permute_symmetric(ord.perm);
  sparse::SymbolicAnalysis sym;
  const double t_sym = timed(&log, "symbolic.build", [&] {
    sym = sparse::SymbolicAnalysis::build(ap, ord);
  });
  log.close(parts);
  v["ordering.mc64_s"] += t_mc64;
  v["ordering.graph_s"] += t_graph;
  v["ordering.nd_s"] += t_nd;
  v["symbolic.build_s"] += t_sym;
  for (const ordering::SepTreeNode& t : ord.tree)
    if (t.left >= 0) v["ordering.sep_nodes"] += t.end - t.begin;
  return t_mc64 + t_graph + t_nd + t_sym;
}

/// Compares an iteration's deterministic values with the first
/// iteration's, then files every value as a sample.
void file_iteration(const std::map<std::string, double>& det,
                    const std::map<std::string, double>& plain,
                    std::optional<std::map<std::string, double>>& first,
                    Outcome& out) {
  if (!first) {
    first = det;
  } else {
    for (const auto& [k, x] : det) {
      const auto it = first->find(k);
      if (it == first->end() || it->second != x) {
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s differs between iterations: %.17g vs %.17g",
                      k.c_str(), it == first->end() ? NAN : it->second, x);
        out.errors.push_back(buf);
      }
    }
  }
  for (const auto& [k, x] : det) out.samples[k].push_back(x);
  for (const auto& [k, x] : plain) out.samples[k].push_back(x);
}

/// Per-layer metrics a workload cannot observe from outside the library
/// read 0; README.md lists them per workload.
void unobserved(Outcome& out, std::initializer_list<const char*> names) {
  for (const char* n : names) out.metrics[n] = 0;
}

/// Drives a run: set-up, one untimed warm-up iteration, then timed
/// iterations: at least kMinIterations, and more while the next one, if as
/// long as the last, still ends within `seconds` of measuring. The set-up
/// is repeated kSetups times, spread evenly over the run so that one busy
/// moment of the host does not move them all, and not counted as
/// measuring; setup_s is their median. In a traced run even iterations
/// record spans and odd ones do not, so the two can be compared for the
/// tracing overhead.
template <typename Setup, typename Iter>
void iterate(const Config& cfg, Outcome& out, Setup&& setup, Iter&& iter) {
  std::vector<double> setups = {timed(nullptr, "", setup)};
  iter(false, false);
  const auto t0 = Clock::now();
  double in_setup = 0, last = 0;
  const auto measured = [&] { return since(t0) - in_setup; };
  for (int i = 0; i < kMinIterations || measured() + last <= cfg.seconds;
       ++i) {
    const double begin = measured();
    iter(true, cfg.trace && i % 2 == 0);
    last = measured() - begin;
    const double due =
        cfg.seconds * static_cast<double>(setups.size()) / kSetups;
    if (setups.size() < kSetups && measured() >= due) {
      setups.push_back(timed(nullptr, "", setup));
      in_setup += setups.back();
    }
  }
  while (setups.size() < kSetups) setups.push_back(timed(nullptr, "", setup));
  out.metrics["setup_s"] = median(setups);
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- maxwell_fat / maxwell_tube -------------------------------------------

void run_maxwell(const Config& cfg, Outcome& out) {
  const bool fat = cfg.workload == "maxwell_fat";
  const int ntheta = fat ? (cfg.tiny ? 8 : 24) : (cfg.tiny ? 64 : 3072);
  const int ncross = fat ? (cfg.tiny ? 4 : 12) : 2;
  const sparse::SolverOptions opts = solver_options();

  // Set-up: the neighbouring-frequency system the re-solve refactors with.
  sparse::CsrMatrix a2;
  std::vector<double> b2;
  const auto setup = [&] {
    a2 = maxwell_matrix(ntheta, ncross, kOmegaResolve, &b2);
  };

  std::optional<std::map<std::string, double>> first;
  std::vector<double> traced_tts, plain_tts;
  iterate(cfg, out, setup, [&](bool timed_iter, bool traced) {
    SpanLog* log = traced ? &out.spans : nullptr;
    std::map<std::string, double> det, v;
    v["host.ref_s"] = host_ref_seconds();
    gpusim::Device dev(gpusim::DeviceModel::a100());
    sparse::SparseDirectSolver solver(opts);
    sparse::CsrMatrix a;
    std::vector<double> b;
    sparse::SolveReport r1, r2;
    double t_asm = 0, t_an = 0, t_fac = 0, t_sol = 0, t_ref = 0;
    double tts = 0, resolve = 0, tts_sim = 0;
    long launches = 0;
    try {
      const auto t0 = Clock::now();
      const int tts_span = log != nullptr ? log->open("tts") : -1;
      t_asm = timed(log, "fem.assemble",
                    [&] { a = maxwell_matrix(ntheta, ncross, kOmega, &b); });
      t_an = timed(log, "analyze", [&] { solver.analyze(a); });
      t_fac = timed(log, "factor", [&] { solver.factor(dev); });
      t_sol = timed(log, "solve", [&] { r1 = solver.solve_report(b); });
      if (log != nullptr) log->close(tts_span);
      tts = since(t0);
      tts_sim = dev.synchronize_all();
      const sparse::MultifrontalFactor& f = solver.numeric();
      launches = f.launch_count();
      det["factor.sim_s"] = f.factor_seconds();
      v["factor.launches"] = static_cast<double>(launches);
      v["factor.boosted_pivots"] =
          static_cast<double>(f.report().boosted_pivots);
      v["factor.pivot_growth"] = f.report().pivot_growth;
      v["factor.sim_gflops"] =
          solver.symbolic().factor_flops / f.factor_seconds() / 1e9;

      const auto t1 = Clock::now();
      const int re_span = log != nullptr ? log->open("resolve") : -1;
      t_ref = timed(log, "refactor", [&] { solver.refactor(dev, a2); });
      timed(log, "resolve.solve", [&] { r2 = solver.solve_report(b2); });
      if (log != nullptr) log->close(re_span);
      resolve = since(t1);
      det["refactor.sim_s"] = solver.numeric().factor_seconds();
      det["resolve_sim_s"] = dev.synchronize_all() - tts_sim;
    } catch (const std::exception& e) {
      if (timed_iter) {
        out.attempted += 2;
        out.failed += 2;
      }
      std::fprintf(stderr, "iteration failed: %s\n", e.what());
      return;
    }
    if (!timed_iter) return;
    account(r1, a, b, out);
    account(r2, a2, b2, out);
    det["tts_sim_s"] = tts_sim;
    det["sim_per_req_s"] = tts_sim + det["resolve_sim_s"];
    det["peak_device_mb"] = static_cast<double>(dev.peak_bytes()) / kMB;
    kernel_metrics(dev, det, out);
    device_metrics(dev, v);
    symbolic_metrics(solver.symbolic(), v);
    v["solve.refine_steps"] = (r1.refine_steps + r2.refine_steps) / 2.0;
    v["solve.berr"] = std::max(r1.berr, r2.berr);
    v["tts_wall_s"] = tts;
    v["resolve_wall_s"] = resolve;
    v["req_latency_s"] = tts + resolve;
    (traced ? traced_tts : plain_tts).push_back(tts);
    if (traced) {
      v["fem.assemble_s"] = t_asm;
      v["analyze.wall_s"] = t_an;
      v["factor.wall_s"] = t_fac;
      v["factor.host_us_per_launch"] =
          t_fac / static_cast<double>(launches) * 1e6;
      v["solve.wall_s"] = t_sol;
      v["refactor.wall_s"] = t_ref;
      v["refactor.over_factor"] = t_ref / t_fac;
      v["trace.tts_coverage"] = (t_asm + t_an + t_fac + t_sol) / tts;
      v["analyze.other_s"] = t_an - analyze_parts(a, opts, *log, v);
    }
    file_iteration(det, v, first, out);
  });

  const std::vector<double>& lat = out.samples["req_latency_s"];
  double total = 0;
  for (double x : lat) total += x;
  out.metrics["req_per_s"] = static_cast<double>(lat.size()) / total;
  out.metrics["req_latency_p50_s"] = quantile(lat, 0.5);
  out.metrics["req_latency_p90_s"] = quantile(lat, 0.9);
  if (cfg.trace && !plain_tts.empty() && !traced_tts.empty())
    out.metrics["trace.overhead_frac"] =
        median(traced_tts) / median(plain_tts) - 1;
  // The layer spans must account for the time to solution they split.
  const std::vector<double>& cover = out.samples["trace.tts_coverage"];
  if (cfg.trace && !cover.empty() && median(cover) < 0.98)
    out.errors.push_back("layer spans cover only " +
                         std::to_string(median(cover)) + " of tts_wall_s");
  unobserved(out, {"service.flush_s", "service.symbolic_hit_rate",
                   "service.refactors", "service.factor_reuse_frac",
                   "service.rhs_per_batch", "service.fp64_fallbacks",
                   "service.evictions", "service.rejected"});
}

// ---- service_sweep ----------------------------------------------------------

namespace {

constexpr int kTenants = 3;
constexpr int kRhsPerTenant = 4;
constexpr int kRequestsPerStep = kTenants * kRhsPerTenant;

struct Tenant {
  const char* name;
  std::optional<sparse::PrecisionPolicy> precision;
};
// Tenants 0 and 1 share the fat torus matrices; tenant 2 uses the tube.
const Tenant kSweepTenants[kTenants] = {
    {"fp64", std::nullopt},
    {"fp32", sparse::PrecisionPolicy::kF32},
    {"fp64", std::nullopt}};

/// The sweep's inputs, built in set-up: one fat and one tube matrix per
/// frequency step, and the right-hand sides drawn from the seed.
struct SweepInputs {
  std::vector<sparse::CsrMatrix> fat, tube;  // [step]
  std::vector<std::vector<double>> rhs;      // [step * 12 + request]

  const sparse::CsrMatrix& matrix(int step, int request) const {
    const auto& m = request / kRhsPerTenant == 2 ? tube : fat;
    return m[static_cast<std::size_t>(step)];
  }
  const std::vector<double>& b(int step, int request) const {
    return rhs[static_cast<std::size_t>(step * kRequestsPerStep + request)];
  }
};

SweepInputs sweep_inputs(const Config& cfg, int steps, double& assemble_s) {
  const int fat_theta = cfg.tiny ? 8 : 24, fat_cross = cfg.tiny ? 4 : 8;
  const int tube_theta = cfg.tiny ? 48 : 768;
  SweepInputs in;
  assemble_s = 0;
  for (int s = 0; s < steps; ++s) {
    const double omega = (150 + s) / 10.0;  // 15.0, 15.1, ...
    assemble_s += timed(nullptr, "", [&] {
      in.fat.push_back(maxwell_matrix(fat_theta, fat_cross, omega));
      in.tube.push_back(maxwell_matrix(tube_theta, 2, omega));
    });
  }
  Rng rng(cfg.seed);
  for (int s = 0; s < steps; ++s)
    for (int i = 0; i < kRequestsPerStep; ++i) {
      std::vector<double> b(static_cast<std::size_t>(in.matrix(s, i).rows()));
      for (double& x : b) x = rng.uniform(-1, 1);
      in.rhs.push_back(std::move(b));
    }
  return in;
}

}  // namespace

void run_service_sweep(const Config& cfg, Outcome& out) {
  const int steps = cfg.tiny ? 3 : 20;
  const sparse::SolverOptions opts = solver_options();

  SweepInputs in;
  std::vector<double> assemble;
  const auto setup = [&] {
    in = SweepInputs{};
    double t_asm = 0;
    in = sweep_inputs(cfg, steps, t_asm);
    assemble.push_back(t_asm);
  };

  std::optional<std::map<std::string, double>> first;
  std::vector<double> latency, traced_sweep, plain_sweep;
  iterate(cfg, out, setup, [&](bool timed_iter, bool traced) {
    SpanLog* log = traced ? &out.spans : nullptr;
    std::map<std::string, double> det, v;
    v["host.ref_s"] = host_ref_seconds();
    gpusim::Device dev(gpusim::DeviceModel::a100());
    service::ServiceOptions so;
    so.solver = opts;
    service::SolverService svc(dev, so);
    std::vector<double> sweep_latency;
    double sim = 0, sweep_wall = 0, worst_berr = 0;
    long fallbacks = 0, refine_steps = 0, solves = 0, accounted = 0;
    try {
      for (int s = 0; s < steps; ++s) {
        // Closed loop: submit the step's requests, then wait for flush().
        std::vector<Clock::time_point> submitted;
        std::vector<service::SolveResponse> resp;
        const int step_span = log != nullptr ? log->open("step") : -1;
        for (int i = 0; i < kRequestsPerStep; ++i) {
          const Tenant& t = kSweepTenants[i / kRhsPerTenant];
          service::SolveRequest req{t.name, in.matrix(s, i), in.b(s, i),
                                    t.precision};
          submitted.push_back(Clock::now());
          timed(log, "service.submit", [&] { svc.submit(std::move(req)); });
        }
        const double t_flush =
            timed(log, "service.flush", [&] { resp = svc.flush(); });
        const auto done = Clock::now();
        if (log != nullptr) log->close(step_span);
        const double wall =
            std::chrono::duration<double>(done - submitted.front()).count();
        const double step_sim = dev.synchronize_all() - sim;
        sim += step_sim;
        sweep_wall += wall;
        det["step" + std::to_string(s) + ".sim_s"] = step_sim;
        for (const auto& t : submitted)
          sweep_latency.push_back(
              std::chrono::duration<double>(done - t).count());

        // Factor figures of the sessions the service holds for this step.
        double fac_sim = 0;
        for (int t = 0; t < kTenants; ++t) {
          const sparse::SparseDirectSolver* sol = svc.peek(
              in.matrix(s, t * kRhsPerTenant), kSweepTenants[t].precision);
          if (sol == nullptr) continue;
          const sparse::MultifrontalFactor& f = sol->numeric();
          fac_sim += f.factor_seconds();
          if (s > 0) continue;
          v["factor.launches"] += static_cast<double>(f.launch_count());
          v["factor.boosted_pivots"] +=
              static_cast<double>(f.report().boosted_pivots);
          v["factor.pivot_growth"] =
              std::max(v["factor.pivot_growth"], f.report().pivot_growth);
          symbolic_metrics(sol->symbolic(), v);
        }
        if (s == 0)
          det["factor.sim_s"] = fac_sim;
        else
          det["refactor.sim_s"] += fac_sim / (steps - 1);

        if (!timed_iter) continue;
        if (s > 0) {
          out.samples["resolve_wall_s"].push_back(wall);
          out.samples["resolve_sim_s"].push_back(step_sim);
        }
        if (traced) out.samples["service.flush_s"].push_back(t_flush);
        for (int i = 0; i < kRequestsPerStep; ++i) {
          const service::SolveResponse& r =
              resp[static_cast<std::size_t>(i)];
          ++accounted;
          if (r.admission != service::Admission::kAccepted) {
            ++out.attempted;
            ++out.failed;
            continue;
          }
          account(r.report, in.matrix(s, i), in.b(s, i), out);
          fallbacks += r.report.refactored_fp64 ? 1 : 0;
          refine_steps += r.report.refine_steps;
          ++solves;
          worst_berr = std::max(worst_berr, r.report.berr);
        }
        if (traced && s == 0) {
          // The service analyzed one matrix per session in this step;
          // repeat those analyses, and their inner steps, outside flush().
          for (int t = 0; t < kTenants; ++t) {
            const sparse::CsrMatrix& a = in.matrix(s, t * kRhsPerTenant);
            sparse::SparseDirectSolver shadow(opts);
            const double t_an =
                timed(log, "analyze", [&] { shadow.analyze(a); });
            v["analyze.wall_s"] += t_an;
            v["analyze.other_s"] += t_an - analyze_parts(a, opts, *log, v);
          }
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sweep failed: %s\n", e.what());
      if (timed_iter) {
        const long lost = steps * kRequestsPerStep - accounted;
        out.attempted += lost;
        out.failed += lost;
      }
      return;
    }
    if (!timed_iter) return;
    latency.insert(latency.end(), sweep_latency.begin(), sweep_latency.end());
    (traced ? traced_sweep : plain_sweep).push_back(sweep_wall);

    // The client's time to solution is its whole sweep.
    v["tts_wall_s"] = sweep_wall;
    det["tts_sim_s"] = sim;
    det["sim_per_req_s"] = sim / static_cast<double>(sweep_latency.size());
    det["peak_device_mb"] = static_cast<double>(dev.peak_bytes()) / kMB;
    kernel_metrics(dev, det, out);
    device_metrics(dev, v);
    v["factor.sim_gflops"] =
        v["symbolic.factor_gflop"] / det["factor.sim_s"];
    const service::ServiceStats& st = svc.stats();
    v["service.symbolic_hit_rate"] = st.symbolic_hit_rate();
    v["service.refactors"] = static_cast<double>(st.refactors);
    v["service.factor_reuse_frac"] =
        ratio(static_cast<double>(st.factor_reuses),
              static_cast<double>(st.requests));
    v["service.rhs_per_batch"] = ratio(static_cast<double>(st.batched_rhs),
                                       static_cast<double>(st.batches));
    v["service.fp64_fallbacks"] = static_cast<double>(fallbacks);
    v["service.evictions"] = static_cast<double>(st.evictions);
    v["service.rejected"] = static_cast<double>(st.rejected);
    v["solve.refine_steps"] = ratio(static_cast<double>(refine_steps),
                                    static_cast<double>(solves));
    v["solve.berr"] = worst_berr;
    file_iteration(det, v, first, out);
  });

  out.metrics["fem.assemble_s"] = median(assemble);
  double wall = 0;
  for (double x : out.samples["tts_wall_s"]) wall += x;
  out.metrics["req_per_s"] = static_cast<double>(latency.size()) / wall;
  out.metrics["req_latency_p50_s"] = quantile(latency, 0.5);
  out.metrics["req_latency_p90_s"] = quantile(latency, 0.9);
  if (cfg.trace && !plain_sweep.empty() && !traced_sweep.empty())
    out.metrics["trace.overhead_frac"] =
        median(traced_sweep) / median(plain_sweep) - 1;
  unobserved(out, {"factor.wall_s", "factor.host_us_per_launch",
                   "refactor.wall_s", "refactor.over_factor", "solve.wall_s",
                   "trace.tts_coverage"});
}

}  // namespace perfbench
