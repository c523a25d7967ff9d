// The multifrontal front kernels (sparse/front_kernels.hpp) against plain
// host loops, bitwise, in FP64 and FP32, on batches whose widths straddle
// the DCWI column-tile boundaries; and the grids they launch inside the
// factorization: one block per front while every front fits one tile,
// more once a front is wider than two.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fem/mesh.hpp"
#include "fem/nedelec.hpp"
#include "gpusim/device.hpp"
#include "irrblas/dcwi.hpp"
#include "sparse/csr.hpp"
#include "sparse/front_kernels.hpp"
#include "sparse/solver.hpp"

using namespace irrlu;
using namespace irrlu::sparse;
using batch::column_tiles;
using batch::kColumnTile;
using gpusim::Device;
using gpusim::DeviceModel;

namespace {

constexpr int kTw = kColumnTile;

/// Widths on both sides of every tile boundary, unsorted so each batch
/// mixes them.
const std::vector<int> kWidths = {kTw + 1, 1, 3 * kTw + 5, kTw - 1, kTw, 30};

/// Random values spread over many binades, so that any change in the order
/// of a floating-point accumulation shows in the last bits.
template <typename T>
std::vector<T> random_values(Rng& rng, std::size_t n) {
  std::vector<T> v(n);
  for (auto& x : v)
    x = static_cast<T>(rng.uniform(-1, 1) *
                       std::ldexp(1.0, rng.uniform_int(-20, 20)));
  return v;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <typename T>
void check_absmax() {
  Device dev(DeviceModel::a100());
  Rng rng(11);
  // Front k is d x d with d = s + u from kWidths (plus an empty front),
  // stored with ld = d + 3.
  std::vector<int> s, u, ld;
  for (int d : kWidths) {
    const int sk = (d + 1) / 2;
    s.push_back(sk);
    u.push_back(d - sk);
  }
  s.push_back(0);
  u.push_back(0);
  const int count = static_cast<int>(s.size());
  std::vector<std::vector<T>> store(s.size());
  std::vector<T*> fronts(s.size());
  int dmax = 0;
  double bytes = 0;
  for (std::size_t k = 0; k < s.size(); ++k) {
    const int d = s[k] + u[k];
    ld.push_back(d + 3);
    store[k] = random_values<T>(rng, static_cast<std::size_t>(ld[k]) * d);
    fronts[k] = store[k].data();
    dmax = std::max(dmax, d);
    bytes += static_cast<double>(d) * d * sizeof(T);
  }
  // Plant the extremum in a far tile of the widest front and in the
  // (ld-padding) rows no front may read.
  const auto wide = static_cast<std::size_t>(
      std::find(kWidths.begin(), kWidths.end(), 3 * kTw + 5) -
      kWidths.begin());
  store[wide][static_cast<std::size_t>(3 * kTw + 2) * ld[wide] + 7] =
      static_cast<T>(-3e7);
  store[0][static_cast<std::size_t>(ld[0]) - 1] = static_cast<T>(9e9);

  std::vector<double> out(s.size(), 0.0);
  front_absmax<T>(dev, dev.stream(), "mf_front_norm", fronts.data(),
                  ld.data(), s.data(), u.data(), count, dmax, out.data());
  std::vector<double> ref(s.size(), 0.0);
  for (std::size_t k = 0; k < s.size(); ++k) {
    const int d = s[k] + u[k];
    for (int c = 0; c < d; ++c)
      for (int r = 0; r < d; ++r)
        ref[k] = std::max(
            ref[k],
            std::abs(static_cast<double>(
                store[k][static_cast<std::size_t>(c) * ld[k] + r])));
  }
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(out[wide], 3e7);
  EXPECT_EQ(out.back(), 0.0);  // empty front: untouched
  const auto& st = dev.profile().at("mf_front_norm");
  EXPECT_EQ(st.blocks, static_cast<long>(count) * column_tiles(dmax));
  EXPECT_EQ(st.bytes, bytes);  // tiling splits, never changes, the traffic
}

template <typename Tp, typename Tc>
void check_extend_add() {
  Device dev(DeviceModel::a100());
  Rng rng(23);
  // Two parents; several children of each overlap in the parent entries
  // they reach, so the per-entry order of the `+=` is observable.
  const int ldp[2] = {3 * kTw + 20, kTw + 9};
  const std::vector<std::vector<int>> child_u = {
      {3 * kTw + 5, kTw + 1, kTw, kTw - 1, 1}, {kTw + 1, 1, kTw - 1}};
  std::vector<std::vector<Tp>> parent;
  for (int p = 0; p < 2; ++p)
    parent.push_back(random_values<Tp>(
        rng, static_cast<std::size_t>(ldp[p]) * ldp[p]));
  std::vector<std::vector<Tc>> child;
  std::vector<std::vector<int>> map;
  std::vector<int> owner, ldc;
  for (int p = 0; p < 2; ++p)
    for (int uc : child_u[static_cast<std::size_t>(p)]) {
      ldc.push_back(uc + 2);
      child.push_back(random_values<Tc>(
          rng, static_cast<std::size_t>(ldc.back()) * uc));
      // An increasing injective map into the parent, as parent_map is.
      std::vector<int> all(static_cast<std::size_t>(ldp[p]));
      std::iota(all.begin(), all.end(), 0);
      for (int i = 0; i < uc; ++i)
        std::swap(all[static_cast<std::size_t>(i)],
                  all[static_cast<std::size_t>(
                      rng.uniform_int(i, ldp[p] - 1))]);
      all.resize(static_cast<std::size_t>(uc));
      std::sort(all.begin(), all.end());
      map.push_back(all);
      owner.push_back(p);
    }

  auto ref = parent;
  for (std::size_t i = 0; i < child.size(); ++i) {
    const int uc = static_cast<int>(map[i].size());
    const int p = owner[i];
    for (int c = 0; c < uc; ++c)
      for (int r = 0; r < uc; ++r)
        ref[static_cast<std::size_t>(p)]
           [static_cast<std::size_t>(map[i][static_cast<std::size_t>(c)]) *
                ldp[p] +
            static_cast<std::size_t>(map[i][static_cast<std::size_t>(r)])] +=
            static_cast<Tp>(child[i][static_cast<std::size_t>(c) * ldc[i] +
                                     static_cast<std::size_t>(r)]);
  }

  std::vector<ExtendAddDesc<Tp, Tc>> descs;
  double flops = 0;
  for (std::size_t i = 0; i < child.size(); ++i) {
    const int uc = static_cast<int>(map[i].size());
    descs.push_back({child[i].data(),
                     parent[static_cast<std::size_t>(owner[i])].data(),
                     map[i].data(), uc, ldc[i], ldp[owner[i]]});
    flops += static_cast<double>(uc) * uc;
  }
  const long n = static_cast<long>(descs.size());
  front_extend_add<Tp, Tc>(dev, dev.stream(), std::move(descs));
  EXPECT_TRUE(bitwise_equal(parent[0], ref[0]));
  EXPECT_TRUE(bitwise_equal(parent[1], ref[1]));
  const auto& st = dev.profile().at("mf_extend_add");
  EXPECT_EQ(st.blocks, n * column_tiles(3 * kTw + 5));
  EXPECT_EQ(st.flops, flops);
}

template <typename T>
void check_extract() {
  Device dev(DeviceModel::a100());
  Rng rng(37);
  // (s, u) pairs whose dims d = s + u straddle the tile boundaries, and
  // whose separator/update split falls inside or on a tile.
  const std::vector<std::pair<int, int>> su = {
      {kTw, 1},      {1, 0},           {40, kTw - 41}, {1, kTw - 1},
      {30, 35},      {kTw + 1, 0},     {100, 2 * kTw - 3},
      {kTw, 2 * kTw + 5}};
  std::vector<std::vector<T>> fronts;
  std::vector<std::size_t> off;
  std::size_t total = 0;
  int dmax = 0;
  for (const auto& [s, u] : su) {
    const int d = s + u;
    dmax = std::max(dmax, d);
    fronts.push_back(
        random_values<T>(rng, static_cast<std::size_t>(d + 1) * d));
    off.push_back(total);
    total += static_cast<std::size_t>(s) * (s + 2 * u);
  }
  const T sentinel = static_cast<T>(-12345.0);
  std::vector<T> out(total + 1, sentinel), ref(total + 1, sentinel);
  std::vector<ExtractDesc<T>> descs;
  double bytes = 0;
  for (std::size_t k = 0; k < su.size(); ++k) {
    const auto [s, u] = su[k];
    const int ld = s + u + 1;
    const T* base = fronts[k].data();
    T* o = ref.data() + off[k];
    for (int c = 0; c < s; ++c)
      for (int r = 0; r < s; ++r)
        *o++ = base[static_cast<std::size_t>(c) * ld + r];
    for (int c = 0; c < u; ++c)
      for (int r = 0; r < s; ++r)
        *o++ = base[static_cast<std::size_t>(s + c) * ld + r];
    for (int c = 0; c < s; ++c)
      for (int r = 0; r < u; ++r)
        *o++ = base[static_cast<std::size_t>(c) * ld + s + r];
    descs.push_back({base, out.data() + off[k], s, u, ld});
    bytes += 2.0 * s * (s + 2.0 * u) * sizeof(T);
  }
  const long n = static_cast<long>(descs.size());
  front_extract<T>(dev, dev.stream(), std::move(descs));
  EXPECT_TRUE(bitwise_equal(out, ref));
  EXPECT_EQ(out.back(), sentinel);
  const auto& st = dev.profile().at("mf_extract");
  EXPECT_EQ(st.blocks, n * column_tiles(dmax));
  EXPECT_EQ(st.bytes, bytes);
}

struct FactorCensus {
  int fronts = 0, max_dim = 0;
  long with_s = 0, scattering = 0;
  const std::map<std::string, gpusim::KernelStats>* profile = nullptr;
  long blocks(const char* name) const { return profile->at(name).blocks; }
};

/// Factors `a` with default options and counts what one block per front
/// would launch: every front factored (mf_front_norm/growth), every front
/// with a separator extracted, every child with an update scattered.
FactorCensus factor_census(Device& dev, const CsrMatrix& a) {
  SolverOptions opts;
  opts.nd.leaf_size = 16;
  SparseDirectSolver solver(opts);
  solver.analyze(a);
  solver.factor(dev);
  FactorCensus c;
  for (const Front& fr : solver.symbolic().fronts) {
    ++c.fronts;
    c.max_dim = std::max(c.max_dim, fr.dim());
    if (fr.s() > 0) ++c.with_s;
    if (fr.parent >= 0 && fr.u() > 0) ++c.scattering;
  }
  c.profile = &dev.profile();
  return c;
}

}  // namespace

TEST(FrontKernels, AbsmaxMatchesHostLoopF64) { check_absmax<double>(); }
TEST(FrontKernels, AbsmaxMatchesHostLoopF32) { check_absmax<float>(); }

TEST(FrontKernels, ExtendAddKeepsPerEntryOrderF64) {
  check_extend_add<double, double>();
}
TEST(FrontKernels, ExtendAddKeepsPerEntryOrderF32) {
  check_extend_add<float, float>();
}
TEST(FrontKernels, ExtendAddKeepsPerEntryOrderAcrossPrecisions) {
  check_extend_add<double, float>();
  check_extend_add<float, double>();
}

TEST(FrontKernels, ExtractMatchesHostLoopF64) { check_extract<double>(); }
TEST(FrontKernels, ExtractMatchesHostLoopF32) { check_extract<float>(); }

TEST(FrontKernels, ThinTubeLaunchesOneBlockPerFront) {
  // A thin Maxwell tube: every front fits one column tile, so every front
  // kernel keeps the one-block-per-front grid (and its simulated cost).
  const double omega = 16.0;
  const fem::EdgeSystem sys = fem::assemble_maxwell(
      fem::HexMesh::torus(48, 2, 2), omega,
      fem::paper_maxwell_load(omega, omega / 1.05));
  Device dev(DeviceModel::a100());
  const FactorCensus c = factor_census(dev, sys.a);
  ASSERT_LE(c.max_dim, kTw);
  ASSERT_EQ(c.with_s, c.fronts);
  EXPECT_EQ(c.blocks("mf_front_norm"), c.fronts);
  EXPECT_EQ(c.blocks("mf_front_growth"), c.fronts);
  EXPECT_EQ(c.blocks("mf_extract"), c.with_s);
  EXPECT_EQ(c.blocks("mf_extend_add"), c.scattering);
}

TEST(FrontKernels, WideRootFrontEngagesTiles) {
  // A 3-D Laplacian whose root front is wider than two tiles: the grids
  // grow past one block per front.
  Device dev(DeviceModel::a100());
  const FactorCensus c = factor_census(dev, laplacian3d(14, 14, 14));
  ASSERT_GT(c.max_dim, 2 * kTw);
  ASSERT_EQ(c.with_s, c.fronts);
  EXPECT_GT(c.blocks("mf_front_norm"), c.fronts);
  EXPECT_GT(c.blocks("mf_front_growth"), c.fronts);
  EXPECT_GT(c.blocks("mf_extract"), c.with_s);
  EXPECT_GT(c.blocks("mf_extend_add"), c.scattering);
}
