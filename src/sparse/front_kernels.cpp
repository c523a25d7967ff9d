#include "sparse/front_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "irrblas/dcwi.hpp"

namespace irrlu::sparse {

using batch::column_tiles;
using batch::dcwi_tile;
using batch::TileWork;

template <typename T>
void front_absmax(gpusim::Device& dev, gpusim::Stream& stream,
                  const char* name, T* const* fronts, const int* ld,
                  const int* svec, const int* uvec, int count, int dmax,
                  double* out) {
  const int tiles = column_tiles(dmax);
  dev.launch(stream, {name, count * tiles, 0}, [=](gpusim::BlockCtx& ctx) {
    const int k = ctx.block() / tiles;
    const int d = svec[k] + uvec[k];
    const TileWork tw = dcwi_tile(ctx.block() % tiles, d);
    if (tw.none()) return;
    const T* F = fronts[k];
    const int ldk = ld[k];
    double m = 0;
    for (int c = tw.c0; c < tw.c0 + tw.cols; ++c)
      for (int r = 0; r < d; ++r)
        m = std::max(m, std::abs(static_cast<double>(
                            F[static_cast<std::ptrdiff_t>(c) * ldk + r])));
    out[k] = std::max(out[k], m);
    ctx.record(0.0, static_cast<double>(d) * tw.cols * sizeof(T));
  });
}

template <typename Tp, typename Tc>
void front_extend_add(gpusim::Device& dev, gpusim::Stream& stream,
                      std::vector<ExtendAddDesc<Tp, Tc>> descs) {
  if (descs.empty()) return;
  int umax = 0;
  for (const auto& m : descs) umax = std::max(umax, m.u);
  const int tiles = column_tiles(umax);
  dev.launch(stream,
             {"mf_extend_add", static_cast<int>(descs.size()) * tiles, 0},
             [&descs, tiles](gpusim::BlockCtx& ctx) {
    const auto& m = descs[static_cast<std::size_t>(ctx.block() / tiles)];
    const TileWork tw = dcwi_tile(ctx.block() % tiles, m.u);
    if (tw.none()) return;
    for (int c = tw.c0; c < tw.c0 + tw.cols; ++c)
      for (int r = 0; r < m.u; ++r)
        m.parent[static_cast<std::ptrdiff_t>(m.map[c]) * m.ldp + m.map[r]] +=
            static_cast<Tp>(m.child[static_cast<std::ptrdiff_t>(c) * m.ldc + r]);
    // Scattered writes: penalized traffic on the parent side (4 parent
    // accesses per element at the parent width, 1 child read at the child
    // width).
    ctx.record(static_cast<double>(m.u) * tw.cols,
               (4.0 * sizeof(Tp) + sizeof(Tc)) * m.u * tw.cols);
  });
}

template <typename T>
void front_extract(gpusim::Device& dev, gpusim::Stream& stream,
                   std::vector<ExtractDesc<T>> descs) {
  if (descs.empty()) return;
  int dmax = 0;
  for (const auto& m : descs) dmax = std::max(dmax, m.s + m.u);
  const int tiles = column_tiles(dmax);
  dev.launch(stream,
             {"mf_extract", static_cast<int>(descs.size()) * tiles, 0},
             [&descs, tiles](gpusim::BlockCtx& ctx) {
    const auto& m = descs[static_cast<std::size_t>(ctx.block() / tiles)];
    const TileWork tw = dcwi_tile(ctx.block() % tiles, m.s + m.u);
    if (tw.none()) return;
    const auto s = static_cast<std::ptrdiff_t>(m.s);
    const auto u = static_cast<std::ptrdiff_t>(m.u);
    T* const u12 = m.out + s * s;
    T* const l21 = u12 + s * u;
    double elems = 0;
    for (int c = tw.c0; c < tw.c0 + tw.cols; ++c) {
      const T* col = m.base + static_cast<std::ptrdiff_t>(c) * m.ld;
      if (c < m.s) {
        // Column c of L11\U11 (ld s) and of L21 (ld u).
        std::copy(col, col + s, m.out + c * s);
        std::copy(col + s, col + s + u, l21 + c * u);
        elems += static_cast<double>(m.s + m.u);
      } else {
        // Column c - s of U12 (ld s).
        std::copy(col, col + s, u12 + (c - s) * s);
        elems += m.s;
      }
    }
    ctx.record(0.0, 2.0 * elems * sizeof(T));
  });
}

template void front_absmax<double>(gpusim::Device&, gpusim::Stream&,
                                   const char*, double* const*, const int*,
                                   const int*, const int*, int, int, double*);
template void front_absmax<float>(gpusim::Device&, gpusim::Stream&,
                                  const char*, float* const*, const int*,
                                  const int*, const int*, int, int, double*);
template void front_extend_add<double, double>(
    gpusim::Device&, gpusim::Stream&,
    std::vector<ExtendAddDesc<double, double>>);
template void front_extend_add<double, float>(
    gpusim::Device&, gpusim::Stream&,
    std::vector<ExtendAddDesc<double, float>>);
template void front_extend_add<float, double>(
    gpusim::Device&, gpusim::Stream&,
    std::vector<ExtendAddDesc<float, double>>);
template void front_extend_add<float, float>(
    gpusim::Device&, gpusim::Stream&,
    std::vector<ExtendAddDesc<float, float>>);
template void front_extract<double>(gpusim::Device&, gpusim::Stream&,
                                    std::vector<ExtractDesc<double>>);
template void front_extract<float>(gpusim::Device&, gpusim::Stream&,
                                   std::vector<ExtractDesc<float>>);

}  // namespace irrlu::sparse
