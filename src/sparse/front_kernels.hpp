// The multifrontal driver's memory-bound per-front kernels, as free
// functions over descriptor arrays so each can be tested against a plain
// host loop:
//   - front_absmax:     max |F(r, c)| of each front (boost reference before
//                       the factorization, growth numerator after it);
//   - front_extend_add: scatter-add of the children's Schur complements
//                       into their parents;
//   - front_extract:    copy of the factored L11\U11, U12, L21 blocks into
//                       the compact factor store.
//
// Each runs a 2-D DCWI grid of `matrices x column_tiles(max_width)` blocks
// (irrblas/dcwi.hpp, DESIGN.md §15): block b serves matrix
// b / tiles and the columns of tile b % tiles, retiring tiles past the
// matrix's own width. Every element keeps its operation and, for the
// extend-add's `+=`, its per-entry order, so results are bit-identical to
// one block per matrix; only the simulated schedule changes.
#pragma once

#include <vector>

#include "gpusim/device.hpp"

namespace irrlu::sparse {

/// Writes max(out[k], max |F_k(r, c)|) over the d x d block of front k,
/// d = svec[k] + uvec[k], column-major with leading dimension ld[k]. The
/// per-tile maxima combine by `max`, so `out` must be zeroed by the caller;
/// fronts with d <= 0 leave out[k] untouched. `dmax` is the largest d. The
/// extremum stays double for every element type.
template <typename T>
void front_absmax(gpusim::Device& dev, gpusim::Stream& stream,
                  const char* name, T* const* fronts, const int* ld,
                  const int* svec, const int* uvec, int count, int dmax,
                  double* out);

/// One child's contribution to an extend-add: its u x u Schur complement
/// (column-major, leading dimension ldc) is added into parent entry
/// (map[r], map[c]) (leading dimension ldp).
template <typename Tp, typename Tc>
struct ExtendAddDesc {
  const Tc* child;
  Tp* parent;
  const int* map;
  int u, ldc, ldp;
};

/// Applies the descriptors in order: a parent entry reached by several
/// children receives their `+=` in descriptor order (blocks run
/// child-major, and one child's column tiles touch disjoint parent
/// entries). Children of one call must be one level, so no parent is
/// itself a child in the same call.
template <typename Tp, typename Tc>
void front_extend_add(gpusim::Device& dev, gpusim::Stream& stream,
                      std::vector<ExtendAddDesc<Tp, Tc>> descs);

/// One front's factor extraction: from the d x d front at `base`
/// (d = s + u, leading dimension ld) into `out` as L11\U11 (s x s, ld s),
/// then U12 (s x u, ld s), then L21 (u x s, ld u).
template <typename T>
struct ExtractDesc {
  const T* base;
  T* out;
  int s, u, ld;
};

template <typename T>
void front_extract(gpusim::Device& dev, gpusim::Stream& stream,
                   std::vector<ExtractDesc<T>> descs);

}  // namespace irrlu::sparse
