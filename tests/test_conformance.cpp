// Bitwise conformance of the host micro-kernel engine against fixed-order
// reference loops.
//
// The engine (src/lapack/microkernel.cpp) promises one rounding sequence
// per element whatever the register tile, the target ISA or
// IRRLU_NATIVE_KERNELS: no floating-point contraction, products summed in
// ascending order inside each TileTraits::KC chunk of the inner dimension,
// then `C += alpha * acc` per chunk. The loops below spell that sequence
// out one element at a time, and this file is compiled with
// -ffp-contract=off (tests/CMakeLists.txt), so every build of the engine
// must reproduce them to the last bit. A build that fuses a multiply-add
// anywhere in the engine rounds once where these loops round twice and
// fails here.
//
// The shape lists follow LIBXSMM's wrap-test lists: odd (m, n, k, ld,
// alpha, beta) tuples chosen to hit edge tiles of every register-tile
// width, k > KC, m > MC and n > NC, in all four transpose combinations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "lapack/blas.hpp"
#include "lapack/microkernel.hpp"

namespace la = irrlu::la;
namespace mk = irrlu::la::mk;
using irrlu::Rng;

namespace {

constexpr la::Trans kTrans[] = {la::Trans::No, la::Trans::Yes};

template <typename T>
std::vector<T> random_vector(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
  return v;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// la::gemm's beta pass followed by the engine's per-element order.
template <typename T>
void ref_gemm(la::Trans ta, la::Trans tb, int m, int n, int k, T alpha,
              const T* a, int lda, const T* b, int ldb, T beta, T* c,
              int ldc) {
  constexpr int KC = mk::TileTraits<T>::KC;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      T& cij = c[static_cast<std::ptrdiff_t>(j) * ldc + i];
      if (beta == T{})
        cij = T{};
      else if (beta != T(1))
        cij *= beta;
      if (k <= 0 || alpha == T{}) continue;
      for (int p0 = 0; p0 < k; p0 += KC) {
        T acc{};
        for (int p = p0; p < std::min(k, p0 + KC); ++p) {
          const T av = ta == la::Trans::No
                           ? a[static_cast<std::ptrdiff_t>(p) * lda + i]
                           : a[static_cast<std::ptrdiff_t>(i) * lda + p];
          const T bv = tb == la::Trans::No
                           ? b[static_cast<std::ptrdiff_t>(j) * ldb + p]
                           : b[static_cast<std::ptrdiff_t>(p) * ldb + j];
          acc += av * bv;
        }
        cij += alpha * acc;
      }
    }
}

template <typename T>
void ref_ger(int m, int n, T alpha, const T* x, const T* y, int incy, T* a,
             int lda) {
  for (int j = 0; j < n; ++j) {
    const T yj = alpha * y[static_cast<std::ptrdiff_t>(j) * incy];
    if (yj == T{}) continue;
    for (int i = 0; i < m; ++i)
      a[static_cast<std::ptrdiff_t>(j) * lda + i] += x[i] * yj;
  }
}

template <typename T>
void ref_gemv(la::Trans trans, int m, int n, T alpha, const T* a, int lda,
              const T* x, T beta, T* y) {
  const int ylen = trans == la::Trans::No ? m : n;
  for (int i = 0; i < ylen; ++i)
    y[i] = beta == T{} ? T{} : beta == T(1) ? y[i] : y[i] * beta;
  for (int j = 0; j < n; ++j) {
    const T* col = a + static_cast<std::ptrdiff_t>(j) * lda;
    if (trans == la::Trans::No) {
      const T xj = alpha * x[j];
      for (int i = 0; i < m; ++i) y[i] += col[i] * xj;
    } else {
      T acc{};
      for (int i = 0; i < m; ++i) acc += col[i] * x[i];
      y[j] += alpha * acc;
    }
  }
}

/// op(A) X = B: divide-then-eliminate for Trans::No (triangle columns
/// ascending for lower, descending for upper), one row dot per unknown
/// for Trans::Yes.
template <typename T>
void ref_trsm_left(la::Uplo uplo, la::Trans trans, la::Diag diag, int m,
                   int n, const T* a, int lda, T* b, int ldb) {
  const bool lower = (uplo == la::Uplo::Lower) == (trans == la::Trans::No);
  const bool unit = diag == la::Diag::Unit;
  auto A = [&](int i, int j) {
    return a[static_cast<std::ptrdiff_t>(j) * lda + i];
  };
  for (int c = 0; c < n; ++c) {
    T* x = b + static_cast<std::ptrdiff_t>(c) * ldb;
    if (trans == la::Trans::No) {
      for (int s = 0; s < m; ++s) {
        const int j = lower ? s : m - 1 - s;
        if (!unit) x[j] /= A(j, j);
        for (int i = lower ? j + 1 : 0; i < (lower ? m : j); ++i)
          x[i] -= A(i, j) * x[j];
      }
    } else {
      for (int s = 0; s < m; ++s) {
        const int i = lower ? s : m - 1 - s;
        T acc = x[i];
        for (int j = lower ? 0 : i + 1; j < (lower ? i : m); ++j)
          acc -= A(j, i) * x[j];
        x[i] = unit ? acc : acc / A(i, i);
      }
    }
  }
}

/// X op(A) = B (A is n x n): column axpys in dependency order, exact zero
/// multipliers skipped.
template <typename T>
void ref_trsm_right(la::Uplo uplo, la::Trans trans, la::Diag diag, int m,
                    int n, const T* a, int lda, T* b, int ldb) {
  const bool lower = (uplo == la::Uplo::Lower) == (trans == la::Trans::No);
  auto E = [&](int i, int j) {
    return trans == la::Trans::No ? a[static_cast<std::ptrdiff_t>(j) * lda + i]
                                  : a[static_cast<std::ptrdiff_t>(i) * lda + j];
  };
  for (int s = 0; s < n; ++s) {
    const int j = lower ? n - 1 - s : s;
    T* xj = b + static_cast<std::ptrdiff_t>(j) * ldb;
    for (int p = lower ? j + 1 : 0; p < (lower ? n : j); ++p) {
      const T e = E(p, j);
      if (e == T{}) continue;
      const T* xp = b + static_cast<std::ptrdiff_t>(p) * ldb;
      for (int i = 0; i < m; ++i) xj[i] -= xp[i] * e;
    }
    if (diag == la::Diag::NonUnit)
      for (int i = 0; i < m; ++i) xj[i] /= E(j, j);
  }
}

/// A random n x n triangle-bearing matrix (both halves filled) whose
/// diagonal dominates, so substitution stays well scaled.
template <typename T>
std::vector<T> random_triangle(int n, int lda, Rng& rng) {
  std::vector<T> a = random_vector<T>(static_cast<std::size_t>(lda) * n, rng);
  for (int i = 0; i < n; ++i)
    a[static_cast<std::size_t>(i) * lda + i] += static_cast<T>(n + 2);
  return a;
}

// GEMM shapes: {m, n, k, lda pad, ldb pad, ldc pad, alpha, beta}. Leading
// dimensions are the minimum plus the pad. TileTraits: float MC/KC/NC =
// 128/320/512, double 96/256/512; register tiles are 8..32 rows by 4.
struct GemmShape {
  int m, n, k, pa, pb, pc;
  double alpha, beta;
};
constexpr GemmShape kGemmShapes[] = {
    {1, 1, 1, 0, 0, 0, 1.0, 0.0},
    {3, 2, 5, 1, 0, 2, -1.0, 1.0},
    {7, 5, 3, 0, 3, 1, 0.5, -0.25},
    {9, 4, 17, 2, 1, 0, -1.0, 1.0},
    {17, 13, 9, 3, 0, 5, 1.5, 0.5},
    {24, 23, 21, 8, 9, 8, -1.0, 0.5},
    {33, 7, 19, 1, 2, 3, 1.0, 1.0},
    {35, 16, 20, 0, 0, 0, 1.0, 0.0},
    {65, 9, 40, 1, 1, 1, -0.75, 2.0},
    {9, 6, 333, 4, 0, 1, -1.0, 1.0},
    {31, 11, 650, 0, 2, 0, 0.25, -1.0},
    {129, 9, 5, 1, 0, 3, 1.0, 1.0},
    {200, 6, 30, 5, 1, 0, -1.0, 0.0},
    {13, 515, 7, 0, 1, 2, -1.0, 1.0},
    {131, 517, 333, 3, 2, 1, -0.5, 0.75},
};

template <typename T>
void check_gemm() {
  Rng rng(20261019);
  for (const GemmShape& s : kGemmShapes)
    for (la::Trans ta : kTrans)
      for (la::Trans tb : kTrans) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << s.m << " n=" << s.n << " k=" << s.k
                     << " ta=" << (ta == la::Trans::Yes)
                     << " tb=" << (tb == la::Trans::Yes));
        const int arows = ta == la::Trans::No ? s.m : s.k;
        const int acols = ta == la::Trans::No ? s.k : s.m;
        const int brows = tb == la::Trans::No ? s.k : s.n;
        const int bcols = tb == la::Trans::No ? s.n : s.k;
        const int lda = arows + s.pa, ldb = brows + s.pb, ldc = s.m + s.pc;
        const auto a =
            random_vector<T>(static_cast<std::size_t>(lda) * acols, rng);
        const auto b =
            random_vector<T>(static_cast<std::size_t>(ldb) * bcols, rng);
        auto c = random_vector<T>(static_cast<std::size_t>(ldc) * s.n, rng);
        auto want = c;
        const T alpha = static_cast<T>(s.alpha), beta = static_cast<T>(s.beta);
        la::gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
                 beta, c.data(), ldc);
        ref_gemm(ta, tb, s.m, s.n, s.k, alpha, a.data(), lda, b.data(), ldb,
                 beta, want.data(), ldc);
        EXPECT_TRUE(bitwise_equal(c, want));
      }
}

template <typename T>
void check_ger() {
  // {m, n, lda pad, incy, alpha}; every fourth y entry of the odd shapes
  // is zeroed so the four-column blocks take their one-column path.
  const struct { int m, n, pad, incy; double alpha; } shapes[] = {
      {1, 1, 0, 1, 1.0},   {5, 3, 2, 1, -1.0}, {17, 9, 0, 2, 0.5},
      {64, 8, 3, 1, -1.0}, {33, 13, 1, 3, 1.25}, {130, 70, 5, 1, -0.5},
  };
  Rng rng(7);
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << "m=" << s.m << " n=" << s.n);
    const int lda = s.m + s.pad;
    const auto x = random_vector<T>(s.m, rng);
    auto y = random_vector<T>(static_cast<std::size_t>(s.n) * s.incy, rng);
    if (s.n % 2 == 1)
      for (int j = 1; j < s.n; j += 4)
        y[static_cast<std::size_t>(j) * s.incy] = T{};
    auto a = random_vector<T>(static_cast<std::size_t>(lda) * s.n, rng);
    auto want = a;
    const T alpha = static_cast<T>(s.alpha);
    mk::ger_unit(s.m, s.n, alpha, x.data(), y.data(), s.incy, a.data(), lda);
    ref_ger(s.m, s.n, alpha, x.data(), y.data(), s.incy, want.data(), lda);
    EXPECT_TRUE(bitwise_equal(a, want));
  }
}

template <typename T>
void check_gemv() {
  // {m, n, lda pad, alpha, beta}
  const struct { int m, n, pad; double alpha, beta; } shapes[] = {
      {1, 1, 0, 1.0, 0.0},    {7, 3, 1, -1.0, 1.0}, {24, 21, 8, 1.0, 0.5},
      {350, 20, 0, -1.0, 0.0}, {33, 130, 3, 0.75, -2.0},
      {200, 200, 56, 1.0, 1.0},
  };
  Rng rng(11);
  for (const auto& s : shapes)
    for (la::Trans t : kTrans) {
      SCOPED_TRACE(testing::Message() << "m=" << s.m << " n=" << s.n
                                      << " trans=" << (t == la::Trans::Yes));
      const int lda = s.m + s.pad;
      const auto a = random_vector<T>(static_cast<std::size_t>(lda) * s.n, rng);
      const auto x = random_vector<T>(t == la::Trans::No ? s.n : s.m, rng);
      auto y = random_vector<T>(t == la::Trans::No ? s.m : s.n, rng);
      auto want = y;
      const T alpha = static_cast<T>(s.alpha), beta = static_cast<T>(s.beta);
      mk::gemv_unit(t, s.m, s.n, alpha, a.data(), lda, x.data(), beta,
                    y.data());
      ref_gemv(t, s.m, s.n, alpha, a.data(), lda, x.data(), beta, want.data());
      EXPECT_TRUE(bitwise_equal(y, want));
    }
}

template <typename T>
void check_trsm() {
  // {m, n, lda pad, ldb pad}: orders on both sides of the unrolled
  // kernels' cutoff of 16, right-hand-side counts around the blocks of 4.
  const struct { int m, n, pa, pb; } shapes[] = {
      {1, 1, 0, 0}, {3, 5, 1, 2}, {8, 4, 0, 1}, {13, 7, 3, 0},
      {16, 9, 0, 0}, {17, 3, 2, 5}, {23, 18, 1, 1},
  };
  Rng rng(13);
  for (const auto& s : shapes)
    for (la::Uplo uplo : {la::Uplo::Lower, la::Uplo::Upper})
      for (la::Trans t : kTrans)
        for (la::Diag d : {la::Diag::NonUnit, la::Diag::Unit}) {
          SCOPED_TRACE(testing::Message()
                       << "m=" << s.m << " n=" << s.n
                       << " lower=" << (uplo == la::Uplo::Lower)
                       << " trans=" << (t == la::Trans::Yes)
                       << " unit=" << (d == la::Diag::Unit));
          // Left: triangle of order m, B is m x n.
          {
            const int lda = s.m + s.pa, ldb = s.m + s.pb;
            const auto a = random_triangle<T>(s.m, lda, rng);
            auto b = random_vector<T>(static_cast<std::size_t>(ldb) * s.n, rng);
            auto want = b;
            mk::trsm_left_small(uplo, t, d, s.m, s.n, a.data(), lda, b.data(),
                                ldb);
            ref_trsm_left(uplo, t, d, s.m, s.n, a.data(), lda, want.data(),
                          ldb);
            EXPECT_TRUE(bitwise_equal(b, want)) << "left";
          }
          // Right: triangle of order n, B is m x n.
          {
            const int lda = s.n + s.pa, ldb = s.m + s.pb;
            auto a = random_triangle<T>(s.n, lda, rng);
            // An exact zero off the diagonal takes the skip branch.
            if (s.n >= 2) a[static_cast<std::size_t>(lda) * (s.n / 2)] = T{};
            auto b = random_vector<T>(static_cast<std::size_t>(ldb) * s.n, rng);
            auto want = b;
            mk::trsm_right_small(uplo, t, d, s.m, s.n, a.data(), lda, b.data(),
                                 ldb);
            ref_trsm_right(uplo, t, d, s.m, s.n, a.data(), lda, want.data(),
                           ldb);
            EXPECT_TRUE(bitwise_equal(b, want)) << "right";
          }
        }
}

}  // namespace

TEST(Conformance, GemmFloat) { check_gemm<float>(); }
TEST(Conformance, GemmDouble) { check_gemm<double>(); }
TEST(Conformance, GerFloat) { check_ger<float>(); }
TEST(Conformance, GerDouble) { check_ger<double>(); }
TEST(Conformance, GemvFloat) { check_gemv<float>(); }
TEST(Conformance, GemvDouble) { check_gemv<double>(); }
TEST(Conformance, TrsmSmallFloat) { check_trsm<float>(); }
TEST(Conformance, TrsmSmallDouble) { check_trsm<double>(); }
