// Packed, register-blocked micro-kernel engine for the host-side BLAS.
//
// Every irregular-batch kernel in this reproduction executes its numerics
// for real on the host, so host GEMM/TRSM throughput is the wall-clock
// floor of the whole project (tests, every bench figure, the multifrontal
// solver). This layer provides the GotoBLAS-style machinery the generic
// loops in blas.cpp lack:
//
//  - MC/KC/NC cache blocking with explicit packing of op(A) and op(B)
//    into contiguous, zero-padded panels (thread-local buffers, reused
//    across calls), so all four transpose combinations run at unit
//    stride;
//  - an MR x NR register tile accumulated in explicit SIMD vectors for
//    float/double (two vectors of the compile target's width by four
//    columns) and in a scalar 4x2 loop for std::complex<double>, written
//    back once, with edge tiles handled by computing the padded tile and
//    storing only the valid part;
//  - unrolled multi-column fast paths for the level-2 kernels (ger/gemv)
//    that dominate the column-wise panel fallback of irrLU.
//
// None of this changes simulated device time: the gpusim cost model is
// driven exclusively by LaunchConfig and BlockCtx::record(), never by how
// fast the host happens to execute a kernel body (DESIGN.md, "Host
// execution performance").
#pragma once

#include <complex>

#include "lapack/types.hpp"

namespace irrlu::la::mk {

/// Cache-blocking parameters per element type, the same on every ISA.
/// A packed MC x KC block of A is sized to stay in L2 and one KC-deep A
/// and B panel pair in L1. KC is also part of the numerical contract:
/// each element of C receives one `C += alpha * acc` per KC chunk of the
/// inner dimension, where acc sums that chunk in ascending order. MC and
/// NC are multiples of every register-tile height and width the engine
/// compiles to (microkernel.cpp), so they never change a result.
template <typename T>
struct TileTraits;

template <>
struct TileTraits<float> {
  static constexpr int MC = 128, KC = 320, NC = 512;
};

template <>
struct TileTraits<double> {
  static constexpr int MC = 96, KC = 256, NC = 512;
};

template <>
struct TileTraits<std::complex<double>> {
  static constexpr int MC = 64, KC = 128, NC = 256;
};

/// C (m x n, leading dimension ldc) += alpha * op(A) * op(B), inner
/// dimension k, for any of the four transpose combinations. Assumes the
/// caller has already applied beta to C and screened out alpha == 0 /
/// degenerate extents. Deterministic: repeated calls with the same inputs
/// produce bit-identical results (packing buffers are fully rewritten,
/// padding included, on every pack), and every build rounds alike: the
/// engine is compiled without floating-point contraction, so the per-
/// element order documented on TileTraits is the whole story whatever
/// the register tile or the target ISA.
template <typename T>
void gemm_packed(Trans transa, Trans transb, int m, int n, int k, T alpha,
                 const T* a, int lda, const T* b, int ldb, T* c, int ldc);

/// Rank-1 update fast path, A += alpha * x * y^T with unit-stride x:
/// processes four columns of A per pass so x is loaded once per pass
/// instead of once per column. Column results are bit-identical to the
/// one-column-at-a-time reference (zero columns of y are skipped there
/// and here).
template <typename T>
void ger_unit(int m, int n, T alpha, const T* x, const T* y, int incy, T* a,
              int lda);

/// y = alpha*op(A)*x + beta*y with unit strides on x and y; four-column
/// blocking in both transpose modes. beta == 0 overwrites y (BLAS
/// semantics, NaN-safe). Per-element accumulation order matches the
/// column-ascending reference loop exactly.
template <typename T>
void gemv_unit(Trans trans, int m, int n, T alpha, const T* a, int lda,
               const T* x, T beta, T* y);

/// Small-triangle substitution solve op(A) X = B with alpha already
/// applied: the base case of the blocked trsm. Triangles of order <= 16
/// with Trans::No dispatch to fully-unrolled fixed-size forward/back-
/// substitution kernels (the triangle staged once into a contiguous
/// stack tile, each rhs solved in registers) with bit-identical results;
/// larger orders and Trans::Yes use generic loops whose orders keep the
/// stored triangle contiguous (right-looking axpy for Trans::No,
/// left-looking row dots for Trans::Yes) with four right-hand-side
/// columns sharing each triangle load.
template <typename T>
void trsm_left_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                     const T* a, int lda, T* b, int ldb);

/// Small-triangle substitution solve X op(A) = B with alpha already
/// applied (A is n x n): column-axpy form, each update contiguous over
/// the m rows of B.
template <typename T>
void trsm_right_small(Uplo uplo, Trans trans, Diag diag, int m, int n,
                      const T* a, int lda, T* b, int ldb);

}  // namespace irrlu::la::mk
