// Runtime-dispatched SIMD microkernels for the tensor layer.
//
// Numerical contract — the part that makes dispatch safe to do silently:
// every kernel here is BIT-IDENTICAL to its scalar fallback on every input.
// That holds by construction, not by tolerance:
//
//   * The matmul panel kernel vectorizes across *output columns*, so each
//     C(i, j) element keeps its own private accumulation chain over k in
//     ascending order — exactly the chain the scalar seed kernel runs. The
//     vector lanes are eight such independent scalar chains side by side.
//   * Multiplies and adds stay separate instructions (the AVX2 target does
//     not enable FMA, and src/tensor builds with -ffp-contract=off), so no
//     intermediate rounding step is ever fused away on one path but not the
//     other.
//
// Dispatch policy: the AVX2 bodies are compiled into every x86-64 binary
// via per-function target attributes (no -march flag needed, so plain CI
// builds carry them too) and selected at runtime iff the CPU reports AVX2.
// MAMDR_NATIVE_ARCH additionally tunes the scalar code for the build
// machine but is not required for SIMD dispatch. SetSimdEnabled(false) is
// the kill switch tests and A/B benches use to force the scalar path.
#ifndef MAMDR_TENSOR_SIMD_H_
#define MAMDR_TENSOR_SIMD_H_

#include <cstdint>

namespace mamdr {
namespace ops {
namespace simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// Highest level compiled into this binary (kAvx2 on x86-64 gcc/clang
/// builds, kScalar elsewhere).
Level CompiledLevel();

/// Level the dispatcher will actually use: CompiledLevel() ∧ CPU support ∧
/// SimdEnabled(). Cheap (one relaxed atomic load) — hot loops may call it
/// per kernel invocation but should not call it per element.
Level ActiveLevel();

/// Kill switch for tests and A/B benchmarking: false forces ActiveLevel()
/// to kScalar. Returns the previous value. Thread-safe; takes effect on the
/// next kernel invocation.
bool SetSimdEnabled(bool enabled);
bool SimdEnabled();

/// Human-readable name of a level ("scalar", "avx2") for bench output.
const char* LevelName(Level level);

/// The blocked-matmul panel kernel: C[r0:r1, :] += A' * B where element
/// (i, kk) of A' sits at pa[i * sa_i + kk * sa_k] (sa_i=k, sa_k=1 for the
/// plain product; sa_i=1, sa_k=m for the transposed-A product). B is row
/// major [k, n], C row major [m, n]; only rows [r0, r1) of C are written.
/// Dispatches to AVX2 when active; both bodies produce bit-identical C (see
/// file comment).
void MatMulPanel(const float* pa, int64_t sa_i, int64_t sa_k,
                 const float* pb, float* pc, int64_t k, int64_t n,
                 int64_t r0, int64_t r1);

namespace internal {
/// Scalar reference body, exposed so tests can diff the dispatched kernel
/// against it bit-for-bit without toggling the global kill switch.
void MatMulPanelScalar(const float* pa, int64_t sa_i, int64_t sa_k,
                       const float* pb, float* pc, int64_t k, int64_t n,
                       int64_t r0, int64_t r1);
}  // namespace internal

}  // namespace simd
}  // namespace ops
}  // namespace mamdr

#endif  // MAMDR_TENSOR_SIMD_H_
