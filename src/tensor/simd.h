// Runtime-dispatched SIMD microkernels for the tensor layer: the matmul
// panel and the elementwise loops every training step runs over all of its
// activations and parameters (ReLU forward/backward, the Adam and Adagrad
// updates).
//
// Three levels: scalar, AVX2 and AVX-512F. Every kernel has a scalar and an
// AVX2 body; only the matmul panel also has a zmm body. The panel is
// bound by FP throughput (two ports x lanes, no FMA), so doubling the
// lanes pays. The elementwise kernels keep AVX2 at the AVX-512 level: on a
// 4-vCPU AVX-512 Xeon, a zmm Adam over Amazon13Like's 108k parameters ran
// within 1% of the AVX2 one, because divide and sqrt bound it.
//
// Numerical contract — the part that makes dispatch safe to do silently:
// every kernel here is BIT-IDENTICAL to its scalar fallback on every input.
// That holds by construction, not by tolerance:
//
//   * The matmul panel kernels vectorize across *output columns*, so each
//     C(i, j) element keeps its own private accumulation chain over k in
//     ascending order — exactly the chain the scalar seed kernel runs. The
//     vector lanes are 8 (AVX2) or 16 (AVX-512) such independent scalar
//     chains side by side; the AVX-512 body's 4-row register tile only
//     reuses each loaded B vector for four rows, and its masked column tail
//     neither reads nor writes a masked-off lane.
//   * The elementwise kernels compute each element independently, so a
//     vector lane runs exactly the scalar expression, in the same operation
//     order. ReLU forward is maxps(x, +0): maxps returns its second operand
//     when either is NaN and when both are zero, so NaN -> +0 and -0 -> +0,
//     exactly as `x > 0 ? x : 0`. ReLU backward adds `g & (v > 0)` (an
//     ordered compare, false for NaN), which is +0 or g as in the scalar
//     select. The optimizer updates use only IEEE-754 basic operations,
//     each correctly rounded in both forms: mulps/addps/subps, divps for
//     the bias corrections and the step, sqrtps for the root.
//   * Multiplies and adds stay separate instructions, so no intermediate
//     rounding step is ever fused away on one path but not the other. The
//     AVX2 target does not enable FMA, but AVX-512F carries FMA encodings:
//     src/tensor builds with -ffp-contract=off, and the
//     fp_contract_objdump ctest fails on any fused multiply-add in the
//     tensor library.
//
// Dispatch policy: the wide bodies are compiled into every x86-64 binary
// via per-function target attributes (no -march flag needed, so plain CI
// builds carry them too) and the highest level the CPU reports is selected
// at runtime. MAMDR_NATIVE_ARCH additionally tunes the scalar code for the
// build machine but is not required for SIMD dispatch.
// SetSimdEnabled(false) is the kill switch tests and A/B benches use to
// force the scalar path.
#ifndef MAMDR_TENSOR_SIMD_H_
#define MAMDR_TENSOR_SIMD_H_

#include <cstdint>

// Set where the AVX2 and AVX-512 bodies are compiled in (x86-64 gcc/clang).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAMDR_SIMD_X86 1
#endif

namespace mamdr {
namespace ops {
namespace simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  // AVX-512F: the matmul panel only; the rest run AVX2
};

/// Highest level compiled into this binary (kAvx512 on x86-64 gcc/clang
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

/// Human-readable name of a level ("scalar", "avx2", "avx512") for bench
/// output.
const char* LevelName(Level level);

/// The blocked-matmul panel kernel: C[r0:r1, :] += A' * B where element
/// (i, kk) of A' sits at pa[i * sa_i + kk * sa_k] (sa_i=k, sa_k=1 for the
/// plain product; sa_i=1, sa_k=m for the transposed-A product). B is row
/// major [k, n], C row major [m, n]; only rows [r0, r1) of C are written.
/// Dispatches to the AVX-512 or AVX2 body when active; every body produces
/// bit-identical C (see file comment).
void MatMulPanel(const float* pa, int64_t sa_i, int64_t sa_k,
                 const float* pb, float* pc, int64_t k, int64_t n,
                 int64_t r0, int64_t r1);

/// ReLU forward: out[i] = x[i] > 0 ? x[i] : +0, so NaN and -0 map to +0.
/// `out` may alias `x`.
void ReluForward(const float* x, float* out, int64_t n);

/// ReLU backward: gi[i] += v[i] > 0 ? g[i] : +0, where v is the forward
/// input and g the upstream gradient.
void ReluBackward(const float* v, const float* g, float* gi, int64_t n);

/// Hyper-parameters of one Adam step; bc1/bc2 are the bias corrections
/// 1 - beta1^t and 1 - beta2^t of step t.
struct AdamStep {
  float lr, beta1, beta2, eps, bc1, bc2;
};

/// Adam's per-element update of parameters w, moments m and v, from
/// gradient g:
///   m = beta1*m + (1-beta1)*g;   v = beta2*v + ((1-beta2)*g)*g;
///   w -= (lr * (m/bc1)) / (sqrt(v/bc2) + eps).
void AdamUpdate(const AdamStep& s, const float* g, float* m, float* v,
                float* w, int64_t n);

/// Adagrad's per-element update of parameters w and accumulator acc:
///   acc += g*g;   w -= (lr * g) / (sqrt(acc) + eps).
void AdagradUpdate(float lr, float eps, const float* g, float* acc, float* w,
                   int64_t n);

namespace internal {
/// Scalar reference bodies, exposed so tests can diff the dispatched kernels
/// against them bit-for-bit without toggling the global kill switch.
void MatMulPanelScalar(const float* pa, int64_t sa_i, int64_t sa_k,
                       const float* pb, float* pc, int64_t k, int64_t n,
                       int64_t r0, int64_t r1);
void ReluForwardScalar(const float* x, float* out, int64_t n);
void ReluBackwardScalar(const float* v, const float* g, float* gi,
                        int64_t n);
void AdamUpdateScalar(const AdamStep& s, const float* g, float* m, float* v,
                      float* w, int64_t n);
void AdagradUpdateScalar(float lr, float eps, const float* g, float* acc,
                         float* w, int64_t n);
#ifdef MAMDR_SIMD_X86
/// The wide panel bodies MatMulPanel dispatches to. Callable only on a CPU
/// that reports the ISA (ActiveLevel() with SIMD enabled tells).
void MatMulPanelAvx2(const float* pa, int64_t sa_i, int64_t sa_k,
                     const float* pb, float* pc, int64_t k, int64_t n,
                     int64_t r0, int64_t r1);
void MatMulPanelAvx512(const float* pa, int64_t sa_i, int64_t sa_k,
                       const float* pb, float* pc, int64_t k, int64_t n,
                       int64_t r0, int64_t r1);
#endif
}  // namespace internal

}  // namespace simd
}  // namespace ops
}  // namespace mamdr

#endif  // MAMDR_TENSOR_SIMD_H_
