#include "tensor/simd.h"

#include <atomic>

// The AVX2 bodies are compiled via per-function target attributes so no
// global -m flag is needed: the binary stays runnable on any x86-64 CPU
// and the dispatcher picks the wide path only when CPUID reports AVX2.
// The target list deliberately omits FMA — with the ISA absent the
// compiler cannot fuse the mul+add pairs, which is what keeps the AVX2
// results bit-identical to the scalar chains (see simd.h).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAMDR_SIMD_X86_AVX2 1
#include <immintrin.h>
#define MAMDR_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace mamdr {
namespace ops {
namespace simd {

namespace {

// Cache-block sizes, shared with the scalar seed kernel's contract: a
// kBlockK-deep panel of B is streamed while kTileJ C elements live in
// registers. Blocking only changes memory traffic — C values round-trip
// through float32 memory between k-blocks, which is lossless — so the
// per-element accumulation chain is the full ascending-k order either way.
constexpr int64_t kBlockM = 32;
constexpr int64_t kBlockK = 64;
constexpr int64_t kTileJ = 32;

std::atomic<bool> g_simd_enabled{true};

bool CpuHasAvx2() {
#ifdef MAMDR_SIMD_X86_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Level DetectedLevel() {
  static const Level level =
      CpuHasAvx2() ? Level::kAvx2 : Level::kScalar;
  return level;
}

#ifdef MAMDR_SIMD_X86_AVX2

// AVX2 panel kernel: four 8-lane accumulators cover the same kTileJ = 32
// C elements the scalar kernel keeps in registers. Each lane is one
// C(i, j) chain receiving its k-terms in ascending order via broadcast
// mul + add — never FMA — so every output bit matches the scalar body.
MAMDR_TARGET_AVX2
void MatMulPanelAvx2(const float* pa, int64_t sa_i, int64_t sa_k,
                     const float* pb, float* pc, int64_t k, int64_t n,
                     int64_t r0, int64_t r1) {
  for (int64_t ib = r0; ib < r1; ib += kBlockM) {
    const int64_t imax = ib + kBlockM < r1 ? ib + kBlockM : r1;
    for (int64_t kb = 0; kb < k; kb += kBlockK) {
      const int64_t kmax = kb + kBlockK < k ? kb + kBlockK : k;
      for (int64_t i = ib; i < imax; ++i) {
        const float* abase = pa + i * sa_i;
        float* crow = pc + i * n;
        int64_t j = 0;
        for (; j + kTileJ <= n; j += kTileJ) {
          float* cseg = crow + j;
          __m256 c0 = _mm256_loadu_ps(cseg);
          __m256 c1 = _mm256_loadu_ps(cseg + 8);
          __m256 c2 = _mm256_loadu_ps(cseg + 16);
          __m256 c3 = _mm256_loadu_ps(cseg + 24);
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const __m256 av = _mm256_set1_ps(abase[kk * sa_k]);
            const float* brow = pb + kk * n + j;
            c0 = _mm256_add_ps(c0, _mm256_mul_ps(av, _mm256_loadu_ps(brow)));
            c1 = _mm256_add_ps(c1,
                               _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
            c2 = _mm256_add_ps(c2,
                               _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
            c3 = _mm256_add_ps(c3,
                               _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
          }
          _mm256_storeu_ps(cseg, c0);
          _mm256_storeu_ps(cseg + 8, c1);
          _mm256_storeu_ps(cseg + 16, c2);
          _mm256_storeu_ps(cseg + 24, c3);
        }
        for (; j + 8 <= n; j += 8) {  // 8-wide ragged tail
          float* cseg = crow + j;
          __m256 c0 = _mm256_loadu_ps(cseg);
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const __m256 av = _mm256_set1_ps(abase[kk * sa_k]);
            c0 = _mm256_add_ps(
                c0, _mm256_mul_ps(av, _mm256_loadu_ps(pb + kk * n + j)));
          }
          _mm256_storeu_ps(cseg, c0);
        }
        for (; j < n; ++j) {  // scalar ragged tail, same ascending-k chain
          float acc = crow[j];
          for (int64_t kk = kb; kk < kmax; ++kk) {
            acc += abase[kk * sa_k] * pb[kk * n + j];
          }
          crow[j] = acc;
        }
      }
    }
  }
}

#endif  // MAMDR_SIMD_X86_AVX2

}  // namespace

namespace internal {

// Scalar panel body — the register-tiled seed kernel (moved here from
// tensor_ops.cc so the dispatcher owns exactly one reference body).
void MatMulPanelScalar(const float* pa, int64_t sa_i, int64_t sa_k,
                       const float* pb, float* pc, int64_t k, int64_t n,
                       int64_t r0, int64_t r1) {
  for (int64_t ib = r0; ib < r1; ib += kBlockM) {
    const int64_t imax = ib + kBlockM < r1 ? ib + kBlockM : r1;
    for (int64_t kb = 0; kb < k; kb += kBlockK) {
      const int64_t kmax = kb + kBlockK < k ? kb + kBlockK : k;
      for (int64_t i = ib; i < imax; ++i) {
        const float* abase = pa + i * sa_i;
        float* crow = pc + i * n;
        int64_t j = 0;
        for (; j + kTileJ <= n; j += kTileJ) {
          float acc[kTileJ];
          float* cseg = crow + j;
          for (int64_t t = 0; t < kTileJ; ++t) acc[t] = cseg[t];
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const float av = abase[kk * sa_k];
            const float* brow = pb + kk * n + j;
            for (int64_t t = 0; t < kTileJ; ++t) acc[t] += av * brow[t];
          }
          for (int64_t t = 0; t < kTileJ; ++t) cseg[t] = acc[t];
        }
        if (j < n) {  // ragged tail of the C row
          const int64_t jlen = n - j;
          float acc[kTileJ];
          float* cseg = crow + j;
          for (int64_t t = 0; t < jlen; ++t) acc[t] = cseg[t];
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const float av = abase[kk * sa_k];
            const float* brow = pb + kk * n + j;
            for (int64_t t = 0; t < jlen; ++t) acc[t] += av * brow[t];
          }
          for (int64_t t = 0; t < jlen; ++t) cseg[t] = acc[t];
        }
      }
    }
  }
}

}  // namespace internal

Level CompiledLevel() {
#ifdef MAMDR_SIMD_X86_AVX2
  return Level::kAvx2;
#else
  return Level::kScalar;
#endif
}

Level ActiveLevel() {
  if (!g_simd_enabled.load(std::memory_order_relaxed)) return Level::kScalar;
  return DetectedLevel();
}

bool SetSimdEnabled(bool enabled) {
  return g_simd_enabled.exchange(enabled, std::memory_order_relaxed);
}

bool SimdEnabled() {
  return g_simd_enabled.load(std::memory_order_relaxed);
}

const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

void MatMulPanel(const float* pa, int64_t sa_i, int64_t sa_k,
                 const float* pb, float* pc, int64_t k, int64_t n,
                 int64_t r0, int64_t r1) {
#ifdef MAMDR_SIMD_X86_AVX2
  if (ActiveLevel() == Level::kAvx2) {
    MatMulPanelAvx2(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
    return;
  }
#endif
  internal::MatMulPanelScalar(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
}

}  // namespace simd
}  // namespace ops
}  // namespace mamdr
