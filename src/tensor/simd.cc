#include "tensor/simd.h"

#include <atomic>
#include <cmath>

// The SIMD bodies are compiled via per-function target attributes so no
// global -m flag is needed: the binary stays runnable on any x86-64 CPU
// and the dispatcher picks a wide path only when CPUID reports its ISA.
// The AVX2 target list deliberately omits FMA — with the ISA absent the
// compiler cannot fuse the mul+add pairs. AVX-512F does carry FMA
// encodings, so for the zmm body -ffp-contract=off (src/CMakeLists.txt) is
// what keeps every result bit-identical to the scalar chains (see simd.h);
// the fp_contract_objdump ctest fails if a fused multiply-add ever appears
// in libmamdr_tensor.a.
#ifdef MAMDR_SIMD_X86
#include <immintrin.h>
#define MAMDR_TARGET_AVX2 __attribute__((target("avx2")))
#define MAMDR_TARGET_AVX512 __attribute__((target("avx512f")))
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

Level CpuLevel() {
#ifdef MAMDR_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

Level DetectedLevel() {
  static const Level level = CpuLevel();
  return level;
}

#ifdef MAMDR_SIMD_X86

// One C row over one k-block [kb, kmax) with AVX2: four 8-lane accumulators
// cover the same kTileJ = 32 C elements the scalar kernel keeps in
// registers, then an 8-wide tail, then the scalar chain. Each lane is one
// C(i, j) chain receiving its k-terms in ascending order via broadcast
// mul + add — never FMA — so every output bit matches the scalar body.
// Always inlined, into the AVX2 panel and into the AVX-512 panel's
// leftover rows (AVX-512F implies AVX2, so the inline is legal there).
MAMDR_TARGET_AVX2 inline __attribute__((always_inline)) void PanelRowAvx2(
    const float* abase, int64_t sa_k, const float* pb, float* crow,
    int64_t n, int64_t kb, int64_t kmax) {
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
      c1 = _mm256_add_ps(c1, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 8)));
      c2 = _mm256_add_ps(c2, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 16)));
      c3 = _mm256_add_ps(c3, _mm256_mul_ps(av, _mm256_loadu_ps(brow + 24)));
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
      c0 = _mm256_add_ps(c0,
                         _mm256_mul_ps(av, _mm256_loadu_ps(pb + kk * n + j)));
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

// The elementwise kernels run eight elements per iteration and hand the
// ragged tail (< 8 elements) to the scalar body, so every element gets the
// scalar expression, lane for lane.

MAMDR_TARGET_AVX2
void ReluForwardAvx2(const float* x, float* out, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // maxps(a, b) is `a > b ? a : b`: NaN and ±0 ties yield +0.
    _mm256_storeu_ps(out + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  }
  internal::ReluForwardScalar(x + i, out + i, n - i);
}

MAMDR_TARGET_AVX2
void ReluBackwardAvx2(const float* v, const float* g, float* gi, int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 pos =
        _mm256_cmp_ps(_mm256_loadu_ps(v + i), zero, _CMP_GT_OQ);
    const __m256 add = _mm256_and_ps(pos, _mm256_loadu_ps(g + i));
    _mm256_storeu_ps(gi + i, _mm256_add_ps(_mm256_loadu_ps(gi + i), add));
  }
  internal::ReluBackwardScalar(v + i, g + i, gi + i, n - i);
}

MAMDR_TARGET_AVX2
void AdamUpdateAvx2(const AdamStep& s, const float* g, float* m, float* v,
                    float* w, int64_t n) {
  const __m256 b1 = _mm256_set1_ps(s.beta1);
  const __m256 c1 = _mm256_set1_ps(1.0f - s.beta1);
  const __m256 b2 = _mm256_set1_ps(s.beta2);
  const __m256 c2 = _mm256_set1_ps(1.0f - s.beta2);
  const __m256 bc1 = _mm256_set1_ps(s.bc1);
  const __m256 bc2 = _mm256_set1_ps(s.bc2);
  const __m256 lr = _mm256_set1_ps(s.lr);
  const __m256 eps = _mm256_set1_ps(s.eps);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 mv = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(c1, gv));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(c2, gv), gv));
    _mm256_storeu_ps(m + i, mv);
    _mm256_storeu_ps(v + i, vv);
    const __m256 mhat = _mm256_div_ps(mv, bc1);
    const __m256 vhat = _mm256_div_ps(vv, bc2);
    const __m256 step =
        _mm256_div_ps(_mm256_mul_ps(lr, mhat),
                      _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  internal::AdamUpdateScalar(s, g + i, m + i, v + i, w + i, n - i);
}

MAMDR_TARGET_AVX2
void AdagradUpdateAvx2(float lr, float eps, const float* g, float* acc,
                       float* w, int64_t n) {
  const __m256 lrv = _mm256_set1_ps(lr);
  const __m256 epsv = _mm256_set1_ps(eps);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gv = _mm256_loadu_ps(g + i);
    const __m256 av =
        _mm256_add_ps(_mm256_loadu_ps(acc + i), _mm256_mul_ps(gv, gv));
    _mm256_storeu_ps(acc + i, av);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lrv, gv), _mm256_add_ps(_mm256_sqrt_ps(av), epsv));
    _mm256_storeu_ps(w + i, _mm256_sub_ps(_mm256_loadu_ps(w + i), step));
  }
  internal::AdagradUpdateScalar(lr, eps, g + i, acc + i, w + i, n - i);
}

#endif  // MAMDR_SIMD_X86

}  // namespace

namespace internal {

#ifdef MAMDR_SIMD_X86

MAMDR_TARGET_AVX2
void MatMulPanelAvx2(const float* pa, int64_t sa_i, int64_t sa_k,
                     const float* pb, float* pc, int64_t k, int64_t n,
                     int64_t r0, int64_t r1) {
  for (int64_t ib = r0; ib < r1; ib += kBlockM) {
    const int64_t imax = ib + kBlockM < r1 ? ib + kBlockM : r1;
    for (int64_t kb = 0; kb < k; kb += kBlockK) {
      const int64_t kmax = kb + kBlockK < k ? kb + kBlockK : k;
      for (int64_t i = ib; i < imax; ++i) {
        PanelRowAvx2(pa + i * sa_i, sa_k, pb, pc + i * n, n, kb, kmax);
      }
    }
  }
}

// AVX-512 panel kernel: a register tile of kTileRows C rows x kTileJ
// columns in eight 16-lane accumulators, so each B load feeds four rows
// and each broadcast of A feeds two vectors. Every lane is still one
// C(i, j) chain that receives its k-terms in ascending order through a
// separate mul and add. Leftover columns (< kTileJ) run masked 16-lane
// vectors: a masked-off lane's memory is neither read nor written, and on
// an AVX-512 Xeon this beat the scalar chain on the 1- and 16-column
// shapes the models use. Leftover rows (< kTileRows) take the AVX2 row
// body for the same k-block.
MAMDR_TARGET_AVX512
void MatMulPanelAvx512(const float* pa, int64_t sa_i, int64_t sa_k,
                       const float* pb, float* pc, int64_t k, int64_t n,
                       int64_t r0, int64_t r1) {
  constexpr int64_t kTileRows = 4;
  for (int64_t ib = r0; ib < r1; ib += kBlockM) {
    const int64_t imax = ib + kBlockM < r1 ? ib + kBlockM : r1;
    for (int64_t kb = 0; kb < k; kb += kBlockK) {
      const int64_t kmax = kb + kBlockK < k ? kb + kBlockK : k;
      int64_t i = ib;
      for (; i + kTileRows <= imax; i += kTileRows) {
        const float* a0 = pa + i * sa_i;
        const float* a1 = a0 + sa_i;
        const float* a2 = a1 + sa_i;
        const float* a3 = a2 + sa_i;
        float* c0 = pc + i * n;
        float* c1 = c0 + n;
        float* c2 = c1 + n;
        float* c3 = c2 + n;
        int64_t j = 0;
        for (; j + kTileJ <= n; j += kTileJ) {
          __m512 c00 = _mm512_loadu_ps(c0 + j);
          __m512 c01 = _mm512_loadu_ps(c0 + j + 16);
          __m512 c10 = _mm512_loadu_ps(c1 + j);
          __m512 c11 = _mm512_loadu_ps(c1 + j + 16);
          __m512 c20 = _mm512_loadu_ps(c2 + j);
          __m512 c21 = _mm512_loadu_ps(c2 + j + 16);
          __m512 c30 = _mm512_loadu_ps(c3 + j);
          __m512 c31 = _mm512_loadu_ps(c3 + j + 16);
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const float* brow = pb + kk * n + j;
            const __m512 b0 = _mm512_loadu_ps(brow);
            const __m512 b1 = _mm512_loadu_ps(brow + 16);
            const int64_t ak = kk * sa_k;
            __m512 av = _mm512_set1_ps(a0[ak]);
            c00 = _mm512_add_ps(c00, _mm512_mul_ps(av, b0));
            c01 = _mm512_add_ps(c01, _mm512_mul_ps(av, b1));
            av = _mm512_set1_ps(a1[ak]);
            c10 = _mm512_add_ps(c10, _mm512_mul_ps(av, b0));
            c11 = _mm512_add_ps(c11, _mm512_mul_ps(av, b1));
            av = _mm512_set1_ps(a2[ak]);
            c20 = _mm512_add_ps(c20, _mm512_mul_ps(av, b0));
            c21 = _mm512_add_ps(c21, _mm512_mul_ps(av, b1));
            av = _mm512_set1_ps(a3[ak]);
            c30 = _mm512_add_ps(c30, _mm512_mul_ps(av, b0));
            c31 = _mm512_add_ps(c31, _mm512_mul_ps(av, b1));
          }
          _mm512_storeu_ps(c0 + j, c00);
          _mm512_storeu_ps(c0 + j + 16, c01);
          _mm512_storeu_ps(c1 + j, c10);
          _mm512_storeu_ps(c1 + j + 16, c11);
          _mm512_storeu_ps(c2 + j, c20);
          _mm512_storeu_ps(c2 + j + 16, c21);
          _mm512_storeu_ps(c3 + j, c30);
          _mm512_storeu_ps(c3 + j + 16, c31);
        }
        for (; j < n; j += 16) {  // masked ragged tail, same chains
          const int64_t left = n - j;
          const __mmask16 mask =
              left >= 16 ? static_cast<__mmask16>(0xFFFF)
                         : static_cast<__mmask16>((1u << left) - 1u);
          __m512 t0 = _mm512_maskz_loadu_ps(mask, c0 + j);
          __m512 t1 = _mm512_maskz_loadu_ps(mask, c1 + j);
          __m512 t2 = _mm512_maskz_loadu_ps(mask, c2 + j);
          __m512 t3 = _mm512_maskz_loadu_ps(mask, c3 + j);
          for (int64_t kk = kb; kk < kmax; ++kk) {
            const __m512 b = _mm512_maskz_loadu_ps(mask, pb + kk * n + j);
            const int64_t ak = kk * sa_k;
            t0 = _mm512_add_ps(t0, _mm512_mul_ps(_mm512_set1_ps(a0[ak]), b));
            t1 = _mm512_add_ps(t1, _mm512_mul_ps(_mm512_set1_ps(a1[ak]), b));
            t2 = _mm512_add_ps(t2, _mm512_mul_ps(_mm512_set1_ps(a2[ak]), b));
            t3 = _mm512_add_ps(t3, _mm512_mul_ps(_mm512_set1_ps(a3[ak]), b));
          }
          _mm512_mask_storeu_ps(c0 + j, mask, t0);
          _mm512_mask_storeu_ps(c1 + j, mask, t1);
          _mm512_mask_storeu_ps(c2 + j, mask, t2);
          _mm512_mask_storeu_ps(c3 + j, mask, t3);
        }
      }
      for (; i < imax; ++i) {
        PanelRowAvx2(pa + i * sa_i, sa_k, pb, pc + i * n, n, kb, kmax);
      }
    }
  }
}

#endif  // MAMDR_SIMD_X86

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

void ReluForwardScalar(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void ReluBackwardScalar(const float* v, const float* g, float* gi,
                        int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    // Loading g unconditionally lets the compiler select with a mask
    // instead of a branch that mispredicts on every sign change.
    const float gv = g[i];
    gi[i] += v[i] > 0.0f ? gv : 0.0f;
  }
}

void AdamUpdateScalar(const AdamStep& s, const float* g, float* m, float* v,
                      float* w, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    m[i] = s.beta1 * m[i] + (1.0f - s.beta1) * g[i];
    v[i] = s.beta2 * v[i] + (1.0f - s.beta2) * g[i] * g[i];
    const float mhat = m[i] / s.bc1;
    const float vhat = v[i] / s.bc2;
    w[i] -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
  }
}

void AdagradUpdateScalar(float lr, float eps, const float* g, float* acc,
                         float* w, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    acc[i] += g[i] * g[i];
    w[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
  }
}

}  // namespace internal

Level CompiledLevel() {
#ifdef MAMDR_SIMD_X86
  return Level::kAvx512;
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
  switch (level) {
    case Level::kAvx512:
      return "avx512";
    case Level::kAvx2:
      return "avx2";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

void MatMulPanel(const float* pa, int64_t sa_i, int64_t sa_k,
                 const float* pb, float* pc, int64_t k, int64_t n,
                 int64_t r0, int64_t r1) {
#ifdef MAMDR_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx512:
      internal::MatMulPanelAvx512(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
      return;
    case Level::kAvx2:
      internal::MatMulPanelAvx2(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
      return;
    case Level::kScalar:
      break;
  }
#endif
  internal::MatMulPanelScalar(pa, sa_i, sa_k, pb, pc, k, n, r0, r1);
}

// The elementwise kernels have no zmm body (see simd.h), so they take the
// AVX2 body at either wide level, else the scalar reference body.
#ifdef MAMDR_SIMD_X86
#define MAMDR_SIMD_DISPATCH(kernel, ...)            \
  if (ActiveLevel() >= Level::kAvx2) {              \
    kernel##Avx2(__VA_ARGS__);                      \
    return;                                         \
  }                                                 \
  internal::kernel##Scalar(__VA_ARGS__)
#else
#define MAMDR_SIMD_DISPATCH(kernel, ...) internal::kernel##Scalar(__VA_ARGS__)
#endif

void ReluForward(const float* x, float* out, int64_t n) {
  MAMDR_SIMD_DISPATCH(ReluForward, x, out, n);
}

void ReluBackward(const float* v, const float* g, float* gi, int64_t n) {
  MAMDR_SIMD_DISPATCH(ReluBackward, v, g, gi, n);
}

void AdamUpdate(const AdamStep& s, const float* g, float* m, float* v,
                float* w, int64_t n) {
  MAMDR_SIMD_DISPATCH(AdamUpdate, s, g, m, v, w, n);
}

void AdagradUpdate(float lr, float eps, const float* g, float* acc, float* w,
                   int64_t n) {
  MAMDR_SIMD_DISPATCH(AdagradUpdate, lr, eps, g, acc, w, n);
}

#undef MAMDR_SIMD_DISPATCH

}  // namespace simd
}  // namespace ops
}  // namespace mamdr
