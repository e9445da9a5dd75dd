/* GF(2^8) slice multiplication: one portable loop, the byte-shuffle
 * SIMD loops and the GFNI affine loop, over the same tables and entry
 * points.
 *
 * Every loop consumes one 40-byte entry per coefficient c (built by
 * Gf256.Kernel): bytes 0..31 are its SPLIT(8,4) pair from
 * Gf256.Field.split_tables, bytes 0..15 the products of the low nibble
 * and 16..31 those of the high nibble, so c * s = lo[s & 15] ^
 * hi[s >> 4]; bytes 32..39 are c's 8x8 bit matrix. A byte shuffle
 * (SSSE3 pshufb / NEON tbl) applies one 16-entry table to 16 (or 32)
 * source bytes per instruction — the ISA-L / klauspost technique.
 * GFNI's vgf2p8affineqb instead multiplies 64 bytes by the matrix in
 * one instruction.
 *
 * Every entry point takes the SIMD level to run at as its first
 * argument: 0 is the portable nibble-table loop (always available),
 * 1 SSSE3 or NEON (16 B per step), 2 AVX2 (32 B per step),
 * 3 AVX-512BW + GFNI (64 B per step, masked tails).
 * gf256_simd_level probes the highest level this CPU supports; the
 * OCaml side never passes more. The x86 paths are compiled with
 * per-function target attributes so no global -mavx2 / -mgfni flags
 * are needed; they need a GCC or clang that knows the GFNI intrinsics
 * (GCC 8 and later). On other architectures only level 0 exists.
 *
 * All stubs are [@@noalloc]: they never allocate, raise, or touch the
 * OCaml heap beyond reading Bytes/string payloads. Length and
 * table-size validation happens on the OCaml side (Gf256.Kernel).
 */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* Bytes per coefficient entry, and the matrix's offset in one. */
#define ENTRY 40
#define MATRIX 32

#if defined(__x86_64__) || defined(_M_X64)
#define GF256_X86 1
#if defined(__GNUC__) || defined(__clang__)
#include <immintrin.h>
#define GF256_X86_SIMD 1
#endif
#elif defined(__aarch64__) || defined(_M_ARM64)
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#define GF256_NEON 1
#endif
#endif

/* ------------------------------------------------------------------ */
/* Portable pass (level 0, and the tails of the SIMD passes)          */
/* ------------------------------------------------------------------ */

static void scalar_pass(uint8_t *dst, const uint8_t *src,
                        const uint8_t *tbl, long from, long len, int set) {
  const uint8_t *lo = tbl, *hi = tbl + 16;
  long i;
  if (set) {
    for (i = from; i < len; i++)
      dst[i] = (uint8_t)(lo[src[i] & 15] ^ hi[src[i] >> 4]);
  } else {
    for (i = from; i < len; i++)
      dst[i] ^= (uint8_t)(lo[src[i] & 15] ^ hi[src[i] >> 4]);
  }
}

/* ------------------------------------------------------------------ */
/* x86: SSSE3, AVX2 and AVX-512BW + GFNI                              */
/* ------------------------------------------------------------------ */

#ifdef GF256_X86_SIMD

__attribute__((target("ssse3"))) static void
ssse3_pass(uint8_t *dst, const uint8_t *src, const uint8_t *tbl, long len,
           int set) {
  const __m128i lo = _mm_loadu_si128((const __m128i *)tbl);
  const __m128i hi = _mm_loadu_si128((const __m128i *)(tbl + 16));
  const __m128i mask = _mm_set1_epi8(0x0f);
  long i = 0;
  for (; i + 16 <= len; i += 16) {
    __m128i s = _mm_loadu_si128((const __m128i *)(src + i));
    __m128i sl = _mm_and_si128(s, mask);
    __m128i sh = _mm_and_si128(_mm_srli_epi16(s, 4), mask);
    __m128i prod =
        _mm_xor_si128(_mm_shuffle_epi8(lo, sl), _mm_shuffle_epi8(hi, sh));
    if (!set)
      prod = _mm_xor_si128(prod, _mm_loadu_si128((const __m128i *)(dst + i)));
    _mm_storeu_si128((__m128i *)(dst + i), prod);
  }
  scalar_pass(dst, src, tbl, i, len, set);
}

__attribute__((target("avx2"))) static void
avx2_pass(uint8_t *dst, const uint8_t *src, const uint8_t *tbl, long len,
          int set) {
  const __m256i lo =
      _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tbl));
  const __m256i hi =
      _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(tbl + 16)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  long i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i s0 = _mm256_loadu_si256((const __m256i *)(src + i));
    __m256i s1 = _mm256_loadu_si256((const __m256i *)(src + i + 32));
    __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s0, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi16(s0, 4), mask)));
    __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s1, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi16(s1, 4), mask)));
    if (!set) {
      p0 = _mm256_xor_si256(p0,
                            _mm256_loadu_si256((const __m256i *)(dst + i)));
      p1 = _mm256_xor_si256(
          p1, _mm256_loadu_si256((const __m256i *)(dst + i + 32)));
    }
    _mm256_storeu_si256((__m256i *)(dst + i), p0);
    _mm256_storeu_si256((__m256i *)(dst + i + 32), p1);
  }
  for (; i + 32 <= len; i += 32) {
    __m256i s = _mm256_loadu_si256((const __m256i *)(src + i));
    __m256i prod = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi16(s, 4), mask)));
    if (!set)
      prod = _mm256_xor_si256(prod,
                              _mm256_loadu_si256((const __m256i *)(dst + i)));
    _mm256_storeu_si256((__m256i *)(dst + i), prod);
  }
  _mm256_zeroupper();
  scalar_pass(dst, src, tbl, i, len, set);
}

/* Fused-rows inner loop, 128-byte destination tiles. For each tile of
 * a parity row the four 32-byte accumulators stay in ymm registers
 * across all k sources, so the row is written exactly once per tile
 * instead of read-modify-written once per source. The per-source cost
 * is two 16-byte table loads (re-broadcast per tile) — amortised over
 * 128 bytes that is far cheaper than the 256 bytes of destination
 * traffic it replaces. */
__attribute__((target("avx2"))) static void
avx2_rows_tile(uint8_t *dst, value srcs, const uint8_t *trow, long k, long i,
               int acc) {
  const __m256i mask = _mm256_set1_epi8(0x0f);
  __m256i a0, a1, a2, a3;
  long j;
  if (acc) {
    a0 = _mm256_loadu_si256((const __m256i *)(dst + i));
    a1 = _mm256_loadu_si256((const __m256i *)(dst + i + 32));
    a2 = _mm256_loadu_si256((const __m256i *)(dst + i + 64));
    a3 = _mm256_loadu_si256((const __m256i *)(dst + i + 96));
  } else {
    a0 = a1 = a2 = a3 = _mm256_setzero_si256();
  }
  for (j = 0; j < k; j++) {
    const uint8_t *tbl = trow + j * ENTRY;
    const __m256i lo =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)tbl));
    const __m256i hi =
        _mm256_broadcastsi128_si256(_mm_loadu_si128((const __m128i *)(tbl + 16)));
    const uint8_t *src = Bytes_val(Field(srcs, j)) + i;
    __m256i s0 = _mm256_loadu_si256((const __m256i *)src);
    __m256i s1 = _mm256_loadu_si256((const __m256i *)(src + 32));
    __m256i s2 = _mm256_loadu_si256((const __m256i *)(src + 64));
    __m256i s3 = _mm256_loadu_si256((const __m256i *)(src + 96));
    a0 = _mm256_xor_si256(
        a0, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s0, mask)),
                _mm256_shuffle_epi8(
                    hi, _mm256_and_si256(_mm256_srli_epi16(s0, 4), mask))));
    a1 = _mm256_xor_si256(
        a1, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s1, mask)),
                _mm256_shuffle_epi8(
                    hi, _mm256_and_si256(_mm256_srli_epi16(s1, 4), mask))));
    a2 = _mm256_xor_si256(
        a2, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s2, mask)),
                _mm256_shuffle_epi8(
                    hi, _mm256_and_si256(_mm256_srli_epi16(s2, 4), mask))));
    a3 = _mm256_xor_si256(
        a3, _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(s3, mask)),
                _mm256_shuffle_epi8(
                    hi, _mm256_and_si256(_mm256_srli_epi16(s3, 4), mask))));
  }
  _mm256_storeu_si256((__m256i *)(dst + i), a0);
  _mm256_storeu_si256((__m256i *)(dst + i + 32), a1);
  _mm256_storeu_si256((__m256i *)(dst + i + 64), a2);
  _mm256_storeu_si256((__m256i *)(dst + i + 96), a3);
}

#define GFNI_TARGET "avx512f,avx512bw,gfni"

/* The entry's matrix in every qword of a zmm register. */
__attribute__((target(GFNI_TARGET))) static inline __m512i
gfni_matrix(const uint8_t *tbl) {
  uint64_t m;
  memcpy(&m, tbl + MATRIX, 8);
  return _mm512_set1_epi64((long long)m);
}

/* One coefficient over the whole slice, 64 bytes per step; the last
 * partial step is a masked load and store, so there is no scalar
 * tail. */
__attribute__((target(GFNI_TARGET))) static void
gfni_pass(uint8_t *dst, const uint8_t *src, const uint8_t *tbl, long len,
          int set) {
  const __m512i a = gfni_matrix(tbl);
  long i = 0;
  for (; i + 64 <= len; i += 64) {
    __m512i p = _mm512_gf2p8affine_epi64_epi8(
        _mm512_loadu_si512((const void *)(src + i)), a, 0);
    if (!set)
      p = _mm512_xor_si512(p, _mm512_loadu_si512((const void *)(dst + i)));
    _mm512_storeu_si512((void *)(dst + i), p);
  }
  if (i < len) {
    const __mmask64 m = (1ULL << (len - i)) - 1;
    __m512i p = _mm512_gf2p8affine_epi64_epi8(
        _mm512_maskz_loadu_epi8(m, src + i), a, 0);
    if (!set) p = _mm512_xor_si512(p, _mm512_maskz_loadu_epi8(m, dst + i));
    _mm512_mask_storeu_epi8(dst + i, m, p);
  }
  _mm256_zeroupper();
}

/* Rows per pass of the fused map at level 3. */
#define GFNI_ROWS 4

/* Fused-rows inner loop at level 3: [g] rows (at most GFNI_ROWS) over
 * one 256-byte tile. The g x 4 accumulators (64 bytes each) stay in
 * zmm registers across all k sources, and each source's 256 bytes are
 * loaded once for all g rows, so a tile reads its sources once per
 * pass and writes each row once. [g] is a constant at every call site,
 * so the loops over rows and 64-byte lanes unroll into registers. */
__attribute__((target(GFNI_TARGET), always_inline)) static inline void
gfni_tile(uint8_t *const *dst, value srcs, const uint8_t *rows, long k,
          long i, int acc, const int g) {
  __m512i a[GFNI_ROWS][4], s[4];
  long j;
  int q, t;
#pragma GCC unroll 4
  for (q = 0; q < g; q++)
#pragma GCC unroll 4
    for (t = 0; t < 4; t++)
      a[q][t] = acc ? _mm512_loadu_si512((const void *)(dst[q] + i + 64 * t))
                    : _mm512_setzero_si512();
  for (j = 0; j < k; j++) {
    const uint8_t *src = Bytes_val(Field(srcs, j)) + i;
#pragma GCC unroll 4
    for (t = 0; t < 4; t++)
      s[t] = _mm512_loadu_si512((const void *)(src + 64 * t));
#pragma GCC unroll 4
    for (q = 0; q < g; q++) {
      const __m512i m = gfni_matrix(rows + (q * k + j) * ENTRY);
#pragma GCC unroll 4
      for (t = 0; t < 4; t++)
        a[q][t] = _mm512_xor_si512(a[q][t],
                                   _mm512_gf2p8affine_epi64_epi8(s[t], m, 0));
    }
  }
#pragma GCC unroll 4
  for (q = 0; q < g; q++)
#pragma GCC unroll 4
    for (t = 0; t < 4; t++)
      _mm512_storeu_si512((void *)(dst[q] + i + 64 * t), a[q][t]);
}

/* The fused map over [0, tiled), tiled a multiple of 256, in passes of
 * up to GFNI_ROWS rows. */
__attribute__((target(GFNI_TARGET))) static void
gfni_rows(const uint8_t *tb, value srcs, value dsts, long k, long r,
          long tiled, int acc) {
  uint8_t *dst[GFNI_ROWS];
  long p, i;
  int g, q;
  for (p = 0; p < r; p += g) {
    const uint8_t *rows = tb + p * k * ENTRY;
    g = r - p < GFNI_ROWS ? (int)(r - p) : GFNI_ROWS;
    for (q = 0; q < g; q++) dst[q] = Bytes_val(Field(dsts, p + q));
    for (i = 0; i < tiled; i += 256) switch (g) {
      case 4: gfni_tile(dst, srcs, rows, k, i, acc, 4); break;
      case 3: gfni_tile(dst, srcs, rows, k, i, acc, 3); break;
      case 2: gfni_tile(dst, srcs, rows, k, i, acc, 2); break;
      default: gfni_tile(dst, srcs, rows, k, i, acc, 1); break;
      }
  }
  _mm256_zeroupper();
}

#endif /* GF256_X86_SIMD */

/* ------------------------------------------------------------------ */
/* aarch64: NEON                                                       */
/* ------------------------------------------------------------------ */

#ifdef GF256_NEON

static void neon_pass(uint8_t *dst, const uint8_t *src, const uint8_t *tbl,
                      long len, int set) {
  const uint8x16_t lo = vld1q_u8(tbl);
  const uint8x16_t hi = vld1q_u8(tbl + 16);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  long i = 0;
  for (; i + 16 <= len; i += 16) {
    uint8x16_t s = vld1q_u8(src + i);
    uint8x16_t prod = veorq_u8(vqtbl1q_u8(lo, vandq_u8(s, mask)),
                               vqtbl1q_u8(hi, vshrq_n_u8(s, 4)));
    if (!set) prod = veorq_u8(prod, vld1q_u8(dst + i));
    vst1q_u8(dst + i, prod);
  }
  scalar_pass(dst, src, tbl, i, len, set);
}

#endif /* GF256_NEON */

/* ------------------------------------------------------------------ */
/* Dispatch on the level the caller passes                             */
/* ------------------------------------------------------------------ */

static int detect_level(void) {
#if defined(GF256_X86_SIMD)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("gfni"))
    return 3;
  if (__builtin_cpu_supports("avx2")) return 2;
  if (__builtin_cpu_supports("ssse3")) return 1;
  return 0;
#elif defined(GF256_NEON)
  return 1;
#else
  return 0;
#endif
}

static void mul_pass(int level, uint8_t *dst, const uint8_t *src,
                     const uint8_t *tbl, long len, int set) {
#if defined(GF256_X86_SIMD)
  switch (level) {
  case 3: gfni_pass(dst, src, tbl, len, set); return;
  case 2: avx2_pass(dst, src, tbl, len, set); return;
  case 1: ssse3_pass(dst, src, tbl, len, set); return;
  default: break;
  }
#elif defined(GF256_NEON)
  if (level >= 1) { neon_pass(dst, src, tbl, len, set); return; }
#else
  (void)level;
#endif
  scalar_pass(dst, src, tbl, 0, len, set);
}

/* ------------------------------------------------------------------ */
/* OCaml entry points                                                  */
/* ------------------------------------------------------------------ */

CAMLprim value gf256_simd_level(value unit) {
  (void)unit;
  return Val_long(detect_level());
}

/* dst ^= c * src  /  dst = c * src; tbl is c's 40-byte entry. */
CAMLprim value gf256_mul_acc_stub(value vlevel, value dst, value src,
                                  value tbl, value vlen) {
  mul_pass(Int_val(vlevel), Bytes_val(dst), Bytes_val(src), Bytes_val(tbl),
           Long_val(vlen), 0);
  return Val_unit;
}

CAMLprim value gf256_mul_set_stub(value vlevel, value dst, value src,
                                  value tbl, value vlen) {
  mul_pass(Int_val(vlevel), Bytes_val(dst), Bytes_val(src), Bytes_val(tbl),
           Long_val(vlen), 1);
  return Val_unit;
}

/* Fused r x k linear map: dsts[p] (+)= sum_j tbls[p*k+j](srcs[j]).
 * [tbls] is one string of r*k 40-byte entries; [srcs]/[dsts] are arrays
 * of Bytes (payload pointers are stable: no allocation happens here).
 * When [acc] is 0 row p is overwritten by its j = 0 term; when 1 the
 * whole map accumulates into the existing dsts. Each (p, j) pass
 * streams src once and read-modify-writes dst from L1 — with the
 * tables held in registers this is the ISA-L "vect_mad" shape. */
CAMLprim value gf256_rows_apply_native(value vlevel, value tbls, value srcs,
                                       value dsts, value vk, value vr,
                                       value vlen, value vacc) {
  long k = Long_val(vk), r = Long_val(vr), len = Long_val(vlen);
  int level = Int_val(vlevel), acc = Int_val(vacc);
  const uint8_t *tb = Bytes_val(tbls);
  long tiled = 0;
  long p, j, i;
#if defined(GF256_X86_SIMD)
  if (level == 3) {
    tiled = len & ~255L;
    gfni_rows(tb, srcs, dsts, k, r, tiled, acc);
  } else if (level == 2) {
    tiled = len & ~127L;
    for (p = 0; p < r; p++) {
      uint8_t *dst = Bytes_val(Field(dsts, p));
      const uint8_t *trow = tb + p * k * ENTRY;
      for (i = 0; i < tiled; i += 128)
        avx2_rows_tile(dst, srcs, trow, k, i, acc);
    }
  }
#else
  (void)i;
#endif
  if (tiled < len) {
    for (p = 0; p < r; p++) {
      uint8_t *dst = Bytes_val(Field(dsts, p));
      for (j = 0; j < k; j++) {
        const uint8_t *src = Bytes_val(Field(srcs, j));
        const uint8_t *tbl = tb + (p * k + j) * ENTRY;
        mul_pass(level, dst + tiled, src + tiled, tbl, len - tiled,
                 (!acc && j == 0) ? 1 : 0);
      }
    }
  }
  return Val_unit;
}

CAMLprim value gf256_rows_apply_bytecode(value *argv, int argn) {
  (void)argn;
  return gf256_rows_apply_native(argv[0], argv[1], argv[2], argv[3], argv[4],
                                 argv[5], argv[6], argv[7]);
}
