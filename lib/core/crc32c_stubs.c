/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial value
 * and final xor 0xFFFFFFFF) over a whole Bytes payload: the version
 * log's entry checksum (Core.Crc32c, Core.Slog.checksum).
 *
 * Three paths that compute the same value, numbered as the OCaml side
 * names them (Core.Crc32c.kernel):
 * - 2, x86-64 with AVX-512F and VPCLMULQDQ: carry-less multiplication
 *   folds four 512-bit accumulators forward 256 bytes per step (below);
 *   the last 16 bytes of folded state, and a tail under 16 bytes, go
 *   through the crc32 instruction of path 1;
 * - 1, x86-64 with SSE4.2: the crc32 instruction. It has a 3-cycle
 *   latency and a 1-cycle throughput, so one dependent chain leaves two
 *   thirds of the unit idle: the buffer is cut into three adjacent
 *   chunks (3 x 8 KiB, then 3 x 256 B), hashed as three interleaved
 *   chains, and the chains are merged with zero-byte shift tables
 *   (below). The tail is one chain, 8 bytes per step;
 * - 0, everywhere: a portable slicing-by-8 table loop (eight 256-entry
 *   tables, one 8-byte step per eight lookups).
 * The x86 paths are compiled with per-function target attributes, so
 * no global -msse4.2 / -mavx512f flag is needed; they need a GCC or
 * clang that knows the VPCLMULQDQ intrinsics (GCC 8 and later).
 *
 * fab_crc32c_init builds the tables and constants and probes the CPU
 * once; the OCaml side calls it while its module initialises, before
 * any domain can hash, so they are read-only afterwards.
 *
 * All stubs are [@@noalloc]: they never allocate, raise, or touch the
 * OCaml heap beyond reading a Bytes payload.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CRC32C_X86 1
#endif

#define POLY 0x82F63B78u

static uint32_t table[8][256];
static int level = 0; /* the probed path: 0, 1 or 2 */

/* Chunk lengths of the three-stream loop, in bytes (multiples of 8). */
#define LONG_CHUNK 8192
#define SHORT_CHUNK 256

/* ------------------------------------------------------------------ */
/* Portable slicing-by-8                                               */
/* ------------------------------------------------------------------ */

static void build_tables(void) {
  uint32_t i, k, c;
  for (i = 0; i < 256; i++) {
    c = i;
    for (k = 0; k < 8; k++) c = (c >> 1) ^ (POLY & (0u - (c & 1)));
    table[0][i] = c;
  }
  for (i = 0; i < 256; i++)
    for (k = 1; k < 8; k++)
      table[k][i] = (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xff];
}

static inline uint32_t load32_le(const uint8_t *p) {
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
         (uint32_t)p[3] << 24;
}

static uint32_t crc_portable(const uint8_t *p, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = load32_le(p) ^ crc, hi = load32_le(p + 4);
    crc = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff] ^
          table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24] ^
          table[3][hi & 0xff] ^ table[2][(hi >> 8) & 0xff] ^
          table[1][(hi >> 16) & 0xff] ^ table[0][hi >> 24];
  }
  for (; len > 0; p++, len--) crc = (crc >> 8) ^ table[0][(crc ^ *p) & 0xff];
  return ~crc;
}

/* ------------------------------------------------------------------ */
/* x86-64: SSE4.2 crc32                                                */
/* ------------------------------------------------------------------ */

#ifdef CRC32C_X86

/* The raw CRC register (no initial or final xor) is linear over GF(2)
 * in the register and the data together, so hashing A then B from
 * register r gives shift_|B|(crc(r, A)) xor crc(0, B), where shift_n
 * is the register fed n zero bytes: a fixed linear map of 32 bits,
 * applied here as four byte-indexed tables built once at init. */
static uint32_t shift_long[4][256], shift_short[4][256];

static uint32_t zero_bytes(uint32_t crc, size_t n) {
  for (; n > 0; n--) crc = (crc >> 8) ^ table[0][crc & 0xff];
  return crc;
}

/* Each table entry is the xor of the images of its set bits. */
static void build_shift(uint32_t t[4][256], size_t n) {
  uint32_t k, b, i, v;
  for (k = 0; k < 4; k++) {
    t[k][0] = 0;
    for (b = 0; b < 8; b++) {
      v = zero_bytes(1u << (8 * k + b), n);
      for (i = 0; i < (1u << b); i++) t[k][(1u << b) | i] = t[k][i] ^ v;
    }
  }
}

static inline uint32_t shift(const uint32_t t[4][256], uint32_t crc) {
  return t[0][crc & 0xff] ^ t[1][(crc >> 8) & 0xff] ^
         t[2][(crc >> 16) & 0xff] ^ t[3][crc >> 24];
}

/* Three chains over p[0, n), p[n, 2n), p[2n, 3n), the first continuing
 * from [crc]; returns the register after all 3n bytes. */
__attribute__((target("sse4.2"))) static inline uint64_t
three_chunks(uint64_t crc, const uint8_t *p, size_t n,
             const uint32_t t[4][256]) {
  uint64_t b = 0, c = 0, w0, w1, w2;
  const uint8_t *end = p + n;
  for (; p < end; p += 8) {
    memcpy(&w0, p, 8);
    memcpy(&w1, p + n, 8);
    memcpy(&w2, p + 2 * n, 8);
    crc = _mm_crc32_u64(crc, w0);
    b = _mm_crc32_u64(b, w1);
    c = _mm_crc32_u64(c, w2);
  }
  return shift(t, shift(t, (uint32_t)crc) ^ (uint32_t)b) ^ (uint32_t)c;
}

/* The register [crc] after hashing p[0, len). */
__attribute__((target("sse4.2"))) static uint64_t
crc_sse42(uint64_t crc, const uint8_t *p, size_t len) {
  uint64_t w;
  for (; len >= 3 * LONG_CHUNK; p += 3 * LONG_CHUNK, len -= 3 * LONG_CHUNK)
    crc = three_chunks(crc, p, LONG_CHUNK, shift_long);
  for (; len >= 3 * SHORT_CHUNK; p += 3 * SHORT_CHUNK, len -= 3 * SHORT_CHUNK)
    crc = three_chunks(crc, p, SHORT_CHUNK, shift_short);
  for (; len >= 8; p += 8, len -= 8) {
    memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  for (; len > 0; p++, len--) crc = _mm_crc32_u8((uint32_t)crc, *p);
  return crc;
}

/* Folding. Read a 128-bit lane as a polynomial of degree < 128 whose
 * first bit (bit 0 of byte 0) is the x^127 coefficient: its low qword
 * H holds x^127..x^64, its high qword L x^63..x^0. A lane d bits
 * before a later lane counts, at that later lane's place, as
 * (H x^64 + L) x^d, and modulo P that equals H (x^(d+64) mod P) +
 * L (x^d mod P): two 64 x 32-bit carry-less products, of degree < 96,
 * that fit one lane and are xored into the later lane. In this bit
 * order a product of two qwords lands one bit short of the lane's top,
 * so each constant carries one power of x less: the fold constant for
 * distance d is the pair (x^(d+63) mod P, x^(d-1) mod P), each in the
 * top half of its qword. The register is this same polynomial times
 * x^32 mod P, so the last folded lane reduces through two crc32
 * instructions from a zero register. */
static uint64_t k2048[2], k512[2], k128[2], k_lanes[8];

/* x^n mod P, bit-reflected (bit 31 is x^0): n single-bit steps of the
 * register, as build_tables takes eight per byte. */
static uint32_t xpow_mod(size_t n) {
  uint32_t v = 0x80000000u;
  for (; n > 0; n--) v = (v >> 1) ^ (POLY & (0u - (v & 1)));
  return v;
}

static void fold_consts(uint64_t k[2], size_t d) {
  k[0] = (uint64_t)xpow_mod(d + 63) << 32;
  k[1] = (uint64_t)xpow_mod(d - 1) << 32;
}

static void build_fold(void) {
  fold_consts(k2048, 2048);
  fold_consts(k512, 512);
  fold_consts(k128, 128);
  /* Lanes 0..2 of a 512-bit accumulator are 384, 256 and 128 bits from
   * its end; lane 3 is the end, and its zero constants drop it. */
  fold_consts(k_lanes, 384);
  fold_consts(k_lanes + 2, 256);
  fold_consts(k_lanes + 4, 128);
  k_lanes[6] = k_lanes[7] = 0;
}

#define CLMUL_TARGET "sse4.2,pclmul,avx512f,vpclmulqdq"

/* How far ahead of the fold loop to prefetch, in bytes. The loop
 * consumes 256 bytes in a few cycles, far faster than memory delivers
 * them, and a cold block crosses a page every 4 KiB, where the
 * hardware prefetcher starts over; asking for the lines a page ahead
 * keeps misses in flight across those boundaries. Hashing 64 KiB
 * blocks of a 64 MiB set in random order, on the 2-vCPU Emerald Rapids
 * host, it took a cold hash from 5.9-8.6 us to 3.1-5.9 us and left a
 * hot one (~0.85 us) as it was; 256 B, 1 KiB and 2 KiB ahead helped
 * less. Nothing past the end of the buffer is prefetched, so blocks of
 * at most 4 KiB take no prefetches. */
#define PREFETCH 4096

/* Every lane of x folded by k's distance, xored with d. */
__attribute__((target(CLMUL_TARGET))) static inline __m512i
fold512(__m512i x, __m512i k, __m512i d) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), d,
                                   0x96);
}

__attribute__((target(CLMUL_TARGET))) static uint64_t
crc_vpclmul(uint64_t crc, const uint8_t *p, size_t len) {
  const __m512i k1 = _mm512_broadcast_i32x4(_mm_loadu_si128((void *)k2048));
  const __m512i k4 = _mm512_broadcast_i32x4(_mm_loadu_si128((void *)k512));
  const __m128i k16 = _mm_loadu_si128((void *)k128);
  __m512i x0, x1, x2, x3, t;
  __m128i v;
  if (len < 64) return crc_sse42(crc, p, len);
  /* The register enters as the first 32 bits of data. */
  x0 = _mm512_xor_si512(_mm512_loadu_si512((const void *)p),
                        _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, (uint32_t)crc));
  if (len >= 256) {
    x1 = _mm512_loadu_si512((const void *)(p + 64));
    x2 = _mm512_loadu_si512((const void *)(p + 128));
    x3 = _mm512_loadu_si512((const void *)(p + 192));
    for (p += 256, len -= 256; len >= 256; p += 256, len -= 256) {
      if (len >= PREFETCH + 256) {
        _mm_prefetch((const char *)p + PREFETCH, _MM_HINT_T0);
        _mm_prefetch((const char *)p + PREFETCH + 64, _MM_HINT_T0);
        _mm_prefetch((const char *)p + PREFETCH + 128, _MM_HINT_T0);
        _mm_prefetch((const char *)p + PREFETCH + 192, _MM_HINT_T0);
      }
      x0 = fold512(x0, k1, _mm512_loadu_si512((const void *)p));
      x1 = fold512(x1, k1, _mm512_loadu_si512((const void *)(p + 64)));
      x2 = fold512(x2, k1, _mm512_loadu_si512((const void *)(p + 128)));
      x3 = fold512(x3, k1, _mm512_loadu_si512((const void *)(p + 192)));
    }
    x0 = fold512(x0, k4, x1);
    x0 = fold512(x0, k4, x2);
    x0 = fold512(x0, k4, x3);
  } else {
    p += 64;
    len -= 64;
  }
  for (; len >= 64; p += 64, len -= 64)
    x0 = fold512(x0, k4, _mm512_loadu_si512((const void *)p));
  /* Four lanes to one, then 16 bytes per step. */
  t = fold512(x0, _mm512_loadu_si512((const void *)k_lanes),
              _mm512_setzero_si512());
  v = _mm_xor_si128(_mm_xor_si128(_mm512_extracti32x4_epi32(t, 0),
                                  _mm512_extracti32x4_epi32(t, 1)),
                    _mm_xor_si128(_mm512_extracti32x4_epi32(t, 2),
                                  _mm512_extracti32x4_epi32(x0, 3)));
  for (; len >= 16; p += 16, len -= 16)
    v = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(v, k16, 0x00),
                                    _mm_clmulepi64_si128(v, k16, 0x11)),
                      _mm_loadu_si128((const void *)p));
  crc = _mm_crc32_u64(0, (uint64_t)_mm_cvtsi128_si64(v));
  crc = _mm_crc32_u64(crc, (uint64_t)_mm_extract_epi64(v, 1));
  _mm256_zeroupper();
  return crc_sse42(crc, p, len);
}

#endif /* CRC32C_X86 */

/* ------------------------------------------------------------------ */
/* OCaml entry points                                                  */
/* ------------------------------------------------------------------ */

CAMLprim value fab_crc32c_init(value unit) {
  (void)unit;
  build_tables();
#ifdef CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    level = 1;
    build_shift(shift_long, LONG_CHUNK);
    build_shift(shift_short, SHORT_CHUNK);
    if (__builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("vpclmulqdq")) {
      level = 2;
      build_fold();
    }
  }
#endif
  return Val_long(level);
}

/* The CRC32C of p[0, len) along path [l] (at most the probed level). */
static uint32_t crc_at(int l, const uint8_t *p, size_t len) {
#ifdef CRC32C_X86
  switch (l) {
  case 2: return ~(uint32_t)crc_vpclmul(0xFFFFFFFFu, p, len);
  case 1: return ~(uint32_t)crc_sse42(0xFFFFFFFFu, p, len);
  default: break;
  }
#else
  (void)l;
#endif
  return crc_portable(p, len);
}

CAMLprim value fab_crc32c(value b) {
  return Val_long(crc_at(level, Bytes_val(b), caml_string_length(b)));
}

CAMLprim value fab_crc32c_path(value vl, value b) {
  return Val_long(crc_at(Int_val(vl), Bytes_val(b), caml_string_length(b)));
}
