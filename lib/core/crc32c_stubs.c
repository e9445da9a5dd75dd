/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial value
 * and final xor 0xFFFFFFFF) over a whole Bytes payload: the version
 * log's entry checksum (Core.Crc32c, Core.Slog.checksum).
 *
 * Two paths that compute the same value:
 * - x86-64 with SSE4.2: the crc32 instruction, 8 bytes per step, in a
 *   function compiled with a per-function target attribute so no global
 *   -msse4.2 flag is needed and the file builds on any compiler;
 * - everywhere else: a portable slicing-by-8 table loop (eight
 *   256-entry tables, one 8-byte step per eight lookups).
 *
 * fab_crc32c_init builds the tables and probes the CPU once; the OCaml
 * side calls it while its module initialises, before any domain can
 * hash, so the tables and the probe result are read-only afterwards.
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

static uint32_t table[8][256];
static int use_hw = 0;

/* ------------------------------------------------------------------ */
/* Portable slicing-by-8                                               */
/* ------------------------------------------------------------------ */

static void build_tables(void) {
  uint32_t i, k, c;
  for (i = 0; i < 256; i++) {
    c = i;
    for (k = 0; k < 8; k++) c = (c >> 1) ^ (0x82F63B78u & (0u - (c & 1)));
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

__attribute__((target("sse4.2"))) static uint32_t
crc_sse42(const uint8_t *p, size_t len) {
  uint64_t crc = 0xFFFFFFFFu, w;
  for (; len >= 8; p += 8, len -= 8) {
    memcpy(&w, p, 8);
    crc = _mm_crc32_u64(crc, w);
  }
  for (; len > 0; p++, len--) crc = _mm_crc32_u8((uint32_t)crc, *p);
  return ~(uint32_t)crc;
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
  use_hw = __builtin_cpu_supports("sse4.2") != 0;
#endif
  return Val_bool(use_hw);
}

CAMLprim value fab_crc32c(value b) {
  const uint8_t *p = Bytes_val(b);
  size_t len = caml_string_length(b);
#ifdef CRC32C_X86
  if (use_hw) return Val_long(crc_sse42(p, len));
#endif
  return Val_long(crc_portable(p, len));
}

CAMLprim value fab_crc32c_portable(value b) {
  return Val_long(crc_portable(Bytes_val(b), caml_string_length(b)));
}
