/* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.

   Entry [k][n] of the table is the CRC state after byte n followed by
   k zero bytes, so eight independent table reads advance the state by
   eight input bytes.  The table is filled once, by cla_crc32_init,
   which the Crc32 module calls when it is loaded: before any domain
   can checksum, so the table is only ever read concurrently. */

#include <stdint.h>
#include <caml/mlvalues.h>

static uint32_t table[8][256];

CAMLprim value cla_crc32_init(value unit)
{
  (void) unit;
  for (uint32_t n = 0; n < 256; n++) {
    uint32_t c = n;
    for (int b = 0; b < 8; b++)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[0][n] = c;
  }
  for (int k = 1; k < 8; k++)
    for (int n = 0; n < 256; n++) {
      uint32_t c = table[k - 1][n];
      table[k][n] = table[0][c & 0xff] ^ (c >> 8);
    }
  return Val_unit;
}

/* The caller has checked that [pos, pos + len) lies inside [s]. */
intnat cla_crc32_update(intnat crc, value s, intnat pos, intnat len)
{
  const unsigned char *p = (const unsigned char *) String_val(s) + pos;
  uint32_t c = ~(uint32_t) crc;
  for (; len >= 8; len -= 8, p += 8) {
    uint32_t lo = c ^ ((uint32_t) p[0] | (uint32_t) p[1] << 8
                       | (uint32_t) p[2] << 16 | (uint32_t) p[3] << 24);
    c = table[7][lo & 0xff] ^ table[6][(lo >> 8) & 0xff]
        ^ table[5][(lo >> 16) & 0xff] ^ table[4][lo >> 24]
        ^ table[3][p[4]] ^ table[2][p[5]] ^ table[1][p[6]] ^ table[0][p[7]];
  }
  for (; len > 0; len--, p++)
    c = table[0][(c ^ *p) & 0xff] ^ (c >> 8);
  return (intnat) (uint32_t) ~c;
}

CAMLprim value cla_crc32_update_byte(value crc, value s, value pos, value len)
{
  return Val_long(cla_crc32_update(Long_val(crc), s, Long_val(pos), Long_val(len)));
}
