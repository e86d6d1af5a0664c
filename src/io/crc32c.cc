#include "io/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace emogi::io {
namespace {

constexpr std::uint32_t kCrc32cPolynomial = 0x82F63B78u;  // Reflected.

constexpr std::array<std::uint32_t, 256> MakeCrc32cTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (kCrc32cPolynomial & (0u - (c & 1u)));
    }
    table[i] = c;
  }
  return table;
}

// Built at compile time, so concurrent first callers share no lazy init.
constexpr std::array<std::uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

// a * b modulo the CRC polynomial, both in the CRC's reflected bit
// order (bit 31 holds x^0).
std::uint32_t MultiplyModPoly(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t term = 1u << 31; term != 0; term >>= 1) {
    if ((a & term) != 0) product ^= b;
    b = (b >> 1) ^ (kCrc32cPolynomial & (0u - (b & 1u)));  // b *= x.
  }
  return product;
}

#if defined(__x86_64__)
// Eight bytes per crc32 instruction, then the tail a byte at a time.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    const std::uint8_t* data, std::size_t size, std::uint32_t crc) {
  std::uint64_t state = ~crc;
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, 8);
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<std::uint32_t>(state);
  for (; size > 0; ++data, --size) state32 = _mm_crc32_u8(state32, *data);
  return ~state32;
}

bool CpuHasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

std::uint32_t Crc32cPortable(const void* data, std::size_t size,
                             std::uint32_t crc) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t state = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    state = kCrc32cTable[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return ~state;
}

bool Crc32cHardware([[maybe_unused]] const void* data,
                    [[maybe_unused]] std::size_t size,
                    [[maybe_unused]] std::uint32_t* crc) {
#if defined(__x86_64__)
  if (CpuHasSse42()) {
    *crc = Crc32cSse42(static_cast<const std::uint8_t*>(data), size, *crc);
    return true;
  }
#endif
  return false;
}

std::uint32_t Crc32cCombine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t size_b) {
  // shift = x^(8 * 2^j) mod P moves a CRC over 2^j zero bytes.
  for (std::uint32_t shift = 1u << 23; size_b != 0; size_b >>= 1) {
    if ((size_b & 1) != 0) crc_a = MultiplyModPoly(shift, crc_a);
    shift = MultiplyModPoly(shift, shift);
  }
  return crc_a ^ crc_b;
}

std::uint32_t Crc32c(const void* data, std::size_t size, std::uint32_t crc) {
  std::uint32_t extended = crc;
  return Crc32cHardware(data, size, &extended)
             ? extended
             : Crc32cPortable(data, size, crc);
}

}  // namespace emogi::io
