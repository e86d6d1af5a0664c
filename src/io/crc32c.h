// CRC-32C (Castagnoli: reflected polynomial 0x82F63B78, initial value
// and final XOR ~0), the one checksum in the tree: it covers the CSR
// cache file (io/csr_cache.h) and every wire frame's payload
// (net/protocol.h). The SSE4.2 crc32 instruction takes 8 bytes at a
// time where a byte-serial hash multiplies once per byte, and CRC-32C
// detects every single-bit error and every burst of 32 bits or fewer.

#ifndef EMOGI_IO_CRC32C_H_
#define EMOGI_IO_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace emogi::io {

// CRC-32C of `size` bytes. `crc` chains: Crc32c(b, nb, Crc32c(a, na))
// equals the CRC of a followed by b, and the default 0 starts afresh.
// Runs Crc32cHardware where the CPU has SSE4.2, else Crc32cPortable;
// the choice is made once per process.
std::uint32_t Crc32c(const void* data, std::size_t size,
                     std::uint32_t crc = 0);

// The two paths behind Crc32c, public so tests can pin their parity.
// Crc32cPortable is table-driven and runs anywhere. Crc32cHardware
// extends the CRC in *crc (chained like Crc32c's `crc`) with the SSE4.2
// instruction and returns true, or returns false, leaving *crc alone,
// on a build or CPU without it.
std::uint32_t Crc32cPortable(const void* data, std::size_t size,
                             std::uint32_t crc = 0);
bool Crc32cHardware(const void* data, std::size_t size, std::uint32_t* crc);

// The CRC of a followed by b, from crc_a = Crc32c(a), crc_b = Crc32c(b)
// and b's length alone: crc_a is shifted over size_b zero bytes by
// GF(2) polynomial arithmetic (zlib's crc32_combine), in O(log size_b)
// steps. Lets a writer checksum sections out of file order.
std::uint32_t Crc32cCombine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t size_b);

}  // namespace emogi::io

#endif  // EMOGI_IO_CRC32C_H_
