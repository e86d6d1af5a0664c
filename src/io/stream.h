// Byte streams for container ingestion. Every edge-list container --
// plain text, gzip-compressed text, the packed binary pair format --
// is consumed through one InputStream interface, so the parser and the
// external-memory CSR builder stream any of them in bounded chunks
// without ever materializing a decompressed file on disk.
//
// Gzip/DEFLATE decoding uses zlib behind a CMake feature probe
// (EMOGI_HAVE_ZLIB); on a build without zlib, opening a `.gz` container
// fails with a clear error instead of silently misparsing compressed
// bytes as text.

#ifndef EMOGI_IO_STREAM_H_
#define EMOGI_IO_STREAM_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace emogi::io {

class InputStream {
 public:
  virtual ~InputStream() = default;

  // Reads up to `size` bytes into `buffer`. Returns the number of bytes
  // read (0 means clean end of stream) or -1 on error with `error`
  // filled -- including a *truncated* compressed stream, which must
  // never pass for a clean EOF.
  virtual std::ptrdiff_t Read(void* buffer, std::size_t size,
                              std::string* error) = 0;
};

// Plain file stream. Returns nullptr with `error` when the file cannot
// be opened.
std::unique_ptr<InputStream> OpenFileStream(const std::string& path,
                                            std::string* error);

// True when this build can decode gzip/DEFLATE (zlib was found at
// configure time).
bool GzipSupported();

// Gzip-decoding stream over `path`. Concatenated gzip members decode
// as one stream, as gunzip reads them; anything else after a member is
// a read error naming the file. Returns nullptr with `error` when the
// file cannot be opened or the build lacks zlib (the error says to
// decompress manually or rebuild with zlib).
std::unique_ptr<InputStream> OpenGzipStream(const std::string& path,
                                            std::string* error);

// Opens `path`, decoding through gzip when the name ends in ".gz".
std::unique_ptr<InputStream> OpenContainerStream(const std::string& path,
                                                 std::string* error);

// Gzip-compresses `size` bytes to `path` (fixtures and tests; returns
// false with `error` when zlib is unavailable or the write fails).
bool WriteGzipFile(const std::string& path, const void* data,
                   std::size_t size, std::string* error);

// Testing hook for the CSR cache decoder (both loaders): when
// disabled, readers behave as if mmap were unsupported and take the
// buffered-read fallback. Always re-enable after the test.
void SetMmapEnabledForTesting(bool enabled);
bool MmapEnabled();

// Read-only view over an entire file: mmap-ed when the kernel (and the
// testing hook above) allow it, copied into a heap buffer otherwise.
// The CSR cache decoder reads through it, so the copying loader and the
// paged CSR take the identical fallback path on mmap-hostile systems.
class FileView {
 public:
  FileView() = default;
  ~FileView();
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool mapped() const { return mapped_; }

 private:
  friend bool OpenFileView(const std::string& path, FileView* view,
                           bool* missing, std::string* error);
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<unsigned char> owned_;
};

// Opens `path` into `view`. On failure `*missing` distinguishes a path
// with no file at it (ENOENT, or ENOTDIR when a directory on the path is
// a regular file: a cache miss, not worth a warning) from real I/O
// trouble.
bool OpenFileView(const std::string& path, FileView* view, bool* missing,
                  std::string* error);

}  // namespace emogi::io

#endif  // EMOGI_IO_STREAM_H_
