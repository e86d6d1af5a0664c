#include "io/stream.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#if defined(EMOGI_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace emogi::io {
namespace {

bool g_mmap_enabled = true;

class FileStream final : public InputStream {
 public:
  FileStream(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~FileStream() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  std::ptrdiff_t Read(void* buffer, std::size_t size,
                      std::string* error) override {
    const std::size_t n = std::fread(buffer, 1, size, file_);
    if (n < size && std::ferror(file_)) {
      if (error) *error = "read error on '" + path_ + "'";
      return -1;
    }
    return static_cast<std::ptrdiff_t>(n);
  }

 private:
  std::FILE* file_;
  std::string path_;
};

#if defined(EMOGI_HAVE_ZLIB)

// Streaming inflate over a gzip (or raw zlib) file: compressed bytes in
// through a bounded buffer, decompressed bytes out per Read call.
// windowBits 15+32 auto-detects the gzip wrapper. A gzip file may hold
// several members back to back (`cat a.gz b.gz`, pigz, bgzip); like
// gunzip, the stream is their concatenation. Bytes after a member that
// do not start another one are an error, never silently dropped.
class GzipStream final : public InputStream {
 public:
  GzipStream(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)), in_buffer_(1u << 16) {
    stream_.zalloc = Z_NULL;
    stream_.zfree = Z_NULL;
    stream_.opaque = Z_NULL;
    stream_.next_in = Z_NULL;
    stream_.avail_in = 0;
    init_ok_ = inflateInit2(&stream_, 15 + 32) == Z_OK;
  }
  ~GzipStream() override {
    if (init_ok_) inflateEnd(&stream_);
    if (file_ != nullptr) std::fclose(file_);
  }

  bool init_ok() const { return init_ok_; }

  std::ptrdiff_t Read(void* buffer, std::size_t size,
                      std::string* error) override {
    if (!init_ok_) {
      if (error) *error = "zlib inflateInit failed for '" + path_ + "'";
      return -1;
    }
    if (finished_) return 0;
    stream_.next_out = static_cast<Bytef*>(buffer);
    stream_.avail_out = static_cast<uInt>(size);
    while (stream_.avail_out > 0) {
      if (stream_.avail_in == 0 && !input_eof_ && !Refill(error)) return -1;
      if (stream_.avail_in == 0 && input_eof_) {
        // Compressed bytes ran out before the DEFLATE stream closed:
        // the file is truncated, not merely finished.
        if (error) {
          *error = "'" + path_ + "': truncated gzip stream (file ended "
                   "before the compressed data did)";
        }
        return -1;
      }
      const int rc = inflate(&stream_, Z_NO_FLUSH);
      if (rc == Z_STREAM_END) {
        ++members_;
        const int next = NextMember(error);
        if (next < 0) return -1;
        if (next == 0) {
          finished_ = true;
          break;
        }
        if (inflateReset(&stream_) != Z_OK) {
          if (error) *error = "zlib inflateReset failed for '" + path_ + "'";
          return -1;
        }
        continue;
      }
      if (rc != Z_OK && rc != Z_BUF_ERROR) {
        if (error) {
          *error = "'" + path_ + "': gzip decode failed (" +
                   (stream_.msg != nullptr ? stream_.msg : "corrupt stream") +
                   ")";
        }
        return -1;
      }
    }
    return static_cast<std::ptrdiff_t>(size - stream_.avail_out);
  }

 private:
  // Moves the unread input to the front of the buffer and tops it up
  // from the file.
  bool Refill(std::string* error) {
    const std::size_t kept = stream_.avail_in;
    if (kept > 0) std::memmove(in_buffer_.data(), stream_.next_in, kept);
    const std::size_t room = in_buffer_.size() - kept;
    const std::size_t n = std::fread(in_buffer_.data() + kept, 1, room, file_);
    if (n < room) {
      if (std::ferror(file_)) {
        if (error) *error = "read error on '" + path_ + "'";
        return false;
      }
      input_eof_ = true;
    }
    stream_.next_in = in_buffer_.data();
    stream_.avail_in = static_cast<uInt>(kept + n);
    return true;
  }

  // After a member's end: 1 when another gzip member follows, 0 at the
  // end of the file, -1 (with `error`) when other bytes follow.
  int NextMember(std::string* error) {
    if (stream_.avail_in < 2 && !input_eof_ && !Refill(error)) return -1;
    if (stream_.avail_in == 0) return 0;
    if (stream_.avail_in >= 2 && stream_.next_in[0] == 0x1f &&
        stream_.next_in[1] == 0x8b) {
      return 1;
    }
    if (error) {
      *error = "'" + path_ + "': trailing garbage after gzip member " +
               std::to_string(members_) + " (not another gzip member)";
    }
    return -1;
  }

  std::FILE* file_;
  std::string path_;
  z_stream stream_{};
  std::vector<unsigned char> in_buffer_;
  bool init_ok_ = false;
  bool input_eof_ = false;
  bool finished_ = false;
  std::uint64_t members_ = 0;  // Members fully decoded so far.
};

#endif  // EMOGI_HAVE_ZLIB

bool EndsWith(const std::string& text, const char* suffix) {
  const std::size_t n = std::char_traits<char>::length(suffix);
  return text.size() >= n && text.compare(text.size() - n, n, suffix) == 0;
}

}  // namespace

std::unique_ptr<InputStream> OpenFileStream(const std::string& path,
                                            std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error) *error = "cannot open '" + path + "'";
    return nullptr;
  }
  return std::make_unique<FileStream>(file, path);
}

bool GzipSupported() {
#if defined(EMOGI_HAVE_ZLIB)
  return true;
#else
  return false;
#endif
}

std::unique_ptr<InputStream> OpenGzipStream(const std::string& path,
                                            std::string* error) {
#if defined(EMOGI_HAVE_ZLIB)
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error) *error = "cannot open '" + path + "'";
    return nullptr;
  }
  auto stream = std::make_unique<GzipStream>(file, path);
  if (!stream->init_ok()) {
    if (error) *error = "zlib inflateInit failed for '" + path + "'";
    return nullptr;
  }
  return stream;
#else
  if (error) {
    *error = "'" + path + "': this build has no gzip support (zlib was "
             "not found at configure time) -- decompress the file first "
             "(gunzip) or rebuild with zlib development headers";
  }
  return nullptr;
#endif
}

std::unique_ptr<InputStream> OpenContainerStream(const std::string& path,
                                                 std::string* error) {
  if (EndsWith(path, ".gz")) return OpenGzipStream(path, error);
  return OpenFileStream(path, error);
}

bool WriteGzipFile(const std::string& path, const void* data,
                   std::size_t size, std::string* error) {
#if defined(EMOGI_HAVE_ZLIB)
  gzFile file = gzopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error) *error = "cannot create '" + path + "'";
    return false;
  }
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const unsigned chunk = static_cast<unsigned>(
        std::min<std::size_t>(size - done, 1u << 20));
    if (gzwrite(file, bytes + done, chunk) != static_cast<int>(chunk)) {
      gzclose(file);
      if (error) *error = "gzip write failed for '" + path + "'";
      return false;
    }
    done += chunk;
  }
  if (gzclose(file) != Z_OK) {
    if (error) *error = "gzip close failed for '" + path + "'";
    return false;
  }
  return true;
#else
  (void)data;
  (void)size;
  if (error) {
    *error = "'" + path + "': this build has no gzip support (zlib was "
             "not found at configure time)";
  }
  return false;
#endif
}

void SetMmapEnabledForTesting(bool enabled) { g_mmap_enabled = enabled; }
bool MmapEnabled() { return g_mmap_enabled; }

FileView::~FileView() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

bool OpenFileView(const std::string& path, FileView* view, bool* missing,
                  std::string* error) {
  *missing = false;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // ENOTDIR: some directory on the path is a regular file, so no file
    // can be there either.
    *missing = (errno == ENOENT || errno == ENOTDIR);
    if (error) *error = "cannot open '" + path + "'";
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    if (error) *error = "cannot stat '" + path + "'";
    return false;
  }
  view->size_ = static_cast<std::size_t>(st.st_size);
  if (view->size_ > 0) {
    void* map =
        MmapEnabled()
            ? ::mmap(nullptr, view->size_, PROT_READ, MAP_PRIVATE, fd, 0)
            : MAP_FAILED;
    if (map != MAP_FAILED) {
      view->data_ = static_cast<const unsigned char*>(map);
      view->mapped_ = true;
    } else {
      view->owned_.resize(view->size_);
      std::size_t done = 0;
      while (done < view->size_) {
        const ssize_t n =
            ::read(fd, view->owned_.data() + done, view->size_ - done);
        if (n <= 0) {
          ::close(fd);
          if (error) *error = "short read on '" + path + "'";
          return false;
        }
        done += static_cast<std::size_t>(n);
      }
      view->data_ = view->owned_.data();
    }
  }
  ::close(fd);
  return true;
}

}  // namespace emogi::io
