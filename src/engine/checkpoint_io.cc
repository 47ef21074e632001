#include "engine/checkpoint_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tds {
namespace ckptio {
namespace {

/// write(2) the whole buffer, riding out partial writes and EINTR.
Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

void AppendU64Le(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint64_t ReadU64Le(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Status IoError(const std::string& what, const std::string& path) {
  // kUnavailable: environmental IO failures are transient from the
  // engine's point of view — the in-memory state is intact and the write
  // can be retried (against another path if need be).
  // strerror's static buffer is racy only if two threads fail IO in the
  // same instant and both read the result later; checkpoint IO is
  // serialized per engine, and a garbled message string cannot corrupt
  // state.
  return Status::Unavailable(what + " " + path + ": " +
                             std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  (void)::close(fd);
}

StatusOr<std::string> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoError("open", path);
  std::string contents;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = IoError("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    contents.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

void AppendFooter(std::string* file) {
  const uint64_t payload_size = file->size();
  const uint64_t checksum = Fnv1a(*file);
  file->append(kFooterMagic, sizeof(kFooterMagic));
  AppendU64Le(file, payload_size);
  AppendU64Le(file, checksum);
}

StatusOr<std::string_view> ValidateFooter(std::string_view file,
                                          const std::string& what) {
  if (file.size() < kFooterSize) {
    return Status::InvalidArgument(what + " truncated: no footer");
  }
  const char* footer = file.data() + (file.size() - kFooterSize);
  if (std::memcmp(footer, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Status::InvalidArgument(what + " footer magic mismatch");
  }
  const uint64_t payload_size = ReadU64Le(footer + sizeof(kFooterMagic));
  const std::string_view payload = file.substr(0, file.size() - kFooterSize);
  if (payload_size != payload.size()) {
    return Status::InvalidArgument(what + " payload length mismatch");
  }
  const uint64_t checksum = ReadU64Le(footer + sizeof(kFooterMagic) + 8);
  if (checksum != Fnv1a(payload)) {
    return Status::InvalidArgument(what + " checksum mismatch");
  }
  return payload;
}

Status WriteTmpDurable(const std::string& tmp_path, std::string_view bytes) {
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", tmp_path);
  Status written = WriteAll(fd, bytes, tmp_path);
  if (written.ok() && ::fsync(fd) != 0) written = IoError("fsync", tmp_path);
  if (::close(fd) != 0 && written.ok()) written = IoError("close", tmp_path);
  if (!written.ok()) {
    (void)::unlink(tmp_path.c_str());
    return written;
  }
  return Status::OK();
}

StatusOr<std::string> ReadValidatedFile(const std::string& path,
                                        const std::string& what) {
  StatusOr<std::string> contents = ReadWholeFile(path);
  if (!contents.ok()) return contents.status();
  StatusOr<std::string_view> payload = ValidateFooter(*contents, what);
  if (!payload.ok()) return payload.status();
  // Trim the footer in place so the caller owns exactly the payload bytes.
  contents.value().resize(payload->size());
  return contents;
}

}  // namespace ckptio
}  // namespace tds
