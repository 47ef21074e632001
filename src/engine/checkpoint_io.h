#ifndef TDS_ENGINE_CHECKPOINT_IO_H_
#define TDS_ENGINE_CHECKPOINT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tds {
/// Durable-file plumbing for the checkpoint log (engine/checkpoint_log.h
/// segments, bases and manifests): the integrity footer, FNV-1a
/// checksumming, and the tmp→fsync building block of the commit protocol.
/// Internal to src/engine — tests reach these paths through the
/// checkpoint-log surface.
namespace ckptio {

/// Every durable file ends in a fixed 24-byte footer: the magic
/// "TDSCKPT1", the payload length, and an FNV-1a checksum of the payload
/// (both little-endian u64). Integrity data *after* the payload means any
/// torn or truncated write fails validation — a partial file cannot end in
/// a footer matching its own contents.
inline constexpr char kFooterMagic[8] = {'T', 'D', 'S', 'C', 'K', 'P', 'T',
                                         '1'};
inline constexpr size_t kFooterSize = sizeof(kFooterMagic) + 8 + 8;

uint64_t Fnv1a(std::string_view data);

/// kUnavailable for environmental IO failures (errno carried in the
/// message): the in-memory state is intact and the write can be retried.
Status IoError(const std::string& what, const std::string& path);

/// fsync the directory so renames themselves are durable. Best-effort:
/// some filesystems refuse O_RDONLY directory syncs; the data files are
/// already synced.
void SyncDir(const std::string& dir);

StatusOr<std::string> ReadWholeFile(const std::string& path);

/// Appends the integrity footer to `file` (whose current contents are the
/// payload).
void AppendFooter(std::string* file);

/// Splits a raw footered file into its validated payload, or explains
/// exactly which integrity check failed. `what` names the file kind in the
/// error ("segment", "manifest").
StatusOr<std::string_view> ValidateFooter(std::string_view file,
                                          const std::string& what);

/// Writes `bytes` (already footered) to `tmp_path` and fsyncs it, cleaning
/// the file up on failure. The building block for commit protocols that
/// need a hook (a failpoint, a rotation) between the durable temp file and
/// the rename that publishes it.
Status WriteTmpDurable(const std::string& tmp_path, std::string_view bytes);

/// Reads `path` and validates its footer, returning the payload.
StatusOr<std::string> ReadValidatedFile(const std::string& path,
                                        const std::string& what);

}  // namespace ckptio
}  // namespace tds

#endif  // TDS_ENGINE_CHECKPOINT_IO_H_
