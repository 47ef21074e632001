#include "engine/checkpoint_log.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "core/factory.h"
#include "engine/checkpoint_io.h"
#include "util/check.h"
#include "util/codec.h"
#include "util/failpoint.h"

namespace tds {
namespace {

constexpr char kManifestMagic[] = "TDSMAN1";
constexpr char kSegmentMagic[] = "TDSSEG1";
constexpr char kManifestFile[] = "MANIFEST.tds";

std::string SegmentName(uint64_t generation, uint32_t shard) {
  return "seg-" + std::to_string(generation) + "-s" + std::to_string(shard) +
         ".tds";
}

std::string BaseName(uint64_t gen_lo, uint64_t gen_hi) {
  return "base-" + std::to_string(gen_lo) + "-" + std::to_string(gen_hi) +
         ".tds";
}

/// Durably lands one already-footered segment/base file. Unchanged on
/// error: until a manifest names the file it is invisible garbage, and the
/// injected fault (or a real crash) leaves at most an unreferenced temp.
Status WriteSegmentFile(const std::string& path, std::string_view file_bytes) {
  TDS_FAILPOINT_RETURN("ckptlog.segment.write");
  Status written = ckptio::WriteTmpDurable(path + ".tmp", file_bytes);
  if (!written.ok()) return written;
  if (::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    const Status renamed = ckptio::IoError("rename", path + ".tmp");
    (void)::unlink((path + ".tmp").c_str());
    return renamed;
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------------

namespace ckptlog_internal {

Status Segment::Encode(std::string* out) const {
  TDS_CHECK(out != nullptr);
  const Status audit = AuditInvariants();
  if (!audit.ok()) return audit;
  Encoder encoder;
  encoder.PutString(kSegmentMagic);
  encoder.PutVarint(shard);
  encoder.PutVarint(gen_lo);
  encoder.PutVarint(gen_hi);
  encoder.PutVarint(epoch);
  encoder.PutVarint(dead_keys.size());
  for (const uint64_t key : dead_keys) encoder.PutVarint(key);
  encoder.PutString(registry_blob);
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<Segment> Segment::Decode(std::string_view data) {
  Decoder decoder(data);
  Segment segment;
  std::string magic;
  if (!decoder.GetString(&magic) || magic != kSegmentMagic) {
    return Status::InvalidArgument("corrupt segment: magic");
  }
  uint64_t shard = 0;
  uint64_t dead_count = 0;
  if (!decoder.GetVarint(&shard) || !decoder.GetVarint(&segment.gen_lo) ||
      !decoder.GetVarint(&segment.gen_hi) ||
      !decoder.GetVarint(&segment.epoch) ||
      !decoder.GetVarint(&dead_count)) {
    return Status::InvalidArgument("corrupt segment: header");
  }
  segment.shard = static_cast<uint32_t>(shard);
  segment.dead_keys.reserve(
      std::min<uint64_t>(dead_count, data.size()));
  for (uint64_t i = 0; i < dead_count; ++i) {
    uint64_t key = 0;
    if (!decoder.GetVarint(&key)) {
      return Status::InvalidArgument("corrupt segment: dead key");
    }
    segment.dead_keys.push_back(key);
  }
  if (!decoder.GetString(&segment.registry_blob)) {
    return Status::InvalidArgument("corrupt segment: registry blob");
  }
  if (!decoder.Done()) {
    return Status::InvalidArgument("corrupt segment: trailer");
  }
  const Status audit = segment.AuditInvariants();
  if (!audit.ok()) return audit;
  return segment;
}

Status Segment::AuditInvariants() const {
  if (shard == CheckpointLog::kBaseShard) {
    if (!dead_keys.empty()) {
      return Status::InvalidArgument("base segment carries dead keys");
    }
    if (gen_lo > gen_hi) {
      return Status::InvalidArgument("base segment generation range inverted");
    }
  } else if (gen_lo != gen_hi) {
    return Status::InvalidArgument(
        "incremental segment spans multiple generations");
  }
  for (size_t i = 1; i < dead_keys.size(); ++i) {
    if (dead_keys[i] <= dead_keys[i - 1]) {
      return Status::InvalidArgument(
          "segment dead keys not strictly increasing");
    }
  }
  return Status::OK();
}

Status ApplyGeneration(AggregateRegistry& registry,
                       std::vector<AggregateRegistry> minis,
                       const std::vector<const Segment*>& segments) {
  TDS_CHECK(!minis.empty());
  TDS_CHECK(minis.size() == segments.size());
  // The generation's write set: every updated key (present in a mini) and
  // every key that stayed dead. Updated keys are replaced wholesale —
  // their mini entry is the shard's full state for that key — and dead
  // keys are simply dropped.
  std::vector<uint64_t> superseded;
  for (const auto& mini : minis) {
    mini.ForEachKey([&](uint64_t key, Tick, const DecayedAggregate&) {
      superseded.push_back(key);
    });
  }
  std::sort(superseded.begin(), superseded.end());
  const size_t updated_end = superseded.size();
  for (const Segment* segment : segments) {
    for (const uint64_t key : segment->dead_keys) {
      if (!std::binary_search(superseded.begin(),
                              superseded.begin() + updated_end, key)) {
        superseded.push_back(key);
      }
    }
  }
  std::sort(superseded.begin(), superseded.end());
  superseded.erase(std::unique(superseded.begin(), superseded.end()),
                   superseded.end());
  // Fold the shard minis together first: they are key-disjoint (one route
  // cut) and still local temporaries, so a failure here mutates nothing.
  AggregateRegistry fold = std::move(minis.front());
  for (size_t i = 1; i < minis.size(); ++i) {
    Status merged = fold.MergeFrom(std::move(minis[i]));
    if (!merged.ok()) return merged;
  }
  // Extract everything the generation supersedes, then merge the fold in.
  // On a merge failure the extracted keys go back — the applier's
  // unchanged-on-error contract (same rollback discipline as the engine's
  // migration path).
  auto extracted = registry.ExtractIf([&](uint64_t key) {
    return std::binary_search(superseded.begin(), superseded.end(), key);
  });
  if (!extracted.ok()) return extracted.status();
  AggregateRegistry stale = std::move(extracted).value();
  Status merged = registry.MergeFrom(std::move(fold));
  if (!merged.ok()) {
    failpoint::SuppressionScope no_faults;
    TDS_CHECK_MSG(registry.MergeFrom(std::move(stale)).ok(),
                  "checkpoint apply rollback failed; registry torn");
    return merged;
  }
  return Status::OK();
}

StatusOr<Segment> ReadManifestEntry(
    const std::string& dir, const CheckpointLog::ManifestEntry& entry) {
  StatusOr<std::string> raw = ckptio::ReadWholeFile(dir + "/" + entry.file);
  if (!raw.ok()) return raw.status();
  if (raw->size() != entry.length) {
    return Status::InvalidArgument("segment " + entry.file +
                                   " length differs from the manifest");
  }
  if (ckptio::Fnv1a(*raw) != entry.checksum) {
    return Status::InvalidArgument("segment " + entry.file +
                                   " checksum differs from the manifest");
  }
  StatusOr<std::string_view> payload =
      ckptio::ValidateFooter(*raw, "segment " + entry.file);
  if (!payload.ok()) return payload.status();
  StatusOr<Segment> segment = Segment::Decode(*payload);
  if (!segment.ok()) return segment.status();
  if (segment->shard != entry.shard || segment->gen_lo != entry.gen_lo ||
      segment->gen_hi != entry.gen_hi) {
    return Status::InvalidArgument("segment " + entry.file +
                                   " header differs from the manifest");
  }
  return segment;
}

StatusOr<AggregateRegistry> FoldManifest(
    DecayPtr decay, const AggregateRegistry::Options& options,
    const std::string& dir, const CheckpointLog::Manifest& manifest) {
  auto created = AggregateRegistry::Create(decay, options);
  if (!created.ok()) return created.status();
  AggregateRegistry registry = std::move(created).value();
  if (manifest.decay_name != decay->Name()) {
    return Status::InvalidArgument("manifest decay mismatch: " +
                                   manifest.decay_name);
  }
  size_t i = 0;
  if (i < manifest.entries.size() &&
      manifest.entries[i].shard == CheckpointLog::kBaseShard) {
    StatusOr<Segment> base = ReadManifestEntry(dir, manifest.entries[i]);
    if (!base.ok()) return base.status();
    auto decoded =
        AggregateRegistry::Decode(decay, options, base->registry_blob);
    if (!decoded.ok()) return decoded.status();
    Status merged = registry.MergeFrom(std::move(decoded).value());
    if (!merged.ok()) return merged;
    ++i;
  }
  while (i < manifest.entries.size()) {
    const uint64_t generation = manifest.entries[i].gen_lo;
    std::vector<Segment> segments;
    while (i < manifest.entries.size() &&
           manifest.entries[i].gen_lo == generation) {
      StatusOr<Segment> segment = ReadManifestEntry(dir, manifest.entries[i]);
      if (!segment.ok()) return segment.status();
      segments.push_back(std::move(segment).value());
      ++i;
    }
    std::vector<AggregateRegistry> minis;
    std::vector<const Segment*> views;
    minis.reserve(segments.size());
    views.reserve(segments.size());
    for (const auto& segment : segments) {
      auto mini =
          AggregateRegistry::Decode(decay, options, segment.registry_blob);
      if (!mini.ok()) return mini.status();
      minis.push_back(std::move(mini).value());
      views.push_back(&segment);
    }
    Status applied = ApplyGeneration(registry, std::move(minis), views);
    if (!applied.ok()) return applied;
  }
  return registry;
}

}  // namespace ckptlog_internal

// ---------------------------------------------------------------------------
// Manifest codec
// ---------------------------------------------------------------------------

Status CheckpointLog::Manifest::Encode(std::string* out) const {
  TDS_CHECK(out != nullptr);
  const Status audit = AuditInvariants();
  if (!audit.ok()) return audit;
  Encoder encoder;
  encoder.PutString(kManifestMagic);
  encoder.PutVarint(generation);
  encoder.PutString(decay_name);
  encoder.PutVarint(backend);
  encoder.PutDouble(epsilon);
  encoder.PutSigned(start);
  encoder.PutVarint(shard_epochs.size());
  for (const uint64_t epoch : shard_epochs) encoder.PutVarint(epoch);
  encoder.PutVarint(entries.size());
  for (const ManifestEntry& entry : entries) {
    encoder.PutString(entry.file);
    encoder.PutVarint(entry.shard);
    encoder.PutVarint(entry.gen_lo);
    encoder.PutVarint(entry.gen_hi);
    encoder.PutVarint(entry.length);
    encoder.PutVarint(entry.checksum);
  }
  *out = encoder.Finish();
  return Status::OK();
}

StatusOr<CheckpointLog::Manifest> CheckpointLog::Manifest::Decode(
    std::string_view data) {
  Decoder decoder(data);
  Manifest manifest;
  std::string magic;
  if (!decoder.GetString(&magic) || magic != kManifestMagic) {
    return Status::InvalidArgument("corrupt manifest: magic");
  }
  uint64_t shard_count = 0;
  uint64_t entry_count = 0;
  if (!decoder.GetVarint(&manifest.generation) ||
      !decoder.GetString(&manifest.decay_name) ||
      !decoder.GetVarint(&manifest.backend) ||
      !decoder.GetDouble(&manifest.epsilon) ||
      !decoder.GetSigned(&manifest.start) ||
      !decoder.GetVarint(&shard_count)) {
    return Status::InvalidArgument("corrupt manifest: header");
  }
  for (uint64_t i = 0; i < shard_count; ++i) {
    uint64_t epoch = 0;
    if (!decoder.GetVarint(&epoch)) {
      return Status::InvalidArgument("corrupt manifest: shard epoch");
    }
    manifest.shard_epochs.push_back(epoch);
  }
  if (!decoder.GetVarint(&entry_count)) {
    return Status::InvalidArgument("corrupt manifest: entry count");
  }
  for (uint64_t i = 0; i < entry_count; ++i) {
    ManifestEntry entry;
    uint64_t shard = 0;
    if (!decoder.GetString(&entry.file) || !decoder.GetVarint(&shard) ||
        !decoder.GetVarint(&entry.gen_lo) ||
        !decoder.GetVarint(&entry.gen_hi) ||
        !decoder.GetVarint(&entry.length) ||
        !decoder.GetVarint(&entry.checksum)) {
      return Status::InvalidArgument("corrupt manifest: entry");
    }
    entry.shard = static_cast<uint32_t>(shard);
    manifest.entries.push_back(std::move(entry));
  }
  if (!decoder.Done()) {
    return Status::InvalidArgument("corrupt manifest: trailer");
  }
  const Status audit = manifest.AuditInvariants();
  if (!audit.ok()) return audit;
  return manifest;
}

Status CheckpointLog::Manifest::AuditInvariants() const {
  uint64_t base_gen_hi = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    const ManifestEntry& entry = entries[i];
    if (entry.gen_hi > generation) {
      return Status::InvalidArgument(
          "manifest entry newer than the manifest generation");
    }
    if (entry.shard == kBaseShard) {
      if (i != 0) {
        return Status::InvalidArgument(
            "manifest base entry must be first (and unique)");
      }
      if (entry.gen_lo > entry.gen_hi) {
        return Status::InvalidArgument("manifest base range inverted");
      }
      base_gen_hi = entry.gen_hi;
      continue;
    }
    if (entry.gen_lo != entry.gen_hi) {
      return Status::InvalidArgument(
          "manifest segment spans multiple generations");
    }
    if (entry.gen_lo <= base_gen_hi) {
      return Status::InvalidArgument(
          "manifest segment not newer than the base");
    }
    if (entry.shard >= shard_epochs.size()) {
      return Status::InvalidArgument("manifest segment shard out of range");
    }
    if (i > 0 && entries[i - 1].shard != kBaseShard) {
      const ManifestEntry& prev = entries[i - 1];
      if (std::make_pair(prev.gen_lo, prev.shard) >=
          std::make_pair(entry.gen_lo, entry.shard)) {
        return Status::InvalidArgument(
            "manifest segments not sorted by (generation, shard)");
      }
    }
    for (size_t j = 0; j < i; ++j) {
      if (entries[j].file == entry.file) {
        return Status::InvalidArgument("manifest names a file twice");
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CheckpointLog
// ---------------------------------------------------------------------------

StatusOr<CheckpointLog> CheckpointLog::Create(ShardedAggregateEngine& engine,
                                              std::string dir,
                                              const Options& options) {
  if (!engine.checkpoint_tracking()) {
    return Status::FailedPrecondition(
        "CheckpointLog requires EnableCheckpointTracking on the engine");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ckptio::IoError("mkdir", dir);
  }
  CheckpointLog log(engine, std::move(dir), options);
  const Backend backend = ResolveBackend(
      *engine.decay(), engine.options().registry.aggregate.backend());
  if (HasCheckpointLog(log.dir_)) {
    StatusOr<Manifest> manifest = LoadManifest(log.dir_);
    if (!manifest.ok()) return manifest.status();
    if (manifest->decay_name != engine.decay()->Name() ||
        manifest->backend != static_cast<uint64_t>(backend) ||
        manifest->epsilon != engine.options().registry.aggregate.epsilon() ||
        manifest->start != engine.options().registry.aggregate.start()) {
      return Status::InvalidArgument(
          "checkpoint log config fingerprint does not match the engine");
    }
    if (manifest->shard_epochs.size() != engine.shards()) {
      return Status::InvalidArgument(
          "checkpoint log shard count does not match the engine");
    }
    log.manifest_ = std::move(manifest).value();
  } else {
    log.manifest_.decay_name = engine.decay()->Name();
    log.manifest_.backend = static_cast<uint64_t>(backend);
    log.manifest_.epsilon = engine.options().registry.aggregate.epsilon();
    log.manifest_.start = engine.options().registry.aggregate.start();
  }
  // Watermarks are in-memory epochs, and those restarted with this
  // process: the first capture must be a full snapshot (since == 0) no
  // matter what a previous incarnation had committed.
  log.manifest_.shard_epochs.assign(engine.shards(), 0);
  return log;
}

template <typename Fn>
Status CheckpointLog::WithRetry(Fn&& write) {
  ExponentialBackoff backoff(options_.backoff);
  Status status = write();
  for (uint32_t attempt = 0;
       status.code() == StatusCode::kUnavailable &&
       attempt < options_.io_retries;
       ++attempt) {
    backoff.Wait();
    status = write();
  }
  return status;
}

Status CheckpointLog::CommitManifest(Manifest next) {
  std::string payload;
  Status encoded = next.Encode(&payload);
  if (!encoded.ok()) return encoded;
  std::string file_bytes = std::move(payload);
  ckptio::AppendFooter(&file_bytes);
  const std::string path = dir_ + "/" + kManifestFile;
  Status committed = WithRetry([&]() -> Status {
    Status written = ckptio::WriteTmpDurable(path + ".tmp", file_bytes);
    if (!written.ok()) return written;
    if (TDS_FAILPOINT("ckptlog.manifest.commit")) {
      // Simulated crash between the durable temp manifest and the commit
      // renames: the previous manifest generation stays the newest valid
      // one, exactly as a real crash would leave it.
      return Status::Unavailable("injected fault: ckptlog.manifest.commit");
    }
    if (::rename(path.c_str(), (path + ".prev").c_str()) != 0 &&
        errno != ENOENT) {
      return ckptio::IoError("rename to .prev", path);
    }
    if (::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
      return ckptio::IoError("rename", path + ".tmp");
    }
    ckptio::SyncDir(dir_);
    return Status::OK();
  });
  if (!committed.ok()) return committed;
  manifest_ = std::move(next);
  return Status::OK();
}

Status CheckpointLog::WriteIncremental() {
  Status flushed = engine_->Flush();
  if (!flushed.ok()) return flushed;
  std::vector<uint64_t> since = manifest_.shard_epochs;
  since.resize(engine_->shards(), 0);
  std::vector<ShardedAggregateEngine::ShardCheckpointDelta> deltas;
  Status captured = engine_->CaptureCheckpointDeltas(since, &deltas);
  if (!captured.ok()) return captured;

  const uint64_t generation = manifest_.generation + 1;
  Manifest next = manifest_;
  next.generation = generation;
  std::vector<std::string> written;
  auto unlink_written = [&] {
    for (const std::string& name : written) {
      (void)::unlink((dir_ + "/" + name).c_str());
    }
  };
  for (const auto& shard_delta : deltas) {
    ckptlog_internal::Segment segment;
    segment.shard = shard_delta.shard;
    segment.gen_lo = generation;
    segment.gen_hi = generation;
    segment.epoch = shard_delta.delta.epoch;
    segment.dead_keys = shard_delta.delta.dead_keys;
    segment.registry_blob = shard_delta.delta.blob;
    std::string payload;
    Status encoded = segment.Encode(&payload);
    if (!encoded.ok()) {
      unlink_written();
      return encoded;
    }
    std::string file_bytes = std::move(payload);
    ckptio::AppendFooter(&file_bytes);
    const std::string name = SegmentName(generation, shard_delta.shard);
    Status landed = WithRetry([&] {
      return WriteSegmentFile(dir_ + "/" + name, file_bytes);
    });
    if (!landed.ok()) {
      unlink_written();
      return landed;
    }
    written.push_back(name);
    ManifestEntry entry;
    entry.file = name;
    entry.shard = shard_delta.shard;
    entry.gen_lo = generation;
    entry.gen_hi = generation;
    entry.length = file_bytes.size();
    entry.checksum = ckptio::Fnv1a(file_bytes);
    next.entries.push_back(std::move(entry));
    next.shard_epochs[shard_delta.shard] = shard_delta.delta.epoch;
  }
  Status committed = CommitManifest(std::move(next));
  if (!committed.ok()) {
    // The segments are unreferenced garbage now; a retried WriteIncremental
    // re-captures a superset delta under fresh names.
    unlink_written();
    return committed;
  }
  CollectGarbage();
  if (options_.compact_min_segments > 0 &&
      manifest_.entries.size() > options_.compact_min_segments) {
    // The incremental commit above already landed; a compaction failure
    // only means live bytes stay un-folded until the next opportunity.
    return Compact();
  }
  return Status::OK();
}

Status CheckpointLog::Compact() {
  TDS_FAILPOINT_RETURN("ckptlog.compact");
  if (manifest_.generation == 0 || manifest_.entries.size() <= 1) {
    return Status::OK();  // nothing to fold
  }
  StatusOr<AggregateRegistry> folded = ckptlog_internal::FoldManifest(
      engine_->decay(), engine_->options().registry, dir_, manifest_);
  if (!folded.ok()) return folded.status();
  ckptlog_internal::Segment base;
  base.shard = kBaseShard;
  base.gen_lo = manifest_.entries.front().gen_lo;
  base.gen_hi = manifest_.generation;
  Status encoded = folded->EncodeState(&base.registry_blob);
  if (!encoded.ok()) return encoded;
  std::string payload;
  encoded = base.Encode(&payload);
  if (!encoded.ok()) return encoded;
  std::string file_bytes = std::move(payload);
  ckptio::AppendFooter(&file_bytes);
  const std::string name = BaseName(base.gen_lo, base.gen_hi);
  Status landed = WithRetry([&] {
    return WriteSegmentFile(dir_ + "/" + name, file_bytes);
  });
  if (!landed.ok()) return landed;

  Manifest next = manifest_;
  next.generation = manifest_.generation + 1;
  next.entries.clear();
  ManifestEntry entry;
  entry.file = name;
  entry.shard = kBaseShard;
  entry.gen_lo = base.gen_lo;
  entry.gen_hi = base.gen_hi;
  entry.length = file_bytes.size();
  entry.checksum = ckptio::Fnv1a(file_bytes);
  next.entries.push_back(std::move(entry));
  Status committed = CommitManifest(std::move(next));
  if (!committed.ok()) {
    (void)::unlink((dir_ + "/" + name).c_str());
    return committed;
  }
  CollectGarbage();
  return Status::OK();
}

void CheckpointLog::CollectGarbage() {
  // Live = named by the committed manifest or by the .prev fallback
  // generation (deleting .prev's segments would tear the fallback). Only
  // checkpoint-log artifacts (seg-*/base-*/stale temps) are touched.
  std::vector<std::string> keep;
  for (const ManifestEntry& entry : manifest_.entries) {
    keep.push_back(entry.file);
  }
  StatusOr<std::string> prev_payload = ckptio::ReadValidatedFile(
      dir_ + "/" + kManifestFile + ".prev", "manifest");
  if (prev_payload.ok()) {
    StatusOr<Manifest> prev = Manifest::Decode(*prev_payload);
    if (prev.ok()) {
      for (const ManifestEntry& entry : prev->entries) {
        keep.push_back(entry.file);
      }
    }
  }
  std::sort(keep.begin(), keep.end());
  DIR* handle = ::opendir(dir_.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> doomed;
  while (struct dirent* ent = ::readdir(handle)) {
    const std::string name = ent->d_name;
    const bool artifact = name.rfind("seg-", 0) == 0 ||
                          name.rfind("base-", 0) == 0;
    if (!artifact) continue;
    if (std::binary_search(keep.begin(), keep.end(), name)) continue;
    doomed.push_back(name);
  }
  ::closedir(handle);
  for (const std::string& name : doomed) {
    (void)::unlink((dir_ + "/" + name).c_str());
  }
}

uint64_t CheckpointLog::LiveBytes() const {
  uint64_t total = 0;
  for (const ManifestEntry& entry : manifest_.entries) {
    total += entry.length;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Loaders
// ---------------------------------------------------------------------------

bool HasCheckpointLog(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  return ::access(path.c_str(), F_OK) == 0 ||
         ::access((path + ".prev").c_str(), F_OK) == 0;
}

StatusOr<CheckpointLog::Manifest> LoadManifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  const auto load_one = [](const std::string& p)
      -> StatusOr<CheckpointLog::Manifest> {
    StatusOr<std::string> payload = ckptio::ReadValidatedFile(p, "manifest");
    if (!payload.ok()) return payload.status();
    return CheckpointLog::Manifest::Decode(*payload);
  };
  StatusOr<CheckpointLog::Manifest> primary = load_one(path);
  if (primary.ok()) return primary;
  StatusOr<CheckpointLog::Manifest> fallback = load_one(path + ".prev");
  if (fallback.ok()) return fallback;
  // Both generations failed: name both failures, so a corrupt primary is
  // never hidden by the fallback's ENOENT (or the other way round).
  return Status(primary.status().code(),
                primary.status().message() + "; fallback " + path +
                    ".prev: " + fallback.status().message());
}

StatusOr<AggregateRegistry> LoadCheckpointLog(
    DecayPtr decay, const AggregateRegistry::Options& options,
    const std::string& dir) {
  StatusOr<CheckpointLog::Manifest> manifest = LoadManifest(dir);
  if (!manifest.ok()) return manifest.status();
  return ckptlog_internal::FoldManifest(std::move(decay), options, dir,
                                        *manifest);
}

Status RestoreFromCheckpointLog(ShardedAggregateEngine& engine,
                                const std::string& dir) {
  StatusOr<AggregateRegistry> registry = LoadCheckpointLog(
      engine.decay(), engine.options().registry, dir);
  if (!registry.ok()) return registry.status();
  std::vector<AggregateRegistry> shards;
  shards.push_back(std::move(registry).value());
  StatusOr<MergedSnapshot> snapshot =
      MergedSnapshot::FromShards(std::move(shards));
  if (!snapshot.ok()) return snapshot.status();
  return engine.Restore(std::move(snapshot).value());
}

}  // namespace tds
