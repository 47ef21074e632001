#ifndef TDS_CORE_SNAPSHOT_H_
#define TDS_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/decayed_aggregate.h"
#include "util/status.h"

namespace tds {

/// Snapshot (serialization) support for decayed-sum structures: persist a
/// summary and restore it later to continue the stream — the deployment
/// shape of the paper's telecom application, where millions of per-customer
/// summaries outlive any single process.
///
/// The encoding embeds a format magic, the structure type, and the decay
/// function's name; decoding re-binds the state to a caller-supplied decay
/// function (weights are code, not data) and verifies the name matches.
/// Supported types: every backend's kName (core/backends.h), WBMH with an
/// owned layout.
///
/// Shared-layout WBMH keys are snapshotted by their layout's owner,
/// AggregateRegistry: the layout once, then each key's WbmhState; this API
/// covers the self-contained structures.

/// Serializes `aggregate` into `out`.
Status EncodeDecayedSum(DecayedAggregate& aggregate, std::string* out);

/// The EncodeDecayedSum envelope is [magic, type, decay name, payload],
/// each length-prefixed. These two halves of it let a caller that encodes
/// many structures of one type under one decay (AggregateRegistry) write
/// the fixed prefix once per call and decode payloads in place, with bytes
/// identical to EncodeDecayedSum / DecodeDecayedSum.
///
/// Writes the envelope up to (not including) the payload.
void PutSnapshotEnvelopePrefix(class Encoder& encoder, std::string_view type,
                               std::string_view decay_name);
/// Checks the magic and the decay name (against `decay_name`, the decoding
/// decay function's Name()) and yields the type and payload as views into
/// `data`.
Status ParseSnapshotEnvelope(std::string_view data, std::string_view decay_name,
                             std::string_view* type, std::string_view* payload);

/// Reconstructs a structure from `data`, bound to `decay` (which must be
/// the same decay function — verified by name — the snapshot was taken
/// with).
StatusOr<std::unique_ptr<DecayedAggregate>> DecodeDecayedSum(
    DecayPtr decay, std::string_view data);

/// Snapshots a decayed L_p norm sketch (all row structures; the projection
/// matrix is regenerated from the encoded seed).
Status EncodeDecayedLpNorm(const class DecayedLpNorm& sketch,
                           std::string* out);
StatusOr<class DecayedLpNorm> DecodeDecayedLpNorm(DecayPtr decay,
                                                  std::string_view data);

/// Snapshots a decayed average (both component structures).
Status EncodeDecayedAverage(class DecayedAverage& average, std::string* out);
StatusOr<class DecayedAverage> DecodeDecayedAverage(DecayPtr decay,
                                                    std::string_view data);

/// Audit for the snapshot codec (see util/audit.h): encodes `aggregate`,
/// decodes onto a fresh instance bound to the same decay function, and
/// re-encodes, requiring byte-identical output and a matching structure
/// type — the self-inverse property stream resumption relies on. May sync
/// internal state (WBMH trims its op log), never logical state.
Status AuditSnapshotRoundTrip(DecayedAggregate& aggregate);

}  // namespace tds

#endif  // TDS_CORE_SNAPSHOT_H_
