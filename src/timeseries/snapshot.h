// Full-state snapshot of a SketchStore, the checkpoint half of the
// durability story (the incremental half is timeseries/wal.h).
//
// File layout (varints/doubles as in util/varint; per-interval sketches
// use the DDSketch wire format from core/serialization.cc, so the
// snapshot inherits its compactness and its golden-format pinning):
//
//   magic     4 bytes  "DDSS"
//   version   1 byte   0x02
//   crc       fixed32  CRC-32C of everything after this field
//   body (v2):
//     epoch             varint   WAL generation folded into this snapshot
//     n_levels          varint   rollup ladder, finest first
//     per level:
//       interval        varint   seconds
//       retention       varint   seconds (0 = forever, last level only)
//     alpha             fixed64 double  --+
//     mapping           1 byte            | sketch parameters
//     store type        1 byte            |
//     max_buckets       varint          --+
//     n_series          varint
//     per series (name order):
//       name            varint length + bytes
//       per level (finest first):
//         n_intervals   varint
//         per interval (ascending start):
//           start       signed varint (zigzag)
//           sketch      varint length + DDSketch wire bytes
//
// Version 0x01 (the raw + one-coarse-tier format that predates the
// ladder) still decodes: its geometry maps onto the equivalent
// two-level ladder {base_interval, raw_retention} → {base * factor, ∞}
// with the raw tier as level 0 and the coarse tier as level 1, so v1
// directories open in place with every interval preserved. Encoding
// always writes v2.
//
// Snapshots are written atomically (tmp + rename, util/file_io.h), so a
// reader sees either the previous complete snapshot or the new one. Any
// truncation or bit flip fails decoding with Status::Corruption — the
// whole body is covered by the CRC.

#ifndef DDSKETCH_TIMESERIES_SNAPSHOT_H_
#define DDSKETCH_TIMESERIES_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "timeseries/sketch_store.h"
#include "util/status.h"

namespace dd {

/// A decoded snapshot: the reconstructed store plus the WAL epoch it
/// covers (logs with epoch <= this are already folded in).
struct SnapshotContents {
  SketchStore store;
  uint64_t epoch = 0;
};

/// Serializes the full store state. Deterministic: equal stores encode to
/// identical bytes (series and intervals are iterated in map order).
std::string EncodeSnapshot(const SketchStore& store, uint64_t epoch);

/// Decodes a snapshot image (v2, or v1 mapped onto a two-level ladder).
/// Fails with Corruption on any malformed, truncated, or bit-flipped
/// input.
Result<SnapshotContents> DecodeSnapshot(std::string_view bytes);

/// Encodes and atomically replaces `path` (ReplaceFile through
/// `<path>.tmp`; `*renamed`, when given, says whether its rename landed).
Status WriteSnapshotFile(const SketchStore& store, uint64_t epoch,
                         const std::string& path, bool* renamed = nullptr);

/// Reads and decodes `path`.
Result<SnapshotContents> ReadSnapshotFile(const std::string& path);

}  // namespace dd

#endif  // DDSKETCH_TIMESERIES_SNAPSHOT_H_
