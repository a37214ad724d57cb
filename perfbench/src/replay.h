// Per-layer metrics of a traced run (--trace 1), named after the
// repository's modules:
//
//   client      spans around the generator's own encode / FramedConn
//               calls, one set per window
//   server      STATS deltas over the traced segment, op-latency rows
//   protocol    DecodeFrame + DecodeRequest / EncodeResponse, replayed
//   timeseries  ValidateRecord, IngestBatch (and its self time),
//               WalWriter::Append, SketchStore::IngestValues / QueryRange,
//               EncodeSnapshot, DurableSketchStore::Checkpoint, replayed
//   core        DDSketch::AddBatch / Deserialize / MergeFrom / Quantile
//   util        WalWriter::Sync, i.e. the fsync in util/file_io
//
// The replay feeds the same seed's inputs in-process through these
// public functions in the order sketchd calls them, timing each call
// with steady_clock; nothing inside sketchd is instrumented. Every
// workload reports every metric: where its own traffic lacks a kind of
// input (values, sketches, queries), the replay takes the nearest one it
// has, as replay.cc states for each.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>

#include "common.h"
#include "inputs.h"
#include "server/protocol.h"
#include "timeseries/sketch_store.h"
#include "workloads.h"

namespace pb {

struct LayerInputs {
  std::string workload;
  const Inputs* in = nullptr;
  const LoadLog* log = nullptr;          // spans and windows of the run
  const dd::StoreStats* before = nullptr;  // STATS at the traced segment's start
  const dd::StoreStats* after = nullptr;   // and at its end
  const dd::StoreStats* final = nullptr;   // after the read-back
  const dd::SketchStore* ref = nullptr;  // everything sketchd acked
  std::string replay_dir;                // replay stores live here
  std::string spans_path;                // spans are written here
  int64_t traced_from_ns = 0;            // the traced segment
  int64_t traced_to_ns = 0;
  uint64_t traced_values = 0;            // values acked in the traced segment
  double recovery_s = 0;                 // reopen after SIGKILL
};

void LayerMetrics(const LayerInputs& li, Metrics* out);

}  // namespace pb

#endif  // PERFBENCH_REPLAY_H_
