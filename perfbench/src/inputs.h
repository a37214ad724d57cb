// The benchmark's inputs, generated from --seed before any timing
// starts: pre-encoded request windows for the ingest connections, the
// query_mixed history preload, and the dashboard's query sequence.
//
// A window is what SketchClient::IngestValues writes in one go: a run of
// framed requests, pipelined, acked one response per frame. Windows are
// encoded once here; at send time only their timestamp is stamped from
// the generator's run clock (Stamp rewrites each frame's timestamp varint
// and CRC), so the load loop does no encoding work beyond that.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/ddsketch.h"

namespace pb {

/// Timestamp of run-clock zero: a multiple of 3600, so every ladder level
/// (10 s, 1 m, 1 h) aligns with it. Every timestamp the benchmark sends is
/// within hours of it, so each encodes as a 5-byte zigzag varint.
inline constexpr int64_t kTimeBase = 1'699'999'200;
inline constexpr double kAlpha = 0.01;

/// ingest_raw / ingest_sketches shape.
inline constexpr int kIngestConns = 2;
inline constexpr size_t kIngestSeries = 1000;
inline constexpr size_t kRawWindowValues = 512;  // SketchClient::IngestValues' window
inline constexpr size_t kSketchValues = 1000;    // values per MERGE payload
inline constexpr size_t kMergeWindowFrames = 50;

/// query_mixed shape.
inline constexpr size_t kQuerySeries = 50;
inline constexpr int64_t kHistoryHours = 6;
inline constexpr size_t kHistorySketchValues = 50;  // values per 10 s history sketch
inline constexpr double kLiveValuesPerS = 40000;   // open-loop ingest rate
inline constexpr int64_t kLiveTickMs = 5;          // one window due every tick
inline constexpr size_t kLiveWindowValues =
    static_cast<size_t>(kLiveValuesPerS * kLiveTickMs / 1000);
inline constexpr std::array<double, 4> kDashboardQuantiles = {0.5, 0.9, 0.99,
                                                              0.999};
inline constexpr std::array<int64_t, 2> kDashboardWindowsS = {3600,
                                                              6 * 3600};
/// Series of query_mixed whose raw history values are kept for the
/// exact-quantile check.
inline constexpr size_t kExactSampleEvery = 25;

std::string SeriesName(size_t index);

/// One pipelined write of framed INGEST or MERGE requests.
struct Window {
  std::string wire;                    // frames back to back
  std::vector<uint32_t> body_offsets;  // per frame: where its body starts
  std::vector<uint32_t> body_sizes;
  uint32_t ts_offset = 0;              // timestamp varint, from body start
  std::vector<uint32_t> series;        // per frame
  std::vector<double> values;          // INGEST frames: the value
  std::vector<uint32_t> sketch_ids;    // MERGE frames: index into sketches
  uint64_t value_count = 0;            // values carried by the window
  int64_t stamped_ts = std::numeric_limits<int64_t>::min();

  size_t frames() const { return body_offsets.size(); }
};

/// Rewrites every frame's timestamp to `ts` and refreshes its CRC.
void Stamp(Window* window, int64_t ts);

/// One dashboard query: `window_s` seconds back from Inputs::query_end.
struct DashboardQuery {
  uint32_t series = 0;
  int64_t window_s = 0;
};

struct Inputs {
  std::vector<dd::DDSketch> sketches;       // MERGE payloads, by sketch id
  std::vector<std::vector<double>> sketch_values;  // values behind each sketch
  std::vector<Window> load[kIngestConns];   // closed-loop pools, per connection
  // query_mixed.
  std::vector<Window> preload[kIngestConns];  // history, timestamps fixed
  std::vector<Window> live;                   // open-loop ingest pool
  std::vector<std::vector<double>> exact_history;  // every kExactSampleEvery-th series
  uint64_t history_values = 0;
  // Every workload: its series, and the dashboard's queries over them
  // (query_mixed's dashboard; the ingest workloads' read-back). Windows
  // end at query_end: query_mixed's history horizon, or for the ingest
  // workloads an hour past kTimeBase, beyond all of their data.
  size_t series = 0;
  std::vector<DashboardQuery> queries;
  int64_t query_end = kTimeBase;
};

/// Everything `workload` needs, from `seed` alone.
Inputs GenerateInputs(const std::string& workload, uint64_t seed);

}  // namespace pb

#endif  // PERFBENCH_INPUTS_H_
