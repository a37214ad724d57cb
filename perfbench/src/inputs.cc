#include "inputs.h"

#include <cstdio>
#include <cstring>

#include "common.h"
#include "data/distributions.h"
#include "server/protocol.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/varint.h"

namespace pb {
namespace {

constexpr size_t kTimestampBytes = 5;
constexpr int64_t kRawIntervalS = 10;

// Purposes of the independent random streams drawn from one seed.
enum Stream : uint64_t {
  kRawValues = 1,
  kSketchPayloads = 2,
  kHistory = 3,
  kLiveValues = 4,
  kDashboard = 5,
};

/// An independent, reproducible stream per (seed, purpose, index).
dd::Rng StreamRng(uint64_t seed, Stream purpose, uint64_t index) {
  dd::Rng mix(seed);
  const uint64_t a = mix.NextU64();
  return dd::Rng(a ^ (static_cast<uint64_t>(purpose) << 56) ^
                 (index * 0x9E3779B97F4A7C15ULL));
}

/// The paper's pareto data set: shape 1, scale 1.
std::vector<double> ParetoValues(dd::Rng rng, size_t n) {
  const dd::Pareto pareto(1.0, 1.0);
  std::vector<double> values(n);
  for (double& v : values) v = pareto.Sample(rng);
  return values;
}

dd::DDSketch SketchOf(const std::vector<double>& values) {
  dd::DDSketch sketch = Check(dd::DDSketch::Create(kAlpha), "sketch");
  sketch.AddBatch(values);
  return sketch;
}

/// Encodes `requests` as one window and checks that stamping rewrites
/// exactly the timestamp of every frame.
Window EncodeWindow(const std::vector<dd::Request>& requests) {
  Window window;
  std::vector<size_t> frame_starts;
  for (const dd::Request& request : requests) {
    const std::string frame = dd::EncodeRequest(request);
    size_t frame_size = 0;
    const std::string_view body =
        Check(dd::DecodeFrame(frame, &frame_size), "encode frame");
    frame_starts.push_back(window.wire.size());
    window.body_offsets.push_back(static_cast<uint32_t>(
        window.wire.size() + static_cast<size_t>(body.data() - frame.data())));
    window.body_sizes.push_back(static_cast<uint32_t>(body.size()));
    window.wire += frame;
  }
  // Body layout: op byte, series length varint (one byte: names are
  // short), series bytes, then the timestamp.
  window.ts_offset = static_cast<uint32_t>(2 + requests.front().series.size());
  window.stamped_ts = requests.front().timestamp;

  Window probe = window;
  const int64_t probe_ts = kTimeBase + 12345;
  Stamp(&probe, probe_ts);
  const std::string_view wire = probe.wire;
  for (size_t i = 0; i < probe.frames(); ++i) {
    size_t frame_size = 0;
    const std::string_view body = Check(
        dd::DecodeFrame(wire.substr(frame_starts[i]), &frame_size), "stamped frame");
    const dd::Request decoded = Check(dd::DecodeRequest(body), "stamped request");
    if (decoded.timestamp != probe_ts || decoded.series != requests[i].series) {
      throw BenchError("window stamping does not round-trip");
    }
  }
  return window;
}

dd::Request IngestRequest(size_t series, int64_t ts, double value) {
  dd::Request request;
  request.op = dd::Request::Op::kIngest;
  request.series = SeriesName(series);
  request.timestamp = ts;
  request.value = value;
  return request;
}

dd::Request MergeRequest(size_t series, int64_t ts, std::string payload) {
  dd::Request request;
  request.op = dd::Request::Op::kMerge;
  request.series = SeriesName(series);
  request.timestamp = ts;
  request.payload = std::move(payload);
  return request;
}

/// One window per series: the series' values, one INGEST frame each.
Window ValueWindow(size_t series, std::vector<double> values) {
  std::vector<dd::Request> requests;
  for (double v : values) requests.push_back(IngestRequest(series, kTimeBase, v));
  Window window = EncodeWindow(requests);
  window.series.assign(values.size(), static_cast<uint32_t>(series));
  window.value_count = values.size();
  window.values = std::move(values);
  return window;
}

void GenerateIngestRaw(uint64_t seed, Inputs* in) {
  // Connection c owns series c, c + 2, c + 4, ...; one window per series.
  for (size_t series = 0; series < kIngestSeries; ++series) {
    in->load[series % kIngestConns].push_back(ValueWindow(
        series,
        ParetoValues(StreamRng(seed, kRawValues, series), kRawWindowValues)));
  }
}

void GenerateIngestSketches(uint64_t seed, Inputs* in) {
  // One payload per series; connection c cycles its series in windows of
  // kMergeWindowFrames MERGE frames.
  for (size_t series = 0; series < kIngestSeries; ++series) {
    in->sketch_values.push_back(ParetoValues(
        StreamRng(seed, kSketchPayloads, series), kSketchValues));
    in->sketches.push_back(SketchOf(in->sketch_values.back()));
  }
  for (int c = 0; c < kIngestConns; ++c) {
    std::vector<dd::Request> requests;
    std::vector<uint32_t> ids;
    for (size_t series = static_cast<size_t>(c); series < kIngestSeries;
         series += kIngestConns) {
      requests.push_back(MergeRequest(series, kTimeBase, in->sketches[series].Serialize()));
      ids.push_back(static_cast<uint32_t>(series));
      if (requests.size() == kMergeWindowFrames) {
        Window window = EncodeWindow(requests);
        window.series = ids;
        window.sketch_ids = ids;
        window.value_count = kMergeWindowFrames * kSketchValues;
        in->load[c].push_back(std::move(window));
        requests.clear();
        ids.clear();
      }
    }
    if (!requests.empty()) throw BenchError("series do not fill whole windows");
  }
}

void GenerateQueryMixed(uint64_t seed, Inputs* in) {
  // History: one 10 s sketch per series per interval over the last
  // kHistoryHours before kTimeBase, sent interval by interval the way
  // agents report, in MERGE windows alternating between two connections.
  const size_t intervals = static_cast<size_t>(kHistoryHours * 3600 / kRawIntervalS);
  in->exact_history.resize((kQuerySeries + kExactSampleEvery - 1) / kExactSampleEvery);
  std::vector<dd::Request> requests;
  std::vector<uint32_t> series_ids;
  size_t windows = 0;
  for (size_t i = 0; i < intervals; ++i) {
    const int64_t ts = kTimeBase - static_cast<int64_t>(intervals - i) * kRawIntervalS;
    for (size_t s = 0; s < kQuerySeries; ++s) {
      std::vector<double> values = ParetoValues(
          StreamRng(seed, kHistory, i * kQuerySeries + s), kHistorySketchValues);
      if (s % kExactSampleEvery == 0) {
        std::vector<double>& exact = in->exact_history[s / kExactSampleEvery];
        exact.insert(exact.end(), values.begin(), values.end());
      }
      requests.push_back(MergeRequest(s, ts, SketchOf(values).Serialize()));
      series_ids.push_back(static_cast<uint32_t>(s));
      if (requests.size() == kMergeWindowFrames) {
        Window window = EncodeWindow(requests);
        window.series = series_ids;
        window.value_count = kMergeWindowFrames * kHistorySketchValues;
        in->preload[windows++ % kIngestConns].push_back(std::move(window));
        requests.clear();
        series_ids.clear();
      }
    }
  }
  if (!requests.empty()) throw BenchError("history does not fill whole windows");
  in->history_values = intervals * kQuerySeries * kHistorySketchValues;

  for (size_t s = 0; s < kQuerySeries; ++s) {
    in->live.push_back(ValueWindow(
        s, ParetoValues(StreamRng(seed, kLiveValues, s), kLiveWindowValues)));
  }
}

/// A seeded mix of queries over the workload's series, one in four over
/// 6 h and the rest over 1 h. On query_mixed a 6 h query merges nearly
/// twice the sketches of a 1 h one, so latencies have two modes; with an
/// even mix the median sat between them and moved with each slice's mix
/// (ten-seed spread 0.14, against 0.08 for the 90th percentile).
void GenerateDashboard(uint64_t seed, Inputs* in) {
  dd::Rng rng = StreamRng(seed, kDashboard, 0);
  for (size_t i = 0; i < 4096; ++i) {
    DashboardQuery query;
    query.series = static_cast<uint32_t>(rng.NextBounded(in->series));
    query.window_s = kDashboardWindowsS[rng.NextBounded(4) == 0 ? 1 : 0];
    in->queries.push_back(query);
  }
}

}  // namespace

std::string SeriesName(size_t index) {
  char name[16];
  std::snprintf(name, sizeof(name), "s%04zu", index);
  return name;
}

void Stamp(Window* window, int64_t ts) {
  if (window->stamped_ts == ts) return;
  std::string varint;
  dd::PutVarintSigned64(&varint, ts);
  if (varint.size() != kTimestampBytes) {
    throw BenchError("timestamp outside the 5-byte varint range");
  }
  std::string crc;
  for (size_t i = 0; i < window->frames(); ++i) {
    char* body = window->wire.data() + window->body_offsets[i];
    std::memcpy(body + window->ts_offset, varint.data(), varint.size());
    crc.clear();
    dd::PutFixed32(&crc, dd::Crc32c(std::string_view(body, window->body_sizes[i])));
    std::memcpy(body - crc.size(), crc.data(), crc.size());
  }
  window->stamped_ts = ts;
}

Inputs GenerateInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.series = kIngestSeries;
  in.query_end = kTimeBase + 3600;
  if (workload == "ingest_raw") {
    GenerateIngestRaw(seed, &in);
  } else if (workload == "ingest_sketches") {
    GenerateIngestSketches(seed, &in);
  } else if (workload == "query_mixed") {
    GenerateQueryMixed(seed, &in);
    in.series = kQuerySeries;
    in.query_end = kTimeBase;
  } else {
    throw BenchError("unknown workload: " + workload);
  }
  GenerateDashboard(seed, &in);
  return in;
}

}  // namespace pb
