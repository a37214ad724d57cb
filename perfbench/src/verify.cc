#include "verify.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common.h"
#include "server/protocol.h"
#include "timeseries/sharded_store.h"

namespace pb {
namespace {

const std::vector<double> kCheckQuantiles = {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0};

std::vector<double> Quantiles(const dd::DDSketch& sketch,
                              const std::vector<double>& quantiles) {
  std::vector<double> out;
  for (double q : quantiles) out.push_back(Check(sketch.Quantile(q), "quantile"));
  return out;
}

std::vector<double> Answer(const dd::SketchStore& ref, const std::string& series,
                           int64_t start, int64_t end,
                           const std::vector<double>& quantiles) {
  return Quantiles(
      Check(ref.QueryRange(series, start, end), "reference query " + series),
      quantiles);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

dd::SketchStore NewReference() {
  dd::SketchStoreOptions options;  // alpha 0.01, default ladder: sketchd's
  return Check(dd::SketchStore::Create(options), "reference store");
}

const Window& WindowOf(const Inputs& in, const std::string& workload,
                       const WindowLog& entry) {
  return workload == "query_mixed" ? in.live[entry.slot]
                                   : in.load[entry.conn][entry.slot];
}

void FeedAcked(const Inputs& in, const std::string& workload,
               const std::vector<WindowLog>& windows, dd::SketchStore* ref) {
  std::vector<double> values;
  for (const WindowLog& entry : windows) {
    const Window& window = WindowOf(in, workload, entry);
    size_t next_failed = 0;
    values.clear();
    for (uint32_t i = 0; i < entry.frames; ++i) {
      if (next_failed < entry.failed.size() && entry.failed[next_failed] == i) {
        ++next_failed;
        continue;
      }
      if (window.sketch_ids.empty()) {
        values.push_back(window.values[i]);
      } else {
        Check(ref->IngestSketch(SeriesName(window.series[i]), entry.ts,
                                in.sketches[window.sketch_ids[i]]),
              "reference merge");
      }
    }
    // A value window is one series.
    if (!values.empty()) {
      Check(ref->IngestValues(SeriesName(window.series[0]), entry.ts, values),
            "reference ingest");
    }
  }
}

void FeedHistory(const Inputs& in, dd::SketchStore* ref) {
  for (const std::vector<Window>& pool : in.preload) {
    for (const Window& window : pool) {
      std::string_view wire = window.wire;
      while (!wire.empty()) {
        size_t frame_size = 0;
        const std::string_view body =
            Check(dd::DecodeFrame(wire, &frame_size), "history frame");
        const dd::Request request = Check(dd::DecodeRequest(body), "history request");
        const dd::DDSketch sketch =
            Check(dd::DDSketch::Deserialize(request.payload), "history sketch");
        Check(ref->IngestSketch(request.series, request.timestamp, sketch),
              "reference history");
        wire.remove_prefix(frame_size);
      }
    }
  }
  // sketchd's COMPACT: the explicit fold as of the horizon, then the
  // checkpoint's fold by data time.
  ref->Compact(kTimeBase);
  ref->Compact(std::numeric_limits<int64_t>::max());
}

Answers DashboardAnswers(const dd::SketchStore& ref, const Inputs& in) {
  const std::vector<double> quantiles(kDashboardQuantiles.begin(),
                                      kDashboardQuantiles.end());
  Answers answers(in.series);
  for (size_t s = 0; s < in.series; ++s) {
    for (int64_t window_s : kDashboardWindowsS) {
      answers[s].push_back(Answer(ref, SeriesName(s), in.query_end - window_s,
                                  in.query_end, quantiles));
    }
  }
  return answers;
}

void CheckAnswers(dd::SketchClient* client, const dd::SketchStore& ref,
                  size_t series, int64_t start, int64_t end, Verdict* verdict) {
  for (size_t s = 0; s < series; ++s) {
    const std::string name = SeriesName(s);
    auto served = client->Query(name, start, end, kCheckQuantiles);
    if (!served.ok()) {
      verdict->Fail("QUERY " + name + " failed: " + served.status().ToString());
      continue;
    }
    if (!SameBits(served.value(), Answer(ref, name, start, end, kCheckQuantiles))) {
      verdict->Fail("QUERY " + name + " differs from the reference");
    }
  }
}

void CheckStats(const dd::StoreStats& stats, const dd::SketchStore& ref,
                Verdict* verdict) {
  if (stats.num_series != ref.num_series()) {
    verdict->Fail("STATS num_series " + std::to_string(stats.num_series) +
                  " != reference " + std::to_string(ref.num_series()));
  }
  if (stats.num_intervals != ref.num_intervals()) {
    verdict->Fail("STATS num_intervals " + std::to_string(stats.num_intervals) +
                  " != reference " + std::to_string(ref.num_intervals()));
  }
}

void CheckExact(const dd::SketchStore& ref, const std::string& series,
                int64_t start, int64_t end, const std::vector<double>& sorted,
                uint64_t copies, Verdict* verdict) {
  const dd::DDSketch merged =
      Check(ref.QueryRange(series, start, end), "reference query " + series);
  const uint64_t n = sorted.size() * copies;
  if (merged.count() != n) {
    verdict->Fail(series + ": reference holds " + std::to_string(merged.count()) +
                  " values, " + std::to_string(n) + " were acked");
    return;
  }
  for (double q : kCheckQuantiles) {
    const uint64_t rank =
        static_cast<uint64_t>(std::floor(q * static_cast<double>(n - 1)));
    const double exact = sorted[rank / copies];
    const double estimate = Check(merged.Quantile(q), "quantile");
    if (std::fabs(estimate - exact) > kAlpha * std::fabs(exact) * (1 + 1e-9)) {
      verdict->Fail(series + ": q=" + std::to_string(q) + " estimate " +
                    std::to_string(estimate) + " not within alpha of " +
                    std::to_string(exact));
    }
  }
}

double CheckRecovery(const std::string& data_dir, const dd::SketchStore& ref,
                     size_t series, Verdict* verdict) {
  dd::ShardedDurableStoreOptions options;  // sketchd's alpha; ladder adopted
  options.shards = 4;
  const int64_t start = NowNs();
  auto reopened = dd::ShardedDurableStore::Open(data_dir, options);
  const double seconds = NsToS(NowNs() - start);
  if (!reopened.ok()) {
    verdict->Fail("reopen after SIGKILL failed: " + reopened.status().ToString());
    return seconds;
  }
  // Every interval of the run lies within an hour of kTimeBase.
  const int64_t from = kTimeBase - 3600;
  const int64_t to = kTimeBase + 3600;
  for (size_t s = 0; s < series; ++s) {
    const std::string name = SeriesName(s);
    auto got = reopened.value().QueryRange(name, from, to);
    const dd::DDSketch want = Check(ref.QueryRange(name, from, to), "reference");
    if (!got.ok() || got.value().count() != want.count()) {
      verdict->Fail(name + ": acked values lost after SIGKILL");
      continue;
    }
    if (!SameBits(Quantiles(want, kCheckQuantiles),
                  Quantiles(got.value(), kCheckQuantiles))) {
      verdict->Fail(name + ": answers changed across SIGKILL");
    }
  }
  return seconds;
}

}  // namespace pb
