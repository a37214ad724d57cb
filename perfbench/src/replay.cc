#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>

#include "timeseries/durable_store.h"
#include "timeseries/sharded_store.h"
#include "timeseries/snapshot.h"
#include "timeseries/wal.h"
#include "verify.h"

namespace pb {
namespace {

namespace fs = std::filesystem;

// Fixed replay work per traced run.
constexpr uint64_t kReplayFrames[] = {256 * 1024, 10000};  // values, sketches
constexpr size_t kReplayQueries = 1000;
// sketchd's defaults: --commit-batch 64 over --shards 4; one connection's
// staged run is capped at commit_batch x shards records.
constexpr size_t kCommitBatch = 64;
constexpr size_t kShards = 4;
constexpr size_t kRunCap = kCommitBatch * kShards;

/// Times `body` in nanoseconds.
template <typename F>
int64_t TimeNs(F&& body) {
  const int64_t start = NowNs();
  body();
  return NowNs() - start;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  fs::create_directories(fs::path(path).parent_path());
  std::ofstream out(path);
  out << "name\tparent\tstart_ns\tend_ns\twindow\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.parent << '\t' << s.start_ns << '\t' << s.end_ns
        << '\t' << s.window << '\n';
  }
}

void ClientMetrics(const LayerInputs& li, Metrics* out) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : li.log->spans) {
    by_name[s.name].push_back(NsToUs(s.end_ns - s.start_ns));
  }
  for (const char* name :
       {"client.encode", "client.write", "client.first_ack", "client.drain"}) {
    Add(out, std::string(name) + "_us", Median(by_name[name]), "us");
  }
}

void ServerMetrics(const LayerInputs& li, Metrics* out) {
  const dd::StoreStats& a = *li.after;
  const dd::StoreStats& b = *li.before;
  // Op-latency rows are cumulative, so they are read after the ingest
  // workloads' read-back, whose queries they hold.
  auto row = [&](dd::LatencyOp op) -> const dd::OpLatencyStats& {
    return li.final->op_latencies[static_cast<size_t>(op)];
  };
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  // The write op: MERGE on ingest_sketches, INGEST elsewhere.
  const dd::OpLatencyStats& write = row(li.workload == "ingest_sketches"
                                            ? dd::LatencyOp::kMerge
                                            : dd::LatencyOp::kIngest);
  Add(out, "server.write_p50_us", write.p50_us, "us");
  Add(out, "server.write_p99_us", write.p99_us, "us");
  Add(out, "server.write_samples", static_cast<double>(write.count), "count");
  Add(out, "server.query_p50_us", row(dd::LatencyOp::kQuery).p50_us, "us");
  Add(out, "server.query_samples",
      static_cast<double>(row(dd::LatencyOp::kQuery).count), "count");
  Add(out, "server.checkpoint_p50_us", row(dd::LatencyOp::kCheckpoint).p50_us, "us");
  Add(out, "server.checkpoint_samples",
      static_cast<double>(row(dd::LatencyOp::kCheckpoint).count), "count");
  Add(out, "server.values_per_commit",
      static_cast<double>(li.traced_values) / delta(a.batch_commits, b.batch_commits),
      "count");
  Add(out, "server.bg_checkpoints",
      delta(a.background_checkpoints, b.background_checkpoints), "count");
  Add(out, "server.busy_rejections", delta(a.busy_rejections, b.busy_rejections),
      "count");
  Add(out, "server.connections_shed", delta(a.connections_shed, b.connections_shed),
      "count");
  Add(out, "timeseries.store_bytes_per_interval",
      static_cast<double>(a.size_in_bytes) / static_cast<double>(a.num_intervals), "B");
}

dd::WalRecord ToRecord(const dd::Request& request) {
  dd::WalRecord record;
  record.series = request.series;
  record.timestamp = request.timestamp;
  if (request.op == dd::Request::Op::kMerge) {
    record.type = dd::WalRecord::Type::kIngestSketch;
    record.payload = request.payload;
  } else {
    record.type = dd::WalRecord::Type::kIngestValue;
    record.value = request.value;
  }
  return record;
}

/// Offset of frame `i` in the window's wire bytes.
size_t FrameStart(const Window& window, size_t i) {
  return i == 0 ? 0 : window.body_offsets[i - 1] + window.body_sizes[i - 1];
}

struct Batch {
  size_t shard = 0;
  std::vector<dd::WalRecord> records;
};

/// Values that reach one SketchStore::IngestValues call.
struct ValueRun {
  std::string series;
  int64_t timestamp = 0;
  std::vector<double> values;
};

/// SketchStore::IngestValues and DDSketch::AddBatch over the same runs.
struct ValueTimes {
  int64_t store_ns = 0;
  int64_t add_ns = 0;
  uint64_t values = 0;

  void Time(const std::vector<ValueRun>& runs, dd::SketchStore* store,
            dd::DDSketch* sketch) {
    store_ns += TimeNs([&] {
      for (const ValueRun& r : runs) {
        Check(store->IngestValues(r.series, r.timestamp, r.values), "IngestValues");
      }
    });
    add_ns += TimeNs([&] {
      for (const ValueRun& r : runs) sketch->AddBatch(r.values);
    });
    for (const ValueRun& r : runs) values += r.values.size();
  }
};

/// DDSketch::Deserialize, then MergeFrom of what it decoded, per sketch.
struct CodecTimes {
  int64_t deserialize_ns = 0;
  int64_t merge_ns = 0;
  uint64_t sketches = 0;
  uint64_t values = 0;

  void Time(const std::vector<std::string_view>& payloads, dd::DDSketch* into) {
    std::vector<dd::DDSketch> decoded;
    decoded.reserve(payloads.size());
    deserialize_ns += TimeNs([&] {
      for (std::string_view p : payloads) {
        decoded.push_back(Check(dd::DDSketch::Deserialize(p), "Deserialize"));
      }
    });
    merge_ns += TimeNs([&] {
      for (const dd::DDSketch& d : decoded) Check(into->MergeFrom(d), "MergeFrom");
    });
    for (const dd::DDSketch& d : decoded) values += d.count();
    sketches += decoded.size();
  }
};

/// The sketches a workload that sends no MERGE payload during its load
/// still has: query_mixed's history preload, or else the series sketches
/// of the reference store, serialized.
std::vector<std::string> OtherPayloads(const LayerInputs& li) {
  std::vector<std::string> payloads;
  if (li.workload == "query_mixed") {
    for (const Window& window : li.in->preload[0]) {
      std::string_view wire = window.wire;
      while (!wire.empty() && payloads.size() < kReplayFrames[1]) {
        size_t size = 0;
        const std::string_view body = Check(dd::DecodeFrame(wire, &size), "history frame");
        payloads.push_back(Check(dd::DecodeRequest(body), "history request").payload);
        wire.remove_prefix(size);
      }
    }
    return payloads;
  }
  for (size_t s = 0; s < li.in->series; ++s) {
    payloads.push_back(Check(li.ref->QueryRange(SeriesName(s), kTimeBase - 3600,
                                                kTimeBase + 3600),
                             "reference query")
                           .Serialize());
  }
  return payloads;
}

/// decode -> ValidateRecord -> IngestBatch on the traced segment's
/// windows, then Append / Sync / IngestValues (or Deserialize / MergeFrom)
/// timed separately on the same batches.
void ReplayIngest(const LayerInputs& li, Metrics* out) {
  const bool raw = li.workload != "ingest_sketches";
  std::vector<const WindowLog*> windows;
  for (const WindowLog& w : li.log->windows) {
    if (w.done_ns >= li.traced_from_ns && w.done_ns < li.traced_to_ns) {
      windows.push_back(&w);
    }
  }
  std::sort(windows.begin(), windows.end(),
            [](const WindowLog* a, const WindowLog* b) { return a->done_ns < b->done_ns; });

  dd::ShardedDurableStoreOptions options;
  options.shards = kShards;
  dd::ShardedDurableStore store = Check(
      dd::ShardedDurableStore::Open(li.replay_dir + "/store", options), "replay store");

  // sketchd's order: a connection's run of up to kRunCap frames is
  // decoded, then validated and staged per shard, its group commits run,
  // and then its responses are encoded. Each step is timed once per run
  // (or per commit batch), not per frame, to keep clock reads out of it.
  int64_t decode_ns = 0, validate_ns = 0, encode_ns = 0, batch_ns = 0;
  uint64_t frames = 0;
  std::vector<Batch> staged;
  std::vector<dd::Request> requests;
  std::vector<dd::WalRecord> records;
  auto replay_run = [&](std::string_view wire) {
    requests.clear();
    decode_ns += TimeNs([&] {
      while (!wire.empty()) {
        size_t size = 0;
        const std::string_view body = Check(dd::DecodeFrame(wire, &size), "replay frame");
        requests.push_back(Check(dd::DecodeRequest(body), "replay request"));
        wire.remove_prefix(size);
      }
    });
    records.clear();
    for (const dd::Request& request : requests) records.push_back(ToRecord(request));
    validate_ns += TimeNs([&] {
      for (const dd::WalRecord& r : records) Check(store.ValidateRecord(r), "ValidateRecord");
    });
    // Split by shard; each shard's committer drains at most kCommitBatch
    // records per group commit.
    std::vector<std::vector<dd::WalRecord>> by_shard(kShards);
    for (dd::WalRecord& r : records) by_shard[store.ShardOf(r.series)].push_back(std::move(r));
    for (size_t k = 0; k < kShards; ++k) {
      for (size_t i = 0; i < by_shard[k].size(); i += kCommitBatch) {
        Batch batch;
        batch.shard = k;
        const size_t end = std::min(i + kCommitBatch, by_shard[k].size());
        batch.records.assign(std::make_move_iterator(by_shard[k].begin() + i),
                             std::make_move_iterator(by_shard[k].begin() + end));
        batch_ns += TimeNs([&] {
          Check(store.shard(k).IngestBatch(batch.records), "IngestBatch");
        });
        staged.push_back(std::move(batch));
      }
    }
    encode_ns += TimeNs([&] {
      for (const dd::Request& request : requests) {
        dd::Response response;
        response.op = request.op;
        (void)dd::EncodeResponse(response);
      }
    });
    frames += requests.size();
  };
  const uint64_t cap = kReplayFrames[raw ? 0 : 1];
  for (const WindowLog* w : windows) {
    if (frames >= cap) break;
    Window window = WindowOf(*li.in, li.workload, *w);
    Stamp(&window, w->ts);
    // Runs end on frame boundaries: at most kRunCap frames each.
    size_t run_start = 0;
    for (size_t i = kRunCap; i <= window.frames(); i += kRunCap) {
      const size_t end = i == window.frames() ? window.wire.size() : FrameStart(window, i);
      replay_run(std::string_view(window.wire).substr(run_start, end - run_start));
      run_start = end;
    }
    if (run_start < window.wire.size()) {
      replay_run(std::string_view(window.wire).substr(run_start));
    }
  }

  // The parts of IngestBatch, timed on their own over the same batches.
  fs::create_directories(li.replay_dir + "/wal");
  dd::WalWriter wal =
      Check(dd::WalWriter::Create(li.replay_dir + "/wal/parts.wal", 1), "parts WAL");
  const uint64_t wal_start = wal.offset();
  dd::SketchStore parts_store = NewReference();
  dd::DDSketch sketch = Check(dd::DDSketch::Create(kAlpha), "parts sketch");
  int64_t append_ns = 0, sync_ns = 0;
  uint64_t appended = 0;
  ValueTimes value_times;
  CodecTimes codec_times;
  std::vector<std::string_view> payloads;
  std::vector<ValueRun> runs;
  for (const Batch& b : staged) {
    append_ns += TimeNs([&] {
      for (const dd::WalRecord& r : b.records) Check(wal.Append(r), "Append");
    });
    appended += b.records.size();
    sync_ns += TimeNs([&] { Check(wal.Sync(), "Sync"); });
    if (!raw) {
      payloads.clear();
      for (const dd::WalRecord& r : b.records) payloads.push_back(r.payload);
      codec_times.Time(payloads, &sketch);
      continue;
    }
    // IngestBatch's grouping: consecutive values of one series and raw
    // interval go through one IngestValues call.
    runs.clear();
    for (size_t i = 0; i < b.records.size();) {
      const dd::WalRecord& r = b.records[i];
      const int64_t interval = parts_store.RawStart(r.timestamp);
      runs.push_back({r.series, r.timestamp, {}});
      for (; i < b.records.size() && b.records[i].series == r.series &&
             parts_store.RawStart(b.records[i].timestamp) == interval;
           ++i) {
        runs.back().values.push_back(b.records[i].value);
      }
    }
    value_times.Time(runs, &parts_store, &sketch);
  }
  const double n_frames = static_cast<double>(frames);
  const double n_batches = static_cast<double>(staged.size());
  const uint64_t wal_values = raw ? value_times.values : codec_times.values;
  const int64_t parts_ns =
      append_ns + sync_ns +
      (raw ? value_times.store_ns : codec_times.deserialize_ns + codec_times.merge_ns);

  // The core work this workload's load does not do: on raw workloads the
  // sketches it holds anyway (OtherPayloads); on ingest_sketches the
  // values behind its payloads, as the agents sketched them.
  if (raw) {
    const std::vector<std::string> other = OtherPayloads(li);
    dd::DDSketch into = Check(dd::DDSketch::Create(kAlpha), "codec sketch");
    for (size_t i = 0; i < other.size(); i += kCommitBatch) {
      payloads.assign(other.begin() + static_cast<std::ptrdiff_t>(i),
                      other.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(i + kCommitBatch, other.size())));
      codec_times.Time(payloads, &into);
    }
  } else {
    for (size_t s = 0; s < li.in->sketch_values.size(); s += kCommitBatch) {
      runs.clear();
      for (size_t k = s; k < std::min(s + kCommitBatch, li.in->sketch_values.size()); ++k) {
        runs.push_back({SeriesName(k), kTimeBase, li.in->sketch_values[k]});
      }
      value_times.Time(runs, &parts_store, &sketch);
    }
  }

  Add(out, "protocol.decode_request_ns", static_cast<double>(decode_ns) / n_frames, "ns");
  Add(out, "protocol.encode_response_ns", static_cast<double>(encode_ns) / n_frames, "ns");
  Add(out, "timeseries.validate_ns_per_record", static_cast<double>(validate_ns) / n_frames,
      "ns");
  Add(out, "timeseries.ingest_batch_us", NsToUs(batch_ns) / n_batches, "us");
  Add(out, "timeseries.ingest_batch_self_us", NsToUs(batch_ns - parts_ns) / n_batches, "us");
  Add(out, "timeseries.wal_append_ns_per_record",
      static_cast<double>(append_ns) / static_cast<double>(appended), "ns");
  Add(out, "timeseries.wal_bytes_per_value",
      static_cast<double>(wal.offset() - wal_start) / static_cast<double>(wal_values), "B");
  Add(out, "util.fsync_us", NsToUs(sync_ns) / n_batches, "us");
  Add(out, "timeseries.store_ingest_ns_per_value",
      static_cast<double>(value_times.store_ns) / static_cast<double>(value_times.values),
      "ns");
  Add(out, "core.add_batch_ns_per_value",
      static_cast<double>(value_times.add_ns) / static_cast<double>(value_times.values),
      "ns");
  Add(out, "core.deserialize_us",
      NsToUs(codec_times.deserialize_ns) / static_cast<double>(codec_times.sketches), "us");
  Add(out, "core.merge_us",
      NsToUs(codec_times.merge_ns) / static_cast<double>(codec_times.sketches), "us");
  Add(out, "timeseries.recovery_s", li.recovery_s, "s");
}

/// QueryRange -> Quantile over the dashboard's queries (query_mixed's,
/// or the ingest workloads' read-back), then EncodeSnapshot -> Checkpoint
/// of the whole store.
void ReplayQuery(const LayerInputs& li, Metrics* out) {
  const dd::SketchStore& store = *li.ref;
  const std::vector<dd::RollupLevel>& levels = store.options().levels;
  const int64_t end = li.in->query_end;
  std::vector<double> range_us;
  int64_t quantile_ns = 0;
  uint64_t quantiles = 0;
  double intervals = 0;
  for (size_t i = 0; i < kReplayQueries; ++i) {
    const DashboardQuery& q = li.in->queries[i % li.in->queries.size()];
    std::optional<dd::DDSketch> merged;
    range_us.push_back(NsToUs(TimeNs([&] {
      merged = Check(store.QueryRange(SeriesName(q.series), end - q.window_s, end),
                     "QueryRange");
    })));
    for (double p : kDashboardQuantiles) {
      quantile_ns += TimeNs([&] { (void)Check(merged->Quantile(p), "Quantile"); });
      ++quantiles;
    }
    if (li.workload != "query_mixed") continue;
    // The history is dense and the fold boundary sits exactly one raw
    // retention before the horizon, so a window covers its last
    // retention at raw width and the rest at the next level's width.
    const int64_t raw_part = std::min(q.window_s, levels[0].retention_seconds);
    intervals += static_cast<double>(raw_part / levels[0].interval_seconds +
                                     (q.window_s - raw_part) / levels[1].interval_seconds);
  }
  // The ingest workloads' windows cover every interval of their series.
  if (li.workload != "query_mixed") {
    intervals = static_cast<double>(kReplayQueries * store.num_intervals()) /
                static_cast<double>(store.num_series());
  }
  Add(out, "timeseries.query_range_us", Median(range_us), "us");
  Add(out, "timeseries.intervals_per_query", intervals / kReplayQueries, "count");
  Add(out, "core.quantile_ns", static_cast<double>(quantile_ns) / static_cast<double>(quantiles),
      "ns");

  std::string image;
  const int64_t encode_ns = TimeNs([&] { image = dd::EncodeSnapshot(store, 1); });
  Add(out, "timeseries.snapshot_encode_ms", NsToMs(encode_ns), "ms");
  Add(out, "timeseries.snapshot_bytes", static_cast<double>(image.size()), "B");
  const std::string dir = li.replay_dir + "/checkpoint";
  fs::create_directories(dir);
  Check(dd::WriteSnapshotFile(store, 0, dd::DurableSketchStore::SnapshotPath(dir)),
        "write snapshot");
  dd::DurableSketchStore durable =
      Check(dd::DurableSketchStore::Open(dir, dd::DurableSketchStoreOptions{}), "reopen");
  const int64_t checkpoint_ns = TimeNs([&] { Check(durable.Checkpoint(), "Checkpoint"); });
  Add(out, "timeseries.checkpoint_ms", NsToMs(checkpoint_ns), "ms");
}

}  // namespace

void LayerMetrics(const LayerInputs& li, Metrics* out) {
  WriteSpans(li.log->spans, li.spans_path);
  ClientMetrics(li, out);
  ServerMetrics(li, out);
  fs::create_directories(li.replay_dir);
  ReplayIngest(li, out);
  ReplayQuery(li, out);
}

}  // namespace pb
