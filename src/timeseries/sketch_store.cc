#include "timeseries/sketch_store.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>

namespace dd {

std::vector<RollupLevel> DefaultRollupLevels() {
  return {{10, 3600}, {60, 86400}, {3600, 0}};
}

SketchStore::SketchStore(const SketchStoreOptions& options,
                         DDSketch prototype)
    : options_(options),
      prototype_(std::move(prototype)),
      header_(prototype_.SerializedHeader()),
      rollup_merges_(options_.levels.size(), 0) {}

Status SketchStore::ValidateLevels(const std::vector<RollupLevel>& levels) {
  if (levels.empty()) {
    return Status::InvalidArgument("rollup ladder needs at least one level");
  }
  if (levels.front().interval_seconds < 1) {
    return Status::InvalidArgument("level interval must be >= 1 second");
  }
  for (const RollupLevel& level : levels) {
    if (level.interval_seconds > kMaxLevelSeconds ||
        level.retention_seconds > kMaxLevelSeconds) {
      return Status::InvalidArgument(
          "level interval and retention must be at most 2^60 seconds");
    }
  }
  for (size_t i = 1; i < levels.size(); ++i) {
    const int64_t prev = levels[i - 1].interval_seconds;
    const int64_t cur = levels[i].interval_seconds;
    if (cur <= prev || cur % prev != 0) {
      return Status::InvalidArgument(
          "each level's interval must be a strict integer multiple of the "
          "previous level's");
    }
  }
  for (size_t i = 0; i < levels.size(); ++i) {
    const int64_t retention = levels[i].retention_seconds;
    if (i + 1 == levels.size()) {
      // Last level: 0 = keep forever; a finite retention must cover at
      // least one of its own intervals so the hot bucket never expires.
      if (retention != 0 && retention < levels[i].interval_seconds) {
        return Status::InvalidArgument(
            "last-level retention must be 0 (forever) or cover at least one "
            "interval");
      }
    } else if (retention < levels[i + 1].interval_seconds) {
      return Status::InvalidArgument(
          "a level's retention must cover at least one next-level interval "
          "(0 = forever is only legal on the last level)");
    }
  }
  return Status::OK();
}

Status SketchStore::CheckTimestamp(int64_t timestamp) {
  if (timestamp < -kMaxTimestamp || timestamp > kMaxTimestamp) {
    return Status::InvalidArgument("timestamp " + std::to_string(timestamp) +
                                   " outside +/-2^61 seconds");
  }
  return Status::OK();
}

Result<SketchStore> SketchStore::Create(const SketchStoreOptions& options) {
  SketchStoreOptions resolved = options;
  if (resolved.levels.empty()) resolved.levels = DefaultRollupLevels();
  DD_RETURN_IF_ERROR(ValidateLevels(resolved.levels));
  auto prototype = DDSketch::Create(resolved.sketch);
  if (!prototype.ok()) return prototype.status();
  return SketchStore(resolved, std::move(prototype).value());
}

SketchStore::Series& SketchStore::SeriesFor(const std::string& name) {
  Series& s = series_[name];
  if (s.levels.empty()) s.levels.resize(options_.levels.size());
  return s;
}

Status SketchStore::Ingest(const std::string& series, int64_t timestamp,
                           std::string_view payload) {
  DDSketch::SerializedView view;
  DD_RETURN_IF_ERROR(CheckPayload(payload, &view));
  std::string built;
  return IngestImage(series, timestamp, MergeImageOf(payload, view, &built));
}

Status SketchStore::CheckPayload(std::string_view payload,
                                 DDSketch::SerializedView* view) const {
  DD_RETURN_IF_ERROR(DDSketch::CheckSerialized(payload, view));
  if (view->header != header_ &&
      !prototype_.mapping().IsCompatibleWith(view->mapping,
                                             view->relative_accuracy)) {
    return Status::Incompatible(
        "sketch parameters do not match the store's configuration");
  }
  return Status::OK();
}

std::string_view SketchStore::MergeImageOf(std::string_view payload,
                                           const DDSketch::SerializedView& view,
                                           std::string* built) const {
  if (view.header == header_ && view.canonical) return view.image;
  // CheckPayload accepted the payload, so it decodes and merges.
  *built = MergedImage(DDSketch::Deserialize(payload).value());
  return *built;
}

std::string SketchStore::MergedImage(const DDSketch& sketch) const {
  DDSketch merged = prototype_;
  (void)merged.MergeFrom(sketch);  // the callers check compatibility
  return merged.Freeze();
}

Status SketchStore::IngestImage(const std::string& series, int64_t timestamp,
                                std::string_view image) {
  DD_RETURN_IF_ERROR(CheckTimestamp(timestamp));
  Interval& interval = FindOrInsert(&SeriesFor(series).levels[0],
                                    RawStart(timestamp));
  if (interval.dense == nullptr && interval.frozen.empty()) {
    interval.frozen.assign(image);
  } else {
    Thaw(interval).MergeEncoded(image);
  }
  return Status::OK();
}

SketchStore::Interval& SketchStore::FindOrInsert(std::vector<Interval>* tier,
                                                 int64_t start) {
  if (tier->empty() || tier->back().start < start) {
    tier->push_back(Interval{start, {}, nullptr});
    return tier->back();
  }
  const auto it = std::lower_bound(
      tier->begin(), tier->end(), start,
      [](const Interval& interval, int64_t s) { return interval.start < s; });
  if (it->start == start) return *it;
  return *tier->insert(it, Interval{start, {}, nullptr});
}

DDSketch& SketchStore::Thaw(Interval& interval) const {
  if (interval.dense == nullptr) {
    // The store's header plus frozen bytes is the sketch's Serialize(),
    // which decodes to the sketch byte for byte (frozen bytes come from
    // Freeze() or are a validated payload's canonical image, so the
    // decode cannot fail).
    interval.dense = std::make_unique<DDSketch>(
        interval.frozen.empty()
            ? prototype_
            : DDSketch::Deserialize(header_ + interval.frozen).value());
    std::string().swap(interval.frozen);
  }
  return *interval.dense;
}

void SketchStore::Freeze(Interval& interval) {
  if (interval.dense == nullptr) return;
  interval.frozen = interval.dense->Freeze();
  interval.dense.reset();
}

void SketchStore::MergeInto(const Interval& interval, DDSketch* out) {
  if (interval.dense != nullptr) {
    (void)out->MergeFrom(*interval.dense);  // same parameters by construction
  } else {
    out->MergeEncoded(interval.frozen);
  }
}

size_t SketchStore::HeldBytes(const Interval& interval) {
  return sizeof(Interval) + (interval.dense != nullptr
                                 ? interval.dense->size_in_bytes()
                                 : interval.frozen.capacity());
}

Status SketchStore::IngestSketch(const std::string& series, int64_t timestamp,
                                 const DDSketch& sketch) {
  // Validate before touching the tiers so a failed ingest leaves no empty
  // series/interval behind.
  DD_RETURN_IF_ERROR(CheckTimestamp(timestamp));
  DD_RETURN_IF_ERROR(CheckCompatible(sketch));
  Interval& interval = FindOrInsert(&SeriesFor(series).levels[0],
                                    RawStart(timestamp));
  if (interval.dense == nullptr && interval.frozen.empty()) {
    // A MERGE into an empty interval is stored frozen: merged into the
    // prototype exactly as a dense interval would be (so a payload's own
    // store type, bound, -0.0 sum or NaN min end up as they always
    // have), then frozen.
    interval.frozen = MergedImage(sketch);
    return Status::OK();
  }
  return Thaw(interval).MergeFrom(sketch);
}

Status SketchStore::CheckCompatible(const DDSketch& sketch) const {
  if (!prototype_.mapping().IsCompatibleWith(sketch.mapping())) {
    return Status::Incompatible(
        "sketch parameters do not match the store's configuration");
  }
  return Status::OK();
}

Status SketchStore::IngestValue(const std::string& series, int64_t timestamp,
                                double value) {
  DD_RETURN_IF_ERROR(CheckTimestamp(timestamp));
  Interval& interval = FindOrInsert(&SeriesFor(series).levels[0],
                                    RawStart(timestamp));
  Thaw(interval).Add(value);
  return Status::OK();
}

Status SketchStore::IngestValues(const std::string& series, int64_t timestamp,
                                 std::span<const double> values) {
  DD_RETURN_IF_ERROR(CheckTimestamp(timestamp));
  if (values.empty()) return Status::OK();
  Interval& interval = FindOrInsert(&SeriesFor(series).levels[0],
                                    RawStart(timestamp));
  Thaw(interval).AddBatch(values);
  return Status::OK();
}

void SketchStore::MergeOverlapping(const std::vector<Interval>& tier,
                                   int64_t width, int64_t start, int64_t end,
                                   DDSketch* out) {
  // First bucket possibly overlapping [start, end) begins at or after
  // start - width + 1.
  auto it = std::lower_bound(
      tier.begin(), tier.end(), start - width + 1,
      [](const Interval& interval, int64_t s) { return interval.start < s; });
  for (; it != tier.end() && it->start < end; ++it) MergeInto(*it, out);
}

Result<DDSketch> SketchStore::QueryRange(const std::string& series,
                                         int64_t start, int64_t end) const {
  DD_RETURN_IF_ERROR(CheckTimestamp(start));
  DD_RETURN_IF_ERROR(CheckTimestamp(end));
  if (start >= end) {
    return Status::InvalidArgument("empty time range");
  }
  const auto it = series_.find(series);
  if (it == series_.end()) {
    return Status::InvalidArgument("unknown series: " + series);
  }
  // Every datum lives in exactly one level (rollup moves sketches, never
  // copies them), so merging the overlapping buckets of every level
  // yields the finest stored resolution over each part of the window
  // with no double counting.
  DDSketch merged = prototype_;
  for (size_t i = 0; i < it->second.levels.size(); ++i) {
    MergeOverlapping(it->second.levels[i], options_.levels[i].interval_seconds,
                     start, end, &merged);
  }
  return merged;
}

Result<double> SketchStore::QueryQuantile(const std::string& series,
                                          int64_t start, int64_t end,
                                          double q) const {
  auto merged = QueryRange(series, start, end);
  if (!merged.ok()) return merged.status();
  return merged.value().Quantile(q);
}

Result<std::vector<SeriesPoint>> SketchStore::QuerySeries(
    const std::string& series, int64_t start, int64_t end, double q,
    int64_t step_seconds) const {
  if (step_seconds < 1 || step_seconds > kMaxTimestamp) {
    return Status::InvalidArgument("step must be in [1 second, 2^61 seconds]");
  }
  DD_RETURN_IF_ERROR(CheckTimestamp(start));
  DD_RETURN_IF_ERROR(CheckTimestamp(end));
  std::vector<SeriesPoint> points;
  for (int64_t t = start; t < end; t += step_seconds) {
    auto merged = QueryRange(series, t, std::min(t + step_seconds, end));
    if (!merged.ok()) return merged.status();
    if (merged.value().empty()) continue;
    points.push_back({t, merged.value().count(),
                      merged.value().QuantileOrNaN(q)});
  }
  return points;
}

int64_t SketchStore::DataHorizon() const {
  int64_t horizon = std::numeric_limits<int64_t>::min();
  for (const auto& [name, s] : series_) {
    for (size_t i = 0; i < s.levels.size(); ++i) {
      if (s.levels[i].empty()) continue;
      horizon = std::max(horizon, s.levels[i].back().start +
                                      options_.levels[i].interval_seconds);
    }
  }
  return horizon;
}

size_t SketchStore::Compact(int64_t now) {
  const int64_t horizon = DataHorizon();
  if (horizon == std::numeric_limits<int64_t>::min()) return 0;
  // Clamp against the newest ingested data: a caller clock running
  // ahead of the ingest timestamps must not age still-hot intervals,
  // and INT64_MAX deliberately saturates to pure data-time rollup (the
  // deterministic form checkpoints use). Below -kMaxTimestamp nothing
  // can fold (every interval ends after -kMaxTimestamp), so a clock
  // clamped there folds the same and keeps the cutoffs in range.
  const int64_t effective_now =
      std::max(std::min(now, horizon), -kMaxTimestamp);
  size_t folded = 0;
  for (auto& [name, s] : series_) {
    // Fine → coarse, so very old data cascades through several levels
    // in one pass. Ascending start order keeps the fold deterministic: a
    // coarse interval's sum is a floating-point sum of its parts.
    for (size_t i = 0; i + 1 < s.levels.size(); ++i) {
      const int64_t next_width = options_.levels[i + 1].interval_seconds;
      // Aligning the cutoff down to the next level's width means a
      // coarse bucket only ever receives its complete set of finer
      // intervals in a single pass.
      const int64_t cutoff = AlignDown(
          effective_now - options_.levels[i].retention_seconds, next_width);
      std::vector<Interval>& fine = s.levels[i];
      std::vector<Interval>& coarse = s.levels[i + 1];
      size_t n = 0;
      for (; n < fine.size() && fine[n].start < cutoff; ++n) {
        Interval& slot =
            FindOrInsert(&coarse, AlignDown(fine[n].start, next_width));
        MergeInto(fine[n], &Thaw(slot));
        ++rollup_merges_[i + 1];
      }
      fine.erase(fine.begin(), fine.begin() + static_cast<ptrdiff_t>(n));
      folded += n;
    }
    const RollupLevel& last = options_.levels.back();
    if (last.retention_seconds > 0) {
      // Only fully-expired buckets go: start < cutoff (both aligned to
      // the level width) implies start + width <= now - retention.
      const int64_t cutoff = AlignDown(
          effective_now - last.retention_seconds, last.interval_seconds);
      std::vector<Interval>& tier = s.levels.back();
      size_t n = 0;
      while (n < tier.size() && tier[n].start < cutoff) ++n;
      tier.erase(tier.begin(), tier.begin() + static_cast<ptrdiff_t>(n));
      folded += n;
      rollup_merges_.back() += n;
    }
    // Then hold every interval frozen until a write thaws it. Every
    // checkpoint compacts first, so its snapshot encode only copies.
    for (std::vector<Interval>& tier : s.levels) {
      for (Interval& interval : tier) Freeze(interval);
    }
  }
  return folded;
}

std::vector<std::string> SketchStore::ListSeries() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) names.push_back(name);
  return names;
}

size_t SketchStore::num_intervals() const {
  size_t total = 0;
  for (const auto& [name, s] : series_) {
    for (const auto& tier : s.levels) total += tier.size();
  }
  return total;
}

size_t SketchStore::size_in_bytes() const {
  size_t total = sizeof(*this);
  for (const auto& [name, s] : series_) {
    total += name.size();
    for (const auto& tier : s.levels) {
      for (const Interval& interval : tier) total += HeldBytes(interval);
    }
  }
  return total;
}

std::vector<LevelUsage> SketchStore::LevelStats() const {
  std::vector<LevelUsage> stats(options_.levels.size());
  for (size_t i = 0; i < stats.size(); ++i) {
    stats[i].interval_seconds = options_.levels[i].interval_seconds;
    stats[i].retention_seconds = options_.levels[i].retention_seconds;
    stats[i].rollup_merges = rollup_merges_[i];
  }
  for (const auto& [name, s] : series_) {
    for (size_t i = 0; i < s.levels.size(); ++i) {
      stats[i].num_intervals += s.levels[i].size();
      for (const Interval& interval : s.levels[i]) {
        stats[i].retained_bytes += HeldBytes(interval);
      }
    }
  }
  return stats;
}

}  // namespace dd
