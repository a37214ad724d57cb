#include "timeseries/snapshot.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/ddsketch.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/varint.h"

namespace dd {
namespace {

constexpr char kMagic[4] = {'D', 'D', 'S', 'S'};
constexpr uint8_t kVersionLegacy = 1;  // raw + one coarse tier
constexpr uint8_t kVersion = 2;        // N-level rollup ladder
// Ladders deeper than this are rejected as corruption rather than
// trusted to size allocations (a real ladder has a handful of rungs).
constexpr uint64_t kMaxLevels = 64;

}  // namespace

/// Befriended by SketchStore; owns the snapshot body layout.
class SketchStoreSnapshotCodec {
 public:
  /// Appends the body to `out`, sized up front: a checkpoint's encode is
  /// mostly copying. A frozen interval's payload is the store's one
  /// sketch header followed by its frozen bytes, which is exactly its
  /// Serialize(); a dense one is serialized.
  static void EncodeBody(const SketchStore& store, uint64_t epoch,
                         std::string* out) {
    const SketchStoreOptions& options = store.options_;
    const std::string& header = store.header_;
    size_t estimate = out->size() + 64;
    for (const auto& [name, series] : store.series_) {
      estimate += name.size() + 16;
      for (const auto& tier : series.levels) {
        for (const SketchStore::Interval& interval : tier) {
          estimate += 16 + header.size() + interval.frozen.size();
        }
      }
    }
    out->reserve(estimate);
    std::string& body = *out;
    PutVarint64(&body, epoch);
    PutVarint64(&body, options.levels.size());
    for (const RollupLevel& level : options.levels) {
      PutVarint64(&body, static_cast<uint64_t>(level.interval_seconds));
      PutVarint64(&body, static_cast<uint64_t>(level.retention_seconds));
    }
    PutFixedDouble(&body, options.sketch.relative_accuracy);
    body.push_back(static_cast<char>(options.sketch.mapping));
    body.push_back(static_cast<char>(options.sketch.store));
    PutVarint64(&body, static_cast<uint64_t>(options.sketch.max_num_buckets));
    PutVarint64(&body, store.series_.size());
    for (const auto& [name, series] : store.series_) {
      PutVarint64(&body, name.size());
      body.append(name);
      for (size_t i = 0; i < options.levels.size(); ++i) {
        if (i >= series.levels.size()) {
          PutVarint64(&body, 0);  // series created but never sized: empty tier
          continue;
        }
        PutVarint64(&body, series.levels[i].size());
        for (const SketchStore::Interval& interval : series.levels[i]) {
          PutVarintSigned64(&body, interval.start);
          if (interval.dense != nullptr) {
            const std::string payload = interval.dense->Serialize();
            PutVarint64(&body, payload.size());
            body.append(payload);
          } else {
            PutVarint64(&body, header.size() + interval.frozen.size());
            body.append(header);
            body.append(interval.frozen);
          }
        }
      }
    }
  }

  static Result<SnapshotContents> DecodeBody(std::string_view body,
                                             uint8_t version) {
    Slice in(body);
    uint64_t epoch = 0;
    DD_RETURN_IF_ERROR(in.GetVarint64(&epoch));
    if (epoch > UINT32_MAX) {
      return Status::Corruption("snapshot epoch out of range");
    }
    SketchStoreOptions options;
    if (version == kVersionLegacy) {
      // v1 geometry (base interval, raw retention, rollup factor) maps
      // onto the equivalent two-level ladder. The raw retention is
      // raised to at least one coarse interval when needed — v1 allowed
      // retention as short as one base interval, which the ladder
      // validation (an intermediate level must retain a full next-level
      // interval) would reject; keeping data slightly longer is safe.
      uint64_t base = 0, retention = 0, factor = 0;
      DD_RETURN_IF_ERROR(in.GetVarint64(&base));
      DD_RETURN_IF_ERROR(in.GetVarint64(&retention));
      DD_RETURN_IF_ERROR(in.GetVarint64(&factor));
      if (base > INT64_MAX || retention > INT64_MAX || factor > INT32_MAX) {
        return Status::Corruption("snapshot time geometry out of range");
      }
      if (base < 1 || factor < 2 ||
          base > static_cast<uint64_t>(INT64_MAX) / factor) {
        return Status::Corruption("snapshot time geometry invalid");
      }
      const int64_t coarse =
          static_cast<int64_t>(base) * static_cast<int64_t>(factor);
      options.levels = {
          {static_cast<int64_t>(base),
           std::max(static_cast<int64_t>(retention), coarse)},
          {coarse, 0}};
    } else {
      uint64_t n_levels = 0;
      DD_RETURN_IF_ERROR(in.GetVarint64(&n_levels));
      if (n_levels == 0 || n_levels > kMaxLevels) {
        return Status::Corruption("snapshot ladder depth out of range");
      }
      options.levels.reserve(n_levels);
      for (uint64_t i = 0; i < n_levels; ++i) {
        uint64_t interval = 0, retention = 0;
        DD_RETURN_IF_ERROR(in.GetVarint64(&interval));
        DD_RETURN_IF_ERROR(in.GetVarint64(&retention));
        if (interval > INT64_MAX || retention > INT64_MAX) {
          return Status::Corruption("snapshot level geometry out of range");
        }
        options.levels.push_back({static_cast<int64_t>(interval),
                                  static_cast<int64_t>(retention)});
      }
    }
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&options.sketch.relative_accuracy));
    std::string_view tags;
    DD_RETURN_IF_ERROR(in.GetBytes(2, &tags));
    const uint8_t mapping_tag = static_cast<uint8_t>(tags[0]);
    const uint8_t store_tag = static_cast<uint8_t>(tags[1]);
    if (mapping_tag > static_cast<uint8_t>(MappingType::kCubicInterpolated)) {
      return Status::Corruption("snapshot: unknown mapping type tag");
    }
    if (store_tag > static_cast<uint8_t>(StoreType::kSparse)) {
      return Status::Corruption("snapshot: unknown store type tag");
    }
    options.sketch.mapping = static_cast<MappingType>(mapping_tag);
    options.sketch.store = static_cast<StoreType>(store_tag);
    uint64_t max_buckets = 0;
    DD_RETURN_IF_ERROR(in.GetVarint64(&max_buckets));
    if (max_buckets > INT32_MAX) {
      return Status::Corruption("snapshot: max_num_buckets out of range");
    }
    options.sketch.max_num_buckets = static_cast<int32_t>(max_buckets);

    auto store_result = SketchStore::Create(options);
    if (!store_result.ok()) {
      return Status::Corruption("snapshot carries invalid store options: " +
                                store_result.status().message());
    }
    SketchStore store = std::move(store_result).value();
    const size_t n_levels = store.options_.levels.size();
    const std::string& header = store.header_;

    uint64_t n_series = 0;
    DD_RETURN_IF_ERROR(in.GetVarint64(&n_series));
    for (uint64_t i = 0; i < n_series; ++i) {
      uint64_t name_len = 0;
      DD_RETURN_IF_ERROR(in.GetVarint64(&name_len));
      if (name_len > in.remaining()) {
        return Status::Corruption("snapshot series name overruns payload");
      }
      std::string_view name_bytes;
      DD_RETURN_IF_ERROR(in.GetBytes(name_len, &name_bytes));
      const std::string name(name_bytes);
      if (store.series_.count(name) != 0) {
        return Status::Corruption("snapshot: duplicate series name");
      }
      SketchStore::Series& series = store.series_[name];
      series.levels.resize(n_levels);
      // A v1 body carries exactly two tiers (raw, coarse) which land on
      // the two rungs of the mapped ladder; a v2 body carries one tier
      // per level.
      for (size_t level = 0; level < n_levels; ++level) {
        DD_RETURN_IF_ERROR(DecodeTier(
            &in, store, header, store.options_.levels[level].interval_seconds,
            &series.levels[level]));
      }
    }
    if (!in.empty()) {
      return Status::Corruption("trailing bytes after snapshot body");
    }
    return SnapshotContents{std::move(store), epoch};
  }

 private:
  /// Decodes one tier's intervals. Each is checked by DDSketch's
  /// validating walk. One that carries the store's header and a
  /// canonical image (every interval an encode writes) is held as that
  /// image, byte for byte. Any other is decoded in full (Deserialize,
  /// compatibility, then a header equal to the store's) and held as its
  /// Freeze(), which keeps its odd fields (a -0.0 sum, say) as given.
  static Status DecodeTier(Slice* in, const SketchStore& store,
                           std::string_view header, int64_t width,
                           std::vector<SketchStore::Interval>* tier) {
    uint64_t n = 0;
    DD_RETURN_IF_ERROR(in->GetVarint64(&n));
    for (uint64_t i = 0; i < n; ++i) {
      int64_t start = 0;
      DD_RETURN_IF_ERROR(in->GetVarintSigned64(&start));
      // A live store only holds intervals that contain an admissible
      // timestamp.
      if (start > kMaxTimestamp || start <= -kMaxTimestamp - width) {
        return Status::Corruption("snapshot interval start out of range");
      }
      if (SketchStore::Mod(start, width) != 0) {
        return Status::Corruption("snapshot interval start misaligned");
      }
      uint64_t payload_len = 0;
      DD_RETURN_IF_ERROR(in->GetVarint64(&payload_len));
      if (payload_len > in->remaining()) {
        return Status::Corruption("snapshot sketch payload overruns body");
      }
      std::string_view payload;
      DD_RETURN_IF_ERROR(in->GetBytes(payload_len, &payload));
      DDSketch::SerializedView view;
      DD_RETURN_IF_ERROR(DDSketch::CheckSerialized(payload, &view));
      std::string frozen;
      if (view.header == header && view.canonical) {
        frozen.assign(view.image);
      } else {
        const DDSketch sketch = DDSketch::Deserialize(payload).value();
        DD_RETURN_IF_ERROR(store.CheckCompatible(sketch));
        if (view.header != header) {
          return Status::Corruption(
              "snapshot: interval sketch parameters differ from the store's");
        }
        frozen = sketch.Freeze();
      }
      SketchStore::Interval& interval = SketchStore::FindOrInsert(tier, start);
      if (!interval.frozen.empty()) {
        return Status::Corruption("snapshot: duplicate interval start");
      }
      interval.frozen = std::move(frozen);
    }
    return Status::OK();
  }
};

std::string EncodeSnapshot(const SketchStore& store, uint64_t epoch) {
  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  PutFixed32(&out, 0);  // the body's CRC, patched in below
  const size_t body_at = out.size();
  SketchStoreSnapshotCodec::EncodeBody(store, epoch, &out);
  std::string crc;
  PutFixed32(&crc, Crc32c(std::string_view(out).substr(body_at)));
  out.replace(body_at - crc.size(), crc.size(), crc);
  return out;
}

Result<SnapshotContents> DecodeSnapshot(std::string_view bytes) {
  Slice in(bytes);
  std::string_view magic;
  DD_RETURN_IF_ERROR(in.GetBytes(sizeof(kMagic), &magic));
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad snapshot magic");
  }
  std::string_view version;
  DD_RETURN_IF_ERROR(in.GetBytes(1, &version));
  const uint8_t version_byte = static_cast<uint8_t>(version[0]);
  if (version_byte != kVersion && version_byte != kVersionLegacy) {
    return Status::Corruption("unsupported snapshot version");
  }
  uint32_t crc = 0;
  DD_RETURN_IF_ERROR(in.GetFixed32(&crc));
  std::string_view body;
  DD_RETURN_IF_ERROR(in.GetBytes(in.remaining(), &body));
  if (crc != Crc32c(body)) {
    return Status::Corruption("snapshot checksum mismatch");
  }
  return SketchStoreSnapshotCodec::DecodeBody(body, version_byte);
}

Status WriteSnapshotFile(const SketchStore& store, uint64_t epoch,
                         const std::string& path, bool* renamed) {
  return ReplaceFile(path + ".tmp", path, EncodeSnapshot(store, epoch),
                     renamed);
}

Result<SnapshotContents> ReadSnapshotFile(const std::string& path) {
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeSnapshot(bytes.value());
}

}  // namespace dd
