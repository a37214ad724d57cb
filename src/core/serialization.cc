// Binary wire format for DDSketch.
//
// Layout (all multi-byte integers are LEB128 varints; doubles are raw
// little-endian IEEE-754):
//
//   header (equal for every sketch with one configuration):
//     magic      4 bytes  "DDSK"
//     version    1 byte   0x01
//     mapping    1 byte   MappingType
//     alpha      8 bytes  relative accuracy (double)
//     store      1 byte   StoreType (of the positive store)
//     max_bkts   varint   size bound (0 = unbounded)
//   frozen image (DDSketch::Freeze):
//     zero/rej/clamped counts   3 varints
//     sum, min, max             3 doubles
//     positive store block, negative store block:
//       n_entries varint
//       first index   signed varint (zigzag)
//       then per entry: count varint, then index delta to next (varint,
//       entries ascending so deltas are positive)
//
// The decoder reconstructs by re-adding buckets into freshly-created
// stores; since entries are already collapsed, this is lossless. A frozen
// image is merged without re-validation (MergeEncoded): it only ever
// comes from Freeze(), or from a payload Deserialize() accepted.

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "core/ddsketch.h"
#include "util/varint.h"

namespace dd {
namespace {

constexpr char kMagic[4] = {'D', 'D', 'S', 'K'};
constexpr uint8_t kVersion = 1;

void EncodeStore(const Store& store, std::string* out) {
  PutVarint64(out, store.num_buckets());
  bool first = true;
  int64_t prev_index = 0;
  store.ForEach([&](int32_t index, uint64_t count) {
    if (first) {
      PutVarintSigned64(out, index);
      first = false;
    } else {
      PutVarint64(out, static_cast<uint64_t>(index - prev_index));
    }
    PutVarint64(out, count);
    prev_index = index;
  });
}

/// Reads a varint this codec wrote itself: no truncation or overflow
/// checks (frozen images are trusted, see the header). Most index deltas
/// and small counts are one byte, read without entering the loop.
uint64_t ReadTrustedVarint(const uint8_t*& p) {
  if (*p < 0x80) return *p++;
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = *p++;
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

double ReadTrustedDouble(const uint8_t*& p) {
  double value;
  std::memcpy(&value, p, sizeof(value));
  p += sizeof(value);
  return value;
}

/// Adds the store block at `p` into `store` as Store::MergeFrom would add
/// the store it encodes, and returns the end of the block. The block is
/// decoded once, into a per-thread buffer; its lowest and highest index
/// and its total then pick the path: when that span fits beside `dense`'s
/// buckets the counts go straight into its array (DenseStore::MergeFrom's
/// direct path), otherwise every bucket goes through Add in ascending
/// order (the generic path), so a collapse lands in the same bucket
/// either way. `dense` is the sketch's insert-path alias of `store` (null
/// for a sparse store and on the reference insert path, which therefore
/// take the generic path: the same buckets).
const uint8_t* MergeBlock(const uint8_t* p, Store* store, DenseStore* dense) {
  const uint64_t n = ReadTrustedVarint(p);
  if (n == 0) return p;
  thread_local std::vector<std::pair<int32_t, uint64_t>> buckets;
  buckets.clear();
  uint64_t total = 0;
  int64_t index = ZigZagDecode(ReadTrustedVarint(p));
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0) index += static_cast<int64_t>(ReadTrustedVarint(p));
    const uint64_t count = ReadTrustedVarint(p);
    buckets.emplace_back(static_cast<int32_t>(index), count);
    total += count;
  }
  if (dense != nullptr &&
      dense->ReserveMergeSpan(buckets.front().first, buckets.back().first,
                              total)) {
    for (const auto& [i, count] : buckets) dense->AddInSpan(i, count);
  } else {
    for (const auto& [i, count] : buckets) store->Add(i, count);
  }
  return p;
}

Status DecodeStore(Slice* in, Store* store) {
  uint64_t n_entries = 0;
  DD_RETURN_IF_ERROR(in->GetVarint64(&n_entries));
  int64_t index = 0;
  for (uint64_t i = 0; i < n_entries; ++i) {
    if (i == 0) {
      DD_RETURN_IF_ERROR(in->GetVarintSigned64(&index));
    } else {
      uint64_t delta = 0;
      DD_RETURN_IF_ERROR(in->GetVarint64(&delta));
      if (delta == 0) return Status::Corruption("non-ascending store entry");
      index += static_cast<int64_t>(delta);
    }
    if (index < INT32_MIN || index > INT32_MAX) {
      return Status::Corruption("store index out of int32 range");
    }
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(in->GetVarint64(&count));
    if (count == 0) return Status::Corruption("zero-count store entry");
    store->Add(static_cast<int32_t>(index), count);
  }
  return Status::OK();
}

}  // namespace

/// Befriended by DDSketch; owns the wire format.
class DDSketchCodec {
 public:
  static void EncodeHeader(const DDSketch& sketch, std::string* out) {
    out->append(kMagic, sizeof(kMagic));
    out->push_back(static_cast<char>(kVersion));
    out->push_back(static_cast<char>(sketch.mapping_->type()));
    PutFixedDouble(out, sketch.mapping_->relative_accuracy());
    out->push_back(static_cast<char>(sketch.positive_->type()));
    PutVarint64(out,
                static_cast<uint64_t>(sketch.positive_->max_num_buckets()));
  }

  static void EncodeFrozen(const DDSketch& sketch, std::string* out) {
    PutVarint64(out, sketch.zero_count_);
    PutVarint64(out, sketch.rejected_count_);
    PutVarint64(out, sketch.clamped_count_);
    PutFixedDouble(out, sketch.sum_);
    PutFixedDouble(out, sketch.min_);
    PutFixedDouble(out, sketch.max_);
    EncodeStore(*sketch.positive_, out);
    EncodeStore(*sketch.negative_, out);
  }

  static std::string Encode(const DDSketch& sketch) {
    std::string out;
    out.reserve(64 + 4 * sketch.num_buckets());
    EncodeHeader(sketch, &out);
    EncodeFrozen(sketch, &out);
    return out;
  }

  /// MergeFrom's arithmetic and order: stores first, then the counts,
  /// sum, min and max.
  static void MergeFrozen(std::string_view frozen, DDSketch* into) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(frozen.data());
    const uint64_t zero = ReadTrustedVarint(p);
    const uint64_t rejected = ReadTrustedVarint(p);
    const uint64_t clamped = ReadTrustedVarint(p);
    const double sum = ReadTrustedDouble(p);
    const double min = ReadTrustedDouble(p);
    const double max = ReadTrustedDouble(p);
    p = MergeBlock(p, into->positive_.get(), into->positive_dense_);
    MergeBlock(p, into->negative_.get(), into->negative_dense_);
    into->zero_count_ += zero;
    into->rejected_count_ += rejected;
    into->clamped_count_ += clamped;
    into->sum_ += sum;
    into->min_ = std::min(into->min_, min);
    into->max_ = std::max(into->max_, max);
  }

  static Result<DDSketch> Decode(std::string_view payload) {
    Slice in(payload);
    std::string_view magic;
    DD_RETURN_IF_ERROR(in.GetBytes(sizeof(kMagic), &magic));
    if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::Corruption("bad magic; not a DDSketch payload");
    }
    std::string_view header;
    DD_RETURN_IF_ERROR(in.GetBytes(2, &header));
    if (static_cast<uint8_t>(header[0]) != kVersion) {
      return Status::Corruption("unsupported DDSketch version");
    }
    const uint8_t mapping_tag = static_cast<uint8_t>(header[1]);
    if (mapping_tag > static_cast<uint8_t>(MappingType::kCubicInterpolated)) {
      return Status::Corruption("unknown mapping type tag");
    }
    double alpha = 0;
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&alpha));
    if (!(alpha > 0.0) || !(alpha < 1.0)) {
      return Status::Corruption("relative accuracy out of (0, 1)");
    }
    std::string_view store_tag_bytes;
    DD_RETURN_IF_ERROR(in.GetBytes(1, &store_tag_bytes));
    const uint8_t store_tag = static_cast<uint8_t>(store_tag_bytes[0]);
    if (store_tag > static_cast<uint8_t>(StoreType::kSparse)) {
      return Status::Corruption("unknown store type tag");
    }
    uint64_t max_buckets = 0;
    DD_RETURN_IF_ERROR(in.GetVarint64(&max_buckets));
    if (max_buckets > INT32_MAX) {
      return Status::Corruption("max_num_buckets out of range");
    }

    DDSketchConfig config;
    config.relative_accuracy = alpha;
    config.mapping = static_cast<MappingType>(mapping_tag);
    config.store = static_cast<StoreType>(store_tag);
    config.max_num_buckets = static_cast<int32_t>(max_buckets);
    auto sketch_result = DDSketch::Create(config);
    if (!sketch_result.ok()) {
      return Status::Corruption("invalid sketch parameters: " +
                                sketch_result.status().message());
    }
    DDSketch sketch = std::move(sketch_result).value();

    DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.zero_count_));
    DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.rejected_count_));
    DD_RETURN_IF_ERROR(in.GetVarint64(&sketch.clamped_count_));
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.sum_));
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.min_));
    DD_RETURN_IF_ERROR(in.GetFixedDouble(&sketch.max_));
    DD_RETURN_IF_ERROR(DecodeStore(&in, sketch.positive_.get()));
    DD_RETURN_IF_ERROR(DecodeStore(&in, sketch.negative_.get()));
    if (!in.empty()) {
      return Status::Corruption("trailing bytes after sketch payload");
    }
    return sketch;
  }
};

std::string DDSketch::Serialize() const { return DDSketchCodec::Encode(*this); }

std::string DDSketch::SerializedHeader() const {
  std::string out;
  DDSketchCodec::EncodeHeader(*this, &out);
  return out;
}

std::string DDSketch::Freeze() const {
  // Encoded into a per-thread buffer, then copied once at its exact size:
  // the result is held for as long as its interval stays frozen.
  thread_local std::string buffer;
  buffer.clear();
  DDSketchCodec::EncodeFrozen(*this, &buffer);
  return buffer;
}

void DDSketch::MergeEncoded(std::string_view frozen) {
  DDSketchCodec::MergeFrozen(frozen, this);
}

Result<DDSketch> DDSketch::Deserialize(std::string_view payload) {
  return DDSketchCodec::Decode(payload);
}

}  // namespace dd
