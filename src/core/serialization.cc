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
// Every payload is checked by one validating walk (CheckSerialized): a
// single pass that allocates nothing, refuses what the format forbids,
// and reports whether the image after the header is canonical, i.e. the
// bytes Freeze() writes after a MergeFrom of the payload into an empty
// sketch of its own configuration. Deserialize is that walk plus one
// build from the validated bytes (MergeBlock's trusted reader, so a
// block whose span fits is reserved once). A frozen image is merged
// without re-validation (MergeEncoded): it comes from Freeze(), or is
// the image of a payload the walk accepted (SketchStore merges a
// canonical MERGE payload's own image, and a snapshot interval's).

#include <algorithm>
#include <cstring>
#include <limits>
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
/// either way. `dense` is the sketch's insert-path alias of `store`, or
/// null for the generic path: a sparse store and the reference insert
/// path take it (the same buckets), and so does a block that does not
/// ascend (Deserialize), whose front and back are not its extremes; the
/// generic path adds in block order.
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

/// The validating walk's reader. It makes Slice's checks and refuses
/// with Slice's messages, but keeps the message as a pointer until the
/// walk ends, so an accepted payload builds no Status. `minimal` stays
/// true while every varint read was the shortest encoding of its value.
class WalkReader {
 public:
  explicit WalkReader(std::string_view in)
      : p_(reinterpret_cast<const uint8_t*>(in.data())), end_(p_ + in.size()) {}

  const uint8_t* position() const { return p_; }
  bool empty() const { return p_ == end_; }
  bool minimal() const { return minimal_; }
  const char* error() const { return error_; }

  /// Records the walk's first refusal; returns false.
  bool Fail(const char* message) {
    error_ = message;
    return false;
  }

  /// Slice::GetVarint64. Most counts and index deltas are one byte.
  bool Varint(uint64_t* value) {
    if (p_ != end_ && *p_ < 0x80) {
      *value = *p_++;
      return true;
    }
    return LongVarint(value);
  }

  /// Slice::GetFixedDouble.
  bool Double(double* value) {
    if (static_cast<size_t>(end_ - p_) < sizeof(double)) {
      return Fail("truncated double");
    }
    std::memcpy(value, p_, sizeof(double));
    p_ += sizeof(double);
    return true;
  }

  /// Slice::GetBytes: `n` bytes, starting at *out.
  bool Bytes(size_t n, const uint8_t** out) {
    if (static_cast<size_t>(end_ - p_) < n) return Fail("truncated byte span");
    *out = p_;
    p_ += n;
    return true;
  }

 private:
  /// ConsumeVarint64's checks, and whether the encoding is minimal: a
  /// varint longer than one byte is minimal iff its last byte is not 0.
  bool LongVarint(uint64_t* value) {
    const bool short_input =
        static_cast<size_t>(end_ - p_) < static_cast<size_t>(kMaxVarintBytes);
    uint64_t result = 0;
    for (int shift = 0; shift < 64 && p_ != end_; shift += 7) {
      const uint8_t byte = *p_++;
      if (shift == 63 && (byte & 0x7e) != 0) break;
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift > 0) minimal_ = false;
        *value = result;
        return true;
      }
    }
    return Fail(short_input ? "truncated varint"
                            : "varint past 10 bytes or 64 bits");
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool minimal_ = true;
  const char* error_ = nullptr;
};

/// Whether a store of `type` bounded by `bound` holds `n` buckets over
/// [lo, hi] without collapsing: the collapsing dense stores' SpanFits,
/// and a bounded sparse store's limit on non-empty buckets. An unbounded
/// dense store never collapses, but a span past kMaxUnboundedSpan counts
/// as not held, so such an image is decoded before a store keeps it.
bool HoldsWithoutCollapse(StoreType type, uint64_t bound, int64_t lo,
                          int64_t hi, uint64_t n) {
  switch (type) {
    case StoreType::kUnboundedDense:
      return static_cast<uint64_t>(hi - lo) <
             DDSketch::SerializedView::kMaxUnboundedSpan;
    case StoreType::kCollapsingLowestDense:
    case StoreType::kCollapsingHighestDense:
      return static_cast<uint64_t>(hi - lo) < bound;
    case StoreType::kSparse:
      return bound == 0 || n <= bound;
  }
  return false;
}

/// Walks one store block: n_entries, the first index (zigzag), then a
/// count per entry and a nonzero index delta between entries. Every
/// index must lie in int32 and every count be nonzero. A delta of 2^63
/// or more steps the index down (it is added modulo 2^64, as Deserialize
/// always has): such a block is accepted but does not ascend. Clears
/// *canonical unless the block ascends over a span `type` and `bound`
/// hold without collapsing, and *ascending unless it ascends.
bool WalkBlock(WalkReader& in, StoreType type, uint64_t bound,
               bool* canonical, bool* ascending) {
  uint64_t n = 0;
  if (!in.Varint(&n)) return false;
  if (n == 0) return true;
  uint64_t raw = 0;
  if (!in.Varint(&raw)) return false;
  int64_t index = ZigZagDecode(raw);
  const int64_t first = index;
  uint64_t descents = 0;
  // `index` is the index of entry i - 1, whose count comes next.
  for (uint64_t i = 1;;) {
    if (index < INT32_MIN || index > INT32_MAX) {
      return in.Fail("store index out of int32 range");
    }
    uint64_t count = 0;
    if (!in.Varint(&count)) return false;
    if (count == 0) return in.Fail("zero-count store entry");
    if (i == n) break;
    uint64_t delta = 0;
    if (!in.Varint(&delta)) return false;
    if (delta == 0) return in.Fail("non-ascending store entry");
    descents |= delta >> 63;
    index = static_cast<int64_t>(static_cast<uint64_t>(index) + delta);
    ++i;
  }
  if (descents != 0) {
    *ascending = false;
    *canonical = false;
  } else if (!HoldsWithoutCollapse(type, bound, first, index, n)) {
    *canonical = false;
  }
  return true;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The walk behind CheckSerialized and Deserialize. On success fills
/// *view and *config (the declared configuration), and sets *ascending
/// when both blocks ascend.
Status Walk(std::string_view payload, DDSketch::SerializedView* view,
            DDSketchConfig* config, bool* ascending) {
  WalkReader in(payload);
  const auto refused = [&in] { return Status::Corruption(in.error()); };
  // The header.
  const uint8_t* bytes = nullptr;
  if (!in.Bytes(sizeof(kMagic), &bytes)) return refused();
  if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic; not a DDSketch payload");
  }
  if (!in.Bytes(2, &bytes)) return refused();
  if (bytes[0] != kVersion) {
    return Status::Corruption("unsupported DDSketch version");
  }
  const uint8_t mapping_tag = bytes[1];
  if (mapping_tag > static_cast<uint8_t>(MappingType::kCubicInterpolated)) {
    return Status::Corruption("unknown mapping type tag");
  }
  double alpha = 0;
  if (!in.Double(&alpha)) return refused();
  if (!(alpha > 0.0) || !(alpha < 1.0)) {
    return Status::Corruption("relative accuracy out of (0, 1)");
  }
  if (!in.Bytes(1, &bytes)) return refused();
  const uint8_t store_tag = bytes[0];
  if (store_tag > static_cast<uint8_t>(StoreType::kSparse)) {
    return Status::Corruption("unknown store type tag");
  }
  uint64_t bound = 0;
  if (!in.Varint(&bound)) return refused();
  if (bound > INT32_MAX) {
    return Status::Corruption("max_num_buckets out of range");
  }
  config->relative_accuracy = alpha;
  config->mapping = static_cast<MappingType>(mapping_tag);
  config->store = static_cast<StoreType>(store_tag);
  config->max_num_buckets = static_cast<int32_t>(bound);
  if (bound == 0 && (config->store == StoreType::kCollapsingLowestDense ||
                     config->store == StoreType::kCollapsingHighestDense)) {
    // The one configuration DDSketch::Create refuses once alpha and the
    // tags are in range.
    return Status::Corruption("invalid sketch parameters: " +
                              DDSketch::Create(*config).status().message());
  }
  const size_t header_size = static_cast<size_t>(
      in.position() - reinterpret_cast<const uint8_t*>(payload.data()));

  // The image, read by a reader of its own: only its varints count
  // towards canonical.
  WalkReader image(payload.substr(header_size));
  bool canonical = true;
  *ascending = true;
  uint64_t count = 0;
  double sum = 0, min = 0, max = 0;
  if (!image.Varint(&count) || !image.Varint(&count) ||
      !image.Varint(&count) || !image.Double(&sum) || !image.Double(&min) ||
      !image.Double(&max) ||
      !WalkBlock(image, config->store, bound, &canonical, ascending) ||
      !WalkBlock(image, config->store, bound, &canonical, ascending)) {
    return Status::Corruption(image.error());
  }
  if (!image.empty()) {
    return Status::Corruption("trailing bytes after sketch payload");
  }
  // MergeFrom's arithmetic on an empty sketch's sum, min and max.
  double merged_sum = 0.0;
  merged_sum += sum;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  view->header = payload.substr(0, header_size);
  view->image = payload.substr(header_size);
  view->mapping = config->mapping;
  view->relative_accuracy = alpha;
  view->canonical = canonical && image.minimal() &&
                    SameBits(merged_sum, sum) &&
                    SameBits(std::min(kInf, min), min) &&
                    SameBits(std::max(-kInf, max), max);
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
    into->MergeSideStats(zero, rejected, clamped, sum, min, max);
  }

  /// The walk, then one build from the validated bytes. Counts, sum,
  /// min and max are stored as given (a -0.0 sum or a NaN extremum
  /// stays), and each block goes into the declared store as MergeBlock
  /// adds it to an empty one: one ReserveMergeSpan when its span fits,
  /// else Add bucket by bucket in payload order, collapsing as the store
  /// would. A block that does not ascend takes the second path.
  static Result<DDSketch> Decode(std::string_view payload) {
    DDSketch::SerializedView view;
    DDSketchConfig config;
    bool ascending = false;
    DD_RETURN_IF_ERROR(Walk(payload, &view, &config, &ascending));
    DDSketch sketch = std::move(DDSketch::Create(config)).value();
    const uint8_t* p = reinterpret_cast<const uint8_t*>(view.image.data());
    sketch.zero_count_ = ReadTrustedVarint(p);
    sketch.rejected_count_ = ReadTrustedVarint(p);
    sketch.clamped_count_ = ReadTrustedVarint(p);
    sketch.sum_ = ReadTrustedDouble(p);
    sketch.min_ = ReadTrustedDouble(p);
    sketch.max_ = ReadTrustedDouble(p);
    p = MergeBlock(p, sketch.positive_.get(),
                   ascending ? sketch.positive_dense_ : nullptr);
    MergeBlock(p, sketch.negative_.get(),
               ascending ? sketch.negative_dense_ : nullptr);
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

Status DDSketch::CheckSerialized(std::string_view payload,
                                 SerializedView* view) {
  DDSketchConfig config;
  bool ascending = false;
  return Walk(payload, view, &config, &ascending);
}

}  // namespace dd
