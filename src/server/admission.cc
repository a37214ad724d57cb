#include "server/admission.h"

#include <algorithm>
#include <cmath>

namespace dd {
namespace {

constexpr double kRefillEwmaAlpha = 0.2;

uint64_t Overflow(uint64_t staged, uint64_t floor) {
  return staged > floor ? staged - floor : 0;
}

}  // namespace

TagAdmissionLedger::TagAdmissionLedger(
    uint64_t total_budget,
    const std::vector<std::pair<std::string, uint64_t>>& weights)
    : total_budget_(total_budget) {
  std::lock_guard<std::mutex> lock(mu_);
  RegisterTagLocked("default", 1);
  for (const auto& [tag, weight] : weights) {
    if (tags_.size() >= kMaxTags) break;  // callers validate the count; defensive bound
    auto it = ids_.find(tag);
    if (it != ids_.end()) {
      tags_[it->second].weight = std::max<uint64_t>(weight, 1);
    } else {
      RegisterTagLocked(tag, std::max<uint64_t>(weight, 1));
    }
  }
  // Floors are computed once, here: only configured tags hold a slice
  // of the reserve, and nothing registered later can move it.
  ComputeFloorsLocked();
}

bool TagAdmissionLedger::ValidTagName(std::string_view tag) {
  if (tag.empty() || tag.size() > kMaxTagLength) return false;
  for (char c : tag) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<uint32_t> TagAdmissionLedger::RegisterTag(
    std::string_view tag) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(std::string(tag));
  if (it != ids_.end()) return it->second;
  if (tags_.size() >= kMaxTags) return std::nullopt;
  // Weight 0: a late arrival borrows from the shared pool only. Floors
  // stay exactly where the operator configured them, so registering N
  // junk tags buys an attacker nothing but pool contention.
  return RegisterTagLocked(tag, 0);
}

uint32_t TagAdmissionLedger::RegisterTagLocked(std::string_view tag,
                                               uint64_t weight) {
  const uint32_t id = static_cast<uint32_t>(tags_.size());
  Tag entry;
  entry.name.assign(tag);
  entry.weight = weight;
  tags_.push_back(std::move(entry));
  ids_.emplace(tags_.back().name, id);
  return id;
}

void TagAdmissionLedger::ComputeFloorsLocked() {
  if (total_budget_ == 0) {
    for (Tag& tag : tags_) tag.floor = 0;
    shared_pool_ = 0;
    return;
  }
  uint64_t weight_sum = 0;
  for (const Tag& tag : tags_) weight_sum += tag.weight;
  const double reserve = static_cast<double>(total_budget_) * kFloorFraction;
  uint64_t floor_sum = 0;
  for (Tag& tag : tags_) {
    tag.floor = static_cast<uint64_t>(
        reserve * static_cast<double>(tag.weight) /
        static_cast<double>(weight_sum));
    floor_sum += tag.floor;
  }
  // Rounding always rounds down, so the floors can never oversubscribe
  // the budget; the slack joins the shared pool.
  shared_pool_ = total_budget_ - floor_sum;
}

uint64_t TagAdmissionLedger::SharedUsedLocked() const {
  uint64_t used = 0;
  for (const Tag& tag : tags_) used += Overflow(tag.staged, tag.floor);
  return used;
}

uint64_t TagAdmissionLedger::RetryHintMsLocked(const Tag& tag,
                                               uint64_t deficit) const {
  if (tag.refill_bytes_per_ms <= 0) return kDefaultRetryMs;
  const double ms =
      static_cast<double>(deficit) / tag.refill_bytes_per_ms;
  if (ms <= 1.0) return 1;
  if (ms >= static_cast<double>(kMaxRetryMs)) return kMaxRetryMs;
  return static_cast<uint64_t>(ms);
}

uint64_t TagAdmissionLedger::TryAdmit(uint32_t tag_id, uint64_t bytes_each,
                                      uint64_t count,
                                      uint64_t* retry_after_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag_id >= tags_.size()) tag_id = kDefaultTagId;
  Tag& tag = tags_[tag_id];
  uint64_t admitted = count;
  if (total_budget_ != 0) {
    // Borrowing beyond the floor is doubly bounded: by the tag's
    // throttled share of the pool, and by what the pool has left after
    // every other tag's overflow.
    const uint64_t pool_cap = static_cast<uint64_t>(
        static_cast<double>(shared_pool_) * tag.share);
    const uint64_t allowed = tag.floor + pool_cap;
    // Overflow staged by every *other* tag. Floors never move after
    // construction, so the pool cannot oversubscribe — the clamp is
    // pure defense against a future bookkeeping bug.
    const uint64_t others =
        SharedUsedLocked() - Overflow(tag.staged, tag.floor);
    const uint64_t shared_free =
        shared_pool_ > others ? shared_pool_ - others : 0;
    const uint64_t limit = std::min(allowed, tag.floor + shared_free);
    const uint64_t room = limit > tag.staged ? limit - tag.staged : 0;
    if (bytes_each > 0) admitted = std::min(count, room / bytes_each);
    if (admitted < count) {
      tag.busy += count - admitted;
      if (retry_after_ms != nullptr) {
        // The deficit of the first refused frame.
        const uint64_t proposed = tag.staged + (admitted + 1) * bytes_each;
        *retry_after_ms = RetryHintMsLocked(tag, proposed - limit);
      }
    }
  }
  tag.staged += admitted * bytes_each;
  total_staged_ += admitted * bytes_each;
  return admitted;
}

void TagAdmissionLedger::Refund(uint32_t tag_id, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag_id >= tags_.size()) tag_id = kDefaultTagId;
  Tag& tag = tags_[tag_id];
  const uint64_t credit = std::min(bytes, tag.staged);
  tag.staged -= credit;
  total_staged_ -= std::min(credit, total_staged_);
  // Fold the refund into the tag's refill-rate EWMA once ≥1 ms of
  // observations accumulated (refunds arrive in commit-batch bursts).
  const auto now = std::chrono::steady_clock::now();
  if (!tag.refill_mark_set) {
    tag.refill_mark = now;
    tag.refill_mark_set = true;
  }
  // Accumulate the clamped credit, not the requested bytes: an
  // over-refund must not inflate the refill estimate (and with it the
  // optimism of BUSY retry hints) beyond what the ledger released.
  tag.refund_accum += credit;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(now - tag.refill_mark)
          .count();
  if (elapsed_ms >= 1.0) {
    const double sample =
        static_cast<double>(tag.refund_accum) / elapsed_ms;
    tag.refill_bytes_per_ms =
        tag.refill_bytes_per_ms <= 0
            ? sample
            : (1.0 - kRefillEwmaAlpha) * tag.refill_bytes_per_ms +
                  kRefillEwmaAlpha * sample;
    tag.refund_accum = 0;
    tag.refill_mark = now;
  }
}

double TagAdmissionLedger::borrow_share(uint32_t tag_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag_id >= tags_.size()) return 1.0;
  return tags_[tag_id].share;
}

void TagAdmissionLedger::set_borrow_share(uint32_t tag_id, double share) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tag_id >= tags_.size()) return;
  tags_[tag_id].share = std::clamp(share, kMinBorrowShare, 1.0);
}

uint64_t TagAdmissionLedger::total_staged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_staged_;
}

size_t TagAdmissionLedger::num_tags() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tags_.size();
}

std::vector<TagLedgerEntry> TagAdmissionLedger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TagLedgerEntry> out;
  out.reserve(tags_.size());
  for (uint32_t id = 0; id < tags_.size(); ++id) {
    const Tag& tag = tags_[id];
    TagLedgerEntry entry;
    entry.id = id;
    entry.tag = tag.name;
    entry.floor_bytes = tag.floor;
    entry.budget_bytes =
        tag.floor + static_cast<uint64_t>(
                        static_cast<double>(shared_pool_) * tag.share);
    entry.staged_bytes = tag.staged;
    entry.busy_rejections = tag.busy;
    entry.borrow_share = tag.share;
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace dd
