#include "server/replication.h"

#include <algorithm>

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "timeseries/wal.h"

namespace dd {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/// Per-subscriber cap on buffered outgoing bytes; at the cap the
/// shipper stops reading further WAL (the disk is the backlog).
constexpr uint64_t kSubscriberOutbufBytes = 4u << 20;
/// Max WAL bytes read per segment frame.
constexpr uint64_t kSegmentBytes = 1u << 20;
/// A follower's delay between reconnect attempts after an error.
constexpr int64_t kReconnectMs = 200;
/// SO_SNDTIMEO on a follower's upstream connection. Ack (and FENCE)
/// writes hold conn_mu_, which StopTail/Stop also need — without a
/// deadline a partitioned primary could wedge a blocking send for the
/// TCP retransmission timeout (minutes) and stall promotion/shutdown
/// for that long. Acks are resent implicitly by the next reconnect's
/// SUBSCRIBE positions and FenceUpstream is documented best-effort, so
/// a short deadline is safe.
constexpr int64_t kFollowerWriteTimeoutMs = 2000;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Lexicographic (epoch, offset) order: a later epoch supersedes any
/// offset of an earlier one (the WAL was reset in between).
bool PosLess(const std::pair<uint64_t, uint64_t>& a,
             const std::pair<uint64_t, uint64_t>& b) {
  return a.first != b.first ? a.first < b.first : a.second < b.second;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicationShipper
// ---------------------------------------------------------------------------

ReplicationShipper::ReplicationShipper(std::vector<ReplShard> shards,
                                       ReplicationShipperOptions options,
                                       std::function<void(uint64_t)> on_fence)
    : shards_(std::move(shards)),
      options_(std::move(options)),
      on_fence_(std::move(on_fence)),
      parked_(shards_.size()) {}

ReplicationShipper::~ReplicationShipper() { Stop(); }

void ReplicationShipper::Start() {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  started_ = true;
  pump_ = std::thread([this] { PumpLoop(); });
}

void ReplicationShipper::Stop() {
  std::vector<std::function<void(bool)>> releases;
  bool fenced = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
    fenced = fenced_;
    for (const Subscriber& sub : subs_) ::close(sub.conn.fd());
    subs_.clear();
    subscriber_count_.store(0, std::memory_order_relaxed);
    for (auto& queue : parked_) {
      while (!queue.empty()) {
        releases.push_back(std::move(queue.front().complete));
        queue.pop_front();
      }
    }
  }
  // Shutdown is not failover: the records are durable here and this
  // server is still the primary, so parked acks release as OK (unless a
  // promotion already fenced us).
  for (auto& fn : releases) fn(fenced);
  Wake();
  if (pump_.joinable()) pump_.join();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
}

void ReplicationShipper::AddSubscriber(
    int fd, std::string initial_out,
    std::vector<std::pair<uint64_t, uint64_t>> positions) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stop_) {
      Subscriber sub(fd);
      sub.conn.QueueWrite(initial_out);
      positions.resize(shards_.size(), {0, 0});
      // The follower's claimed durable positions are its ack baseline:
      // nothing at or below them is owed an ack.
      sub.sent = positions;
      sub.acked = std::move(positions);
      sub.last_heartbeat = Clock::now();
      subs_.push_back(std::move(sub));
      subscriber_count_.store(subs_.size(), std::memory_order_relaxed);
      Wake();
      return;
    }
  }
  ::close(fd);  // raced with Stop
}

void ReplicationShipper::SubmitCommitted(size_t shard, uint64_t epoch,
                                         uint64_t offset,
                                         std::function<void(bool)> complete) {
  bool fenced = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fenced = fenced_;
    // Park only while gating is in effect: a subscriber is attached, or
    // earlier parked batches still await their acks (FIFO per shard —
    // releasing this one first would reorder acks). ack_timeout_ms <= 0
    // turns gating off entirely (pure async shipping).
    if (!stop_ && !fenced_ && options_.ack_timeout_ms > 0 &&
        (!subs_.empty() || !parked_[shard].empty())) {
      Parked entry;
      entry.epoch = epoch;
      entry.offset = offset;
      entry.deadline =
          Clock::now() + std::chrono::milliseconds(options_.ack_timeout_ms);
      entry.complete = std::move(complete);
      parked_[shard].push_back(std::move(entry));
      Wake();
      return;
    }
  }
  complete(fenced);
}

void ReplicationShipper::Fence() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (fenced_ || stop_) return;
    fenced_ = true;
  }
  // The pump releases every parked completion with fenced=true on its
  // next iteration (CollectReleasable stops waiting for acks once
  // fenced_ is set).
  Wake();
}

void ReplicationShipper::Wake() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN: a wake-up is already pending
}

bool ReplicationShipper::QueueShipping(Subscriber* sub) {
  for (size_t k = 0; k < shards_.size(); ++k) {
    while (sub->conn.pending_write_bytes() < kSubscriberOutbufBytes) {
      std::lock_guard<std::mutex> store_lk(*shards_[k].store_mu);
      const DurableSketchStore& store = *shards_[k].store;
      const uint64_t cur_epoch = store.epoch();
      const uint64_t cur_offset = store.wal_offset();
      auto& sent = sub->sent[k];
      // A subscriber sitting exactly at the end of the epoch this store
      // last checkpointed away consumed that epoch in full: roll it to
      // the new epoch's start and keep tailing. The follower's
      // epoch-crossing path (ApplyReplicatedSegment at epoch+1,
      // kWalHeaderBytes) folds its own state, so no snapshot transfer
      // is needed. prior_epoch_end() is 0 — never matched — after a
      // promotion or snapshot install: old-lineage positions must not
      // be rolled forward (their bytes may be divergent).
      if (sent.first + 1 == cur_epoch && sent.second >= kWalHeaderBytes &&
          sent.second == store.prior_epoch_end()) {
        sent = {cur_epoch, kWalHeaderBytes};
      }
      if (sent.first == cur_epoch && sent.second <= cur_offset) {
        if (sent.second < kWalHeaderBytes) sent.second = kWalHeaderBytes;
        if (sent.second >= cur_offset) break;  // caught up on this shard
        auto chunk = store.ReadWalChunk(sent.second, kSegmentBytes);
        if (!chunk.ok()) return false;  // our own WAL unreadable: drop + let
                                        // the follower resync elsewhere
        if (chunk.value().empty()) break;
        ReplFrame frame;
        frame.tag = ReplFrame::Tag::kSegment;
        frame.shard = k;
        frame.epoch = cur_epoch;
        frame.start_offset = sent.second;
        frame.payload = std::move(chunk).value();
        sent.second += frame.payload.size();
        shipped_bytes_.fetch_add(frame.payload.size(),
                                 std::memory_order_relaxed);
        sub->conn.QueueWrite(EncodeReplFrame(frame));
        continue;
      }
      // Position mismatch — the follower is fresh, ahead of us (a
      // past-life primary), or behind a checkpoint that already
      // truncated the bytes it needs. All three resync the same way a
      // crashed store recovers: full snapshot, then tail the new WAL.
      //
      // The snapshot is the *live* state, so it already contains any
      // current-epoch records; shipping it and then tailing the current
      // epoch from its start would apply those records twice. Fold the
      // epoch first (checkpoint, under the store_mu we hold) so the
      // snapshot sits exactly on the new epoch's boundary and the tail
      // starts from an empty log.
      if (cur_offset > kWalHeaderBytes) {
        DurableSketchStore& mut_store = *shards_[k].store;
        if (!mut_store.CheckpointForReplication().ok()) {
          return false;  // can't produce a consistent snapshot: drop the
                         // subscriber, let it retry
        }
      }
      const uint64_t snap_epoch = store.epoch();  // re-read: the fold
                                                  // bumped it
      std::string image = store.EncodeReplicationSnapshot();
      shipped_bytes_.fetch_add(image.size(), std::memory_order_relaxed);
      snapshot_frames_.fetch_add(1, std::memory_order_relaxed);
      if (image.size() <= options_.snapshot_chunk_bytes) {
        ReplFrame frame;
        frame.tag = ReplFrame::Tag::kSnapshot;
        frame.shard = k;
        frame.epoch = snap_epoch;
        frame.payload = std::move(image);
        sub->conn.QueueWrite(EncodeReplFrame(frame));
      } else {
        // v6 chunked bootstrap: the image streams as ≤chunk-sized
        // pieces closed by a terminating frame, so the per-frame cap
        // never bounds how large a shard can grow and still be
        // bootstrapped. The whole train is queued at once — the pump
        // trickles the queue to the socket as the follower drains it.
        for (size_t off = 0; off < image.size();
             off += options_.snapshot_chunk_bytes) {
          ReplFrame chunk;
          chunk.tag = ReplFrame::Tag::kSnapshotChunk;
          chunk.shard = k;
          chunk.payload = image.substr(off, options_.snapshot_chunk_bytes);
          sub->conn.QueueWrite(EncodeReplFrame(chunk));
        }
        ReplFrame end;
        end.tag = ReplFrame::Tag::kSnapshotEnd;
        end.shard = k;
        end.epoch = snap_epoch;
        sub->conn.QueueWrite(EncodeReplFrame(end));
      }
      sent = {snap_epoch, kWalHeaderBytes};
    }
  }
  return true;
}

bool ReplicationShipper::ParseIncoming(Subscriber* sub,
                                       std::vector<uint64_t>* fences) {
  std::string_view body;  // into the read buffer: decoded before any fill
  for (;;) {
    // An incomplete frame means "read more"; a bad one is a protocol
    // violation and the subscriber is cut off.
    auto next = sub->conn.NextBufferedFrame(&body);
    if (!next.ok()) return false;
    if (!next.value()) return true;
    auto frame = DecodeReplFrame(body);
    if (!frame.ok()) return false;
    switch (frame.value().tag) {
      case ReplFrame::Tag::kAck: {
        const uint64_t k = frame.value().shard;
        if (k >= shards_.size()) return false;
        const std::pair<uint64_t, uint64_t> pos{frame.value().epoch,
                                                frame.value().offset};
        if (PosLess(sub->acked[k], pos)) sub->acked[k] = pos;
        break;
      }
      case ReplFrame::Tag::kFence:
        fenced_ = true;
        fences->push_back(frame.value().token);
        break;
      default:
        return false;  // only the primary streams snapshots/segments
    }
  }
}

void ReplicationShipper::CollectReleasable(
    std::vector<std::function<void(bool)>>* out) {
  for (size_t k = 0; k < parked_.size(); ++k) {
    auto& queue = parked_[k];
    while (!queue.empty()) {
      const Parked& front = queue.front();
      if (!fenced_ && !subs_.empty()) {
        const std::pair<uint64_t, uint64_t> pos{front.epoch, front.offset};
        bool all_acked = true;
        for (const Subscriber& sub : subs_) {
          if (PosLess(sub.acked[k], pos)) {
            all_acked = false;
            break;
          }
        }
        if (!all_acked) break;
      }
      // Release: every subscriber acked it, the last subscriber left
      // (async mode), or we are fenced (complete(true) → FENCED).
      out->push_back(std::move(queue.front().complete));
      queue.pop_front();
    }
  }
}

void ReplicationShipper::DropExpired(
    std::vector<std::function<void(bool)>>* out) {
  const TimePoint now = Clock::now();
  for (size_t k = 0; k < parked_.size(); ++k) {
    if (parked_[k].empty()) continue;
    const Parked& front = parked_[k].front();
    if (now < front.deadline) continue;
    // The oldest owed ack timed out: drop every subscriber still short
    // of it. Semi-sync degrades to async instead of stalling ingest.
    const std::pair<uint64_t, uint64_t> pos{front.epoch, front.offset};
    for (size_t i = subs_.size(); i-- > 0;) {
      if (PosLess(subs_[i].acked[k], pos)) CloseSubscriberLocked(i);
    }
  }
  CollectReleasable(out);
}

void ReplicationShipper::CloseSubscriberLocked(size_t index) {
  ::close(subs_[index].conn.fd());
  subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(index));
  subscriber_count_.store(subs_.size(), std::memory_order_relaxed);
}

void ReplicationShipper::PumpLoop() {
  std::vector<struct pollfd> fds;
  for (;;) {
    std::vector<std::function<void(bool)>> releases;
    std::vector<uint64_t> fences;
    bool release_fenced = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      const TimePoint now = Clock::now();
      for (size_t i = subs_.size(); i-- > 0;) {
        Subscriber& sub = subs_[i];
        if (!QueueShipping(&sub)) {
          CloseSubscriberLocked(i);
          continue;
        }
        if (now - sub.last_heartbeat >=
            std::chrono::milliseconds(options_.heartbeat_ms)) {
          sub.last_heartbeat = now;
          ReplFrame hb;
          hb.tag = ReplFrame::Tag::kHeartbeat;
          {
            std::lock_guard<std::mutex> store_lk(*shards_[0].store_mu);
            hb.token = shards_[0].store->fence_token();
          }
          hb.positions = sub.sent;
          sub.conn.QueueWrite(EncodeReplFrame(hb));
        }
      }
      DropExpired(&releases);
      release_fenced = fenced_;
      fds.clear();
      fds.push_back({wake_fd_, POLLIN, 0});
      for (const Subscriber& sub : subs_) {
        short events = POLLIN;
        if (sub.conn.pending_write_bytes() > 0) events |= POLLOUT;
        fds.push_back({sub.conn.fd(), events, 0});
      }
    }
    for (auto& fn : releases) fn(release_fenced);
    releases.clear();

    ::poll(fds.data(), fds.size(), 50);

    if (fds[0].revents & POLLIN) {
      uint64_t v = 0;
      while (::read(wake_fd_, &v, sizeof(v)) > 0) {
      }
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stop_) return;
      // fds[1+i] lines up with subs_[i] only if the set is unchanged;
      // AddSubscriber appends (indexes stable) and only this thread
      // erases, so match by fd to stay safe.
      for (size_t f = 1; f < fds.size(); ++f) {
        if (fds[f].revents == 0) continue;
        size_t i = subs_.size();
        for (size_t j = 0; j < subs_.size(); ++j) {
          if (subs_[j].conn.fd() == fds[f].fd) {
            i = j;
            break;
          }
        }
        if (i == subs_.size()) continue;  // already dropped this round
        Subscriber& sub = subs_[i];
        bool dead = (fds[f].revents & (POLLERR | POLLNVAL)) != 0;
        if (!dead && (fds[f].revents & (POLLIN | POLLHUP))) {
          bool got_bytes = false;
          auto still_open = sub.conn.FillFromSocket(&got_bytes);
          dead = !still_open.ok() || !still_open.value();  // EOF or error
          // Frames that arrived before the EOF still count: a promoted
          // follower sends FENCE and then closes.
          if (!ParseIncoming(&sub, &fences)) dead = true;
        }
        if (!dead && sub.conn.pending_write_bytes() > 0) {
          dead = !sub.conn.Flush().ok();
        }
        if (dead) CloseSubscriberLocked(i);
      }
      CollectReleasable(&releases);
      release_fenced = fenced_;
    }
    // A FENCE frame means a follower was promoted: fence the server
    // (refuse every later write) before completing anything parked.
    for (uint64_t token : fences) {
      if (on_fence_) on_fence_(token);
    }
    for (auto& fn : releases) fn(release_fenced);
  }
}

// ---------------------------------------------------------------------------
// ReplicationFollower
// ---------------------------------------------------------------------------

ReplicationFollower::ReplicationFollower(std::vector<ReplShard> shards,
                                         ReplicationFollowerOptions options)
    : shards_(std::move(shards)),
      options_(std::move(options)),
      pending_snapshot_(shards_.size()) {}

ReplicationFollower::~ReplicationFollower() { Stop(); }

void ReplicationFollower::Start() {
  tailer_ = std::thread([this] { TailLoop(); });
}

void ReplicationFollower::Stop() {
  StopTail();
  std::lock_guard<std::mutex> lk(conn_mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void ReplicationFollower::StopTail() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    keep_fd_ = true;
    // Kick a blocking ReadFrame; the socket stays writable for the
    // promotion's FENCE frame.
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
  }
  if (tailer_.joinable()) tailer_.join();
}

void ReplicationFollower::FenceUpstream(uint64_t token) {
  std::lock_guard<std::mutex> lk(conn_mu_);
  if (fd_ >= 0) {
    ReplFrame fence;
    fence.tag = ReplFrame::Tag::kFence;
    fence.token = token;
    FramedConn conn(fd_);
    (void)conn.WriteFrame(EncodeReplFrame(fence));  // best-effort
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t ReplicationFollower::heartbeat_age_ms() const {
  const int64_t last = last_heartbeat_ms_.load(std::memory_order_relaxed);
  if (last == 0) return 0;
  const int64_t age = NowMs() - last;
  return age > 0 ? static_cast<uint64_t>(age) : 0;
}

Status ReplicationFollower::incompatible() const {
  std::lock_guard<std::mutex> lk(status_mu_);
  return incompatible_;
}

void ReplicationFollower::TailLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    RunSession();
    if (!incompatible().ok()) return;  // permanent; retrying cannot help
    // Reconnect backoff, in small steps so Stop() stays prompt.
    const int64_t step_ms = 20;
    for (int64_t waited = 0;
         waited < kReconnectMs && !stop_.load(std::memory_order_relaxed);
         waited += step_ms) {
      ::usleep(static_cast<useconds_t>(step_ms) * 1000);
    }
  }
}

void ReplicationFollower::RunSession() {
  auto connected = ConnectTcp(options_.host, options_.port);
  if (!connected.ok()) return;
  const int fd = connected.value();
  // Bound every write on this socket (acks in ApplyFrame, the FENCE in
  // FenceUpstream) — they run under conn_mu_, which StopTail and Stop
  // must also acquire, so an unbounded send against a wedged upstream
  // would stall promotion for the TCP retransmission timeout. A
  // timed-out send fails the session; the reconnect's SUBSCRIBE
  // re-announces our durable positions, so no ack is lost.
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(kFollowerWriteTimeoutMs / 1000);
  tv.tv_usec =
      static_cast<suseconds_t>((kFollowerWriteTimeoutMs % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    fd_ = fd;
  }
  FramedConn conn(fd);
  auto fail_session = [this, fd]() {
    connected_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(conn_mu_);
    if (fd_ == fd && !keep_fd_) {
      ::close(fd_);
      fd_ = -1;
    }
  };

  Status status = conn.SendHello();
  if (status.ok()) status = conn.ExpectHello();
  if (status.code() == StatusCode::kIncompatible) {
    std::lock_guard<std::mutex> lk(status_mu_);
    incompatible_ = status;
  }
  if (!status.ok()) {
    fail_session();
    return;
  }

  // SUBSCRIBE with our durable positions; the primary resumes the
  // stream from there or ships snapshots where they no longer match.
  Request subscribe;
  subscribe.op = Request::Op::kSubscribe;
  for (const ReplShard& shard : shards_) {
    std::lock_guard<std::mutex> store_lk(*shard.store_mu);
    subscribe.repl_token =
        std::max(subscribe.repl_token, shard.store->fence_token());
    subscribe.positions.emplace_back(shard.store->epoch(),
                                     shard.store->wal_offset());
  }
  status = conn.WriteFrame(EncodeRequest(subscribe));
  if (!status.ok()) {
    fail_session();
    return;
  }
  auto body = conn.ReadFrame();
  if (!body.ok()) {
    fail_session();
    return;
  }
  auto response = DecodeResponse(body.value());
  if (!response.ok() || response.value().op != Request::Op::kSubscribe) {
    fail_session();
    return;
  }
  if (response.value().code != StatusCode::kOk) {
    // A FENCED refusal means the upstream lost a failover race; it may
    // yet be promoted again, so keep retrying rather than giving up.
    fail_session();
    return;
  }
  if (response.value().repl_shards != shards_.size()) {
    {
      std::lock_guard<std::mutex> lk(status_mu_);
      incompatible_ = Status::Incompatible(
          "primary has " + std::to_string(response.value().repl_shards) +
          " shards, this follower has " + std::to_string(shards_.size()) +
          " (shard counts are pinned at directory creation)");
    }
    fail_session();
    return;
  }
  for (const ReplShard& shard : shards_) {
    std::lock_guard<std::mutex> store_lk(*shard.store_mu);
    (void)shard.store->AdoptFenceToken(response.value().repl_token);
  }

  connected_.store(true, std::memory_order_relaxed);
  // A previous session may have died mid-chunk-train; its partial image
  // must never be completed by this session's frames.
  for (std::string& pending : pending_snapshot_) pending.clear();
  while (!stop_.load(std::memory_order_relaxed)) {
    auto frame_body = conn.ReadFrame();
    if (!frame_body.ok()) break;
    auto frame = DecodeReplFrame(frame_body.value());
    if (!frame.ok()) break;
    if (!ApplyFrame(frame.value(), &conn).ok()) break;
  }
  fail_session();
}

Status ReplicationFollower::ApplyFrame(const ReplFrame& frame,
                                       FramedConn* conn) {
  switch (frame.tag) {
    case ReplFrame::Tag::kSnapshotChunk: {
      if (frame.shard >= shards_.size()) {
        return Status::Corruption("replicated frame for unknown shard");
      }
      // Reassembly only — nothing durable happened yet, so no ack. The
      // kSnapshotEnd frame installs and acks the whole image.
      pending_snapshot_[frame.shard] += frame.payload;
      return Status::OK();
    }
    case ReplFrame::Tag::kSnapshot:
    case ReplFrame::Tag::kSnapshotEnd:
    case ReplFrame::Tag::kSegment: {
      if (frame.shard >= shards_.size()) {
        return Status::Corruption("replicated frame for unknown shard");
      }
      const ReplShard& shard = shards_[frame.shard];
      uint64_t durable_offset = 0;
      uint64_t payload_bytes = frame.payload.size();
      {
        std::lock_guard<std::mutex> store_lk(*shard.store_mu);
        if (frame.tag == ReplFrame::Tag::kSnapshot) {
          DD_RETURN_IF_ERROR(shard.store->InstallReplicatedSnapshot(
              frame.payload, frame.epoch));
        } else if (frame.tag == ReplFrame::Tag::kSnapshotEnd) {
          std::string image = std::move(pending_snapshot_[frame.shard]);
          pending_snapshot_[frame.shard].clear();
          if (image.empty()) {
            return Status::Corruption(
                "snapshot terminator without preceding chunks");
          }
          payload_bytes = image.size();
          DD_RETURN_IF_ERROR(
              shard.store->InstallReplicatedSnapshot(image, frame.epoch));
        } else {
          // OutOfRange = "segment does not extend my log": surfaces to
          // the session loop, which reconnects; the re-SUBSCRIBE's
          // positions make the primary ship a snapshot instead.
          DD_RETURN_IF_ERROR(shard.store->ApplyReplicatedSegment(
              frame.epoch, frame.start_offset, frame.payload));
        }
        durable_offset = shard.store->wal_offset();
      }
      applied_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
      ReplFrame ack;
      ack.tag = ReplFrame::Tag::kAck;
      ack.shard = frame.shard;
      ack.epoch = frame.epoch;
      ack.offset = durable_offset;
      std::lock_guard<std::mutex> lk(conn_mu_);
      return conn->WriteFrame(EncodeReplFrame(ack));
    }
    case ReplFrame::Tag::kHeartbeat: {
      last_heartbeat_ms_.store(NowMs(), std::memory_order_relaxed);
      for (const ReplShard& shard : shards_) {
        std::lock_guard<std::mutex> store_lk(*shard.store_mu);
        (void)shard.store->AdoptFenceToken(frame.token);
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("unexpected replication frame from primary");
  }
}

}  // namespace dd
