#include "src/net/stream_conn.h"

#include <algorithm>
#include <cassert>

#include "src/util/checksum.h"

namespace bkup {

namespace {

// One-way propagation + forwarding latency (LAN-ish).
constexpr SimDuration kPropagationDelay = 200 * kMicrosecond;
// Sender-side loss detection: a frame neither delivered nor rejected within
// this is retransmitted.
constexpr SimDuration kRetransmitTimeout = 20 * kMillisecond;
// Per-frame retransmit budget; beyond it the stream errors out and recovery
// moves up to the supervisor (reconnect + resume from ack).
constexpr int kMaxRetransmits = 6;

}  // namespace

StreamConn::StreamConn(NetLink* link, std::string name)
    : link_(link),
      env_(link->env()),
      name_(std::move(name)),
      window_(env_, static_cast<int64_t>(link->params().window_frames),
              name_ + ".window"),
      arrivals_(env_, link->params().window_frames),
      out_(env_, link->params().window_frames) {
  assert(link->params().window_frames > 0);
  assert(link->params().mtu_bytes > 0);
}

void StreamConn::EnableTracing(const TraceContext& ctx,
                               const std::string& sender_node,
                               const std::string& receiver_node) {
  ctx_ = ctx;
  tracer_ = env_->tracer();
  if (tracer_ == nullptr) {
    return;
  }
  flow_base_ = tracer_->ReserveFlowIds();
  tx_track_ = tracer_->Track(name_ + ".tx", tracer_->Process(sender_node));
  rx_track_ = tracer_->Track(name_ + ".rx", tracer_->Process(receiver_node));
}

void StreamConn::EnsurePump() {
  if (!pump_started_) {
    pump_started_ = true;
    env_->Spawn(Pump());
  }
}

Task StreamConn::SendRange(std::span<const uint8_t> stream, uint64_t begin,
                           uint64_t end, uint32_t tag, Status* status) {
  assert(!close_requested_ && "SendRange after CloseSend");
  assert(end <= stream.size());
  EnsurePump();
  const LinkParams& p = link_->params();
  uint64_t cursor = begin;
  while (cursor < end) {
    if (failed()) {
      break;
    }
    co_await window_.Acquire();
    if (failed()) {
      window_.Release();
      break;
    }
    const uint64_t n = std::min<uint64_t>(p.mtu_bytes, end - cursor);
    if (throttle_ != nullptr) {
      co_await throttle_->Acquire(n + kFrameHeaderBytes);
    }
    const std::span<const uint8_t> payload = stream.subspan(cursor, n);
    StreamFrame frame;
    frame.seq = next_send_seq_++;
    frame.begin = cursor;
    frame.end = cursor + n;
    frame.tag = tag;
    frame.crc = Crc32c(payload);
    frame.trace_id = ctx_.trace_id;
    frame.incarnation = ctx_.incarnation;
    ++stats_.frames_sent;
    env_->Spawn(TransferFrame(frame, payload));
    cursor += n;
  }
  *status = error_;
}

Task StreamConn::TransferFrame(StreamFrame frame,
                               std::span<const uint8_t> payload) {
  if (tracer_ != nullptr) {
    // Arrow tail at first transmission; retransmits keep the same id, so a
    // lossy frame's arrow spans first-send -> eventual delivery.
    tracer_->FlowStart(tx_track_, flow_base_ | frame.seq, "frame", ctx_);
  }
  int attempt = 0;
  while (error_.ok()) {
    ++attempt;
    co_await link_->wire().Acquire();
    LinkFault fate;
    if (link_->fault_hook() != nullptr) {
      fate = link_->fault_hook()->OnFrame(link_, frame.begin,
                                          frame.end - frame.begin);
    }
    if (fate.stall > 0) {
      // The stall holds the wire (a pausing, congested link), so later
      // frames queue behind it and ordering is preserved.
      ++stats_.stalls;
      link_->CountStall();
      co_await env_->Delay(fate.stall);
    }
    co_await env_->Delay(
        link_->SerializeTime(frame.end - frame.begin + kFrameHeaderBytes));
    link_->AccountFrame(frame.end - frame.begin + kFrameHeaderBytes);
    link_->wire().Release();
    co_await env_->Delay(kPropagationDelay);
    if (fate.action == LinkFault::Action::kDrop) {
      ++stats_.frames_dropped;
      link_->CountDrop();
    } else {
      // Receiver side: recompute the payload checksum and compare with what
      // the frame says arrived (corruption is modeled on the header copy).
      frame.wire_crc = fate.action == LinkFault::Action::kCorrupt
                           ? frame.crc ^ 0xA5A5A5A5u
                           : frame.crc;
      if (frame.wire_crc == Crc32c(payload)) {
        co_await arrivals_.Send(frame);
        break;
      }
      ++stats_.checksum_rejections;
      link_->CountChecksumReject();
    }
    if (attempt > kMaxRetransmits) {
      if (error_.ok()) {
        error_ = IoError(name_ + ": frame " + std::to_string(frame.seq) +
                         " lost after " + std::to_string(attempt) +
                         " attempts");
      }
      break;
    }
    // The sender learns of the loss by timeout (there is no NAK path) and
    // retransmits the same frame.
    ++stats_.retransmits;
    link_->CountRetransmit();
    co_await env_->Delay(kRetransmitTimeout);
  }
  window_.Release();
}

Task StreamConn::Pump() {
  while (true) {
    std::optional<StreamFrame> frame = co_await arrivals_.Recv();
    if (!frame.has_value()) {
      break;
    }
    reorder_.emplace(frame->seq, *frame);
    auto it = reorder_.find(next_deliver_seq_);
    while (it != reorder_.end()) {
      const StreamFrame ready = it->second;
      reorder_.erase(it);
      ++next_deliver_seq_;
      ++stats_.frames_delivered;
      stats_.bytes_delivered += ready.end - ready.begin;
      acked_ = std::max(acked_, ready.end);
      if (tracer_ != nullptr) {
        tracer_->FlowEnd(rx_track_, flow_base_ | ready.seq, "frame", ctx_);
      }
      co_await out_.Send(ready);
      it = reorder_.find(next_deliver_seq_);
    }
  }
  // Frames past a permanently lost one never become deliverable; the bytes
  // they carried are above acked() and will be resent on the next conn.
  reorder_.clear();
  out_.Close();
}

Task StreamConn::Drain(Status* status) {
  const auto whole =
      static_cast<int64_t>(link_->params().window_frames);
  co_await window_.Acquire(whole);
  window_.Release(whole);
  *status = error_;
}

void StreamConn::CloseSend() {
  assert(!close_requested_ && "double CloseSend");
  close_requested_ = true;
  EnsurePump();  // a zero-byte stream still needs out_ closed
  arrivals_.Close();
}

}  // namespace bkup
