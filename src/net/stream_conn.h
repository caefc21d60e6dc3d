// A reliable byte-stream connection over a NetLink.
//
// `StreamConn` frames a byte range into MTU-sized checksummed frames, keeps
// at most `window_frames` of them in flight (the sliding window — a frame's
// slot frees when the frame is delivered or given up on), retransmits on
// loss or checksum rejection, and delivers frames to the receiver strictly
// in order. The cumulative `acked()` watermark — every stream byte below it
// has been delivered in order — is what lets a supervisor resume an
// interrupted stream on a fresh connection without rewinding to zero.
//
// A connection that exhausts a frame's retransmit budget fails permanently
// (`failed()`); in-flight frames wind down and `Drain()` returns the error.
// The receiver must keep draining `frames()` to end-of-stream even after a
// failure — everything delivered is still good data (this is what makes
// resume-from-ack exact).
//
// Protocol: one sender coroutine calls SendRange (any number of times),
// then Drain, then CloseSend; the receiver loops on `co_await
// frames().Recv()` until nullopt.
#ifndef BKUP_NET_STREAM_CONN_H_
#define BKUP_NET_STREAM_CONN_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "src/net/link.h"
#include "src/obs/trace.h"
#include "src/sim/channel.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/sim/throttle.h"
#include "src/util/status.h"

namespace bkup {

// Per-frame protocol overhead charged to the wire (headers + checksum).
// The budget already covers the 12-byte trace context (8-byte trace id +
// 4-byte incarnation) that `EnableTracing` stamps on every frame, so
// turning tracing on changes no wire timing.
inline constexpr uint64_t kFrameHeaderBytes = 32;

// One frame as the receiver sees it: stream bytes [begin, end), a sender
// sequence number, the payload checksum as computed at send time (`crc`) and
// as it survived the wire (`wire_crc` — corruption shows up here). `tag` is
// an opaque caller tag echoed per frame (a backup's frames carry the phase).
struct StreamFrame {
  uint64_t seq = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  uint32_t tag = 0;
  uint32_t crc = 0;
  uint32_t wire_crc = 0;
  // Causal trace context carried in the frame header (see kFrameHeaderBytes):
  // the receiver's node continues the sender's trace without a side channel.
  uint32_t incarnation = 0;
  uint64_t trace_id = 0;
};

struct ConnStats {
  uint64_t frames_sent = 0;         // first transmissions
  uint64_t frames_delivered = 0;    // validated and delivered in order
  uint64_t bytes_delivered = 0;
  uint64_t retransmits = 0;
  uint64_t frames_dropped = 0;      // lost on the wire
  uint64_t checksum_rejections = 0; // delivered corrupt, rejected
  uint64_t stalls = 0;              // frames held on a stalled wire

  bool operator==(const ConnStats&) const = default;
};

class StreamConn {
 public:
  StreamConn(NetLink* link, std::string name);

  // Enables cross-node tracing: every frame carries `ctx` in its header,
  // and each frame draws a flow arrow (Chrome "s"/"f") from this
  // connection's tx track on `sender_node`'s process row to its rx track on
  // `receiver_node`'s. No-op when the environment has no tracer attached.
  void EnableTracing(const TraceContext& ctx, const std::string& sender_node,
                     const std::string& receiver_node);

  // Backup QoS: pace SendRange from this token bucket — each frame acquires
  // its wire bytes (payload + header) before entering the window, so a
  // remote dump's link usage is capped at the bucket's rate even though the
  // link itself could run faster. Null (the default) sends at link speed.
  // Retransmits are not re-charged: the bucket shapes offered load, and a
  // lossy wire's repair traffic is the link's cost, not the job's.
  void set_throttle(BackupThrottle* throttle) { throttle_ = throttle; }

  // ----------------------------------------------------------- sender ---

  // Frames and transmits stream[begin, end). Returns (via *status) the
  // connection error if one is already set; otherwise Ok — transmission
  // completes asynchronously and late failures surface at Drain().
  Task SendRange(std::span<const uint8_t> stream, uint64_t begin,
                 uint64_t end, uint32_t tag, Status* status);

  // Waits until no frames are in flight; *status is the connection error.
  Task Drain(Status* status);

  // End of stream: the receiver's Recv() yields nullopt once everything
  // in flight has been delivered. Call only after Drain().
  void CloseSend();

  // --------------------------------------------------------- receiver ---

  // Validated frames, strictly in seq order.
  Channel<StreamFrame>& frames() { return out_; }

  // Cumulative ack: all stream bytes below this were delivered in order.
  uint64_t acked() const { return acked_; }

  bool failed() const { return !error_.ok(); }
  const ConnStats& stats() const { return stats_; }

 private:
  // One frame's life on the wire: serialize (under the link's wire
  // resource), propagate, then deliver / drop / reject-and-retransmit.
  Task TransferFrame(StreamFrame frame, std::span<const uint8_t> payload);
  // Single consumer of arrivals_: reorders by seq and delivers in order.
  Task Pump();
  void EnsurePump();

  NetLink* link_;
  SimEnvironment* env_;
  std::string name_;
  Resource window_;
  Channel<StreamFrame> arrivals_;  // wire -> pump (out of order after loss)
  Channel<StreamFrame> out_;       // pump -> receiver (in order)
  std::map<uint64_t, StreamFrame> reorder_;
  uint64_t next_send_seq_ = 0;
  uint64_t next_deliver_seq_ = 0;
  uint64_t acked_ = 0;
  bool pump_started_ = false;
  bool close_requested_ = false;
  TraceContext ctx_;
  BackupThrottle* throttle_ = nullptr;  // optional send pacing (backup QoS)
  Tracer* tracer_ = nullptr;  // set by EnableTracing; null = no flow events
  uint32_t tx_track_ = 0;
  uint32_t rx_track_ = 0;
  uint64_t flow_base_ = 0;
  Status error_;
  ConnStats stats_;
};

}  // namespace bkup

#endif  // BKUP_NET_STREAM_CONN_H_
