#include "src/backup/replay.h"

#include <algorithm>
#include <optional>

#include "src/net/link.h"
#include "src/net/stream_conn.h"
#include "src/net/tape_server.h"
#include "src/obs/trace.h"

namespace bkup {

void KeepFirstError(JobReport* report, const Status& st) {
  if (!st.ok() && report->status.ok()) {
    report->status = st;
  }
}

namespace {

// Supervised tape recovery. Tape errors get fewer, quicker retries than disk
// errors: a media defect never heals, so long backoff only delays the
// remount decision.
constexpr RetryPolicy kTapeRetry{.max_attempts = 4,
                                 .initial_backoff = 250 * kMillisecond,
                                 .max_backoff = 2 * kSecond};
// Supervised remote streams: a connection that fails (a frame lost beyond
// its retransmit budget) is reconnected and resumed from the receiver's
// acked watermark, up to max_attempts fresh connections per stream.
constexpr RetryPolicy kLinkRetry{.max_attempts = 5,
                                 .initial_backoff = 500 * kMillisecond,
                                 .max_backoff = 5 * kSecond};

// Snapshot create/delete hold the filer CPU at this duty cycle (Table 3:
// ~50%).
constexpr double kSnapshotCpuFraction = 0.5;

// A stream's frame sources, each drained in order until it closes: the
// pipeline's one channel locally, each connection's over a session.
using FrameFeed = Channel<Channel<StreamFrame>*>;
inline constexpr size_t kFeedDepth = 16;

// Keeps one span open per job track, closing the previous phase's span and
// opening the next as a replay loop crosses phase boundaries. The track is
// "job:<report name>", so each (uniquely named) job gets its own timeline
// row and phases appear as contiguous spans along it. No-op without a tracer.
class PhaseSpanner {
 public:
  PhaseSpanner(SimEnvironment* env, const std::string& job_name)
      : tracer_(env->tracer()) {
    if (tracer_ != nullptr) {
      track_ = tracer_->Track("job:" + job_name);
    }
  }
  ~PhaseSpanner() { Close(); }
  PhaseSpanner(const PhaseSpanner&) = delete;
  PhaseSpanner& operator=(const PhaseSpanner&) = delete;

  void Enter(JobPhase phase) {
    if (tracer_ == nullptr || phase == current_) {
      return;
    }
    if (current_ != JobPhase::kCount) {
      tracer_->End(track_);
    }
    current_ = phase;
    tracer_->Begin(track_, JobPhaseName(phase));
  }

  void Close() {
    if (tracer_ != nullptr && current_ != JobPhase::kCount) {
      tracer_->End(track_);
      current_ = JobPhase::kCount;
    }
  }

 private:
  Tracer* tracer_;
  uint32_t track_ = 0;
  JobPhase current_ = JobPhase::kCount;
};

std::string ServerNode(const StreamEndpoint& ep) {
  return ep.server != nullptr ? ep.server->name() : "tape-server";
}

// Records the drive's mounted media as used and (so far) holding the stream.
void NoteMounted(TapeDrive* drive, JobReport* report) {
  report->tapes_used.push_back(drive->tape()->label());
  report->final_media.push_back(drive->tape()->label());
}

// ------------------------------------------------------------ tape side ---

// Where a backup stream stands on the endpoint's media set: the next spare
// to load, the checkpoint — the stream offset where the mounted media
// begins — and the first write error no recovery undid. A backup starts at
// the head of its first media, so tape content is always stream[media_start,
// media_start + position) — abandon-and-rewrite relies on it — and no frame
// is written after an unrecovered error: the media never hold a gap. Kept
// at 16 bytes: it lives in the writer's per-job coroutine frame.
struct MediaCursor {
  uint64_t media_start = 0;
  uint32_t next_spare = 0;
  ErrorCode error = ErrorCode::kOk;
};

// The stream's reach on the media set: every stream byte below it is on the
// mounted media or an earlier one of the set.
uint64_t MediaReach(const TapeDrive* drive, const MediaCursor& media) {
  return media.media_start + drive->position();
}

// Recovers a failed tape write of stream[begin, end). On entry `*st` holds
// the error. Transient errors back off and re-issue; an error that outlives
// the retry budget is treated as a media fault: the mounted media is
// abandoned for the next spare and everything it held — stream[media_start,
// begin) plus the failing piece — is rewritten from the checkpoint, exactly
// the way a dump(8) operator re-feeds a tape after a write error. Nested
// failures (a defective spare) loop back through the same ladder until the
// spares run out.
Task RecoverTapeWrite(SimEnvironment* env, const StreamEndpoint& ep,
                      std::span<const uint8_t> stream, uint64_t begin,
                      uint64_t end, MediaCursor* media, JobReport* report,
                      Status* st) {
  FaultCounters& faults = report->faults;
  uint64_t cursor = begin;     // start of the piece whose write failed
  uint64_t failed_at = begin;  // where the retry budget is being spent
  int attempt = 1;
  while (true) {
    ++faults.tape_errors;
    TRACE_INSTANT(env, "faults", "tape.error");
    if (st->code() == ErrorCode::kNoSpace) {
      co_return;  // capacity is the spanning path's job, not a fault
    }
    if (attempt < kTapeRetry.max_attempts) {
      ++faults.tape_retries;
      TRACE_INSTANT(env, "faults", "tape.retry");
      co_await env->Delay(kTapeRetry.BackoffBefore(attempt));
      ++attempt;
    } else {
      // Persistent: remount a spare and rewind to the checkpoint.
      if (media->next_spare >= ep.spare_tapes.size()) {
        co_return;  // unrecoverable; *st keeps the final error
      }
      co_await ep.drive->TimedLoadMedia(ep.spare_tapes[media->next_spare++]);
      ++faults.tape_remounts;
      TRACE_INSTANT(env, "faults", "tape.remount");
      if (!report->final_media.empty()) {
        report->final_media.pop_back();  // the abandoned media
      }
      NoteMounted(ep.drive, report);
      faults.bytes_rewritten += cursor - media->media_start;
      cursor = media->media_start;
      failed_at = cursor;
      attempt = 1;
    }
    // Replay [cursor, end) piecewise; stop at the first failure.
    *st = Status::Ok();
    while (cursor < end && st->ok()) {
      const uint64_t n = std::min<uint64_t>(kChunkBytes, end - cursor);
      ep.drive->ReserveAhead(stream.size() - cursor);
      co_await ep.drive->TimedWrite(stream.subspan(cursor, n), st);
      if (st->ok()) {
        cursor += n;
      }
    }
    if (st->ok()) {
      co_return;
    }
    if (cursor != failed_at) {
      failed_at = cursor;  // progress was made: fresh retry budget
      attempt = 1;
    }
  }
}

// Writes stream[begin, end) to the endpoint's drive: one step of the media
// writer. When the piece would overflow the mounted media, the next spare
// is loaded first (multi-volume dumps; with no spare left the write fails
// with NoSpace). Under supervision a write error runs RecoverTapeWrite.
// Once a write has failed for good, every later call does nothing: the
// writer keeps draining its frames.
Task WriteSpanning(SimEnvironment* env, const StreamEndpoint& ep,
                   std::span<const uint8_t> stream, uint64_t begin,
                   uint64_t end, MediaCursor* media, JobReport* report) {
  if (media->error != ErrorCode::kOk) {
    co_return;
  }
  TapeDrive* tape = ep.drive;
  if (tape->loaded() &&
      tape->position() + (end - begin) > tape->tape()->capacity() &&
      media->next_spare < ep.spare_tapes.size()) {
    co_await tape->TimedLoadMedia(ep.spare_tapes[media->next_spare++]);
    NoteMounted(tape, report);
    media->media_start = begin;
  }
  Status st;
  tape->ReserveAhead(stream.size() - begin);
  co_await tape->TimedWrite(stream.subspan(begin, end - begin), &st);
  if (!st.ok() && ep.supervision != nullptr) {
    co_await RecoverTapeWrite(env, ep, stream, begin, end, media, report, &st);
  }
  media->error = st.code();
  KeepFirstError(report, st);
}

// Reads `buf` off the endpoint's drive. Under supervision a failed read
// retries on the tape backoff schedule (a failed read does not advance the
// head, so a re-issue is exact); the final error lands in the report.
Task ReadTape(SimEnvironment* env, const StreamEndpoint& ep,
              std::span<uint8_t> buf, JobReport* report) {
  Status st;
  co_await ep.drive->TimedRead(buf, &st);
  if (!st.ok() && ep.supervision != nullptr) {
    int attempt = 1;
    while (!st.ok() && attempt < kTapeRetry.max_attempts) {
      ++report->faults.tape_errors;
      ++report->faults.tape_retries;
      TRACE_INSTANT(env, "faults", "tape.retry");
      co_await env->Delay(kTapeRetry.BackoffBefore(attempt));
      ++attempt;
      co_await ep.drive->TimedRead(buf, &st);
    }
    if (!st.ok()) {
      ++report->faults.tape_errors;
    }
  }
  KeepFirstError(report, st);
}

// --------------------------------------------------------- network side ---

// Sender side of one remote stream: a chain of StreamConns over the same
// byte span. The first connection carries the whole stream in the happy
// case; when a connection fails (a frame lost beyond its retransmit budget)
// the session drains it, reads its acked watermark, backs off per the
// kLinkRetry schedule, and resends [acked, high-watermark) on a fresh
// connection — the network analogue of RecoverTapeWrite's remount ladder.
// The receiver drains each connection's frames, fed in order to `feed`, to
// end-of-stream, so it has always received up to the acked watermark the
// next connection resumes from. Every connection paces its frames through
// the endpoint's QoS throttle. The session keeps its first error in the
// report; once it has failed for good, every later Send does nothing.
class StreamSession {
 public:
  StreamSession(SimEnvironment* env, const StreamEndpoint& ep,
                std::string name, std::span<const uint8_t> stream,
                FrameFeed* feed, JobReport* report)
      : env_(env),
        link_(ep.link),
        name_(std::move(name)),
        server_node_(ServerNode(ep)),
        stream_(stream),
        supervised_(ep.supervision != nullptr),
        report_(report),
        throttle_(ep.qos.throttle),
        feed_(feed) {
    // One causal trace for the whole session: every connection, frame and
    // reconnect incarnation shares this id (no-op without a tracer).
    if (Tracer* tracer = env_->tracer()) {
      ctx_ = tracer->StartTrace();
    }
  }

  // The session's causal identity; incarnation climbs with each reconnect.
  const TraceContext& ctx() const { return ctx_; }

  // Opens the first connection; call (and await) before Send.
  Task Start() { co_await Connect(); }

  // True once the stream has failed beyond the reconnect budget.
  bool failed() const { return failed_; }

  // Ships stream[begin, end), recovering as the budget allows; a no-op once
  // the stream has failed. Ranges must be sent in order.
  Task Send(uint64_t begin, uint64_t end, uint32_t tag) {
    if (failed_) {
      co_return;
    }
    last_tag_ = tag;
    hwm_ = std::max(hwm_, end);
    Status st;
    co_await conns_.back()->SendRange(stream_, begin, end, tag, &st);
    while (!st.ok() && CanRecover()) {
      co_await RecoverOnce(&st);
    }
    failed_ = !st.ok();
    KeepFirstError(report_, st);
  }

  // Waits out everything in flight (recovering if the tail fails), then
  // signals end-of-stream to the receiver and settles the stats.
  Task Finish() {
    Status st;
    while (true) {
      co_await conns_.back()->Drain(&st);
      if (st.ok() || !CanRecover()) {
        break;
      }
      co_await RecoverOnce(&st);
    }
    conns_.back()->CloseSend();
    feed_->Close();  // the stream and any recovery are complete
    for (const auto& conn : conns_) {
      report_->faults.link_retransmits += conn->stats().retransmits;
    }
    KeepFirstError(report_, st);
  }

 private:
  bool CanRecover() const {
    return supervised_ && attempts_ < kLinkRetry.max_attempts;
  }

  Task Connect() {
    conns_.push_back(std::make_unique<StreamConn>(
        link_, name_ + "#" + std::to_string(conns_.size())));
    conns_.back()->set_throttle(throttle_);  // QoS survives reconnects
    conns_.back()->EnableTracing(ctx_, "filer", server_node_);
    co_await feed_->Send(&conns_.back()->frames());
  }

  // One reconnect: retire the failed connection, resume past its ack.
  Task RecoverOnce(Status* st) {
    StreamConn* old = conns_.back().get();
    ++report_->faults.link_errors;
    if (Tracer* tracer = env_->tracer()) {
      tracer->Instant(tracer->Track("faults"), "link.error", ctx_);
    }
    Status drain;  // already failed; we only need the in-flight frames done
    co_await old->Drain(&drain);
    old->CloseSend();
    acked_floor_ = std::max(acked_floor_, old->acked());
    ++attempts_;
    co_await env_->Delay(kLinkRetry.BackoffBefore(attempts_));
    ++report_->faults.link_reconnects;
    // The fresh connection is a new incarnation of the same trace: its
    // spans and frames stay under one trace id, labeled with the count.
    ctx_ = ctx_.NextIncarnation();
    if (Tracer* tracer = env_->tracer()) {
      tracer->Instant(tracer->Track("faults"), "link.reconnect", ctx_);
    }
    report_->faults.link_bytes_resent += hwm_ - acked_floor_;
    co_await Connect();
    *st = Status::Ok();
    if (hwm_ > acked_floor_) {
      co_await conns_.back()->SendRange(stream_, acked_floor_, hwm_,
                                        last_tag_, st);
    }
  }

  SimEnvironment* env_;
  NetLink* link_;
  std::string name_;
  std::string server_node_;
  TraceContext ctx_;
  std::span<const uint8_t> stream_;
  bool supervised_;
  JobReport* report_;
  BackupThrottle* throttle_;
  FrameFeed* feed_;
  std::vector<std::unique_ptr<StreamConn>> conns_;
  uint64_t hwm_ = 0;          // highest stream byte handed to Send
  uint64_t acked_floor_ = 0;  // resume point carried across reconnects
  int attempts_ = 0;          // reconnects made (cumulative budget)
  uint32_t last_tag_ = 0;
  bool failed_ = false;
};

// ------------------------------------------------------- backup procs ---

// Takes `lost` stream bytes back out of the phases' tape bytes, latest phase
// first (a backup's phases follow JobPhase order along the stream). The set
// loses bytes when a remount's rewrite fails short of the abandoned media.
void UnbillTape(JobReport* report, JobPhase phase, uint64_t lost) {
  for (int p = static_cast<int>(phase); p >= 0 && lost > 0; --p) {
    uint64_t& billed = report->phases[p].tape_bytes;
    const uint64_t n = std::min(billed, lost);
    billed -= n;
    lost -= n;
  }
}

// The one backup media writer: drains each frame channel on `feed`, in
// order, to the endpoint's spanning media (`stream` is what they hold; a
// remote stream ships offsets, not copies). Skipping and billing follow the
// stream's reach on the media: a resumed connection's replayed prefix is
// skipped, and each phase is billed only for what its frames put there.
// `session` (null locally) puts the writer's span on the server's row.
Task TapeWriterProc(ReplayConfig cfg, std::span<const uint8_t> stream,
                    FrameFeed* feed, const StreamSession* session,
                    JobReport* report, SimEvent* writer_done) {
  SimEnvironment* env = cfg.filer->env();
  const StreamEndpoint& ep = *cfg.endpoint;
  std::optional<ScopedTraceSpan> srv_span;
  if (session != nullptr) {
    srv_span.emplace(env->tracer(), ServerNode(ep),
                     ("srv:" + report->name).c_str(), "tape.write",
                     session->ctx());
  }
  MediaCursor media;
  if (ep.drive->loaded()) {
    NoteMounted(ep.drive, report);
  }
  if (ep.drive->position() != 0) {  // MediaReach counts from the media start
    media.error = ErrorCode::kFailedPrecondition;
    KeepFirstError(report, FailedPrecondition(ep.drive->name() +
                                              ": backup not at media start"));
  }
  while (true) {
    std::optional<Channel<StreamFrame>*> frames = co_await feed->Recv();
    if (!frames.has_value()) {
      break;
    }
    while (true) {
      std::optional<StreamFrame> frame = co_await (*frames)->Recv();
      if (!frame.has_value()) {
        break;
      }
      const uint64_t reach = MediaReach(ep.drive, media);
      if (frame->end <= reach) {
        continue;
      }
      co_await WriteSpanning(env, ep, stream, std::max(frame->begin, reach),
                             frame->end, &media, report);
      const auto phase = static_cast<JobPhase>(frame->tag);
      report->TouchPhase(phase, env->now(), cfg.filer->cpu().BusyIntegral());
      const uint64_t reached = MediaReach(ep.drive, media);
      if (reached >= reach) {
        report->phase(phase).tape_bytes += reached - reach;
      } else {
        UnbillTape(report, phase, reach - reached);
      }
    }
  }
  writer_done->Notify();
}

// Filer-side pump: forwards produced frames into the stream session and
// attributes the shipped bytes to each frame's phase. Once the session has
// failed it keeps draining the channel, shipping nothing, so the producer
// can finish and the job fails cleanly instead of deadlocking.
Task NetSenderProc(ReplayConfig cfg, StreamSession* session,
                   Channel<StreamFrame>* frames, JobReport* report,
                   SimEvent* sender_done) {
  SimEnvironment* env = cfg.filer->env();
  ScopedTraceSpan span(env->tracer(),
                       ("net:" + cfg.endpoint->link->name()).c_str(), "stream",
                       session->ctx());
  while (true) {
    std::optional<StreamFrame> frame = co_await frames->Recv();
    if (!frame.has_value()) {
      break;
    }
    if (session->failed()) {
      continue;
    }
    co_await session->Send(frame->begin, frame->end, frame->tag);
    const auto phase = static_cast<JobPhase>(frame->tag);
    report->phase(phase).net_bytes += frame->end - frame->begin;
    report->TouchPhase(phase, env->now(), cfg.filer->cpu().BusyIntegral());
  }
  co_await session->Finish();
  sender_done->Notify();
}

// Charges one event's disk reads, then signals its ready-event and frees a
// slot in the read-ahead window.
Task DiskFetch(ReplayConfig cfg, const IoEvent* event, JobReport* report,
               SimEvent* ready, Resource* window) {
  const StreamEndpoint& ep = *cfg.endpoint;
  // A supervised endpoint arms disk recovery, counted in the report.
  Status error;
  co_await ChargeDiskAccess(
      cfg.filer->env(), cfg.volume, event->disk_reads,
      /*parity_writes=*/false,
      ep.supervision != nullptr ? &report->faults : nullptr, &error,
      ep.qos.io_priority);
  KeepFirstError(report, error);
  ready->Notify();
  window->Release();
}

// Producer half of a backup replay: charges read-ahead disk fetches and CPU
// per trace event and emits the stream as ordered frames on `out`, pacing
// them through `throttle` when set. Stops at the first frame after the
// report holds an unrecovered error: nothing will store the rest. Does not
// close the channel.
Task ReplayProducer(ReplayConfig cfg, const IoTrace* trace,
                    BackupThrottle* throttle, Channel<StreamFrame>* out,
                    PhaseSpanner* spans, JobReport* report) {
  SimEnvironment* env = cfg.filer->env();
  const int priority = cfg.endpoint->qos.io_priority;
  // Read-ahead: keep up to kDiskWindow events' disk reads in flight; the
  // stream is still produced in order.
  const size_t n_events = trace->events.size();
  std::vector<std::unique_ptr<SimEvent>> ready(n_events);
  Resource window(env, static_cast<int64_t>(kDiskWindow), "readahead");
  size_t spawned = 0;
  auto SpawnFetchesUpTo = [&](size_t limit) -> Task {
    while (spawned < std::min(limit, n_events)) {
      const IoEvent& ev = trace->events[spawned];
      ready[spawned] = std::make_unique<SimEvent>(env);
      if (ev.disk_reads.empty()) {
        ready[spawned]->Notify();
      } else {
        co_await window.Acquire();
        env->Spawn(DiskFetch(cfg, &ev, report, ready[spawned].get(),
                             &window));
      }
      ++spawned;
    }
  };

  uint64_t sent = 0;
  for (size_t i = 0; i < n_events; ++i) {
    if (!report->status.ok()) {
      // The fetches in flight hold `ready` and `window`: wait them out.
      for (; i < spawned; ++i) {
        co_await ready[i]->Wait();
      }
      break;
    }
    const IoEvent& e = trace->events[i];
    spans->Enter(e.phase);
    co_await SpawnFetchesUpTo(i + kDiskWindow + 1);
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
    co_await ready[i]->Wait();
    report->phase(e.phase).disk_bytes += e.disk_reads.size() * kBlockSize;
    co_await cfg.filer->ChargeCpu(e.cpu, priority);
    while (sent < e.stream_end && report->status.ok()) {
      const uint64_t n = std::min<uint64_t>(kChunkBytes, e.stream_end - sent);
      if (throttle != nullptr) {
        co_await throttle->Acquire(n);
      }
      co_await out->Send(StreamFrame{.begin = sent,
                                     .end = sent + n,
                                     .tag = static_cast<uint32_t>(e.phase)});
      sent += n;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
  }
}

// Spliced between producer and writer when content stages are on:
// translates raw producer frames into wire frames through the FrameMap,
// charging the enabled encode stages' CPU per raw MB and pacing `throttle`
// (when set) on the post-stage wire bytes — the rate cap applies to what
// the tape or link actually moves. Closes `out` and notifies `done` when
// `in` drains.
Task ContentChunkAdapter(ReplayConfig cfg, const FrameMap* map,
                         BackupThrottle* throttle, Channel<StreamFrame>* in,
                         Channel<StreamFrame>* out, JobReport* report,
                         SimEvent* done) {
  const StreamEndpoint& ep = *cfg.endpoint;
  const SimDuration cpu_per_mb = ep.content.EncodeCpuPerMb();
  uint64_t raw_done = 0;
  uint64_t cpu_charged = 0;
  uint64_t wire_sent = 0;
  while (true) {
    std::optional<StreamFrame> frame = co_await in->Recv();
    if (!frame.has_value()) {
      break;
    }
    // Encode CPU is priced per *raw* MB moved; the running total keeps the
    // charge exact across frames of any size.
    raw_done += frame->end - frame->begin;
    const uint64_t cpu_due =
        static_cast<uint64_t>(cpu_per_mb) * raw_done / 1000000;
    if (cpu_due > cpu_charged) {
      co_await cfg.filer->cpu().Use(
          1, static_cast<SimDuration>(cpu_due - cpu_charged),
          ep.qos.io_priority);
      report->content.encode_cpu_us += cpu_due - cpu_charged;
      cpu_charged = cpu_due;
    }
    const uint64_t wire_end = map->WireOf(frame->end);
    if (wire_end > wire_sent) {
      if (throttle != nullptr) {
        co_await throttle->Acquire(wire_end - wire_sent);
      }
      co_await out->Send(
          StreamFrame{.begin = wire_sent, .end = wire_end, .tag = frame->tag});
      wire_sent = wire_end;
    }
  }
  out->Close();
  done->Notify();
}

// ------------------------------------------------------- restore procs ---

// Records the mounted media as read unless it already is the last label: a
// resumed restore mounts the same tape again.
void NoteRead(TapeDrive* drive, JobReport* report) {
  const std::string& label = drive->tape()->label();
  if (report->tapes_used.empty() || report->tapes_used.back() != label) {
    report->tapes_used.push_back(label);
  }
}

// Recorded bytes between the head and the end of the mounted media.
uint64_t LeftOnMedia(TapeDrive* drive) {
  return drive->loaded() ? drive->tape()->size() - drive->position() : 0;
}

// Restore-side reader: reads every restore's media. Empty `ranges` reads
// the whole set in order, loading the next spare as each media runs dry
// (multi-volume restores). Otherwise each range is a seek on the mounted
// tape and reads to its end: bytes inside the gaps are never touched, so
// the tape moves O(needed), not O(stream), and watermarks stay monotone
// because ranges ascend. Every read retries per chunk through ReadTape.
// Locally each piece's end offset is published on `out`; at the tape-server
// end of a remote stream each piece ships through `session` instead. After
// a session failure the reader keeps reading while the session ships
// nothing, so the job fails cleanly. Closes `out` (or finishes the
// session), then notifies `reader_done`; `ranges` must live until then.
Task TapeReaderProc(SimEnvironment* env, const StreamEndpoint& ep,
                    uint64_t media_bytes,
                    const std::vector<StreamRange>& ranges,
                    Channel<uint64_t>* out, StreamSession* session,
                    JobReport* report, SimEvent* reader_done) {
  std::optional<ScopedTraceSpan> srv_span;
  if (session != nullptr) {
    srv_span.emplace(env->tracer(), ServerNode(ep),
                     ("srv:" + report->name).c_str(), "tape.read",
                     session->ctx());
  }
  std::vector<uint8_t> scratch(kChunkBytes);
  if (ep.drive->loaded()) {
    NoteRead(ep.drive, report);
  }
  const bool whole = ranges.empty();
  size_t next_spare = 0;
  Status st;  // a seek error or the media running out
  for (size_t i = 0; st.ok() && i < (whole ? 1 : ranges.size()); ++i) {
    const StreamRange r = whole ? StreamRange{0, media_bytes} : ranges[i];
    if (!whole) {
      co_await ep.drive->TimedSeekTo(r.begin, &st);
    }
    for (uint64_t pos = r.begin; st.ok() && pos < r.end;) {
      uint64_t on_tape = LeftOnMedia(ep.drive);
      if (on_tape == 0 && whole && next_spare < ep.spare_tapes.size()) {
        co_await ep.drive->TimedLoadMedia(ep.spare_tapes[next_spare++]);
        NoteRead(ep.drive, report);
        on_tape = LeftOnMedia(ep.drive);
      }
      if (on_tape == 0) {
        st = Corruption(whole ? "multi-volume set ended early"
                              : "tape ended inside a restore range");
        break;
      }
      const uint64_t n =
          std::min<uint64_t>({kChunkBytes, r.end - pos, on_tape});
      co_await ReadTape(env, ep, std::span(scratch).first(n), report);
      if (session == nullptr) {
        co_await out->Send(pos + n);
      } else {
        co_await session->Send(pos, pos + n, 0);
      }
      pos += n;
    }
  }
  KeepFirstError(report, st);
  if (session != nullptr) {
    co_await session->Finish();
  } else {
    out->Close();
  }
  reader_done->Notify();
}

// Filer-side receive adapter for remote restores: turns the in-order frames
// of the session's connections into a monotone arrived-bytes watermark.
Task WatermarkAdapter(FrameFeed* feed, Channel<uint64_t>* out) {
  uint64_t hwm = 0;
  while (true) {
    std::optional<Channel<StreamFrame>*> frames = co_await feed->Recv();
    if (!frames.has_value()) {
      break;
    }
    while (true) {
      std::optional<StreamFrame> frame = co_await (*frames)->Recv();
      if (!frame.has_value()) {
        break;
      }
      if (frame->end > hwm) {
        hwm = frame->end;
        co_await out->Send(hwm);
      }
    }
  }
  out->Close();
}

// The inverse of ContentChunkAdapter: wire-offset watermarks from a reader
// become raw watermarks for ReplayConsumer. Decode CPU is charged only for
// raw bytes the wire ranges actually moved — a resumed or single-file
// replay never pays decode for skipped gaps. Empty `wire_ranges` means the
// whole stream.
Task ContentWatermarkAdapter(ReplayConfig cfg,
                             std::vector<StreamRange> wire_ranges,
                             Channel<uint64_t>* in, Channel<uint64_t>* out,
                             JobReport* report, SimEvent* done) {
  const FrameMap* map = cfg.content_map;
  if (wire_ranges.empty()) {
    wire_ranges.push_back(StreamRange{0, map->wire_total()});
  }
  const SimDuration cpu_per_mb = cfg.endpoint->content.DecodeCpuPerMb();
  size_t range = 0;            // first range the watermark has not passed
  uint64_t completed_raw = 0;  // raw size of fully delivered ranges
  uint64_t cpu_charged = 0;
  while (true) {
    std::optional<uint64_t> watermark = co_await in->Recv();
    if (!watermark.has_value()) {
      break;
    }
    const uint64_t wire = *watermark;
    while (range < wire_ranges.size() && wire >= wire_ranges[range].end) {
      completed_raw += map->RawSizeOfWireRange(wire_ranges[range]);
      ++range;
    }
    // Raw bytes the ranges have actually moved so far — NOT RawAvailable
    // of the global offset, which would bill decode CPU for skipped gaps
    // in a resumed or single-file replay.
    uint64_t moved_raw = completed_raw;
    if (range < wire_ranges.size() && wire > wire_ranges[range].begin) {
      moved_raw += map->RawAvailable(wire) -
                   map->RawAvailable(wire_ranges[range].begin);
    }
    const uint64_t cpu_due =
        static_cast<uint64_t>(cpu_per_mb) * moved_raw / 1000000;
    if (cpu_due > cpu_charged) {
      co_await cfg.filer->cpu().Use(
          1, static_cast<SimDuration>(cpu_due - cpu_charged),
          cfg.endpoint->qos.io_priority);
      report->content.decode_cpu_us += cpu_due - cpu_charged;
      cpu_charged = cpu_due;
    }
    co_await out->Send(map->RawAvailable(wire));
  }
  out->Close();
  done->Notify();
}

// Write-behind worker for the restore side.
Task DiskFlush(ReplayConfig cfg, std::vector<Vbn> writes,
               uint64_t seq_blocks, JobReport* report, Resource* window) {
  SimEnvironment* env = cfg.filer->env();
  const StreamEndpoint& ep = *cfg.endpoint;
  FaultCounters* faults =
      ep.supervision != nullptr ? &report->faults : nullptr;
  Status error;
  if (!writes.empty()) {
    co_await ChargeDiskAccess(env, cfg.volume, writes,
                              /*parity_writes=*/true, faults, &error,
                              ep.qos.io_priority);
  } else if (seq_blocks > 0) {
    co_await ChargeSequentialWrites(env, cfg.volume, seq_blocks, faults,
                                    &error, ep.qos.io_priority);
  }
  KeepFirstError(report, error);
  window->Release();
}

// Consumer half of a restore replay: waits for the `arrived` watermark
// (stream bytes delivered so far) to cover each trace event, then charges
// CPU, NVRAM and write-behind disk flushes. Drains the watermark channel and
// settles outstanding flushes before returning. A remote stream's bytes
// count as link bytes of their phase as well.
Task ReplayConsumer(ReplayConfig cfg, const IoTrace* trace,
                    uint64_t stream_bytes, Channel<uint64_t>* arrived,
                    PhaseSpanner* spans, JobReport* report) {
  SimEnvironment* env = cfg.filer->env();
  const int priority = cfg.endpoint->qos.io_priority;
  const bool over_link = cfg.endpoint->link != nullptr;
  const auto window_depth = static_cast<int64_t>(kDiskWindow);
  Resource write_window(env, window_depth, "writebehind");

  uint64_t available = 0;
  uint64_t consumed = 0;
  for (const IoEvent& e : trace->events) {
    spans->Enter(e.phase);
    // Wait for the stream to deliver this event's bytes.
    while (available < e.stream_end) {
      std::optional<uint64_t> watermark = co_await arrived->Recv();
      if (!watermark.has_value()) {
        available = stream_bytes;
        break;
      }
      available = *watermark;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
    // With content stages, the tape/link moved wire bytes: attribute the
    // event's share in wire coordinates (exact at frame boundaries).
    uint64_t delta = e.stream_end - consumed;
    if (cfg.content_map != nullptr) {
      delta = cfg.content_map->WireOf(e.stream_end) -
              cfg.content_map->WireOf(consumed);
    }
    report->phase(e.phase).tape_bytes += delta;
    if (over_link) {
      report->phase(e.phase).net_bytes += delta;
    }
    consumed = e.stream_end;

    co_await cfg.filer->ChargeCpu(e.cpu, priority);
    if (cfg.charge_nvram && e.nvram_bytes > 0) {
      co_await cfg.filer->ChargeNvram(e.nvram_bytes, priority);
    }
    // Disk flushes proceed write-behind, bounded by the disk window.
    if (!e.disk_writes.empty()) {
      // The engine knows the exact addresses (image restore).
      co_await write_window.Acquire();
      env->Spawn(DiskFlush(cfg, e.disk_writes, 0, report, &write_window));
      report->phase(e.phase).disk_bytes +=
          e.disk_writes.size() * kBlockSize;
    } else if (e.blocks_written > 0) {
      // Write-anywhere flush: sequential burst plus CP meta amplification.
      const auto blocks = static_cast<uint64_t>(
          static_cast<double>(e.blocks_written) *
          (1.0 + cfg.write_meta_multiplier));
      co_await write_window.Acquire();
      env->Spawn(DiskFlush(cfg, {}, blocks, report, &write_window));
      report->phase(e.phase).disk_bytes += blocks * kBlockSize;
    }
    report->TouchPhase(e.phase, env->now(), cfg.filer->cpu().BusyIntegral());
  }
  // Drain any watermarks still queued (trailing stream padding) and wait
  // for outstanding write-behind flushes.
  while (true) {
    std::optional<uint64_t> watermark = co_await arrived->Recv();
    if (!watermark.has_value()) {
      break;
    }
  }
  co_await write_window.Acquire(window_depth);
  write_window.Release(window_depth);
}

}  // namespace

Task ReplayBackup(ReplayConfig cfg, const IoTrace* trace,
                  std::span<const uint8_t> stream, JobReport* report,
                  CountdownLatch* done) {
  SimEnvironment* env = cfg.filer->env();
  const StreamEndpoint& ep = *cfg.endpoint;
  // Content stages encode once, functionally: the media (and a link) carry
  // the wire image while the producer still replays the engine's
  // raw-coordinate trace. Over a link the acked floor and any reconnect
  // resend then work in post-stage coordinates, and a resend replays
  // already-encoded bytes without re-charging encode CPU.
  const bool content = ep.content.enabled();
  std::vector<uint8_t> wire;
  FrameMap map;
  std::span<const uint8_t> media = stream;
  if (content) {
    Result<EncodeResult> encoded = StagePipeline(ep.content).Encode(stream);
    if (!encoded.ok()) {
      KeepFirstError(report, encoded.status());
      done->CountDown();
      co_return;
    }
    wire = std::move(encoded->wire);
    map = std::move(encoded->map);
    report->content.Add(encoded->stats);
    media = wire;
  }

  // The writer drains a feed of frame channels: the pipeline's one channel
  // locally, each connection of a session a sender feeds remotely.
  Channel<StreamFrame> frames(env, kPipelineDepth);
  FrameFeed feed(env, kFeedDepth);
  SimEvent writer_done(env);
  SimEvent sender_done(env);
  std::optional<StreamSession> session;
  if (ep.link != nullptr) {
    session.emplace(env, ep, report->name, media, &feed, report);
    co_await session->Start();
  } else {
    co_await feed.Send(&frames);
    feed.Close();
  }
  StreamSession* remote = session.has_value() ? &*session : nullptr;
  env->Spawn(TapeWriterProc(cfg, media, &feed, remote, report, &writer_done));
  if (remote != nullptr) {
    env->Spawn(NetSenderProc(cfg, remote, &frames, report, &sender_done));
  }

  // A local stream is paced where its bytes are made: raw producer bytes,
  // or wire bytes in the encode adapter. A remote stream is paced only at
  // its StreamConns, so no byte is drawn from the bucket twice.
  BackupThrottle* throttle = ep.link == nullptr ? ep.qos.throttle : nullptr;
  Channel<StreamFrame> raw_frames(env, kPipelineDepth);
  SimEvent adapter_done(env);
  if (content) {
    env->Spawn(ContentChunkAdapter(cfg, &map, throttle, &raw_frames, &frames,
                                   report, &adapter_done));
  }
  Channel<StreamFrame>* produced = content ? &raw_frames : &frames;
  PhaseSpanner spans(env, report->name);
  co_await ReplayProducer(cfg, trace, content ? nullptr : throttle, produced,
                          &spans, report);
  produced->Close();
  if (content) {
    co_await adapter_done.Wait();
  }
  if (session.has_value()) {
    co_await sender_done.Wait();
  }
  co_await writer_done.Wait();
  // Close after the writer drains so the final phase's span covers the tape
  // tail, not just the last produced frame.
  spans.Close();
  report->stream_bytes += stream.size();
  done->CountDown();
}

Task ReplayRestore(ReplayConfig cfg, const IoTrace* trace,
                   std::span<const uint8_t> media,
                   std::vector<StreamRange> ranges, JobReport* report,
                   CountdownLatch* done) {
  SimEnvironment* env = cfg.filer->env();
  const StreamEndpoint& ep = *cfg.endpoint;
  const FrameMap* map = cfg.content_map;
  const uint64_t raw_bytes = map != nullptr ? map->raw_total() : media.size();
  const bool whole = ranges.empty();
  // Catalog and resume offsets are raw; with content stages the media hold
  // wire frames, so read only their frame-aligned wire cover — the
  // bounded-replay guarantee stated in post-stage coordinates.
  if (map != nullptr && !whole) {
    ranges = map->WireRangesOf(ranges);
  }
  // Account only the bytes the media actually moved, not skipped gaps.
  uint64_t moved = whole ? raw_bytes : 0;
  for (const StreamRange& r : ranges) {
    moved += r.size();
  }

  // The reader publishes wire watermarks; with content stages an adapter
  // turns them into the raw ones the consumer waits on, paying decode CPU.
  Channel<uint64_t> arrived(env, kPipelineDepth);
  Channel<uint64_t> wire_arrived(env, kPipelineDepth);
  Channel<uint64_t>* read = map != nullptr ? &wire_arrived : &arrived;
  SimEvent reader_done(env);
  SimEvent adapter_done(env);
  std::optional<FrameFeed> feed;  // a remote stream's connections
  std::optional<StreamSession> session;
  if (ep.link != nullptr) {
    session.emplace(env, ep, report->name, media,
                    &feed.emplace(env, kFeedDepth), report);
    co_await session->Start();
  }
  env->Spawn(TapeReaderProc(env, ep, media.size(), ranges, read,
                            session.has_value() ? &*session : nullptr, report,
                            &reader_done));
  if (session.has_value()) {
    env->Spawn(WatermarkAdapter(&*feed, read));
  }
  if (map != nullptr) {
    env->Spawn(ContentWatermarkAdapter(cfg, ranges, &wire_arrived,
                                       &arrived, report, &adapter_done));
  }

  PhaseSpanner spans(env, report->name);
  co_await ReplayConsumer(cfg, trace, raw_bytes, &arrived, &spans, report);
  co_await reader_done.Wait();
  if (map != nullptr) {
    co_await adapter_done.Wait();
  }
  spans.Close();
  report->stream_bytes += moved;
  done->CountDown();
}

Task SnapshotPhase(Filer* filer, JobReport* report, JobPhase phase,
                   SimDuration duration, int priority) {
  SimEnvironment* env = filer->env();
  PhaseSpanner spans(env, report->name);
  spans.Enter(phase);
  report->TouchPhase(phase, env->now(), filer->cpu().BusyIntegral());
  // Duty-cycle the CPU at the target fraction in short slices so that
  // concurrent jobs are not starved for the whole window.
  const SimTime deadline = env->now() + duration;
  const SimDuration slice = 20 * kMillisecond;
  const auto busy_slice = static_cast<SimDuration>(
      static_cast<double>(slice) * kSnapshotCpuFraction);
  while (env->now() < deadline) {
    co_await filer->cpu().Use(1, busy_slice, priority);
    const SimDuration idle =
        std::min<SimDuration>(slice - busy_slice, deadline - env->now());
    if (idle > 0) {
      co_await env->Delay(idle);
    }
  }
  report->TouchPhase(phase, env->now(), filer->cpu().BusyIntegral());
}

}  // namespace bkup
