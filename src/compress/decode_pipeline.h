// Parallel receive-side block-decompression pipeline.
//
// The mirror image of compress::ParallelBlockPipeline: because every
// framed block is self-contained (Section III-B), received frames can be
// decoded independently. The feeding thread appends wire bytes into pooled
// receive segments, parses frame boundaries in place (zero-copy: each
// frame's payload is a span into the segment it arrived in), dispatches
// complete frames out of order to common::ThreadPool workers for
// decompress + checksum verify, and delivers decoded blocks strictly in
// wire order through the same bounded slot/state reorder window the send
// side uses. The delivered byte stream — including which error is thrown,
// and when — is identical to the serial FrameAssembler path at every
// worker count.
//
// Threading contract:
//   * feed()/next_block() are called from ONE thread (the channel reader);
//   * workers only decode and verify; they never touch segments' layout,
//     the parse cursor, or delivery state;
//   * worker_count <= 1 runs no threads at all — frames decode inline at
//     dispatch, through the same slot machinery, so there is exactly one
//     code path to test.
//
// Zero-copy ownership rules (DESIGN.md section 9):
//   * wire bytes are copied ONCE, into the active receive segment; frames
//     never straddle segments, so a payload span never needs re-assembly;
//   * a segment's data() never moves: appends stop at reserved capacity
//     and open a fresh segment instead (the partial-frame tail is the only
//     bytes ever re-copied — wraparound-only compaction);
//   * a segment is recycled through the pool only when every frame parsed
//     from it has finished decoding and delivery has moved past it;
//   * the span returned by next_block() is a lease on the slot's pooled
//     output buffer, valid until the next next_block() call.
//
// Error determinism: a malformed header poisons the stream at the exact
// frame where the serial parser would have thrown; the error is rethrown
// once every preceding frame has been delivered, and is sticky. Decode and
// checksum failures are captured per slot and rethrown when that block
// reaches the head of the window, without advancing — exactly the serial
// observable order, independent of worker count and feed chunking.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffer_pool.h"
#include "common/bytes.h"
#include "common/lifetime_annotations.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "compress/framing.h"
#include "compress/registry.h"

namespace strato::compress {

/// Sizing knobs (worker_count is surfaced as DecompressingReader's
/// worker_count on streams).
struct DecodePipelineConfig {
  /// Decode worker threads. <= 1 decodes inline on the feeding thread
  /// (no threads are created) — the serial baseline.
  std::size_t worker_count = 1;
  /// Reorder-window depth = max blocks decoding at once; 0 = 2 * workers.
  std::size_t depth = 0;
  /// Receive-segment reserve size; 0 = kDefaultDecodeSegmentSize. Frames
  /// larger than a segment get a dedicated segment sized to fit.
  std::size_t segment_size = 0;
};

/// Default receive-segment size: four default blocks plus header slack, so
/// steady-state 128 KB traffic seals a segment every few frames.
inline constexpr std::size_t kDefaultDecodeSegmentSize =
    4 * (kDefaultBlockSize + kFrameHeaderSize);

/// One decoded block, delivered in wire order. `data` is a lease into the
/// pipeline's pooled output buffer: valid until the next next_block() call
/// (or pipeline destruction), whichever comes first.
struct DecodedBlock {
  common::ByteSpan data;
  FrameHeader header;
};

class ParallelBlockDecodePipeline {
 public:
  ParallelBlockDecodePipeline(const CodecRegistry& registry,
                              DecodePipelineConfig config);
  ~ParallelBlockDecodePipeline();

  ParallelBlockDecodePipeline(const ParallelBlockDecodePipeline&) = delete;
  ParallelBlockDecodePipeline& operator=(const ParallelBlockDecodePipeline&) =
      delete;

  /// Append received wire bytes (one copy, into the active segment) and
  /// start decoding any frames they complete. Never blocks on workers.
  void feed(common::ByteSpan data);

  /// Zero-copy receive path: writable space inside the active pooled
  /// segment, at least `min_bytes` long. A socket reader recv()s directly
  /// into the span and then calls commit() with the byte count actually
  /// written — the wire bytes land in the segment the frames are parsed
  /// from, so the feed()-path copy disappears entirely. Calling feed(),
  /// next_block() or recv_span() again before commit() invalidates the
  /// span. On a poisoned stream the span points at scratch the parser
  /// will never look at (drain-and-discard). The span borrows pipeline-
  /// owned pooled storage (lifetimebound): storing it anywhere that
  /// outlives the commit() is a lifetime bug the strato-lint `lifetime`
  /// rule flags and pool poisoning catches at run time.
  [[nodiscard]] common::MutableByteSpan recv_span(std::size_t min_bytes)
      STRATO_LIFETIME_BOUND;

  /// Account `n` bytes written into the last recv_span() and parse/
  /// dispatch any frames they complete. @param n must be <= the span's
  /// size; 0 is a no-op.
  void commit(std::size_t n);

  /// Deliver the next block in wire order, or nullopt if more bytes are
  /// needed. Blocks only while the head frame is still decoding. The
  /// returned view invalidates the previous one (the block's `data` span
  /// borrows the pipeline's pooled lease — lifetimebound). @throws
  /// CodecError with the same error, at the same block position, as the
  /// serial path.
  [[nodiscard]] std::optional<DecodedBlock> next_block() STRATO_LIFETIME_BOUND;

  /// Header of the most recently delivered block.
  [[nodiscard]] const FrameHeader& last_header() const STRATO_LIFETIME_BOUND {
    return last_;
  }

  /// Wire bytes fed but not yet delivered as decoded blocks.
  [[nodiscard]] std::size_t pending() const {
    return wire_fed_ - wire_delivered_;
  }

  [[nodiscard]] std::size_t worker_count() const {
    return workers_ == nullptr ? 0 : workers_->size();
  }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] std::uint64_t blocks_parsed() const { return parsed_seq_; }
  [[nodiscard]] std::uint64_t blocks_delivered() const {
    return deliver_seq_;
  }
  /// Bytes re-copied by wraparound tail moves — the ONLY wire bytes that
  /// ever move twice. Tests pin this to < one frame per sealed segment.
  [[nodiscard]] std::uint64_t tail_bytes_copied() const {
    return tail_bytes_copied_;
  }
  [[nodiscard]] std::uint64_t segments_sealed() const {
    return segments_sealed_;
  }
  /// Buffer-recycling counters of the private pool (segments + outputs).
  [[nodiscard]] common::BufferPool::Stats pool_stats() const {
    return pool_.stats();
  }

 private:
  /// Pooled receive segment. data() is stable for the segment's lifetime:
  /// it is resized to its full capacity once at acquire, and `fill` marks
  /// how much of it holds wire bytes — the tail [fill, size) is the
  /// writable space recv_span() hands to socket readers. Only the feeding
  /// thread touches layout; `outstanding` (frames parsed from the segment
  /// whose decode has not finished) is the one field workers update,
  /// under mu_.
  struct Segment {
    common::Bytes data;          // pooled; never reallocates after acquire
    std::size_t fill = 0;        // wire bytes present: [0, fill)
    std::size_t parse_off = 0;   // feeding-thread parse cursor
    std::uint32_t outstanding = 0;  // under mu_ once workers exist
    bool sealed = false;         // no further appends

    /// Writable space past the wire bytes — the recv_span()/append target.
    /// Borrows the segment's pooled storage; dead once the segment is
    /// retired to the pool.
    [[nodiscard]] common::MutableByteSpan writable_tail()
        STRATO_LIFETIME_BOUND {
      return {data.data() + fill, data.size() - fill};
    }
    /// Wire bytes at the parse cursor not yet consumed as frames.
    [[nodiscard]] common::ByteSpan unparsed() const STRATO_LIFETIME_BOUND {
      return {data.data() + parse_off, fill - parse_off};
    }
  };

  /// A parsed frame waiting for a free reorder-window slot. The payload
  /// span borrows from `segment`; `outstanding` was already incremented.
  struct ParsedFrame {
    FrameHeader header;
    common::ByteSpan payload;
    Segment* segment = nullptr;
    std::size_t frame_size = 0;
  };

  struct Slot {
    enum class State { kFree, kPending, kReady };
    State state = State::kFree;
    FrameHeader header;
    common::ByteSpan payload;    // into the segment; worker-owned in kPending
    Segment* segment = nullptr;
    std::size_t frame_size = 0;
    common::Bytes out;           // pooled: decoded block (valid when kReady)
    std::exception_ptr error;
  };

  /// Active segment with >= n bytes of writable tail, sealing + opening
  /// segments on wraparound so no frame ever straddles two segments.
  Segment* ensure_free(std::size_t n);
  /// Copy wire bytes into the active segment (the feed() path).
  void append_wire(common::ByteSpan data);
  /// Parse every complete frame at the cursor into parsed_; on a malformed
  /// header, record the poison and stop (order-exact with serial).
  void parse_available();
  /// Move parsed frames into free slots and start their decodes.
  void dispatch_available();
  void decode_slot(std::uint64_t seq);
  /// Release fully-drained front segments back to the pool.
  void retire_segments();
  void drop_lease();

  const CodecRegistry& registry_;
  std::size_t depth_;
  std::size_t segment_size_;

  common::Mutex mu_{"ParallelBlockDecodePipeline::mu_"};
  common::CondVar ready_cv_;
  // Not GUARDED_BY(mu_): slots are handed off by protocol — a kPending
  // slot belongs to its worker, a kReady slot to the feeding thread; only
  // the state transition itself (and Segment::outstanding) happens under
  // mu_. Mirrors ParallelBlockPipeline.
  std::vector<Slot> slots_;        // ring indexed by seq % depth_
  std::uint64_t next_seq_ = 0;     // next sequence number to dispatch
  std::uint64_t deliver_seq_ = 0;  // next sequence number to deliver
  std::uint64_t parsed_seq_ = 0;   // frames parsed off the wire so far

  // Feeding-thread state: receive segments (deque => stable element
  // addresses for the Segment* held by slots), parsed-frame queue, and the
  // once-per-frame header cache shared with FrameAssembler's design.
  std::deque<Segment> segments_;
  std::deque<ParsedFrame> parsed_;
  std::size_t pending_frame_size_ = 0;
  FrameHeader pending_hdr_;
  bool poisoned_ = false;
  std::exception_ptr parse_error_;
  Segment* recv_seg_ = nullptr;    // segment behind the outstanding recv_span
  common::Bytes poison_scratch_;   // recv_span target once poisoned

  FrameHeader last_;
  bool lease_active_ = false;
  common::Bytes lease_;            // the buffer behind the delivered view

  std::uint64_t wire_fed_ = 0;
  std::uint64_t wire_delivered_ = 0;
  std::uint64_t tail_bytes_copied_ = 0;
  std::uint64_t segments_sealed_ = 0;

  common::BufferPool pool_;
  std::unique_ptr<common::ThreadPool> workers_;  // last: joins before state
};

}  // namespace strato::compress
