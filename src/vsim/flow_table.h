// Structs-of-arrays flow store for the fleet simulator.
//
// The original TransferExperiment keeps one heap object per transfer
// (policy, meter, link, timeline). At fleet scale — 10^5..10^6 concurrent
// flows — that layout dies by pointer chasing and allocator pressure:
// every epoch touches every active flow, so the state an epoch reads
// (phase, remaining bytes, rate, level) must be contiguous. FlowTable
// stores each field as its own parallel vector; a flow is an index, not
// an object. The adaptive controller rides along as embedded POD
// (core::ControllerState, 40 bytes) and the rate meter as FlowMeter, so
// one million DYNAMIC flows are two flat arrays rather than two million
// heap objects.
//
// Only admitted flows hold a row. A flow waiting in its tenant's queue
// is a compact PendingFlow, and a finished flow's row is reused once the
// allocator has compacted it (retire() / recycle()), so the table's size
// follows the live flow count, not the number of flows ever spawned.
//
// The fleet-alloc lint rule bans `new` / make_unique / make_shared in
// this layer; growth happens only through the column vectors.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sim_time.h"
#include "core/controller.h"
#include "corpus/generator.h"

namespace strato::vsim {

/// Lifecycle of a table row. Flows waiting for admission have no row
/// (they are PendingFlow records in their tenant's queue).
enum class FlowPhase : std::uint8_t {
  kActive,  ///< admitted, competing for link shares
  kDone,    ///< finished; the row is retired until FlowTable::recycle()
};

/// What the flow transports.
enum class FlowKind : std::uint8_t {
  kTransfer,  ///< fixed raw byte count through the compression module
  kDwell,     ///< background TCP connection occupying its share for a
              ///< fixed duration (the bgtraffic tenant class)
};

/// core::RateMeter's state as bare data: the application-data-rate window
/// that feeds Algorithm 1, one per flow, no heap.
struct FlowMeter {
  common::SimTime window_start;
  double bytes = 0.0;  ///< raw bytes this window (fluid drain = fractional)
  bool started = false;
};

/// A spawned flow waiting for admission: everything its RNG draws
/// produced, and nothing else. The tenant's queue holds these, so a
/// queued flow costs 48 bytes instead of a full table row.
struct PendingFlow {
  common::SimTime arrival;
  common::SimTime dwell;            ///< kDwell holding time
  std::uint64_t raw_bytes = 0;      ///< kTransfer size
  double ratio_jitter = 1.0;        ///< per-flow multiplicative jitter
  double speed_jitter = 1.0;
  std::uint32_t path = 0;           ///< Topology path id
  corpus::Compressibility cls = corpus::Compressibility::kLow;
};
static_assert(sizeof(PendingFlow) <= 48, "queued flows must stay compact");

/// Structs-of-arrays store of admitted flows. All columns are
/// index-parallel; FlowTable guards the invariant that they grow together
/// and recycles rows, so the table holds as many rows as flows are live
/// at once (plus one epoch of retired ones), not as many as ever spawned.
class FlowTable {
 public:
  using Id = std::uint32_t;

  /// Admit `p` into a free row (or a new one) in kActive phase at `now`,
  /// with level 0, a zeroed controller and an open decision window;
  /// returns its id.
  Id add(std::uint16_t tenant, FlowKind kind, const PendingFlow& p,
         double weight, common::SimTime now);

  /// Mark a finished row kDone and hold it back from reuse until
  /// recycle(): the allocator still lists the id as a tombstone.
  void retire(Id f);

  /// Make every retired row reusable. Call only after
  /// MaxMinAllocator::allocate_incremental() has compacted the retired
  /// ids out of its member lists (see MaxMinAllocator::add_flow).
  void recycle();

  /// Rows ever allocated — the table's high-water mark of live plus
  /// retired flows.
  [[nodiscard]] std::size_t size() const { return phase.size(); }

  // --- columns (index-parallel; the engine iterates these directly) ----
  std::vector<FlowPhase> phase;
  std::vector<FlowKind> kind;
  std::vector<std::uint16_t> tenant;
  std::vector<corpus::Compressibility> cls;
  std::vector<std::int8_t> level;         ///< current compression level
  std::vector<std::uint32_t> path;        ///< Topology path id
  std::vector<double> weight;             ///< max-min share weight
  std::vector<double> raw_total;          ///< transfer size (raw bytes)
  std::vector<double> raw_remaining;
  std::vector<common::SimTime> dwell_remaining;  ///< kDwell only
  std::vector<common::SimTime> arrival;
  std::vector<common::SimTime> admitted;
  std::vector<double> rate;               ///< allocated wire bytes/s
  std::vector<double> alloc_rate;         ///< max-min share before CPU clamp
  std::vector<double> ratio_jitter;       ///< per-flow multiplicative jitter
  std::vector<double> speed_jitter;
  std::vector<core::ControllerState> ctrl;  ///< Algorithm 1 state (POD)
  std::vector<FlowMeter> meter;             ///< decision-window meter

  // Cached epoch kernel (transfers): derived from (level, cls) + jitters,
  // refreshed only at admission and on a controller level switch so the
  // hot epoch loop reads three doubles instead of re-deriving the model.
  std::vector<double> wf;          ///< wire factor incl. frame overhead
  std::vector<double> comp_speed;  ///< effective compress bytes/s
  std::vector<double> cpu_bound;   ///< comp_speed * wf (wire-rate ceiling)

 private:
  std::vector<Id> free_;     ///< reusable rows (LIFO)
  std::vector<Id> retired_;  ///< finished rows awaiting recycle()
};

}  // namespace strato::vsim
