// Hierarchical link topology for the fleet simulator.
//
// The paper evaluates one foreground transfer on a single shared NIC
// (SharedLink). A fleet serves thousands of concurrent flows crossing a
// datacenter fabric: host NIC -> rack uplink -> spine -> WAN egress. This
// module models that fabric as
//
//   * a static Topology: links (capacity + fluctuation shape) and paths
//     (ordered link-id lists flows are pinned to);
//   * a LinkBank: per-link runtime state — one FluctuationProcess per
//     link (the paper's Fig. 2 capacity wobble, reused unchanged) plus an
//     optional chaos schedule;
//   * a MaxMinAllocator: weighted max-min fair shares across the whole
//     fabric via progressive filling, the multi-link generalization of
//     SharedLink's fg_rate = capacity / (1 + w_bg * k) formula. On the
//     degenerate single-link topology with one weight-1 foreground flow
//     and k weight-w_bg background flows it reproduces exactly that
//     expression, so the Table II calibration carries over untouched.
//
// Everything here is deterministic per seed and allocation-free on the
// hot path: the allocator reuses internal scratch between epochs (the
// fleet-alloc lint rule bans per-flow heap allocation in this layer).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/chaos.h"
#include "common/sim_time.h"
#include "vsim/link.h"
#include "vsim/profile.h"

namespace strato::vsim {

/// One physical link of the fabric.
struct LinkSpec {
  std::string name;                 ///< "host3.nic", "rack0.up", "spine"...
  double capacity_bytes_s = 117e6;  ///< nominal capacity
  FluctuationParams fluct;          ///< Fig. 2 style capacity wobble
};

/// Static fabric shape: links and the paths flows can be pinned to.
class Topology {
 public:
  using LinkId = std::uint32_t;
  using PathId = std::uint32_t;

  /// Add a link; returns its id.
  LinkId add_link(LinkSpec spec);
  /// Add a path (ordered link ids, all previously added); returns its id.
  PathId add_path(std::vector<LinkId> links);

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::size_t path_count() const { return paths_.size(); }
  [[nodiscard]] const LinkSpec& link(LinkId id) const { return links_[id]; }
  [[nodiscard]] const std::vector<LinkId>& path(PathId id) const {
    return paths_[id];
  }
  [[nodiscard]] std::size_t host_count() const { return hosts_; }

  /// Path of host `h` staying inside the datacenter (nic -> rack ->
  /// spine). Valid for rack_spine_wan() topologies.
  [[nodiscard]] PathId intra_path(std::size_t host) const {
    return static_cast<PathId>(2 * host);
  }
  /// Path of host `h` leaving through the WAN egress.
  [[nodiscard]] PathId wan_path(std::size_t host) const {
    return static_cast<PathId>(2 * host + 1);
  }

  /// Degenerate topology: exactly the paper's single shared NIC — one
  /// link with the profile's capacity and fluctuation shape, one path
  /// over it. SharedLink is this topology with the weighted share
  /// evaluated in closed form.
  static Topology single(const VirtProfile& prof);

  /// Fleet fabric shape and capacities.
  struct FleetShape {
    int racks = 8;
    int hosts_per_rack = 16;
    double host_nic_bytes_s = 117e6;
    /// Rack uplink: oversubscribed vs sum of member NICs (production
    /// fabrics run 3:1 .. 8:1).
    double rack_uplink_bytes_s = 4 * 117e6;
    double spine_bytes_s = 16 * 117e6;
    double wan_bytes_s = 8 * 117e6;
    FluctuationParams nic_fluct;    ///< default: gentle Gaussian wobble
    FluctuationParams fabric_fluct; ///< rack/spine/wan links
  };

  /// Build a rack -> spine -> WAN fabric: one NIC link per host, one
  /// uplink per rack, one spine, one WAN egress. Per host two paths:
  /// intra_path(h) = [nic, rack, spine], wan_path(h) = [nic, rack,
  /// spine, wan].
  static Topology rack_spine_wan(const FleetShape& shape);

 private:
  std::vector<LinkSpec> links_;
  std::vector<std::vector<LinkId>> paths_;
  std::size_t hosts_ = 0;
};

/// Runtime state of every link: fluctuating capacity + chaos, advanced
/// lazily in virtual time (queries per link must be non-decreasing).
class LinkBank {
 public:
  /// Per-link FluctuationProcess seeded from `seed`; link 0 uses `seed`
  /// verbatim so the degenerate topology replays SharedLink's exact
  /// capacity series for the same seed.
  LinkBank(const Topology& topo, std::uint64_t seed);

  /// Capacity of link `id` at virtual time `now` (bytes/second).
  double capacity(Topology::LinkId id, common::SimTime now);

  /// Fill `out[id]` with every link's capacity at `now` (epoch batch).
  void capacities(common::SimTime now, std::vector<double>& out);

  /// Install a scripted outage schedule on one link (verify harness).
  void set_chaos(Topology::LinkId id, common::ChaosSchedule schedule);

 private:
  const Topology* topo_;
  std::vector<FluctuationProcess> fluct_;
  std::vector<common::ChaosSchedule> chaos_;
};

/// Weighted max-min fair allocation over a Topology via progressive
/// filling. All scratch state is reused between calls — after warm-up an
/// allocate() performs no heap allocation.
///
/// Two drive modes, bit-identical by construction (vsim_alloc_test pins
/// per-flow EXPECT_DOUBLE_EQ equality under randomized churn):
///
///   * allocate(): the stateless reference — rebuilds per-link flow
///     lists and weight sums from the active list every call.
///   * add_flow()/remove_flow()/invalidate_weights() +
///     allocate_incremental(): persistent per-link membership. An epoch
///     where nothing changed (same capacities, weights, membership)
///     skips the fill entirely and keeps last epoch's rates; an epoch
///     with local churn refolds only dirty links. Progressive filling
///     runs off a lazy heap of (share, link) instead of an O(links)
///     scan per round.
///
/// Bit-exactness invariants (DESIGN.md §15): per-link weight sums are
/// always produced by a left fold over members in admission order —
/// never by adding/subtracting deltas, since IEEE addition is neither
/// associative nor invertible. Removal tombstones members (slot_ state)
/// and compacts on the next refold, preserving relative order, so the
/// fold after a removal equals the fold the full rebuild would compute.
class MaxMinAllocator {
 public:
  explicit MaxMinAllocator(const Topology& topo);

  /// Compute each active flow's wire rate (full rebuild; reference).
  ///
  /// @param link_capacity   capacity per link id (LinkBank::capacities)
  /// @param flow_path       path id per flow (full table, indexed by id)
  /// @param flow_weight     share weight per flow (full table)
  /// @param active          ids of flows competing for capacity
  /// @param rate_out        per-flow result; only active ids are written
  void allocate(const std::vector<double>& link_capacity,
                const std::vector<std::uint32_t>& flow_path,
                const std::vector<double>& flow_weight,
                const std::vector<std::uint32_t>& active,
                std::vector<double>& rate_out);

  // --- persistent membership (incremental mode) ----------------------

  /// Register flow `f` on every link of `path`. Call once at admission;
  /// the flow competes in every subsequent allocate_incremental() until
  /// remove_flow().
  ///
  /// Precondition: `f` is free — never added, or removed and then
  /// compacted by a later allocate_incremental(). An id reused between
  /// remove_flow() and that call would still be a tombstone in its old
  /// links' member lists, and the refold would count the new flow there
  /// too. @throws std::logic_error if `f` is live or removed but not yet
  /// compacted.
  void add_flow(std::uint32_t f, Topology::PathId path);

  /// Unregister flow `f` (tombstoned; compacted, and `f` freed for
  /// add_flow(), by the next allocate_incremental()).
  void remove_flow(std::uint32_t f, Topology::PathId path);

  /// Mark all cached weight sums stale. Call whenever any registered
  /// flow's weight may have changed (kPerTenant reweighting).
  void invalidate_weights();

  [[nodiscard]] std::size_t live_flows() const { return live_; }

  /// Incremental epoch allocation over the registered flows. On return
  /// every removed flow is compacted and its id free for add_flow().
  ///
  /// @param capacity_changed  false asserts `link_capacity` is unchanged
  ///                          since the previous call — combined with no
  ///                          membership/weight churn the whole fill is
  ///                          skipped and rate_out keeps last epoch's
  ///                          values for every registered flow.
  /// @returns true if rates were (re)computed, false if skipped.
  bool allocate_incremental(const std::vector<double>& link_capacity,
                            bool capacity_changed,
                            const std::vector<std::uint32_t>& flow_path,
                            const std::vector<double>& flow_weight,
                            std::vector<double>& rate_out);

 private:
  void refold_dirty(const std::vector<double>& flow_weight, bool fold_all);
  void fill_incremental(const std::vector<double>& link_capacity,
                        const std::vector<std::uint32_t>& flow_path,
                        const std::vector<double>& flow_weight,
                        std::vector<double>& rate_out);
  void heap_push(double share, std::uint32_t link);
  bool heap_pop(double& share, std::uint32_t& link);

  const Topology* topo_;
  // Reusable scratch (see class comment).
  std::vector<double> cap_rem_;
  std::vector<double> wsum_;
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<std::uint8_t> frozen_;

  // Persistent incremental state.
  struct HeapEntry {
    double share;
    std::uint32_t link;
  };
  std::vector<std::vector<std::uint32_t>> member_;  ///< admission order
  std::vector<double> wsum_base_;     ///< cached fold per link
  std::vector<std::uint8_t> dirty_;   ///< membership changed since refold
  std::vector<std::uint32_t> dead_;   ///< tombstones per link
  /// Per flow id: kRemoved holds from remove_flow() until the refold
  /// compacts the id's tombstones; only kFree ids may be (re)added.
  enum class Slot : std::uint8_t { kFree, kAlive, kRemoved };
  std::vector<Slot> slot_;  ///< by flow id
  std::vector<std::uint64_t> frozen_epoch_;  ///< by flow id; == epoch_ when frozen
  std::vector<std::uint32_t> path_flat_;  ///< all paths' link ids, packed
  std::vector<std::uint32_t> path_off_;   ///< path p = [off[p], off[p+1])
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> touched_;       ///< links changed this round
  std::vector<std::uint64_t> touched_stamp_; ///< per link, == round_ if queued
  std::uint64_t epoch_ = 0;
  std::uint64_t round_ = 0;
  std::size_t live_ = 0;
  bool weights_dirty_ = true;
  bool rates_valid_ = false;
};

}  // namespace strato::vsim
