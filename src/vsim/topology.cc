#include "vsim/topology.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace strato::vsim {

Topology::LinkId Topology::add_link(LinkSpec spec) {
  links_.push_back(std::move(spec));
  return static_cast<LinkId>(links_.size() - 1);
}

Topology::PathId Topology::add_path(std::vector<LinkId> links) {
  paths_.push_back(std::move(links));
  return static_cast<PathId>(paths_.size() - 1);
}

Topology Topology::single(const VirtProfile& prof) {
  Topology t;
  const LinkId nic = t.add_link(
      LinkSpec{"nic", prof.net_bytes_s, prof.net_fluct});
  t.add_path({nic});
  t.hosts_ = 1;
  return t;
}

Topology Topology::rack_spine_wan(const FleetShape& shape) {
  Topology t;
  const int racks = std::max(1, shape.racks);
  const int hosts = std::max(1, shape.hosts_per_rack);
  t.hosts_ = static_cast<std::size_t>(racks) * hosts;

  std::vector<LinkId> nic_ids;
  nic_ids.reserve(t.hosts_);
  std::vector<LinkId> rack_ids;
  rack_ids.reserve(static_cast<std::size_t>(racks));
  for (int r = 0; r < racks; ++r) {
    for (int h = 0; h < hosts; ++h) {
      nic_ids.push_back(t.add_link(LinkSpec{
          "host" + std::to_string(r * hosts + h) + ".nic",
          shape.host_nic_bytes_s, shape.nic_fluct}));
    }
  }
  for (int r = 0; r < racks; ++r) {
    rack_ids.push_back(t.add_link(LinkSpec{
        "rack" + std::to_string(r) + ".up", shape.rack_uplink_bytes_s,
        shape.fabric_fluct}));
  }
  const LinkId spine =
      t.add_link(LinkSpec{"spine", shape.spine_bytes_s, shape.fabric_fluct});
  const LinkId wan =
      t.add_link(LinkSpec{"wan", shape.wan_bytes_s, shape.fabric_fluct});

  // Per host: intra_path = 2h, wan_path = 2h + 1 (see header).
  for (std::size_t host = 0; host < t.hosts_; ++host) {
    const LinkId rack = rack_ids[host / static_cast<std::size_t>(hosts)];
    t.add_path({nic_ids[host], rack, spine});
    t.add_path({nic_ids[host], rack, spine, wan});
  }
  return t;
}

LinkBank::LinkBank(const Topology& topo, std::uint64_t seed) : topo_(&topo) {
  fluct_.reserve(topo.link_count());
  chaos_.resize(topo.link_count());
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    // Link 0 keeps the caller's seed verbatim (degenerate == SharedLink);
    // later links decorrelate with an odd multiplier stream.
    fluct_.emplace_back(topo.link(static_cast<Topology::LinkId>(i)).fluct,
                        seed ^ (0x9E3779B97F4A7C15ULL * i));
  }
}

double LinkBank::capacity(Topology::LinkId id, common::SimTime now) {
  double cap = topo_->link(id).capacity_bytes_s * fluct_[id].factor(now);
  if (!chaos_[id].empty()) {
    cap *= chaos_[id].capacity_factor(static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, now.nanos())));
  }
  return cap;
}

void LinkBank::capacities(common::SimTime now, std::vector<double>& out) {
  out.resize(topo_->link_count());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = capacity(static_cast<Topology::LinkId>(i), now);
  }
}

void LinkBank::set_chaos(Topology::LinkId id,
                         common::ChaosSchedule schedule) {
  chaos_[id] = std::move(schedule);
}

MaxMinAllocator::MaxMinAllocator(const Topology& topo) : topo_(&topo) {
  cap_rem_.resize(topo.link_count());
  wsum_.resize(topo.link_count());
  link_flows_.resize(topo.link_count());
  member_.resize(topo.link_count());
  wsum_base_.assign(topo.link_count(), 0.0);
  dirty_.assign(topo.link_count(), 0);
  dead_.assign(topo.link_count(), 0);
  touched_stamp_.assign(topo.link_count(), 0);
  // Flatten the path table: one offset-indexed array instead of a heap
  // vector per path, so the per-flow inner loops walk contiguous memory.
  path_off_.reserve(topo.path_count() + 1);
  path_off_.push_back(0);
  for (std::size_t p = 0; p < topo.path_count(); ++p) {
    const auto& links = topo.path(static_cast<Topology::PathId>(p));
    path_flat_.insert(path_flat_.end(), links.begin(), links.end());
    path_off_.push_back(static_cast<std::uint32_t>(path_flat_.size()));
  }
}

void MaxMinAllocator::allocate(const std::vector<double>& link_capacity,
                               const std::vector<std::uint32_t>& flow_path,
                               const std::vector<double>& flow_weight,
                               const std::vector<std::uint32_t>& active,
                               std::vector<double>& rate_out) {
  const std::size_t links = topo_->link_count();
  cap_rem_.assign(link_capacity.begin(), link_capacity.end());
  wsum_.assign(links, 0.0);
  for (auto& lf : link_flows_) lf.clear();
  if (frozen_.size() < flow_path.size()) frozen_.resize(flow_path.size());

  for (const std::uint32_t f : active) {
    frozen_[f] = 0;
    const double w = flow_weight[f];
    const std::uint32_t p = flow_path[f];
    for (std::uint32_t pi = path_off_[p]; pi < path_off_[p + 1]; ++pi) {
      const std::uint32_t l = path_flat_[pi];
      wsum_[l] += w;
      link_flows_[l].push_back(f);
    }
  }

  // Progressive filling: repeatedly saturate the most-constrained link
  // (smallest capacity per unit weight), freeze its flows at their share,
  // release their weight everywhere else. Each flow freezes exactly once,
  // so the whole allocation is O(sum of path lengths + links^2).
  std::size_t remaining = active.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best = links;
    for (std::size_t l = 0; l < links; ++l) {
      if (wsum_[l] <= 1e-12) continue;
      const double share = std::max(0.0, cap_rem_[l]) / wsum_[l];
      if (share < best_share) {
        best_share = share;
        best = l;
      }
    }
    if (best == links) break;  // defensive: every flow crosses >= 1 link
    for (const std::uint32_t f : link_flows_[best]) {
      if (frozen_[f]) continue;
      const double r = flow_weight[f] * best_share;
      rate_out[f] = r;
      frozen_[f] = 1;
      --remaining;
      const std::uint32_t p = flow_path[f];
      for (std::uint32_t pi = path_off_[p]; pi < path_off_[p + 1]; ++pi) {
        const std::uint32_t l = path_flat_[pi];
        cap_rem_[l] -= r;
        wsum_[l] -= flow_weight[f];
      }
    }
    wsum_[best] = 0.0;  // clear numeric residue
  }
  if (remaining > 0) {
    // The defensive break fired: some flows never froze (possible only
    // when their weights are ~0, so no link registers a positive weight
    // sum). Without this pass they would keep whatever rate_out held
    // from the previous epoch — zero them explicitly.
    for (const std::uint32_t f : active) {
      if (!frozen_[f]) rate_out[f] = 0.0;
    }
  }
}

void MaxMinAllocator::add_flow(std::uint32_t f, Topology::PathId path) {
  if (slot_.size() <= f) {
    // Amortized growth; steady state performs no allocation.
    const std::size_t n = std::max<std::size_t>(f + 1, slot_.size() * 2);
    slot_.resize(n, Slot::kFree);
    frozen_epoch_.resize(n, 0);
  }
  if (slot_[f] != Slot::kFree) {
    // A removed id still sits as a tombstone in its links' member lists;
    // re-adding it before the refold compacts them would count the new
    // flow on the old flow's links too.
    throw std::logic_error(
        "MaxMinAllocator::add_flow: id is live, or removed but not yet "
        "compacted");
  }
  slot_[f] = Slot::kAlive;
  ++live_;
  for (std::uint32_t pi = path_off_[path]; pi < path_off_[path + 1]; ++pi) {
    member_[path_flat_[pi]].push_back(f);
    dirty_[path_flat_[pi]] = 1;
  }
}

void MaxMinAllocator::remove_flow(std::uint32_t f, Topology::PathId path) {
  if (f >= slot_.size() || slot_[f] != Slot::kAlive) return;
  slot_[f] = Slot::kRemoved;
  --live_;
  for (std::uint32_t pi = path_off_[path]; pi < path_off_[path + 1]; ++pi) {
    ++dead_[path_flat_[pi]];
    dirty_[path_flat_[pi]] = 1;
  }
}

void MaxMinAllocator::invalidate_weights() { weights_dirty_ = true; }

void MaxMinAllocator::refold_dirty(const std::vector<double>& flow_weight,
                                   bool fold_all) {
  // Recompute cached per-link weight sums as a left fold over live
  // members in admission order — the exact association the full rebuild
  // uses — compacting tombstones in place as we go. Every link of a
  // removed flow is dirty, so one refold compacts all of its tombstones
  // and the id can be freed at the first one.
  const std::size_t links = topo_->link_count();
  for (std::size_t l = 0; l < links; ++l) {
    if (!fold_all && !dirty_[l]) continue;
    std::vector<std::uint32_t>& mem = member_[l];
    double sum = 0.0;
    if (dead_[l] > 0) {
      std::size_t out = 0;
      for (const std::uint32_t f : mem) {
        if (slot_[f] != Slot::kAlive) {
          slot_[f] = Slot::kFree;
          continue;
        }
        mem[out++] = f;
        sum += flow_weight[f];
      }
      mem.resize(out);
    } else {
      for (const std::uint32_t f : mem) sum += flow_weight[f];
    }
    wsum_base_[l] = sum;
    dirty_[l] = 0;
    dead_[l] = 0;
  }
}

void MaxMinAllocator::heap_push(double share, std::uint32_t link) {
  heap_.push_back(HeapEntry{share, link});
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    const bool less = heap_[i].share != heap_[p].share
                          ? heap_[i].share < heap_[p].share
                          : heap_[i].link < heap_[p].link;
    if (!less) break;
    std::swap(heap_[i], heap_[p]);
    i = p;
  }
}

bool MaxMinAllocator::heap_pop(double& share, std::uint32_t& link) {
  if (heap_.empty()) return false;
  share = heap_[0].share;
  link = heap_[0].link;
  heap_[0] = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    for (std::size_t c = 2 * i + 1; c <= 2 * i + 2 && c < n; ++c) {
      const bool less = heap_[c].share != heap_[best].share
                            ? heap_[c].share < heap_[best].share
                            : heap_[c].link < heap_[best].link;
      if (less) best = c;
    }
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return true;
}

bool MaxMinAllocator::allocate_incremental(
    const std::vector<double>& link_capacity, bool capacity_changed,
    const std::vector<std::uint32_t>& flow_path,
    const std::vector<double>& flow_weight, std::vector<double>& rate_out) {
  const std::size_t links = topo_->link_count();
  bool any_dirty = false;
  for (std::size_t l = 0; l < links; ++l) {
    if (dirty_[l]) {
      any_dirty = true;
      break;
    }
  }
  if (weights_dirty_ || any_dirty) {
    // A weight invalidation refolds every link (any member's weight may
    // have changed); membership churn refolds only the dirty ones.
    refold_dirty(flow_weight, weights_dirty_);
  }
  const bool must_fill =
      weights_dirty_ || any_dirty || capacity_changed || !rates_valid_;
  weights_dirty_ = false;
  if (!must_fill) return false;
  fill_incremental(link_capacity, flow_path, flow_weight, rate_out);
  rates_valid_ = true;
  return true;
}

void MaxMinAllocator::fill_incremental(
    const std::vector<double>& link_capacity,
    const std::vector<std::uint32_t>& flow_path,
    const std::vector<double>& flow_weight, std::vector<double>& rate_out) {
  const std::size_t links = topo_->link_count();
  cap_rem_.assign(link_capacity.begin(), link_capacity.end());
  wsum_ = wsum_base_;
  heap_.clear();
  for (std::size_t l = 0; l < links; ++l) {
    if (wsum_[l] > 1e-12) {
      heap_push(std::max(0.0, cap_rem_[l]) / wsum_[l],
                static_cast<std::uint32_t>(l));
    }
  }

  // Progressive filling driven by a lazy heap: every time a link's
  // (cap_rem, wsum) changes we push its fresh share; stale entries are
  // recognized at pop time because their recorded share no longer equals
  // the recomputed current share. The (share, link-id) ascending order
  // reproduces the linear scan's strict-< tie-break (lowest id wins).
  ++epoch_;
  std::size_t remaining = live_;
  double share_hint;
  std::uint32_t best;
  while (remaining > 0 && heap_pop(share_hint, best)) {
    if (wsum_[best] <= 1e-12) continue;  // saturated or weightless now
    const double share = std::max(0.0, cap_rem_[best]) / wsum_[best];
    if (share != share_hint) continue;  // stale: a fresher entry is queued
    ++round_;
    touched_.clear();
    // Every member is alive here: a removal dirties its links, and dirty
    // links always refold (compacting tombstones) before the fill.
    for (const std::uint32_t f : member_[best]) {
      if (frozen_epoch_[f] == epoch_) continue;
      const double w = flow_weight[f];
      const double r = w * share;
      rate_out[f] = r;
      frozen_epoch_[f] = epoch_;
      --remaining;
      const std::uint32_t p = flow_path[f];
      for (std::uint32_t pi = path_off_[p]; pi < path_off_[p + 1]; ++pi) {
        const std::uint32_t l = path_flat_[pi];
        cap_rem_[l] -= r;
        wsum_[l] -= w;
        if (l != best && touched_stamp_[l] != round_) {
          touched_stamp_[l] = round_;
          touched_.push_back(l);
        }
      }
    }
    wsum_[best] = 0.0;  // clear numeric residue
    for (const std::uint32_t l : touched_) {
      if (wsum_[l] > 1e-12) {
        heap_push(std::max(0.0, cap_rem_[l]) / wsum_[l], l);
      }
    }
  }
  if (remaining > 0) {
    // Mirror of the full path's defensive zeroing: live flows that never
    // froze (weight ~0 on every link) must not keep stale rates.
    for (std::size_t l = 0; l < links; ++l) {
      for (const std::uint32_t f : member_[l]) {
        if (frozen_epoch_[f] != epoch_) {
          rate_out[f] = 0.0;
          frozen_epoch_[f] = epoch_;
        }
      }
    }
  }
}

}  // namespace strato::vsim
