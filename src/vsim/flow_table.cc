#include "vsim/flow_table.h"

namespace strato::vsim {

FlowTable::Id FlowTable::add(std::uint16_t tenant_id, FlowKind k,
                             const PendingFlow& p, double w,
                             common::SimTime now) {
  Id id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<Id>(phase.size());
    const std::size_t n = phase.size() + 1;
    phase.resize(n);
    kind.resize(n);
    tenant.resize(n);
    cls.resize(n);
    level.resize(n);
    path.resize(n);
    weight.resize(n);
    raw_total.resize(n);
    raw_remaining.resize(n);
    dwell_remaining.resize(n);
    arrival.resize(n);
    admitted.resize(n);
    rate.resize(n);
    alloc_rate.resize(n);
    ratio_jitter.resize(n);
    speed_jitter.resize(n);
    ctrl.resize(n);
    meter.resize(n);
    wf.resize(n);
    comp_speed.resize(n);
    cpu_bound.resize(n);
  }
  phase[id] = FlowPhase::kActive;
  kind[id] = k;
  tenant[id] = tenant_id;
  cls[id] = p.cls;
  level[id] = 0;
  path[id] = p.path;
  weight[id] = w;
  raw_total[id] = static_cast<double>(p.raw_bytes);
  raw_remaining[id] = static_cast<double>(p.raw_bytes);
  dwell_remaining[id] = p.dwell;
  arrival[id] = p.arrival;
  admitted[id] = now;
  rate[id] = 0.0;
  alloc_rate[id] = 0.0;
  ratio_jitter[id] = p.ratio_jitter;
  speed_jitter[id] = p.speed_jitter;
  ctrl[id] = core::ControllerState{};
  meter[id] = FlowMeter{now, 0.0, true};
  wf[id] = 1.0;
  comp_speed[id] = 0.0;
  cpu_bound[id] = 0.0;
  return id;
}

void FlowTable::retire(Id f) {
  phase[f] = FlowPhase::kDone;
  retired_.push_back(f);
}

void FlowTable::recycle() {
  free_.insert(free_.end(), retired_.begin(), retired_.end());
  retired_.clear();
}

}  // namespace strato::vsim
