#include "acic/simcore/flow.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"

namespace acic::sim {

namespace {
// Flows with less than this many bytes left are considered complete; it
// absorbs floating-point residue from rate integration.
constexpr Bytes kEpsilonBytes = 1e-3;
// Completion tolerance in *time*: a flow that would finish within a
// nanosecond is finished now.  This guards against the zero-progress spin
// where the next completion lies below one ulp of the current (large)
// timestamp, so the clock cannot actually advance to it.
constexpr SimTime kTimeQuantum = 1e-9;

bool flow_done(Bytes remaining, double rate) {
  if (remaining <= kEpsilonBytes) return true;
  return rate > 0.0 && remaining <= rate * kTimeQuantum;
}

bool path_is_duplicate_free(const std::vector<ResourceId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    for (std::size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return false;
    }
  }
  return true;
}
}  // namespace

ResourceId FlowNetwork::add_resource(std::string name, double capacity) {
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << name);
  resources_.push_back(Resource{std::move(name), capacity});
  scratch_.emplace_back();
  return resources_.size() - 1;
}

void FlowNetwork::set_capacity(ResourceId id, double capacity) {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  ACIC_EXPECTS(capacity >= 0.0, "negative capacity " << capacity << " for "
                                                     << resources_[id].name);
  advance();
  resources_[id].capacity = capacity;
  recompute_rates();
  schedule_next_completion();
}

double FlowNetwork::capacity(ResourceId id) const {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  return resources_[id].capacity;
}

const std::string& FlowNetwork::resource_name(ResourceId id) const {
  ACIC_EXPECTS(id < resources_.size(), "unknown resource " << id);
  return resources_[id].name;
}

FlowId FlowNetwork::start_flow(std::vector<ResourceId> path, Bytes bytes,
                               std::function<void()> on_complete) {
  ACIC_EXPECTS(!path.empty(), "flow path must name at least one resource");
  for (ResourceId r : path) {
    ACIC_EXPECTS(r < resources_.size(), "unknown resource " << r
                                                            << " in flow path");
  }
  // Duplicate resources in one path would double-count the flow against
  // that resource in the max-min solve (documented contract; O(p^2) over
  // paths of length <= 4, so debug tier only).
  ACIC_DCHECK(path_is_duplicate_free(path),
              "flow path crosses the same resource twice");
  ACIC_EXPECTS(bytes >= 0.0, "negative flow size " << bytes);

  const FlowId id = next_flow_id_++;
  bytes_injected_ += bytes;
  if (bytes <= kEpsilonBytes) {
    bytes_delivered_ += bytes;
    if (on_complete) sim_.at(sim_.now(), std::move(on_complete));
    return id;
  }
  advance();
  const std::uint32_t cls = intern(std::move(path));
  join_class(cls);
  flows_.push_back(Flow{id, cls, bytes, std::move(on_complete)});
  recompute_rates();
  schedule_next_completion();
  return id;
}

Task FlowNetwork::transfer(std::vector<ResourceId> path, Bytes bytes) {
  struct WaitState {
    bool done = false;
    std::coroutine_handle<> waiter;
  };
  auto state = std::make_shared<WaitState>();
  start_flow(std::move(path), bytes, [state] {
    state->done = true;
    if (state->waiter) state->waiter.resume();
  });
  // NOTE: the awaiter holds a raw pointer, not the shared_ptr — awaiter
  // temporaries must stay trivially destructible (see task.hpp).  The
  // `state` local keeps the WaitState alive across the suspension.
  struct Awaiter {
    WaitState* state;
    bool await_ready() const noexcept { return state->done; }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{state.get()};
}

Task FlowNetwork::transfer_within(std::vector<ResourceId> path, Bytes bytes,
                                  SimTime timeout, bool* completed) {
  ACIC_EXPECTS(timeout > 0.0, "non-positive transfer timeout " << timeout);
  ACIC_EXPECTS(completed != nullptr,
               "transfer_within needs a completion out-param");
  // Completion and timeout race on the event queue; whichever fires first
  // settles the state, disarms the other, and resumes the waiter exactly
  // once.  Both callbacks capture the shared_ptr by value, so the state
  // outlives the coroutine frame even if the loser fires after the frame
  // is gone (e.g. completion event and timer landing on one timestamp:
  // the completion sweep has already queued on_complete as a separate
  // event when the timer fires first).
  struct TimedState {
    bool settled = false;
    bool flow_done = false;
    EventId timer = 0;
    std::coroutine_handle<> waiter;
  };
  auto state = std::make_shared<TimedState>();
  const FlowId flow = start_flow(std::move(path), bytes, [this, state] {
    if (state->settled) return;  // the timeout won this timestamp's race
    state->settled = true;
    state->flow_done = true;
    if (state->timer != 0) sim_.cancel(state->timer);
    if (state->waiter) state->waiter.resume();
  });
  // Safe to arm after start_flow: callbacks only fire once control
  // returns to the event loop, so `state->timer` is always set by then.
  state->timer = sim_.in(timeout, [this, state, flow] {
    if (state->settled) return;  // the flow completed first
    state->settled = true;
    cancel_flow(flow);
    if (state->waiter) state->waiter.resume();
  });
  // Raw pointer for the awaiter (trivially destructible, see task.hpp);
  // the `state` local keeps the TimedState alive across the suspension.
  struct Awaiter {
    TimedState* state;
    bool await_ready() const noexcept { return state->settled; }
    void await_suspend(std::coroutine_handle<> h) { state->waiter = h; }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{state.get()};
  *completed = state->flow_done;
}

std::uint32_t FlowNetwork::intern(std::vector<ResourceId> path) {
  const auto it = class_of_path_.find(path);
  if (it != class_of_path_.end()) return it->second;
  const auto cls = static_cast<std::uint32_t>(classes_.size());
  classes_.push_back(PathClass{path, 0, 0.0, 0, 0.0});
  class_of_path_.emplace(std::move(path), cls);
  return cls;
}

void FlowNetwork::join_class(std::uint32_t cls) {
  PathClass& c = classes_[cls];
  if (c.members++ == 0) {
    c.active_pos = active_.size();
    active_.push_back(cls);
  }
}

void FlowNetwork::leave_class(std::uint32_t cls) {
  PathClass& c = classes_[cls];
  if (--c.members > 0) return;
  // Swap-remove: the solve is independent of class order.
  const std::uint32_t last = active_.back();
  active_[c.active_pos] = last;
  classes_[last].active_pos = c.active_pos;
  active_.pop_back();
}

std::size_t FlowNetwork::find_flow(FlowId id) const {
  const auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId want) { return f.id < want; });
  if (it == flows_.end() || it->id != id) return flows_.size();
  return static_cast<std::size_t>(it - flows_.begin());
}

void FlowNetwork::cancel_flow(FlowId id) {
  const std::size_t i = find_flow(id);
  // Already completed (or never admitted, e.g. a zero-byte flow): no-op.
  if (i == flows_.size()) return;
  advance();
  bytes_cancelled_ += flows_[i].remaining;
  leave_class(flows_[i].cls);
  flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(i));
  recompute_rates();
  schedule_next_completion();
}

double FlowNetwork::flow_rate(FlowId id) const {
  const std::size_t i = find_flow(id);
  return i == flows_.size() ? 0.0 : classes_[flows_[i].cls].rate;
}

void FlowNetwork::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  if (dt > 0.0) {
    for (auto& f : flows_) {
      const Bytes moved = std::min(classes_[f.cls].rate * dt, f.remaining);
      f.remaining -= moved;
      bytes_delivered_ += moved;
    }
  }
  last_update_ = now;
}

void FlowNetwork::recompute_rates() {
  if (active_.empty()) return;

  // Progressive filling over path classes.  Each round computes every
  // used resource's per-flow share once, takes the smallest as the
  // bottleneck share, freezes every unfixed class crossing a resource
  // within 1e-12 of it (judged against these round-start shares), and
  // then deducts frozen_count * best_share from each resource in one
  // step.  No step reads a value another freeze of the same round has
  // written, so the result does not depend on flow or class order, and
  // every flow of a class gets the class's one rate.  Only resources
  // crossed by an active class participate.
  used_.clear();
  for (std::uint32_t cls : active_) {
    PathClass& c = classes_[cls];
    c.rate = -1.0;  // marks "not yet fixed by this solve"
    for (ResourceId r : c.path) {
      ResourceScratch& rs = scratch_[r];
      if (rs.unfixed == 0) {
        rs.residual = resources_[r].capacity;
        used_.push_back(r);
      }
      rs.unfixed += c.members;
    }
  }

  std::size_t unfixed_classes = active_.size();
  while (unfixed_classes > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (ResourceId r : used_) {
      ResourceScratch& rs = scratch_[r];
      if (rs.unfixed == 0) continue;
      rs.share = rs.residual / static_cast<double>(rs.unfixed);
      best_share = std::min(best_share, rs.share);
    }
    if (!std::isfinite(best_share)) break;  // defensive: nothing counted
    best_share = std::max(best_share, 0.0);
    const double threshold = best_share * (1.0 + 1e-12);

    bool froze_any = false;
    for (std::uint32_t cls : active_) {
      PathClass& c = classes_[cls];
      if (c.rate >= 0.0) continue;  // already fixed this solve
      bool at_bottleneck = false;
      for (ResourceId r : c.path) {
        const ResourceScratch& rs = scratch_[r];
        if (rs.unfixed != 0 && rs.share <= threshold) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      froze_any = true;
      --unfixed_classes;
      c.rate = best_share;
      for (ResourceId r : c.path) scratch_[r].frozen += c.members;
    }
    if (!froze_any) break;  // defensive against FP pathologies
    for (ResourceId r : used_) {
      ResourceScratch& rs = scratch_[r];
      if (rs.frozen == 0) continue;
      rs.residual = std::max(
          0.0, rs.residual - static_cast<double>(rs.frozen) * best_share);
      rs.unfixed -= rs.frozen;
      rs.frozen = 0;
    }
  }
  for (std::uint32_t cls : active_) {
    if (classes_[cls].rate < 0.0) classes_[cls].rate = 0.0;  // unplaced
  }
  for (ResourceId r : used_) scratch_[r].unfixed = 0;
}

void FlowNetwork::schedule_next_completion() {
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
  if (flows_.empty()) return;
  // Division is monotone, so min(remaining) / rate per class equals the
  // per-flow minimum of remaining / rate.
  for (std::uint32_t cls : active_) {
    classes_[cls].min_remaining = std::numeric_limits<Bytes>::infinity();
  }
  for (const auto& f : flows_) {
    Bytes& min_remaining = classes_[f.cls].min_remaining;
    min_remaining = std::min(min_remaining, f.remaining);
  }
  SimTime min_eta = std::numeric_limits<SimTime>::infinity();
  for (std::uint32_t cls : active_) {
    const PathClass& c = classes_[cls];
    if (c.rate > 0.0) min_eta = std::min(min_eta, c.min_remaining / c.rate);
  }
  if (!std::isfinite(min_eta)) return;  // everything stalled (failure)
  // Always land on a representable instant strictly after `now` so the
  // clock provably advances (see kTimeQuantum).
  const SimTime now = sim_.now();
  SimTime target = now + std::max(min_eta, kTimeQuantum);
  if (target <= now) {
    target = std::nextafter(now, std::numeric_limits<SimTime>::infinity());
  }
  pending_ = sim_.at(target, [this] {
    pending_ = 0;
    handle_completion_event();
  });
}

void FlowNetwork::handle_completion_event() {
  advance();

  // One order-preserving compaction: survivors keep their (id) order and
  // callbacks fire in flow-id order.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    Flow& f = flows_[i];
    if (flow_done(f.remaining, classes_[f.cls].rate)) {
      // Credit the sub-epsilon residue so bytes_delivered() sums to
      // exactly what was injected (byte conservation).
      bytes_delivered_ += f.remaining;
      if (f.on_complete) done_.push_back(std::move(f.on_complete));
      leave_class(f.cls);
    } else {
      if (kept != i) flows_[kept] = std::move(f);
      ++kept;
    }
  }
  flows_.resize(kept);
  ACIC_DCHECK(bytes_conserved(),
              "flow byte conservation violated: injected="
                  << bytes_injected_ << " delivered=" << bytes_delivered_
                  << " cancelled=" << bytes_cancelled_);
  recompute_rates();
  ACIC_DCHECK(rates_feasible(), "max-min solve oversubscribed a resource");
  schedule_next_completion();
  for (auto& cb : done_) sim_.at(sim_.now(), std::move(cb));
  done_.clear();
}

bool FlowNetwork::bytes_conserved() const {
  Bytes in_flight = 0.0;
  for (const auto& f : flows_) in_flight += f.remaining;
  const Bytes drift =
      bytes_injected_ - (bytes_delivered_ + bytes_cancelled_ + in_flight);
  // fp noise from rate integration scales with the totals involved.
  const Bytes tolerance =
      1e-6 * std::max(1.0, bytes_injected_);
  return drift >= -tolerance && drift <= tolerance;
}

bool FlowNetwork::rates_feasible() const {
  std::vector<double> load(resources_.size(), 0.0);
  for (std::uint32_t cls : active_) {
    const PathClass& c = classes_[cls];
    if (c.rate <= 0.0) continue;
    for (ResourceId r : c.path) {
      load[r] += c.rate * static_cast<double>(c.members);
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    if (load[r] > resources_[r].capacity * (1.0 + 1e-9) + 1e-9) return false;
  }
  return true;
}

}  // namespace acic::sim
