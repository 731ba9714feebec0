#include "acic/simcore/flow.hpp"

#include <algorithm>
#include <cmath>

#include "acic/common/error.hpp"
#include "acic/obs/metrics.hpp"

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

// Min-heap order on finish tags for std::push_heap / std::pop_heap.
struct FinishesLater {
  template <typename T>
  bool operator()(const T& a, const T& b) const {
    return a.finish > b.finish;
  }
};

bool path_is_duplicate_free(const std::vector<ResourceId>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    for (std::size_t j = i + 1; j < path.size(); ++j) {
      if (path[i] == path[j]) return false;
    }
  }
  return true;
}
}  // namespace

FlowNetwork::~FlowNetwork() {
  if (solves_ == 0) return;
  auto& registry = obs::MetricsRegistry::global();
  registry.counter("sim.flow.solves").add(static_cast<double>(solves_));
  registry.counter("sim.flow.rounds").add(static_cast<double>(rounds_));
  registry.counter("sim.flow.class_visits")
      .add(static_cast<double>(class_visits_));
}

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
  join_class(cls, acquire_slot(id, cls, std::move(on_complete)), bytes);
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
  // Map keys never move or change, so the class can view its key.
  const auto key = class_of_path_.emplace(std::move(path), cls).first;
  classes_.push_back(PathClass{key->first, {}, 0.0, 0.0, 0});
  // One allocation covers the common small class.
  classes_.back().heap.reserve(4);
  return cls;
}

void FlowNetwork::join_class(std::uint32_t cls, std::uint32_t slot,
                             Bytes bytes) {
  PathClass& c = classes_[cls];
  if (c.heap.empty()) {
    c.active_pos = active_.size();
    active_.push_back(cls);
  }
  c.heap.push_back(Tag{c.served + bytes, slot});
  std::push_heap(c.heap.begin(), c.heap.end(), FinishesLater{});
}

void FlowNetwork::retire_class(std::uint32_t cls) {
  PathClass& c = classes_[cls];
  // A fresh clock keeps later finish tags small and precise.
  c.served = 0.0;
  // Swap-remove: the solve is independent of class order.
  const std::uint32_t last = active_.back();
  active_[c.active_pos] = last;
  classes_[last].active_pos = c.active_pos;
  active_.pop_back();
}

std::uint32_t FlowNetwork::acquire_slot(FlowId id, std::uint32_t cls,
                                        std::function<void()> on_complete) {
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    free_head_ = slots_[slot].next_free;
  }
  Flow& f = slots_[slot];
  f.id = id;
  f.cls = cls;
  f.on_complete = std::move(on_complete);
  return slot;
}

void FlowNetwork::release_slot(std::uint32_t slot) {
  Flow& f = slots_[slot];
  f.id = kInvalidFlow;
  f.on_complete = nullptr;
  f.next_free = free_head_;
  free_head_ = slot;
}

std::size_t FlowNetwork::active_flows() const {
  std::size_t flows = 0;
  for (std::uint32_t cls : active_) flows += classes_[cls].members();
  return flows;
}

std::size_t FlowNetwork::find_flow(FlowId id) const {
  if (id == kInvalidFlow) return slots_.size();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id == id) return i;
  }
  return slots_.size();
}

void FlowNetwork::cancel_flow(FlowId id) {
  const std::size_t slot = find_flow(id);
  // Already completed (or never admitted, e.g. a zero-byte flow): no-op.
  if (slot == slots_.size()) return;
  advance();
  const std::uint32_t cls = slots_[slot].cls;
  PathClass& c = classes_[cls];
  const auto it = std::find_if(c.heap.begin(), c.heap.end(), [&](const Tag& t) {
    return t.slot == slot;
  });
  // A flow the clock has carried past its tag delivered everything.
  const Bytes left = it->finish - c.served;
  bytes_cancelled_ += std::max(left, 0.0);
  bytes_delivered_ += std::min(left, 0.0);
  *it = c.heap.back();
  c.heap.pop_back();
  std::make_heap(c.heap.begin(), c.heap.end(), FinishesLater{});
  if (c.heap.empty()) retire_class(cls);
  release_slot(static_cast<std::uint32_t>(slot));
  recompute_rates();
  schedule_next_completion();
}

double FlowNetwork::flow_rate(FlowId id) const {
  const std::size_t slot = find_flow(id);
  return slot == slots_.size() ? 0.0 : classes_[slots_[slot].cls].rate;
}

void FlowNetwork::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_update_;
  if (dt > 0.0) {
    for (std::uint32_t cls : active_) {
      PathClass& c = classes_[cls];
      const Bytes moved = c.rate * dt;
      c.served += moved;
      bytes_delivered_ += moved * static_cast<double>(c.members());
    }
  }
  last_update_ = now;
}

void FlowNetwork::recompute_rates() {
  if (active_.empty()) return;
  ++solves_;

  // Progressive filling over path classes.  Each round computes every
  // used resource's per-flow share once, takes the smallest as the
  // bottleneck share, freezes every unfixed class crossing a resource
  // within 1e-12 of it (judged against these round-start shares), and
  // then deducts frozen_count * best_share from each resource in one
  // step.  No step reads a value another freeze of the same round has
  // written, so the result does not depend on flow or class order, and
  // every flow of a class gets the class's one rate.  Only resources
  // crossed by an active class participate, and each round walks only
  // the classes and resources still unfixed: the unfixed classes are
  // kept as a prefix of active_, and the solve is order-free, so the
  // compaction leaves every rate bit-identical.
  used_.clear();
  for (std::uint32_t cls : active_) {
    const PathClass& c = classes_[cls];
    for (ResourceId r : c.path) {
      ResourceScratch& rs = scratch_[r];
      if (rs.unfixed == 0) {
        rs.residual = resources_[r].capacity;
        used_.push_back(r);
      }
      rs.unfixed += c.members();
    }
  }

  std::size_t unfixed = active_.size();
  while (unfixed > 0) {
    ++rounds_;
    double best_share = std::numeric_limits<double>::infinity();
    for (ResourceId r : used_) {
      ResourceScratch& rs = scratch_[r];
      rs.share = rs.residual / static_cast<double>(rs.unfixed);
      best_share = std::min(best_share, rs.share);
    }
    if (!std::isfinite(best_share)) break;  // defensive: nothing counted
    best_share = std::max(best_share, 0.0);
    const double threshold = best_share * (1.0 + 1e-12);

    class_visits_ += unfixed;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < unfixed; ++i) {
      const std::uint32_t cls = active_[i];
      PathClass& c = classes_[cls];
      bool at_bottleneck = false;
      for (ResourceId r : c.path) {
        const ResourceScratch& rs = scratch_[r];
        if (rs.unfixed != 0 && rs.share <= threshold) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) {
        std::swap(active_[kept++], active_[i]);
        continue;
      }
      c.rate = best_share;
      for (ResourceId r : c.path) scratch_[r].frozen += c.members();
    }
    if (kept == unfixed) break;  // defensive against FP pathologies
    unfixed = kept;
    std::size_t live = 0;
    for (ResourceId r : used_) {
      ResourceScratch& rs = scratch_[r];
      if (rs.frozen != 0) {
        rs.residual = std::max(
            0.0, rs.residual - static_cast<double>(rs.frozen) * best_share);
        rs.unfixed -= rs.frozen;
        rs.frozen = 0;
      }
      if (rs.unfixed != 0) used_[live++] = r;
    }
    used_.resize(live);
  }
  for (std::size_t i = 0; i < active_.size(); ++i) {
    PathClass& c = classes_[active_[i]];
    if (i < unfixed) c.rate = 0.0;  // unplaced
    c.active_pos = i;
  }
  for (ResourceId r : used_) scratch_[r].unfixed = 0;
}

void FlowNetwork::schedule_next_completion() {
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
  // Each class's next finisher is its heap top, and division is monotone,
  // so the earliest completion is a minimum over classes.
  SimTime min_eta = std::numeric_limits<SimTime>::infinity();
  for (std::uint32_t cls : active_) {
    const PathClass& c = classes_[cls];
    if (c.rate > 0.0) {
      min_eta = std::min(min_eta, (c.heap.front().finish - c.served) / c.rate);
    }
  }
  if (!std::isfinite(min_eta)) return;  // nothing active, or all stalled
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

  // Pop each class's finished heap tops.  Retiring an emptied class
  // swaps the last active class into position i, which is then visited.
  for (std::size_t i = 0; i < active_.size();) {
    const std::uint32_t cls = active_[i];
    PathClass& c = classes_[cls];
    while (!c.heap.empty() &&
           flow_done(c.heap.front().finish - c.served, c.rate)) {
      // Credit the sub-epsilon residue (or overshoot) so bytes_delivered()
      // sums to exactly what was injected (byte conservation).
      bytes_delivered_ += c.heap.front().finish - c.served;
      const std::uint32_t slot = c.heap.front().slot;
      done_.push_back(Done{slots_[slot].id, slot});
      std::pop_heap(c.heap.begin(), c.heap.end(), FinishesLater{});
      c.heap.pop_back();
    }
    if (c.heap.empty()) {
      retire_class(cls);
    } else {
      ++i;
    }
  }
  ACIC_DCHECK(bytes_conserved(),
              "flow byte conservation violated: injected="
                  << bytes_injected_ << " delivered=" << bytes_delivered_
                  << " cancelled=" << bytes_cancelled_);
  recompute_rates();
  ACIC_DCHECK(rates_feasible(), "max-min solve oversubscribed a resource");
  schedule_next_completion();
  // Callbacks fire in flow-id order.
  if (done_.size() > 1) {
    std::sort(done_.begin(), done_.end(),
              [](const Done& a, const Done& b) { return a.id < b.id; });
  }
  for (const Done& d : done_) {
    std::function<void()>& cb = slots_[d.slot].on_complete;
    if (cb) sim_.at(sim_.now(), std::move(cb));
    release_slot(d.slot);
  }
  done_.clear();
}

bool FlowNetwork::bytes_conserved() const {
  Bytes in_flight = 0.0;
  for (std::uint32_t cls : active_) {
    const PathClass& c = classes_[cls];
    for (const Tag& t : c.heap) in_flight += t.finish - c.served;
  }
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
      load[r] += c.rate * static_cast<double>(c.members());
    }
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    if (load[r] > resources_[r].capacity * (1.0 + 1e-9) + 1e-9) return false;
  }
  return true;
}

}  // namespace acic::sim
