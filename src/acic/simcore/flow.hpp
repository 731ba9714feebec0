// Flow-level bandwidth-sharing model (SimGrid-style).
//
// A Resource is anything with a byte/s capacity: a NIC transmit path, a
// switch backplane slice, a disk.  A Flow is a data transfer that crosses
// an ordered set of resources and is entitled to a max-min fair share of
// each.  Whenever a flow starts, finishes, or a capacity changes, the
// network re-solves the max-min allocation by progressive filling and
// re-schedules the earliest completion on the simulator's event queue.
//
// The solver works on path classes, not flows: every distinct resource
// path is interned once, and all flows on it share the class's member
// count and its one rate.  A round freezes every class that crosses a
// bottleneck judged against the round's starting shares, so the
// allocation depends on neither flow nor class order (DESIGN.md §16).
//
// Progress is kept per class, not per flow: each class has one virtual
// clock, `served`, the bytes each member has moved since the class last
// emptied, and a min-heap of its members' finish tags (the value of
// `served` at which each finishes).  Advancing time, finding the next
// completion and sweeping finished flows cost O(classes + log flows) per
// event instead of O(flows) (GPS/WFQ finish tags, Parekh & Gallager).
//
// This is the contention model that makes the cloud substrate behave like
// the paper's EC2 testbed: an NFS server funnels every client through one
// NIC resource; PVFS2 stripes spread flows over several servers; part-time
// I/O servers make application traffic and storage traffic share the same
// instance NIC; EBS volumes hang off the instance NIC instead of a local
// disk controller.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acic/common/units.hpp"
#include "acic/simcore/simulator.hpp"
#include "acic/simcore/task.hpp"

namespace acic::sim {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

inline constexpr FlowId kInvalidFlow = 0;

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulator& sim) : sim_(sim) {}
  /// Rolls the solver's lifetime work counters (`sim.flow.solves`,
  /// `sim.flow.rounds`, `sim.flow.class_visits`) into the process-wide
  /// `acic::obs` registry, once per network like `Simulator`'s events.
  ~FlowNetwork();
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Register a resource with the given capacity in bytes/second.
  ResourceId add_resource(std::string name, double capacity);

  /// Change a resource's capacity (jitter / failure injection).  Active
  /// flows are re-allocated immediately.
  void set_capacity(ResourceId id, double capacity);

  double capacity(ResourceId id) const;
  const std::string& resource_name(ResourceId id) const;
  std::size_t resource_count() const { return resources_.size(); }

  /// Begin transferring `bytes` across `path`; `on_complete` fires through
  /// the event queue when the transfer finishes.  Zero-byte transfers
  /// complete immediately.  The path must be non-empty and duplicate-free.
  FlowId start_flow(std::vector<ResourceId> path, Bytes bytes,
                    std::function<void()> on_complete);

  /// Coroutine-friendly transfer: suspends the calling process until the
  /// flow completes.
  Task transfer(std::vector<ResourceId> path, Bytes bytes);

  /// Deadline-bounded transfer: suspends until the flow completes or
  /// `timeout` seconds elapse, whichever comes first.  On timeout the
  /// flow is cancelled (its undelivered bytes are abandoned, see
  /// `bytes_cancelled()`) and `*completed` is set false; on completion
  /// the timer is cancelled and `*completed` is set true.  The client
  /// observing a timed-out request maps to the paper's "lost connection
  /// to an I/O server": the payload is gone and must be re-sent.
  Task transfer_within(std::vector<ResourceId> path, Bytes bytes,
                       SimTime timeout, bool* completed);

  /// Abort an active flow: its remaining bytes are dropped (credited to
  /// `bytes_cancelled()`), rates are re-solved, and its on_complete never
  /// fires.  Harmless no-op if the flow already finished.  Costs
  /// O(flows): cancellation is rare (request timeouts).
  void cancel_flow(FlowId id);

  /// Flows in flight; O(classes).
  std::size_t active_flows() const;

  /// Current allocated rate of an active flow (0 if unknown/finished).
  /// O(flows); for tests and diagnostics.
  double flow_rate(FlowId id) const;

  /// Cumulative bytes delivered across all completed flows.
  Bytes bytes_delivered() const { return bytes_delivered_; }

  /// Cumulative bytes injected by start_flow()/transfer() since creation.
  Bytes bytes_injected() const { return bytes_injected_; }

  /// Cumulative undelivered bytes abandoned by cancel_flow().
  Bytes bytes_cancelled() const { return bytes_cancelled_; }

 private:
  /// A live transfer's slot; a free slot has id == kInvalidFlow and
  /// links to the next free slot.  Its path, rate and progress live in
  /// its PathClass.
  struct Flow {
    FlowId id = kInvalidFlow;
    std::uint32_t cls = 0;
    std::uint32_t next_free = 0;
    std::function<void()> on_complete;
  };
  /// A member's finish tag: the class's `served` at which it completes.
  struct Tag {
    Bytes finish = 0.0;
    std::uint32_t slot = 0;
  };
  /// One interned resource path with the flows currently on it.
  struct PathClass {
    std::span<const ResourceId> path;  ///< its key in class_of_path_
    std::vector<Tag> heap;  ///< min-heap on finish; one entry per member
    Bytes served = 0.0;     ///< bytes per member since the class emptied
    double rate = 0.0;
    std::size_t active_pos = 0;  ///< index in active_ while non-empty
    std::size_t members() const { return heap.size(); }
  };
  /// A flow found finished by the completion sweep.
  struct Done {
    FlowId id;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Per-resource solver state, reused across solves; `unfixed` and
  /// `frozen` are zero outside a solve.
  struct ResourceScratch {
    double residual = 0.0;
    double share = 0.0;
    std::size_t unfixed = 0;
    std::size_t frozen = 0;
  };

  /// Class index for `path`, interning it on first sight.
  std::uint32_t intern(std::vector<ResourceId> path);
  /// Admit a flow of `bytes` to class `cls` in slot `slot`.
  void join_class(std::uint32_t cls, std::uint32_t slot, Bytes bytes);
  /// Drop an emptied class from active_ and reset its virtual clock.
  void retire_class(std::uint32_t cls);
  std::uint32_t acquire_slot(FlowId id, std::uint32_t cls,
                             std::function<void()> on_complete);
  void release_slot(std::uint32_t slot);
  /// Slot index of active flow `id`, or slots_.size() if none.
  std::size_t find_flow(FlowId id) const;
  /// Advance every active class's virtual clock up to sim_.now().
  void advance();
  /// Re-solve max-min fair sharing over the active classes.
  void recompute_rates();
  /// Byte conservation: injected == delivered + cancelled + in-flight
  /// (within fp noise).  Backs an ACIC_DCHECK after every completion
  /// sweep.
  bool bytes_conserved() const;
  /// Allocation feasibility: no resource carries more than its capacity.
  bool rates_feasible() const;
  /// (Re)arm the single pending completion event.
  void schedule_next_completion();
  void handle_completion_event();

  Simulator& sim_;
  struct Resource {
    std::string name;
    double capacity;
  };
  std::vector<Resource> resources_;
  std::vector<Flow> slots_;
  std::uint32_t free_head_ = kNoSlot;  ///< first free slot
  std::vector<PathClass> classes_;
  std::map<std::vector<ResourceId>, std::uint32_t> class_of_path_;
  std::vector<std::uint32_t> active_;  ///< classes with members
  std::vector<ResourceScratch> scratch_;  ///< parallel to resources_
  std::vector<ResourceId> used_;          ///< resources the solve touches
  std::vector<Done> done_;                ///< completion-sweep scratch
  EventId pending_ = 0;  ///< the armed completion event, 0 when none
  SimTime last_update_ = 0.0;
  FlowId next_flow_id_ = 1;
  Bytes bytes_delivered_ = 0.0;
  Bytes bytes_injected_ = 0.0;
  Bytes bytes_cancelled_ = 0.0;
  // Solver work, rolled into the registry by the destructor.
  std::uint64_t solves_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t class_visits_ = 0;
};

}  // namespace acic::sim
