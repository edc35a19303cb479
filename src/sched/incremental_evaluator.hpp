#pragma once
/// \file incremental_evaluator.hpp
/// Incremental delta-evaluation of single-task reassignments.
///
/// Every search mapper probes candidates that differ from their parent by
/// one or two task reassignments, yet a full `Evaluator::evaluate_order`
/// sweep pays O(V + E) per probe. This engine keeps the complete timing
/// state of one schedule order resident — per-task start/finish times, the
/// per-device execution-slot and link occupation state at checkpointed
/// positions, and per-position replay records — so that
/// `probe(TaskReassignment)` re-propagates finish times only from the first
/// affected position of the walk order, skipping every node whose inputs
/// are untouched and terminating as soon as the perturbation has been
/// absorbed (typically at the next series join of the graph), without
/// touching the committed state. `apply()` commits a move by re-recording
/// the suffix from the move's position with the plain sweep; its undo frame
/// holds only the move and the FPGA areas, and undo re-records the same
/// suffix (see "The hybrid probe").
///
/// ## Exactness
///
/// Results are *value-identical* to `Evaluator::evaluate_order` on the same
/// order (and hence to the naive ReferenceEvaluator): every recomputed
/// start/finish time is produced by the same floating-point operations in
/// the same order as the full sweep, and a node is only skipped when all of
/// its inputs compare equal (`==`) to the values the full sweep would read.
/// The one representational difference is internal: the full sweep keeps
/// per-device slot-ready times in slot-index order and picks the argmin,
/// while this engine keeps each device's slot multiset *sorted* (slots are
/// interchangeable — only the multiset of ready times affects any start
/// time, never the slot index). The canonical form is what makes
/// "state has re-converged to the baseline" detectable by an elementwise
/// compare, which is what bounds the affected suffix.
/// `tests/property_incremental_test.cpp` asserts the three-way agreement
/// after every apply/undo over randomized reassignment sequences.
///
/// ## Feasibility
///
/// FPGA area feasibility is tracked incrementally (O(1) per apply).
/// `makespan()` returns `kInfeasible` while any FPGA budget is exceeded —
/// matching `Evaluator::evaluate` — but the timing state stays consistent,
/// so a search may walk through infeasible intermediate states and
/// `order_makespan()` always reports the schedule-order makespan. On the
/// exact budget boundary the incrementally maintained area sum is resynced
/// against `CostModel::mapped_area`, so the verdict cannot drift.
///
/// ## The hybrid probe
///
/// Delta re-pricing only pays when the perturbation heals before the walk
/// ends: every visited position costs ~2-3x a plain sweep position (dual
/// base/cur state, skip tests, diff refreshes), so on *saturated* configs
/// where a reassignment cascades through most of the suffix the engine used
/// to lose to a plain full sweep. `probe()` therefore routes each call
/// through one of two exact paths:
///
///  * **incremental** — the skip-detecting suffix replay described above;
///  * **suffix sweep** — rebuild the (slot, link) state at the move's
///    position from the nearest committed checkpoint (at most kStride
///    committed-record replays, no skip machinery, no use counters) and
///    re-simulate the suffix with the plain branch-light sweep, which reads
///    source times by walk position from a working copy (the committed
///    times below the move, its own output above). Cost is ~(n - p0)
///    sweep positions, i.e. *half* a full sweep for a uniformly random
///    move — strictly cheaper than full re-evaluation, with no delta
///    bookkeeping to lose to.
///
/// In `ProbeMode::kAuto` (the default) the route is a pure function of the
/// probe stream — counts the engine produces anyway, never wall time — so
/// the same moves take the same route on every run and every machine. Each
/// incremental-path probe is priced in *sweep-position units*: one unit per
/// position finished by the in-path dense-cascade sweep, and
/// R = kReplayCostUnits = 2 per position replayed with skip detection (a
/// swept position measures ~22-63 ns, a replayed one ~2-2.5x that; R above
/// ~2.5 already sends most dependency-bound probes to the slower sweep).
/// The suffix-sweep path costs one unit per suffix position by
/// construction. Decaying sums of (units, suffix length) over the
/// incremental probes compare the two: a probe takes the suffix sweep while
/// Σunits > Σsuffix. While the sweep wins, every kResampleEvery-th probe
/// still runs incrementally so the estimate follows the mapping as the
/// search moves it. Both paths return bit-identical values
/// (tests/property_incremental_test.cpp forces each and compares), so the
/// mode only affects speed, never results.
///
/// `apply()` has one route in every mode: the plain sweep re-records the
/// whole suffix from the move's position — times, streamed flags, transfer
/// records, prefix max, later checkpoints and the use counts of the
/// touched blocks — exactly as a full recording sweep (`reset()`) would,
/// so the committed records are always in their one canonical form.
/// `last_replayed()` after an apply is the suffix length. A skip-detecting
/// apply with a per-record undo log is cheaper for random moves that heal
/// early (about 3x on `BM_IncrementalApplyWide`'s apply + undo pairs), but
/// the searches apply only accepted moves and commit them, never undo, and
/// accepted moves are the ones that reshape the schedule: on a
/// hill-climbing accept stream over 16-wide layered DAGs on the many-core
/// platform the re-recording apply was no slower, and the benchmark's
/// search workloads ran within their run-to-run spread with either.
///
/// ## Thread-safety
///
/// An IncrementalEvaluator is mutable state and strictly single-threaded:
/// one instance per thread (the local-search mappers create one per
/// worker). It holds a reference to the Evaluator, which must outlive it;
/// the shared Evaluator itself is immutable and safe to share.

#include <cstdint>
#include <vector>

#include "sched/evaluator.hpp"

namespace spmap {

/// One local-search move: put `node` on `device`.
struct TaskReassignment {
  NodeId node;
  DeviceId device;
};

/// A uniformly random reassignment of a random task to a *different*
/// device — the canonical local-search move (requires >= 2 devices). The
/// local-search mappers and the reassignment benchmarks share this one
/// sampler so they measure the same primitive.
inline TaskReassignment random_reassignment(const Mapping& mapping,
                                            std::size_t device_count,
                                            Rng& rng) {
  const NodeId node(static_cast<std::uint32_t>(rng.below(mapping.size())));
  std::uint64_t pick = rng.below(device_count - 1);
  if (pick >= mapping.device[node.v].v) ++pick;
  return {node, DeviceId(static_cast<std::uint32_t>(pick))};
}

/// How probe() picks between its two exact evaluation paths.
enum class ProbeMode {
  kAuto,              ///< deterministic position-count rule (default)
  kForceIncremental,  ///< always skip-detecting suffix replay
  kForceFallback,     ///< always checkpoint-resume + plain suffix sweep
};

class IncrementalEvaluator {
 public:
  /// Binds to `eval`'s schedule order `order_index` (0 = breadth-first, the
  /// order every search mapper's inner loop uses). The evaluator must
  /// outlive this object. The initial mapping is the all-default mapping;
  /// call `reset` to load another one.
  explicit IncrementalEvaluator(const Evaluator& eval,
                                std::size_t order_index = 0);

  /// Loads `mapping` with one full recording sweep (O(V + E)) and clears
  /// the undo stack. Returns `makespan()`.
  double reset(const Mapping& mapping);

  /// Reassigns one task and re-records the schedule from its walk position
  /// on. Pushes one undo frame (a no-op move pushes an empty frame, so
  /// apply/undo always pair). Returns `makespan()`.
  double apply(TaskReassignment move);

  /// The makespan the move *would* produce, leaving the state untouched —
  /// exactly apply() followed by undo(), but trace-free: recomputed times
  /// go to an epoch-tagged overlay and nothing is recorded or rolled back,
  /// so a rejected candidate costs only the replay itself. The returned
  /// value is bit-identical to what apply() would return.
  double probe(TaskReassignment move);

  /// Rolls back the most recent un-undone apply() by re-recording the
  /// same suffix under the old mapping. Requires `depth() > 0`.
  void undo();

  /// Accepts all applied moves: clears the undo stack (state is kept).
  /// Bounds undo-stack memory in long accept-heavy searches.
  void commit();

  /// Undo frames currently on the stack.
  std::size_t depth() const { return frames_.size(); }

  /// Makespan of the current mapping under the bound schedule order;
  /// `kInfeasible` while any FPGA area budget is exceeded (matching
  /// `Evaluator::evaluate`).
  double makespan() const {
    return over_budget_count_ == 0 ? makespan_value_ : kInfeasible;
  }

  /// The schedule-order makespan regardless of area feasibility (matching
  /// `Evaluator::evaluate_order`, which does not check feasibility).
  double order_makespan() const { return makespan_value_; }

  bool feasible() const { return over_budget_count_ == 0; }

  const Mapping& mapping() const { return mapping_; }

  /// The schedule order this engine simulates.
  const std::vector<NodeId>& order() const;

  /// Per-task times of the current mapping (indexed by node id).
  const std::vector<double>& start_times() const { return start_; }
  const std::vector<double>& finish_times() const { return finish_; }

  /// apply() calls since the last reset(), no-ops included (profiling: one
  /// apply is the incremental counterpart of one single-order evaluation).
  std::size_t apply_count() const { return apply_count_; }
  /// probe() calls since the last reset().
  std::size_t probe_count() const { return probe_count_; }

  /// Positions walked (skip-checked or recomputed) by the last probe() or
  /// apply() — the size of the affected suffix actually visited; after an
  /// apply or a suffix-sweep probe, the suffix length n - p0.
  std::size_t last_replayed() const { return last_replayed_; }
  /// Positions fully recomputed by the last probe() or apply().
  std::size_t last_recomputed() const { return last_recomputed_; }

  /// Selects the probe path (see "The hybrid probe" above). Results are
  /// bit-identical in every mode; forced modes exist for tests and
  /// measurement.
  void set_probe_mode(ProbeMode mode) { probe_mode_ = mode; }
  ProbeMode probe_mode() const { return probe_mode_; }

  /// True when the most recent probe() took the suffix-sweep path.
  bool last_probe_fallback() const { return last_probe_fallback_; }
  /// Non-no-op probes routed through the incremental path (lifetime total).
  std::size_t incremental_probe_count() const { return inc_probes_; }
  /// Non-no-op probes routed through the suffix-sweep path (lifetime total).
  std::size_t fallback_probe_count() const { return fb_probes_; }
  /// Positions visited by incremental-path probes only (fallback sweeps
  /// excluded, so the replay density is not diluted by exactly the probes
  /// that bypassed it).
  std::size_t incremental_replayed_total() const { return inc_replayed_total_; }
  /// Positions re-simulated by suffix-sweep-path probes.
  std::size_t fallback_swept_total() const { return fb_swept_total_; }

 private:
  /// Sentinel: un-dirtied limit (no pending influence).
  static constexpr std::uint32_t kNoDevice = ~0u;
  /// Positions between consecutive (slot, link) state checkpoints. The
  /// state at an arbitrary position is the nearest checkpoint plus a replay
  /// of at most kStride position records.
  static constexpr std::size_t kStride = 64;
  /// Auto-mode routing constants (see "The hybrid probe" above). A
  /// replayed position costs kReplayCostUnits swept positions; the sums are
  /// halved every kCostDecayEvery incremental probes so old regimes fade;
  /// while the sweep wins, every kResampleEvery-th probe runs incrementally.
  static constexpr std::size_t kReplayCostUnits = 2;
  static constexpr std::size_t kResampleEvery = 64;
  static constexpr std::size_t kCostDecayEvery = 64;

  /// What undo needs besides a re-record: the move, and the exact old area
  /// sums (an incremental -/+ would not restore them bit for bit).
  struct UndoFrame {
    std::uint32_t node = 0;
    std::uint32_t old_device = 0;
    int old_over_budget = 0;
    bool noop = true;
    /// Old FPGA area sums of the touched devices (the move's two ends).
    std::pair<std::uint32_t, double> areas[2];
    std::uint32_t area_count = 0;
  };

  /// Re-records the committed state from position `p0` on for the current
  /// mapping: rebuilds the (slot, link) state at p0 from its checkpoint,
  /// re-simulates [p0, n) with the plain sweep while rewriting every
  /// committed record (times, streamed flags, transfer records, prefix max,
  /// the checkpoints of later blocks) and recounts the use counts of every
  /// block from p0 / kStride on. Positions before p0 must be committed for
  /// the current mapping.
  void record_suffix(std::size_t p0);
  /// The plain sweep over [p0, n) on the cur state, starting from the
  /// running max `run_max`; returns the folded makespan. Reads and writes
  /// times by position in work_start_/work_finish_, first re-syncing their
  /// stale prefix below p0 from the committed times. With kRecord it also
  /// rewrites the committed records and counts uses (record_suffix);
  /// without, nothing committed is touched (the suffix-sweep probe).
  template <bool kRecord>
  double sweep_suffix(std::size_t p0, double run_max);
  /// Replays committed records to rebuild the (slot, link) state at
  /// position `p0` into base_*, then copies it to cur_* and seeds the
  /// seen-use counters for the prefix.
  void reconstruct_state(std::size_t p0);
  /// Processes position `p` during an incremental probe: skip if every
  /// input equals what a full sweep would read, else recompute into the
  /// probe overlay. The committed records stay untouched.
  void probe_step(std::size_t p);
  /// Dense-cascade fallback of probe(): recomputes every position from `p`
  /// to the end against the cur state only — no skip detection, no base
  /// state, just the plain sweep — and returns the folded makespan. Keeps
  /// a dense-cascade probe near plain full-sweep cost instead of paying
  /// delta bookkeeping across the whole suffix. Overlay-aware (eff_* reads):
  /// positions before `p` may hold overlay times from earlier probe_steps.
  double plain_suffix_sweep(std::size_t p, double run_max);
  /// Rebuilds only the cur (slot, link) state at position `p0` — the plain
  /// suffix sweeps (probe and record_suffix) need no base state and no
  /// seen-use counters, so this is the slim sibling of reconstruct_state().
  void reconstruct_cur_state(std::size_t p0);
  /// Routing for one probe: true to take the suffix-sweep path.
  bool choose_fallback();
  /// Effective (overlay-aware) times during a probe.
  double eff_start(std::uint32_t node) const {
    return probe_tag_[node] == probe_epoch_ ? probe_start_[node]
                                            : start_[node];
  }
  double eff_finish(std::uint32_t node) const {
    return probe_tag_[node] == probe_epoch_ ? probe_finish_[node]
                                            : finish_[node];
  }
  /// True once no unvisited position can read any remaining divergent
  /// state: past `limit_`, and every device with a lingering slot/link diff
  /// has zero remaining uses of that state.
  bool can_stop(std::size_t p) const;
  void move_area(UndoFrame& frame, NodeId node, std::uint32_t from,
                 std::uint32_t to);
  void update_area(std::uint32_t device, double delta);
  /// Counts one committed use (see block_*_uses_).
  void add_slot_use(std::size_t p, std::uint32_t device);
  void add_link_use(std::size_t p, std::uint32_t device);
  /// Pops the device's minimum slot-ready time and inserts `value`,
  /// keeping the span sorted — the canonical form of the full sweep's
  /// "earliest-ready slot" pick + overwrite (value-identical; see header).
  void pop_min_insert(double* slots, std::uint32_t device, double value);
  bool slot_span_equal(std::uint32_t device) const;
  void touch_slot_device(std::uint32_t device);
  void touch_link_device(std::uint32_t device);
  void refresh_touched_diffs();

  // ---- immutable topology/tables (borrowed from the Evaluator) ----
  const Evaluator* eval_;
  std::size_t order_index_;
  const Evaluator::WalkPlan* plan_;
  std::size_t n_ = 0;       // node count
  std::size_t m_ = 0;       // device count
  std::size_t s_total_ = 0;  // total execution slots
  const std::uint32_t* in_src_ = nullptr;
  const double* in_mb1000_ = nullptr;
  const double* exec_ = nullptr;
  const std::uint8_t* is_fpga_ = nullptr;
  const double* fill_ = nullptr;
  const double* lat_ = nullptr;
  const double* bw_ = nullptr;
  const std::size_t* slot_offset_ = nullptr;
  std::vector<std::uint32_t> pos_;                // node -> walk position
  std::vector<std::uint32_t> last_consumer_pos_;  // node -> max consumer pos
  std::vector<std::uint32_t> in_src_pos_;   // in-edge slot -> source position
  std::vector<double> budget_;                    // per device (FPGAs)
  double area_eps_ = 0.0;
  std::size_t blocks_ = 0;  // checkpoint block count

  // ---- committed state (the current mapping's sweep) ----
  Mapping mapping_;
  std::vector<double> start_, finish_;      // per node
  std::vector<std::uint8_t> streamed_;      // per position
  std::vector<std::uint8_t> edge_xfer_;     // per in-edge slot
  std::vector<double> edge_arrival_;        // per in-edge slot
  std::vector<double> prefix_max_;          // per position
  std::vector<double> checkpoints_;         // [blocks_][s_total + m]
  /// Committed-record use counts per (checkpoint block, device): how many
  /// positions in the block occupy an execution slot of the device, and how
  /// many transfer-edge endpoints touch the device's link. They answer
  /// "does any position >= p still read this device's state?" in O(1)
  /// against the seen_* counters — the early-exit test for diffs lingering
  /// on devices the rest of the walk never touches.
  std::vector<std::uint32_t> block_slot_uses_;  // [block * m + device]
  std::vector<std::uint32_t> block_link_uses_;
  std::vector<std::uint32_t> total_slot_uses_, total_link_uses_;  // per dev
  std::vector<double> area_used_;           // per device
  int over_budget_count_ = 0;
  double makespan_value_ = 0.0;
  std::size_t apply_count_ = 0;
  std::size_t probe_count_ = 0;
  std::size_t last_replayed_ = 0;
  std::size_t last_recomputed_ = 0;

  // ---- hybrid probe state ----
  ProbeMode probe_mode_ = ProbeMode::kAuto;
  /// Decaying sums over incremental-path probes: cost in sweep-position
  /// units, and suffix length (the suffix sweep's cost for the same probes).
  std::size_t inc_units_sum_ = 0;
  std::size_t inc_suffix_sum_ = 0;
  std::size_t inc_notes_since_decay_ = 0;
  std::size_t probes_since_resample_ = 0;
  bool last_probe_fallback_ = false;
  std::size_t inc_probes_ = 0;
  std::size_t fb_probes_ = 0;
  std::size_t inc_replayed_total_ = 0;
  std::size_t fb_swept_total_ = 0;

  // ---- per-apply scratch ----
  std::vector<double> cur_slot_, cur_link_;    // replayed (new) state
  std::vector<double> base_slot_, base_link_;  // committed (old) state
  std::vector<std::uint8_t> slot_differs_, link_differs_;  // per device
  std::size_t diff_device_count_ = 0;
  std::vector<std::uint32_t> diff_list_;     // devices that had a flag set
  std::vector<std::uint8_t> diff_listed_;    // dedup marker for diff_list_
  std::vector<std::uint8_t> timing_dirty_;   // per node
  std::vector<std::uint32_t> dirty_list_;
  std::vector<std::uint32_t> touched_slot_devs_, touched_link_devs_;
  std::vector<std::uint32_t> seen_slot_, seen_link_;  // per device
  /// Probe overlay: times recomputed by the current probe() live here; an
  /// entry is live iff its tag equals probe_epoch_ (O(1) discard).
  std::vector<double> probe_start_, probe_finish_;
  std::vector<std::uint32_t> probe_tag_;
  std::uint32_t probe_epoch_ = 0;
  /// Position-indexed times of sweep_suffix. Positions below work_clean_
  /// hold the committed times; a sweep from p0 leaves its own from p0 on
  /// (the committed ones when recording, which is the only way committed
  /// times change).
  std::vector<double> work_start_, work_finish_;
  std::size_t work_clean_ = 0;
  std::uint32_t moved_ = kNoDevice;
  std::uint32_t moved_old_dev_ = kNoDevice;
  std::size_t limit_ = 0;

  std::vector<UndoFrame> frames_;
};

}  // namespace spmap
