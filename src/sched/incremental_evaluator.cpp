#include "sched/incremental_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spmap {

IncrementalEvaluator::IncrementalEvaluator(const Evaluator& eval,
                                           std::size_t order_index)
    : eval_(&eval), order_index_(order_index) {
  require(order_index < eval.orders().size(),
          "IncrementalEvaluator: order index out of range");
  plan_ = &eval.plans_[order_index];
  const FlatGraph& flat = eval.flat_graph();
  n_ = flat.node_count();
  m_ = eval.device_count_;
  s_total_ = eval.slot_offset_.back();
  in_src_ = flat.in_src_data();
  in_mb1000_ = eval.in_mb_over_1000_.data();
  exec_ = eval.exec_;
  is_fpga_ = eval.dev_is_fpga_.data();
  fill_ = eval.dev_fill_.data();
  lat_ = eval.link_latency_.data();
  bw_ = eval.link_bandwidth_.data();
  slot_offset_ = eval.slot_offset_.data();

  const std::vector<NodeId>& ord = eval.orders()[order_index];
  pos_.resize(n_);
  for (std::size_t p = 0; p < n_; ++p) {
    pos_[ord[p].v] = static_cast<std::uint32_t>(p);
  }
  // The last walk position that reads a node's mapping or times: the
  // farthest consumer (the node itself if it has none). Dirty influence
  // cannot reach past this position.
  last_consumer_pos_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    std::uint32_t last = pos_[v];
    for (std::uint32_t k = flat.out_begin(NodeId(v));
         k < flat.out_end(NodeId(v)); ++k) {
      last = std::max(last, pos_[flat.out_dst(k)]);
    }
    last_consumer_pos_[v] = last;
  }

  const CostModel& cost = eval.cost();
  const Platform& platform = cost.platform();
  budget_.assign(m_, 0.0);
  double total_area = 0.0;
  for (std::size_t v = 0; v < n_; ++v) total_area += cost.area(NodeId(v));
  double max_budget = 0.0;
  for (std::size_t d = 0; d < m_; ++d) {
    if (is_fpga_[d]) {
      budget_[d] =
          platform.device(DeviceId(static_cast<std::uint32_t>(d))).area_budget;
      max_budget = std::max(max_budget, budget_[d]);
    }
  }
  // Incremental +/- updates of the area sums can drift from the exact
  // node-order sum CostModel uses by a few ulps; any sum this close to its
  // budget is resynced exactly, so the feasibility verdict never differs.
  area_eps_ = 1e-9 * (1.0 + total_area + max_budget);

  blocks_ = n_ == 0 ? 0 : (n_ - 1) / kStride + 1;
  start_.resize(n_);
  finish_.resize(n_);
  streamed_.resize(n_);
  edge_xfer_.resize(flat.edge_count());
  edge_arrival_.resize(flat.edge_count());
  prefix_max_.resize(n_);
  checkpoints_.resize(blocks_ * (s_total_ + m_));
  block_slot_uses_.assign(blocks_ * m_, 0);
  block_link_uses_.assign(blocks_ * m_, 0);
  total_slot_uses_.assign(m_, 0);
  total_link_uses_.assign(m_, 0);
  area_used_.assign(m_, 0.0);

  cur_slot_.resize(s_total_);
  cur_link_.resize(m_);
  base_slot_.resize(s_total_);
  base_link_.resize(m_);
  slot_differs_.assign(m_, 0);
  link_differs_.assign(m_, 0);
  diff_listed_.assign(m_, 0);
  timing_dirty_.assign(n_, 0);
  seen_slot_.assign(m_, 0);
  seen_link_.assign(m_, 0);
  probe_start_.resize(n_);
  probe_finish_.resize(n_);
  probe_tag_.assign(n_, 0);
  probe_epoch_ = 0;
  in_src_pos_.resize(flat.edge_count());
  for (std::uint32_t k = 0; k < flat.edge_count(); ++k) {
    in_src_pos_[k] = pos_[in_src_[k]];
  }
  work_start_.resize(n_);
  work_finish_.resize(n_);

  reset(Mapping(n_, platform.default_device()));
}

const std::vector<NodeId>& IncrementalEvaluator::order() const {
  return eval_->orders()[order_index_];
}

void IncrementalEvaluator::pop_min_insert(double* slots, std::uint32_t device,
                                          double value) {
  // slots[offset] is the device's minimum; drop it and insert `value` in
  // sorted position. `value >= min` always (value = max(ready, min) + exec).
  const std::size_t b = slot_offset_[device];
  const std::size_t e = slot_offset_[device + 1];
  if (value >= slots[e - 1]) {
    // Fast path — schedule times mostly advance, so the inserted finish is
    // usually a new maximum: one shift, no rank scan.
    std::memmove(slots + b, slots + b + 1, (e - 1 - b) * sizeof(double));
    slots[e - 1] = value;
    return;
  }
  // Branchless rank count (vectorizes; a binary search would mispredict on
  // these data-dependent spans) + one memmove for the shift.
  std::size_t rank = 0;
  for (std::size_t i = b + 1; i < e; ++i) {
    rank += slots[i] < value ? 1 : 0;
  }
  std::memmove(slots + b, slots + b + 1, rank * sizeof(double));
  slots[b + rank] = value;
}

void IncrementalEvaluator::add_slot_use(std::size_t p, std::uint32_t device) {
  ++block_slot_uses_[(p / kStride) * m_ + device];
  ++total_slot_uses_[device];
}

void IncrementalEvaluator::add_link_use(std::size_t p, std::uint32_t device) {
  ++block_link_uses_[(p / kStride) * m_ + device];
  ++total_link_uses_[device];
}

double IncrementalEvaluator::reset(const Mapping& mapping) {
  SPMAP_ASSERT(mapping.size() == n_);
  mapping_ = mapping;
  frames_.clear();
  apply_count_ = 0;
  probe_count_ = 0;
  record_suffix(0);

  const CostModel& cost = eval_->cost();
  over_budget_count_ = 0;
  for (std::size_t d = 0; d < m_; ++d) {
    if (!is_fpga_[d]) continue;
    area_used_[d] =
        cost.mapped_area(mapping_, DeviceId(static_cast<std::uint32_t>(d)));
    if (area_used_[d] > budget_[d]) ++over_budget_count_;
  }
  return makespan();
}

void IncrementalEvaluator::record_suffix(std::size_t p0) {
  // Use counts: drop every block from p0's on, then recount them — the
  // positions of p0's block that precede p0 here, the rest in the sweep.
  const std::size_t c0 = p0 / kStride;
  for (std::size_t i = c0 * m_; i < blocks_ * m_; ++i) {
    total_slot_uses_[i % m_] -= block_slot_uses_[i];
    total_link_uses_[i % m_] -= block_link_uses_[i];
    block_slot_uses_[i] = 0;
    block_link_uses_[i] = 0;
  }
  const Evaluator::WalkPlan& plan = *plan_;
  for (std::size_t p = c0 * kStride; p < p0; ++p) {
    const Evaluator::PlanNode pn = plan[p];
    const std::uint32_t d = mapping_.device[pn.node].v;
    if (!streamed_[p]) add_slot_use(p, d);
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      add_link_use(p, mapping_.device[in_src_[k]].v);
      add_link_use(p, d);
    }
  }
  reconstruct_cur_state(p0);
  makespan_value_ =
      sweep_suffix<true>(p0, p0 == 0 ? 0.0 : prefix_max_[p0 - 1]);
}

void IncrementalEvaluator::reconstruct_state(std::size_t p0) {
  const std::size_t c = p0 / kStride;
  const double* ck = checkpoints_.data() + c * (s_total_ + m_);
  std::copy(ck, ck + s_total_, base_slot_.begin());
  std::copy(ck + s_total_, ck + s_total_ + m_, base_link_.begin());
  // Seed the seen-use counters with the whole-block prefix...
  std::fill(seen_slot_.begin(), seen_slot_.end(), 0);
  std::fill(seen_link_.begin(), seen_link_.end(), 0);
  for (std::size_t b = 0; b < c; ++b) {
    for (std::size_t d = 0; d < m_; ++d) {
      seen_slot_[d] += block_slot_uses_[b * m_ + d];
      seen_link_[d] += block_link_uses_[b * m_ + d];
    }
  }
  const Evaluator::WalkPlan& plan = *plan_;
  // ...then replay the committed records forward to p0 (counting uses as we
  // go). Every node and source here precedes p0 in the walk, so its mapping
  // is untouched by the move.
  for (std::size_t p = c * kStride; p < p0; ++p) {
    const Evaluator::PlanNode pn = plan[p];
    const std::uint32_t u = pn.node;
    const std::uint32_t d = mapping_.device[u].v;
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      const std::uint32_t ds = mapping_.device[in_src_[k]].v;
      base_link_[ds] = edge_arrival_[k];
      base_link_[d] = edge_arrival_[k];
      ++seen_link_[ds];
      ++seen_link_[d];
    }
    if (!streamed_[p]) {
      pop_min_insert(base_slot_.data(), d, finish_[u]);
      ++seen_slot_[d];
    }
  }
  std::copy(base_slot_.begin(), base_slot_.end(), cur_slot_.begin());
  std::copy(base_link_.begin(), base_link_.end(), cur_link_.begin());
}

bool IncrementalEvaluator::slot_span_equal(std::uint32_t device) const {
  // Bitwise compare: for the nonnegative finite times in these spans it
  // matches value equality (a hypothetical -0.0 vs +0.0 would only read as
  // "differs", which is conservative — an extra recompute, never a skip).
  const std::size_t b = slot_offset_[device];
  return std::memcmp(cur_slot_.data() + b, base_slot_.data() + b,
                     (slot_offset_[device + 1] - b) * sizeof(double)) == 0;
}

void IncrementalEvaluator::touch_slot_device(std::uint32_t device) {
  // Consecutive duplicates are the common case (base and cur writes land
  // on the same device); dropping them halves the refresh compares.
  if (!touched_slot_devs_.empty() && touched_slot_devs_.back() == device) {
    return;
  }
  touched_slot_devs_.push_back(device);
}

void IncrementalEvaluator::touch_link_device(std::uint32_t device) {
  if (!touched_link_devs_.empty() && touched_link_devs_.back() == device) {
    return;
  }
  touched_link_devs_.push_back(device);
}

void IncrementalEvaluator::refresh_touched_diffs() {
  for (const std::uint32_t d : touched_slot_devs_) {
    const std::uint8_t differs = slot_span_equal(d) ? 0 : 1;
    if (differs != slot_differs_[d]) {
      slot_differs_[d] = differs;
      diff_device_count_ += differs ? 1 : std::size_t(-1);
      if (differs && !diff_listed_[d]) {
        diff_listed_[d] = 1;
        diff_list_.push_back(d);
      }
    }
  }
  touched_slot_devs_.clear();
  for (const std::uint32_t d : touched_link_devs_) {
    const std::uint8_t differs = cur_link_[d] != base_link_[d] ? 1 : 0;
    if (differs != link_differs_[d]) {
      link_differs_[d] = differs;
      diff_device_count_ += differs ? 1 : std::size_t(-1);
      if (differs && !diff_listed_[d]) {
        diff_listed_[d] = 1;
        diff_list_.push_back(d);
      }
    }
  }
  touched_link_devs_.clear();
}

bool IncrementalEvaluator::can_stop(std::size_t p) const {
  if (p <= limit_) return false;
  if (diff_device_count_ == 0) return true;
  // Diffs linger, but they are harmless once nothing ahead reads them:
  // only a slot-occupying task reads its device's slot state, and only a
  // transfer endpoint reads a link. (Past limit_ every unvisited position
  // keeps its committed records, so committed use counts are exact.)
  for (const std::uint32_t dev : diff_list_) {
    if (slot_differs_[dev] && total_slot_uses_[dev] > seen_slot_[dev]) {
      return false;
    }
    if (link_differs_[dev] && total_link_uses_[dev] > seen_link_[dev]) {
      return false;
    }
  }
  return true;
}

void IncrementalEvaluator::update_area(std::uint32_t device, double delta) {
  const double budget = budget_[device];
  const bool was_over = area_used_[device] > budget;
  area_used_[device] += delta;
  if (std::abs(area_used_[device] - budget) <= area_eps_) {
    // Boundary tie: resync against the exact node-order sum so the verdict
    // is identical to CostModel::area_feasible.
    area_used_[device] = eval_->cost().mapped_area(mapping_, DeviceId(device));
  }
  const bool now_over = area_used_[device] > budget;
  if (was_over != now_over) over_budget_count_ += now_over ? 1 : -1;
}

void IncrementalEvaluator::move_area(UndoFrame& frame, NodeId node,
                                     std::uint32_t from, std::uint32_t to) {
  if (!is_fpga_[from] && !is_fpga_[to]) return;
  const double area = eval_->cost().area(node);
  if (is_fpga_[from]) {
    frame.areas[frame.area_count++] = {from, area_used_[from]};
    update_area(from, -area);
  }
  if (is_fpga_[to]) {
    frame.areas[frame.area_count++] = {to, area_used_[to]};
    update_area(to, area);
  }
}

double IncrementalEvaluator::apply(TaskReassignment move) {
  SPMAP_ASSERT(move.node.v < n_);
  SPMAP_ASSERT(move.device.v < m_);
  ++apply_count_;
  UndoFrame& frame = frames_.emplace_back();
  frame.node = move.node.v;
  frame.old_device = mapping_.device[move.node.v].v;
  frame.old_over_budget = over_budget_count_;
  last_replayed_ = 0;
  last_recomputed_ = 0;
  if (move.device.v == frame.old_device) return makespan();
  frame.noop = false;

  mapping_.device[move.node.v] = move.device;
  move_area(frame, move.node, frame.old_device, move.device.v);
  const std::size_t p0 = pos_[move.node.v];
  record_suffix(p0);
  last_replayed_ = n_ - p0;
  last_recomputed_ = n_ - p0;
  return makespan();
}

void IncrementalEvaluator::probe_step(std::size_t p) {
  const Evaluator::PlanNode pn = (*plan_)[p];
  const std::uint32_t u = pn.node;
  const std::uint32_t d = mapping_.device[u].v;

  // Skip test: would a full sweep read exactly the committed values?
  // Source times are overlay-aware behind the timing_dirty_ flags (a
  // flagged source has an overlay entry).
  bool needs = u == moved_ || slot_differs_[d] != 0;
  if (!needs) {
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      const std::uint32_t s = in_src_[k];
      if (timing_dirty_[s] != 0 || s == moved_) {
        needs = true;
        break;
      }
      if (edge_xfer_[k]) {
        const std::uint32_t ds = mapping_.device[s].v;
        if (link_differs_[ds] != 0 || link_differs_[d] != 0) {
          needs = true;
          break;
        }
      }
    }
  }

  if (!needs) {
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      const std::uint32_t ds = mapping_.device[in_src_[k]].v;
      const double arrival = edge_arrival_[k];
      base_link_[ds] = arrival;
      base_link_[d] = arrival;
      cur_link_[ds] = arrival;
      cur_link_[d] = arrival;
      ++seen_link_[ds];
      ++seen_link_[d];
    }
    if (!streamed_[p]) {
      const double fv = finish_[u];
      pop_min_insert(base_slot_.data(), d, fv);
      pop_min_insert(cur_slot_.data(), d, fv);
      ++seen_slot_[d];
    }
    return;
  }

  ++last_recomputed_;
  const std::uint32_t d_old = u == moved_ ? moved_old_dev_ : d;
  const bool dev_fpga = is_fpga_[d] != 0;

  double ready = 0.0;
  bool streamed_in = false;
  for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
    const std::uint32_t s = in_src_[k];
    const std::uint32_t ds = mapping_.device[s].v;
    if (edge_xfer_[k]) {
      const std::uint32_t ds_old = s == moved_ ? moved_old_dev_ : ds;
      base_link_[ds_old] = edge_arrival_[k];
      base_link_[d_old] = edge_arrival_[k];
      touch_link_device(ds_old);
      touch_link_device(d_old);
      // Seen counting follows the committed records, which still carry
      // the old device of the moved node: the committed ends of this edge.
      ++seen_link_[ds_old];
      ++seen_link_[d_old];
    }
    if (ds == d) {
      if (dev_fpga) {
        ready = std::max(ready, eff_start(s) + fill_[d] * exec_[s * m_ + d]);
        streamed_in = true;
      } else {
        ready = std::max(ready, eff_finish(s));
      }
    } else {
      const std::size_t li = ds * m_ + d;
      const double transfer = lat_[li] + in_mb1000_[k] / bw_[li];
      const double t_start =
          std::max({eff_finish(s), cur_link_[ds], cur_link_[d]});
      const double arrival = t_start + transfer;
      cur_link_[ds] = arrival;
      cur_link_[d] = arrival;
      ready = std::max(ready, arrival);
      touch_link_device(ds);
      touch_link_device(d);
    }
  }
  if (!streamed_[p]) {
    pop_min_insert(base_slot_.data(), d_old, finish_[u]);
    touch_slot_device(d_old);
    ++seen_slot_[d_old];
  }
  const double exec_v = exec_[pn.exec_offset + d];
  double start_v;
  if (streamed_in) {
    start_v = ready;
  } else {
    start_v = std::max(ready, cur_slot_[slot_offset_[d]]);
    pop_min_insert(cur_slot_.data(), d, start_v + exec_v);
    touch_slot_device(d);
  }
  const double finish_v = start_v + exec_v;
  probe_start_[u] = start_v;
  probe_finish_[u] = finish_v;
  probe_tag_[u] = probe_epoch_;
  if (start_v != start_[u] || finish_v != finish_[u]) {
    if (timing_dirty_[u] == 0) {
      timing_dirty_[u] = 1;
      dirty_list_.push_back(u);
    }
    limit_ = std::max(limit_, static_cast<std::size_t>(last_consumer_pos_[u]));
  }

  refresh_touched_diffs();
}

double IncrementalEvaluator::plain_suffix_sweep(std::size_t p,
                                                double run_max) {
  const Evaluator::WalkPlan& plan = *plan_;
  for (; p < n_; ++p) {
    ++last_replayed_;
    ++last_recomputed_;
    const Evaluator::PlanNode pn = plan[p];
    const std::uint32_t u = pn.node;
    const std::uint32_t d = mapping_.device[u].v;
    const bool dev_fpga = is_fpga_[d] != 0;
    double ready = 0.0;
    bool streamed_in = false;
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      const std::uint32_t s = in_src_[k];
      const std::uint32_t ds = mapping_.device[s].v;
      if (ds == d) {
        if (dev_fpga) {
          ready = std::max(ready, eff_start(s) + fill_[d] * exec_[s * m_ + d]);
          streamed_in = true;
        } else {
          ready = std::max(ready, eff_finish(s));
        }
      } else {
        const std::size_t li = ds * m_ + d;
        const double transfer = lat_[li] + in_mb1000_[k] / bw_[li];
        const double t_start =
            std::max({eff_finish(s), cur_link_[ds], cur_link_[d]});
        const double arrival = t_start + transfer;
        cur_link_[ds] = arrival;
        cur_link_[d] = arrival;
        ready = std::max(ready, arrival);
      }
    }
    const double exec_v = exec_[pn.exec_offset + d];
    double start_v;
    if (streamed_in) {
      start_v = ready;
    } else {
      start_v = std::max(ready, cur_slot_[slot_offset_[d]]);
      pop_min_insert(cur_slot_.data(), d, start_v + exec_v);
    }
    probe_start_[u] = start_v;
    probe_finish_[u] = start_v + exec_v;
    probe_tag_[u] = probe_epoch_;
    run_max = std::max(run_max, start_v + exec_v);
  }
  return run_max;
}

void IncrementalEvaluator::reconstruct_cur_state(std::size_t p0) {
  const std::size_t c = p0 / kStride;
  const double* ck = checkpoints_.data() + c * (s_total_ + m_);
  std::copy(ck, ck + s_total_, cur_slot_.begin());
  std::copy(ck + s_total_, ck + s_total_ + m_, cur_link_.begin());
  // Replay the committed records forward to p0. Every node and source here
  // precedes p0 in the walk, so its mapping is untouched by the move.
  const Evaluator::WalkPlan& plan = *plan_;
  for (std::size_t p = c * kStride; p < p0; ++p) {
    const Evaluator::PlanNode pn = plan[p];
    const std::uint32_t u = pn.node;
    const std::uint32_t d = mapping_.device[u].v;
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      if (!edge_xfer_[k]) continue;
      cur_link_[mapping_.device[in_src_[k]].v] = edge_arrival_[k];
      cur_link_[d] = edge_arrival_[k];
    }
    if (!streamed_[p]) pop_min_insert(cur_slot_.data(), d, finish_[u]);
  }
}

template <bool kRecord>
double IncrementalEvaluator::sweep_suffix(std::size_t p0, double run_max) {
  // The plain sweep over [p0, n): the same arithmetic in the same order as
  // Evaluator::evaluate_plan. Source times are read by walk position from
  // the working arrays, whose prefix below p0 holds the committed times
  // once the stale part is re-synced here, so every read is one indexed
  // load with no committed-or-fresh choice. The __restrict locals keep the
  // compiler from reloading topology tables around the state stores.
  const Evaluator::WalkPlan& plan = *plan_;
  for (std::size_t q = work_clean_; q < p0; ++q) {
    work_start_[q] = start_[plan[q].node];
    work_finish_[q] = finish_[plan[q].node];
  }
  // Recording leaves committed times everywhere; a probe leaves its own
  // from p0 on.
  work_clean_ = kRecord ? n_ : p0;
  const std::uint32_t* __restrict in_src = in_src_;
  const std::uint32_t* __restrict in_src_pos = in_src_pos_.data();
  const double* __restrict in_mb = in_mb1000_;
  const double* __restrict exec = exec_;
  const double* __restrict lat = lat_;
  const double* __restrict bw = bw_;
  const double* __restrict fill = fill_;
  const std::uint8_t* __restrict is_fpga = is_fpga_;
  const std::size_t* __restrict slot_off = slot_offset_;
  double* __restrict wstart = work_start_.data();
  double* __restrict wfinish = work_finish_.data();
  double* __restrict slots = cur_slot_.data();
  double* __restrict links = cur_link_.data();
  const DeviceId* __restrict dev = mapping_.device.data();
  const std::size_t m = m_;
  for (std::size_t p = p0; p < n_; ++p) {
    if constexpr (kRecord) {
      if (p % kStride == 0) {
        double* ck = checkpoints_.data() + (p / kStride) * (s_total_ + m);
        std::copy(slots, slots + s_total_, ck);
        std::copy(links, links + m, ck + s_total_);
      }
    }
    const Evaluator::PlanNode pn = plan[p];
    const std::uint32_t u = pn.node;
    const std::uint32_t d = dev[u].v;
    const bool dev_fpga = is_fpga[d] != 0;
    double ready = 0.0;
    bool streamed_in = false;
    for (std::uint32_t k = pn.in_begin; k < pn.in_end; ++k) {
      const std::uint32_t s = in_src[k];
      const std::uint32_t sp = in_src_pos[k];
      const std::uint32_t ds = dev[s].v;
      if (ds == d) {
        if (dev_fpga) {
          ready = std::max(ready, wstart[sp] + fill[d] * exec[s * m + d]);
          streamed_in = true;
        } else {
          ready = std::max(ready, wfinish[sp]);
        }
        if constexpr (kRecord) {
          edge_xfer_[k] = 0;
          edge_arrival_[k] = 0.0;
        }
      } else {
        const std::size_t li = ds * m + d;
        const double transfer = lat[li] + in_mb[k] / bw[li];
        const double t_start = std::max({wfinish[sp], links[ds], links[d]});
        const double arrival = t_start + transfer;
        links[ds] = arrival;
        links[d] = arrival;
        ready = std::max(ready, arrival);
        if constexpr (kRecord) {
          edge_xfer_[k] = 1;
          edge_arrival_[k] = arrival;
          add_link_use(p, ds);
          add_link_use(p, d);
        }
      }
    }
    const double exec_v = exec[pn.exec_offset + d];
    double start_v;
    if (streamed_in) {
      start_v = ready;
    } else {
      const std::size_t b = slot_off[d];
      const std::size_t e = slot_off[d + 1];
      start_v = std::max(ready, slots[b]);
      const double fin = start_v + exec_v;
      // Inline pop-min-insert (drop the span minimum, insert `fin` sorted —
      // identical result to pop_min_insert): spans are a handful of slots,
      // so a sequential shift beats the memmove dispatch.
      std::size_t i = b;
      for (; i + 1 < e && slots[i + 1] < fin; ++i) slots[i] = slots[i + 1];
      slots[i] = fin;
      if constexpr (kRecord) add_slot_use(p, d);
    }
    const double finish_v = start_v + exec_v;
    wstart[p] = start_v;
    wfinish[p] = finish_v;
    run_max = std::max(run_max, finish_v);
    if constexpr (kRecord) {
      streamed_[p] = streamed_in ? 1 : 0;
      start_[u] = start_v;
      finish_[u] = finish_v;
      prefix_max_[p] = run_max;
    }
  }
  return run_max;
}

bool IncrementalEvaluator::choose_fallback() {
  switch (probe_mode_) {
    case ProbeMode::kForceIncremental: return false;
    case ProbeMode::kForceFallback: return true;
    case ProbeMode::kAuto: break;
  }
  // The sweep costs one unit per suffix position, so it wins exactly when
  // the incremental path's recent units exceed their suffix lengths.
  if (inc_units_sum_ <= inc_suffix_sum_) return false;
  // Periodic incremental resample so the estimate follows the mapping.
  if (++probes_since_resample_ < kResampleEvery) return true;
  probes_since_resample_ = 0;
  return false;
}

double IncrementalEvaluator::probe(TaskReassignment move) {
  SPMAP_ASSERT(move.node.v < n_);
  SPMAP_ASSERT(move.device.v < m_);
  ++probe_count_;
  last_replayed_ = 0;
  last_recomputed_ = 0;
  last_probe_fallback_ = false;
  const std::uint32_t old_dev = mapping_.device[move.node.v].v;
  if (move.device.v == old_dev) return makespan();

  // Area verdict, trace-free: replicate move_area/update_area on locals.
  int over = over_budget_count_;
  mapping_.device[move.node.v] = move.device;
  if (is_fpga_[old_dev] || is_fpga_[move.device.v]) {
    const double area = eval_->cost().area(move.node);
    for (const auto& [dev, delta] :
         {std::pair<std::uint32_t, double>{old_dev, -area},
          std::pair<std::uint32_t, double>{move.device.v, area}}) {
      if (!is_fpga_[dev]) continue;
      const double budget = budget_[dev];
      const bool was_over = area_used_[dev] > budget;
      double used = area_used_[dev] + delta;
      if (std::abs(used - budget) <= area_eps_) {
        used = eval_->cost().mapped_area(mapping_, DeviceId(dev));
      }
      if (was_over != (used > budget)) over += used > budget ? 1 : -1;
    }
  }

  const std::size_t p0 = pos_[move.node.v];
  if (++probe_epoch_ == 0) {
    // Tag wrap-around: invalidate all overlay entries, restart at 1.
    std::fill(probe_tag_.begin(), probe_tag_.end(), 0u);
    probe_epoch_ = 1;
  }
  double run_max = p0 == 0 ? 0.0 : prefix_max_[p0 - 1];

  if (choose_fallback()) {
    // Suffix-sweep path: resume from the nearest committed checkpoint and
    // re-simulate the suffix with the plain sweep — no skip machinery, no
    // base state, no use counters. ~(n - p0) sweep positions total.
    last_probe_fallback_ = true;
    ++fb_probes_;
    reconstruct_cur_state(p0);
    run_max = sweep_suffix<false>(p0, run_max);
    const std::size_t suffix = n_ - p0;
    fb_swept_total_ += suffix;
    last_replayed_ = suffix;
    last_recomputed_ = suffix;
    mapping_.device[move.node.v] = DeviceId(old_dev);
    return over == 0 ? run_max : kInfeasible;
  }

  ++inc_probes_;
  moved_ = move.node.v;
  moved_old_dev_ = old_dev;
  reconstruct_state(p0);
  limit_ = last_consumer_pos_[moved_];

  const Evaluator::WalkPlan& plan = *plan_;
  std::size_t swept = 0;  // positions finished by the dense-cascade sweep
  std::size_t p = p0;
  for (; p < n_; ++p) {
    if (can_stop(p)) break;
    // Dense cascade: nearly everything visited so far was recomputed, so
    // skip detection is pure overhead — finish with the plain sweep. The
    // 256-position horizon sits past where healing probes typically
    // converge; on small graphs (where a cascade reaches the end anyway)
    // the switch comes earlier.
    if ((last_replayed_ >= 256 || (n_ <= 512 && last_replayed_ >= 64)) &&
        last_recomputed_ + (last_replayed_ >> 3) >= last_replayed_) {
      swept = n_ - p;
      run_max = plain_suffix_sweep(p, run_max);
      p = n_;
      break;
    }
    ++last_replayed_;
    probe_step(p);
    run_max = std::max(run_max, eff_finish(plan[p].node));
  }
  // Read-only fold: past the stop point every time is committed, so once
  // the probed running max rejoins the committed prefix-max curve, the
  // committed tail maximum (prefix_max_[n-1]) finishes the job.
  for (; p < n_; ++p) {
    const double folded = std::max(run_max, finish_[plan[p].node]);
    if (folded == prefix_max_[p]) {
      run_max = prefix_max_[n_ - 1];
      break;
    }
    run_max = folded;
  }

  inc_replayed_total_ += last_replayed_;
  // Price the probe for the auto-mode rule (in every mode: the sums are
  // cheap and only kAuto reads them); halve both every kCostDecayEvery.
  inc_units_sum_ += kReplayCostUnits * (last_replayed_ - swept) + swept;
  inc_suffix_sum_ += n_ - p0;
  if (++inc_notes_since_decay_ >= kCostDecayEvery) {
    inc_notes_since_decay_ = 0;
    inc_units_sum_ >>= 1;
    inc_suffix_sum_ >>= 1;
  }

  // Roll back the scratch marks; the committed state was never touched.
  for (const std::uint32_t v : dirty_list_) timing_dirty_[v] = 0;
  dirty_list_.clear();
  for (const std::uint32_t dev : diff_list_) {
    slot_differs_[dev] = 0;
    link_differs_[dev] = 0;
    diff_listed_[dev] = 0;
  }
  diff_list_.clear();
  diff_device_count_ = 0;
  moved_ = kNoDevice;
  mapping_.device[move.node.v] = DeviceId(old_dev);

  return over == 0 ? run_max : kInfeasible;
}

void IncrementalEvaluator::undo() {
  require(!frames_.empty(), "IncrementalEvaluator::undo: empty undo stack");
  const UndoFrame& frame = frames_.back();
  if (!frame.noop) {
    for (std::uint32_t i = frame.area_count; i-- > 0;) {
      area_used_[frame.areas[i].first] = frame.areas[i].second;
    }
    over_budget_count_ = frame.old_over_budget;
    mapping_.device[frame.node] = DeviceId(frame.old_device);
    record_suffix(pos_[frame.node]);
  }
  frames_.pop_back();
}

void IncrementalEvaluator::commit() { frames_.clear(); }

}  // namespace spmap
