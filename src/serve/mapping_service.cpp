#include "serve/mapping_service.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "mappers/registry.hpp"
#include "model/cost_model.hpp"
#include "sched/evaluator.hpp"
#include "sched/problem_hash.hpp"
#include "serve/result_cache.hpp"
#include "util/error.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"

namespace spmap {

ReportingContext::ReportingContext(std::shared_ptr<const TaskGraph> graph,
                                   std::shared_ptr<const Platform> platform,
                                   std::size_t reporting_orders)
    : graph_(std::move(graph)),
      platform_(std::move(platform)),
      reporting_orders_(reporting_orders) {}

ReportingContext::Built::Built(const TaskGraph& graph,
                               const Platform& platform,
                               std::size_t reporting_orders)
    : cost(graph.dag, graph.attrs, platform),
      evaluator(cost, {.random_orders = reporting_orders}),
      baseline(evaluator.default_mapping_makespan()) {}

const ReportingContext::Built& ReportingContext::built() const {
  std::call_once(built_once_, [this] {
    built_.emplace(*graph_, *platform_, reporting_orders_);
  });
  return *built_;
}

double ReportingContext::evaluate(const Mapping& mapping) const {
  // Thread-safe path: a per-call context instead of the evaluator's
  // shared internal scratch (jobs of one context run concurrently).
  EvalContext ctx;
  return built().evaluator.evaluate(mapping, ctx);
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Everything submit precomputed about a cacheable job: the memo key,
/// the warm-index key, and the structural translation data needed to
/// store/read canonical-order warm mappings. Hashing happens outside
/// every service lock (it is O(V log V + E log E) per submit).
struct MappingService::CachePlan {
  Digest exact_key;    ///< full computation identity (memo key)
  Digest warm_key;     ///< problem identity (warm-index key)
  Digest exact_graph;  ///< labeled graph hash (ambiguity fallback)
  std::vector<std::uint32_t> canonical_rank;
  bool ambiguous = false;
  /// A warm seed was injected into this job's request: its result must
  /// not enter the exact memo (the seed is not part of the key).
  bool warm_injected = false;
};

/// Shared between the service, its workers and every handle copy. The
/// per-job mutex/cv keeps handle operations independent of the service's
/// queue lock (a wait() never blocks submissions).
struct MappingService::JobState {
  // Immutable after submit (id/job/request/rng/plan set once, then only
  // read): no guard needed. `request.cancel` is internally atomic.
  std::uint64_t id = 0;
  MapJob job;
  MapRequest request;
  Rng construction_rng{0};
  std::optional<CachePlan> cache_plan;
  CacheOutcome cache_outcome = CacheOutcome::kNone;

  mutable Mutex mutex;
  CondVar terminal;
  JobStatus status SPMAP_GUARDED_BY(mutex) = JobStatus::kQueued;
  MapJobResult result SPMAP_GUARDED_BY(mutex);
  /// Guards the exactly-once `MapJob::on_terminal` invocation (the worker
  /// path and the queued-cancel path race for it).
  bool terminal_notified SPMAP_GUARDED_BY(mutex) = false;

  bool is_terminal_locked() const SPMAP_REQUIRES(mutex) {
    return status == JobStatus::kDone || status == JobStatus::kFailed ||
           status == JobStatus::kCancelled;
  }

  /// Claims the one on_terminal invocation.
  bool claim_terminal_notification_locked() SPMAP_REQUIRES(mutex) {
    if (terminal_notified) return false;
    terminal_notified = true;
    return job.on_terminal != nullptr;
  }

  /// The result of a job that already turned terminal. Terminal status is
  /// a one-way latch and no writer touches `result` past it (the
  /// invariant every terminal-notification caller relies on), so handing
  /// out the reference for lock-free reads is sound.
  const MapJobResult& terminal_result_locked() const SPMAP_REQUIRES(mutex) {
    return result;
  }
};

MappingService::MappingService(Options options) : options_(options) {
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  workers_.reserve(workers);
  // Touch the registry before spawning so its one-time init never races.
  MapperRegistry::instance();
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

MappingService::~MappingService() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) t.join();
}

MappingService::JobHandle MappingService::submit(MapJob job,
                                                 MapRequest request) {
  return *admit(std::move(job), std::move(request), /*may_block=*/true);
}

std::optional<MappingService::JobHandle> MappingService::try_submit(
    MapJob job, MapRequest request) {
  return admit(std::move(job), std::move(request), /*may_block=*/false);
}

std::optional<MappingService::JobHandle> MappingService::admit(
    MapJob job, MapRequest request, bool may_block) {
  require(!job.mapper_spec.empty(), "MappingService: empty mapper spec");
  require(job.graph != nullptr, "MappingService: job without a graph");
  require(job.platform != nullptr, "MappingService: job without a platform");

  // ---- cache consult (outside every service lock: hashing is O(V+E)) ----
  ResultCache* cache = options_.cache.get();
  std::optional<CachePlan> plan;
  CacheOutcome outcome = CacheOutcome::kNone;
  if (cache != nullptr && job.construction_rng.has_value()) {
    // Cacheable only if deterministic: canonical spec resolvable (a bad
    // spec stays uncacheable and fails in execute() with its usual
    // diagnostic) and no wall-clock deadline anywhere — request-level or
    // baked into the spec (nested init= sub-specs included, hence the
    // substring check on the canonical form).
    std::optional<std::string> canonical;
    try {
      canonical = MapperRegistry::instance().canonical_spec(job.mapper_spec);
    } catch (const std::exception&) {
    }
    if (canonical.has_value() && request.deadline_ms <= 0.0 &&
        canonical->find("deadline_ms=") == std::string::npos) {
      plan.emplace();
      const Digest graph_exact = task_graph_hash(*job.graph);
      GraphStructure structure = structural_task_graph_hash(*job.graph);
      const Digest platform = platform_hash(*job.platform);
      const bool has_reporting_pass =
          job.reporting != nullptr || job.reporting_orders.has_value();
      const std::size_t reporting_orders =
          job.reporting != nullptr
              ? job.reporting->random_orders()
              : job.reporting_orders.value_or(0);
      ContentHasher key("spmap-memo-key/1");
      key.digest(graph_exact)
          .digest(structure.digest)
          .digest(platform)
          .str(*canonical)
          .u64(request.max_evaluations)
          .u64(request.max_iterations)
          .boolean(request.seed.has_value())
          .u64(request.seed.value_or(0))
          .u64(job.inner_orders)
          .boolean(has_reporting_pass)
          .u64(reporting_orders)
          .u64(job.construction_rng->fingerprint());
      plan->exact_key = key.digest();
      ContentHasher warm("spmap-warm-key/1");
      warm.digest(structure.digest).digest(platform).u64(job.inner_orders);
      plan->warm_key = warm.digest();
      plan->exact_graph = graph_exact;
      plan->canonical_rank = std::move(structure.canonical_rank);
      plan->ambiguous = structure.ambiguous;
    }
  }

  if (plan.has_value()) {
    if (std::optional<MapJobResult> hit = cache->lookup(plan->exact_key)) {
      // O(1) fast path: terminal before submit returns, no queue slot
      // consumed (hits are admitted even when the queue is full), no
      // worker occupied. Wall-clock fields carry
      // the original run's timings (excluded from determinism anyway).
      auto state = std::make_shared<JobState>();
      state->job = std::move(job);
      hit->report.cache = CacheOutcome::kHit;
      state->result = *std::move(hit);
      state->status = JobStatus::kDone;
      state->cache_outcome = CacheOutcome::kHit;
      {
        MutexLock lock(mutex_);
        state->id = next_id_++;
        ++counters_.submitted;
        ++counters_.done;
        ++counters_.cache_hits;
      }
      bool fire = false;
      const MapJobResult* published = nullptr;
      {
        MutexLock job_lock(state->mutex);
        fire = state->claim_terminal_notification_locked();
        published = &state->terminal_result_locked();
      }
      if (fire) {
        state->job.on_terminal(state->id, JobStatus::kDone, *published);
      }
      return JobHandle(state);
    }
    outcome = CacheOutcome::kMiss;
    if (job.allow_warm_start) {
      if (std::optional<ResultCache::WarmEntry> warm =
              cache->lookup_warm(plan->warm_key)) {
        // Translate the canonical-order incumbent into this graph's
        // labeling. Ambiguous structures (symmetric twins) only match
        // their exact labeling: the id tie-break makes cross-labeling
        // ranks unsound there (see problem_hash.hpp).
        const std::size_t n = plan->canonical_rank.size();
        bool usable = warm->canonical_mapping.size() == n;
        if (usable && (warm->ambiguous || plan->ambiguous)) {
          usable = warm->exact_graph == plan->exact_graph;
        }
        if (usable) {
          auto seed = std::make_shared<Mapping>();
          seed->device.resize(n);
          for (std::size_t v = 0; v < n; ++v) {
            seed->device[v] = warm->canonical_mapping[plan->canonical_rank[v]];
          }
          request.warm_start = std::move(seed);
          plan->warm_injected = true;
          outcome = CacheOutcome::kWarm;
        }
      }
    }
  }

  auto state = std::make_shared<JobState>();
  state->job = std::move(job);
  state->request = std::move(request);
  state->cache_plan = std::move(plan);
  state->cache_outcome = outcome;
  // Per-job cancellation scope: JobHandle::cancel fires only this job's
  // token; the caller's original token (the child's parent) still cancels
  // every job submitted with it.
  state->request.cancel = state->request.cancel.child();
  {
    MutexLock lock(mutex_);
    if (options_.max_queued > 0 && queued_count_ >= options_.max_queued) {
      if (!may_block) {
        ++counters_.rejected;
        return std::nullopt;
      }
      while (queued_count_ >= options_.max_queued) queue_space_.wait(lock);
    }
    state->id = next_id_++;
    // The per-job rng stream depends only on the submission index, never
    // on worker scheduling — the determinism contract of the header.
    if (state->job.construction_rng.has_value()) {
      state->construction_rng = *state->job.construction_rng;
    } else {
      std::uint64_t stream = options_.seed + 0x9e3779b97f4a7c15ULL * (state->id + 1);
      state->construction_rng = Rng(splitmix64(stream));
    }
    ++unfinished_;
    ++counters_.submitted;
    if (outcome != CacheOutcome::kNone) ++counters_.cache_misses;
    if (outcome == CacheOutcome::kWarm) ++counters_.cache_warm;
    ++queued_count_;
    queues_[state->job.priority].push_back(state);
  }
  work_ready_.notify_one();
  return JobHandle(state);
}

void MappingService::wait_all() {
  MutexLock lock(mutex_);
  while (unfinished_ != 0) job_done_.wait(lock);
}

ServiceStats MappingService::stats() const {
  MutexLock lock(mutex_);
  ServiceStats snapshot;
  snapshot.submitted = counters_.submitted.load(std::memory_order_relaxed);
  snapshot.rejected = counters_.rejected.load(std::memory_order_relaxed);
  snapshot.queued = queued_count_;
  snapshot.running = counters_.running.load(std::memory_order_relaxed);
  snapshot.done = counters_.done.load(std::memory_order_relaxed);
  snapshot.failed = counters_.failed.load(std::memory_order_relaxed);
  snapshot.cancelled = counters_.cancelled.load(std::memory_order_relaxed);
  snapshot.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  snapshot.cache_misses =
      counters_.cache_misses.load(std::memory_order_relaxed);
  snapshot.cache_warm = counters_.cache_warm.load(std::memory_order_relaxed);
  return snapshot;
}

void MappingService::worker_loop() {
  for (;;) {
    std::shared_ptr<JobState> state;
    bool run = false;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queued_count_ == 0) work_ready_.wait(lock);
      if (queued_count_ == 0) return;  // stopping and drained
      // Highest waiting priority first (queues_ is ordered descending),
      // FIFO within one priority.
      auto it = queues_.begin();
      state = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) queues_.erase(it);
      // The queued -> running (or queued -> cancelled, for a job the
      // cancel path already made terminal) transition is accounted inside
      // this one critical section, together with the queue pop: a stats()
      // snapshot must never see a job in neither column. The nested
      // status lock is safe — no path acquires mutex_ while holding a job
      // mutex.
      {
        MutexLock job_lock(state->mutex);
        if (state->status == JobStatus::kQueued) {
          state->status = JobStatus::kRunning;
          run = true;
        }
      }
      --queued_count_;
      if (run) {
        ++counters_.running;
      } else {
        // Cancelled while waiting: the cancel path already fired
        // on_terminal; just account for it.
        ++counters_.cancelled;
      }
    }
    queue_space_.notify_one();

    if (run) {
      const JobStatus final_status = execute(*state);
      MutexLock lock(mutex_);
      --counters_.running;
      if (final_status == JobStatus::kFailed) {
        ++counters_.failed;
      } else {
        ++counters_.done;
      }
    }

    bool drained = false;
    {
      MutexLock lock(mutex_);
      drained = --unfinished_ == 0;
    }
    if (drained) job_done_.notify_all();
    state->terminal.notify_all();
  }
}

JobStatus MappingService::execute(JobState& state) {
  MapJobResult result;
  JobStatus final_status = JobStatus::kDone;
  try {
    const MapJob& job = state.job;
    // Reuse the shared context's cost model when present; the tables are
    // identical, so only jobs without one pay the construction.
    std::optional<CostModel> owned_cost;
    if (job.reporting == nullptr) {
      owned_cost.emplace(job.graph->dag, job.graph->attrs, *job.platform);
    }
    const CostModel& cost =
        job.reporting != nullptr ? job.reporting->cost() : *owned_cost;
    const Evaluator inner(cost, {.random_orders = job.inner_orders});

    WallTimer timer;
    Rng rng = state.construction_rng;
    auto mapper =
        MapperRegistry::instance().create(job.mapper_spec, job.graph->dag, rng);
    // Bounds baked into the spec (deadline_ms= etc.) tighten the
    // submit-time request instead of being shadowed by it.
    result.report = mapper->map(
        inner, merge_run_bounds(mapper->default_request(), state.request));
    result.wall_seconds = timer.seconds();

    if (job.reporting != nullptr) {
      result.baseline_makespan = job.reporting->baseline();
      result.reported_makespan = job.reporting->evaluate(result.report.mapping);
    } else if (job.reporting_orders.has_value()) {
      const Evaluator reporting(cost,
                                {.random_orders = *job.reporting_orders});
      result.baseline_makespan = reporting.default_mapping_makespan();
      result.reported_makespan = reporting.evaluate(result.report.mapping);
    } else {
      result.reported_makespan = result.report.predicted_makespan;
    }
    result.report.cache = state.cache_outcome;
  } catch (const std::exception& ex) {
    result.error = ex.what();
    final_status = JobStatus::kFailed;
  }

  // Feed the cache (outside every lock; shards synchronize internally).
  // Only deterministic completions enter: kConverged/kBudgetExhausted are
  // pure functions of the key, while deadline- or cancel-truncated runs
  // depend on wall-clock racing and must never be replayed as answers.
  if (state.cache_plan.has_value() && final_status == JobStatus::kDone &&
      (result.report.termination == TerminationReason::kConverged ||
       result.report.termination == TerminationReason::kBudgetExhausted)) {
    ResultCache& cache = *options_.cache;
    const CachePlan& plan = *state.cache_plan;
    // Warm-started runs stay out of the exact memo: the injected seed
    // changed the computation but is not part of the key.
    if (!plan.warm_injected) cache.insert(plan.exact_key, result);
    if (result.report.mapping.size() == plan.canonical_rank.size()) {
      ResultCache::WarmEntry warm;
      warm.exact_graph = plan.exact_graph;
      warm.ambiguous = plan.ambiguous;
      warm.predicted_makespan = result.report.predicted_makespan;
      warm.canonical_mapping.resize(plan.canonical_rank.size());
      for (std::size_t v = 0; v < plan.canonical_rank.size(); ++v) {
        warm.canonical_mapping[plan.canonical_rank[v]] =
            result.report.mapping.device[v];
      }
      cache.offer_warm(plan.warm_key, std::move(warm));
    }
  }

  bool fire = false;
  const MapJobResult* published = nullptr;
  {
    MutexLock lock(state.mutex);
    state.result = std::move(result);
    state.status = final_status;
    fire = state.claim_terminal_notification_locked();
    published = &state.terminal_result_locked();
  }
  // Outside the job lock: the callback may touch the handle or service.
  // No writer mutates result/status after a job turns terminal (the
  // terminal_result_locked contract).
  if (fire) state.job.on_terminal(state.id, final_status, *published);
  return final_status;
}

// ---- JobHandle ----

std::uint64_t MappingService::JobHandle::id() const {
  return state_ == nullptr ? 0 : state_->id;
}

JobStatus MappingService::JobHandle::status() const {
  if (state_ == nullptr) return JobStatus::kFailed;
  MutexLock lock(state_->mutex);
  return state_->status;
}

bool MappingService::JobHandle::done() const {
  if (state_ == nullptr) return true;
  MutexLock lock(state_->mutex);
  return state_->is_terminal_locked();
}

void MappingService::JobHandle::cancel() const {
  if (state_ == nullptr) return;
  bool became_terminal = false;
  bool fire = false;
  const MapJobResult* published = nullptr;
  {
    MutexLock lock(state_->mutex);
    if (state_->status == JobStatus::kQueued) {
      // The worker that eventually pops this state sees a non-queued
      // status and skips execution.
      state_->status = JobStatus::kCancelled;
      state_->result.error = "cancelled before execution";
      became_terminal = true;
      fire = state_->claim_terminal_notification_locked();
      published = &state_->terminal_result_locked();
    }
  }
  // Outside the job lock: the running mapper polls this token.
  state_->request.cancel.request_cancel();
  if (became_terminal) state_->terminal.notify_all();
  if (fire) {
    state_->job.on_terminal(state_->id, JobStatus::kCancelled, *published);
  }
}

const MapJobResult& MappingService::JobHandle::wait() const& {
  require(state_ != nullptr, "JobHandle::wait on an empty handle");
  MutexLock lock(state_->mutex);
  while (!state_->is_terminal_locked()) state_->terminal.wait(lock);
  return state_->terminal_result_locked();
}

bool MappingService::JobHandle::wait_for(double timeout_ms) const {
  if (state_ == nullptr) return true;
  const auto deadline = deadline_after_ms(timeout_ms);
  MutexLock lock(state_->mutex);
  while (!state_->is_terminal_locked()) {
    if (state_->terminal.wait_until(lock, deadline) ==
        std::cv_status::timeout) {
      return state_->is_terminal_locked();
    }
  }
  return true;
}

}  // namespace spmap
