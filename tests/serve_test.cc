// Serving-layer tests: shared-cache scoping and LRU bounds, session
// lifecycle, admission control, per-tenant QoS degradation, checkpoint/
// evict/resume through the manager, and the multiplexing determinism
// contract — N interleaved sessions byte-match N sequential runs of the
// same specs, at 1 and at 8 worker lanes.

#include "serve/manager.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fileio.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "core/telemetry.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/normalize.h"
#include "serve/cache.h"
#include "serve/manifest.h"

namespace bayescrowd {
namespace {

using serve::AdvanceOutcome;
using serve::SessionInfo;
using serve::SessionManager;
using serve::SessionSpec;
using serve::SharedQueryCache;
using serve::TenantQos;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A spec whose query actually crowdsources: NBA-like data at this
/// shape leaves ~15 objects undecided after modeling, so a session
/// runs several rounds before its budget ends.
SessionSpec MakeSpec(const std::string& id, const std::string& tenant,
                     std::uint64_t data_seed, std::size_t budget = 24) {
  SessionSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.ground_truth = MakeNbaLike(120, data_seed);
  Rng rng(5);
  spec.incomplete = InjectMissingUniform(spec.ground_truth, 0.15, rng);
  spec.cache_key = StrFormat("nba-%llu",
                             static_cast<unsigned long long>(data_seed));
  spec.options.ctable.alpha = 0.01;
  spec.options.budget = budget;
  spec.options.latency = 4;
  spec.options.strategy.m = 5;
  return spec;
}

std::string Normalized(const BayesCrowdOptions& options,
                       const BayesCrowdResult& result) {
  obs::NormalizeOptions normalize;
  normalize.strip_lane_usage = true;
  normalize.strip_resume_markers = true;
  return obs::NormalizeTelemetry(
             RunTelemetryJson("serve", options, result), normalize)
      .Dump(2);
}

// ------------------------------------------------------------------ //
// SharedQueryCache
// ------------------------------------------------------------------ //

TEST(SharedQueryCacheTest, LruEvictsPastEntryAndByteBudgets) {
  SharedQueryCache cache({.max_bytes = 100, .max_entries = 2});
  cache.Put(1, std::string(40, 'a'));
  cache.Put(2, std::string(40, 'b'));
  std::string blob;
  ASSERT_TRUE(cache.Get(1, &blob));  // 1 is now MRU, 2 is LRU.
  cache.Put(3, std::string(40, 'c'));
  EXPECT_FALSE(cache.Get(2, &blob));  // Evicted by the entry cap.
  EXPECT_TRUE(cache.Get(1, &blob));
  EXPECT_TRUE(cache.Get(3, &blob));
  const SharedQueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // A blob above the byte budget is refused outright...
  cache.Put(4, std::string(200, 'd'));
  EXPECT_FALSE(cache.Get(4, &blob));
  EXPECT_EQ(cache.stats().rejected, 1u);

  // ...and one that fits evicts the LRU tail down to the byte budget.
  cache.Put(5, std::string(90, 'e'));
  EXPECT_TRUE(cache.Get(5, &blob));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_LE(cache.stats().bytes, 100u);
}

TEST(SharedQueryCacheTest, ScopeKeysSeparateTenantsAndDatasets) {
  const std::uint64_t a1 = SessionManager::CacheScope("acme", "ds1");
  EXPECT_NE(a1, 0u);
  EXPECT_EQ(a1, SessionManager::CacheScope("acme", "ds1"));
  EXPECT_NE(a1, SessionManager::CacheScope("bravo", "ds1"));
  EXPECT_NE(a1, SessionManager::CacheScope("acme", "ds2"));
  // Chained, not XORed: swapping tenant and key must not collide.
  EXPECT_NE(SessionManager::CacheScope("acme", "bravo"),
            SessionManager::CacheScope("bravo", "acme"));
}

// ------------------------------------------------------------------ //
// Lifecycle
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, LifecycleCreateAdvanceFinishEvict) {
  SessionManager manager({.threads = 2});
  ASSERT_TRUE(manager.Create(MakeSpec("s1", "acme", 9)).ok());
  EXPECT_EQ(manager.resident(), 1u);

  Result<SessionInfo> info = manager.Info("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->rounds, 0u);
  EXPECT_FALSE(info->done);

  Result<AdvanceOutcome> one = manager.Advance("s1", 1);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->rounds_run, 1u);

  Result<AdvanceOutcome> rest = manager.Advance("s1", 1000);
  ASSERT_TRUE(rest.ok());
  EXPECT_TRUE(rest->done);

  Result<BayesCrowdResult> result = manager.Finish("s1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->result_objects.empty());
  EXPECT_GT(result->rounds, 0u);

  // Finished sessions stay resident for inspection but cannot step.
  EXPECT_TRUE(manager.Advance("s1", 1).status().IsFailedPrecondition());
  EXPECT_TRUE(manager.Finish("s1").status().IsFailedPrecondition());
  info = manager.Info("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->finished);

  ASSERT_TRUE(manager.Evict("s1").ok());
  EXPECT_EQ(manager.resident(), 0u);
  EXPECT_TRUE(manager.Info("s1").status().IsNotFound());
  EXPECT_TRUE(manager.Advance("s1", 1).status().IsNotFound());
}

TEST(SessionManagerTest, AdmissionRejectsAtCapsWithLabeledTelemetry) {
  SessionManager::Options options;
  options.threads = 1;
  options.max_resident_sessions = 2;
  options.max_sessions_per_tenant = 1;
  SessionManager manager(options);

  ASSERT_TRUE(manager.Create(MakeSpec("a1", "acme", 9)).ok());
  // Same tenant again: per-tenant cap.
  EXPECT_EQ(manager.Create(MakeSpec("a2", "acme", 9)).code(),
            StatusCode::kResourceExhausted);
  // Another tenant fits...
  ASSERT_TRUE(manager.Create(MakeSpec("b1", "bravo", 9)).ok());
  // ...but the global cap now rejects a third tenant outright.
  EXPECT_EQ(manager.Create(MakeSpec("c1", "carol", 9)).code(),
            StatusCode::kResourceExhausted);
  // Duplicate ids are AlreadyExists, not a capacity signal.
  EXPECT_EQ(manager.Create(MakeSpec("a1", "delta", 9)).code(),
            StatusCode::kAlreadyExists);

  const obs::MetricsSnapshot snapshot = manager.MetricsSnapshot();
  const auto counter = [&](const std::string& key) -> std::uint64_t {
    const auto it = snapshot.counters.find(key);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("serve.admission.rejected{tenant=\"acme\"}"), 1u);
  EXPECT_EQ(counter("serve.admission.rejected{tenant=\"carol\"}"), 1u);
  EXPECT_EQ(counter("serve.admission.admitted{tenant=\"acme\"}"), 1u);
  EXPECT_EQ(counter("serve.admission.admitted{tenant=\"bravo\"}"), 1u);

  // Rejections are in the flight ring too (value 0 = rejected).
  std::size_t rejections = 0;
  for (const obs::FlightEvent& event : manager.flight()->Events()) {
    if (event.kind == obs::FlightEventKind::kAdmission &&
        event.value == 0.0) {
      ++rejections;
      EXPECT_NE(event.detail.find("tenant="), std::string::npos);
    }
  }
  EXPECT_EQ(rejections, 2u);

  // Eviction frees tenant capacity.
  ASSERT_TRUE(manager.Evict("a1").ok());
  EXPECT_TRUE(manager.Create(MakeSpec("a2", "acme", 9)).ok());
}

// ------------------------------------------------------------------ //
// Multiplexing determinism
// ------------------------------------------------------------------ //

std::vector<SessionSpec> HarnessSpecs() {
  std::vector<SessionSpec> specs;
  specs.push_back(MakeSpec("q0", "t0", 9));
  specs.push_back(MakeSpec("q1", "t1", 10));
  specs.push_back(MakeSpec("q2", "t2", 11));
  return specs;
}

/// Runs the three harness specs to completion and returns their
/// normalized telemetry by id. Sequential mode runs each session to
/// completion before creating the next; interleaved mode creates all
/// three and fair-schedules one round at a time.
std::map<std::string, std::string> RunHarness(std::size_t threads,
                                              bool interleaved) {
  SessionManager manager({.threads = threads});
  std::map<std::string, std::string> out;
  if (interleaved) {
    for (SessionSpec& spec : HarnessSpecs()) {
      EXPECT_TRUE(manager.Create(std::move(spec)).ok());
    }
    while (true) {
      Result<std::size_t> active = manager.AdvanceAll(1);
      EXPECT_TRUE(active.ok()) << active.status().ToString();
      if (!active.ok() || active.value() == 0) break;
    }
    for (SessionSpec& spec : HarnessSpecs()) {
      Result<BayesCrowdResult> result = manager.Finish(spec.id);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      out[spec.id] = Normalized(spec.options, result.value());
    }
  } else {
    for (SessionSpec& spec : HarnessSpecs()) {
      const BayesCrowdOptions options = spec.options;
      const std::string id = spec.id;
      EXPECT_TRUE(manager.Create(std::move(spec)).ok());
      Result<AdvanceOutcome> advanced = manager.Advance(id, 100000);
      EXPECT_TRUE(advanced.ok());
      Result<BayesCrowdResult> result = manager.Finish(id);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      out[id] = Normalized(options, result.value());
    }
  }
  return out;
}

TEST(SessionManagerTest, InterleavedMatchesSequentialAt1And8Threads) {
  const auto sequential_1 = RunHarness(1, /*interleaved=*/false);
  const auto interleaved_1 = RunHarness(1, /*interleaved=*/true);
  const auto sequential_8 = RunHarness(8, /*interleaved=*/false);
  const auto interleaved_8 = RunHarness(8, /*interleaved=*/true);

  ASSERT_EQ(sequential_1.size(), 3u);
  // Interleaving and the lane count must both be invisible: the same
  // normalized telemetry bytes per session, full metrics included
  // (batch shapes and cost units too — no stage sizes work to the pool).
  EXPECT_EQ(sequential_1, interleaved_1);
  EXPECT_EQ(sequential_1, sequential_8);
  EXPECT_EQ(sequential_1, interleaved_8);
}

TEST(SessionManagerTest, ConcurrentClientsMatchSequentialBaseline) {
  const auto baseline = RunHarness(2, /*interleaved=*/false);

  // Three client threads drive three sessions against one manager at
  // once (the TSan target: every verb from any thread).
  SessionManager manager({.threads = 2});
  for (SessionSpec& spec : HarnessSpecs()) {
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }
  std::map<std::string, std::string> results;
  std::mutex results_mu;
  std::vector<std::thread> clients;
  for (SessionSpec& spec : HarnessSpecs()) {
    clients.emplace_back([&manager, &results, &results_mu, spec]() {
      while (true) {
        Result<AdvanceOutcome> advanced = manager.Advance(spec.id, 1);
        if (!advanced.ok() || advanced->done) break;
      }
      Result<BayesCrowdResult> result = manager.Finish(spec.id);
      if (!result.ok()) return;
      const std::string normalized =
          Normalized(spec.options, result.value());
      std::lock_guard<std::mutex> lock(results_mu);
      results[spec.id] = normalized;
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(results, baseline);
}

// ------------------------------------------------------------------ //
// Shared cache warm starts
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, WarmStartHitsOwnScopeOnlyAndKeepsAnswers) {
  SessionManager manager({.threads = 2});
  // A budget that stops with undecided objects: the donated memo then
  // holds their final-inference conditions. (Counterfactuals never enter
  // the memo, so a run that decides everything donates nothing.)
  constexpr std::size_t kBudget = 8;

  // Cold run; Finish donates its memo state for scope (acme, nba-9).
  {
    SessionSpec spec = MakeSpec("cold", "acme", 9, kBudget);
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
    ASSERT_TRUE(manager.Advance("cold", 100000).ok());
    ASSERT_TRUE(manager.Finish("cold").ok());
  }
  EXPECT_EQ(manager.cache_stats().donations, 1u);
  const auto cold = manager.Finish("cold");  // Already finished.
  EXPECT_TRUE(cold.status().IsFailedPrecondition());
  ASSERT_TRUE(manager.Evict("cold").ok());

  // Re-run the identical query cold to capture the reference answers.
  std::vector<std::size_t> reference_objects;
  std::vector<double> reference_probabilities;
  {
    SessionSpec spec = MakeSpec("ref", "acme", 9, kBudget);
    spec.warm_start = false;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
    ASSERT_TRUE(manager.Advance("ref", 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish("ref");
    ASSERT_TRUE(result.ok());
    reference_objects = result->result_objects;
    reference_probabilities = result->probabilities;
    ASSERT_TRUE(manager.Evict("ref").ok());
  }

  // Same tenant + dataset warm-starts from the donated blob, and the
  // answers are unchanged — imported entries are just early hits.
  {
    SessionSpec spec = MakeSpec("warm", "acme", 9, kBudget);
    spec.warm_start = true;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
    ASSERT_TRUE(manager.Advance("warm", 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish("warm");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result_objects, reference_objects);
    EXPECT_EQ(result->probabilities, reference_probabilities);
    ASSERT_TRUE(manager.Evict("warm").ok());
  }

  // A different tenant over the same dataset must MISS: the scope key
  // partitions the shared cache per tenant.
  {
    SessionSpec spec = MakeSpec("other", "bravo", 9, kBudget);
    spec.warm_start = true;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }

  const obs::MetricsSnapshot snapshot = manager.MetricsSnapshot();
  const auto counter = [&](const std::string& key) -> std::uint64_t {
    const auto it = snapshot.counters.find(key);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter("serve.cache.warm_start.hit{tenant=\"acme\"}"), 1u);
  EXPECT_EQ(counter("serve.cache.warm_start.miss{tenant=\"bravo\"}"), 1u);
  EXPECT_GT(counter("serve.cache.imported_entries{tenant=\"acme\"}"), 0u);
}

// ------------------------------------------------------------------ //
// Per-tenant QoS
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, HeavyTenantDegradesDownLadderLightStaysExact) {
  SessionManager::Options options;
  options.threads = 2;
  TenantQos heavy;
  heavy.degrade_after_rounds = 1;
  heavy.degrade_every_rounds = 1;
  GovernorOptions tight;
  tight.max_nodes = 8;
  GovernorOptions tighter;
  tighter.max_nodes = 1;
  heavy.ladder = {tight, tighter};
  options.qos["heavy"] = heavy;
  SessionManager manager(options);

  // A small crowd budget leaves conditions undecided at Finish, so the
  // governed solver actually answers them; compilation is off because
  // circuit replays are exact at any node budget and would (soundly)
  // hide the degradation this test needs to observe.
  const auto spec_for = [](const std::string& id, const std::string& tenant) {
    SessionSpec spec;
    spec.id = id;
    spec.tenant = tenant;
    // Denser missingness than the harness default: conditions mention
    // enough unknown cells that a 1-node ADPLL budget cannot finish
    // them exactly.
    spec.ground_truth = MakeNbaLike(60, 9);
    Rng rng(5);
    spec.incomplete = InjectMissingUniform(spec.ground_truth, 0.2, rng);
    // Disable the certainty band (the governor_test idiom): every
    // uncertain object keeps its full condition alive, so the governed
    // solver faces formulas a 1-node budget cannot finish exactly.
    spec.options.ctable.alpha = -1.0;
    spec.options.budget = 4;
    spec.options.latency = 4;
    spec.options.strategy.m = 5;
    spec.options.probability.compile.mode = CompileMode::kOff;
    return spec;
  };
  ASSERT_TRUE(manager.Create(spec_for("h1", "heavy")).ok());
  ASSERT_TRUE(manager.Create(spec_for("l1", "light")).ok());

  Result<AdvanceOutcome> heavy_run = manager.Advance("h1", 100000);
  ASSERT_TRUE(heavy_run.ok()) << heavy_run.status().ToString();
  EXPECT_GE(heavy_run->qos_level, 1u);
  ASSERT_TRUE(manager.Advance("l1", 100000).ok());

  Result<BayesCrowdResult> heavy_result = manager.Finish("h1");
  ASSERT_TRUE(heavy_result.ok());
  Result<BayesCrowdResult> light_result = manager.Finish("l1");
  ASSERT_TRUE(light_result.ok());

  // The heavy tenant ran (and answered) under a starved solver: its
  // final probabilities carry degraded ProbQuality grades. The light
  // tenant shared the server and still got exact answers.
  EXPECT_FALSE(heavy_result->degraded_objects.empty());
  EXPECT_GT(heavy_result->solver.budget_exhausted, 0u);
  EXPECT_TRUE(light_result->degraded_objects.empty());
  EXPECT_EQ(light_result->solver.budget_exhausted, 0u);

  // The steps are visible in tenant=/session=-labeled serve metrics
  // and the flight ring.
  const obs::MetricsSnapshot snapshot = manager.MetricsSnapshot();
  const auto it = snapshot.counters.find(
      "serve.qos.degrades{session=\"h1\",tenant=\"heavy\"}");
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_GE(it->second, 2u);  // Walked to level 2, one event per step.
  EXPECT_EQ(snapshot.counters.count(
                "serve.qos.degrades{session=\"l1\",tenant=\"light\"}"),
            0u);
  bool saw_qos_event = false;
  for (const obs::FlightEvent& event : manager.flight()->Events()) {
    if (event.kind == obs::FlightEventKind::kQosDegrade) {
      saw_qos_event = true;
      EXPECT_NE(event.detail.find("tenant=heavy"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_qos_event);
}

// ------------------------------------------------------------------ //
// Checkpoint / evict / resume
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, EvictThenResumeContinuesTheSameQuery) {
  const std::string dir = FreshDir("bc_serve_resume");

  // Uninterrupted reference (same spec, no checkpointing).
  std::vector<std::size_t> reference_objects;
  std::vector<double> reference_probabilities;
  std::size_t reference_rounds = 0;
  {
    SessionManager manager({.threads = 2});
    ASSERT_TRUE(manager.Create(MakeSpec("ref", "acme", 9)).ok());
    ASSERT_TRUE(manager.Advance("ref", 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish("ref");
    ASSERT_TRUE(result.ok());
    reference_objects = result->result_objects;
    reference_probabilities = result->probabilities;
    reference_rounds = result->rounds;
  }

  SessionManager manager({.threads = 2});
  {
    SessionSpec spec = MakeSpec("s1", "acme", 9);
    spec.checkpoint_dir = dir;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }
  ASSERT_TRUE(manager.Advance("s1", 2).ok());
  ASSERT_TRUE(manager.Checkpoint("s1").ok());
  // Eviction snapshots unfinished sessions automatically.
  ASSERT_TRUE(manager.Evict("s1").ok());
  ASSERT_FALSE(CheckpointStore({.dir = dir, .session_id = "s1"})
                   .ListGenerations()
                   .empty());

  {
    SessionSpec spec = MakeSpec("s1", "acme", 9);
    spec.checkpoint_dir = dir;
    spec.resume = true;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }
  Result<SessionInfo> info = manager.Info("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->resumed);
  EXPECT_EQ(info->rounds, 2u);

  ASSERT_TRUE(manager.Advance("s1", 100000).ok());
  Result<BayesCrowdResult> result = manager.Finish("s1");
  ASSERT_TRUE(result.ok());
  // The resumed session answers exactly what the uninterrupted one did.
  EXPECT_EQ(result->result_objects, reference_objects);
  EXPECT_EQ(result->probabilities, reference_probabilities);
  EXPECT_EQ(result->rounds, reference_rounds);
}

TEST(SessionManagerTest, MarketplaceSessionResumesWithReputations) {
  // A marketplace-crowd session under a spam storm: the learned worker
  // reputations (and latched quarantines) ride the checkpoint, so an
  // evict + resume must replay to exactly the uninterrupted answer.
  const std::string dir = FreshDir("bc_serve_market_resume");
  auto make_spec = [](const std::string& id) {
    SessionSpec spec;
    spec.id = id;
    spec.tenant = "acme";
    spec.ground_truth = MakeAnticorrelated(60, 4, 6, 5);
    Rng rng(5);
    spec.incomplete = InjectMissingUniform(spec.ground_truth, 0.3, rng);
    spec.cache_key = "market-anti";
    spec.options.ctable.alpha = -1.0;
    spec.options.budget = 300;
    spec.options.latency = 3;
    spec.options.adaptive.enabled = true;
    spec.options.adaptive.base_votes = 3;
    spec.options.adaptive.max_votes = 5;
    spec.use_marketplace = true;
    spec.marketplace.pool_size = 20;
    spec.marketplace.spam_rate = 0.3;
    spec.marketplace.max_votes = 5;
    spec.marketplace.seed = 99;
    return spec;
  };

  std::vector<std::size_t> reference_objects;
  std::size_t reference_rounds = 0;
  {
    SessionManager manager({.threads = 2});
    ASSERT_TRUE(manager.Create(make_spec("ref")).ok());
    ASSERT_TRUE(manager.Advance("ref", 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish("ref");
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->extra_votes, 0u);
    reference_objects = result->result_objects;
    reference_rounds = result->rounds;
  }

  SessionManager manager({.threads = 2});
  {
    SessionSpec spec = make_spec("m1");
    spec.checkpoint_dir = dir;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }
  ASSERT_TRUE(manager.Advance("m1", 3).ok());
  ASSERT_TRUE(manager.Checkpoint("m1").ok());
  ASSERT_TRUE(manager.Evict("m1").ok());

  {
    SessionSpec spec = make_spec("m1");
    spec.checkpoint_dir = dir;
    spec.resume = true;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  }
  ASSERT_TRUE(manager.Advance("m1", 100000).ok());
  Result<BayesCrowdResult> result = manager.Finish("m1");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result_objects, reference_objects);
  EXPECT_EQ(result->rounds, reference_rounds);
}

TEST(SessionManagerTest, ResumeWithoutDirOrSnapshotsFailsCleanly) {
  SessionManager manager({.threads = 1});
  SessionSpec no_dir = MakeSpec("x", "acme", 9);
  no_dir.resume = true;
  EXPECT_TRUE(manager.Create(std::move(no_dir)).IsInvalidArgument());

  SessionSpec empty_dir = MakeSpec("y", "acme", 9);
  empty_dir.checkpoint_dir = FreshDir("bc_serve_resume_empty");
  empty_dir.resume = true;
  EXPECT_TRUE(manager.Create(std::move(empty_dir)).IsNotFound());
  EXPECT_EQ(manager.resident(), 0u);
}

// ------------------------------------------------------------------ //
// Poison-session quarantine
// ------------------------------------------------------------------ //

/// One tenant's session sits on a broken disk (every checkpoint write
/// fails); a co-resident tenant must complete bit-identically to its
/// solo run, and the poisoned session must end up quarantined — not
/// latched into the shared pool as a wedge.
TEST(SessionManagerTest, PoisonedSessionQuarantinesHealthyTenantExact) {
  // Solo reference for the healthy session.
  std::string reference;
  {
    SessionManager manager({.threads = 2});
    SessionSpec spec = MakeSpec("healthy", "bravo", 10);
    const BayesCrowdOptions options = spec.options;
    ASSERT_TRUE(manager.Create(std::move(spec)).ok());
    ASSERT_TRUE(manager.Advance("healthy", 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish("healthy");
    ASSERT_TRUE(result.ok());
    reference = Normalized(options, result.value());
  }

  SessionManager::Options options;
  options.threads = 2;
  options.quarantine_after_failures = 2;
  SessionManager manager(options);

  FaultPlan plan;
  plan.write_fail_rate = 1.0;  // Every checkpoint write fails.
  FaultInjectingFileIo broken_disk(plan);
  {
    SessionSpec poisoned = MakeSpec("poisoned", "acme", 9);
    poisoned.checkpoint_dir = FreshDir("bc_serve_poisoned_ckpt");
    poisoned.options.checkpoint_every = 1;
    poisoned.io = &broken_disk;
    ASSERT_TRUE(manager.Create(std::move(poisoned)).ok());
  }
  BayesCrowdOptions healthy_options;
  {
    SessionSpec healthy = MakeSpec("healthy", "bravo", 10);
    healthy_options = healthy.options;
    ASSERT_TRUE(manager.Create(std::move(healthy)).ok());
  }

  // Each poisoned advance fails its round-boundary checkpoint; at the
  // threshold the session moves to quarantine instead of failing a
  // third time.
  EXPECT_TRUE(manager.Advance("poisoned", 1).status().IsIOError());
  EXPECT_TRUE(manager.Advance("poisoned", 1).status().IsIOError());
  Result<SessionInfo> info = manager.Info("poisoned");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->quarantined);
  EXPECT_TRUE(info->done);
  EXPECT_TRUE(
      manager.Advance("poisoned", 1).status().IsFailedPrecondition());

  // The quarantine record shows up in List alongside live sessions.
  bool listed_quarantined = false;
  for (const SessionInfo& listed : manager.List()) {
    if (listed.id == "poisoned") listed_quarantined = listed.quarantined;
  }
  EXPECT_TRUE(listed_quarantined);
  EXPECT_EQ(manager.resident(), 1u);

  // A sweep keeps working, and the healthy tenant is bit-exact.
  while (true) {
    Result<std::size_t> active = manager.AdvanceAll(1);
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    if (active.value() == 0) break;
  }
  Result<BayesCrowdResult> result = manager.Finish("healthy");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Normalized(healthy_options, result.value()), reference);

  // Quarantine is visible in telemetry: labeled counter + flight event.
  const obs::MetricsSnapshot snapshot = manager.MetricsSnapshot();
  const auto quarantines = snapshot.counters.find(
      "serve.quarantine.sessions{session=\"poisoned\",tenant=\"acme\"}");
  ASSERT_NE(quarantines, snapshot.counters.end());
  EXPECT_EQ(quarantines->second, 1u);
  bool flight_seen = false;
  for (const obs::FlightEvent& event : manager.flight()->Events()) {
    if (event.kind == obs::FlightEventKind::kQuarantine) {
      flight_seen = true;
      EXPECT_NE(event.detail.find("poisoned"), std::string::npos);
    }
  }
  EXPECT_TRUE(flight_seen);

  // Evicting the quarantine record clears it for a fresh re-admission.
  ASSERT_TRUE(manager.Evict("poisoned").ok());
  EXPECT_FALSE(manager.Info("poisoned").ok());
}

// ------------------------------------------------------------------ //
// Overload shedding
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, DebugShedPathIsDeterministicAndLabeled) {
  SessionManager::Options options;
  options.threads = 1;
  options.debug_shed_every = 3;
  options.retry_after_ms = 75;
  SessionManager manager(options);
  ASSERT_TRUE(manager.Create(MakeSpec("s1", "acme", 9)).ok());

  // Stepping requests 3, 6, ... shed through the real overload path.
  EXPECT_TRUE(manager.Advance("s1", 1).ok());
  EXPECT_TRUE(manager.Advance("s1", 1).ok());
  const Status shed = manager.Advance("s1", 1).status();
  EXPECT_TRUE(shed.IsUnavailable()) << shed.ToString();
  EXPECT_NE(shed.message().find("overloaded"), std::string::npos);
  EXPECT_NE(shed.message().find("retry_after_ms=75"), std::string::npos);
  EXPECT_TRUE(manager.Advance("s1", 1).ok());

  const obs::MetricsSnapshot snapshot = manager.MetricsSnapshot();
  const auto sheds =
      snapshot.counters.find("serve.shed.requests{verb=\"advance\"}");
  ASSERT_NE(sheds, snapshot.counters.end());
  EXPECT_EQ(sheds->second, 1u);
  bool overload_seen = false;
  for (const obs::FlightEvent& event : manager.flight()->Events()) {
    if (event.kind == obs::FlightEventKind::kOverload) {
      overload_seen = true;
      EXPECT_EQ(event.value, 75.0);
    }
  }
  EXPECT_TRUE(overload_seen);
}

TEST(SessionManagerTest, ShedRequestsNeverLatchLaterOnesSucceed) {
  SessionManager::Options options;
  options.threads = 1;
  options.debug_shed_every = 2;  // Every other request sheds.
  SessionManager manager(options);
  ASSERT_TRUE(manager.Create(MakeSpec("s1", "acme", 9)).ok());
  std::size_t ok_advances = 0;
  for (int i = 0; i < 20; ++i) {
    Result<AdvanceOutcome> advanced = manager.Advance("s1", 1);
    if (advanced.ok()) {
      ++ok_advances;
      if (advanced->done) break;
    } else {
      EXPECT_TRUE(advanced.status().IsUnavailable());
    }
  }
  EXPECT_GT(ok_advances, 0u);
  // The session is still healthy: finish works (request 21+ may shed;
  // retry once).
  Result<BayesCrowdResult> result = manager.Finish("s1");
  if (!result.ok()) result = manager.Finish("s1");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

// ------------------------------------------------------------------ //
// Request deadlines
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, GenerousDeadlineLeavesTelemetryByteIdentical) {
  const auto run = [](std::int64_t deadline_ms) {
    SessionManager manager({.threads = 2});
    SessionSpec spec = MakeSpec("s1", "acme", 9);
    // The base governor is active in both runs (a huge budget that
    // never trips), so the request deadline is the only delta — merely
    // activating governed evaluation changes instrumentation shape,
    // which is not what this test pins.
    spec.options.probability.governor.max_nodes = 1'000'000'000ull;
    const BayesCrowdOptions options = spec.options;
    EXPECT_TRUE(manager.Create(std::move(spec)).ok());
    EXPECT_TRUE(manager.Advance("s1", 100000, deadline_ms).ok());
    Result<BayesCrowdResult> result = manager.Finish("s1");
    EXPECT_TRUE(result.ok());
    return Normalized(options, result.value());
  };
  // A deadline no round comes near is invisible: bit-identical bytes.
  EXPECT_EQ(run(0), run(1'000'000'000));
}

TEST(SessionManagerTest, TightDeadlineDegradesButCompletesCorrectly) {
  SessionManager manager({.threads = 2});
  SessionSpec spec = MakeSpec("s1", "acme", 9);
  ASSERT_TRUE(manager.Create(std::move(spec)).ok());
  // 1ms per evaluation is brutal; degrade-only semantics mean the
  // request still succeeds — sub-evaluations grade instead of erroring.
  Result<AdvanceOutcome> advanced = manager.Advance("s1", 100000, 1);
  ASSERT_TRUE(advanced.ok()) << advanced.status().ToString();
  EXPECT_TRUE(advanced->done);
  Result<BayesCrowdResult> result = manager.Finish("s1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->result_objects.empty());
}

// ------------------------------------------------------------------ //
// Recover preconditions
// ------------------------------------------------------------------ //

TEST(SessionManagerTest, RecoverPreconditionsAndEmptyStateDir) {
  const SessionManager::SpecResolver resolver =
      [](const serve::ManifestEvent&) -> Result<SessionSpec> {
    return Status::NotFound("no fixtures here");
  };

  // No state_dir: nothing to replay from.
  SessionManager stateless({.threads = 1});
  EXPECT_TRUE(
      stateless.Recover(resolver).status().IsFailedPrecondition());

  // Recovery must run before traffic, never mid-flight.
  SessionManager::Options options;
  options.threads = 1;
  options.state_dir = FreshDir("bc_serve_recover_pre");
  SessionManager manager(options);
  ASSERT_TRUE(manager.Create(MakeSpec("s1", "acme", 9)).ok());
  EXPECT_TRUE(manager.Recover(resolver).status().IsFailedPrecondition());

  // A state_dir with no manifest yet recovers an empty server.
  SessionManager::Options empty_options;
  empty_options.threads = 1;
  empty_options.state_dir = FreshDir("bc_serve_recover_empty");
  SessionManager empty(empty_options);
  Result<serve::RecoveryReport> report = empty.Recover(resolver);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->events_replayed, 0u);
  EXPECT_EQ(report->sessions_resumed, 0u);
  EXPECT_EQ(empty.resident(), 0u);
}

}  // namespace
}  // namespace bayescrowd
