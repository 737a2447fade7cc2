// Serve-level kill-point harness: a scripted multi-session serving
// workload is killed at every verb boundary (the manager is dropped
// with no teardown, exactly what SIGKILL leaves behind), then a
// fresh manager runs Recover() in the same state directory and drives
// every surviving session to completion. The recovered sessions'
// normalized telemetry must byte-match uninterrupted solo references —
// at 1 and at 8 worker lanes, with a clean journal, with a torn journal
// tail, and with the newest checkpoint generation corrupted (PR 4
// fallback semantics). Plus fuzz pins on the tolerant manifest reader.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/telemetry.h"
#include "data/generators.h"
#include "data/missing.h"
#include "obs/normalize.h"
#include "serve/manager.h"
#include "serve/manifest.h"

namespace bayescrowd {
namespace {

namespace fs = std::filesystem;

using serve::AdvanceOutcome;
using serve::ManifestEvent;
using serve::ManifestEventKind;
using serve::ManifestLoad;
using serve::RecoveryReport;
using serve::SessionInfo;
using serve::SessionManager;
using serve::SessionSpec;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Session specs sized so each query crowdsources a handful of rounds.
SessionSpec KillSpec(const std::string& id, const std::string& tenant,
                     std::uint64_t data_seed) {
  SessionSpec spec;
  spec.id = id;
  spec.tenant = tenant;
  spec.ground_truth = MakeNbaLike(120, data_seed);
  Rng rng(5);
  spec.incomplete = InjectMissingUniform(spec.ground_truth, 0.15, rng);
  spec.options.ctable.alpha = 0.01;
  spec.options.budget = 12;
  spec.options.latency = 4;
  spec.options.strategy.m = 5;
  return spec;
}

struct SessionIdentity {
  std::string tenant;
  std::uint64_t data_seed = 0;
};

const std::map<std::string, SessionIdentity>& Fixture() {
  static const std::map<std::string, SessionIdentity> fixture = {
      {"k0", {"acme", 9}},
      {"k1", {"bravo", 10}},
      {"k2", {"acme", 11}},
  };
  return fixture;
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

/// Uninterrupted solo reference per session at a given lane count.
std::map<std::string, std::string> SoloReferences(std::size_t threads) {
  std::map<std::string, std::string> refs;
  for (const auto& [id, identity] : Fixture()) {
    SessionManager manager({.threads = threads});
    SessionSpec spec = KillSpec(id, identity.tenant, identity.data_seed);
    const BayesCrowdOptions options = spec.options;
    EXPECT_TRUE(manager.Create(std::move(spec)).ok());
    EXPECT_TRUE(manager.Advance(id, 100000).ok());
    Result<BayesCrowdResult> result = manager.Finish(id);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    refs[id] = Normalized(options, result.value());
  }
  return refs;
}

// ------------------------------------------------------------------ //
// The scripted workload
// ------------------------------------------------------------------ //

enum class Verb { kCreate, kAdvance, kCheckpoint, kFinish, kEvict };

struct ScriptStep {
  Verb verb;
  std::string id;
  std::size_t rounds = 0;
};

/// Killing after step k is a kill at verb boundary k. Create, finish
/// and evict journal a manifest record; advance and checkpoint only
/// write checkpoint generations, so recovery must find their progress
/// there. The script exercises every verb (quarantine is pinned
/// separately in serve_test — it needs a poisoned store, not a script).
std::vector<ScriptStep> Script() {
  return {
      {Verb::kCreate, "k0"},          {Verb::kCreate, "k1"},
      {Verb::kCreate, "k2"},          {Verb::kAdvance, "k0", 1},
      {Verb::kAdvance, "k1", 1},      {Verb::kCheckpoint, "k0"},
      {Verb::kAdvance, "k2", 1},      {Verb::kAdvance, "k0", 100000},
      {Verb::kFinish, "k0"},          {Verb::kAdvance, "k1", 100000},
      {Verb::kEvict, "k1"},           {Verb::kAdvance, "k2", 100000},
      {Verb::kFinish, "k2"},
  };
}

SessionManager::Options ServerOptions(const std::string& state_dir,
                                      std::size_t threads) {
  SessionManager::Options options;
  options.threads = threads;
  options.state_dir = state_dir;
  return options;
}

SessionSpec SpecFor(const std::string& id, const std::string& state_dir) {
  const SessionIdentity& identity = Fixture().at(id);
  SessionSpec spec = KillSpec(id, identity.tenant, identity.data_seed);
  spec.checkpoint_dir = state_dir + "/ckpt";
  spec.options.checkpoint_every = 1;
  return spec;
}

/// Runs the first `steps` script verbs against a manager rooted at
/// `state_dir`, then drops the manager cold. Returns the ids expected
/// to be live (created, not finished, not evicted) at the kill point.
std::set<std::string> RunPrefixAndKill(const std::string& state_dir,
                                       std::size_t threads,
                                       std::size_t steps) {
  std::set<std::string> live;
  SessionManager manager(ServerOptions(state_dir, threads));
  const std::vector<ScriptStep> script = Script();
  for (std::size_t i = 0; i < steps; ++i) {
    const ScriptStep& step = script[i];
    switch (step.verb) {
      case Verb::kCreate:
        EXPECT_TRUE(manager.Create(SpecFor(step.id, state_dir)).ok());
        live.insert(step.id);
        break;
      case Verb::kAdvance: {
        Result<AdvanceOutcome> advanced =
            manager.Advance(step.id, step.rounds);
        EXPECT_TRUE(advanced.ok()) << advanced.status().ToString();
        break;
      }
      case Verb::kCheckpoint:
        EXPECT_TRUE(manager.Checkpoint(step.id).ok());
        break;
      case Verb::kFinish:
        EXPECT_TRUE(manager.Finish(step.id).ok());
        live.erase(step.id);
        break;
      case Verb::kEvict:
        EXPECT_TRUE(manager.Evict(step.id).ok());
        live.erase(step.id);
        break;
    }
  }
  return live;  // The manager dies here, mid-flight state and all.
}

/// The resolver a real server implements by re-parsing the journaled
/// create request; the fixture rebuilds the spec from the session id.
SessionManager::SpecResolver FixtureResolver() {
  return [](const ManifestEvent& event) -> Result<SessionSpec> {
    const auto it = Fixture().find(event.session_id);
    if (it == Fixture().end()) {
      return Status::NotFound("unknown fixture session '" +
                              event.session_id + "'");
    }
    return KillSpec(event.session_id, it->second.tenant,
                    it->second.data_seed);
  };
}

enum class Scenario { kClean, kTornTail, kCorruptNewestCheckpoint };

/// Appends half an encoded record to the journal — the torn tail an
/// interrupted append leaves.
void TearManifestTail(const std::string& state_dir) {
  const std::string path = state_dir + "/serve-manifest.bin";
  ManifestEvent torn;
  torn.kind = ManifestEventKind::kFinish;
  torn.session_id = "k0";
  torn.tenant = "acme";
  const std::string record = serve::EncodeManifestRecord(torn).value();
  Result<std::string> existing = RealFileIo()->ReadFile(path);
  std::string bytes =
      existing.ok() ? std::move(existing).value() : serve::ManifestHeader();
  bytes.append(record.substr(0, record.size() / 2));
  ASSERT_TRUE(RealFileIo()->WriteFileDurable(path, bytes).ok());
}

/// Flips bytes in the middle of the newest checkpoint generation of any
/// live session, so recovery must fall back to an older one (or re-run
/// fresh when only one generation existed).
void CorruptNewestCheckpoint(const std::string& state_dir) {
  const std::string dir = state_dir + "/ckpt";
  std::string newest;
  if (fs::exists(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("ckpt-", 0) == 0 &&
          (newest.empty() || name > newest)) {
        newest = name;
      }
    }
  }
  if (newest.empty()) return;  // Killed before any checkpoint: no-op.
  const std::string path = dir + "/" + newest;
  Result<std::string> bytes = RealFileIo()->ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = std::move(bytes).value();
  for (std::size_t i = damaged.size() / 2;
       i < damaged.size() / 2 + 8 && i < damaged.size(); ++i) {
    damaged[i] = static_cast<char>(~damaged[i]);
  }
  ASSERT_TRUE(RealFileIo()->WriteFileDurable(path, damaged).ok());
}

void RunKillpointMatrix(std::size_t threads, Scenario scenario,
                        const std::map<std::string, std::string>& refs) {
  const std::vector<ScriptStep> script = Script();
  for (std::size_t kill = 0; kill <= script.size(); ++kill) {
    SCOPED_TRACE(StrFormat("threads=%zu scenario=%d kill=%zu", threads,
                           static_cast<int>(scenario), kill));
    const std::string state_dir = FreshDir(
        StrFormat("bc_serve_kill_t%zu_s%d_k%zu", threads,
                  static_cast<int>(scenario), kill));
    const std::set<std::string> expected_live =
        RunPrefixAndKill(state_dir, threads, kill);
    if (scenario == Scenario::kTornTail) {
      TearManifestTail(state_dir);
    } else if (scenario == Scenario::kCorruptNewestCheckpoint) {
      CorruptNewestCheckpoint(state_dir);
    }

    SessionManager recovered(ServerOptions(state_dir, threads));
    Result<RecoveryReport> report = recovered.Recover(FixtureResolver());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->sessions_failed, 0u);
    if (scenario == Scenario::kTornTail) {
      EXPECT_GE(report->torn_tail_records, 1u);
    }

    std::set<std::string> live;
    for (const SessionInfo& info : recovered.List()) {
      live.insert(info.id);
    }
    EXPECT_EQ(live, expected_live);
    EXPECT_EQ(report->sessions_resumed + report->sessions_fresh,
              expected_live.size());

    // Drive every survivor to completion: byte-identical telemetry to
    // the uninterrupted solo reference, whatever the kill point did.
    while (true) {
      Result<std::size_t> active = recovered.AdvanceAll(1);
      ASSERT_TRUE(active.ok()) << active.status().ToString();
      if (active.value() == 0) break;
    }
    for (const std::string& id : expected_live) {
      Result<BayesCrowdResult> result = recovered.Finish(id);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Normalized(SpecFor(id, state_dir).options,
                           result.value()),
                refs.at(id))
          << "session " << id << " diverged after recovery";
    }
  }
}

TEST(ServeKillpointTest, EveryBoundaryCleanJournalSingleLane) {
  RunKillpointMatrix(1, Scenario::kClean, SoloReferences(1));
}

TEST(ServeKillpointTest, EveryBoundaryCleanJournalEightLanes) {
  RunKillpointMatrix(8, Scenario::kClean, SoloReferences(8));
}

TEST(ServeKillpointTest, EveryBoundaryTornTailSingleLane) {
  RunKillpointMatrix(1, Scenario::kTornTail, SoloReferences(1));
}

TEST(ServeKillpointTest, EveryBoundaryTornTailEightLanes) {
  RunKillpointMatrix(8, Scenario::kTornTail, SoloReferences(8));
}

TEST(ServeKillpointTest, EveryBoundaryCorruptNewestCheckpointSingleLane) {
  RunKillpointMatrix(1, Scenario::kCorruptNewestCheckpoint,
                     SoloReferences(1));
}

TEST(ServeKillpointTest, EveryBoundaryCorruptNewestCheckpointEightLanes) {
  RunKillpointMatrix(8, Scenario::kCorruptNewestCheckpoint,
                     SoloReferences(8));
}

// ------------------------------------------------------------------ //
// Manifest reader fuzz pins
// ------------------------------------------------------------------ //

ManifestEvent FuzzEvent(const std::string& id, ManifestEventKind kind) {
  ManifestEvent event;
  event.kind = kind;
  event.session_id = id;
  event.tenant = "acme";
  event.rounds = 2;
  event.spec_fingerprint = 7;
  event.checkpoint_dir = "/tmp/ck";
  event.checkpoint_keep = 3;
  event.spec_blob = "{\"op\":\"create\"}";
  event.detail = "d";
  return event;
}

TEST(ManifestFuzzTest, TornTailStopsScanAndKeepsPrefix) {
  std::string bytes = serve::ManifestHeader();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("a", ManifestEventKind::kCreate)).value();
  const std::string second = serve::EncodeManifestRecord(
      FuzzEvent("b", ManifestEventKind::kCreate)).value();
  bytes += second.substr(0, second.size() - 3);  // Torn mid-CRC.
  const ManifestLoad load = serve::ParseManifest(bytes).value();
  ASSERT_EQ(load.events.size(), 1u);
  EXPECT_EQ(load.events[0].session_id, "a");
  EXPECT_EQ(load.torn_tail_records, 1u);
  EXPECT_EQ(load.unknown_kind_records, 0u);
}

TEST(ManifestFuzzTest, CorruptPayloadMidFileDropsTheTail) {
  std::string bytes = serve::ManifestHeader();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("a", ManifestEventKind::kCreate)).value();
  const std::size_t corrupt_at = bytes.size() + 10;
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("b", ManifestEventKind::kFinish)).value();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("c", ManifestEventKind::kCreate)).value();
  bytes[corrupt_at] = static_cast<char>(bytes[corrupt_at] ^ 0x5A);
  const ManifestLoad load = serve::ParseManifest(bytes).value();
  // Everything before the CRC failure is trusted; nothing after it is.
  ASSERT_EQ(load.events.size(), 1u);
  EXPECT_EQ(load.events[0].session_id, "a");
  EXPECT_GE(load.torn_tail_records, 1u);
}

TEST(ManifestFuzzTest, UnknownKindIsSkippedWithCounterFramingIntact) {
  std::string bytes = serve::ManifestHeader();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("a", ManifestEventKind::kCreate)).value();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("x", static_cast<ManifestEventKind>(99))).value();
  bytes += serve::EncodeManifestRecord(
      FuzzEvent("b", ManifestEventKind::kCreate)).value();
  const ManifestLoad load = serve::ParseManifest(bytes).value();
  ASSERT_EQ(load.events.size(), 2u);
  EXPECT_EQ(load.events[0].session_id, "a");
  EXPECT_EQ(load.events[1].session_id, "b");
  EXPECT_EQ(load.unknown_kind_records, 1u);
  EXPECT_EQ(load.torn_tail_records, 0u);
}

TEST(ManifestFuzzTest, DuplicateCreateIsCountedNewestWins) {
  const std::string state_dir = FreshDir("bc_serve_dup_create");
  {
    serve::ServeManifest manifest(
        {.path = state_dir + "/serve-manifest.bin"});
    ManifestEvent first = FuzzEvent("k0", ManifestEventKind::kCreate);
    // A real fingerprint so recovery re-admits it: chained spec hash.
    SessionSpec probe = KillSpec("k0", "acme", 9);
    first.tenant = "acme";
    first.rounds = 0;
    first.spec_fingerprint = SessionManager::SpecFingerprint(probe);
    first.checkpoint_dir = "";
    ASSERT_TRUE(manifest.Append(first).ok());
    ASSERT_TRUE(manifest.Append(first).ok());  // Replayed duplicate.
  }
  SessionManager manager(ServerOptions(state_dir, 2));
  Result<RecoveryReport> report = manager.Recover(FixtureResolver());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->duplicate_events, 1u);
  EXPECT_EQ(report->sessions_resumed + report->sessions_fresh, 1u);
  EXPECT_EQ(manager.resident(), 1u);
}

TEST(ManifestFuzzTest, BadHeaderIsRefused) {
  // A foreign file is refused, never read as an empty journal: recovery
  // would otherwise compact it, overwriting whatever it was.
  const auto refused = serve::ParseManifest("garbage header bytes");
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsIOError()) << refused.status().ToString();
  std::string newer = serve::ManifestHeader();
  newer[4] = 2;
  const auto other = serve::ParseManifest(newer);
  EXPECT_TRUE(other.status().IsInvalidArgument())
      << other.status().ToString();

  const std::string state_dir = FreshDir("bc_serve_foreign_manifest");
  fs::create_directories(state_dir);
  const std::string path = state_dir + "/serve-manifest.bin";
  ASSERT_TRUE(
      RealFileIo()->WriteFileDurable(path, "garbage header bytes").ok());
  SessionManager manager(ServerOptions(state_dir, 2));
  EXPECT_TRUE(manager.Recover(FixtureResolver()).status().IsIOError());
  EXPECT_EQ(RealFileIo()->ReadFile(path).value(), "garbage header bytes");
}

TEST(ManifestFormatTest, BytesArePinned) {
  // The manifest's bytes predate the shared journal module and must not
  // move: "BSMN" v1, then u32 len | payload | u32 crc. The record is an
  // older writer's checkpoint event (kind 2, since retired).
  const std::string bytes =
      serve::ManifestHeader() +
      serve::EncodeManifestRecord(
          FuzzEvent("p", static_cast<ManifestEventKind>(2)))
          .value();
  std::string hex;
  for (const unsigned char c : bytes) hex += StrFormat("%02x", c);
  EXPECT_EQ(hex,
            "42534d4e0100000065000000020100000000000000700400000000000000"
            "61636d65020000000000000000000000000000000700000000000000070000"
            "00000000002f746d702f636b03000000000000000f000000000000007b226f"
            "70223a22637265617465227d010000000000000064aac33753");
  // Those bytes still load: one record, skipped as an unknown kind.
  const ManifestLoad load = serve::ParseManifest(bytes).value();
  EXPECT_TRUE(load.events.empty());
  EXPECT_EQ(load.unknown_kind_records, 1u);
  EXPECT_EQ(load.torn_tail_records, 0u);
}

TEST(ManifestFormatTest, OlderJournalWithProgressRecordsRecoversTheLiveSet) {
  // Older writers also journaled every advance (kind 1) and checkpoint
  // (kind 2). A journal that holds them recovers the same live set, and
  // the recovered sessions still finish as their solo runs do.
  const std::string state_dir = FreshDir("bc_serve_older_journal");
  {
    SessionManager manager(ServerOptions(state_dir, 2));
    for (const char* id : {"k0", "k1", "k2"}) {
      ASSERT_TRUE(manager.Create(SpecFor(id, state_dir)).ok());
    }
    ASSERT_TRUE(manager.Advance("k0", 1).ok());
    ASSERT_TRUE(manager.Advance("k1", 2).ok());
    ASSERT_TRUE(manager.Checkpoint("k0").ok());
    ASSERT_TRUE(manager.Evict("k2").ok());
  }  // Killed cold.

  // Splice the progress records in where an older writer appended them.
  const std::string path = state_dir + "/serve-manifest.bin";
  const ManifestLoad written = serve::LoadManifest(RealFileIo(), path).value();
  ASSERT_EQ(written.events.size(), 4u);  // Three creates, one evict.
  const auto encode = [](const ManifestEvent& event) {
    return serve::EncodeManifestRecord(event).value();
  };
  const auto progress = [&](int kind, std::size_t create,
                            std::uint64_t rounds) {
    ManifestEvent event = written.events[create];
    event.kind = static_cast<ManifestEventKind>(kind);
    event.rounds = rounds;
    return encode(event);
  };
  const std::string bytes =
      serve::ManifestHeader() + encode(written.events[0]) +
      encode(written.events[1]) + encode(written.events[2]) +
      progress(1, 0, 1) + progress(1, 1, 2) + progress(2, 0, 1) +
      encode(written.events[3]);
  ASSERT_TRUE(RealFileIo()->WriteFileDurable(path, bytes).ok());

  SessionManager recovered(ServerOptions(state_dir, 2));
  Result<RecoveryReport> report = recovered.Recover(FixtureResolver());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->events_replayed, 4u);
  EXPECT_EQ(report->unknown_event_records, 3u);
  EXPECT_EQ(report->sessions_resumed, 2u);
  EXPECT_EQ(report->sessions_failed, 0u);
  std::set<std::string> live;
  for (const SessionInfo& info : recovered.List()) live.insert(info.id);
  EXPECT_EQ(live, (std::set<std::string>{"k0", "k1"}));

  const std::map<std::string, std::string> refs = SoloReferences(2);
  while (true) {
    Result<std::size_t> active = recovered.AdvanceAll(1);
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    if (active.value() == 0) break;
  }
  for (const std::string& id : live) {
    Result<BayesCrowdResult> result = recovered.Finish(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Normalized(SpecFor(id, state_dir).options, result.value()),
              refs.at(id));
  }
}

}  // namespace
}  // namespace bayescrowd
