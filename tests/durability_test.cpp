// Tests for the durability layer: WAL framing and tail recovery, snapshot
// round trips, full-pipeline crash recovery, and the proof obligation of
// the crash-safety contract — SIGKILL the pipeline at a random commit
// index, restart from disk, and demand every externally visible artifact
// (feed export, email outbox, API bodies) be byte-identical to an
// uninterrupted run, at any capture-lanes x annotate-workers setting.
//
// This binary has a custom main: when invoked as
//   durability_test --run-to-kill DIR KILL_INDEX WORKERS LANES
// it runs the pipeline against DIR and raises SIGKILL on itself the moment
// commit KILL_INDEX is appended to the WAL — after the record is
// acknowledged on disk, before its side effects run, the worst crash
// window. The gtest parent fork+execs itself in that mode (safe under
// TSan, unlike a bare fork), reaps the SIGKILL, then recovers in-process.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/server.h"
#include "feed/export.h"
#include "inet/population.h"
#include "pipeline/durability.h"
#include "pipeline/exiot.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace exiot::pipeline {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the system temp root.
fs::path scratch_dir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("exiot_durability_" + tag + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ----------------------------------------------------------- WAL unit ----

TEST(WalTest, AppendReadRoundTrip) {
  const fs::path dir = scratch_dir("roundtrip");
  {
    auto writer = store::WalWriter::open(dir, {});
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      auto index = writer.value()->append(
          1, "payload-" + std::to_string(i));
      ASSERT_TRUE(index.ok());
      EXPECT_EQ(index.value(), static_cast<std::uint64_t>(i));
    }
  }
  auto scan = store::read_wal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().next_index, 10u);
  ASSERT_EQ(scan.value().records.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(scan.value().records[i].index, i);
    EXPECT_EQ(scan.value().records[i].type, 1);
    EXPECT_EQ(scan.value().records[i].payload,
              "payload-" + std::to_string(i));
  }
  // A partial read skips what the caller already has.
  auto tail = store::read_wal(dir, 7);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail.value().records.size(), 3u);
  EXPECT_EQ(tail.value().records[0].index, 7u);
  fs::remove_all(dir);
}

TEST(WalTest, RollsSegmentsAndReopensAtTail) {
  const fs::path dir = scratch_dir("roll");
  store::WalOptions options;
  options.segment_bytes = 128;  // Tiny: force rolls.
  {
    auto writer = store::WalWriter::open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(writer.value()->append(2, std::string(40, 'x')).ok());
    }
    EXPECT_GT(writer.value()->segment_count(), 1u);
  }
  // Reopen continues the index sequence.
  auto reopened = store::WalWriter::open(dir, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->next_index(), 20u);
  EXPECT_FALSE(reopened.value()->truncated_tail_on_open());
  auto index = reopened.value()->append(2, "after-reopen");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value(), 20u);
  fs::remove_all(dir);
}

TEST(WalTest, PruneDropsCoveredSegmentsKeepsNewest) {
  const fs::path dir = scratch_dir("prune");
  store::WalOptions options;
  options.segment_bytes = 128;
  auto writer = store::WalWriter::open(dir, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.value()->append(1, std::string(40, 'y')).ok());
  }
  const std::size_t before = writer.value()->segment_count();
  ASSERT_GT(before, 2u);
  EXPECT_GT(writer.value()->prune(20), 0u);
  EXPECT_GE(writer.value()->segment_count(), 1u);
  EXPECT_LT(writer.value()->segment_count(), before);
  // Everything the snapshot does not cover is still readable.
  auto scan = store::read_wal(dir, writer.value()->next_index());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().next_index, 20u);
  fs::remove_all(dir);
}

TEST(WalTest, ColdStartOnEmptyDirectory) {
  const fs::path dir = scratch_dir("cold");
  auto scan = store::read_wal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().records.empty());
  EXPECT_EQ(scan.value().next_index, 0u);
  auto writer = store::WalWriter::open(dir, {});
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(writer.value()->next_index(), 0u);
  fs::remove_all(dir);
}

TEST(WalTest, TornTailIsTruncatedNotMisparsed) {
  const fs::path dir = scratch_dir("torn");
  {
    auto writer = store::WalWriter::open(dir, {});
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer.value()->append(1, "rec-" + std::to_string(i)).ok());
    }
  }
  // Tear the final record mid-frame, as a power loss would.
  const fs::path seg = dir / store::wal_segment_name(0);
  const auto full = fs::file_size(seg);
  fs::resize_file(seg, full - 3);

  auto scan = store::read_wal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated_tail);
  ASSERT_EQ(scan.value().records.size(), 4u);  // Record 4 dropped.
  EXPECT_EQ(scan.value().next_index, 4u);

  // The writer physically truncates the torn bytes and appends over them.
  auto writer = store::WalWriter::open(dir, {});
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value()->truncated_tail_on_open());
  EXPECT_EQ(writer.value()->next_index(), 4u);
  ASSERT_TRUE(writer.value()->append(1, "rewritten-4").ok());
  auto rescan = store::read_wal(dir);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan.value().truncated_tail);
  ASSERT_EQ(rescan.value().records.size(), 5u);
  EXPECT_EQ(rescan.value().records[4].payload, "rewritten-4");
  fs::remove_all(dir);
}

TEST(WalTest, CorruptionInFinalSegmentTruncates) {
  const fs::path dir = scratch_dir("flip");
  {
    auto writer = store::WalWriter::open(dir, {});
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer.value()->append(1, "record-payload").ok());
    }
  }
  // Flip a byte inside the last record's payload: the CRC must catch it
  // and the scan must stop before it, keeping the earlier records.
  const fs::path seg = dir / store::wal_segment_name(0);
  std::fstream file(seg, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-4, std::ios::end);
  file.put('!');
  file.close();
  auto scan = store::read_wal(dir);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().truncated_tail);
  EXPECT_EQ(scan.value().records.size(), 2u);
  fs::remove_all(dir);
}

TEST(WalTest, CorruptionInEarlierSegmentIsHardError) {
  const fs::path dir = scratch_dir("midflip");
  store::WalOptions options;
  options.segment_bytes = 64;
  {
    auto writer = store::WalWriter::open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(writer.value()->append(1, std::string(40, 'z')).ok());
    }
    ASSERT_GT(writer.value()->segment_count(), 2u);
  }
  // Append-only writes cannot tear the middle of the log; corruption
  // there means the disk lied, and replaying past it would diverge.
  const fs::path first = dir / store::wal_segment_name(0);
  std::fstream file(first, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(-1, std::ios::end);
  file.put('!');
  file.close();
  EXPECT_FALSE(store::read_wal(dir).ok());
  EXPECT_FALSE(store::WalWriter::open(dir, options).ok());
  fs::remove_all(dir);
}

TEST(WalTest, MissingSegmentIsHardError) {
  const fs::path dir = scratch_dir("gap");
  store::WalOptions options;
  options.segment_bytes = 64;
  {
    auto writer = store::WalWriter::open(dir, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(writer.value()->append(1, std::string(40, 'w')).ok());
    }
    ASSERT_GT(writer.value()->segment_count(), 2u);
  }
  auto segments = std::vector<fs::path>();
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  std::sort(segments.begin(), segments.end());
  fs::remove(segments[1]);  // A hole in the middle of the log.
  EXPECT_FALSE(store::read_wal(dir).ok());
  fs::remove_all(dir);
}

// ------------------------------------------------------ Snapshot files ----

json::Value tiny_state(int marker) {
  json::Value state;
  state["marker"] = marker;
  return state;
}

TEST(SnapshotTest, SaveLoadNewestWins) {
  const fs::path dir = scratch_dir("snap");
  store::SnapshotDirectory snaps(dir);
  ASSERT_TRUE(snaps.save(10, tiny_state(1)).ok());
  ASSERT_TRUE(snaps.save(25, tiny_state(2)).ok());
  auto loaded = snaps.load_latest();
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->wal_index, 25u);
  EXPECT_EQ(loaded.value()->state.get_int("marker"), 2);
  // A limit excludes newer snapshots (recovery to an older point).
  auto limited = snaps.load_latest(10);
  ASSERT_TRUE(limited.ok());
  ASSERT_TRUE(limited.value().has_value());
  EXPECT_EQ(limited.value()->wal_index, 10u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlder) {
  const fs::path dir = scratch_dir("snapcorrupt");
  store::SnapshotDirectory snaps(dir);
  ASSERT_TRUE(snaps.save(10, tiny_state(1)).ok());
  ASSERT_TRUE(snaps.save(25, tiny_state(2)).ok());
  {
    std::ofstream trash(dir / store::snapshot_file_name(25),
                        std::ios::trunc);
    trash << "{not json";
  }
  auto loaded = snaps.load_latest();
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().has_value());
  EXPECT_EQ(loaded.value()->wal_index, 10u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, PruneKeepsNewest) {
  const fs::path dir = scratch_dir("snapprune");
  store::SnapshotDirectory snaps(dir);
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(snaps.save(static_cast<std::uint64_t>(i * 10),
                           tiny_state(i)).ok());
  }
  EXPECT_EQ(snaps.prune(2), 3u);
  auto remaining = snaps.list();
  ASSERT_EQ(remaining.size(), 2u);
  EXPECT_EQ(remaining[0].wal_index, 40u);
  EXPECT_EQ(remaining[1].wal_index, 50u);
  fs::remove_all(dir);
}

TEST(SnapshotTest, EmptyDirectoryLoadsNothing) {
  const fs::path dir = scratch_dir("snapempty");
  store::SnapshotDirectory snaps(dir);
  auto loaded = snaps.load_latest();
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().has_value());
  fs::remove_all(dir);
}

// ------------------------------------------------- Pipeline recovery ----

struct RunOutput {
  std::string feed;
  std::string outbox;
  std::string records_api;
  std::string snapshot_api;
  std::uint64_t commit_index = 0;
  std::uint64_t recovered_index = 0;
};

/// The annotate_test determinism population: small, fast, deterministic.
inet::PopulationConfig small_population() {
  inet::PopulationConfig config;
  config.iot_per_day = 30;
  config.generic_per_day = 20;
  config.misconfig_per_day = 10;
  config.victims_per_day = 4;
  config.benign_per_day = 2;
  config.days = 1;
  config.seed = 42;
  return config;
}

PipelineConfig pipeline_config(int workers, int lanes,
                               const fs::path& data_dir) {
  PipelineConfig config;
  config.num_annotate_workers = workers;
  config.num_producer_threads = lanes;
  config.annotate_queue_capacity = 8;
  config.data_dir = data_dir;
  config.wal_segment_bytes = 64 << 10;  // Small: exercise rolls + prune.
  config.snapshot_interval_hours = 6;
  return config;
}

/// Runs one full day and captures every externally visible artifact.
/// `kill_at` > 0 arms the commit probe to SIGKILL the process the moment
/// that WAL index is appended (only reachable in the --run-to-kill child).
RunOutput run_pipeline(int workers, int lanes, const fs::path& data_dir,
                       std::uint64_t kill_at = 0) {
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(small_population(), world);
  ExIotPipeline pipe(population, world,
                     pipeline_config(workers, lanes, data_dir));
  EXPECT_EQ(pipe.recovery_error(), "");
  if (kill_at > 0) {
    EXPECT_NE(pipe.durability(), nullptr);
    pipe.durability()->set_commit_probe([kill_at](std::uint64_t index) {
      if (index + 1 >= kill_at) ::raise(SIGKILL);
    });
  }
  RunOutput out;
  if (pipe.durability() != nullptr) {
    out.recovered_index = pipe.durability()->recovery().recovered_index;
  }
  pipe.run_days(0, 1);
  pipe.finish();

  std::ostringstream feed;
  feed::export_jsonl(pipe.feed(), feed);
  out.feed = feed.str();
  std::ostringstream outbox;
  for (const auto& mail : pipe.outbox()) {
    outbox << mail.sent_at << "|" << mail.to << "|" << mail.subject << "|"
           << mail.body << "\n";
  }
  out.outbox = outbox.str();
  api::ApiServer server(pipe.feed());
  server.add_token("t");
  auto request = [&](const std::string& target) {
    auto parsed = api::HttpRequest::parse(
        "GET " + target + " HTTP/1.1\r\nAuthorization: Bearer t\r\n\r\n");
    EXPECT_TRUE(parsed.has_value());
    return server.handle(*parsed).body;
  };
  out.records_api = request("/v1/records?limit=100000");
  out.snapshot_api = request("/v1/snapshot");
  if (pipe.durability() != nullptr) {
    out.commit_index = pipe.durability()->commit_index();
  }
  return out;
}

void expect_same_output(const RunOutput& expected, const RunOutput& actual,
                        const std::string& context) {
  EXPECT_EQ(expected.feed, actual.feed) << context;
  EXPECT_EQ(expected.outbox, actual.outbox) << context;
  EXPECT_EQ(expected.records_api, actual.records_api) << context;
  EXPECT_EQ(expected.snapshot_api, actual.snapshot_api) << context;
}

TEST(DurabilityPipelineTest, DurableRunMatchesInMemoryRun) {
  const fs::path dir = scratch_dir("clean");
  const RunOutput in_memory = run_pipeline(1, 1, "");
  const RunOutput durable = run_pipeline(1, 1, dir);
  ASSERT_FALSE(in_memory.feed.empty());
  expect_same_output(in_memory, durable, "wal-on vs in-memory");
  EXPECT_GT(durable.commit_index, 0u);
  EXPECT_EQ(durable.recovered_index, 0u);
  fs::remove_all(dir);
}

TEST(DurabilityPipelineTest, CleanRestartRecoversIdenticalState) {
  const fs::path dir = scratch_dir("restart");
  const RunOutput first = run_pipeline(2, 2, dir);
  // Second run over the same directory: recovery restores the final
  // snapshot (the WAL tail past it is empty — finish() wrote it at the
  // last commit), the re-run suppresses every commit, and the feed comes
  // out byte-identical.
  const RunOutput second = run_pipeline(2, 2, dir);
  EXPECT_EQ(second.recovered_index, first.commit_index);
  expect_same_output(first, second, "clean restart");
  fs::remove_all(dir);
}

TEST(DurabilityPipelineTest, RecoveryWithSnapshotAndEmptyWalTail) {
  const fs::path dir = scratch_dir("snaptail");
  (void)run_pipeline(1, 1, dir);
  // The final snapshot covers the whole log; recovery must come from the
  // snapshot alone, zero records replayed.
  auto world = inet::WorldModel::standard(Cidr(Ipv4(44, 0, 0, 0), 8));
  auto population = inet::Population::generate(small_population(), world);
  ExIotPipeline pipe(population, world, pipeline_config(1, 1, dir));
  ASSERT_NE(pipe.durability(), nullptr);
  EXPECT_GT(pipe.durability()->recovery().snapshot_wal_index, 0u);
  EXPECT_EQ(pipe.durability()->recovery().replayed_records, 0u);
  EXPECT_GT(pipe.durability()->recovery().recovered_index, 0u);
  fs::remove_all(dir);
}

TEST(DurabilityPipelineTest, ReplayOntoNonEmptyStoreIsRejected) {
  const fs::path dir = scratch_dir("nonempty");
  (void)run_pipeline(1, 1, dir);

  feed::FeedManager feed;
  UpdateClassifier trainer;
  std::vector<feed::EmailMessage> outbox;
  feed::CtiRecord pre_existing;
  pre_existing.src = Ipv4(10, 0, 0, 1);
  (void)feed.publish(pre_existing, seconds(1));

  Durability durability(
      DurabilityConfig{dir, 4u << 20, store::WalFsync::kOnRoll, 0},
      DurableState{feed, trainer, outbox},
      ReplayHooks{[](AnnotateResult&) {},
                  [](Ipv4, TimeMicros, TimeMicros) {},
                  [](std::int64_t, TimeMicros) {}});
  auto recovered = durability.recover();
  ASSERT_FALSE(recovered.ok());
  fs::remove_all(dir);
}

TEST(DurabilityPipelineTest, PublishPayloadRoundTrip) {
  AnnotateResult result;
  result.record.src = Ipv4(203, 0, 113, 9);
  result.record.label = feed::kLabelIot;
  result.record.vendor = "MikroTik";
  result.features = {1.0, 0.5, 0.0, 12.25};
  result.training_label = 1;
  result.annotate_start = seconds(100);
  result.published = seconds(101);
  result.ended = true;
  result.end_ts = seconds(102);
  auto decoded = decode_publish_payload(encode_publish_payload(result));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().record.to_json().dump(),
            result.record.to_json().dump());
  EXPECT_EQ(decoded.value().features, result.features);
  EXPECT_EQ(decoded.value().training_label, 1);
  EXPECT_EQ(decoded.value().annotate_start, seconds(100));
  EXPECT_EQ(decoded.value().published, seconds(101));
  EXPECT_TRUE(decoded.value().ended);
  EXPECT_EQ(decoded.value().end_ts, seconds(102));
  EXPECT_FALSE(decode_publish_payload("{broken").ok());
  EXPECT_FALSE(decode_publish_payload("{}").ok());
}

// --------------------------------------------- Kill at a random commit ----

/// Fork+execs this binary in --run-to-kill mode and waits for it to die
/// by SIGKILL (commit `kill_at` reached) or exit cleanly (log shorter
/// than `kill_at`; the caller picks indexes below the known total).
void run_child_to_kill(const fs::path& data_dir, std::uint64_t kill_at,
                       int workers, int lanes) {
  const std::string kill_s = std::to_string(kill_at);
  const std::string workers_s = std::to_string(workers);
  const std::string lanes_s = std::to_string(lanes);
  const std::string dir_s = data_dir.string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const char* argv[] = {"durability_test", "--run-to-kill",
                          dir_s.c_str(),     kill_s.c_str(),
                          workers_s.c_str(), lanes_s.c_str(),
                          nullptr};
    ::execv("/proc/self/exe", const_cast<char**>(argv));
    ::_exit(127);  // exec failed.
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status
      << ") — kill index " << kill_at << " never reached?";
}

TEST(DurabilityKillTest, RecoversByteIdenticalAcrossThreadMatrix) {
  // The uninterrupted reference (pure in-memory run; the determinism
  // matrix in annotate_test already pins this across configurations).
  const RunOutput reference = run_pipeline(1, 1, "");
  ASSERT_FALSE(reference.feed.empty());
  // Total commits in a full run, to bound the random kill index.
  const fs::path probe_dir = scratch_dir("probe");
  const std::uint64_t total = run_pipeline(1, 1, probe_dir).commit_index;
  fs::remove_all(probe_dir);
  ASSERT_GT(total, 100u);

  std::mt19937_64 rng(20260808u);  // Fixed seed: reproducible failures.
  std::uniform_int_distribution<std::uint64_t> pick(2, total - 1);
  for (const auto& [workers, lanes] :
       {std::pair{1, 1}, std::pair{2, 2}, std::pair{4, 4}, std::pair{2, 8}}) {
    const std::string tag =
        std::to_string(workers) + "w" + std::to_string(lanes) + "l";
    const fs::path dir = scratch_dir("kill_" + tag);
    const std::uint64_t kill_at = pick(rng);
    SCOPED_TRACE("config " + tag + " killed at commit " +
                 std::to_string(kill_at) + "/" + std::to_string(total));
    run_child_to_kill(dir, kill_at, workers, lanes);
    // Restart from what the dead child left on disk and run to the end.
    const RunOutput recovered = run_pipeline(workers, lanes, dir);
    EXPECT_GT(recovered.recovered_index, 0u);
    EXPECT_LE(recovered.recovered_index, kill_at);
    expect_same_output(reference, recovered, "killed at " +
                       std::to_string(kill_at));
    fs::remove_all(dir);
  }
}

TEST(DurabilityKillTest, SurvivesKillAtFirstCommit) {
  // The earliest window: the very first acknowledged commit dies before
  // its side effects run. Recovery replays it from the WAL.
  const RunOutput reference = run_pipeline(1, 1, "");
  const fs::path dir = scratch_dir("kill_first");
  run_child_to_kill(dir, 1, 2, 2);
  const RunOutput recovered = run_pipeline(2, 2, dir);
  EXPECT_GE(recovered.recovered_index, 1u);
  expect_same_output(reference, recovered, "killed at first commit");
  fs::remove_all(dir);
}

/// Child body for --run-to-kill (see file comment).
int run_to_kill(char** argv) {
  const fs::path data_dir = argv[2];
  const std::uint64_t kill_at = std::stoull(argv[3]);
  const int workers = std::stoi(argv[4]);
  const int lanes = std::stoi(argv[5]);
  (void)run_pipeline(workers, lanes, data_dir, kill_at);
  return 0;  // Kill index beyond the log: ran to completion.
}

}  // namespace
}  // namespace exiot::pipeline

int main(int argc, char** argv) {
  if (argc == 6 && std::string(argv[1]) == "--run-to-kill") {
    return exiot::pipeline::run_to_kill(argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
