// The serving daemon and its supporting layers: admission control
// (bounded queue, shed, drain), cache persistence (snapshot + log
// round-trip, torn-tail crash recovery, warm restart), the strict CLI
// helpers shared by the serving executables, and dsp_served end-to-end
// over real loopback TCP — including the concurrent-client soak the
// sanitizer jobs lean on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/smart_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/admission.hpp"
#include "service/cli.hpp"
#include "service/daemon.hpp"
#include "service/frame_codec.hpp"
#include "service/persist.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {
namespace {

using runtime::AdmissionGate;

CacheKey key_of(std::uint64_t a, std::uint64_t fingerprint = 1) {
  return CacheKey{Hash128{a, ~a}, fingerprint};
}

CachedSolve solve_of(Height peak, std::string winner = "test") {
  CachedSolve solve;
  solve.packing.start = {0, static_cast<Length>(peak), 2 * peak};
  solve.peak = peak;
  solve.winner = std::move(winner);
  return solve;
}

/// A unique, auto-removed state directory per test.
class StateDir {
 public:
  explicit StateDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("dsp_test_" + tag + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~StateDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WireInstance small_wire(std::uint64_t seed) {
  Rng rng(9000 + seed);
  return WireInstance::from_instance(gen::smart_grid(24, 96, rng),
                                     "inst-" + std::to_string(seed));
}

// ---------------------------------------------------------------------------
// AdmissionGate.
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, AdmitsUpToCapacityThenSheds) {
  AdmissionGate gate(/*capacity=*/2, /*max_queue=*/0);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  // Capacity reached, queue size zero: immediate shed.
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kShed);
  gate.leave();
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  gate.leave();
  gate.leave();
  const AdmissionGate::Counters counters = gate.counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.active, 0u);
}

TEST(AdmissionGateTest, QueuedCallerRunsWhenASlotFrees) {
  AdmissionGate gate(/*capacity=*/1, /*max_queue=*/1);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  std::atomic<bool> queued_ran{false};
  std::thread queued([&]() {
    const AdmissionGate::Ticket ticket = gate.enter();  // blocks in the queue
    EXPECT_EQ(ticket, AdmissionGate::Ticket::kAdmitted);
    queued_ran.store(true);
    gate.leave();
  });
  // Wait until the thread is actually waiting, then shed a third caller.
  while (gate.counters().waiting == 0) std::this_thread::yield();
  EXPECT_FALSE(queued_ran.load());
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kShed);
  gate.leave();
  queued.join();
  EXPECT_TRUE(queued_ran.load());
  const AdmissionGate::Counters counters = gate.counters();
  EXPECT_EQ(counters.queued, 1u);
  EXPECT_EQ(counters.peak_waiting, 1u);
}

TEST(AdmissionGateTest, CloseRejectsNewButQueuedCallersComplete) {
  AdmissionGate gate(/*capacity=*/1, /*max_queue=*/4);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  std::atomic<int> completed{0};
  std::thread queued([&]() {
    EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
    ++completed;
    gate.leave();
  });
  while (gate.counters().waiting == 0) std::this_thread::yield();
  gate.close();
  // Drain semantics: the queued caller is grandfathered, new ones are not.
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kClosed);
  gate.leave();
  queued.join();
  EXPECT_EQ(completed.load(), 1);
  EXPECT_EQ(gate.counters().closed_rejects, 1u);
}

TEST(AdmissionGateTest, ConcurrentEnterLeaveNeverExceedsCapacity) {
  constexpr std::size_t kCapacity = 3;
  AdmissionGate gate(kCapacity, /*max_queue=*/64);
  std::atomic<std::size_t> inside{0};
  std::atomic<bool> overflowed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        const runtime::AdmissionSlot slot(gate, gate.enter());
        if (slot.ticket() != AdmissionGate::Ticket::kAdmitted) continue;
        if (inside.fetch_add(1) + 1 > kCapacity) overflowed.store(true);
        inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(overflowed.load());
  EXPECT_EQ(gate.counters().active, 0u);
}

// ---------------------------------------------------------------------------
// CLI helpers (the strict-parsing and path-diagnostic bugfixes).
// ---------------------------------------------------------------------------

TEST(CliHelpersTest, ParseIntegerRejectsTrailingGarbage) {
  // Regression: std::stoll silently accepted "4x" as 4, so a mistyped
  // "--threads 4x" was served with 4 threads instead of failing.
  EXPECT_EQ(parse_integer("4"), 4);
  EXPECT_EQ(parse_integer("0"), 0);
  EXPECT_EQ(parse_integer("-17"), -17);
  EXPECT_FALSE(parse_integer("4x").has_value());
  EXPECT_FALSE(parse_integer("x4").has_value());
  EXPECT_FALSE(parse_integer("4 ").has_value());
  EXPECT_FALSE(parse_integer(" 4").has_value());
  EXPECT_FALSE(parse_integer("").has_value());
  EXPECT_FALSE(parse_integer("-").has_value());
  EXPECT_FALSE(parse_integer("4.5").has_value());
  EXPECT_FALSE(parse_integer("99999999999999999999").has_value());  // overflow
}

TEST(CliHelpersTest, ExpandPathsDiagnosesMissingAndEmptyPaths) {
  StateDir dir("expand");
  std::filesystem::create_directories(dir.path());
  // Regression: a nonexistent path used to be treated as a file and only
  // failed at load time; now expansion itself names the offender.
  EXPECT_THROW(expand_instance_paths({dir.path() + "/no_such_file.json"}),
               InvalidInput);
  // A directory with no instance files is an error naming the directory,
  // not a silently empty serve.
  EXPECT_THROW(expand_instance_paths({dir.path()}), InvalidInput);

  save_instance_file(dir.path() + "/b.json", small_wire(1), WireFormat::kJson);
  save_instance_file(dir.path() + "/a.json", small_wire(2), WireFormat::kJson);
  std::ofstream(dir.path() + "/notes.txt") << "ignored";
  const std::vector<std::string> files = expand_instance_paths({dir.path()});
  ASSERT_EQ(files.size(), 2u);  // sorted, non-instance files skipped
  EXPECT_EQ(files[0], dir.path() + "/a.json");
  EXPECT_EQ(files[1], dir.path() + "/b.json");
}

TEST(CliHelpersTest, WriteObservabilityFileWarnsInsteadOfFailing) {
  // Both front doors write --metrics-out / --trace-out through this one
  // helper: a writable path gets the body, an unwritable one a warning.
  StateDir dir("obsfile");
  std::filesystem::create_directories(dir.path());
  const std::string path = dir.path() + "/out.prom";
  std::ofstream(path) << "stale contents that must be truncated\n";
  testing::internal::CaptureStderr();
  write_observability_file("prog", path, "metrics",
                           [](std::ostream& os) { os << "body\n"; });
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  std::ifstream in(path, std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), "body\n");

  const std::string unwritable = dir.path() + "/no_such_dir/out.json";
  testing::internal::CaptureStderr();
  write_observability_file("prog", unwritable, "trace",
                           [](std::ostream& os) { os << "body\n"; });
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "prog: warning: cannot write trace to " + unwritable + "\n");
  EXPECT_FALSE(std::filesystem::exists(unwritable));
}

TEST(CliHelpersTest, ReadServedViewNamesTheSampleItLacks) {
  // dsp_served --connect prints its summary row from the daemon's
  // exposition; a sample it needs but cannot find is an error naming that
  // sample, never a row of silent zeros.
  const std::string exposition =
      "# TYPE dsp_serve_engine_portfolio gauge\n"
      "dsp_serve_engine_portfolio 0\n"
      "# TYPE dsp_serve_engine_solve54 gauge\n"
      "dsp_serve_engine_solve54 1\n"
      "dsp_cache_hits 7\n"
      "dsp_cache_misses 3\n"
      "dsp_cache_inflight_joins 1\n"
      "dsp_cache_evictions 2\n"
      "dsp_cache_oversized 4\n"
      "dsp_cache_entries 5\n"
      "dsp_cache_bytes 4096\n"
      "dsp_cache_capacity_bytes 8388608\n";
  const ServedView view = read_served_view(exposition);
  EXPECT_EQ(view.engine, "solve54");
  EXPECT_EQ(view.stats.hits, 7u);
  EXPECT_EQ(view.stats.misses, 3u);
  EXPECT_EQ(view.stats.inflight_joins, 1u);
  EXPECT_EQ(view.stats.evictions, 2u);
  EXPECT_EQ(view.stats.oversized, 4u);
  EXPECT_EQ(view.stats.entries, 5u);
  EXPECT_EQ(view.stats.bytes, 4096u);
  EXPECT_EQ(view.cache_mb, 8u);

  const auto error_of = [](const std::string& text) -> std::string {
    try {
      (void)read_served_view(text);
    } catch (const InvalidInput& error) {
      return error.what();
    }
    return "";
  };
  const auto without = [&](const std::string& line) {
    std::string text = exposition;
    text.erase(text.find(line), line.size());
    return text;
  };
  EXPECT_NE(error_of(without("dsp_cache_capacity_bytes 8388608\n"))
                .find("no dsp_cache_capacity_bytes sample"),
            std::string::npos);
  EXPECT_NE(error_of(without("dsp_cache_misses 3\n"))
                .find("no dsp_cache_misses sample"),
            std::string::npos);
  EXPECT_NE(error_of(without("dsp_serve_engine_solve54 1\n"))
                .find("names no serving engine"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Persistence: the at-rest encoding and the snapshot + log store.
// ---------------------------------------------------------------------------

TEST(PersistTest, SaveLoadRoundTripsEntriesBitExactly) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1), []() { return solve_of(7, "steinberg"); });
  (void)cache.get_or_compute(key_of(2), []() { return solve_of(9, "nfdh"); });

  std::stringstream stream;
  save_entries(stream, PersistKind::kSnapshot, cache.export_entries());
  const PersistLoad load =
      load_entries(stream, PersistKind::kSnapshot, "<test>");
  EXPECT_FALSE(load.truncated_tail);
  ASSERT_EQ(load.entries.size(), 2u);
  for (const PersistedEntry& entry : load.entries) {
    const auto lookup = cache.get_or_compute(
        entry.key, []() -> CachedSolve { throw InvalidInput("must hit"); });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, entry.value.peak);
    EXPECT_EQ(lookup.value->winner, entry.value.winner);
    EXPECT_EQ(lookup.value->packing.start, entry.value.packing.start);
  }
}

TEST(PersistTest, KindAndVersionAreValidated) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1), []() { return solve_of(7); });
  std::stringstream stream;
  save_entries(stream, PersistKind::kLog, cache.export_entries());
  // A log file is not a snapshot.
  EXPECT_THROW(load_entries(stream, PersistKind::kSnapshot, "<test>"),
               InvalidInput);
  std::istringstream garbage("not a DSPC file at all");
  EXPECT_THROW(load_entries(garbage, PersistKind::kLog, "<test>"),
               InvalidInput);
}

TEST(PersistTest, TornLogTailIsRecoveredTornSnapshotThrows) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1), []() { return solve_of(7); });
  (void)cache.get_or_compute(key_of(2), []() { return solve_of(9); });
  std::stringstream stream;
  save_entries(stream, PersistKind::kLog, cache.export_entries());
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 5);  // crash mid-append: torn final entry

  // Log: the complete prefix loads, the torn tail is reported.
  std::istringstream torn_log(bytes);
  const PersistLoad load = load_entries(torn_log, PersistKind::kLog, "<test>");
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_EQ(load.entries.size(), 1u);

  // Snapshot: renamed into place whole, so the same tear is corruption.
  bytes[5] = static_cast<char>(PersistKind::kSnapshot);
  std::istringstream torn_snapshot(bytes);
  EXPECT_THROW(load_entries(torn_snapshot, PersistKind::kSnapshot, "<test>"),
               InvalidInput);
}

TEST(PersistTest, StoreWarmLoadEqualsLiveCacheAcrossRestart) {
  StateDir dir("store");
  const CacheOptions cache_options{1 << 20};
  {
    SolveCache cache(cache_options);
    PersistentStore store(dir.path(), /*snapshot_every=*/3);
    EXPECT_EQ(store.warm_load(cache), 0u);
    cache.set_insert_observer(
        [&](const CacheKey& key,
            const std::shared_ptr<const CachedSolve>& value) {
          store.append(cache, key, *value);
        });
    for (std::uint64_t k = 1; k <= 7; ++k) {
      (void)cache.get_or_compute(key_of(k), [k]() {
        return solve_of(static_cast<Height>(k), std::string("w").append(std::to_string(k)));
      });
    }
    // 7 appends at snapshot_every=3: two automatic compactions happened and
    // the log holds the tail.
    EXPECT_EQ(store.appends(), 7u);
    EXPECT_GE(store.compactions(), 2u);
  }
  // "Restart": a fresh cache warm-loaded from disk equals the live one,
  // bit for bit, for every key.
  SolveCache restarted(cache_options);
  PersistentStore store(dir.path(), 3);
  EXPECT_EQ(store.warm_load(restarted), 7u);
  EXPECT_FALSE(store.recovered_truncated_log());
  const CacheStats stats = restarted.stats();
  EXPECT_EQ(stats.entries, 7u);
  for (std::uint64_t k = 1; k <= 7; ++k) {
    const auto lookup = restarted.get_or_compute(
        key_of(k), []() -> CachedSolve { throw InvalidInput("must hit"); });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, static_cast<Height>(k));
    EXPECT_EQ(lookup.value->winner, std::string("w").append(std::to_string(k)));
  }
}

TEST(PersistTest, CompactedSnapshotReproducesTheGlobalRecencyOrder) {
  // Compact a cache that has overflowed its budget, warm-load the snapshot
  // into a fresh cache: the cache-wide recency order comes back, so under
  // the same later pressure the same keys survive in both.
  StateDir dir("recency");
  constexpr std::size_t kBudget = 48 << 10;
  const auto fill = [](SolveCache& cache, std::uint64_t k) {
    (void)cache.get_or_compute(key_of(k), [k]() {
      return solve_of(static_cast<Height>(k),
                      std::string("w").append(std::to_string(k)));
    });
  };
  const auto keys = [](const SolveCache& cache) {
    std::vector<CacheKey> out;
    for (const CacheEntryView& entry : cache.export_entries()) {
      out.push_back(entry.key);
    }
    return out;
  };
  SolveCache source(CacheOptions{kBudget});
  for (std::uint64_t k = 1; k <= 400; ++k) fill(source, k);
  // Hits reshuffle the warm end away from insertion order.
  for (std::uint64_t k = 400; k >= 300; k -= 7) fill(source, k);
  ASSERT_GT(source.stats().evictions, 0u);
  PersistentStore(dir.path()).compact(source);

  SolveCache restored(CacheOptions{kBudget});
  PersistentStore store(dir.path());
  EXPECT_EQ(store.warm_load(restored), source.stats().entries);
  EXPECT_EQ(keys(restored), keys(source));
  for (std::uint64_t k = 1000; k < 1100; ++k) {
    fill(source, k);
    fill(restored, k);
  }
  EXPECT_EQ(keys(restored), keys(source));
}

TEST(PersistTest, CrashTornLogTailIsDroppedOnWarmLoad) {
  StateDir dir("torn");
  {
    SolveCache cache(CacheOptions{1 << 20});
    PersistentStore store(dir.path(), /*snapshot_every=*/100);
    (void)store.warm_load(cache);
    cache.set_insert_observer(
        [&](const CacheKey& key,
            const std::shared_ptr<const CachedSolve>& value) {
          store.append(cache, key, *value);
        });
    (void)cache.get_or_compute(key_of(1), []() { return solve_of(1); });
    (void)cache.get_or_compute(key_of(2), []() { return solve_of(2); });
    // Simulate the crash: the store object dies with the log un-compacted.
  }
  // Tear the last log record (a mid-append crash).
  const std::string log_path = dir.path() + "/cache.log";
  const auto size = std::filesystem::file_size(log_path);
  std::filesystem::resize_file(log_path, size - 3);

  SolveCache cache(CacheOptions{1 << 20});
  PersistentStore store(dir.path(), 100);
  EXPECT_EQ(store.warm_load(cache), 1u);  // the complete entry survives
  EXPECT_TRUE(store.recovered_truncated_log());
  EXPECT_EQ(cache.stats().entries, 1u);
  // Recovery re-compacted: the next warm load is clean.
  SolveCache again(CacheOptions{1 << 20});
  PersistentStore clean(dir.path(), 100);
  EXPECT_EQ(clean.warm_load(again), 1u);
  EXPECT_FALSE(clean.recovered_truncated_log());
}

// ---------------------------------------------------------------------------
// The daemon end-to-end, over real loopback TCP.
// ---------------------------------------------------------------------------

DaemonOptions test_options() {
  DaemonOptions options;
  options.serve.threads = 2;
  options.cache.capacity_bytes = 4 << 20;
  options.max_queue = 64;
  return options;
}

/// The daemon's metrics exposition, parsed: the one stats surface.
using Samples = std::map<std::string, std::uint64_t>;

Samples scrape(DaemonClient& client) {
  return obs::parse_exposition(client.metrics());
}

/// A bare loopback connection, for frames DaemonClient never sends.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) == 0;
    // A daemon that never answers or never closes fails the test instead
    // of hanging it.
    const timeval timeout{5, 0};
    (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                       sizeof(timeout));
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  void send(const std::string& bytes) {
    ASSERT_TRUE(connected_);
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// One whole reply frame: {type, payload}.
  std::pair<std::uint8_t, std::string> read_frame() {
    const std::string header = read_exact(frame::kHeaderSize);
    if (header.size() != frame::kHeaderSize) return {0, ""};
    const frame::Header parsed = frame::parse_header(header.data());
    return {parsed.type, read_exact(parsed.length)};
  }

  /// True once the daemon has closed its end (recv sees EOF).
  bool closed_by_peer() {
    char byte = 0;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

 private:
  std::string read_exact(std::size_t count) {
    std::string bytes(count, '\0');
    std::size_t got = 0;
    while (got < count) {
      const ssize_t chunk = ::recv(fd_, bytes.data() + got, count - got, 0);
      if (chunk <= 0) break;
      got += static_cast<std::size_t>(chunk);
    }
    bytes.resize(got);
    return bytes;
  }

  int fd_;
  bool connected_ = false;
};

TEST(DaemonTest, ServesSolveAndStatsOverTcp) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());

  const WireInstance wire = small_wire(1);
  const SolveResponse first = client.solve(wire);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.packing.start.size(), wire.items.size());
  const SolveResponse second = client.solve(wire, WireFormat::kJson);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  // Binary and JSON requests are the same request: identical payloads.
  EXPECT_EQ(second.peak, first.peak);
  EXPECT_EQ(second.winner, first.winner);
  EXPECT_EQ(second.packing.start, first.packing.start);

  const Samples stats = scrape(client);
  EXPECT_EQ(stats.at("dsp_serve_engine_portfolio"), 1u);
  EXPECT_EQ(stats.at("dsp_serve_engine_solve54"), 0u);
  EXPECT_EQ(stats.at("dsp_cache_misses"), 1u);
  EXPECT_EQ(stats.at("dsp_cache_hits"), 1u);
  EXPECT_EQ(stats.at("dsp_daemon_served"), 2u);
  EXPECT_EQ(stats.at("dsp_daemon_draining"), 0u);
  daemon.stop();
}

TEST(DaemonTest, ResponsesMatchLocalCachingSolverBitExactly) {
  // The byte-identity contract behind the golden-corpus CI diff: the
  // daemon's answer over TCP equals a local CachingSolver's.
  const DaemonOptions options = test_options();
  Daemon daemon(options);
  daemon.start();
  DaemonClient client(daemon.port());
  CachingSolver local(options.serve, options.cache);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const WireInstance wire = small_wire(seed);
    const SolveResponse remote = client.solve(wire);
    const SolveResponse expected = local.solve(wire.to_instance());
    EXPECT_EQ(remote.peak, expected.peak);
    EXPECT_EQ(remote.winner, expected.winner);
    EXPECT_EQ(remote.packing.start, expected.packing.start);
  }
  daemon.stop();
}

class ClientModeView : public ::testing::TestWithParam<ServeEngine> {};

TEST_P(ClientModeView, ExpositionMatchesALocalCachingSolver) {
  // dsp_served --connect prints the engine and the summary counters it
  // reads from the daemon's exposition; they must equal what dsp_solve
  // prints from a local CachingSolver serving the same requests.
  DaemonOptions options = test_options();
  options.serve.engine = GetParam();
  std::vector<WireInstance> wires;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    wires.push_back(small_wire(seed));
  }
  constexpr int kPasses = 2;  // the second pass is all hits

  std::vector<SolveResponse> remote;
  ServedView served;
  {
    Daemon daemon(options);
    daemon.start();
    DaemonClient client(daemon.port());
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const WireInstance& wire : wires) {
        remote.push_back(client.solve(wire));
      }
    }
    served = read_served_view(client.metrics());
    daemon.stop();
  }

  // Built after the daemon is gone, so its registry samples cannot
  // shadow the daemon's in the exposition read above.
  CachingSolver local(options.serve, options.cache);
  std::size_t r = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const WireInstance& wire : wires) {
      const SolveResponse expected = local.solve(wire.to_instance());
      EXPECT_EQ(remote[r].outcome, expected.outcome);
      EXPECT_EQ(remote[r].peak, expected.peak);
      EXPECT_EQ(remote[r].winner, expected.winner);
      EXPECT_EQ(remote[r].packing.start, expected.packing.start);
      ++r;
    }
  }
  EXPECT_EQ(served.engine, to_string(GetParam()));
  EXPECT_EQ(served.stats, local.stats());
  EXPECT_EQ(served.stats.hits, wires.size());
  EXPECT_EQ(served.cache_mb, options.cache.capacity_bytes >> 20);
}

INSTANTIATE_TEST_SUITE_P(Engines, ClientModeView,
                         ::testing::Values(ServeEngine::kPortfolio,
                                           ServeEngine::kSolve54),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(DaemonTest, InvalidRequestGetsAnErrorFrameAndConnectionSurvives) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());
  WireInstance bad = small_wire(1);
  bad.items[0].width = -5;  // invalid geometry: load_instance rejects it
  EXPECT_THROW((void)client.solve(bad), InvalidInput);
  // The error was answered in-band; the same connection keeps serving.
  const SolveResponse good = client.solve(small_wire(2));
  EXPECT_GT(good.packing.start.size(), 0u);
  EXPECT_EQ(scrape(client).at("dsp_daemon_errors"), 1u);
  daemon.stop();
}

TEST(DaemonTest, RetiredStatsRequestGetsAnErrorFrameThenTheConnectionCloses) {
  // Request type 2 was the stats frame; it is retired, so the daemon
  // treats it like any unknown type: one error frame, then a close.
  Daemon daemon(test_options());
  daemon.start();
  RawConnection raw(daemon.port());
  raw.send(frame::encode_frame(2, std::string()));
  const auto [type, payload] = raw.read_frame();
  EXPECT_EQ(type, frame::kError);
  EXPECT_EQ(frame::decode_message(payload, "error frame"),
            "unknown request frame type 2");
  EXPECT_TRUE(raw.closed_by_peer());
  EXPECT_EQ(daemon.stats().errors, 1u);
  daemon.stop();
}

TEST(DaemonTest, ExpositionCarriesTheTracerSpanCounters) {
  // The span counters and the ring memory gauge leave the daemon as
  // trace.* samples, read from the process-wide tracer at scrape time.
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing_enabled(true);
  obs::Tracer::global().clear();
  Samples samples;
  {
    Daemon daemon(test_options());
    daemon.start();
    DaemonClient client(daemon.port());
    (void)client.solve(small_wire(1));
    samples = scrape(client);
    daemon.stop();
  }
  obs::set_tracing_enabled(was_tracing);
  // The solve's admission-wait and solver spans closed before its answer
  // was written, so the scrape that followed saw them.
  EXPECT_GT(samples.at("dsp_trace_spans_recorded"), 0u);
  EXPECT_LE(samples.at("dsp_trace_spans_recorded"),
            obs::Tracer::global().spans_recorded());
  EXPECT_EQ(samples.at("dsp_trace_spans_dropped"), 0u);
  EXPECT_GT(samples.at("dsp_trace_ring_bytes"), 0u);
  EXPECT_LE(samples.at("dsp_trace_ring_bytes"),
            obs::Tracer::global().ring_bytes());
}

TEST(DaemonTest, WarmRestartKeepsTheCacheBitExactly) {
  StateDir dir("daemon_warm");
  DaemonOptions options = test_options();
  options.persist_dir = dir.path();

  std::vector<SolveResponse> cold;
  {
    Daemon daemon(options);
    daemon.start();
    DaemonClient client(daemon.port());
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      cold.push_back(client.solve(small_wire(seed)));
      EXPECT_EQ(cold.back().outcome, CacheOutcome::kMiss);
    }
    daemon.stop();  // graceful drain compacts the store
  }
  {
    Daemon daemon(options);
    daemon.start();
    EXPECT_EQ(daemon.stats().warm_loaded, 3u);
    DaemonClient client(daemon.port());
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const SolveResponse warm = client.solve(small_wire(seed));
      // Every request hits the restored cache with the identical payload.
      EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
      EXPECT_EQ(warm.peak, cold[seed].peak);
      EXPECT_EQ(warm.winner, cold[seed].winner);
      EXPECT_EQ(warm.packing.start, cold[seed].packing.start);
    }
    const Samples stats = scrape(client);
    EXPECT_EQ(stats.at("dsp_cache_misses"), 0u);
    EXPECT_EQ(stats.at("dsp_cache_hits"), 3u);
    daemon.stop();
  }
}

TEST(DaemonTest, DrainClosesConnectionsAndRefusesNewOnes) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());
  (void)client.solve(small_wire(1));
  daemon.stop();  // blocks until every connection is answered and closed
  EXPECT_TRUE(daemon.stats().draining);
  // The drained daemon closed the idle connection...
  EXPECT_THROW((void)client.try_solve(small_wire(2)), InvalidInput);
  // ...and the listener: new connections are refused, not backlogged.
  EXPECT_THROW(DaemonClient(daemon.port(), "127.0.0.1", 100), InvalidInput);
}

TEST(DaemonTest, TinyGateShedsInsteadOfQueueingUnbounded) {
  DaemonOptions options = test_options();
  options.max_concurrent = 1;
  options.max_queue = 0;
  Daemon daemon(options);
  daemon.start();
  constexpr std::size_t kClients = 4;
  std::atomic<std::uint64_t> ok{0}, busy{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      DaemonClient client(daemon.port());
      for (std::uint64_t r = 0; r < 6; ++r) {
        const auto reply = client.try_solve(small_wire(c * 17 + r));
        if (reply.status == DaemonClient::SolveReply::Status::kOk) {
          ++ok;
        } else {
          ASSERT_EQ(reply.status, DaemonClient::SolveReply::Status::kBusy);
          ++busy;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok.load() + busy.load(), kClients * 6);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(daemon.stats().shed, busy.load());
  daemon.stop();
}

TEST(DaemonTest, ConcurrentClientsGetConsistentAnswers) {
  // The sanitizer soak: many connections, overlapping identical and
  // distinct requests, every answer checked against a local reference.
  const DaemonOptions options = test_options();
  Daemon daemon(options);
  daemon.start();
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kDistinct = 4;
  CachingSolver local(options.serve, options.cache);
  std::vector<SolveResponse> expected;
  for (std::uint64_t seed = 0; seed < kDistinct; ++seed) {
    expected.push_back(local.solve(small_wire(seed).to_instance()));
  }
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      DaemonClient client(daemon.port());
      for (std::uint64_t r = 0; r < 12; ++r) {
        const std::uint64_t seed = (c + r) % kDistinct;
        const SolveResponse response = client.solve(small_wire(seed));
        if (response.peak != expected[seed].peak ||
            response.winner != expected[seed].winner ||
            response.packing.start != expected[seed].packing.start) {
          mismatch.store(true);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_FALSE(mismatch.load());
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.served, kClients * 12);
  EXPECT_EQ(stats.errors, 0u);
  daemon.stop();
}

}  // namespace
}  // namespace dsp::service
