// Tests for the parallel library generator (determinism across thread
// counts), the work-stealing thread pool, splitmix seed derivation, and the
// value-sensitive artifact-cache key.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/scale.hpp"
#include "library/cache.hpp"
#include "library/generator.hpp"

namespace adapex {
namespace {

/// A spec small enough to generate a few times per test run, but covering
/// all three families and several rates so the sweep really fans out.
LibraryGenSpec fast_spec() {
  auto spec = make_gen_spec(cifar10_like_spec(), ExperimentScale::tiny());
  spec.dataset.train_size = 120;
  spec.dataset.test_size = 60;
  spec.initial_train.epochs = 3;
  spec.retrain.epochs = 1;
  spec.prune_rates_pct = {0, 25, 50};
  spec.conf_thresholds_pct = {0, 50};
  return spec;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 200);
  // The pool is reusable after a barrier.
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 250);
}

TEST(ThreadPool, ThrowingTaskDoesNotTerminateAndWaitRethrows) {
  // Before the exception-capture contract a throwing task escaped into its
  // worker thread and std::terminate()d the whole process.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&ran, i] {
      if (i == 3) throw ConfigError("task 3 failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(pool.wait(), ConfigError);
  // Tasks that ran before the failure completed; none ran twice.
  EXPECT_LE(ran.load(), 7);
}

TEST(ThreadPool, FirstExceptionWinsAndQueueDrains) {
  // Single worker: deterministic order. The first throwing task's exception
  // is the one wait() rethrows, and every task queued after the failure is
  // drained without running.
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  pool.submit([] { throw ConfigError("first"); });
  pool.submit([] { throw ParseError("second"); });
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, ReusableAfterFailure) {
  // wait() resets the failure state: the next submit/wait round behaves as
  // if the pool were freshly constructed.
  ThreadPool pool(3);
  pool.submit([] { throw ConfigError("boom"); });
  EXPECT_THROW(pool.wait(), ConfigError);

  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, EnvThreadCountParsing) {
  ASSERT_EQ(setenv("ADAPEX_THREADS", "6", 1), 0);
  EXPECT_EQ(ThreadPool::env_thread_count(), 6u);
  ASSERT_EQ(setenv("ADAPEX_THREADS", "0", 1), 0);
  EXPECT_THROW(ThreadPool::env_thread_count(), ConfigError);
  ASSERT_EQ(setenv("ADAPEX_THREADS", "lots", 1), 0);
  EXPECT_THROW(ThreadPool::env_thread_count(), ConfigError);
  ASSERT_EQ(unsetenv("ADAPEX_THREADS"), 0);
  EXPECT_GE(ThreadPool::env_thread_count(), 1u);
}

TEST(WorkTeam, RunsEveryIndexOnceAtEverySize) {
  for (std::size_t size : {1, 2, 3, 4}) {
    WorkTeam team(size);
    EXPECT_EQ(team.size(), size);
    for (std::size_t count : {0, 1, 2, 7, 100}) {
      std::vector<std::atomic<int>> hits(count);
      // Reused across runs: every run must see the previous one finished.
      for (int round = 0; round < 3; ++round) {
        team.run(count, [&hits](std::size_t i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        });
      }
      for (const auto& h : hits) EXPECT_EQ(h.load(), 3) << "size " << size;
    }
  }
}

TEST(WorkTeam, ScopeInstallsTheTeamAndRunsNeverNest) {
  EXPECT_EQ(WorkTeam::current(), nullptr);
  EXPECT_EQ(team_size(), 1u);
  WorkTeam team(3);
  {
    const WorkTeam::TeamScope scope(&team);
    EXPECT_EQ(WorkTeam::current(), &team);
    EXPECT_EQ(team_size(), 3u);
    // Inside a run no thread sees a team, so an inner team_for runs inline.
    std::atomic<int> saw_team{0};
    std::atomic<int> inner{0};
    team_for(8, [&](std::size_t) {
      if (team_size() != 1) saw_team.fetch_add(1, std::memory_order_relaxed);
      team_for(4, [&](std::size_t) {
        inner.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(saw_team.load(), 0);
    EXPECT_EQ(inner.load(), 32);
    EXPECT_EQ(WorkTeam::current(), &team);
  }
  EXPECT_EQ(WorkTeam::current(), nullptr);
}

TEST(WorkTeam, RethrowsTheFirstExceptionAndStaysUsable) {
  WorkTeam team(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(team.run(64,
                        [&ran](std::size_t i) {
                          if (i == 5) throw ConfigError("index 5");
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
               ConfigError);
  EXPECT_LE(ran.load(), 63);
  std::atomic<int> count{0};
  team.run(64, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(WorkTeam, TeamsLargerThanTheHostFinish) {
  // Two teams of one thread more than the host has cores run side by side:
  // spinning helpers must yield and block rather than starve the owners.
  const std::size_t size =
      std::max<std::size_t>(1, std::thread::hardware_concurrency()) + 1;
  std::atomic<long> total{0};
  auto drive = [&] {
    WorkTeam team(size);
    for (int round = 0; round < 200; ++round) {
      team.run(size * 2, [&total](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    }
  };
  std::thread a(drive), b(drive);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), static_cast<long>(2 * 200 * size * 2));
}

TEST(SeedDerivation, UniqueAcrossSweepAndRoots) {
  // The retrain seed for every (variant, rate) design point must be unique,
  // including across nearby root seeds — the old additive scheme placed all
  // streams within a few thousand of the root, so roots 15 apart reused
  // each other's retrain streams and roots ~1000 apart collided them with
  // the base-training seeds seed+1 / seed+11.
  std::set<std::uint64_t> seen;
  std::size_t expected = 0;
  for (std::uint64_t root = 7; root < 11; ++root) {
    for (std::uint64_t variant = 0; variant < 3; ++variant) {
      for (int rate = 0; rate <= 85; rate += 5) {
        seen.insert(derive_seed(root, variant, static_cast<std::uint64_t>(rate)));
        ++expected;
      }
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(LibraryParallel, ByteIdenticalAcrossThreadCounts) {
  // 2 threads gives each base family one worker; 3 leaves one idle during
  // base training and gives sweep-tail retrains teams of 3 (uneven chunks);
  // 4 gives each family a team of 2 and fans the sweep out; 8 gives teams
  // of 4, more threads than a 4-core host has. Compare the saved artifacts
  // byte for byte, not just the in-memory rows.
  std::vector<std::string> bytes;
  for (int threads : {1, 2, 3, 4, 8}) {
    auto spec = fast_spec();
    spec.num_threads = threads;
    const std::string path =
        "/tmp/adapex_parallel_t" + std::to_string(threads) + ".json";
    generate_library(spec).save(path);
    bytes.push_back(read_file(path));
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  for (std::size_t i = 1; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[0], bytes[i]) << "run " << i;
  }
}

TEST(LibraryParallel, EarlyExitOnlyResumeTrainsOnEveryWorker) {
  // A journaled run, then a resume with every early-exit checkpoint
  // removed: the no-exit points and the reference accuracy replay, so the
  // early-exit family trains alone, on a team of all four threads. The
  // resumed Library must equal the uninterrupted one byte for byte.
  auto spec = fast_spec();
  spec.num_threads = 4;
  const std::string journal =
      "/tmp/adapex_parallel_ee_resume_" + std::to_string(::getpid());
  std::filesystem::remove_all(journal);
  spec.journal_dir = journal;
  GenerationReport fresh;
  spec.report = &fresh;
  const std::string want = generate_library(spec).to_json().dump(1);
  EXPECT_EQ(fresh.base_train_families, 2u);
  EXPECT_EQ(fresh.base_train_team, 2u);

  const std::string dir = journal + "/" + library_cache_key(spec);
  std::size_t removed = 0;
  for (const PointOutcome& p : fresh.points) {
    if (p.variant == ModelVariant::kNoExit) continue;
    removed += std::filesystem::remove(dir + "/point_" +
                                       std::to_string(p.index) + ".json");
  }
  ASSERT_GT(removed, 0u);

  GenerationReport resumed;
  spec.report = &resumed;
  EXPECT_EQ(generate_library(spec).to_json().dump(1), want);
  EXPECT_EQ(resumed.count(PointStatus::kReplayed),
            fresh.points.size() - removed);
  EXPECT_EQ(resumed.base_train_families, 1u);
  EXPECT_EQ(resumed.base_train_team, 4u);
  EXPECT_TRUE(resumed.summary().ends_with(" s on 1×4 threads"))
      << resumed.summary();
  EXPECT_EQ(resumed.to_json().at("base_train_team").as_number(), 4.0);
  std::filesystem::remove_all(journal);
}

TEST(LibraryParallel, ThreadCountFromEnv) {
  auto spec = fast_spec();
  spec.variants = {ModelVariant::kNoExit};
  spec.prune_rates_pct = {0, 50};
  spec.num_threads = 1;
  const std::string serial = generate_library(spec).to_json().dump(1);

  ASSERT_EQ(setenv("ADAPEX_THREADS", "3", 1), 0);
  spec.num_threads = 0;  // resolve from the environment
  const std::string via_env = generate_library(spec).to_json().dump(1);
  EXPECT_EQ(serial, via_env);

  // An explicit num_threads never reads the environment, not even for the
  // reference-accuracy evaluation: a malformed ADAPEX_THREADS is ignored.
  ASSERT_EQ(setenv("ADAPEX_THREADS", "lots", 1), 0);
  spec.num_threads = 1;
  std::string explicit_serial;
  EXPECT_NO_THROW(explicit_serial = generate_library(spec).to_json().dump(1));
  ASSERT_EQ(unsetenv("ADAPEX_THREADS"), 0);
  EXPECT_EQ(serial, explicit_serial);
}

TEST(LibraryParallel, OrderedProgressAtAnyThreadCount) {
  auto spec = fast_spec();
  std::vector<std::string> serial_msgs, parallel_msgs;
  spec.num_threads = 1;
  spec.on_progress = [&](const std::string& s) { serial_msgs.push_back(s); };
  generate_library(spec);
  spec.num_threads = 4;
  spec.on_progress = [&](const std::string& s) { parallel_msgs.push_back(s); };
  generate_library(spec);
  // The parallel run adds one "sweeping N design points" banner; the
  // per-design-point messages must arrive in the identical sweep order.
  std::vector<std::string> filtered;
  for (const auto& m : parallel_msgs) {
    if (!m.starts_with("sweeping")) filtered.push_back(m);
  }
  EXPECT_EQ(filtered, serial_msgs);
}

TEST(LibraryCacheKey, SensitiveToEveryGenerationKnob) {
  const auto base = fast_spec();
  const std::string base_key = library_cache_key(base);

  // Equal specs, equal keys; output-irrelevant knobs leave the key alone.
  EXPECT_EQ(library_cache_key(fast_spec()), base_key);
  {
    auto s = fast_spec();
    s.num_threads = 8;
    s.on_progress = [](const std::string&) {};
    EXPECT_EQ(library_cache_key(s), base_key);
  }

  // Sweep *values* at unchanged sizes (the schema-v1 bug).
  auto mutate = [&](auto&& fn) {
    auto s = fast_spec();
    fn(s);
    EXPECT_NE(library_cache_key(s), base_key);
  };
  mutate([](LibraryGenSpec& s) { s.prune_rates_pct.back() = 55; });
  mutate([](LibraryGenSpec& s) { s.conf_thresholds_pct.back() = 45; });
  mutate([](LibraryGenSpec& s) {
    s.variants = {ModelVariant::kNoExit, ModelVariant::kPrunedExits};
  });
  mutate([](LibraryGenSpec& s) {
    s.variants = {ModelVariant::kNoExit, ModelVariant::kNotPrunedExits};
  });

  // Exits configuration.
  mutate([](LibraryGenSpec& s) { s.exits.exits[0].ops = ExitOps::kPoolFc; });
  mutate([](LibraryGenSpec& s) { s.exits.exits.pop_back(); });
  mutate([](LibraryGenSpec& s) { s.exits.prune_exits = true; });

  // Folding style / device model / power / reconfig (omitted in v1).
  mutate([](LibraryGenSpec& s) { s.folding_style.conv_caps_per_block[0] = {8, 36}; });
  mutate([](LibraryGenSpec& s) { s.folding_style.fc_caps = {4, 8}; });
  mutate([](LibraryGenSpec& s) { s.folding_style.exit_conv_caps = {2, 12}; });
  mutate([](LibraryGenSpec& s) { s.accel.fclk_mhz = 150.0; });
  mutate([](LibraryGenSpec& s) { s.accel.cost.fifo_depth = 128; });
  mutate([](LibraryGenSpec& s) { s.accel.cost.lut_per_pe = 50.0; });
  mutate([](LibraryGenSpec& s) { s.power.static_w = 0.9; });
  mutate([](LibraryGenSpec& s) { s.power.w_per_klut = 0.05; });
  mutate([](LibraryGenSpec& s) { s.reconfig.base_ms = 200.0; });

  // Full train configs (v1 hashed epochs only).
  mutate([](LibraryGenSpec& s) { s.initial_train.lr *= 2.0; });
  mutate([](LibraryGenSpec& s) { s.initial_train.momentum = 0.8; });
  mutate([](LibraryGenSpec& s) { s.initial_train.seed += 1; });
  mutate([](LibraryGenSpec& s) { s.initial_train.augment = false; });
  mutate([](LibraryGenSpec& s) { s.initial_train.exit_weights = {1.0, 0.5, 0.5}; });
  mutate([](LibraryGenSpec& s) { s.retrain.lr *= 2.0; });
  mutate([](LibraryGenSpec& s) { s.retrain.epochs += 1; });

  // Dataset and model knobs that were already hashed stay hashed.
  mutate([](LibraryGenSpec& s) { s.dataset.flip_symmetry = false; });
  mutate([](LibraryGenSpec& s) { s.dataset.max_shift = 1; });
  mutate([](LibraryGenSpec& s) { s.dataset.seed += 1; });
  mutate([](LibraryGenSpec& s) { s.cnv.weight_bits = 4; });
  mutate([](LibraryGenSpec& s) { s.seed += 1; });
}

TEST(LibraryCache, CorruptArtifactIsRegenerated) {
  const std::string dir = "/tmp/adapex_test_cache_corrupt";
  std::filesystem::remove_all(dir);
  auto spec = fast_spec();
  spec.variants = {ModelVariant::kNoExit};
  spec.prune_rates_pct = {0};
  spec.conf_thresholds_pct = {50};

  const Library first = generate_or_load_library(spec, dir);
  const std::string path = dir + "/library_" + library_cache_key(spec) + ".json";
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the artifact mid-document, as a crashed pre-atomic-publish
  // writer would have left it.
  write_file(path, "{\"dataset\": \"cifar10-like\", \"entr");
  std::vector<std::string> msgs;
  spec.on_progress = [&](const std::string& s) { msgs.push_back(s); };
  const Library second = generate_or_load_library(spec, dir);
  EXPECT_EQ(second.entries.size(), first.entries.size());
  EXPECT_DOUBLE_EQ(second.reference_accuracy, first.reference_accuracy);
  bool reported = false;
  for (const auto& m : msgs) {
    if (m.starts_with("cache: quarantining corrupt artifact")) reported = true;
  }
  EXPECT_TRUE(reported);

  // The corrupt bytes were preserved for postmortem, not deleted, and the
  // regenerated artifact is valid. Apart from the quarantine file no other
  // debris (temp files) is left behind.
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_NO_THROW(Library::load(path));
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const auto ext = e.path().extension();
    EXPECT_TRUE(ext == ".json" || ext == ".corrupt") << e.path();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace adapex
