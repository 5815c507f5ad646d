#include "common/env.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cyclerank {
namespace {

/// A fresh, empty directory under the test temp root; the pid keeps two
/// test processes on one host apart.
std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("cyclerank_env_" + name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------- PosixEnv --

TEST(PosixEnvTest, WriteReadRoundTripsBinaryData) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("roundtrip");
  const std::string path = dir + "/blob";
  std::string payload = "binary\0payload\xff\x01";
  payload += std::string(1, '\0');
  ASSERT_TRUE(env->WriteFile(path, payload).ok());

  auto size = env->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());

  auto read = env->ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);

  auto prefix = env->ReadFilePrefix(path, 6);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(*prefix, "binary");

  // Asking for more than the file holds returns the whole file.
  auto over = env->ReadFilePrefix(path, payload.size() + 100);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(*over, payload);
}

TEST(PosixEnvTest, WriteFileTruncatesExistingContent) {
  Env* env = Env::Default();
  const std::string path = FreshDir("truncate") + "/f";
  ASSERT_TRUE(env->WriteFile(path, "a much longer first version").ok());
  ASSERT_TRUE(env->WriteFile(path, "short").ok());
  auto read = env->ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "short");
}

TEST(PosixEnvTest, ListDirReturnsSortedRegularFilesOnly) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("listdir");
  ASSERT_TRUE(env->WriteFile(dir + "/zebra", "z").ok());
  ASSERT_TRUE(env->WriteFile(dir + "/apple", "a").ok());
  ASSERT_TRUE(env->WriteFile(dir + "/mango", "m").ok());
  ASSERT_TRUE(env->CreateDirs(dir + "/subdir").ok());  // not a regular file

  auto names = env->ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"apple", "mango", "zebra"}));
}

TEST(PosixEnvTest, ListDirOfMissingDirectoryFails) {
  auto names = Env::Default()->ListDir(FreshDir("gone") + "/nope");
  EXPECT_FALSE(names.ok());
}

TEST(PosixEnvTest, CreateDirsIsIdempotentAndMakesParents) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("mkdirs") + "/a/b/c";
  ASSERT_TRUE(env->CreateDirs(dir).ok());
  ASSERT_TRUE(env->CreateDirs(dir).ok());  // already exists: still OK
  EXPECT_TRUE(env->WriteFile(dir + "/probe", "x").ok());
}

TEST(PosixEnvTest, RenameReplacesAndRemoveIsIdempotent) {
  Env* env = Env::Default();
  const std::string dir = FreshDir("rename");
  ASSERT_TRUE(env->WriteFile(dir + "/src", "new").ok());
  ASSERT_TRUE(env->WriteFile(dir + "/dst", "old").ok());
  ASSERT_TRUE(env->Rename(dir + "/src", dir + "/dst").ok());
  auto read = env->ReadFile(dir + "/dst");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "new");
  EXPECT_FALSE(env->FileSize(dir + "/src").ok());

  ASSERT_TRUE(env->Remove(dir + "/dst").ok());
  EXPECT_TRUE(env->Remove(dir + "/dst").ok());  // missing: idempotent OK
}

TEST(PosixEnvTest, ReadingMissingFileFails) {
  Env* env = Env::Default();
  const std::string path = FreshDir("missing") + "/nope";
  EXPECT_FALSE(env->ReadFile(path).ok());
  EXPECT_FALSE(env->ReadFilePrefix(path, 4).ok());
  EXPECT_FALSE(env->FileSize(path).ok());
}

// ------------------------------------------------------ FaultInjectingEnv --

TEST(FaultInjectingEnvTest, TransientFaultFiresOnNthMatchThenDisarms) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("transient");
  env.AddFault({EnvFault::Kind::kTransient, EnvOp::kWrite, "", /*nth=*/2});

  EXPECT_TRUE(env.WriteFile(dir + "/one", "1").ok());    // 1st: passes
  Status second = env.WriteFile(dir + "/two", "2");      // 2nd: injected
  EXPECT_EQ(second.code(), StatusCode::kIOError);
  EXPECT_TRUE(env.WriteFile(dir + "/three", "3").ok());  // disarmed again

  const FaultInjectionStats stats = env.stats();
  EXPECT_EQ(stats.injected, 1u);
  EXPECT_EQ(stats.ops, 3u);
  // The failed write never reached the disk.
  EXPECT_FALSE(Env::Default()->FileSize(dir + "/two").ok());
}

TEST(FaultInjectingEnvTest, PersistentFaultFailsUntilCleared) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("persistent");
  env.AddFault({EnvFault::Kind::kPersistent, EnvOp::kWrite, "", 1});

  EXPECT_FALSE(env.WriteFile(dir + "/a", "x").ok());
  EXPECT_FALSE(env.WriteFile(dir + "/b", "x").ok());
  EXPECT_FALSE(env.WriteFile(dir + "/c", "x").ok());
  // Reads are untouched by a kWrite schedule.
  ASSERT_TRUE(Env::Default()->WriteFile(dir + "/d", "direct").ok());
  EXPECT_TRUE(env.ReadFile(dir + "/d").ok());

  env.ClearFaults();  // the disk heals
  EXPECT_TRUE(env.WriteFile(dir + "/a", "x").ok());
}

TEST(FaultInjectingEnvTest, PathSubstringScopesTheFault) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("scoped");
  env.AddFault({EnvFault::Kind::kPersistent, EnvOp::kWrite, ".spill", 1});

  EXPECT_FALSE(env.WriteFile(dir + "/k.spill.tmp", "x").ok());
  EXPECT_TRUE(env.WriteFile(dir + "/manifest.tmp", "x").ok());
}

TEST(FaultInjectingEnvTest, TornWriteLeavesAStrictPrefixOnDisk) {
  FaultInjectingEnv env(Env::Default());
  const std::string path = FreshDir("torn") + "/blob";
  env.AddFault({EnvFault::Kind::kTornWrite, EnvOp::kWrite, "", 1});

  const std::string payload = "0123456789";
  EXPECT_FALSE(env.WriteFile(path, payload).ok());
  auto on_disk = Env::Default()->ReadFile(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, "01234");  // deterministic half-length prefix

  // One-shot: the next write goes through whole.
  EXPECT_TRUE(env.WriteFile(path, payload).ok());
  on_disk = Env::Default()->ReadFile(path);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, payload);
}

TEST(FaultInjectingEnvTest, CrashPointTearsTheWriteAndKillsTheEnv) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("crash");
  env.AddFault({EnvFault::Kind::kCrashPoint, EnvOp::kWrite, "", 2});

  ASSERT_TRUE(env.WriteFile(dir + "/first", "intact").ok());
  EXPECT_FALSE(env.WriteFile(dir + "/second", "torn-here").ok());
  EXPECT_TRUE(env.crashed());

  // Every later op fails, regardless of kind — the process view is gone.
  EXPECT_FALSE(env.ReadFile(dir + "/first").ok());
  EXPECT_FALSE(env.ListDir(dir).ok());
  EXPECT_FALSE(env.Remove(dir + "/first").ok());

  // But the disk itself holds the pre-crash state plus the torn prefix.
  auto survivor = Env::Default()->ReadFile(dir + "/first");
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(*survivor, "intact");
  auto torn = Env::Default()->ReadFile(dir + "/second");
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(*torn, "torn");  // strict half of "torn-here" (9 / 2 = 4)

  // ClearFaults models restarting against the same directory.
  env.ClearFaults();
  EXPECT_FALSE(env.crashed());
  EXPECT_TRUE(env.ReadFile(dir + "/first").ok());
}

TEST(FaultInjectingEnvTest, RenameMatchesEitherPathName) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("renamematch");
  ASSERT_TRUE(env.WriteFile(dir + "/a.tmp", "x").ok());
  // Substring names only the *destination*; the source is "a.tmp".
  env.AddFault({EnvFault::Kind::kTransient, EnvOp::kRename, "final-name", 1});

  EXPECT_FALSE(env.Rename(dir + "/a.tmp", dir + "/final-name").ok());
  EXPECT_TRUE(env.Rename(dir + "/a.tmp", dir + "/final-name").ok());
}

TEST(FaultInjectingEnvTest, TwoFaultsKeepIndependentMatchPositions) {
  FaultInjectingEnv env(Env::Default());
  const std::string dir = FreshDir("independent");
  // Both armed before any call: each counts every write, so they fire on
  // the 1st and 3rd write respectively even though the first one fires.
  env.AddFault({EnvFault::Kind::kTransient, EnvOp::kWrite, "", 1});
  env.AddFault({EnvFault::Kind::kTransient, EnvOp::kWrite, "", 3});

  EXPECT_FALSE(env.WriteFile(dir + "/w1", "x").ok());
  EXPECT_TRUE(env.WriteFile(dir + "/w2", "x").ok());
  EXPECT_FALSE(env.WriteFile(dir + "/w3", "x").ok());
  EXPECT_TRUE(env.WriteFile(dir + "/w4", "x").ok());
}

TEST(FaultInjectingEnvTest, RandomFaultSequenceIsSeedDeterministic) {
  const std::string dir = FreshDir("seeded");
  auto run = [&dir](uint64_t seed) {
    FaultInjectingEnv env(Env::Default(), seed);
    env.SetRandomFaultRate(0.5);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          env.WriteFile(dir + "/f" + std::to_string(i), "x").ok());
    }
    return outcomes;
  };
  const std::vector<bool> a = run(42);
  const std::vector<bool> b = run(42);
  const std::vector<bool> c = run(43);
  EXPECT_EQ(a, b);  // same seed, same call order → identical decisions
  EXPECT_NE(a, c);  // different seed → (overwhelmingly likely) different
  // At rate 0.5 over 64 calls, both outcomes must appear.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjectingEnvTest, RandomRateSparesReadOperations) {
  const std::string dir = FreshDir("readspared");
  ASSERT_TRUE(Env::Default()->WriteFile(dir + "/f", "x").ok());
  FaultInjectingEnv env(Env::Default(), 7);
  env.SetRandomFaultRate(1.0);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(env.ReadFile(dir + "/f").ok());
    EXPECT_TRUE(env.FileSize(dir + "/f").ok());
    EXPECT_TRUE(env.ListDir(dir).ok());
  }
  EXPECT_FALSE(env.WriteFile(dir + "/g", "x").ok());  // mutations still fail
}

}  // namespace
}  // namespace cyclerank
