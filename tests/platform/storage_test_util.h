#ifndef CYCLERANK_TESTS_PLATFORM_STORAGE_TEST_UTIL_H_
#define CYCLERANK_TESTS_PLATFORM_STORAGE_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "platform/platform_options.h"
#include "platform/spill_tier.h"

namespace cyclerank {

/// Directed chain 0→1→…→n-1: a graph whose MemoryBytes scales with n,
/// shared by the storage-layer suites.
inline GraphPtr ChainGraph(NodeId n) {
  GraphBuilder builder;
  for (NodeId u = 0; u + 1 < n; ++u) builder.AddEdge(u, u + 1);
  return builder.BuildShared().value();
}

/// Options with only the uploaded-dataset byte budget set.
inline PlatformOptions GraphBudget(size_t bytes) {
  PlatformOptions options;
  options.graph_store_bytes = bytes;
  return options;
}

/// Options with only the result-retention bound set.
inline PlatformOptions RetainResults(size_t n) {
  PlatformOptions options;
  options.max_retained_results = n;
  return options;
}

/// A fresh, empty directory for spill-tier suites under this process's
/// scratch root, `<TempDir()>/cyclerank_<pid>`: two test processes on one
/// host (a Release and a sanitizer suite, say) never share a directory,
/// and the root is removed when the process exits.
inline std::string FreshSpillDir(const std::string& name) {
  static const struct ScratchRoot {
    std::filesystem::path path = std::filesystem::path(::testing::TempDir()) /
                                 ("cyclerank_" + std::to_string(::getpid()));
    ~ScratchRoot() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } root;
  const std::filesystem::path dir = root.path / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Puts `payload` under `key` and waits for the write-behind flush: an
/// entry counts as acknowledged (durable) only when both `Put` and the
/// following `Flush()` return OK. Returns the first error.
inline Status PutAndFlush(SpillTier& tier, const std::string& key,
                          std::string_view payload, uint64_t meta = 0) {
  const Status put = tier.Put(key, payload, meta);
  if (!put.ok()) return put;
  return tier.Flush();
}

}  // namespace cyclerank

#endif  // CYCLERANK_TESTS_PLATFORM_STORAGE_TEST_UTIL_H_
