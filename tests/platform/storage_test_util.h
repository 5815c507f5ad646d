#ifndef CYCLERANK_TESTS_PLATFORM_STORAGE_TEST_UTIL_H_
#define CYCLERANK_TESTS_PLATFORM_STORAGE_TEST_UTIL_H_

#include <filesystem>
#include <string>

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

/// A fresh, empty directory under the test temp root for spill-tier
/// suites; any leftovers from a previous run are removed first.
inline std::string FreshSpillDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("cyclerank_" + name);
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
