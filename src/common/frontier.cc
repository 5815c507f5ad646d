#include "common/frontier.h"

#include <memory>

#include "common/parallel_for.h"

namespace cyclerank {

FrontierEngine::FrontierEngine(uint32_t num_nodes, const Options& options)
    : num_nodes_(num_nodes),
      options_(options),
      resolved_threads_(ResolveThreadCount(options.num_threads)),
      next_seen_(num_nodes),
      scratch_([num_nodes] { return std::make_unique<Scratch>(num_nodes); }) {}

FrontierEngine::~FrontierEngine() = default;

void FrontierEngine::Seed(uint32_t v) {
  if (next_seen_.Contains(v)) return;
  next_seen_.Add(v);
  frontier_.push_back(v);
}

void FrontierEngine::Next(uint32_t v) {
  if (next_seen_.Contains(v)) return;
  next_seen_.Add(v);
  next_.push_back(v);
}

void FrontierEngine::PartitionFrontier(const Callbacks& callbacks) {
  chunk_offsets_.clear();
  chunk_offsets_.push_back(0);
  const uint64_t target =
      options_.chunk_weight == 0 ? 1 : options_.chunk_weight;
  const std::span<const uint32_t> weights = callbacks.node_weights;
  uint64_t acc = 0;
  for (size_t i = 0; i < frontier_.size(); ++i) {
    acc += 1 + (weights.empty() ? 0 : weights[frontier_[i]]);
    if (acc >= target && i + 1 < frontier_.size()) {
      chunk_offsets_.push_back(i + 1);
      acc = 0;
    }
  }
  chunk_offsets_.push_back(frontier_.size());
}

void FrontierEngine::Run(const Callbacks& callbacks) {
  ThreadPool* pool = resolved_threads_ > 1 ? GlobalComputePool() : nullptr;

  for (uint32_t round = 0; !frontier_.empty(); ++round) {
    PartitionFrontier(callbacks);
    const size_t num_chunks = chunk_offsets_.size() - 1;
    partials_.resize(num_chunks);
    for (ChunkPartial& partial : partials_) {
      partial.candidates.clear();
      partial.delta_groups.clear();
    }

    ParallelFor(pool, num_chunks, /*grain=*/1, resolved_threads_,
                [&](size_t c, size_t, size_t) {
                  auto lease = scratch_.Acquire();
                  Scratch& scratch = *lease;
                  scratch.BeginChunk();
                  ChunkPartial& partial = partials_[c];
                  Emitter emitter(&scratch, &partial.candidates,
                                  &partial.delta_groups);
                  callbacks.expand(
                      std::span<const uint32_t>(
                          frontier_.data() + chunk_offsets_[c],
                          chunk_offsets_[c + 1] - chunk_offsets_[c]),
                      emitter);
                });

    // Serial merge in ascending chunk order: the only writer of shared
    // numeric state, so its fixed iteration order and fixed batch
    // granularity pin the floating-point result for every thread count.
    next_.clear();
    next_seen_.NewEpoch();
    for (const ChunkPartial& partial : partials_) {
      if (callbacks.candidates && !partial.candidates.empty()) {
        callbacks.candidates(partial.candidates);
      }
      if (callbacks.deltas && !partial.delta_groups.empty()) {
        callbacks.deltas(partial.delta_groups);
      }
    }
    frontier_.swap(next_);

    if (callbacks.round_done && !callbacks.round_done(round)) break;
  }
}

}  // namespace cyclerank
