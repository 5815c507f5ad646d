#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cyclerank {
namespace {

size_t GlobalPoolSize() {
  if (const char* env = std::getenv("CYCLERANK_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool* GlobalComputePool() {
  // Intentionally leaked: worker threads must stay joinable for the whole
  // process lifetime, and static-destruction order against other globals
  // that might still post work is otherwise unknowable.
  static ThreadPool* pool = new ThreadPool(GlobalPoolSize());
  return pool;
}

uint32_t ResolveThreadCount(uint32_t requested) {
  if (requested == 0) {
    return static_cast<uint32_t>(GlobalComputePool()->num_threads());
  }
  return requested;
}

void ParallelFor(ThreadPool* pool, size_t total, size_t grain,
                 uint32_t max_threads,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  if (total == 0) return;
  if (grain == 0) grain = 1;
  const size_t num_chunks = NumChunks(total, grain);

  if (max_threads <= 1 || num_chunks <= 1 || pool == nullptr) {
    for (size_t c = 0; c < num_chunks; ++c) {
      fn(c, c * grain, std::min(total, (c + 1) * grain));
    }
    return;
  }

  // Shared between the caller and helper tasks. Held by shared_ptr because
  // a queued helper can outlive this call: once the caller has seen every
  // chunk complete it returns, and a late helper merely reads `next`,
  // finds no work, and drops its reference.
  struct Ctx {
    const std::function<void(size_t, size_t, size_t)>* fn;
    size_t total, grain, num_chunks;
    std::atomic<size_t> next{0};
    Mutex mu{lock_rank::kParallelForMu, "ParallelFor::Ctx::mu"};
    CondVar all_done;
    size_t done CYR_GUARDED_BY(mu) = 0;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->fn = &fn;
  ctx->total = total;
  ctx->grain = grain;
  ctx->num_chunks = num_chunks;

  auto drain = [](const std::shared_ptr<Ctx>& c) {
    size_t completed = 0;
    while (true) {
      const size_t chunk = c->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= c->num_chunks) break;
      // `*c->fn` is only dereferenced for a claimed chunk, and the caller
      // cannot return before every claimed chunk is reported done — so the
      // referenced callable is still alive here.
      (*c->fn)(chunk, chunk * c->grain,
               std::min(c->total, (chunk + 1) * c->grain));
      ++completed;
    }
    if (completed > 0) {
      MutexLock lock(c->mu);
      c->done += completed;
      if (c->done == c->num_chunks) c->all_done.NotifyAll();
    }
  };

  const size_t helpers =
      std::min<size_t>({static_cast<size_t>(max_threads) - 1, num_chunks - 1,
                        pool->num_threads()});
  for (size_t h = 0; h < helpers; ++h) {
    pool->Post([ctx, drain] { drain(ctx); });
  }
  drain(ctx);

  MutexLock lock(ctx->mu);
  ctx->all_done.Wait(ctx->mu, [&]() CYR_REQUIRES(ctx->mu) {
    return ctx->done == ctx->num_chunks;
  });
}

double DeterministicSum(std::span<const double> values) {
  const size_t n = values.size();
  if (n == 0) return 0.0;
  if (n == 1) return values[0];
  if (n <= 8) {
    double sum = values[0];
    for (size_t i = 1; i < n; ++i) sum += values[i];
    return sum;
  }
  std::vector<double> level(values.begin(), values.end());
  while (level.size() > 1) {
    size_t out = 0;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      level[out++] = level[i] + level[i + 1];
    }
    if (level.size() % 2 == 1) level[out++] = level.back();
    level.resize(out);
  }
  return level[0];
}

}  // namespace cyclerank
