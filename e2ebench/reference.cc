#include "reference.h"

#include <cstdlib>
#include <memory>
#include <utility>

#include "datasets/catalog.h"
#include "graph/io.h"
#include "platform/params.h"
#include "platform/registry.h"
#include "platform/result_io.h"

namespace cyclerank {
namespace e2ebench {

std::string CanonicalBytes(TaskResult result) {
  result.task_id.clear();
  result.seconds = 0.0;
  return SerializeTaskResult(result);
}

Result<GraphPtr> LoadStreamGraph(uint64_t seed, const std::string& name) {
  if (DatasetCatalog::BuiltIn().Info(name).ok()) {
    return DatasetCatalog::BuiltIn().Load(name);
  }
  CYCLERANK_ASSIGN_OR_RETURN(
      Graph graph,
      ReadGraphFromString(UploadBody(seed, std::atoll(name.c_str() + 1))));
  return GraphPtr(std::make_shared<Graph>(std::move(graph)));
}

Result<TaskResult> ComputeReference(const Graph& graph, const TaskText& task) {
  TaskResult result;
  result.spec = ToSpec(task);
  CYCLERANK_ASSIGN_OR_RETURN(
      auto algorithm, AlgorithmRegistry::Default().Find(task.algorithm));
  CYCLERANK_ASSIGN_OR_RETURN(AlgorithmRequest request,
                             BuildRequest(graph, result.spec.params));
  request.num_threads = 1;
  CYCLERANK_ASSIGN_OR_RETURN(result.ranking, algorithm->Run(graph, request));
  return result;
}

}  // namespace e2ebench
}  // namespace cyclerank
