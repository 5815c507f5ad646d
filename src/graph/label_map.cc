#include "graph/label_map.h"

namespace cyclerank {

NodeId LabelMap::GetOrAdd(std::string_view label) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(labels_.size());
  labels_.emplace_back(label);
  index_.emplace(labels_.back(), id);
  return id;
}

size_t LabelMap::MemoryBytes() const {
  size_t bytes = sizeof(LabelMap);
  for (const std::string& label : labels_) {
    // The labels_ slot plus the index_ entry that duplicates the key:
    // two string headers and payloads, the mapped id, and a hash-node's
    // worth of pointer overhead.
    bytes += 2 * (sizeof(std::string) + label.size());
    bytes += sizeof(NodeId) + 2 * sizeof(void*);
  }
  return bytes;
}

std::optional<NodeId> LabelMap::Find(std::string_view label) const {
  auto it = index_.find(label);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

}  // namespace cyclerank
