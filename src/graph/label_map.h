#ifndef CYCLERANK_GRAPH_LABEL_MAP_H_
#define CYCLERANK_GRAPH_LABEL_MAP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cyclerank {

/// Dense node identifier. Nodes of a graph with `n` nodes are `[0, n)`.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Bidirectional mapping between human-readable node labels (Wikipedia
/// article titles, Amazon product names, Twitter handles) and dense
/// `NodeId`s.
///
/// Labels are unique. Ids are assigned densely in insertion order, which
/// keeps the map directly usable as the id space of a `Graph` built in the
/// same order.
class LabelMap {
 public:
  LabelMap() = default;

  /// Returns the id for `label`, inserting a fresh one if absent.
  NodeId GetOrAdd(std::string_view label);

  /// Returns the id for `label` if present.
  std::optional<NodeId> Find(std::string_view label) const;

  /// Returns the label of `id`; `id` must be `< size()`.
  const std::string& LabelOf(NodeId id) const { return labels_[id]; }

  /// Number of labels (== max id + 1).
  size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }

  /// All labels in id order.
  const std::vector<std::string>& labels() const { return labels_; }

  /// Estimated resident bytes: label characters plus per-entry container
  /// bookkeeping for both directions of the mapping. Deterministic
  /// (counts elements, not allocator capacity) so byte-budget accounting
  /// agrees across platforms.
  size_t MemoryBytes() const;

 private:
  /// Hashes `std::string` keys and `std::string_view` probes alike, so
  /// lookups by view allocate nothing.
  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> labels_;
  std::unordered_map<std::string, NodeId, TransparentHash, std::equal_to<>>
      index_;
};

}  // namespace cyclerank

#endif  // CYCLERANK_GRAPH_LABEL_MAP_H_
