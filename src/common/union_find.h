#ifndef ERBIUM_COMMON_UNION_FIND_H_
#define ERBIUM_COMMON_UNION_FIND_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace erbium {

/// Union-find over string names. Path-halving find; no ranks — the
/// schema graphs this partitions are tiny and each is built once.
/// Used by the MVCC lock-domain builder (one writer mutex per connected
/// schema component).
class UnionFind {
 public:
  /// Root of `name`'s component, registering the name on first touch.
  const std::string& Find(const std::string& name) {
    parent_.emplace(name, name);
    std::string current = name;
    while (parent_[current] != current) {
      parent_[current] = parent_[parent_[current]];
      current = parent_[current];
    }
    // Re-find the stable node: return a reference into the map.
    return parent_.find(current)->first;
  }

  void Unite(const std::string& a, const std::string& b) {
    std::string ra = Find(a);
    std::string rb = Find(b);
    if (ra != rb) parent_[ra] = rb;
  }

  /// Every registered name (insertion-order unspecified).
  std::vector<std::string> Names() const {
    std::vector<std::string> out;
    out.reserve(parent_.size());
    for (const auto& [name, unused] : parent_) out.push_back(name);
    return out;
  }

 private:
  std::unordered_map<std::string, std::string> parent_;
};

}  // namespace erbium

#endif  // ERBIUM_COMMON_UNION_FIND_H_
