// Consistent-hash ring over the static membership list: virtual nodes
// smooth the key distribution, and ownership is deterministic in the
// node list alone, so every daemon and client computes the same owner
// for a session name without coordination. Replicas are the next
// distinct nodes clockwise from the owner — the standard successor-list
// placement, which keeps a session's copies stable under the fixed
// membership this cluster mode assumes.
#ifndef OODB_CLUSTER_RING_H_
#define OODB_CLUSTER_RING_H_

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/membership.h"

namespace oodb::cluster {

// FNV-1a, 64-bit. The ring needs a hash that is identical across
// processes, compilers, and runs — std::hash guarantees none of that.
uint64_t HashKey(std::string_view key);

class Ring {
 public:
  // `vnodes_per_node` virtual points per node; 64 keeps the worst node
  // within a few percent of fair share for small fleets.
  explicit Ring(const std::vector<NodeAddr>& nodes,
                size_t vnodes_per_node = 64);

  // Index (into the membership list) of the node owning `session`.
  size_t OwnerOf(std::string_view session) const;

  // The nodes that may serve a request keyed by `session`, in preference
  // order: the owner, then, for an idempotent verb, up to `r` replicas,
  // which hold the same state (docs/cluster.md §4). Both the cluster
  // client and a daemon forwarding to the owner route by it. Empty only
  // for an empty ring.
  std::vector<size_t> ServersOf(std::string_view session, size_t r,
                                bool idempotent) const;

  // Up to `r` distinct non-owner nodes, in ring (successor) order.
  std::vector<size_t> ReplicasOf(std::string_view session, size_t r) const;

  bool IsReplicaOf(std::string_view session, size_t node, size_t r) const;

 private:
  using Points = std::vector<std::pair<uint64_t, uint32_t>>;

  // The first point clockwise of the key hash (wrapping); the ring must
  // not be empty.
  Points::const_iterator FirstPointOf(std::string_view session) const;

  // Sorted (point hash, node index).
  Points points_;
};

}  // namespace oodb::cluster

#endif  // OODB_CLUSTER_RING_H_
