#include "cluster/ring.h"

#include <algorithm>

#include "base/strings.h"

namespace oodb::cluster {

uint64_t HashKey(std::string_view key) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // Raw FNV-1a avalanches poorly when keys differ in one byte near the
  // end — exactly the shape of vnode keys ("host:port#v"), which would
  // leave the nodes' points correlated and the arcs badly skewed. The
  // murmur3 finalizer decorrelates them.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

Ring::Ring(const std::vector<NodeAddr>& nodes, size_t vnodes_per_node) {
  points_.reserve(nodes.size() * vnodes_per_node);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::string base = nodes[i].ToString();
    for (size_t v = 0; v < vnodes_per_node; ++v) {
      points_.emplace_back(HashKey(StrCat(base, "#", v)),
                           static_cast<uint32_t>(i));
    }
  }
  std::sort(points_.begin(), points_.end());
}

Ring::Points::const_iterator Ring::FirstPointOf(
    std::string_view session) const {
  const auto key = std::make_pair(HashKey(session), uint32_t{0xffffffff});
  const auto it = std::upper_bound(points_.begin(), points_.end(), key);
  return it == points_.end() ? points_.begin() : it;  // wrap past 2^64
}

size_t Ring::OwnerOf(std::string_view session) const {
  if (points_.empty()) return kNotAMember;
  return FirstPointOf(session)->second;
}

std::vector<size_t> Ring::ServersOf(std::string_view session, size_t r,
                                    bool idempotent) const {
  const size_t want = idempotent ? r + 1 : 1;
  std::vector<size_t> servers;
  if (points_.empty()) return servers;
  // Walk clockwise from the owner's point collecting distinct nodes.
  auto it = FirstPointOf(session);
  for (size_t step = 0; step < points_.size() && servers.size() < want;
       ++step) {
    const size_t node = it->second;
    if (std::find(servers.begin(), servers.end(), node) == servers.end()) {
      servers.push_back(node);
    }
    if (++it == points_.end()) it = points_.begin();
  }
  return servers;
}

std::vector<size_t> Ring::ReplicasOf(std::string_view session, size_t r) const {
  std::vector<size_t> replicas = ServersOf(session, r, /*idempotent=*/true);
  if (!replicas.empty()) replicas.erase(replicas.begin());  // the owner
  return replicas;
}

bool Ring::IsReplicaOf(std::string_view session, size_t node,
                       size_t r) const {
  const std::vector<size_t> replicas = ReplicasOf(session, r);
  return std::find(replicas.begin(), replicas.end(), node) !=
         replicas.end();
}

}  // namespace oodb::cluster
