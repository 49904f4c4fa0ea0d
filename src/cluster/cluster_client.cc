#include "cluster/cluster_client.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "base/strings.h"
#include "server/wire.h"

namespace oodb::cluster {

uint64_t BackoffPolicy::DelayMs(size_t retry_index, Rng& rng) const {
  uint64_t d = cap_ms;
  if (retry_index < 20) {  // past 2^20 * base the cap has long won
    d = std::min(cap_ms, base_ms << retry_index);
  }
  const double lo = (1.0 - jitter) * static_cast<double>(d);
  return static_cast<uint64_t>(
      rng.UniformReal(lo, static_cast<double>(d)));
}

namespace {

// Any reply (OK, ERR or BUSY) leaves a connection usable; a transport
// fault (kInternal) poisons its framing.
bool Answered(const Result<std::string>& r) {
  return r.ok() || r.status().code() != StatusCode::kInternal;
}

}  // namespace

ClusterClient::ClusterClient(ClusterConfig config, BackoffPolicy backoff,
                             uint64_t seed)
    : config_(std::move(config)),
      ring_(config_.nodes),
      backoff_(backoff),
      rng_(seed),
      pool_(config_.nodes) {}

Result<std::string> ClusterClient::Call(const std::string& line,
                                        const std::string* payload) {
  if (!config_.enabled()) {
    return FailedPreconditionError("cluster client has no nodes");
  }
  ++stats_.requests;
  // Only the verb and the routing key matter here: the first argument,
  // which names the session of a session verb (other verbs go wherever
  // it hashes, or to node 0 without one). A malformed line still goes to
  // the daemon, which answers it.
  server::Request request;
  server::ParseLine(line, {}, &request);
  const server::RequestView view = request.view();
  const bool idempotent = view.info().idempotent;
  const size_t replicas = config_.EffectiveReplicas();
  const std::vector<size_t> candidates =
      view.args.empty() ? std::vector<size_t>{0}
                        : ring_.ServersOf(view.args[0], replicas, idempotent);

  Status last = InternalError("no attempt made");
  size_t retry_index = 0;
  const size_t max_attempts = std::max<size_t>(1, backoff_.max_attempts);
  for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          backoff_.DelayMs(retry_index++, rng_)));
    }
    const size_t node = candidates[attempt % candidates.size()];
    auto conn = pool_.Acquire(node);
    if (!conn.ok()) {
      // Nothing was sent: a pure transport fault. A read moves on to the
      // next candidate; a mutation redials its owner once, then fails.
      ++stats_.transport_errors;
      last = conn.status();
      if (!idempotent && attempt > 0) break;
      continue;
    }
    auto r = (*conn)->Roundtrip(line, payload);
    pool_.Release(node, std::move(*conn), Answered(r));
    if (r.ok()) {
      if (node != candidates[0]) ++stats_.failovers;
      return r;
    }
    last = r.status();
    switch (r.status().code()) {
      case StatusCode::kResourceExhausted:
        // BUSY: the daemon rejected before dispatch, so any verb may be
        // resent. The next attempt goes to the next candidate: the owner
        // again for a mutation, the next replica for a read.
        ++stats_.busy_retries;
        continue;
      case StatusCode::kInternal:
        // Transport fault mid-roundtrip, a deadline expiry included. The
        // request may or may not have executed, so only idempotent verbs
        // are retried.
        ++stats_.transport_errors;
        if (!idempotent) return last;
        continue;
      default:
        // An ERR reply: the daemon answered authoritatively.
        return last;
    }
  }
  return last;
}

Result<std::string> ClusterClient::CallAt(size_t node,
                                          const std::string& line,
                                          const std::string* payload) {
  OODB_ASSIGN_OR_RETURN(std::unique_ptr<server::Client> conn,
                        pool_.Acquire(node));
  auto r = conn->Roundtrip(line, payload);
  pool_.Release(node, std::move(conn), Answered(r));
  return r;
}

Result<std::string> ClusterClient::Load(const std::string& session,
                                        const std::string& dl_source) {
  return Call(StrCat("LOAD ", session, " ", dl_source.size()), &dl_source);
}

Result<std::string> ClusterClient::LoadState(const std::string& session,
                                             const std::string& odb_source) {
  return Call(StrCat("STATE ", session, " ", odb_source.size()),
              &odb_source);
}

Result<size_t> ClusterClient::DefineView(const std::string& session,
                                         const std::string& query_class) {
  OODB_ASSIGN_OR_RETURN(
      std::string body,
      Call(StrCat("VIEW ", session, " ", query_class)));
  return server::ParseExtent(body);
}

Result<bool> ClusterClient::Check(const std::string& session,
                                  const std::string& c,
                                  const std::string& d) {
  OODB_ASSIGN_OR_RETURN(std::string body,
                        Call(StrCat("CHECK ", session, " ", c, " ", d)));
  OODB_ASSIGN_OR_RETURN(std::vector<bool> verdicts,
                        server::ParseBatchVerdicts(body, 1));
  return bool{verdicts[0]};
}

Result<std::vector<bool>> ClusterClient::CheckBatch(
    const std::string& session,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  OODB_ASSIGN_OR_RETURN(std::string body,
                        Call(server::BatchCheckLine(session, pairs)));
  return server::ParseBatchVerdicts(body, pairs.size());
}

}  // namespace oodb::cluster
