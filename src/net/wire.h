// cloudwalker-net-v1 — the wire protocol between the walk coordinator
// (net/remote_backend.h) and socket-connected shard workers
// (net/shard_worker.h). See DESIGN.md section 13 for the full tables.
//
// Every message is one frame: a 20-byte FrameHeader followed by
// `payload_len` payload bytes. Headers and payloads are CRC-32 stamped
// independently, so a corrupt or desynchronized stream is detected before
// a single payload byte is interpreted. All integers are little-endian;
// the structs below are trivially-copyable PODs whose exact byte layout is
// frozen by static_asserts here and golden-byte tests
// (tests/net/wire_format_test.cc) — the same discipline the snapshot
// format uses, because WalkerRec batches are memcpy'd straight onto the
// wire.
//
// Handshake: the coordinator opens with kHello carrying the protocol
// version, the snapshot fingerprint (snapshot/snapshot.h), the shard plan
// hash, and this connection's shard assignment. The worker either replies
// kHelloOk echoing the same fields (plus a build-info string) or rejects
// with kError and a diagnostic. A connection that has not completed the
// handshake accepts nothing but kHello.
//
// Supersteps: the coordinator holds all walker state. Each
// kSuperstep frame carries the complete job spec (phase, source, seed,
// walk config, program params, the step number) plus the full resident
// WalkerRec batch, and the worker's kResult returns every surviving
// walker along with the level's endpoints/terminals — the worker keeps
// no per-job state whatsoever. Replay after a worker death is therefore
// trivially deterministic: reconnect, re-handshake, resend the identical
// frame (every draw is a pure function of its fields).

#ifndef CLOUDWALKER_NET_WIRE_H_
#define CLOUDWALKER_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cluster/partitioner.h"
#include "common/random.h"
#include "common/status.h"
#include "graph/graph.h"
#include "shard/walk_policies.h"

namespace cloudwalker {

/// Protocol compatibility pin: bumped on any wire-visible change. A
/// handshake between different versions is rejected by the worker with a
/// diagnostic naming both sides.
inline constexpr uint32_t kNetProtocolVersion = 1;
inline constexpr std::string_view kNetProtocolName = "cloudwalker-net-v1";

/// "CWN1", read as a little-endian uint32 — the first four bytes of every
/// frame on the wire.
inline constexpr uint32_t kNetFrameMagic = 0x314e5743u;

/// Upper bound on one frame's payload; a header announcing more is
/// treated as stream corruption, not an allocation request.
inline constexpr uint32_t kNetMaxFramePayload = 1u << 30;

/// Frame types of cloudwalker-net-v1.
enum class MsgType : uint16_t {
  kHello = 1,         // coordinator -> worker: handshake offer
  kHelloOk = 2,       // worker -> coordinator: handshake accept + echo
  kSuperstep = 3,     // coordinator -> worker: advance one walker batch
  kResult = 4,        // worker -> coordinator: survivors + endpoints
  kHeartbeat = 5,     // coordinator -> worker: liveness probe
  kHeartbeatAck = 6,  // worker -> coordinator: liveness reply
  kShutdown = 7,      // coordinator -> worker: stop serving
  kError = 8,         // worker -> coordinator: encoded Status + close
};

/// The three walk phases a worker can advance (the walk half of the six
/// query kinds; see engine/walk_backend.h).
enum class WalkPhase : uint32_t {
  kSimRank = 0,
  kPpr = 1,
  kNode2Vec = 2,
};

/// 20-byte frame header. `header_crc` covers the first 16 bytes (with the
/// field itself zeroed); `payload_crc` covers the payload bytes.
struct FrameHeader {
  uint32_t magic = kNetFrameMagic;
  uint16_t type = 0;   // MsgType
  uint16_t flags = 0;  // reserved, zero in v1
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 20, "wire layout frozen by net-v1");
static_assert(offsetof(FrameHeader, magic) == 0);
static_assert(offsetof(FrameHeader, type) == 4);
static_assert(offsetof(FrameHeader, flags) == 6);
static_assert(offsetof(FrameHeader, payload_len) == 8);
static_assert(offsetof(FrameHeader, payload_crc) == 12);
static_assert(offsetof(FrameHeader, header_crc) == 16);

/// kHello / kHelloOk payload, followed by a free-form build-info string
/// (the rest of the payload; not part of the compatibility check). The
/// worker accepts iff every field matches its own view of the world.
struct HelloMsg {
  uint32_t protocol_version = kNetProtocolVersion;
  uint32_t shard = 0;       // this connection's shard assignment
  uint32_t num_shards = 0;  // total workers in the plan
  uint32_t strategy = 0;    // PartitionStrategy
  uint64_t snapshot_fingerprint = 0;  // SnapshotView::fingerprint()
  uint64_t plan_hash = 0;             // NetPlanHash(...)
  uint32_t num_nodes = 0;
  uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<HelloMsg>);
static_assert(sizeof(HelloMsg) == 40, "wire layout frozen by net-v1");
static_assert(offsetof(HelloMsg, protocol_version) == 0);
static_assert(offsetof(HelloMsg, shard) == 4);
static_assert(offsetof(HelloMsg, num_shards) == 8);
static_assert(offsetof(HelloMsg, strategy) == 12);
static_assert(offsetof(HelloMsg, snapshot_fingerprint) == 16);
static_assert(offsetof(HelloMsg, plan_hash) == 24);
static_assert(offsetof(HelloMsg, num_nodes) == 32);

/// kSuperstep payload header, followed by `walker_count` raw WalkerRecs:
/// the complete, self-contained job spec for advancing one resident batch
/// one level. Unused program params are zero (e.g. alpha for SimRank).
struct SuperstepMsg {
  uint32_t phase = 0;  // WalkPhase
  uint32_t step = 0;   // t, 1-based like the BSP loop
  uint32_t source = 0;
  uint32_t num_walkers = 0;  // job-wide R (validation only)
  uint64_t seed = 0;
  uint32_t num_steps = 0;
  uint32_t dangling = 0;  // DanglingPolicy
  double alpha = 0.0;     // PPR continuation probability
  double return_p = 0.0;  // node2vec p
  double in_out_q = 0.0;  // node2vec q
  uint32_t max_trials = 0;
  uint32_t walker_count = 0;  // trailing WalkerRec count
};
static_assert(std::is_trivially_copyable_v<SuperstepMsg>);
static_assert(sizeof(SuperstepMsg) == 64, "wire layout frozen by net-v1");
static_assert(offsetof(SuperstepMsg, phase) == 0);
static_assert(offsetof(SuperstepMsg, seed) == 16);
static_assert(offsetof(SuperstepMsg, alpha) == 32);
static_assert(offsetof(SuperstepMsg, max_trials) == 56);
static_assert(offsetof(SuperstepMsg, walker_count) == 60);

/// kResult payload header, followed by `survivor_count` WalkerRecs, then
/// `endpoint_count` NodeIds (this level's recorded endpoints), then
/// `terminal_count` NodeIds (retired walkers' endpoints, PPR only).
/// Bookkeeping invariant the coordinator enforces:
///   survivor_count + terminal_count + dead == request walker_count.
struct ResultMsg {
  uint32_t step = 0;  // echoes the request's step
  uint32_t survivor_count = 0;
  uint32_t endpoint_count = 0;
  uint32_t terminal_count = 0;
  uint64_t steps = 0;        // kernel steps executed this superstep
  uint64_t remote_rows = 0;  // off-shard In(prev) rows read (node2vec)
  uint32_t dead = 0;         // dangling deaths under kDie
  uint32_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<ResultMsg>);
static_assert(sizeof(ResultMsg) == 40, "wire layout frozen by net-v1");
static_assert(offsetof(ResultMsg, step) == 0);
static_assert(offsetof(ResultMsg, steps) == 16);
static_assert(offsetof(ResultMsg, remote_rows) == 24);
static_assert(offsetof(ResultMsg, dead) == 32);

/// Identity of a shard plan: every quantity that determines node ->
/// shard ownership, chained through the seed mixer. Coordinator and
/// worker compute it independently from the handshake fields; agreement
/// means both route walkers identically, so a drift in the Partitioner
/// algorithm itself is the only thing left to trust — which is why the
/// hash constant changes whenever that algorithm does.
inline uint64_t NetPlanHash(PartitionStrategy strategy, uint32_t num_shards,
                            NodeId num_nodes) {
  uint64_t h = DeriveSeed(0x6377706c616e6831ull,  // "cwplanh1"
                          static_cast<uint64_t>(strategy));
  h = DeriveSeed(h, num_shards);
  return DeriveSeed(h, num_nodes);
}

// --- Payload encode/decode -----------------------------------------------
//
// Encoders build a std::string payload (the framing layer stamps the
// CRCs); decoders memcpy back out of the payload view — never
// reinterpret_cast, since a std::string buffer carries no alignment
// guarantee. Decode errors are kInternal: the payload CRC already passed,
// so a malformed payload is a protocol bug, not line noise.

inline void AppendPod(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

// memcpy out of a payload into a freshly resized vector. An empty vector's
// data() may be null, and memcpy's pointers must be valid even for zero
// bytes, so a zero count copies nothing.
inline void CopyOut(void* dst, const char* src, size_t size) {
  if (size != 0) std::memcpy(dst, src, size);
}

inline std::string EncodeHello(const HelloMsg& msg,
                               std::string_view build_info) {
  std::string out;
  out.reserve(sizeof(HelloMsg) + build_info.size());
  AppendPod(&out, &msg, sizeof(msg));
  out.append(build_info);
  return out;
}

inline Status DecodeHello(std::string_view payload, HelloMsg* msg,
                          std::string* build_info) {
  if (payload.size() < sizeof(HelloMsg)) {
    return Status::Internal("net: short Hello payload (" +
                            std::to_string(payload.size()) + " bytes)");
  }
  std::memcpy(msg, payload.data(), sizeof(HelloMsg));
  build_info->assign(payload.substr(sizeof(HelloMsg)));
  return Status::Ok();
}

inline std::string EncodeSuperstep(SuperstepMsg msg,
                                   std::span<const WalkerRec> walkers) {
  msg.walker_count = static_cast<uint32_t>(walkers.size());
  std::string out;
  out.reserve(sizeof(SuperstepMsg) + walkers.size_bytes());
  AppendPod(&out, &msg, sizeof(msg));
  AppendPod(&out, walkers.data(), walkers.size_bytes());
  return out;
}

inline Status DecodeSuperstep(std::string_view payload, SuperstepMsg* msg,
                              std::vector<WalkerRec>* walkers) {
  if (payload.size() < sizeof(SuperstepMsg)) {
    return Status::Internal("net: short Superstep payload");
  }
  std::memcpy(msg, payload.data(), sizeof(SuperstepMsg));
  const size_t want =
      sizeof(SuperstepMsg) + size_t{msg->walker_count} * sizeof(WalkerRec);
  if (payload.size() != want) {
    return Status::Internal(
        "net: Superstep payload is " + std::to_string(payload.size()) +
        " bytes but walker_count implies " + std::to_string(want));
  }
  walkers->resize(msg->walker_count);
  CopyOut(walkers->data(), payload.data() + sizeof(SuperstepMsg),
          size_t{msg->walker_count} * sizeof(WalkerRec));
  return Status::Ok();
}

inline std::string EncodeResult(ResultMsg msg,
                                std::span<const WalkerRec> survivors,
                                std::span<const NodeId> endpoints,
                                std::span<const NodeId> terminals) {
  msg.survivor_count = static_cast<uint32_t>(survivors.size());
  msg.endpoint_count = static_cast<uint32_t>(endpoints.size());
  msg.terminal_count = static_cast<uint32_t>(terminals.size());
  std::string out;
  out.reserve(sizeof(ResultMsg) + survivors.size_bytes() +
              endpoints.size_bytes() + terminals.size_bytes());
  AppendPod(&out, &msg, sizeof(msg));
  AppendPod(&out, survivors.data(), survivors.size_bytes());
  AppendPod(&out, endpoints.data(), endpoints.size_bytes());
  AppendPod(&out, terminals.data(), terminals.size_bytes());
  return out;
}

inline Status DecodeResult(std::string_view payload, ResultMsg* msg,
                           std::vector<WalkerRec>* survivors,
                           std::vector<NodeId>* endpoints,
                           std::vector<NodeId>* terminals) {
  if (payload.size() < sizeof(ResultMsg)) {
    return Status::Internal("net: short Result payload");
  }
  std::memcpy(msg, payload.data(), sizeof(ResultMsg));
  const size_t want = sizeof(ResultMsg) +
                      size_t{msg->survivor_count} * sizeof(WalkerRec) +
                      size_t{msg->endpoint_count} * sizeof(NodeId) +
                      size_t{msg->terminal_count} * sizeof(NodeId);
  if (payload.size() != want) {
    return Status::Internal(
        "net: Result payload is " + std::to_string(payload.size()) +
        " bytes but the counts imply " + std::to_string(want));
  }
  const char* p = payload.data() + sizeof(ResultMsg);
  survivors->resize(msg->survivor_count);
  CopyOut(survivors->data(), p,
          size_t{msg->survivor_count} * sizeof(WalkerRec));
  p += size_t{msg->survivor_count} * sizeof(WalkerRec);
  endpoints->resize(msg->endpoint_count);
  CopyOut(endpoints->data(), p, size_t{msg->endpoint_count} * sizeof(NodeId));
  p += size_t{msg->endpoint_count} * sizeof(NodeId);
  terminals->resize(msg->terminal_count);
  CopyOut(terminals->data(), p, size_t{msg->terminal_count} * sizeof(NodeId));
  return Status::Ok();
}

/// kError payload: the status code as a uint32, then the message text.
/// The receiving side reconstitutes the Status so a worker-side
/// kFailedPrecondition (say, a fingerprint mismatch) surfaces to the
/// caller with its original code and diagnostic.
inline std::string EncodeErrorStatus(const Status& status) {
  const uint32_t code = static_cast<uint32_t>(status.code());
  std::string out;
  out.reserve(sizeof(code) + status.message().size());
  AppendPod(&out, &code, sizeof(code));
  out.append(status.message());
  return out;
}

inline Status DecodeErrorStatus(std::string_view payload) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::Internal("net: short Error payload");
  }
  uint32_t code = 0;
  std::memcpy(&code, payload.data(), sizeof(code));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint32_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(sizeof(uint32_t))));
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_WIRE_H_
