#include "blob/client.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace bs::blob {

namespace {
constexpr std::uint32_t kMaxRebuilds = 8;
constexpr std::uint32_t kPutParallelism = 4;   ///< chunk puts per write
constexpr std::uint32_t kGetParallelism = 8;   ///< chunk gets per read
constexpr std::uint32_t kMetaParallelism = 8;  ///< concurrent metadata puts
/// Commit can legitimately wait for earlier concurrent writers.
constexpr SimDuration kCommitTimeout = simtime::seconds(120);
}  // namespace

BlobClient::BlobClient(rpc::Node& node, ClientId id, Endpoints endpoints,
                       ClientConfig config, std::uint64_t rng_seed)
    : node_(node), id_(id), endpoints_(std::move(endpoints)),
      config_(config), rng_(rng_seed) {
  assert(!endpoints_.metadata_providers.empty());
  meta_store_ = std::make_unique<RemoteMetadataStore>(
      node_, endpoints_.metadata_providers, id_, kRpcTimeout, config_.retry);
}

rpc::CallOptions BlobClient::opts(obs::SpanId parent,
                                  SimDuration timeout) const {
  rpc::CallOptions o;
  o.timeout = timeout;
  o.client = id_;
  o.retry = config_.retry;
  o.parent_span = parent;
  return o;
}

void BlobClient::report_provider_failure(NodeId provider) {
  // Tells the provider manager, so allocation steers away from the failing
  // provider. Fire-and-forget: the report must never block or fail the
  // data path. Retries are off — a lost report is harmless.
  rpc::CallOptions o;
  o.timeout = kRpcTimeout;
  o.client = id_;
  node_.cluster().sim().spawn(
      [](rpc::Node& n, NodeId pm, NodeId failed,
         rpc::CallOptions ro) -> sim::Task<void> {
        ReportFailureReq req;
        req.provider = failed;
        (void)co_await n.cluster().call<ReportFailureReq, ReportFailureResp>(
            n, pm, req, ro);
      }(node_, endpoints_.provider_manager, provider, o));
}

void BlobClient::observe(ClientOpInfo info) {
  if (op_observer_) op_observer_(info);
}

sim::Task<Result<BlobId>> BlobClient::create(std::uint64_t chunk_size,
                                             std::uint32_t replication,
                                             SimDuration ttl) {
  const SimTime t0 = node_.cluster().sim().now();
  obs::Span op_span;
  if (auto* ts = obs::sink()) {
    op_span = ts->span("blob.create", "blob", 0,
                       {"client", static_cast<std::int64_t>(id_.value)},
                       {"replication", replication});
  }
  CreateBlobReq req;
  req.chunk_size = chunk_size;
  req.replication = replication;
  req.ttl = ttl;
  auto r = co_await node_.cluster().call<CreateBlobReq, CreateBlobResp>(
      node_, endpoints_.version_manager, req, opts(op_span.id()));
  op_span.end(errc_name(r.code()));
  ClientOpInfo info;
  info.op = ClientOpInfo::Op::create;
  info.client = id_;
  info.duration = node_.cluster().sim().now() - t0;
  info.outcome = r.code();
  if (!r.ok()) {
    observe(info);
    co_return r.error();
  }
  info.blob = r.value().blob;
  observe(info);
  co_return r.value().blob;
}

sim::Task<Result<BlobDescriptor>> BlobClient::stat(BlobId blob) {
  BlobInfoReq req;
  req.blob = blob;
  auto r = co_await node_.cluster().call<BlobInfoReq, BlobInfoResp>(
      node_, endpoints_.version_manager, req, opts());
  if (!r.ok()) co_return r.error();
  co_return r.value().descriptor;
}

sim::Task<Result<std::vector<VersionInfo>>> BlobClient::versions(
    BlobId blob) {
  BlobVersionsReq req;
  req.blob = blob;
  auto r = co_await node_.cluster().call<BlobVersionsReq, BlobVersionsResp>(
      node_, endpoints_.version_manager, req, opts());
  if (!r.ok()) co_return r.error();
  co_return std::move(r.value().versions);
}

sim::Task<Result<TrimBlobResp>> BlobClient::trim(BlobId blob,
                                                 Version keep_from) {
  TrimBlobReq req;
  req.blob = blob;
  req.keep_from = keep_from;
  auto r = co_await node_.cluster().call<TrimBlobReq, TrimBlobResp>(
      node_, endpoints_.version_manager, req, opts());
  if (!r.ok()) co_return r.error();
  co_return std::move(r.value());
}

sim::Task<Result<void>> BlobClient::remove(BlobId blob) {
  DeleteBlobReq req;
  req.blob = blob;
  auto r = co_await node_.cluster().call<DeleteBlobReq, DeleteBlobResp>(
      node_, endpoints_.version_manager, req, opts());
  if (!r.ok()) co_return r.error();
  co_return ok_result();
}

// ----------------------------------------------------------------- writes

struct BlobClient::WritePlan {
  BlobId blob;
  StartWriteResp start;
  std::vector<Payload> chunk_payloads;
  std::vector<ChunkDescriptor> leaves;
  std::vector<std::vector<NodeId>> placements;
  std::uint32_t retries{0};
  obs::SpanId span{0};  ///< enclosing write-op span for nested RPC traces
};

sim::Task<Result<WriteReceipt>> BlobClient::write(BlobId blob,
                                                  std::uint64_t offset,
                                                  Payload data) {
  return write_impl(blob, offset, std::move(data), ClientOpInfo::Op::write);
}

sim::Task<Result<WriteReceipt>> BlobClient::append(BlobId blob,
                                                   Payload data) {
  return write_impl(blob, kAppendOffset, std::move(data),
                    ClientOpInfo::Op::append);
}

// bslint: allow(perf-large-byvalue): every caller moves its freshly split
// chunk batch; Payload bodies are shared_ptr-backed either way
sim::Task<Result<WriteReceipt>> BlobClient::append_chunks(
    BlobId blob, std::uint64_t chunk_size, std::vector<Payload> chunks) {
  if (chunks.empty() || chunk_size == 0) {
    co_return Error{Errc::invalid_argument, "empty chunked append"};
  }
  Payload claim;
  claim.checksum = fnv1a_u64(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const bool last = i + 1 == chunks.size();
    if (chunks[i].size == 0 || chunks[i].size > chunk_size ||
        (!last && chunks[i].size != chunk_size)) {
      co_return Error{Errc::invalid_argument,
                      "chunk payload does not fill its slot"};
    }
    claim.checksum = hash_combine(claim.checksum, chunks[i].checksum);
  }
  // Claimed blob extent: full slots for all but the last payload, so each
  // payload owns exactly one chunk of the new version.
  claim.size = (chunks.size() - 1) * chunk_size + chunks.back().size;
  co_return co_await write_impl(blob, kAppendOffset, std::move(claim),
                                ClientOpInfo::Op::append, std::move(chunks));
}

// bslint: allow(perf-large-byvalue): replicas is replication-factor sized
// (a handful of node ids)
sim::Task<Result<bool>> BlobClient::chunk_present(
    ChunkKey key, std::vector<NodeId> replicas) {
  Error last{Errc::unavailable, "no replicas to probe"};
  bool answered = false;
  for (NodeId target : replicas) {
    HasChunkReq req;
    req.key = key;
    auto r = co_await node_.cluster().call<HasChunkReq, HasChunkResp>(
        node_, target, req, opts());
    if (r.ok()) {
      if (r.value().present) co_return true;
      answered = true;
    } else {
      last = r.error();
    }
  }
  if (answered) co_return false;
  co_return last;
}

// bslint: allow(coro-ref-param): see client.hpp — plan outlives the
// awaited WaitGroup
sim::Task<Result<void>> BlobClient::put_chunk_replicated(
    WritePlan& plan, std::size_t chunk_idx) {
  auto& cluster = node_.cluster();
  const ChunkKey key{plan.blob, plan.start.version,
                     plan.start.first_chunk + chunk_idx};
  std::vector<NodeId>& targets = plan.placements[chunk_idx];
  std::vector<NodeId> stored;
  std::vector<NodeId> failed;

  std::uint32_t attempts = 0;
  while (stored.size() < plan.start.replication) {
    if (targets.empty()) {
      // Ask the provider manager for a replacement, avoiding providers
      // that already hold or failed this chunk.
      if (attempts++ >= config_.max_put_retries) {
        co_return Error{Errc::unavailable,
                        "chunk put failed on all providers"};
      }
      ++plan.retries;
      AllocateReq realloc;
      realloc.blob = plan.blob;
      realloc.version = plan.start.version;
      realloc.chunk_count = 1;
      realloc.chunk_size = plan.start.chunk_size;
      realloc.replication =
          plan.start.replication - static_cast<std::uint32_t>(stored.size());
      realloc.exclude = stored;
      realloc.exclude.insert(realloc.exclude.end(), failed.begin(),
                             failed.end());
      auto r = co_await cluster.call<AllocateReq, AllocateResp>(
          node_, endpoints_.provider_manager, std::move(realloc),
          opts(plan.span));
      if (!r.ok()) co_return r.error();
      targets = std::move(r.value().placements[0]);
      continue;
    }
    const NodeId target = targets.back();
    targets.pop_back();
    PutChunkReq put;
    put.key = key;
    put.payload = plan.chunk_payloads[chunk_idx];
    auto r = co_await cluster.call<PutChunkReq, PutChunkResp>(
        node_, target, std::move(put), opts(plan.span));
    if (r.ok()) {
      stored.push_back(target);
    } else {
      failed.push_back(target);
      if (rpc::RetryPolicy::retryable(r.error().code)) {
        report_provider_failure(target);
      }
    }
  }
  plan.leaves[chunk_idx].replicas = std::move(stored);
  co_return ok_result();
}

// bslint: allow(coro-ref-param): see client.hpp — nodes outlive the
// awaited call
sim::Task<Result<void>> BlobClient::put_metadata(
    const std::vector<std::pair<NodeKey, TreeNode>>& nodes,
    obs::SpanId parent) {
  auto& sim = node_.cluster().sim();
  sim::Semaphore sem(sim, kMetaParallelism);
  sim::WaitGroup wg(sim);
  std::vector<Result<void>> results(nodes.size(), ok_result());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    wg.launch([](BlobClient& self, sim::Semaphore& s,
                 const std::pair<NodeKey, TreeNode>& kv,
                 obs::SpanId span, Result<void>& slot) -> sim::Task<void> {
      co_await s.acquire();
      sim::SemGuard guard(s);
      slot = co_await self.meta_store_->put(kv.first, kv.second, span);
    }(*this, sem, nodes[i], parent, results[i]));
  }
  co_await wg.wait();
  for (auto& r : results) {
    if (!r.ok()) co_return r.error();
  }
  co_return ok_result();
}

// bslint: allow(perf-large-byvalue): presplit is moved by its only
// non-empty caller (append_chunks); the default is empty
sim::Task<Result<WriteReceipt>> BlobClient::write_impl(
    BlobId blob, std::uint64_t offset, Payload data, ClientOpInfo::Op op,
    std::vector<Payload> presplit) {
  auto& cluster = node_.cluster();
  auto& sim = cluster.sim();
  const SimTime t0 = sim.now();

  ClientOpInfo info;
  info.op = op;
  info.client = id_;
  info.blob = blob;
  info.bytes = data.size;

  obs::Span op_span;
  if (auto* ts = obs::sink()) {
    op_span = ts->span(
        op == ClientOpInfo::Op::append ? "blob.append" : "blob.write", "blob",
        0, {"client", static_cast<std::int64_t>(id_.value)},
        {"bytes", static_cast<std::int64_t>(data.size)});
  }

  auto fail = [&](Error err) {
    info.duration = sim.now() - t0;
    info.outcome = err.code;
    op_span.end(errc_name(err.code));
    observe(info);
    return err;
  };

  if (data.size == 0) {
    co_return fail({Errc::invalid_argument, "empty write"});
  }

  // 1. Version assignment (the only serialized step).
  WritePlan plan;
  plan.blob = blob;
  plan.span = op_span.id();
  {
    StartWriteReq req;
    req.blob = blob;
    req.offset = offset;
    req.size = data.size;
    auto r = co_await cluster.call<StartWriteReq, StartWriteResp>(
        node_, endpoints_.version_manager, req, opts(op_span.id()));
    if (!r.ok()) co_return fail(r.error());
    plan.start = std::move(r.value());
  }
  const std::uint64_t cs = plan.start.chunk_size;
  const std::uint64_t n_chunks = plan.start.chunk_count;
  info.version = plan.start.version;

  // 2. Split the payload into per-chunk payloads (or adopt the caller's
  // pre-split chunks, one payload per slot).
  if (!presplit.empty() && presplit.size() != n_chunks) {
    AbortWriteReq ab;
    ab.blob = blob;
    ab.version = plan.start.version;
    (void)co_await cluster.call<AbortWriteReq, AbortWriteResp>(
        node_, endpoints_.version_manager, ab, opts(op_span.id()));
    co_return fail({Errc::invalid_argument,
                    "pre-split chunk count does not match blob chunk size"});
  }
  plan.chunk_payloads.reserve(n_chunks);
  plan.leaves.resize(n_chunks);
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    Payload p = presplit.empty() ? data.chunk(i, cs) : std::move(presplit[i]);
    ChunkDescriptor& leaf = plan.leaves[i];
    leaf.key = ChunkKey{blob, plan.start.version, plan.start.first_chunk + i};
    leaf.size = p.size;
    leaf.checksum = p.checksum;
    plan.chunk_payloads.push_back(std::move(p));
  }

  // bslint: allow(coro-lambda-capture): the lambda lives in this frame
  // and every invocation is co_awaited before the frame unwinds
  auto abort_write = [&]() -> sim::Task<void> {
    AbortWriteReq ab;
    ab.blob = blob;
    ab.version = plan.start.version;
    (void)co_await cluster.call<AbortWriteReq, AbortWriteResp>(
        node_, endpoints_.version_manager, ab, opts(op_span.id()));
  };

  // 3. Placement for every chunk.
  {
    AllocateReq req;
    req.blob = blob;
    req.version = plan.start.version;
    req.chunk_count = n_chunks;
    req.chunk_size = cs;
    req.replication = plan.start.replication;
    auto r = co_await cluster.call<AllocateReq, AllocateResp>(
        node_, endpoints_.provider_manager, std::move(req), opts(op_span.id()));
    if (!r.ok()) {
      co_await abort_write();
      co_return fail(r.error());
    }
    plan.placements = std::move(r.value().placements);
  }

  // 4. Pipelined chunk puts with bounded parallelism.
  {
    sim::Semaphore sem(sim, kPutParallelism);
    sim::WaitGroup wg(sim);
    std::vector<Result<void>> results(n_chunks, ok_result());
    for (std::size_t i = 0; i < n_chunks; ++i) {
      wg.launch([](BlobClient& self, sim::Semaphore& s, WritePlan& pl,
                   std::size_t idx, Result<void>& slot) -> sim::Task<void> {
        co_await s.acquire();
        sim::SemGuard guard(s);
        slot = co_await self.put_chunk_replicated(pl, idx);
      }(*this, sem, plan, i, results[i]));
    }
    co_await wg.wait();
    for (auto& r : results) {
      if (!r.ok()) {
        co_await abort_write();
        co_return fail(r.error());
      }
    }
  }

  // 5. Build + store metadata; 6. commit, rebuilding if an earlier write
  // aborted underneath us. Builds borrow the border versions StartWrite
  // answered, or the ones a rebuild request hands back.
  std::uint64_t epoch = plan.start.abort_epoch;
  std::vector<BorderVersion> borders = std::move(plan.start.borders);
  std::uint32_t rebuilds = 0;
  while (true) {
    auto nodes = meta_ops::build_nodes(blob, plan.start.extent(),
                                       plan.leaves, borders,
                                       plan.start.root_chunks);
    if (auto r = co_await put_metadata(nodes, op_span.id()); !r.ok()) {
      co_await abort_write();
      co_return fail(r.error());
    }
    CommitWriteReq req;
    req.blob = blob;
    req.version = plan.start.version;
    req.abort_epoch = epoch;
    auto r = co_await cluster.call<CommitWriteReq, CommitWriteResp>(
        node_, endpoints_.version_manager, req,
        opts(op_span.id(), kCommitTimeout));
    if (!r.ok()) co_return fail(r.error());
    if (r.value().published) break;
    assert(r.value().rebuild_needed);
    if (++rebuilds > kMaxRebuilds) {
      co_await abort_write();
      co_return fail({Errc::conflict, "too many abort-repair rebuilds"});
    }
    epoch = r.value().abort_epoch;
    borders = std::move(r.value().borders);
  }

  WriteReceipt receipt;
  receipt.version = plan.start.version;
  receipt.offset = plan.start.offset;
  receipt.size = data.size;
  receipt.duration = sim.now() - t0;
  receipt.put_retries = plan.retries;
  receipt.rebuilds = rebuilds;
  receipt.chunks = std::move(plan.leaves);

  info.duration = receipt.duration;
  info.outcome = Errc::ok;
  op_span.end("ok");
  observe(info);
  co_return receipt;
}

// ------------------------------------------------------------------ reads

// bslint: allow(coro-ref-param): see client.hpp — leaf outlives the
// awaited WaitGroup
sim::Task<Result<ChunkRead>> BlobClient::fetch_chunk(
    const meta_ops::LeafRef& leaf, std::uint64_t chunk_size,
    std::uint64_t read_lo, std::uint64_t read_hi, obs::SpanId parent) {
  auto& cluster = node_.cluster();
  const std::uint64_t base = leaf.chunk_index * chunk_size;
  ChunkRead out;
  out.chunk_index = leaf.chunk_index;

  if (leaf.hole()) {
    out.hole = true;
    out.offset = std::max(base, read_lo);
    co_return out;
  }
  const std::uint64_t lo = std::max(base, read_lo);
  const std::uint64_t hi = std::min(base + leaf.chunk->size, read_hi);
  if (hi <= lo) {
    out.hole = true;
    out.offset = lo;
    co_return out;
  }
  out.offset = lo;

  // Same-site replicas first, then a random order of the rest.
  std::vector<NodeId> order;
  std::vector<NodeId> remote;
  for (NodeId r : leaf.chunk->replicas) {
    rpc::Node* n = cluster.node(r);
    if (n != nullptr && n->site() == node_.site()) {
      order.push_back(r);
    } else {
      remote.push_back(r);
    }
  }
  rng_.shuffle(remote);
  order.insert(order.end(), remote.begin(), remote.end());

  Error last{Errc::unavailable, "no replicas"};
  for (NodeId target : order) {
    GetChunkReq req;
    req.key = leaf.chunk->key;
    req.offset = lo - base;
    req.length = hi - lo;
    auto r = co_await cluster.call<GetChunkReq, GetChunkResp>(
        node_, target, req, opts(parent));
    if (r.ok()) {
      out.bytes = r.value().payload.size;
      out.checksum = r.value().payload.checksum;
      out.data = r.value().payload.bytes;
      co_return out;
    }
    last = r.error();
    if (rpc::RetryPolicy::retryable(last.code)) {
      report_provider_failure(target);
    }
  }
  co_return last;
}

sim::Task<Result<ReadResult>> BlobClient::read(BlobId blob,
                                               std::uint64_t offset,
                                               std::uint64_t length,
                                               Version version) {
  auto& cluster = node_.cluster();
  auto& sim = cluster.sim();
  const SimTime t0 = sim.now();

  ClientOpInfo info;
  info.op = ClientOpInfo::Op::read;
  info.client = id_;
  info.blob = blob;

  obs::Span op_span;
  if (auto* ts = obs::sink()) {
    op_span = ts->span("blob.read", "blob", 0,
                       {"client", static_cast<std::int64_t>(id_.value)},
                       {"length", static_cast<std::int64_t>(length)});
  }

  auto fail = [&](Error err) {
    info.duration = sim.now() - t0;
    info.outcome = err.code;
    op_span.end(errc_name(err.code));
    observe(info);
    return err;
  };

  BlobInfoReq ireq;
  ireq.blob = blob;
  ireq.version = version;
  auto ir = co_await cluster.call<BlobInfoReq, BlobInfoResp>(
      node_, endpoints_.version_manager, ireq, opts(op_span.id()));
  if (!ir.ok()) co_return fail(ir.error());
  const VersionInfo at = ir.value().at;
  const std::uint64_t cs = ir.value().descriptor.chunk_size;
  info.version = at.version;

  ReadResult result;
  result.version = at.version;
  const std::uint64_t hi_byte = std::min(offset + length, at.size);
  if (at.version == 0 || offset >= hi_byte) {
    result.duration = sim.now() - t0;
    info.duration = result.duration;
    op_span.end("ok");
    observe(info);
    co_return result;
  }

  const std::uint64_t lo_chunk = offset / cs;
  const std::uint64_t hi_chunk = div_ceil(hi_byte, cs);
  auto leaves = co_await meta_ops::collect(sim, *meta_store_, blob,
                                           at.version, at.root_chunks,
                                           lo_chunk, hi_chunk - lo_chunk);
  if (!leaves.ok()) co_return fail(leaves.error());

  sim::Semaphore sem(sim, kGetParallelism);
  sim::WaitGroup wg(sim);
  std::vector<Result<ChunkRead>> reads(leaves.value().size(),
                                       Result<ChunkRead>{Errc::internal});
  for (std::size_t i = 0; i < leaves.value().size(); ++i) {
    wg.launch([](BlobClient& self, sim::Semaphore& s,
                 const meta_ops::LeafRef& leaf, std::uint64_t chunk_size,
                 std::uint64_t rlo, std::uint64_t rhi, obs::SpanId span,
                 Result<ChunkRead>& slot) -> sim::Task<void> {
      co_await s.acquire();
      sim::SemGuard guard(s);
      slot = co_await self.fetch_chunk(leaf, chunk_size, rlo, rhi, span);
    }(*this, sem, leaves.value()[i], cs, offset, hi_byte, op_span.id(),
      reads[i]));
  }
  co_await wg.wait();

  for (auto& r : reads) {
    if (!r.ok()) co_return fail(r.error());
    result.bytes += r.value().bytes;
    result.chunks.push_back(std::move(r.value()));
  }
  std::sort(result.chunks.begin(), result.chunks.end(),
            [](const ChunkRead& a, const ChunkRead& b) {
              return a.chunk_index < b.chunk_index;
            });
  result.duration = sim.now() - t0;

  info.bytes = result.bytes;
  info.duration = result.duration;
  op_span.end("ok");
  observe(info);
  co_return result;
}

bool ReadResult::has_bytes(std::uint64_t from_offset,
                           std::uint64_t length) const {
  return std::all_of(chunks.begin(), chunks.end(), [&](const ChunkRead& c) {
    return c.hole || (c.data && c.offset >= from_offset &&
                      c.offset - from_offset + c.data->size() <= length);
  });
}

void ReadResult::copy_to(std::uint64_t from_offset,
                         std::span<std::uint8_t> out) const {
  assert(has_bytes(from_offset, out.size()));
  for (const auto& c : chunks) {
    if (c.hole) continue;
    const std::uint64_t pos = c.offset - from_offset;
    std::copy(c.data->begin(), c.data->end(),
              out.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

std::optional<std::vector<std::uint8_t>> ReadResult::assemble(
    std::uint64_t from_offset, std::uint64_t length) const {
  if (!has_bytes(from_offset, length)) return std::nullopt;
  std::vector<std::uint8_t> out(length, 0);
  copy_to(from_offset, out);
  return out;
}

}  // namespace bs::blob
