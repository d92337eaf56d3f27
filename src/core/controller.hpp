// AutonomicController: the MAPE-K loop — Monitor (pull an introspection
// snapshot into the knowledge base), Analyze/Plan (ask each SelfModule for
// actions), Execute (apply them to the BlobSeer deployment through the
// Executor). This is the "automatic decision-making engine" that shifts the
// burden of managing the system's state away from the human administrator.
#pragma once

#include <functional>
#include <memory>

#include "core/module.hpp"
#include "sec/framework.hpp"

namespace bs::core {

/// Applies adaptation actions to the live system. Exposed separately so
/// tests and benches can drive individual actions.
class Executor {
 public:
  Executor(AgentContext& ctx) : ctx_(ctx) {}

  // Actions and chunk keys are taken by value: copied into the coroutine
  // frame so executor coroutines never dangle on a caller's temporary
  // (bslint coro-ref-param). These are rare control-plane ops; the copies
  // are immaterial.
  sim::Task<Result<void>> execute(AdaptAction action);

  /// Invoked after a new provider boots (monitoring + security wiring).
  void set_provider_added_hook(
      std::function<void(blob::DataProvider&)> hook) {
    provider_added_ = std::move(hook);
  }

  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  sim::Task<Result<void>> add_provider();
  sim::Task<Result<void>> drain_provider(NodeId provider);
  sim::Task<Result<void>> repair_chunk(blob::ChunkKey key,
                                       std::uint32_t replication,
                                       NodeId exclude = NodeId{});
  sim::Task<Result<void>> migrate_chunk(blob::ChunkKey key, NodeId from);
  sim::Task<Result<void>> trim_blob(BlobId blob, blob::Version keep_from);
  sim::Task<Result<void>> delete_blob(BlobId blob);
  sim::Task<Result<blob::TreeNode>> leaf_of(blob::ChunkKey key);
  sim::Task<Result<void>> put_leaf(blob::ChunkKey key, blob::TreeNode node);
  rpc::CallOptions opts() const;

  AgentContext& ctx_;
  std::function<void(blob::DataProvider&)> provider_added_;
  std::uint64_t executed_{0};
  std::uint64_t failed_{0};
};

class AutonomicController {
 public:
  struct ExecutedAction {
    SimTime time{0};
    AdaptAction action;
    bool ok{false};
  };

  AutonomicController(blob::Deployment& deployment,
                      intro::IntrospectionService& introspection,
                      sec::SecurityFramework* security = nullptr);

  void add_module(std::unique_ptr<SelfModule> module);

  void start();
  void stop() { running_ = false; }

  /// One synchronous MAPE iteration (also used by the periodic loop).
  sim::Task<void> iterate();

  [[nodiscard]] KnowledgeBase& knowledge() { return knowledge_; }
  [[nodiscard]] Executor& executor() { return executor_; }
  [[nodiscard]] AgentContext& context() { return ctx_; }
  [[nodiscard]] const std::vector<ExecutedAction>& action_log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }

 private:
  sim::Task<void> loop();

  blob::Deployment& dep_;
  AgentContext ctx_;
  KnowledgeBase knowledge_;
  Executor executor_;
  std::vector<std::unique_ptr<SelfModule>> modules_;
  std::vector<ExecutedAction> log_;
  bool running_{false};
  std::uint64_t iterations_{0};
};

}  // namespace bs::core
