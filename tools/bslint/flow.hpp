// bslint pass 2 — flow rules over the project call graph.
//
// Reachability findings, each carrying the full call chain from its root to
// the offending token so suppressions stay reviewable:
//
//   det-wallclock / det-random / det-unordered-iter
//       from every sim-context root (Task<>-returning definition in src/)
//       to a matching fact in any *callee* — the fact's own body is the
//       token engine's job, so flow findings start at depth 1.
//   det-journal-encode
//       from every encoder root (name containing "encode" or "checkpoint")
//       to any nondeterminism fact (wall clock, randomness, unordered
//       iteration, pointer identity) in a callee.
//   coro-ref-escape
//       call-site rule, not reachability: a temporary argument bound to a
//       reference/view parameter of a Task<>-returning definition dies at
//       the end of the statement unless the call is directly co_awaited.
//
// Findings are attributed to the root's first call site into the chain (the
// line a reviewer would edit), deduplicated per sink so one bad helper
// reached from many roots reports once (shortest chain wins, ties broken
// lexicographically), and honor allow() comments at the attributed line.
#pragma once

#include "graph.hpp"

namespace bs::lint {

struct FlowResult {
  std::vector<Finding> findings;
  int suppressed{0};
};

FlowResult flow_analyze(const ProjectIndex& pi);

}  // namespace bs::lint
