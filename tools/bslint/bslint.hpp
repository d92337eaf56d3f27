// bslint — project-specific static analysis for the deterministic simulation
// substrate. A dependency-free two-pass analyzer (no libclang; builds
// wherever the project does):
//
//   pass 1 — token rules per file, plus a lightweight symbol index of every
//            function/coroutine definition under src/ (qualified names,
//            parameter shapes, call sites, direct determinism facts);
//   pass 2 — flow rules over the linked cross-translation-unit call graph:
//            reachability findings that carry the full call chain
//            (`a() -> b() -> use of 'mt19937'`), so a wall clock two calls
//            below a journal encoder no longer hides behind a function
//            boundary. See index.hpp / graph.hpp / flow.hpp.
//
// Rule families over src/, tests/ and bench/:
//
//   D (determinism)       det-wallclock, det-random, det-thread,
//                         det-unordered-iter, det-journal-encode,
//                         det-custody-order   (+ flow variants with chains)
//   C (coroutine safety)  coro-ref-param, coro-lambda-capture,
//                         coro-view-temp, coro-first-await-if,
//                         coro-ref-escape
//   O (observability)     obs-unguarded
//   P (performance)       perf-large-byvalue
//   H (hygiene)           hyg-iostream, hyg-using-namespace, hyg-bare-allow,
//                         hyg-bad-allow, hyg-ungated-serve
//
// Findings are suppressed per line with
//   // bslint: allow(rule-a, rule-b): rationale
// (the comment covers its own line and the next *code* line — intervening
// comment and blank lines are skipped), or per file with
//   // bslint: allow-file(rule): rationale
// A suppression without a rationale — or naming an unknown rule — is itself
// a finding, so etiquette is machine-checked. A suppressed fact is treated
// as a discharged proof obligation: the flow pass does not re-report it
// through caller chains.
//
// Inline allow() is the only suppression mechanism. No state is kept
// between runs: every run lexes and indexes each named file exactly once,
// so what a run reports depends only on the tree and the analyzer binary.
//
// The analyzer is deliberately token-level and over-approximate: it trades
// soundness for zero build-time dependencies. Call sites resolve by
// unqualified name against every same-named definition; unresolved calls
// are conservative unknown edges that never suppress a finding. Known blind
// spots are documented in DESIGN.md; the curated .clang-tidy config covers
// the type-aware half of the same invariants where clang is available.
#pragma once

#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace bs::lint {

/// One shipped rule. `family` is D, C, O, P or H.
struct RuleDesc {
  const char* id;
  char family;
  const char* summary;
  const char* hint;
};

/// Catalog of every shipped rule, in stable display order.
const std::vector<RuleDesc>& rules();
bool rule_known(std::string_view id);
const RuleDesc* rule_desc(std::string_view id);

struct Finding {
  std::string path;  ///< root-relative, forward slashes
  int line{0};       ///< 1-based
  std::string rule;
  std::string message;
  int col{1};         ///< 1-based byte column; 1 when not token-precise
  std::string chain;  ///< flow findings: `root() -> mid() -> <detail>`

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// Deterministic ordering used for reports.
bool finding_less(const Finding& a, const Finding& b);

struct ScanStats {
  int suppressed{0};  ///< findings silenced by allow()/allow-file()
};

/// Memoized loader that resolves project-quoted `#include "x.hpp"` lines and
/// harvests identifiers declared with an unordered container type (so a
/// .cpp iterating a member declared in its header is still caught by
/// det-unordered-iter).
class IncludeResolver {
 public:
  /// `root` is the repo root; quoted includes resolve against root and
  /// root/src (the project's include directory).
  explicit IncludeResolver(std::string root);

  /// Unordered-declared identifiers visible through `include` (recursively,
  /// bounded depth). Returns nullptr when the file cannot be resolved.
  const std::set<std::string>* unordered_idents(const std::string& include);

 private:
  std::string root_;
  std::map<std::string, std::set<std::string>> idents_;  ///< by include name
  std::set<std::string> in_flight_;  // cycle guard
};

/// Scans one buffer with the pass-1 token rules. `path` must be
/// root-relative (it selects rule scopes: e.g. det-thread only applies
/// under src/). `includes` may be null (header harvesting is then limited
/// to the buffer itself). Flow rules need the whole tree: use run().
std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 ScanStats* stats = nullptr,
                                 IncludeResolver* includes = nullptr);

// ---------------------------------------------------------------- full runs

struct RunOptions {
  std::string root{"."};
  /// Files or directories, root-relative; directories are walked recursively
  /// in sorted order for .cpp/.hpp/.h files.
  std::vector<std::string> paths;
};

struct RunResult {
  std::vector<Finding> findings;  ///< sorted by finding_less
  int suppressed{0};
  int files_scanned{0};
};

/// Runs both passes over opts.paths. Returns false (with *error set) on I/O
/// or usage problems; analysis findings are NOT errors.
bool run(const RunOptions& opts, RunResult* result, std::string* error);

/// CLI entry point (main() delegates here; tests drive it directly).
/// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. `--format=gcc`
/// (default) prints `path:line:col: warning: message [rule]` with call-chain
/// and hint notes; `--format=json` prints one stable JSON document.
int lint_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err);

}  // namespace bs::lint
