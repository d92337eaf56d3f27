// bslint pass 1 — per-file symbol index.
//
// Parses one file's token stream into the facts the cross-TU flow pass
// (flow.cpp) consumes: function/coroutine definitions with scope-qualified
// names and parameter shapes, every call site inside each body (with
// argument temporariness for the call-site lifetime rule), and "facts" —
// direct determinism violations found in the body. The index is built only
// for files under src/: resolving call names against tests/bench would
// create bogus name-collision edges into fixture code.
//
// Everything here is deliberately over-approximate (no types, no overload
// resolution): a call site resolves to *every* same-named definition, and a
// call that resolves to nothing stays an "unknown" edge that can never
// suppress a finding — it only fails to widen reachability. DESIGN.md
// documents this conservative-approximation contract.
//
// Facts on lines carrying an allow() for the corresponding rule are dropped
// at build time: a reviewed suppression is a proof obligation discharged at
// the sink, so the flow pass must not re-report the same token through every
// caller chain.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace bs::lint {

/// A direct violation inside a function body, before reachability analysis.
enum class FactKind : std::uint8_t {
  wallclock,        ///< banned wall-clock token (det-wallclock family)
  random,           ///< non-seeded randomness token (det-random family)
  unordered_iter,   ///< loop ranging over an unordered container
  ptr_identity      ///< reinterpret_cast / uintptr_t / "%p" serialization
};

/// Stable name used in the cache serialization.
const char* fact_kind_name(FactKind k);
bool fact_kind_from_name(std::string_view s, FactKind* out);

/// The rule whose allow() suppresses a fact of this kind at its own line.
const char* fact_suppressing_rule(FactKind k);

struct Fact {
  FactKind kind;
  int line{0};
  int col{0};
  std::string detail;  ///< e.g. "use of 'mt19937'"

  friend bool operator==(const Fact&, const Fact&) = default;
};

struct ParamShape {
  bool by_ref{false};   ///< declared with & / &&
  bool is_view{false};  ///< string_view or span<...>

  friend bool operator==(const ParamShape&, const ParamShape&) = default;
};

struct CallSite {
  std::string name;  ///< unqualified callee name as written
  int line{0};
  int col{0};
  bool direct_await{false};    ///< the call is the operand of co_await
  std::vector<bool> arg_temp;  ///< per argument: produces a temporary

  friend bool operator==(const CallSite&, const CallSite&) = default;
};

struct FuncDef {
  std::string qname;  ///< scope-qualified, "::"-joined (best effort)
  std::string name;   ///< last component; "operator()" for call operators
  int line{0};        ///< declarator name line
  int col{0};
  bool is_coroutine{false};
  bool returns_task{false};
  bool takes_envelope{false};  ///< handler idiom: exempt from escape rules
  std::vector<ParamShape> params;
  std::vector<CallSite> calls;
  std::vector<Fact> facts;

  friend bool operator==(const FuncDef&, const FuncDef&) = default;
};

struct FileIndex {
  std::string path;
  std::vector<FuncDef> funcs;
  /// Suppression state carried forward so the flow pass can honor allow()
  /// comments at the line a flow finding is attributed to.
  std::map<int, std::set<std::string>> allow_cover;
  std::set<std::string> allow_file;

  friend bool operator==(const FileIndex&, const FileIndex&) = default;
};

/// Builds the index for one src/ file. `unordered_idents` carries the
/// identifiers declared with unordered container types in this file plus its
/// project include closure (same harvest the token rules use).
FileIndex build_index(const std::string& path, const LexOut& lx,
                      const std::set<std::string>& unordered_idents);

}  // namespace bs::lint
