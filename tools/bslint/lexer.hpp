// bslint lexer — the shared token stream both analysis passes consume.
//
// Pass 1 (tools/bslint/index.cpp) parses the tokens of every file into a
// lightweight symbol index; the token-level rule engine in bslint.cpp walks
// the same stream for per-file rules. Keeping one lexer guarantees the two
// passes agree on line/column attribution and on suppression coverage.
//
// Beyond plain tokenization this layer owns the `bslint:` comment grammar:
//   // bslint: allow(rule[, rule...]): rationale       (line scope)
//   // bslint: allow-file(rule[, rule...]): rationale  (file scope)
// and resolves line-scoped suppressions into an explicit coverage map
// (`allow_cover`): an allow comment covers its own line and the next *code*
// line, so the rule engine and the cross-TU flow pass share one membership
// test instead of re-walking comment/blank gaps.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bslint.hpp"

namespace bs::lint {

enum class Tk : std::uint8_t { ident, punct, num, str, chr, pp };

struct Tok {
  Tk kind;
  std::string text;
  int line;
  int col;  ///< 1-based byte column of the token start
};

struct LexOut {
  std::vector<Tok> toks;
  // lines carrying at least one code token (not comment/blank)
  std::set<int> code_lines;
  // line -> rules allowed on that line (raw comment positions)
  std::map<int, std::set<std::string>> allow;
  // resolved coverage: line -> rules suppressed on that exact line
  // (populated by finalize_suppressions: each allow covers itself and the
  // next code line)
  std::map<int, std::set<std::string>> allow_cover;
  std::set<std::string> allow_file;
  // parse problems found in suppression comments: (line, rule-id, bad?)
  std::vector<Finding> comment_findings;
  // raw #include targets: (line, header-name, angled?)
  struct Include {
    int line;
    std::string name;
    bool angled;
  };
  std::vector<Include> includes;
};

LexOut lex(const std::string& path, std::string_view src);

// ------------------------------------------------------------ token helpers

bool is_punct(const Tok& t, const char* s);
bool is_ident(const Tok& t, const char* s);
bool keyword_like(const std::string& s);  ///< control/cast/expr keywords

/// Index of the matching closer for the opener at `open` (e.g. '(' -> ')').
/// Returns toks.size() when unbalanced.
std::size_t match_forward(const std::vector<Tok>& t, std::size_t open,
                          const char* o, const char* c);

/// Matches template angle brackets starting at `open` (which must be `<`).
/// Treats `(`/`)` nesting opaquely; `;` and `{` abort (not a template list).
std::size_t match_angles(const std::vector<Tok>& t, std::size_t open);

void trim(std::string& s);

// ----------------------------------------------------------- path predicates

bool path_starts_with(std::string_view s, std::string_view p);

struct Scope {
  bool in_src;
  bool in_tests;
  bool in_bench;
  bool is_header;
};

Scope scope_of(std::string_view path);

// ---------------------------------------------------------------- harvesting

bool is_unordered_type(const Tok& t);

/// Collects identifiers declared with an unordered container type:
///   std::unordered_map<K, V> name ...   (members, locals, parameters)
void harvest_unordered(const std::vector<Tok>& t, std::set<std::string>& out);

/// Shared determinism-token matcher: returns the rule id ("det-wallclock" or
/// "det-random") violated by the identifier token at `i`, or nullptr, and
/// fills *what with the human-readable detail ("use of 'mt19937'"). Both the
/// token-level rule engine and the index fact builder go through this, so a
/// flow finding can never disagree with the direct finding about what counts
/// as a violation.
const char* banned_det_ident(const std::vector<Tok>& t, std::size_t i,
                             std::string* what);

// ------------------------------------------------------- suppression cover

/// Resolves `allow` into `allow_cover` (each comment covers its own line and
/// the next code line after it).
void finalize_suppressions(LexOut& out);

/// Membership test used by the rule engine and the flow pass.
bool line_allows(const LexOut& lx, int line, std::string_view rule);

}  // namespace bs::lint
