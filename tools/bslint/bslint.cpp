#include "bslint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "cache.hpp"
#include "flow.hpp"
#include "graph.hpp"
#include "index.hpp"
#include "lexer.hpp"

namespace bs::lint {

namespace {

// ------------------------------------------------------------------- rules

constexpr const char* kSortedSnapshotHint =
    "iterate a sorted key snapshot or use std::map/std::set when order can "
    "reach traces, digests, RPC responses or event scheduling";

const std::vector<RuleDesc>& rule_table() {
  static const std::vector<RuleDesc> kRules = {
      {"det-wallclock", 'D',
       "wall-clock time source in simulated code",
       "derive every timestamp from sim.now() / SimTime; wall clocks make "
       "replays diverge"},
      {"det-random", 'D',
       "non-seeded randomness source",
       "draw from the seeded bs::Rng (split() for per-actor streams); "
       "std::random_device / rand() are unreplayable"},
      {"det-thread", 'D',
       "host threading primitive in sim-facing code",
       "the simulation is single-threaded by design; move host-parallel "
       "code out of src/ or allow-file with a rationale"},
      {"det-unordered-iter", 'D',
       "iteration over an unordered container",
       kSortedSnapshotHint},
      {"det-journal-encode", 'D',
       "journal/checkpoint encoder depends on unordered iteration or "
       "pointer identity",
       "replayed records must be byte-identical across runs: encode from a "
       "sorted snapshot and serialize values — never hash-table iteration "
       "order, reinterpret_cast bytes or pointer addresses"},
      {"det-custody-order", 'D',
       "hash-ordered container in a wire-encoding plane",
       "src/repl and src/cloud serialize container walks straight onto the "
       "wire (custody bundles, version-map replies, dedup-index checkpoints, "
       "list_objects pages), so their state must live in ordered containers "
       "(std::map/std::set/deque) — hash-table order would make wire traffic "
       "and chaos digests diverge across replays"},
      {"coro-ref-param", 'C',
       "reference/view parameter on a Task-returning coroutine",
       "coroutine parameters are copied into the frame only if by-value; a "
       "reference/string_view/span dangles when the caller's full-expression "
       "ends before the final co_await — pass by value or allow() with the "
       "lifetime argument"},
      {"coro-lambda-capture", 'C',
       "by-reference or [this] capture on a lambda coroutine",
       "captures live in the lambda object, not the coroutine frame; if the "
       "lambda dies while suspended the capture dangles — capture by value, "
       "pass state as parameters, or keep the lambda alive (e.g. stored "
       "handler) and allow() with that rationale"},
      {"coro-view-temp", 'C',
       "string_view bound to a call result inside a coroutine",
       "string_view does not extend temporary lifetime; materialize a "
       "std::string (or bind to a stable lvalue) before suspending"},
      {"coro-first-await-if", 'C',
       "co_await inside the if-condition of a coroutine's first statement",
       "GCC 12 miscompiles this exact shape: the if-condition temporary is "
       "laid out before _Coro_resume_fn, displacing the coroutine frame ABI "
       "(see DESIGN.md and tools/frame_scan). Hoist the await: "
       "`const auto v = co_await ...; if (v) { ... }`"},
      {"coro-ref-escape", 'C',
       "temporary bound to a reference/view parameter of a Task coroutine "
       "at a call site",
       "the temporary dies at the end of the full expression; unless the "
       "call is directly co_awaited the suspended coroutine reads a dangling "
       "reference — materialize a named value that outlives the final "
       "co_await, or pass by value"},
      {"perf-large-byvalue", 'P',
       "container passed by value into a coroutine frame",
       "a by-value container parameter is deep-copied into the frame when "
       "the caller passes an lvalue; share the batch as "
       "shared_ptr<const ...> (copy-free fan-out), or allow() with proof "
       "that every caller moves"},
      {"obs-unguarded", 'O',
       "unguarded dereference of the observability hook",
       "use `if (auto* ts = obs::sink()) { ... }` (same for obs::metrics()) "
       "so BS_TRACE=OFF folds the plane out and the enabled path is one "
       "predicted branch"},
      {"hyg-iostream", 'H',
       "<iostream> outside viz/, examples/ or tools/",
       "library code reports through Result/log/obs; stream I/O belongs to "
       "the rendering and tooling layers"},
      {"hyg-using-namespace", 'H',
       "using-directive at header scope",
       "headers must not inject namespaces into every includer; qualify or "
       "move the directive into a .cpp"},
      {"hyg-bare-allow", 'H',
       "suppression without a rationale",
       "write `// bslint: allow(rule): why this is safe` — the rationale is "
       "the reviewable artifact"},
      {"hyg-bad-allow", 'H',
       "suppression naming an unknown rule",
       "check `bslint --list-rules` for valid ids"},
  };
  return kRules;
}

// ------------------------------------------------------------- the scanner

class Scanner {
 public:
  Scanner(std::string_view path, LexOut lexed, IncludeResolver* inc)
      : path_(path), scope_(scope_of(path)), inc_(inc),
        lex_(std::move(lexed)) {}

  std::vector<Finding> scan(ScanStats* stats) {
    harvest();
    check_includes();
    check_idents();
    check_unordered_loops();
    check_custody_order();
    check_journal_encoders();
    check_task_functions();
    check_lambdas();
    check_view_temps();
    check_first_await_if();
    check_obs_guards();
    check_using_namespace();
    for (const Finding& f : lex_.comment_findings) report_raw(f);
    std::sort(findings_.begin(), findings_.end(), finding_less);
    findings_.erase(std::unique(findings_.begin(), findings_.end()),
                    findings_.end());
    if (stats != nullptr) stats->suppressed += suppressed_;
    return std::move(findings_);
  }

  /// Identifiers declared with an unordered container type in this file and
  /// its project include closure (shared with the index builder).
  const std::set<std::string>& unordered_idents() const { return unordered_; }

 private:
  void report(int line, int col, const char* rule, std::string message) {
    Finding f;
    f.path = path_;
    f.line = line;
    f.col = col;
    f.rule = rule;
    f.message = std::move(message);
    report_raw(std::move(f));
  }

  void report_raw(Finding f) {
    if (line_allows(lex_, f.line, f.rule)) {
      ++suppressed_;
      return;
    }
    findings_.push_back(std::move(f));
  }

  // Unordered-declared identifiers: this file plus its project includes.
  void harvest() {
    harvest_unordered(lex_.toks, unordered_);
    if (inc_ == nullptr) return;
    for (const auto& in : lex_.includes) {
      if (in.angled) continue;  // system headers: out of project scope
      if (const auto* ids = inc_->unordered_idents(in.name)) {
        unordered_.insert(ids->begin(), ids->end());
      }
    }
  }

  void check_includes() {
    static const std::set<std::string> kThreadHeaders = {
        "thread", "mutex", "shared_mutex", "atomic", "condition_variable",
        "future", "stop_token", "semaphore", "barrier", "latch"};
    static const std::set<std::string> kClockHeaders = {"chrono", "ctime",
                                                        "sys/time.h"};
    for (const auto& in : lex_.includes) {
      if (!in.angled) continue;
      if (scope_.in_src && kThreadHeaders.count(in.name) != 0u) {
        report(in.line, 1, "det-thread", "#include <" + in.name + ">");
      }
      if ((scope_.in_src || scope_.in_tests || scope_.in_bench) &&
          kClockHeaders.count(in.name) != 0u) {
        report(in.line, 1, "det-wallclock", "#include <" + in.name + ">");
      }
      if ((scope_.in_src || scope_.in_tests || scope_.in_bench) &&
          in.name == "random") {
        report(in.line, 1, "det-random", "#include <random>");
      }
      const bool iostream_ok = path_starts_with(path_, "src/viz/") ||
                               path_starts_with(path_, "examples/") ||
                               path_starts_with(path_, "tools/");
      if (in.name == "iostream" && !iostream_ok) {
        report(in.line, 1, "hyg-iostream", "#include <iostream>");
      }
    }
  }

  void check_idents() {
    if (!scope_.in_src && !scope_.in_tests && !scope_.in_bench) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tk::ident) continue;
      std::string what;
      if (const char* rule = banned_det_ident(t, i, &what)) {
        report(t[i].line, t[i].col, rule, std::move(what));
        continue;
      }
      if (scope_.in_src && is_ident(t[i], "this_thread")) {
        report(t[i].line, t[i].col, "det-thread", "use of std::this_thread");
      }
    }
  }

  void check_unordered_loops() {
    if (!scope_.in_src) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!is_ident(t[i], "for") || !is_punct(t[i + 1], "(")) continue;
      const std::size_t close = match_forward(t, i + 1, "(", ")");
      for (std::size_t j = i + 2; j < close; ++j) {
        if (t[j].kind == Tk::ident && unordered_.count(t[j].text) != 0u) {
          report(t[i].line, t[i].col, "det-unordered-iter",
                 "loop over unordered container '" + t[j].text + "'");
          break;
        }
      }
    }
  }

  /// det-custody-order: the replication and cloud-gateway planes encode
  /// container walks into RPC payloads, journal records and chaos digests,
  /// and a token scanner cannot prove any particular walk never reaches the
  /// wire — so under src/repl and src/cloud the *declaration* of a
  /// hash-ordered container is the finding, not just its iteration.
  /// Iterator walks over unordered members pulled in from included headers
  /// are flagged too (det-unordered-iter only sees range-style `for` loops).
  void check_custody_order() {
    if (!path_starts_with(path_, "src/repl/") &&
        !path_starts_with(path_, "src/cloud/")) {
      return;
    }
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (is_unordered_type(t[i])) {
        report(t[i].line, t[i].col, "det-custody-order",
               "replication-plane state declared as '" + t[i].text + "'");
        continue;
      }
      if (t[i].kind == Tk::ident && unordered_.count(t[i].text) != 0u &&
          i + 3 < t.size() &&
          (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
          (is_ident(t[i + 2], "begin") || is_ident(t[i + 2], "cbegin")) &&
          is_punct(t[i + 3], "(")) {
        report(t[i].line, t[i].col, "det-custody-order",
               "iterator walk over unordered container '" + t[i].text + "'");
      }
    }
  }

  /// det-journal-encode: inside the body of any function whose declarator
  /// identifier contains "encode" (encode_checkpoint, encode_record, ...),
  /// flag (a) loops ranging over an unordered container — the record
  /// sequence would serialize hash-table layout and diverge on replay — and
  /// (b) pointer-identity serialization (reinterpret_cast, uintptr_t,
  /// "%p"), which bakes unreplayable addresses into durable records.
  /// The flow pass (flow.cpp) extends the same contract to everything
  /// transitively reachable from an encoder.
  void check_journal_encoders() {
    if (!scope_.in_src) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Tk::ident ||
          t[i].text.find("encode") == std::string::npos) {
        continue;
      }
      if (!is_punct(t[i + 1], "(")) continue;
      const std::size_t params_close = match_forward(t, i + 1, "(", ")");
      if (params_close >= t.size()) continue;
      // Definitions only: walk past const/noexcept/trailing-return to `{`.
      // Call sites and declarations hit `)`, `,` or `;` first and are
      // skipped.
      std::size_t j = params_close + 1;
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
             !is_punct(t[j], ",") && !is_punct(t[j], ")") &&
             !is_punct(t[j], "=")) {
        ++j;
      }
      if (j >= t.size() || !is_punct(t[j], "{")) continue;
      const std::size_t body_close = match_forward(t, j, "{", "}");
      const std::string& name = t[i].text;
      for (std::size_t k = j + 1; k < body_close && k < t.size(); ++k) {
        if (is_ident(t[k], "for") && k + 1 < t.size() &&
            is_punct(t[k + 1], "(")) {
          const std::size_t close = match_forward(t, k + 1, "(", ")");
          for (std::size_t m = k + 2; m < close; ++m) {
            if (t[m].kind == Tk::ident &&
                (unordered_.count(t[m].text) != 0u ||
                 is_unordered_type(t[m]))) {
              report(t[k].line, t[k].col, "det-journal-encode",
                     "journal encoder '" + name +
                         "' iterates unordered container '" + t[m].text +
                         "'");
              break;
            }
          }
        } else if (is_ident(t[k], "reinterpret_cast") ||
                   is_ident(t[k], "uintptr_t") ||
                   is_ident(t[k], "intptr_t")) {
          report(t[k].line, t[k].col, "det-journal-encode",
                 "journal encoder '" + name +
                     "' serializes pointer identity ('" + t[k].text + "')");
        } else if (t[k].kind == Tk::str &&
                   t[k].text.find("%p") != std::string::npos) {
          report(t[k].line, t[k].col, "det-journal-encode",
                 "journal encoder '" + name +
                     "' formats a pointer address (\"%p\")");
        }
      }
    }
  }

  /// Returns the index just past a `sim::Task<...>` (or `Task<...>`) type
  /// starting at i, or i if the tokens don't spell one.
  std::size_t skip_task_type(std::size_t i) const {
    const auto& t = lex_.toks;
    std::size_t j = i;
    if (j + 1 < t.size() && is_ident(t[j], "sim") && is_punct(t[j + 1], "::")) {
      j += 2;
    }
    if (j >= t.size() || !is_ident(t[j], "Task")) return i;
    if (j + 1 >= t.size() || !is_punct(t[j + 1], "<")) return i;
    const std::size_t close = match_angles(t, j + 1);
    return close >= t.size() ? i : close + 1;
  }

  /// Reports coro-ref-param findings for the parameter list [open, close].
  /// Findings are attributed to `name_line` (the declarator) so one allow()
  /// above the signature covers a multi-line parameter list.
  void check_param_list(std::size_t open, std::size_t close,
                        const std::string& name, int name_line,
                        int name_col) {
    const auto& t = lex_.toks;
    // Handler idiom: the RPC dispatch wrapper owns the request shared_ptr
    // and the Envelope for the entire co_await of the handler, so handler
    // signatures (any function taking an rpc::Envelope) are exempt.
    for (std::size_t j = open + 1; j < close; ++j) {
      if (is_ident(t[j], "Envelope")) return;
    }
    // One report per distinct diagnostic per declarator: a signature with
    // three reference parameters is one finding (and one suppression).
    std::set<std::string> messages;
    std::set<std::string> perf_messages;
    // Per-parameter state for perf-large-byvalue: a container type name at
    // the top nesting level, voided when the parameter turns out to be a
    // reference (coro-ref-param's domain) or a pointer.
    std::string byval_container;
    bool param_is_indirect = false;
    const auto flush_param = [&] {
      if (!byval_container.empty() && !param_is_indirect) {
        perf_messages.insert("coroutine '" + name + "' copies a " +
                             byval_container + " into its frame");
      }
      byval_container.clear();
      param_is_indirect = false;
    };
    int angle = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (is_punct(t[j], "<")) ++angle;
      if (is_punct(t[j], ">")) --angle;
      if (angle > 0) continue;
      if (is_punct(t[j], ",")) {
        flush_param();
        continue;
      }
      if (is_punct(t[j], "&") || is_punct(t[j], "&&")) {
        param_is_indirect = true;
        messages.insert("coroutine '" + name +
                        "' takes a reference parameter");
      } else if (is_punct(t[j], "*")) {
        param_is_indirect = true;
      } else if (is_ident(t[j], "string_view") ||
                 (is_ident(t[j], "span") && j + 1 < close &&
                  is_punct(t[j + 1], "<"))) {
        messages.insert("coroutine '" + name + "' takes a view parameter (" +
                        t[j].text + ")");
      } else if (t[j].kind == Tk::ident &&
                 (t[j].text == "vector" || t[j].text == "deque" ||
                  t[j].text == "map" || t[j].text == "unordered_map")) {
        byval_container = t[j].text;
      }
    }
    flush_param();
    for (const std::string& m : messages) {
      report(name_line, name_col, "coro-ref-param", m);
    }
    for (const std::string& m : perf_messages) {
      report(name_line, name_col, "perf-large-byvalue", m);
    }
  }

  void check_task_functions() {
    if (!scope_.in_src) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_ident(t[i], "Task")) continue;
      if (i > 0 && is_punct(t[i - 1], "::") &&
          !(i >= 2 && is_ident(t[i - 2], "sim"))) {
        continue;  // qualified by something other than sim::
      }
      const std::size_t start = (i >= 2 && is_ident(t[i - 2], "sim")) ? i - 2
                                                                      : i;
      if (start > 0 && is_punct(t[start - 1], "->")) continue;  // lambda ret
      const std::size_t after = skip_task_type(start);
      if (after == start) continue;
      // Declarator: qualified name chain, then '('. Anything else (a Task
      // variable, a template argument, a using-alias) is skipped.
      std::size_t j = after;
      std::string name;
      int name_line = 0;
      int name_col = 1;
      while (j < t.size() &&
             (t[j].kind == Tk::ident || is_punct(t[j], "::"))) {
        if (t[j].kind == Tk::ident) {
          name = t[j].text;
          name_line = t[j].line;
          name_col = t[j].col;
        }
        ++j;
      }
      if (name.empty() || j >= t.size() || !is_punct(t[j], "(")) continue;
      const std::size_t close = match_forward(t, j, "(", ")");
      if (close >= t.size()) continue;
      check_param_list(j, close, name, name_line, name_col);
    }
  }

  /// True when the capture-open bracket at `i` belongs to a lambda passed
  /// directly to Node::serve<...>(...) — stored for the node's lifetime, so
  /// by-ref/this captures cannot outlive the coroutine.
  bool is_serve_argument(std::size_t i) const {
    const auto& t = lex_.toks;
    if (i == 0 || !is_punct(t[i - 1], "(")) return false;
    std::size_t j = i - 2;
    if (j < t.size() && is_punct(t[j], ">")) {
      // walk back over the template argument list
      int depth = 0;
      while (j > 0) {
        if (is_punct(t[j], ">")) ++depth;
        if (is_punct(t[j], "<") && --depth == 0) {
          --j;
          break;
        }
        --j;
      }
    }
    return j < t.size() && is_ident(t[j], "serve");
  }

  void check_lambdas() {
    if (!scope_.in_src) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!is_punct(t[i], "[")) continue;
      // Rule out subscripts and [[attributes]].
      if (i > 0 && (t[i - 1].kind == Tk::ident || is_punct(t[i - 1], ")") ||
                    is_punct(t[i - 1], "]"))) {
        continue;
      }
      if (i + 1 < t.size() && is_punct(t[i + 1], "[")) continue;
      const std::size_t close = match_forward(t, i, "[", "]");
      if (close >= t.size()) continue;
      bool ref_capture = false;
      std::string what;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_punct(t[j], "&") || is_punct(t[j], "&&")) {
          ref_capture = true;
          what = "by-reference";
          break;
        }
        if (is_ident(t[j], "this") && !(j > i + 1 && is_punct(t[j - 1], "*"))) {
          ref_capture = true;
          what = "[this]";
          break;
        }
      }
      if (!ref_capture) continue;
      // Lambda body: optional (params), specifiers, -> type, then {.
      std::size_t j = close + 1;
      if (j < t.size() && is_punct(t[j], "(")) {
        j = match_forward(t, j, "(", ")");
        if (j >= t.size()) continue;
        ++j;
      }
      while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";") &&
             !is_punct(t[j], ")") && !is_punct(t[j], ",")) {
        ++j;
      }
      if (j >= t.size() || !is_punct(t[j], "{")) continue;
      const std::size_t body_close = match_forward(t, j, "{", "}");
      bool coroutine = false;
      for (std::size_t k = j + 1; k < body_close && k < t.size(); ++k) {
        if (is_ident(t[k], "co_await") || is_ident(t[k], "co_return") ||
            is_ident(t[k], "co_yield")) {
          coroutine = true;
          break;
        }
      }
      if (!coroutine) continue;
      if (is_serve_argument(i)) continue;
      report(t[i].line, t[i].col, "coro-lambda-capture",
             "lambda coroutine captures " + what);
    }
  }

  /// Brace blocks that open a callable body: `{` preceded by a parameter
  /// list `)` (allowing cv/ref/noexcept specifiers and a trailing return
  /// type in between). Control-flow blocks are excluded by looking at the
  /// keyword before the matching `(`.
  std::vector<std::pair<std::size_t, std::size_t>> callable_bodies() const {
    const auto& t = lex_.toks;
    std::vector<std::pair<std::size_t, std::size_t>> bodies;
    for (std::size_t i = 1; i < t.size(); ++i) {
      if (!is_punct(t[i], "{")) continue;
      // Walk back over specifiers and a trailing return type to the ')'.
      std::size_t p = i - 1;
      while (p > 0 && (t[p].kind == Tk::ident || is_punct(t[p], "::") ||
                       is_punct(t[p], "<") || is_punct(t[p], ">") ||
                       is_punct(t[p], ",") || is_punct(t[p], "->") ||
                       is_punct(t[p], "&") || is_punct(t[p], "&&") ||
                       is_punct(t[p], "*"))) {
        --p;
      }
      if (!is_punct(t[p], ")")) continue;
      // Matching '(' for that ')'.
      int depth = 1;
      std::size_t q = p;
      while (q > 0 && depth > 0) {
        --q;
        if (is_punct(t[q], ")")) ++depth;
        if (is_punct(t[q], "(")) --depth;
      }
      if (depth != 0) continue;
      if (q > 0 && t[q - 1].kind == Tk::ident &&
          (is_ident(t[q - 1], "if") || is_ident(t[q - 1], "for") ||
           is_ident(t[q - 1], "while") || is_ident(t[q - 1], "switch") ||
           is_ident(t[q - 1], "catch"))) {
        continue;  // control block, not a callable body
      }
      const std::size_t close = match_forward(t, i, "{", "}");
      if (close < t.size()) bodies.emplace_back(i, close);
    }
    return bodies;
  }

  void check_view_temps() {
    if (!scope_.in_src) return;
    const auto& t = lex_.toks;
    for (const auto& [open, close] : callable_bodies()) {
      std::vector<std::size_t> awaits;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (is_ident(t[k], "co_await")) awaits.push_back(k);
      }
      if (awaits.empty()) continue;
      for (std::size_t k = open + 1; k + 2 < close; ++k) {
        if (!is_ident(t[k], "string_view") || t[k + 1].kind != Tk::ident ||
            !is_punct(t[k + 2], "=")) {
          continue;
        }
        // Initializer must end with a call: ... ) ;
        std::size_t e = k + 3;
        int depth = 0;
        while (e < close && (depth > 0 || !is_punct(t[e], ";"))) {
          if (is_punct(t[e], "(")) ++depth;
          if (is_punct(t[e], ")")) --depth;
          ++e;
        }
        if (e >= close || e == 0 || !is_punct(t[e - 1], ")")) continue;
        report(t[k].line, t[k].col, "coro-view-temp",
               "string_view '" + t[k + 1].text +
                   "' bound to a call result in a coroutine");
      }
    }
  }

  /// coro-first-await-if: `if (co_await ...)` as the coroutine's first
  /// statement — the exact shape GCC 12 miscompiles by laying the
  /// if-condition temporary out before _Coro_resume_fn in the frame
  /// (observed on the PR 8 reconciliation coroutine; tools/frame_scan
  /// guards the binary side of the same invariant).
  void check_first_await_if() {
    if (!scope_.in_src && !scope_.in_tests && !scope_.in_bench) return;
    const auto& t = lex_.toks;
    for (const auto& [open, close] : callable_bodies()) {
      (void)close;
      if (open + 2 >= t.size() || !is_ident(t[open + 1], "if") ||
          !is_punct(t[open + 2], "(")) {
        continue;
      }
      const std::size_t cond_close = match_forward(t, open + 2, "(", ")");
      for (std::size_t k = open + 3; k < cond_close; ++k) {
        if (is_ident(t[k], "co_await")) {
          report(t[open + 1].line, t[open + 1].col, "coro-first-await-if",
                 "co_await inside the if-condition of the coroutine's first "
                 "statement");
          break;
        }
      }
    }
  }

  void check_obs_guards() {
    if (path_starts_with(path_, "src/obs/")) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i + 5 < t.size(); ++i) {
      if (!is_ident(t[i], "obs") || !is_punct(t[i + 1], "::")) continue;
      if (!is_ident(t[i + 2], "sink") && !is_ident(t[i + 2], "metrics")) {
        continue;
      }
      if (is_punct(t[i + 3], "(") && is_punct(t[i + 4], ")") &&
          is_punct(t[i + 5], "->")) {
        report(t[i].line, t[i].col, "obs-unguarded",
               "obs::" + t[i + 2].text + "() dereferenced without a guard");
      }
    }
  }

  void check_using_namespace() {
    if (!scope_.is_header) return;
    const auto& t = lex_.toks;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (is_ident(t[i], "using") && is_ident(t[i + 1], "namespace")) {
        report(t[i].line, t[i].col, "hyg-using-namespace",
               "using-directive in a header");
      }
    }
  }

  std::string path_;
  Scope scope_;
  IncludeResolver* inc_;
  LexOut lex_;
  std::set<std::string> unordered_;
  std::vector<Finding> findings_;
  int suppressed_{0};
};

bool read_file(const std::filesystem::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------------- public

const std::vector<RuleDesc>& rules() { return rule_table(); }

bool rule_known(std::string_view id) { return rule_desc(id) != nullptr; }

const RuleDesc* rule_desc(std::string_view id) {
  for (const RuleDesc& r : rule_table()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

bool finding_less(const Finding& a, const Finding& b) {
  if (a.path != b.path) return a.path < b.path;
  if (a.line != b.line) return a.line < b.line;
  if (a.col != b.col) return a.col < b.col;
  if (a.rule != b.rule) return a.rule < b.rule;
  if (a.message != b.message) return a.message < b.message;
  return a.chain < b.chain;
}

IncludeResolver::IncludeResolver(std::string root) : root_(std::move(root)) {}

const IncludeResolver::Entry* IncludeResolver::resolve(
    const std::string& include) {
  auto it = cache_.find(include);
  if (it != cache_.end()) return &it->second;
  if (in_flight_.count(include) != 0u) return nullptr;  // include cycle
  namespace fs = std::filesystem;
  fs::path resolved;
  std::string rel;
  for (const char* base : {"src", "", "tests", "bench"}) {
    fs::path cand = fs::path(root_) / base / include;
    if (fs::exists(cand)) {
      resolved = cand;
      rel = base[0] == '\0' ? include
                            : (fs::path(base) / include).generic_string();
      break;
    }
  }
  if (resolved.empty()) return nullptr;
  std::string text;
  if (!read_file(resolved, &text)) return nullptr;
  in_flight_.insert(include);
  LexOut lexed = lex(include, text);
  Entry entry;
  entry.paths.insert(rel);
  harvest_unordered(lexed.toks, entry.ids);
  for (const auto& in : lexed.includes) {
    if (in.angled) continue;
    if (const Entry* nested = resolve(in.name)) {
      entry.ids.insert(nested->ids.begin(), nested->ids.end());
      entry.paths.insert(nested->paths.begin(), nested->paths.end());
    }
  }
  in_flight_.erase(include);
  return &cache_.emplace(include, std::move(entry)).first->second;
}

const std::set<std::string>* IncludeResolver::unordered_idents(
    const std::string& include) {
  const Entry* e = resolve(include);
  return e == nullptr ? nullptr : &e->ids;
}

const std::set<std::string>* IncludeResolver::closure(
    const std::string& include) {
  const Entry* e = resolve(include);
  return e == nullptr ? nullptr : &e->paths;
}

std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 ScanStats* stats, IncludeResolver* includes) {
  Scanner s(path, lex(std::string(path), text), includes);
  return s.scan(stats);
}

bool run(const RunOptions& opts, RunResult* result, std::string* error) {
  namespace fs = std::filesystem;
  const fs::path root(opts.root);
  if (!fs::exists(root)) {
    *error = "root does not exist: " + opts.root;
    return false;
  }
  // Collect files deterministically: explicit files first, directory walks
  // in lexicographic order.
  std::vector<std::string> files;
  for (const std::string& p : opts.paths) {
    const fs::path abs = root / p;
    if (fs::is_directory(abs)) {
      std::vector<std::string> dir_files;
      for (auto it = fs::recursive_directory_iterator(abs);
           it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          dir_files.push_back(
              fs::relative(it->path(), root).generic_string());
        }
      }
      std::sort(dir_files.begin(), dir_files.end());
      files.insert(files.end(), dir_files.begin(), dir_files.end());
    } else if (fs::is_regular_file(abs)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      *error = "no such file or directory: " + p;
      return false;
    }
  }

  // Pass-1 cache: load, validate per file by content + include-closure
  // hashes, rewrite in full afterwards. The cache only short-circuits
  // lexing/scanning/indexing — pass 2 always runs on the linked index, so
  // cached and cold runs emit identical bytes.
  const bool caching = !opts.cache_dir.empty() && !opts.no_cache;
  const fs::path cache_path = fs::path(opts.cache_dir) / "index.tsv";
  std::map<std::string, CachedFile> cached;
  if (caching) {
    std::string text;
    if (read_file(cache_path, &text)) {
      std::map<std::string, CachedFile> parsed;
      if (parse_cache(text, &parsed)) cached = std::move(parsed);
    }
  }
  std::map<std::string, std::uint64_t> live_hash;  // rel path -> fnv1a64
  auto hash_of = [&](const std::string& rel) -> std::uint64_t {
    auto it = live_hash.find(rel);
    if (it != live_hash.end()) return it->second;
    std::string text;
    const std::uint64_t h =
        read_file(root / rel, &text) ? fnv1a64(text) : 0;
    live_hash.emplace(rel, h);
    return h;
  };

  IncludeResolver resolver(root.string());
  std::vector<Finding> all;
  std::vector<FileIndex> indices;
  std::vector<CachedFile> next_cache;
  for (const std::string& f : files) {
    std::string text;
    if (!read_file(root / f, &text)) {
      *error = "cannot read: " + f;
      return false;
    }
    const std::uint64_t h = fnv1a64(text);
    live_hash[f] = h;
    const auto it = cached.find(f);
    bool hit = it != cached.end() && it->second.content_hash == h;
    if (hit) {
      for (const auto& [dep, dep_hash] : it->second.deps) {
        if (hash_of(dep) != dep_hash) {
          hit = false;
          break;
        }
      }
    }
    CachedFile entry;
    if (hit) {
      entry = it->second;
      ++result->cache_hits;
    } else {
      entry.path = f;
      entry.content_hash = h;
      LexOut lexed = lex(f, text);
      // Dependency set before the LexOut moves into the scanner.
      std::set<std::string> deps;
      for (const auto& in : lexed.includes) {
        if (in.angled) continue;
        if (const auto* cl = resolver.closure(in.name)) {
          deps.insert(cl->begin(), cl->end());
        }
      }
      Scanner scanner(f, std::move(lexed), &resolver);
      ScanStats stats;
      entry.findings = scanner.scan(&stats);
      entry.suppressed = stats.suppressed;
      // The index needs the same LexOut; re-lex (cheap) rather than teach
      // the scanner to hand its stream back.
      const LexOut lx2 = lex(f, text);
      entry.index = build_index(f, lx2, scanner.unordered_idents());
      for (const std::string& d : deps) {
        if (d != f) entry.deps.emplace_back(d, hash_of(d));
      }
    }
    result->suppressed += entry.suppressed;
    all.insert(all.end(), entry.findings.begin(), entry.findings.end());
    indices.push_back(entry.index);
    ++result->files_scanned;
    if (!opts.cache_dir.empty() && !opts.no_cache) {
      next_cache.push_back(std::move(entry));
    }
  }
  if (caching) {
    std::error_code ec;
    fs::create_directories(fs::path(opts.cache_dir), ec);
    std::ofstream out(cache_path, std::ios::binary);
    if (out) out << serialize_cache(std::move(next_cache));
  }

  // Pass 2: link and run the flow rules.
  FlowResult flow = flow_analyze(link_index(std::move(indices)));
  result->suppressed += flow.suppressed;
  all.insert(all.end(), flow.findings.begin(), flow.findings.end());
  std::sort(all.begin(), all.end(), finding_less);
  all.erase(std::unique(all.begin(), all.end()), all.end());

  // Baseline split (keys ignore the chain: path:line:rule).
  std::set<std::string> baseline_keys;
  if (!opts.baseline_path.empty() && !opts.fix_baseline) {
    std::string text;
    if (read_file(root / opts.baseline_path, &text)) {
      std::vector<std::string> bad;
      for (const Finding& b : parse_baseline(text, &bad)) {
        baseline_keys.insert(b.path + ":" + std::to_string(b.line) + ":" +
                             b.rule);
      }
      for (std::string& b : bad) result->stale.push_back(std::move(b));
    }
  }
  std::set<std::string> live_keys;
  for (Finding& f : all) {
    const std::string key =
        f.path + ":" + std::to_string(f.line) + ":" + f.rule;
    live_keys.insert(key);
    if (baseline_keys.count(key) != 0u) {
      result->baselined.push_back(std::move(f));
    } else {
      result->fresh.push_back(std::move(f));
    }
  }
  for (const std::string& key : baseline_keys) {
    if (live_keys.count(key) == 0u) result->stale.push_back(key);
  }

  if (opts.fix_baseline && !opts.baseline_path.empty()) {
    std::vector<Finding> everything = result->fresh;
    everything.insert(everything.end(), result->baselined.begin(),
                      result->baselined.end());
    std::ofstream out(root / opts.baseline_path, std::ios::binary);
    if (!out) {
      *error = "cannot write baseline: " + opts.baseline_path;
      return false;
    }
    out << format_baseline(std::move(everything));
  }
  return true;
}

std::string format_baseline(std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(), finding_less);
  std::string out =
      "# bslint baseline v2 — grandfathered findings "
      "(path:line:rule[|call chain]).\n"
      "# Regenerate with `bslint --fix-baseline`; entries are sorted so the\n"
      "# file never produces noisy diffs. Prefer fixing or inline allow()\n"
      "# comments with a rationale over baselining new findings.\n";
  for (const Finding& f : findings) {
    out += f.path + ":" + std::to_string(f.line) + ":" + f.rule;
    if (!f.chain.empty()) out += "|" + f.chain;
    out += "\n";
  }
  return out;
}

std::vector<Finding> parse_baseline(std::string_view text,
                                    std::vector<std::string>* bad) {
  std::vector<Finding> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t e = text.find('\n', pos);
    if (e == std::string_view::npos) e = text.size();
    std::string line(text.substr(pos, e - pos));
    pos = e + 1;
    trim(line);
    if (line.empty() || line.front() == '#') continue;
    // Optional `|call chain` suffix, then path:line:rule split on the
    // *last* two colons (paths may not contain colons in this repo, but be
    // precise anyway).
    std::string chain;
    if (const auto bar = line.find('|'); bar != std::string::npos) {
      chain = line.substr(bar + 1);
      line.erase(bar);
      trim(line);
    }
    const auto c2 = line.rfind(':');
    const auto c1 = c2 == std::string::npos ? std::string::npos
                                            : line.rfind(':', c2 - 1);
    bool ok = c1 != std::string::npos && c1 > 0 && c2 > c1 + 1;
    Finding f;
    f.chain = std::move(chain);
    if (ok) {
      f.path = line.substr(0, c1);
      f.rule = line.substr(c2 + 1);
      try {
        f.line = std::stoi(line.substr(c1 + 1, c2 - c1 - 1));
      } catch (...) {
        ok = false;
      }
      if (!rule_known(f.rule)) ok = false;
    }
    if (ok) {
      out.push_back(std::move(f));
    } else if (bad != nullptr) {
      bad->push_back("unparseable baseline line: " + line);
    }
  }
  return out;
}

int lint_main(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  RunOptions opts;
  bool quiet = false;
  bool list_rules = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        err << "bslint: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--root") {
      const char* v = need_value("--root");
      if (v == nullptr) return 2;
      opts.root = v;
    } else if (a == "--baseline") {
      const char* v = need_value("--baseline");
      if (v == nullptr) return 2;
      opts.baseline_path = v;
    } else if (a == "--cache-dir") {
      const char* v = need_value("--cache-dir");
      if (v == nullptr) return 2;
      opts.cache_dir = v;
    } else if (a == "--no-cache") {
      opts.no_cache = true;
    } else if (a == "--fix-baseline") {
      opts.fix_baseline = true;
    } else if (a == "--format" || a.rfind("--format=", 0) == 0) {
      std::string_view v;
      if (a == "--format") {
        const char* val = need_value("--format");
        if (val == nullptr) return 2;
        v = val;
      } else {
        v = a.substr(9);
      }
      if (v == "json") {
        json = true;
      } else if (v == "gcc") {
        json = false;
      } else {
        err << "bslint: unknown format '" << v << "' (gcc, json)\n";
        return 2;
      }
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--list-rules") {
      list_rules = true;
    } else if (a == "--help" || a == "-h") {
      out << "usage: bslint [--root DIR] [--baseline FILE] [--fix-baseline]\n"
             "              [--format=gcc|json] [--cache-dir DIR] "
             "[--no-cache]\n"
             "              [--list-rules] [--quiet] PATH...\n"
             "Paths are files or directories relative to --root.\n"
             "Exit: 0 clean, 1 findings, 2 usage/I-O error.\n";
      return 0;
    } else if (!a.empty() && a.front() == '-') {
      err << "bslint: unknown flag " << a << "\n";
      return 2;
    } else {
      opts.paths.emplace_back(a);
    }
  }
  if (list_rules) {
    for (const RuleDesc& r : rules()) {
      out << r.family << "  " << r.id << "  — " << r.summary << "\n";
    }
    return 0;
  }
  if (opts.paths.empty()) {
    err << "bslint: no paths given (try --help)\n";
    return 2;
  }
  if (opts.fix_baseline && opts.baseline_path.empty()) {
    err << "bslint: --fix-baseline needs --baseline FILE\n";
    return 2;
  }
  RunResult res;
  std::string error;
  if (!run(opts, &res, &error)) {
    err << "bslint: " << error << "\n";
    return 2;
  }
  if (json) {
    out << "{\n  \"findings\": [";
    bool first = true;
    for (const Finding& f : res.fresh) {
      out << (first ? "" : ",") << "\n    {\"path\": \""
          << json_escape(f.path) << "\", \"line\": " << f.line
          << ", \"col\": " << f.col << ", \"rule\": \""
          << json_escape(f.rule) << "\", \"message\": \""
          << json_escape(f.message) << "\", \"chain\": \""
          << json_escape(f.chain) << "\"}";
      first = false;
    }
    out << (first ? "" : "\n  ") << "],\n  \"stale_baseline\": [";
    first = true;
    for (const std::string& s : res.stale) {
      out << (first ? "" : ",") << "\n    \"" << json_escape(s) << "\"";
      first = false;
    }
    out << (first ? "" : "\n  ") << "],\n"
        << "  \"baselined\": " << res.baselined.size() << ",\n"
        << "  \"suppressed\": " << res.suppressed << ",\n"
        << "  \"files_scanned\": " << res.files_scanned << ",\n"
        << "  \"cache_hits\": " << res.cache_hits << ",\n"
        << "  \"baseline_rewritten\": "
        << (opts.fix_baseline ? "true" : "false") << "\n}\n";
    if (opts.fix_baseline) return 0;
    return res.fresh.empty() ? 0 : 1;
  }
  if (!quiet) {
    for (const Finding& f : res.fresh) {
      out << f.path << ":" << f.line << ":" << f.col << ": warning: "
          << f.message << " [" << f.rule << "]\n";
      if (!f.chain.empty()) {
        out << "    note: call chain: " << f.chain << "\n";
      }
      if (const RuleDesc* r = rule_desc(f.rule)) {
        out << "    hint: " << r->hint << "\n";
      }
    }
    for (const std::string& s : res.stale) {
      out << "note: stale baseline entry: " << s << "\n";
    }
  }
  if (opts.fix_baseline) {
    out << "bslint: baseline rewritten ("
        << res.fresh.size() + res.baselined.size() << " entries)\n";
    return 0;
  }
  out << "bslint: " << res.fresh.size() << " finding(s), "
      << res.baselined.size() << " baselined, " << res.suppressed
      << " suppressed, " << res.files_scanned << " file(s)\n";
  return res.fresh.empty() ? 0 : 1;
}

}  // namespace bs::lint
