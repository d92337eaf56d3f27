#include "lexer.hpp"

#include <cctype>

namespace bs::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Finding comment_finding(const std::string& path, int line, const char* rule,
                        std::string message) {
  Finding f;
  f.path = path;
  f.line = line;
  f.rule = rule;
  f.message = std::move(message);
  return f;
}

/// Parses a `bslint:` suppression comment body. Grammar:
///   bslint: allow(rule[, rule...])[: rationale]
///   bslint: allow-file(rule[, rule...])[: rationale]
void parse_suppression(const std::string& path, std::string body, int line,
                       LexOut& out) {
  const auto pos = body.find("bslint:");
  if (pos == std::string::npos) return;
  body.erase(0, pos + 7);
  trim(body);
  bool file_scope = false;
  if (body.rfind("allow-file", 0) == 0) {
    file_scope = true;
    body.erase(0, 10);
  } else if (body.rfind("allow", 0) == 0) {
    body.erase(0, 5);
  } else {
    out.comment_findings.push_back(comment_finding(
        path, line, "hyg-bad-allow",
        "malformed bslint comment (expected allow(...) or allow-file(...))"));
    return;
  }
  trim(body);
  if (body.empty() || body.front() != '(') {
    out.comment_findings.push_back(
        comment_finding(path, line, "hyg-bad-allow", "missing rule list after allow"));
    return;
  }
  const auto close = body.find(')');
  if (close == std::string::npos) {
    out.comment_findings.push_back(
        comment_finding(path, line, "hyg-bad-allow", "unterminated rule list"));
    return;
  }
  std::string list = body.substr(1, close - 1);
  std::string rest = body.substr(close + 1);
  trim(rest);
  // Split the rule list on commas.
  std::vector<std::string> ids;
  std::string cur;
  for (char c : list) {
    if (c == ',') {
      ids.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  ids.push_back(cur);
  bool any_valid = false;
  for (std::string& id : ids) {
    trim(id);
    if (id.empty()) continue;
    if (!rule_known(id)) {
      out.comment_findings.push_back(
        comment_finding(path, line, "hyg-bad-allow", "unknown rule '" + id + "'"));
      continue;
    }
    any_valid = true;
    if (file_scope) {
      out.allow_file.insert(id);
    } else {
      out.allow[line].insert(id);
    }
  }
  if (ids.size() == 1 && ids.front().empty()) {
    out.comment_findings.push_back(
        comment_finding(path, line, "hyg-bad-allow", "empty rule list"));
    return;
  }
  // Rationale: non-empty text after `): `.
  std::string rationale = rest;
  if (!rationale.empty() && rationale.front() == ':') rationale.erase(0, 1);
  trim(rationale);
  if (any_valid && rationale.empty()) {
    out.comment_findings.push_back(
        comment_finding(path, line, "hyg-bare-allow", "suppression has no rationale"));
  }
}

}  // namespace

void trim(std::string& s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
}

LexOut lex(const std::string& path, std::string_view src) {
  LexOut out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  std::size_t line_start = 0;  // byte index of the current line's first char
  bool at_line_start = true;   // only whitespace seen since the newline
  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };
  auto col_of = [&](std::size_t at) -> int {
    return static_cast<int>(at - line_start) + 1;
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      std::size_t e = i;
      while (e < n && src[e] != '\n') ++e;
      parse_suppression(path, std::string(src.substr(i + 2, e - i - 2)), line,
                        out);
      i = e;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      std::size_t e = i + 2;
      const int start_line = line;
      while (e + 1 < n && !(src[e] == '*' && src[e + 1] == '/')) {
        if (src[e] == '\n') {
          ++line;
          line_start = e + 1;
        }
        ++e;
      }
      parse_suppression(path, std::string(src.substr(i + 2, e - i - 2)),
                        start_line, out);
      i = e + 2;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor logical line (with \-continuations). Not tokenized as
      // code; include targets are extracted for the header rules.
      const int pp_col = col_of(i);
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && peek(1) == '\n') {
          i += 2;
          ++line;
          line_start = i;
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i++];
      }
      const int pp_line = line;
      std::size_t p = 1;
      while (p < text.size() &&
             std::isspace(static_cast<unsigned char>(text[p]))) {
        ++p;
      }
      if (text.compare(p, 7, "include") == 0) {
        p += 7;
        while (p < text.size() &&
               std::isspace(static_cast<unsigned char>(text[p]))) {
          ++p;
        }
        if (p < text.size() && (text[p] == '<' || text[p] == '"')) {
          const bool angled = text[p] == '<';
          const char closer = angled ? '>' : '"';
          const auto e = text.find(closer, p + 1);
          if (e != std::string::npos) {
            out.includes.push_back(
                {pp_line, text.substr(p + 1, e - p - 1), angled});
          }
        }
      }
      out.code_lines.insert(pp_line);
      out.toks.push_back({Tk::pp, std::move(text), pp_line, pp_col});
      at_line_start = true;  // the newline is still pending
      continue;
    }
    at_line_start = false;
    if (c == 'R' && peek(1) == '"') {
      // Raw string literal R"delim( ... )delim"
      const int start_col = col_of(i);
      const int start_line = line;
      std::size_t d = i + 2;
      std::string delim;
      while (d < n && src[d] != '(') delim += src[d++];
      const std::string closer = ")" + delim + "\"";
      const auto e = src.find(closer, d);
      const std::size_t stop = e == std::string_view::npos
                                   ? n
                                   : e + closer.size();
      for (std::size_t k = i; k < stop; ++k) {
        if (src[k] == '\n') {
          ++line;
          line_start = k + 1;
        }
      }
      out.toks.push_back({Tk::str, "", start_line, start_col});
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char q = c;
      const int start_col = col_of(i);
      const int start_line = line;
      std::size_t e = i + 1;
      while (e < n && src[e] != q) {
        if (src[e] == '\\') ++e;
        if (e < n && src[e] == '\n') {
          ++line;  // unterminated tolerance
          line_start = e + 1;
        }
        ++e;
      }
      // String contents are kept: det-journal-encode greps literals for
      // pointer format specifiers.
      out.toks.push_back({q == '"' ? Tk::str : Tk::chr,
                          std::string(src.substr(i, e + 1 - i)), start_line,
                          start_col});
      i = e + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t e = i;
      while (e < n && ident_char(src[e])) ++e;
      out.toks.push_back(
          {Tk::ident, std::string(src.substr(i, e - i)), line, col_of(i)});
      i = e;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t e = i;
      while (e < n && (ident_char(src[e]) || src[e] == '.' ||
                       ((src[e] == '+' || src[e] == '-') && e > i &&
                        (src[e - 1] == 'e' || src[e - 1] == 'E')))) {
        ++e;
      }
      out.toks.push_back(
          {Tk::num, std::string(src.substr(i, e - i)), line, col_of(i)});
      i = e;
      continue;
    }
    // Punctuation; only the pairs the rules care about are fused.
    if ((c == ':' && peek(1) == ':') || (c == '-' && peek(1) == '>') ||
        (c == '&' && peek(1) == '&')) {
      out.toks.push_back(
          {Tk::punct, std::string(src.substr(i, 2)), line, col_of(i)});
      i += 2;
      continue;
    }
    out.toks.push_back({Tk::punct, std::string(1, c), line, col_of(i)});
    ++i;
  }
  for (const Tok& t : out.toks) out.code_lines.insert(t.line);
  finalize_suppressions(out);
  return out;
}

// ------------------------------------------------------------ token helpers

std::size_t match_forward(const std::vector<Tok>& t, std::size_t open,
                          const char* o, const char* c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tk::punct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

std::size_t match_angles(const std::vector<Tok>& t, std::size_t open) {
  int depth = 0;
  int parens = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tk::punct) continue;
    const std::string& s = t[i].text;
    if (s == "(") ++parens;
    if (s == ")") --parens;
    if (parens > 0) continue;
    if (s == "<") ++depth;
    if (s == ">" && --depth == 0) return i;
    if (s == ";" || s == "{") break;
  }
  return t.size();
}

bool is_punct(const Tok& t, const char* s) {
  return t.kind == Tk::punct && t.text == s;
}
bool is_ident(const Tok& t, const char* s) {
  return t.kind == Tk::ident && t.text == s;
}

bool keyword_like(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",        "while",       "switch",       "catch",
      "return",   "sizeof",     "alignof",     "alignas",      "decltype",
      "noexcept", "co_await",   "co_return",   "co_yield",     "new",
      "delete",   "case",       "else",        "do",           "throw",
      "requires", "typeid",     "static_cast", "dynamic_cast", "const_cast",
      "assert",   "defined",    "operator",    "static_assert",
      "reinterpret_cast"};
  return kKeywords.count(s) != 0u;
}

// ----------------------------------------------------------- path predicates

bool path_starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}

Scope scope_of(std::string_view path) {
  Scope s{};
  s.in_src = path_starts_with(path, "src/");
  s.in_tests = path_starts_with(path, "tests/");
  s.in_bench = path_starts_with(path, "bench/");
  s.is_header = path.size() > 4 && (path.substr(path.size() - 4) == ".hpp" ||
                                    path.substr(path.size() - 2) == ".h");
  return s;
}

// ---------------------------------------------------------------- harvesting

namespace {
constexpr const char* kUnorderedTypes[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
}  // namespace

bool is_unordered_type(const Tok& t) {
  if (t.kind != Tk::ident) return false;
  for (const char* u : kUnorderedTypes) {
    if (t.text == u) return true;
  }
  return false;
}

void harvest_unordered(const std::vector<Tok>& t, std::set<std::string>& out) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_unordered_type(t[i])) continue;
    std::size_t j = i + 1;
    if (j >= t.size() || !is_punct(t[j], "<")) continue;
    j = match_angles(t, j);
    if (j >= t.size()) continue;
    ++j;  // past '>'
    while (j < t.size() &&
           (is_punct(t[j], "&") || is_punct(t[j], "*") ||
            is_punct(t[j], "&&") || is_ident(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == Tk::ident) out.insert(t[j].text);
  }
}

const char* banned_det_ident(const std::vector<Tok>& t, std::size_t i,
                             std::string* what) {
  static const std::map<std::string, const char*> kBannedIdents = {
      {"system_clock", "det-wallclock"},
      {"steady_clock", "det-wallclock"},
      {"high_resolution_clock", "det-wallclock"},
      {"gettimeofday", "det-wallclock"},
      {"clock_gettime", "det-wallclock"},
      {"timespec_get", "det-wallclock"},
      {"localtime", "det-wallclock"},
      {"gmtime", "det-wallclock"},
      {"mktime", "det-wallclock"},
      {"random_device", "det-random"},
      {"mt19937", "det-random"},
      {"mt19937_64", "det-random"},
      {"minstd_rand", "det-random"},
      {"default_random_engine", "det-random"},
      {"srand", "det-random"},
      {"random_shuffle", "det-random"},
  };
  if (t[i].kind != Tk::ident) return nullptr;
  auto it = kBannedIdents.find(t[i].text);
  if (it != kBannedIdents.end()) {
    *what = "use of '" + t[i].text + "'";
    return it->second;
  }
  // `time(...)`/`rand()` only when clearly the C library call: either
  // std::-qualified or a bare call (not a member / project function).
  if ((t[i].text == "time" || t[i].text == "rand") && i + 1 < t.size() &&
      is_punct(t[i + 1], "(")) {
    const bool member =
        i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    const bool std_qualified =
        i >= 2 && is_punct(t[i - 1], "::") && is_ident(t[i - 2], "std");
    const bool other_qualified = i > 0 && is_punct(t[i - 1], "::");
    const bool nullary_or_null =
        i + 2 < t.size() &&
        (is_punct(t[i + 2], ")") || is_ident(t[i + 2], "nullptr") ||
         is_ident(t[i + 2], "NULL") ||
         (t[i + 2].kind == Tk::num && t[i + 2].text == "0"));
    if (std_qualified || (!member && !other_qualified && nullary_or_null)) {
      *what = "call to '" + t[i].text + "()'";
      return t[i].text == "time" ? "det-wallclock" : "det-random";
    }
  }
  return nullptr;
}

// ------------------------------------------------------- suppression cover

void finalize_suppressions(LexOut& out) {
  out.allow_cover.clear();
  for (const auto& [line, rules] : out.allow) {
    out.allow_cover[line].insert(rules.begin(), rules.end());
    auto next = out.code_lines.upper_bound(line);
    if (next != out.code_lines.end()) {
      out.allow_cover[*next].insert(rules.begin(), rules.end());
    }
  }
}

bool line_allows(const LexOut& lx, int line, std::string_view rule) {
  if (lx.allow_file.count(std::string(rule)) != 0u) return true;
  auto it = lx.allow_cover.find(line);
  return it != lx.allow_cover.end() &&
         it->second.count(std::string(rule)) != 0u;
}

}  // namespace bs::lint
