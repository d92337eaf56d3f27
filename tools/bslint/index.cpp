#include "index.hpp"

#include <algorithm>

namespace bs::lint {

const char* fact_suppressing_rule(FactKind k) {
  switch (k) {
    case FactKind::wallclock: return "det-wallclock";
    case FactKind::random: return "det-random";
    case FactKind::unordered_iter: return "det-unordered-iter";
    case FactKind::ptr_identity: return "det-journal-encode";
  }
  return "?";
}

namespace {

/// One recognized function definition, as token-span coordinates.
struct FuncSpan {
  std::size_t name_idx{0};
  std::size_t decl_begin{0};  ///< first token of the declaration statement
  std::size_t params_open{0};
  std::size_t params_close{0};
  std::size_t body_open{0};
  std::size_t body_close{0};
  std::string name;
  std::vector<std::string> quals;  ///< explicit `A::B::` written in the decl
};

/// Walks forward from just past the parameter list, over cv/ref qualifiers,
/// noexcept(...), trailing return types and constructor init lists, to the
/// body's `{`. Returns false for declarations, call sites, `= default` and
/// anything else that is not a definition.
bool find_body(const std::vector<Tok>& t, std::size_t after_params,
               std::size_t* body_open) {
  std::size_t j = after_params;
  bool in_init_list = false;
  while (j < t.size()) {
    const Tok& tk = t[j];
    if (is_punct(tk, "{")) {
      // Inside an init list `m_{...}` braces follow the member name (an
      // ident or a template close); the body brace follows ')' or '}'.
      if (in_init_list && j > 0 &&
          (t[j - 1].kind == Tk::ident || is_punct(t[j - 1], ">"))) {
        j = match_forward(t, j, "{", "}");
        if (j >= t.size()) return false;
        ++j;
        continue;
      }
      *body_open = j;
      return true;
    }
    if (is_punct(tk, ",")) {
      if (in_init_list) {
        ++j;
        continue;
      }
      return false;
    }
    if (is_punct(tk, ";") || is_punct(tk, ")") || is_punct(tk, "=")) {
      return false;
    }
    if (is_punct(tk, ":")) {
      in_init_list = true;
      ++j;
      continue;
    }
    if (is_punct(tk, "(")) {
      j = match_forward(t, j, "(", ")");
      if (j >= t.size()) return false;
      ++j;
      continue;
    }
    if (is_punct(tk, "<")) {
      const std::size_t e = match_angles(t, j);
      if (e >= t.size()) return false;
      j = e + 1;
      continue;
    }
    ++j;  // const, noexcept, override, ->, &, type names, requires, ...
  }
  return false;
}

/// Tries to recognize a function definition whose parameter-list `(` sits at
/// token `p`. Over-approximate by design: macro-expansion shapes that look
/// like `name(...) { ... }` index as functions, which only widens the graph.
bool recognize(const std::vector<Tok>& t, std::size_t p, FuncSpan* out) {
  if (!is_punct(t[p], "(") || p == 0) return false;
  std::size_t back;
  if (t[p - 1].kind == Tk::ident && !keyword_like(t[p - 1].text)) {
    out->name = t[p - 1].text;
    out->name_idx = p - 1;
    back = p - 1;
    if (back > 0 && is_ident(t[back - 1], "operator")) {
      out->name = "operator " + out->name;  // conversion operator
      out->name_idx = back - 1;
      back = back - 1;
    }
  } else if (p >= 3 && is_punct(t[p - 1], ")") && is_punct(t[p - 2], "(") &&
             is_ident(t[p - 3], "operator")) {
    out->name = "operator()";
    out->name_idx = p - 3;
    back = p - 3;
  } else {
    return false;
  }
  // Explicit qualifier chain written in the declarator: `A::B::name`.
  std::size_t k = back;
  while (k >= 2 && is_punct(t[k - 1], "::") && t[k - 2].kind == Tk::ident) {
    out->quals.insert(out->quals.begin(), t[k - 2].text);
    k -= 2;
  }
  // Declaration statement start: walk back to the previous statement
  // boundary (covers the return type and any template header).
  std::size_t b = k;
  while (b > 0) {
    const Tok& prev = t[b - 1];
    if (prev.kind == Tk::pp || is_punct(prev, ";") || is_punct(prev, "{") ||
        is_punct(prev, "}") || is_punct(prev, ":") || is_punct(prev, ",") ||
        is_punct(prev, "(")) {
      break;
    }
    --b;
  }
  out->decl_begin = b;
  out->params_open = p;
  out->params_close = match_forward(t, p, "(", ")");
  if (out->params_close >= t.size()) return false;
  if (!find_body(t, out->params_close + 1, &out->body_open)) return false;
  out->body_close = match_forward(t, out->body_open, "{", "}");
  return out->body_close < t.size();
}

/// Scope name for the brace at token `i`: the namespace / struct / class
/// name when the brace opens one, "" otherwise.
std::string brace_scope_name(const std::vector<Tok>& t, std::size_t i) {
  std::size_t b = i;
  while (b > 0) {
    const Tok& p = t[b - 1];
    if (p.kind == Tk::pp || is_punct(p, ";") || is_punct(p, "{") ||
        is_punct(p, "}")) {
      break;
    }
    --b;
  }
  for (std::size_t k = b; k < i; ++k) {
    if (is_ident(t[k], "namespace")) {
      std::string name;
      for (std::size_t m = k + 1; m < i; ++m) {
        if (t[m].kind == Tk::ident) {
          if (!name.empty()) name += "::";
          name += t[m].text;
        } else if (!is_punct(t[m], "::")) {
          break;
        }
      }
      return name;
    }
    const bool enum_class =
        is_ident(t[k], "class") && k > 0 && is_ident(t[k - 1], "enum");
    if ((is_ident(t[k], "struct") || is_ident(t[k], "class")) && !enum_class) {
      for (std::size_t m = k + 1; m < i; ++m) {
        if (t[m].kind == Tk::ident && !is_ident(t[m], "final") &&
            !is_ident(t[m], "alignas")) {
          return t[m].text;
        }
        if (is_punct(t[m], ":") || is_punct(t[m], "{")) break;
      }
      return "";
    }
  }
  return "";
}

/// True when [s, e) spells `std::move(...)` / `move(...)`.
bool is_move_call(const std::vector<Tok>& t, std::size_t s, std::size_t e) {
  if (s < e && is_ident(t[s], "std") && s + 1 < e && is_punct(t[s + 1], "::")) {
    s += 2;
  }
  return s < e && is_ident(t[s], "move") && s + 1 < e && is_punct(t[s + 1], "(");
}

/// Parameter shapes for the list in (open, close): one entry per top-level
/// comma-separated parameter. Template arguments are angle-matched so a
/// `map<K, V>` parameter stays one parameter.
std::vector<ParamShape> parse_params(const std::vector<Tok>& t,
                                     std::size_t open, std::size_t close,
                                     bool* takes_envelope) {
  std::vector<ParamShape> out;
  ParamShape cur;
  bool saw_any = false;
  bool only_void = true;
  int depth = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    if (is_punct(t[j], "(") || is_punct(t[j], "[")) ++depth;
    if (is_punct(t[j], ")") || is_punct(t[j], "]")) --depth;
    if (is_punct(t[j], "<")) {
      const std::size_t e = match_angles(t, j);
      if (e < close) {
        // span<...> marks the view before we skip its argument list.
        if (j > open + 1 && is_ident(t[j - 1], "span")) cur.is_view = true;
        j = e;
        continue;
      }
    }
    if (depth > 0) continue;
    if (is_punct(t[j], ",")) {
      out.push_back(cur);
      cur = ParamShape{};
      saw_any = true;
      only_void = true;
      continue;
    }
    saw_any = true;
    if (is_punct(t[j], "&") || is_punct(t[j], "&&")) {
      cur.by_ref = true;
    } else if (is_ident(t[j], "string_view")) {
      cur.is_view = true;
    } else if (is_ident(t[j], "Envelope")) {
      *takes_envelope = true;
    }
    if (!is_ident(t[j], "void")) only_void = false;
  }
  if (saw_any) out.push_back(cur);
  if (out.size() == 1 && only_void && !out[0].by_ref && !out[0].is_view) {
    out.clear();  // `f(void)`
  }
  return out;
}

/// True when token `i` (a callee name) is the operand of co_await, looking
/// back across `obj.` / `ptr->` / `ns::` chains.
bool directly_awaited(const std::vector<Tok>& t, std::size_t i) {
  std::size_t k = i;
  while (k >= 2 &&
         (is_punct(t[k - 1], "::") || is_punct(t[k - 1], ".") ||
          is_punct(t[k - 1], "->")) &&
         t[k - 2].kind == Tk::ident) {
    k -= 2;
  }
  return k >= 1 && is_ident(t[k - 1], "co_await");
}

}  // namespace

FileIndex build_index(const std::string& path, const LexOut& lx,
                      const std::set<std::string>& unordered_idents) {
  FileIndex out;
  out.path = path;
  out.allow_cover = lx.allow_cover;
  out.allow_file = lx.allow_file;
  if (!scope_of(path).in_src) return out;  // flow analysis is src/-only
  const auto& t = lx.toks;

  // ---- recognize every function definition ----
  std::vector<FuncSpan> spans;
  for (std::size_t p = 0; p < t.size(); ++p) {
    FuncSpan fs;
    if (recognize(t, p, &fs)) spans.push_back(std::move(fs));
  }

  // ---- scope walk: qualified names ----
  // Stack of (close_idx, scope_name); function bodies push "" so local
  // structs still contribute their name.
  std::vector<std::pair<std::size_t, std::string>> stack;
  std::set<std::size_t> func_bodies;
  for (const FuncSpan& fs : spans) func_bodies.insert(fs.body_open);
  std::map<std::size_t, std::string> scope_at_name;  // name_idx -> prefix
  std::map<std::size_t, std::size_t> span_by_name_idx;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    span_by_name_idx[spans[s].name_idx] = s;
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    while (!stack.empty() && i > stack.back().first) stack.pop_back();
    if (auto it = span_by_name_idx.find(i); it != span_by_name_idx.end()) {
      std::string prefix;
      for (const auto& [close, name] : stack) {
        (void)close;
        if (name.empty()) continue;
        if (!prefix.empty()) prefix += "::";
        prefix += name;
      }
      scope_at_name[i] = std::move(prefix);
    }
    if (is_punct(t[i], "{")) {
      const std::size_t close = match_forward(t, i, "{", "}");
      std::string name =
          func_bodies.count(i) != 0u ? "" : brace_scope_name(t, i);
      stack.emplace_back(close, std::move(name));
    }
  }

  // ---- per-function extraction ----
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const FuncSpan& fs = spans[s];
    FuncDef fd;
    fd.name = fs.name;
    fd.line = t[fs.name_idx].line;
    fd.col = t[fs.name_idx].col;
    std::string qname = scope_at_name.count(fs.name_idx) != 0u
                            ? scope_at_name[fs.name_idx]
                            : std::string();
    for (const std::string& q : fs.quals) {
      if (!qname.empty()) qname += "::";
      qname += q;
    }
    if (!qname.empty()) qname += "::";
    fd.qname = qname + fd.name;
    // Return type: any `Task` ident between the statement start and the
    // qualifier chain.
    for (std::size_t j = fs.decl_begin;
         j < fs.name_idx && j < t.size(); ++j) {
      if (is_ident(t[j], "Task")) fd.returns_task = true;
    }
    fd.params = parse_params(t, fs.params_open, fs.params_close,
                             &fd.takes_envelope);

    // Nested definitions (local-struct methods) are excluded from this
    // function's body scan; lambda bodies are deliberately included —
    // attributing a lambda's behavior to its enclosing function only widens
    // reachability.
    std::vector<std::pair<std::size_t, std::size_t>> holes;
    for (std::size_t o = 0; o < spans.size(); ++o) {
      if (o == s) continue;
      if (spans[o].body_open > fs.body_open &&
          spans[o].body_close < fs.body_close) {
        holes.emplace_back(spans[o].body_open, spans[o].body_close);
      }
    }
    auto in_hole = [&](std::size_t j) {
      for (const auto& [ho, hc] : holes) {
        if (j >= ho && j <= hc) return true;
      }
      return false;
    };

    for (std::size_t j = fs.body_open + 1; j < fs.body_close; ++j) {
      if (in_hole(j)) continue;
      const Tok& tk = t[j];
      if (tk.kind == Tk::ident &&
          (tk.text == "co_await" || tk.text == "co_return" ||
           tk.text == "co_yield")) {
        fd.is_coroutine = true;
      }
      // Facts: direct violations, minus reviewed suppressions.
      auto add_fact = [&](FactKind kind, int line, int col,
                          std::string detail) {
        if (line_allows(lx, line, fact_suppressing_rule(kind))) return;
        fd.facts.push_back({kind, line, col, std::move(detail)});
      };
      std::string what;
      if (const char* rule = banned_det_ident(t, j, &what)) {
        add_fact(rule == std::string_view("det-wallclock")
                     ? FactKind::wallclock
                     : FactKind::random,
                 tk.line, tk.col, std::move(what));
      } else if (is_ident(tk, "for") && j + 1 < fs.body_close &&
                 is_punct(t[j + 1], "(")) {
        const std::size_t close = match_forward(t, j + 1, "(", ")");
        for (std::size_t m = j + 2; m < close; ++m) {
          if (t[m].kind == Tk::ident &&
              (unordered_idents.count(t[m].text) != 0u ||
               is_unordered_type(t[m]))) {
            add_fact(FactKind::unordered_iter, tk.line, tk.col,
                     "loop over unordered container '" + t[m].text + "'");
            break;
          }
        }
      } else if (is_ident(tk, "reinterpret_cast") ||
                 is_ident(tk, "uintptr_t") || is_ident(tk, "intptr_t")) {
        add_fact(FactKind::ptr_identity, tk.line, tk.col,
                 "'" + tk.text + "'");
      } else if (tk.kind == Tk::str &&
                 tk.text.find("%p") != std::string::npos) {
        add_fact(FactKind::ptr_identity, tk.line, tk.col,
                 "pointer format (\"%p\")");
      }
      // Call sites: every `name(` that is not a keyword. Member calls stay
      // as name-only edges; resolution against the project index happens in
      // the flow pass.
      if (tk.kind == Tk::ident && !keyword_like(tk.text) &&
          j + 1 < fs.body_close && is_punct(t[j + 1], "(")) {
        CallSite cs;
        cs.name = tk.text;
        cs.line = tk.line;
        cs.col = tk.col;
        cs.direct_await = directly_awaited(t, j);
        const std::size_t close = match_forward(t, j + 1, "(", ")");
        if (close < t.size()) {
          std::size_t arg_start = j + 2;
          int depth = 0;
          for (std::size_t m = j + 2; m <= close; ++m) {
            if (is_punct(t[m], "(") || is_punct(t[m], "[") ||
                is_punct(t[m], "{")) {
              ++depth;
            }
            if (is_punct(t[m], ")") || is_punct(t[m], "]") ||
                is_punct(t[m], "}")) {
              --depth;
            }
            const bool at_end = m == close;
            if (!at_end && !(is_punct(t[m], ",") && depth == 0)) continue;
            if (m > arg_start) {
              // A temporary argument: call result, braced init or literal
              // string; std::move(x) forwards an lvalue that outlives the
              // statement, so it does not count.
              const Tok& last = t[m - 1];
              bool temp = last.kind == Tk::str || is_punct(last, ")") ||
                          is_punct(last, "}");
              if (temp && is_move_call(t, arg_start, m)) temp = false;
              cs.arg_temp.push_back(temp);
            } else if (!at_end) {
              cs.arg_temp.push_back(false);  // empty argument slot
            }
            arg_start = m + 1;
          }
        }
        fd.calls.push_back(std::move(cs));
      }
    }
    out.funcs.push_back(std::move(fd));
  }
  return out;
}

}  // namespace bs::lint
