#include "cache.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace bs::lint {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string esc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unesc(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case '\\': out += '\\'; break;
        case 't': out += '\t'; break;
        case 'n': out += '\n'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

std::vector<std::string> split_tabs(std::string_view line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const auto e = line.find('\t', pos);
    if (e == std::string_view::npos) {
      out.emplace_back(line.substr(pos));
      return out;
    }
    out.emplace_back(line.substr(pos, e - pos));
    pos = e + 1;
  }
}

bool to_int(const std::string& s, int* out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && p == s.data() + s.size();
}

bool to_u64(const std::string& s, std::uint64_t* out) {
  const auto [p, ec] =
      std::from_chars(s.data(), s.data() + s.size(), *out, 16);
  return ec == std::errc() && p == s.data() + s.size();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v, 16);
  (void)ec;
  return std::string(buf, p);
}

std::string header_line() {
  return "bslint-cache v2 rules=" + std::to_string(rules().size());
}

}  // namespace

std::string serialize_cache(std::vector<CachedFile> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const CachedFile& a, const CachedFile& b) {
              return a.path < b.path;
            });
  std::string out = header_line() + "\n";
  for (const CachedFile& e : entries) {
    out += "F\t" + esc(e.path) + "\t" + hex(e.content_hash) + "\t" +
           std::to_string(e.suppressed) + "\n";
    for (const auto& [dep, h] : e.deps) {
      out += "I\t" + esc(dep) + "\t" + hex(h) + "\n";
    }
    for (const Finding& f : e.findings) {
      out += "D\t" + std::to_string(f.line) + "\t" + std::to_string(f.col) +
             "\t" + f.rule + "\t" + esc(f.message) + "\t" + esc(f.chain) +
             "\n";
    }
    for (const auto& [line, rls] : e.index.allow_cover) {
      std::string joined;
      for (const std::string& r : rls) {
        if (!joined.empty()) joined += ",";
        joined += r;
      }
      out += "A\t" + std::to_string(line) + "\t" + joined + "\n";
    }
    for (const std::string& r : e.index.allow_file) {
      out += "G\t" + r + "\n";
    }
    for (const FuncDef& fd : e.index.funcs) {
      std::string flags;
      flags += fd.is_coroutine ? '1' : '0';
      flags += fd.returns_task ? '1' : '0';
      flags += fd.takes_envelope ? '1' : '0';
      std::string params;
      for (const ParamShape& p : fd.params) {
        if (!params.empty()) params += ",";
        params += p.by_ref ? 'r' : '-';
        params += p.is_view ? 'v' : '-';
      }
      out += "U\t" + esc(fd.qname) + "\t" + esc(fd.name) + "\t" +
             std::to_string(fd.line) + "\t" + std::to_string(fd.col) + "\t" +
             flags + "\t" + params + "\n";
      for (const CallSite& cs : fd.calls) {
        std::string temps;
        for (bool b : cs.arg_temp) temps += b ? '1' : '0';
        out += "C\t" + esc(cs.name) + "\t" + std::to_string(cs.line) + "\t" +
               std::to_string(cs.col) + "\t" +
               (cs.direct_await ? "1" : "0") + "\t" + temps + "\n";
      }
      for (const Fact& fa : fd.facts) {
        out += "T\t" + std::string(fact_kind_name(fa.kind)) + "\t" +
               std::to_string(fa.line) + "\t" + std::to_string(fa.col) +
               "\t" + esc(fa.detail) + "\n";
      }
    }
    out += "E\n";
  }
  return out;
}

bool parse_cache(std::string_view text,
                 std::map<std::string, CachedFile>* out) {
  std::map<std::string, CachedFile> parsed;
  CachedFile* cur = nullptr;
  FuncDef* cur_fn = nullptr;
  bool first = true;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t e = text.find('\n', pos);
    if (e == std::string_view::npos) e = text.size();
    const std::string_view line = text.substr(pos, e - pos);
    pos = e + 1;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (first) {
      if (line != header_line()) return false;
      first = false;
      continue;
    }
    const auto parts = split_tabs(line);
    const std::string& tag = parts[0];
    if (tag == "F") {
      if (parts.size() != 4) return false;
      CachedFile cf;
      cf.path = unesc(parts[1]);
      int supp = 0;
      if (!to_u64(parts[2], &cf.content_hash) || !to_int(parts[3], &supp)) {
        return false;
      }
      cf.suppressed = supp;
      cf.index.path = cf.path;
      cur = &parsed.emplace(cf.path, std::move(cf)).first->second;
      cur_fn = nullptr;
      continue;
    }
    if (cur == nullptr) return false;
    if (tag == "I") {
      if (parts.size() != 3) return false;
      std::uint64_t h = 0;
      if (!to_u64(parts[2], &h)) return false;
      cur->deps.emplace_back(unesc(parts[1]), h);
    } else if (tag == "D") {
      if (parts.size() != 6) return false;
      Finding f;
      f.path = cur->path;
      if (!to_int(parts[1], &f.line) || !to_int(parts[2], &f.col)) {
        return false;
      }
      f.rule = parts[3];
      f.message = unesc(parts[4]);
      f.chain = unesc(parts[5]);
      cur->findings.push_back(std::move(f));
    } else if (tag == "A") {
      if (parts.size() != 3) return false;
      int line_no = 0;
      if (!to_int(parts[1], &line_no)) return false;
      std::istringstream ss(parts[2]);
      std::string r;
      while (std::getline(ss, r, ',')) {
        if (!r.empty()) cur->index.allow_cover[line_no].insert(r);
      }
    } else if (tag == "G") {
      if (parts.size() != 2) return false;
      cur->index.allow_file.insert(parts[1]);
    } else if (tag == "U") {
      if (parts.size() != 7 || parts[5].size() != 3) return false;
      FuncDef fd;
      fd.qname = unesc(parts[1]);
      fd.name = unesc(parts[2]);
      if (!to_int(parts[3], &fd.line) || !to_int(parts[4], &fd.col)) {
        return false;
      }
      fd.is_coroutine = parts[5][0] == '1';
      fd.returns_task = parts[5][1] == '1';
      fd.takes_envelope = parts[5][2] == '1';
      std::istringstream ss(parts[6]);
      std::string p;
      while (std::getline(ss, p, ',')) {
        if (p.size() != 2) return false;
        ParamShape sh;
        sh.by_ref = p[0] == 'r';
        sh.is_view = p[1] == 'v';
        fd.params.push_back(sh);
      }
      cur->index.funcs.push_back(std::move(fd));
      cur_fn = &cur->index.funcs.back();
    } else if (tag == "C") {
      if (cur_fn == nullptr || parts.size() != 6) return false;
      CallSite cs;
      cs.name = unesc(parts[1]);
      if (!to_int(parts[2], &cs.line) || !to_int(parts[3], &cs.col)) {
        return false;
      }
      cs.direct_await = parts[4] == "1";
      for (char c : parts[5]) cs.arg_temp.push_back(c == '1');
      cur_fn->calls.push_back(std::move(cs));
    } else if (tag == "T") {
      if (cur_fn == nullptr || parts.size() != 5) return false;
      Fact fa;
      if (!fact_kind_from_name(parts[1], &fa.kind)) return false;
      if (!to_int(parts[2], &fa.line) || !to_int(parts[3], &fa.col)) {
        return false;
      }
      fa.detail = unesc(parts[4]);
      cur_fn->facts.push_back(std::move(fa));
    } else if (tag == "E") {
      cur = nullptr;
      cur_fn = nullptr;
    } else {
      return false;
    }
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace bs::lint
