#include "flow.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

namespace bs::lint {

namespace {

bool name_has(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// A reachability rule. Facts in the root's own body are the token rules'
/// job, so a flow finding always has at least one call edge in its chain.
struct FlowRuleCfg {
  const char* rule;
  std::vector<FactKind> kinds;
};

bool wants(const FlowRuleCfg& cfg, FactKind k) {
  return std::find(cfg.kinds.begin(), cfg.kinds.end(), k) != cfg.kinds.end();
}

std::string rule_message(const std::string& rule, const FuncDef& root,
                         const std::string& detail) {
  if (rule == "det-journal-encode") {
    return "journal encoder '" + root.qname + "' transitively reaches " +
           detail;
  }
  return "call chain from '" + root.qname + "' reaches " + detail;
}

/// One candidate flow finding before per-sink deduplication.
struct Candidate {
  Finding finding;
  std::size_t chain_len{0};
  bool suppressed{false};
};

bool candidate_better(const Candidate& a, const Candidate& b) {
  if (a.chain_len != b.chain_len) return a.chain_len < b.chain_len;
  if (a.finding.chain != b.finding.chain) {
    return a.finding.chain < b.finding.chain;
  }
  return finding_less(a.finding, b.finding);
}

void run_reachability(const ProjectIndex& pi, const FlowRuleCfg& cfg,
                      const std::vector<FuncRef>& roots, FlowResult* out) {
  // sink key: (path, line, col, detail) — one report per offending token,
  // whatever the number of roots that reach it.
  std::map<std::tuple<std::string, int, int, std::string>,
           std::vector<Candidate>>
      per_sink;
  for (const FuncRef root_ref : roots) {
    const FuncDef& root = pi.at(root_ref);
    const FileIndex& root_file = pi.file_of(root_ref);
    std::map<FuncRef, FuncRef> parent;
    std::map<FuncRef, std::pair<int, int>> via;  // call site in the parent
    std::deque<FuncRef> queue{root_ref};
    std::map<FuncRef, std::size_t> depth{{root_ref, 0}};
    while (!queue.empty()) {
      const FuncRef cur = queue.front();
      queue.pop_front();
      const FuncDef& fd = pi.at(cur);
      const std::size_t d = depth[cur];
      // Facts at this node.
      if (d > 0) {
        for (const Fact& fact : fd.facts) {
          if (!wants(cfg, fact.kind)) continue;
          // Chain root() -> ... -> node(), then the offending token.
          std::vector<std::string> names;
          FuncRef walk = cur;
          while (true) {
            names.push_back(pi.at(walk).name + "()");
            auto it = parent.find(walk);
            if (it == parent.end()) break;
            walk = it->second;
          }
          std::reverse(names.begin(), names.end());
          std::string chain;
          for (const std::string& n : names) {
            if (!chain.empty()) chain += " -> ";
            chain += n;
          }
          chain += " -> " + fact.detail;
          Candidate cand;
          cand.chain_len = names.size();
          cand.finding.path = root_file.path;
          cand.finding.rule = cfg.rule;
          cand.finding.message = rule_message(cfg.rule, root, fact.detail);
          cand.finding.chain = chain;
          // First edge out of the root: climb to the depth-1 node.
          FuncRef hop = cur;
          while (parent.find(hop) != parent.end() &&
                 !(parent.at(hop) == root_ref)) {
            hop = parent.at(hop);
          }
          const auto [l, c] = via.at(hop);
          cand.finding.line = l;
          cand.finding.col = c;
          cand.suppressed =
              root_file.allow_file.count(cfg.rule) != 0u ||
              [&] {
                auto it = root_file.allow_cover.find(cand.finding.line);
                return it != root_file.allow_cover.end() &&
                       it->second.count(cfg.rule) != 0u;
              }();
          per_sink[{pi.file_of(cur).path, fact.line, fact.col, fact.detail}]
              .push_back(std::move(cand));
        }
      }
      // Expand edges.
      for (const CallSite& cs : fd.calls) {
        const auto* cands = pi.candidates(cs.name);
        if (cands == nullptr) continue;  // unknown edge: nothing to widen
        for (const FuncRef next : *cands) {
          if (depth.find(next) != depth.end()) continue;  // cycle/rejoin
          depth[next] = d + 1;
          parent[next] = cur;
          via[next] = {cs.line, cs.col};
          queue.push_back(next);
        }
      }
    }
  }
  for (auto& [key, cands] : per_sink) {
    (void)key;
    std::vector<Candidate> live;
    for (Candidate& c : cands) {
      if (!c.suppressed) live.push_back(std::move(c));
    }
    if (live.empty()) {
      ++out->suppressed;
      continue;
    }
    auto best = std::min_element(live.begin(), live.end(), candidate_better);
    out->findings.push_back(std::move(best->finding));
  }
}

/// coro-ref-escape: temporaries bound to reference/view parameters of
/// Task<>-returning definitions at the call site. Conservative across
/// overloads — if *any* same-named candidate binds the temporary to a
/// reference, the call is flagged (unknown callees are never flagged: there
/// is no parameter shape to check against).
void run_ref_escape(const ProjectIndex& pi, FlowResult* out) {
  std::map<std::tuple<std::string, int, int, std::string>, Finding> dedup;
  int suppressed = 0;
  for (const FileIndex& fi : pi.files) {
    for (const FuncDef& fd : fi.funcs) {
      for (const CallSite& cs : fd.calls) {
        if (cs.direct_await) continue;  // temp outlives the whole co_await
        const auto* cands = pi.candidates(cs.name);
        if (cands == nullptr) continue;
        for (const FuncRef ref : *cands) {
          const FuncDef& cd = pi.at(ref);
          if (!cd.returns_task || cd.takes_envelope) continue;
          const std::size_t n =
              std::min(cd.params.size(), cs.arg_temp.size());
          for (std::size_t k = 0; k < n; ++k) {
            if (!cs.arg_temp[k]) continue;
            if (!cd.params[k].by_ref && !cd.params[k].is_view) continue;
            Finding f;
            f.path = fi.path;
            f.line = cs.line;
            f.col = cs.col;
            f.rule = "coro-ref-escape";
            f.message = "temporary bound to " +
                        std::string(cd.params[k].by_ref ? "reference"
                                                        : "view") +
                        " parameter " + std::to_string(k + 1) +
                        " of coroutine '" + cd.qname + "'";
            f.chain = fd.name + "() -> " + cd.name + "()";
            const bool allow =
                fi.allow_file.count(f.rule) != 0u || [&] {
                  auto it = fi.allow_cover.find(f.line);
                  return it != fi.allow_cover.end() &&
                         it->second.count(f.rule) != 0u;
                }();
            auto key = std::make_tuple(f.path, f.line, f.col, f.message);
            if (allow) {
              if (dedup.find(key) == dedup.end()) ++suppressed;
              continue;
            }
            dedup.emplace(std::move(key), std::move(f));
          }
        }
      }
    }
  }
  out->suppressed += suppressed;
  for (auto& [key, f] : dedup) {
    (void)key;
    out->findings.push_back(std::move(f));
  }
}

}  // namespace

FlowResult flow_analyze(const ProjectIndex& pi) {
  FlowResult out;

  std::vector<FuncRef> sim_roots;
  std::vector<FuncRef> encoder_roots;
  for (std::size_t f = 0; f < pi.files.size(); ++f) {
    for (std::size_t g = 0; g < pi.files[f].funcs.size(); ++g) {
      const FuncDef& fd = pi.files[f].funcs[g];
      const FuncRef ref{f, g};
      if (fd.returns_task) sim_roots.push_back(ref);
      if (name_has(fd.name, "encode") || name_has(fd.name, "checkpoint")) {
        encoder_roots.push_back(ref);
      }
    }
  }

  run_reachability(pi, {"det-wallclock", {FactKind::wallclock}}, sim_roots,
                   &out);
  run_reachability(pi, {"det-random", {FactKind::random}}, sim_roots, &out);
  run_reachability(pi, {"det-unordered-iter", {FactKind::unordered_iter}},
                   sim_roots, &out);
  run_reachability(pi,
                   {"det-journal-encode",
                    {FactKind::wallclock, FactKind::random,
                     FactKind::unordered_iter, FactKind::ptr_identity}},
                   encoder_roots, &out);
  run_ref_escape(pi, &out);

  std::sort(out.findings.begin(), out.findings.end(), finding_less);
  out.findings.erase(
      std::unique(out.findings.begin(), out.findings.end()),
      out.findings.end());
  return out;
}

}  // namespace bs::lint
