// Self-tests for bslint (tools/bslint). Fixtures are inline snippets fed
// through scan_source with a synthetic path (paths select rule scopes), plus
// filesystem-level tests for run()/lint_main() exit codes. Every shipped
// rule gets at least one positive, one suppressed and one clean fixture.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bslint.hpp"

namespace bs::lint {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

std::vector<Finding> scan(std::string_view path, std::string_view text,
                          ScanStats* stats = nullptr) {
  return scan_source(path, text, stats);
}

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
  for (const auto& f : fs) {
    if (f.rule == rule) return true;
  }
  return false;
}

// ------------------------------------------------------------ rule catalog

TEST(BslintCatalog, EveryRuleHasFamilySummaryAndHint) {
  ASSERT_FALSE(rules().empty());
  for (const RuleDesc& r : rules()) {
    EXPECT_TRUE(r.family == 'D' || r.family == 'C' || r.family == 'O' ||
                r.family == 'P' || r.family == 'H')
        << r.id;
    EXPECT_NE(std::string(r.summary), "") << r.id;
    EXPECT_NE(std::string(r.hint), "") << r.id;
    EXPECT_TRUE(rule_known(r.id));
    EXPECT_EQ(rule_desc(r.id), &r);
  }
  EXPECT_FALSE(rule_known("no-such-rule"));
  EXPECT_EQ(rule_desc("no-such-rule"), nullptr);
}

// ------------------------------------------------------- D: det-wallclock

TEST(BslintDeterminism, FlagsWallClockSources) {
  auto fs = scan("src/x.cpp",
                 "#include <chrono>\n"
                 "auto t = std::chrono::system_clock::now();\n"
                 "auto u = std::chrono::steady_clock::now();\n");
  EXPECT_EQ(rules_of(fs), (std::vector<std::string>{
                              "det-wallclock", "det-wallclock",
                              "det-wallclock"}));
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
}

TEST(BslintDeterminism, FlagsBareTimeCallButNotMembersOrProjectCalls) {
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "long t = time(nullptr);\n"),
                       "det-wallclock"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "long t = std::time(0);\n"),
                       "det-wallclock"));
  // Member calls and argument-taking project functions named `time` pass.
  EXPECT_TRUE(scan("src/x.cpp", "auto t = sim.time();\n").empty());
  EXPECT_TRUE(scan("src/x.cpp", "auto t = obj->time();\n").empty());
  EXPECT_TRUE(scan("src/x.cpp", "auto t = time(a, b);\n").empty());
}

TEST(BslintDeterminism, WallClockCleanSimTimeUsage) {
  EXPECT_TRUE(scan("src/x.cpp", "SimTime now = sim.now();\n").empty());
}

// --------------------------------------------------------- D: det-random

TEST(BslintDeterminism, FlagsRandomSources) {
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "#include <random>\n"),
                       "det-random"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::random_device rd;\n"),
                       "det-random"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::mt19937_64 g(7);\n"),
                       "det-random"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "int r = rand();\n"), "det-random"));
  EXPECT_TRUE(has_rule(scan("tests/x.cpp", "srand(42);\n"), "det-random"));
}

TEST(BslintDeterminism, ProjectRngIsClean) {
  EXPECT_TRUE(
      scan("src/x.cpp", "bs::Rng rng(seed); auto v = rng.next();\n").empty());
}

// --------------------------------------------------------- D: det-thread

TEST(BslintDeterminism, FlagsThreadPrimitivesOnlyInSrc) {
  const char* text =
      "#include <thread>\n#include <mutex>\n#include <atomic>\n";
  auto fs = scan("src/x.cpp", text);
  EXPECT_EQ(fs.size(), 3u);
  for (const auto& f : fs) EXPECT_EQ(f.rule, "det-thread");
  // Host-side test code may thread (the sim itself must not).
  EXPECT_TRUE(scan("tests/x.cpp", text).empty());
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "std::this_thread::yield();\n"),
                       "det-thread"));
}

TEST(BslintDeterminism, AllowFileSuppresssWholeFile) {
  ScanStats stats;
  auto fs = scan("src/x.hpp",
                 "// bslint: allow-file(det-thread): host-side pool\n"
                 "#include <thread>\n#include <mutex>\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 2);
}

// --------------------------------------------- D: det-unordered-iter

TEST(BslintDeterminism, FlagsLoopOverUnorderedMember) {
  auto fs = scan("src/x.cpp",
                 "std::unordered_map<int, int> m_;\n"
                 "void f() { for (auto& [k, v] : m_) use(k); }\n");
  ASSERT_TRUE(has_rule(fs, "det-unordered-iter"));
  EXPECT_EQ(fs[0].line, 2);
}

TEST(BslintDeterminism, FlagsIteratorLoopOverUnordered) {
  auto fs = scan("src/x.cpp",
                 "std::unordered_set<int> s_;\n"
                 "void f() {\n"
                 "  for (auto it = s_.begin(); it != s_.end(); ++it) g(it);\n"
                 "}\n");
  EXPECT_TRUE(has_rule(fs, "det-unordered-iter"));
}

TEST(BslintDeterminism, OrderedMapLoopIsClean) {
  EXPECT_TRUE(scan("src/x.cpp",
                   "std::map<int, int> m_;\n"
                   "void f() { for (auto& [k, v] : m_) use(k); }\n")
                  .empty());
}

TEST(BslintDeterminism, SuppressedUnorderedLoopCounts) {
  ScanStats stats;
  auto fs = scan("src/x.cpp",
                 "std::unordered_map<int, int> m_;\n"
                 "void f() {\n"
                 "  // bslint: allow(det-unordered-iter): sums are "
                 "order-insensitive\n"
                 "  for (auto& [k, v] : m_) total += v;\n"
                 "}\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 1);
}

TEST(BslintDeterminism, UnorderedIterOnlyAppliesUnderSrc) {
  const char* text =
      "std::unordered_map<int, int> m_;\n"
      "void f() { for (auto& [k, v] : m_) use(k); }\n";
  EXPECT_TRUE(scan("tests/x.cpp", text).empty());
}

// --------------------------------------------- D: det-journal-encode

TEST(BslintDeterminism, FlagsEncoderIteratingUnorderedContainer) {
  auto fs = scan("src/x.cpp",
                 "std::unordered_map<Key, Rec> recs_;\n"
                 "std::vector<Entry> encode_checkpoint() {\n"
                 "  std::vector<Entry> image;\n"
                 "  for (auto& [k, v] : recs_) image.push_back(enc(k, v));\n"
                 "  return image;\n"
                 "}\n");
  ASSERT_TRUE(has_rule(fs, "det-journal-encode"));
  // The generic unordered-loop rule fires too; the encoder rule pins the
  // durable-record hazard specifically.
  EXPECT_TRUE(has_rule(fs, "det-unordered-iter"));
  EXPECT_EQ(fs[0].line, 4);
}

TEST(BslintDeterminism, FlagsEncoderSerializingPointers) {
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp",
           "void encode_record(const Rec& r, Buf& b) {\n"
           "  b.put(reinterpret_cast<const char*>(&r), sizeof(r));\n"
           "}\n"),
      "det-journal-encode"));
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp",
           "void encode_record(Rec* r, Buf& b) {\n"
           "  b.put_u64(static_cast<std::uintptr_t>(0) + uintptr_t(r));\n"
           "}\n"),
      "det-journal-encode"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp",
                            "void encode_record(Rec* r, char* out) {\n"
                            "  std::snprintf(out, 32, \"%p\", (void*)r);\n"
                            "}\n"),
                       "det-journal-encode"));
}

TEST(BslintDeterminism, FlagsFoldingEncoderIteratingUnorderedMember) {
  // The (previous, tail) hook signature changes nothing: folding the tail
  // is clean, and walking an unordered member into the image still fires.
  auto fs = scan(
      "src/x.cpp",
      "std::unordered_map<NodeKey, TreeNode> nodes_;\n"
      "std::vector<Entry> Provider::encode_checkpoint(\n"
      "    std::vector<Entry> previous,\n"
      "    const std::vector<Entry>& tail) const {\n"
      "  for (const Entry& e : tail) fold(previous, e);\n"
      "  for (const auto& [k, v] : nodes_) previous.push_back(enc(k, v));\n"
      "  return previous;\n"
      "}\n");
  int encode_findings = 0;
  for (const Finding& f : fs) {
    if (f.rule != "det-journal-encode") continue;
    ++encode_findings;
    EXPECT_EQ(f.line, 6);
  }
  EXPECT_EQ(encode_findings, 1);
}

TEST(BslintDeterminism, SortedSnapshotEncoderIsClean) {
  auto fs = scan("src/x.cpp",
                 "std::vector<Entry> encode_checkpoint() {\n"
                 "  std::vector<Entry> image;\n"
                 "  for (const Key& k : sorted_keys()) image.push_back(e(k));\n"
                 "  return image;\n"
                 "}\n");
  EXPECT_FALSE(has_rule(fs, "det-journal-encode"));
}

TEST(BslintDeterminism, EncoderCallSitesAndDeclarationsAreNotScanned) {
  // Only definitions have bodies to scan; a call next to an unordered loop
  // in some *other* function must not be attributed to the encoder.
  auto fs = scan("src/x.cpp",
                 "std::vector<Entry> encode_checkpoint();\n"
                 "std::unordered_map<int, int> m_;\n"
                 "void f() {\n"
                 "  install(encode_checkpoint());\n"
                 "  for (auto& [k, v] : m_) use(k);\n"
                 "}\n");
  EXPECT_FALSE(has_rule(fs, "det-journal-encode"));
  EXPECT_TRUE(has_rule(fs, "det-unordered-iter"));
}

TEST(BslintDeterminism, SuppressedEncoderLoopCounts) {
  ScanStats stats;
  auto fs = scan(
      "src/x.cpp",
      "std::unordered_map<Key, Rec> recs_;\n"
      "std::vector<Entry> encode_checkpoint() {\n"
      "  std::vector<Key> keys;\n"
      "  // bslint: allow(det-unordered-iter): snapshot sorted below\n"
      "  // bslint: allow(det-journal-encode): snapshot sorted below\n"
      "  for (auto& [k, v] : recs_) keys.push_back(k);\n"
      "  std::sort(keys.begin(), keys.end());\n"
      "  return encode_sorted(keys);\n"
      "}\n",
      &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 2);
}

TEST(BslintDeterminism, JournalEncodeOnlyAppliesUnderSrc) {
  const char* text =
      "std::unordered_map<Key, Rec> recs_;\n"
      "std::vector<Entry> encode_checkpoint() {\n"
      "  for (auto& [k, v] : recs_) emit(k, v);\n"
      "}\n";
  EXPECT_FALSE(has_rule(scan("tests/x.cpp", text), "det-journal-encode"));
  EXPECT_FALSE(has_rule(scan("bench/x.cpp", text), "det-journal-encode"));
}

TEST(BslintDeterminism, FlagsCustodyBundleEncoderIteratingUnordered) {
  // The custody checkpoint walks the dedup index straight into durable
  // records: both the encoder rule and the repl-wide container ban fire.
  auto fs = scan(
      "src/repl/egress.cpp",
      "std::unordered_map<SiteId, IdSet> applied_;\n"
      "std::vector<Entry> encode_checkpoint() {\n"
      "  std::vector<Entry> image;\n"
      "  for (auto& [peer, ids] : applied_) image.push_back(enc(peer, ids));\n"
      "  return image;\n"
      "}\n");
  EXPECT_TRUE(has_rule(fs, "det-journal-encode"));
  EXPECT_TRUE(has_rule(fs, "det-custody-order"));
}

TEST(BslintDeterminism, QueueOrderCustodyEncoderIsClean) {
  // Checkpointing in queue order from sequential containers is the blessed
  // shape — no encoder or custody-order findings.
  auto fs = scan(
      "src/repl/egress.cpp",
      "std::map<SiteId, Dst> dsts_;\n"
      "std::vector<Entry> encode_checkpoint() {\n"
      "  std::vector<Entry> image;\n"
      "  for (const auto& [dst, st] : dsts_) {\n"
      "    for (const Bundle& b : st.queue.bundles()) {\n"
      "      image.push_back(enc(dst, b));\n"
      "    }\n"
      "  }\n"
      "  return image;\n"
      "}\n");
  EXPECT_FALSE(has_rule(fs, "det-journal-encode"));
  EXPECT_FALSE(has_rule(fs, "det-custody-order"));
}

// ---------------------------------------------- D: det-custody-order

TEST(BslintDeterminism, FlagsUnorderedDeclarationInReplPlane) {
  // Declaration alone is the finding — the scanner cannot prove a walk
  // never reaches the wire, so src/repl bans hash-ordered state outright.
  auto fs = scan("src/repl/version_map.cpp",
                 "std::unordered_map<BlobId, Range> regions_;\n");
  ASSERT_TRUE(has_rule(fs, "det-custody-order"));
  EXPECT_EQ(fs[0].line, 1);
}

TEST(BslintDeterminism, FlagsIteratorWalkOverIncludedUnorderedMember) {
  // No range-for (det-unordered-iter's shape) — an explicit begin() walk
  // over an unordered member is still hash order reaching the wire.
  auto fs = scan("src/repl/reconciler.cpp",
                 "std::unordered_set<uint64_t> pending_;\n"
                 "void emit() {\n"
                 "  auto it = pending_.begin();\n"
                 "  while (it != pending_.end()) send(*it++);\n"
                 "}\n");
  bool walk_flagged = false;
  for (const auto& f : fs) {
    if (f.rule == "det-custody-order" && f.line == 3) walk_flagged = true;
  }
  EXPECT_TRUE(walk_flagged);  // beyond the line-1 declaration finding
}

TEST(BslintDeterminism, OrderedReplStateIsClean) {
  EXPECT_TRUE(scan("src/repl/egress.cpp",
                   "std::map<SiteId, IdSet> applied_;\n"
                   "std::deque<Bundle> queue_;\n"
                   "void f() { for (auto& [k, v] : applied_) use(k); }\n")
                  .empty());
}

TEST(BslintDeterminism, CustodyOrderOnlyAppliesToWireEncodingPlanes) {
  const char* text = "std::unordered_map<int, int> m_;\n";
  EXPECT_FALSE(has_rule(scan("src/blob/x.cpp", text), "det-custody-order"));
  EXPECT_FALSE(has_rule(scan("tests/repl/x.cpp", text), "det-custody-order"));
  EXPECT_FALSE(has_rule(scan("tests/cloud/x.cpp", text),
                        "det-custody-order"));
}

TEST(BslintDeterminism, FlagsUnorderedDeclarationInCloudPlane) {
  // The gateway checkpoints its dedup index and serializes list_objects
  // pages straight from container walks, so src/cloud carries the same
  // ordered-state ban as src/repl.
  auto fs = scan("src/cloud/gateway.cpp",
                 "std::unordered_map<uint64_t, Entry> index_;\n");
  ASSERT_TRUE(has_rule(fs, "det-custody-order"));
  EXPECT_EQ(fs[0].line, 1);
}

TEST(BslintDeterminism, OrderedCloudStateIsClean) {
  EXPECT_TRUE(scan("src/cloud/dedup_index.cpp",
                   "std::map<uint64_t, Entry> entries_;\n"
                   "void f() { for (auto& [h, e] : entries_) use(h); }\n")
                  .empty());
}

TEST(BslintDeterminism, SuppressedCustodyOrderCounts) {
  ScanStats stats;
  auto fs = scan("src/repl/x.cpp",
                 "// bslint: allow(det-custody-order): scratch index, never "
                 "serialized\n"
                 "std::unordered_set<uint64_t> scratch_;\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 1);
}

// -------------------------------------------------- C: coro-ref-param

TEST(BslintCoro, FlagsTaskCoroutineWithReferenceParam) {
  auto fs = scan("src/x.cpp",
                 "sim::Task<void> f(const Big& b) { co_return; }\n");
  ASSERT_TRUE(has_rule(fs, "coro-ref-param"));
}

TEST(BslintCoro, FlagsViewParams) {
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp", "sim::Task<int> f(std::string_view s);\n"),
      "coro-ref-param"));
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp", "sim::Task<int> f(std::span<int> s);\n"),
      "coro-ref-param"));
}

TEST(BslintCoro, MultiLineSignatureAttributedToDeclaratorLine) {
  auto fs = scan("src/x.cpp",
                 "sim::Task<Result<void>> long_name(\n"
                 "    const Thing& a,\n"
                 "    const Other& b);\n");
  ASSERT_EQ(fs.size(), 1u);  // deduped: one finding per declarator line+rule
  EXPECT_EQ(fs[0].line, 1);
}

TEST(BslintCoro, AllowAboveMultiLineSignatureCovers) {
  ScanStats stats;
  auto fs = scan("src/x.cpp",
                 "// bslint: allow(coro-ref-param): caller owns a and b\n"
                 "// across the whole awaited expression\n"
                 "sim::Task<Result<void>> long_name(\n"
                 "    const Thing& a,\n"
                 "    const Other& b);\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 1);
}

TEST(BslintCoro, ByValueTaskCoroutineIsClean) {
  EXPECT_TRUE(
      scan("src/x.cpp", "sim::Task<void> f(Key k, int n) { co_return; }\n")
          .empty());
}

TEST(BslintCoro, EnvelopeHandlersAreExemptByContract) {
  // The erased serve() wrapper owns the request and envelope across the
  // handler's co_await, so Envelope-taking signatures are exempt.
  EXPECT_TRUE(scan("src/x.cpp",
                   "sim::Task<Result<R>> h(const Req& q, "
                   "const rpc::Envelope& env);\n")
                  .empty());
}

TEST(BslintCoro, TaskVariableAndTemplateArgAreNotSignatures) {
  EXPECT_TRUE(scan("src/x.cpp", "sim::Task<void> t = make();\n").empty());
  EXPECT_TRUE(
      scan("src/x.cpp", "std::vector<sim::Task<void>> pending;\n").empty());
}

// --------------------------------------------- P: perf-large-byvalue

TEST(BslintPerf, FlagsContainerPassedByValueIntoCoroutine) {
  auto fs = scan("src/x.cpp",
                 "sim::Task<void> f(std::vector<Record> batch);\n");
  ASSERT_TRUE(has_rule(fs, "perf-large-byvalue"));
}

TEST(BslintPerf, FlagsMapAndDequeByValueToo) {
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp",
           "sim::Task<int> g(std::unordered_map<Key, int> m) { co_return 0; }\n"),
      "perf-large-byvalue"));
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp", "sim::Task<void> h(std::deque<Item> q);\n"),
      "perf-large-byvalue"));
}

TEST(BslintPerf, IndirectContainerParamsAreClean) {
  // Reference / pointer params don't copy into the frame; the coro-ref-param
  // rule owns their lifetime story. Nested container template args (e.g. a
  // by-value Key inside vector<...> of another param) must not confuse the
  // per-parameter scan either.
  auto fs = scan("src/x.cpp",
                 "sim::Task<void> f(std::vector<Record>* out, Key k);\n");
  EXPECT_FALSE(has_rule(fs, "perf-large-byvalue"));
}

TEST(BslintPerf, SmallByValueParamsAreClean) {
  EXPECT_TRUE(
      scan("src/x.cpp", "sim::Task<void> f(Key k, double x) { co_return; }\n")
          .empty());
}

TEST(BslintPerf, SuppressedByValueBatchCounts) {
  ScanStats stats;
  auto fs = scan(
      "src/x.cpp",
      "// bslint: allow(perf-large-byvalue): consumed batch; callers move\n"
      "sim::Task<void> f(std::vector<Record> batch);\n",
      &stats);
  EXPECT_FALSE(has_rule(fs, "perf-large-byvalue"));
  EXPECT_EQ(stats.suppressed, 1);
}

TEST(BslintPerf, EnvelopeHandlersAreExemptFromByValueRuleToo) {
  // serve() handlers receive const Req&; a by-value container there would be
  // caught in the handler body's own signature, not the Envelope wrapper.
  EXPECT_TRUE(scan("src/x.cpp",
                   "sim::Task<Result<R>> h(std::vector<Record> b, "
                   "const rpc::Envelope& env);\n")
                  .empty());
}

// ---------------------------------------------- C: coro-lambda-capture

TEST(BslintCoro, FlagsRefCaptureLambdaCoroutine) {
  auto fs = scan("src/x.cpp",
                 "void f() {\n"
                 "  auto t = [&]() -> sim::Task<void> { co_return; };\n"
                 "}\n");
  EXPECT_TRUE(has_rule(fs, "coro-lambda-capture"));
}

TEST(BslintCoro, FlagsThisCaptureLambdaCoroutine) {
  EXPECT_TRUE(has_rule(
      scan("src/x.cpp",
           "void C::f() {\n"
           "  spawn([this]() -> sim::Task<void> { co_await g(); });\n"
           "}\n"),
      "coro-lambda-capture"));
}

TEST(BslintCoro, ValueCaptureAndPlainLambdasAreClean) {
  EXPECT_TRUE(scan("src/x.cpp",
                   "void f() {\n"
                   "  auto t = [n]() -> sim::Task<void> { co_return; };\n"
                   "  auto u = [&] { plain(); };\n"
                   "}\n")
                  .empty());
}

TEST(BslintCoro, ServeStoredLambdasAreExempt) {
  // Lambdas registered via Node::serve are stored for the node's lifetime.
  EXPECT_TRUE(scan("src/x.cpp",
                   "void C::reg() {\n"
                   "  node_.serve<Req, Resp>(\n"
                   "      [this](const Req& q, const rpc::Envelope&)\n"
                   "          -> sim::Task<Result<Resp>> {\n"
                   "        co_return handle(q);\n"
                   "      });\n"
                   "}\n")
                  .empty());
}

TEST(BslintCoro, SubscriptAndAttributesAreNotCaptures) {
  EXPECT_TRUE(scan("src/x.cpp",
                   "void f() { v[i] = 1; }\n"
                   "[[nodiscard]] int g();\n")
                  .empty());
}

// -------------------------------------------------- C: coro-view-temp

TEST(BslintCoro, FlagsStringViewBoundToCallInCoroutine) {
  auto fs = scan("src/x.cpp",
                 "sim::Task<void> f() {\n"
                 "  std::string_view sv = name();\n"
                 "  co_await step(sv);\n"
                 "}\n");
  EXPECT_TRUE(has_rule(fs, "coro-view-temp"));
}

TEST(BslintCoro, StringViewFromLvalueOrOutsideCoroutineIsClean) {
  EXPECT_TRUE(scan("src/x.cpp",
                   "sim::Task<void> f(std::string s) {\n"
                   "  std::string_view sv = s;\n"
                   "  co_await step(sv);\n"
                   "}\n")
                  .empty());
  EXPECT_TRUE(scan("src/x.cpp",
                   "void g() {\n"
                   "  std::string_view sv = name();\n"
                   "  use(sv);\n"
                   "}\n")
                  .empty());
}

// ----------------------------------------------------- O: obs-unguarded

TEST(BslintObs, FlagsUnguardedSinkDereference) {
  auto fs =
      scan("src/x.cpp", "void f() { obs::sink()->instant(\"x\", \"y\"); }\n");
  ASSERT_TRUE(has_rule(fs, "obs-unguarded"));
}

TEST(BslintObs, GuardedIdiomAndSelfGuardedHelpersAreClean) {
  EXPECT_TRUE(scan("src/x.cpp",
                   "void f() {\n"
                   "  if (auto* ts = obs::sink()) ts->instant(\"x\", \"y\");\n"
                   "  obs::count(\"ops\");\n"
                   "}\n")
                  .empty());
}

TEST(BslintObs, ObsImplementationItselfIsExempt) {
  EXPECT_TRUE(
      scan("src/obs/x.cpp", "void f() { obs::sink()->flush(); }\n").empty());
}

// --------------------------------------------------------- H: hygiene

TEST(BslintHygiene, FlagsIostreamOutsideVizExamplesTools) {
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "#include <iostream>\n"),
                       "hyg-iostream"));
  EXPECT_TRUE(scan("src/viz/x.cpp", "#include <iostream>\n").empty());
  EXPECT_TRUE(scan("examples/x.cpp", "#include <iostream>\n").empty());
  EXPECT_TRUE(scan("tools/x.cpp", "#include <iostream>\n").empty());
}

TEST(BslintHygiene, FlagsUsingNamespaceInHeadersOnly) {
  EXPECT_TRUE(has_rule(scan("src/x.hpp", "using namespace std;\n"),
                       "hyg-using-namespace"));
  EXPECT_TRUE(scan("src/x.cpp", "using namespace std::literals;\n").empty());
  EXPECT_TRUE(scan("src/x.hpp", "using std::string;\n").empty());
}

TEST(BslintHygiene, FlagsServeAroundTheRecoveryGate) {
  auto fs = scan("src/x.cpp",
                 "void A::reg() {\n"
                 "  durable_.serve<GetReq, GetResp>(get_handler());\n"
                 "  node_.serve<PutReq, PutResp>(put_handler());\n"
                 "}\n"
                 "void A::crash() { durable_.crash({}); }\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"hyg-ungated-serve"});
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_NE(fs[0].message.find("node_.serve<...>"), std::string::npos);
}

TEST(BslintHygiene, GatedServeAndNonDurableFilesAreClean) {
  // Every handler of a journaled actor goes through the gate...
  EXPECT_TRUE(scan("src/x.cpp",
                   "void A::reg() {\n"
                   "  durable_.serve<GetReq, GetResp>(\n"
                   "      [this](const GetReq& q, const rpc::Envelope&)\n"
                   "          -> sim::Task<Result<GetResp>> {\n"
                   "        co_return get(q);\n"
                   "      });\n"
                   "}\n")
                  .empty());
  // ...while a file without a durable_ member (an unjournaled service, the
  // gate itself, where durable_ is a plain counter) serves directly.
  EXPECT_TRUE(scan("src/x.cpp",
                   "void B::reg() { node_.serve<PingReq, PingResp>(h()); }\n"
                   "void J::seal() { durable_ = 0; }\n")
                  .empty());
}

TEST(BslintHygiene, SuppressedUngatedServeCounts) {
  ScanStats stats;
  auto fs = scan("src/x.cpp",
                 "void A::reg() {\n"
                 "  durable_.serve<GetReq, GetResp>(get_handler());\n"
                 "  // bslint: allow(hyg-ungated-serve): liveness probe must\n"
                 "  // answer while the replay runs\n"
                 "  node_.serve<PingReq, PingResp>(ping_handler());\n"
                 "}\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 1);
}

// ------------------------------------------------ suppression parsing

TEST(BslintSuppression, BareAllowIsItselfAFinding) {
  auto fs = scan("src/x.cpp",
                 "std::unordered_map<int, int> m_;\n"
                 "// bslint: allow(det-unordered-iter)\n"
                 "void f() { for (auto& [k, v] : m_) use(k); }\n");
  // The loop is suppressed, but the rationale-less comment is flagged.
  EXPECT_EQ(rules_of(fs), std::vector<std::string>{"hyg-bare-allow"});
}

TEST(BslintSuppression, UnknownRuleInAllowIsFlagged) {
  auto fs = scan("src/x.cpp", "// bslint: allow(no-such-rule): because\n");
  EXPECT_EQ(rules_of(fs), std::vector<std::string>{"hyg-bad-allow"});
}

TEST(BslintSuppression, MalformedCommentsAreFlagged) {
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "// bslint: deny(det-random)\n"),
                       "hyg-bad-allow"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "// bslint: allow det-random\n"),
                       "hyg-bad-allow"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "// bslint: allow(\n"),
                       "hyg-bad-allow"));
  EXPECT_TRUE(has_rule(scan("src/x.cpp", "// bslint: allow(): why\n"),
                       "hyg-bad-allow"));
}

TEST(BslintSuppression, MultiRuleAllowCoversBoth) {
  ScanStats stats;
  auto fs = scan("src/x.cpp",
                 "// bslint: allow(det-random, det-wallclock): fixture\n"
                 "long x = time(nullptr) + rand();\n",
                 &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressed, 2);
}

TEST(BslintSuppression, TrailingAllowCoversOwnLine) {
  auto fs = scan(
      "src/x.cpp",
      "int r = rand();  // bslint: allow(det-random): seeded upstream\n");
  EXPECT_TRUE(fs.empty());
}

TEST(BslintSuppression, AllowDoesNotLeakTwoCodeLinesDown) {
  auto fs = scan("src/x.cpp",
                 "// bslint: allow(det-random): only the next line\n"
                 "int a = rand();\n"
                 "int b = rand();\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 3);
}

TEST(BslintSuppression, SuppressionsInsideStringsAreIgnored) {
  // A raw-string fixture quoting a suppression must not suppress anything.
  auto fs = scan("src/x.cpp",
                 "const char* s = \"// bslint: allow(det-random): x\";\n"
                 "int r = rand();\n");
  EXPECT_EQ(rules_of(fs), std::vector<std::string>{"det-random"});
}

// --------------------------------------------------- run() + lint_main()

class BslintCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bslint_test_" + std::to_string(::testing::UnitTest::GetInstance()
                                                 ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::create_directories(root_ / "src");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    std::ofstream out(root_ / rel, std::ios::binary);
    out << text;
  }

  int cli(std::vector<std::string> args, std::string* out_text = nullptr) {
    std::vector<std::string> argv_s = {"bslint", "--root", root_.string()};
    for (auto& a : args) argv_s.push_back(std::move(a));
    std::vector<const char*> argv;
    argv.reserve(argv_s.size());
    for (const auto& a : argv_s) argv.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int rc = lint_main(static_cast<int>(argv.size()), argv.data(), out,
                             err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return rc;
  }

  fs::path root_;
};

TEST_F(BslintCliTest, CleanTreeExitsZero) {
  write("src/ok.cpp", "int main() { return 0; }\n");
  EXPECT_EQ(cli({"src"}), 0);
}

TEST_F(BslintCliTest, FindingsExitOneWithDiagnosticAndHint) {
  write("src/bad.cpp", "int r = rand();\n");
  std::string out;
  EXPECT_EQ(cli({"src"}, &out), 1);
  EXPECT_NE(out.find("src/bad.cpp:1:9: warning: call to 'rand()' [det-random]"), std::string::npos);
  EXPECT_NE(out.find("hint:"), std::string::npos);
}

TEST_F(BslintCliTest, UsageErrorsExitTwo) {
  std::string out;
  EXPECT_EQ(cli({}, &out), 2);  // no paths
  EXPECT_EQ(cli({"--no-such-flag", "src"}, &out), 2);
  EXPECT_EQ(cli({"no/such/dir"}, &out), 2);
  // bslint keeps no state between runs: baseline and cache flags are unknown.
  EXPECT_EQ(cli({"--fix-baseline", "src"}, &out), 2);
  EXPECT_EQ(cli({"--baseline", "baseline.txt", "src"}, &out), 2);
  EXPECT_EQ(cli({"--cache-dir", (root_ / "cache").string(), "src"}, &out), 2);
  EXPECT_EQ(cli({"--no-cache", "src"}, &out), 2);
}

TEST_F(BslintCliTest, HeaderDeclaredUnorderedMemberCaughtInCpp) {
  write("src/widget.hpp",
        "#pragma once\n#include <unordered_map>\n"
        "class W { std::unordered_map<int, int> items_; void f(); };\n");
  write("src/widget.cpp",
        "#include \"widget.hpp\"\n"
        "void W::f() { for (auto& [k, v] : items_) use(k); }\n");
  std::string out;
  EXPECT_EQ(cli({"src"}, &out), 1);
  EXPECT_NE(out.find("src/widget.cpp:2:15: warning:"),
            std::string::npos);
}

TEST_F(BslintCliTest, ListRulesPrintsCatalog) {
  std::string out;
  EXPECT_EQ(cli({"--list-rules"}, &out), 0);
  for (const RuleDesc& r : rules()) {
    EXPECT_NE(out.find(r.id), std::string::npos) << r.id;
  }
}

}  // namespace
}  // namespace bs::lint
