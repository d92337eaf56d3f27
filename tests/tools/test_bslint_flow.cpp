// Fixtures for bslint's cross-translation-unit pass: the symbol index, the
// over-approximate call graph (cycles, overloads, unresolved externals),
// the flow rules that carry call chains, the coro-first-await-if /
// coro-ref-escape rules, and the --format output modes. Everything goes
// through run()/lint_main() against a scratch tree, exactly like the real
// gate.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bslint.hpp"
#include "index.hpp"
#include "lexer.hpp"

namespace bs::lint {
namespace {

namespace fs = std::filesystem;

// Minimal Task scaffolding every fixture file starts with, so the index
// sees the same `sim::Task<...>` spelling the real tree uses.
constexpr const char* kTaskPrelude =
    "namespace sim { template <class T> struct Task { bool await_ready(); "
    "}; }\n";

class BslintFlowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("bslint_flow_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out << text;
  }

  /// Runs both passes over `paths` (src/ by default).
  RunResult run_tree(std::vector<std::string> paths = {"src"}) {
    RunOptions opts;
    opts.root = root_.string();
    opts.paths = std::move(paths);
    RunResult res;
    std::string error;
    EXPECT_TRUE(run(opts, &res, &error)) << error;
    return res;
  }

  int cli(std::vector<std::string> args, std::string* out_text = nullptr) {
    std::vector<std::string> full = {"bslint", "--root", root_.string()};
    for (auto& a : args) full.push_back(std::move(a));
    std::vector<const char*> argv;
    argv.reserve(full.size());
    for (const auto& a : full) argv.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int rc =
        lint_main(static_cast<int>(argv.size()), argv.data(), out, err);
    if (out_text != nullptr) *out_text = out.str() + err.str();
    return rc;
  }

  fs::path root_;
};

const Finding* find_rule(const std::vector<Finding>& fs,
                         std::string_view rule) {
  for (const auto& f : fs) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

int count_rule(const std::vector<Finding>& fs, std::string_view rule) {
  int n = 0;
  for (const auto& f : fs) n += f.rule == rule ? 1 : 0;
  return n;
}

// ------------------------------------------------------------ symbol index

TEST(BslintIndex, RecordsDefinitionsQualifiedNamesAndCoroutineness) {
  const std::string src = std::string(kTaskPrelude) +
                          "namespace bs { namespace repl {\n"
                          "struct Custody {\n"
                          "  sim::Task<int> pull(int id) { co_return id; }\n"
                          "  int plain() { return 3; }\n"
                          "};\n"
                          "}}\n";
  const LexOut lx = lex("src/a.cpp", src);
  const FileIndex fi = build_index("src/a.cpp", lx, {});
  const FuncDef* pull = nullptr;
  const FuncDef* plain = nullptr;
  for (const auto& fd : fi.funcs) {
    if (fd.name == "pull") pull = &fd;
    if (fd.name == "plain") plain = &fd;
  }
  ASSERT_NE(pull, nullptr);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(pull->qname, "bs::repl::Custody::pull");
  EXPECT_TRUE(pull->returns_task);
  EXPECT_TRUE(pull->is_coroutine);
  EXPECT_FALSE(plain->returns_task);
  EXPECT_FALSE(plain->is_coroutine);
}

TEST(BslintIndex, RecordsCallSitesAndDirectAwait) {
  const std::string src = std::string(kTaskPrelude) +
                          "int helper(int);\n"
                          "sim::Task<int> go() {\n"
                          "  int x = helper(1);\n"
                          "  co_return co_await other(x);\n"
                          "}\n";
  const FileIndex fi = build_index("src/a.cpp", lex("src/a.cpp", src), {});
  ASSERT_EQ(fi.funcs.size(), 1u);
  const FuncDef& go = fi.funcs[0];
  bool saw_helper = false;
  bool saw_other = false;
  for (const auto& cs : go.calls) {
    if (cs.name == "helper") {
      saw_helper = true;
      EXPECT_FALSE(cs.direct_await);
    }
    if (cs.name == "other") {
      saw_other = true;
      EXPECT_TRUE(cs.direct_await);
    }
  }
  EXPECT_TRUE(saw_helper);
  EXPECT_TRUE(saw_other);
}

// ------------------------------------------------- flow: transitive reach

TEST_F(BslintFlowTest, WallclockTwoCallsBelowEncoderIsFound) {
  // The seeded acceptance fixture: a wall clock two hops below a journal
  // encoder, across translation units.
  write("src/j/leaf.cpp",
        "long leaf_now() { return std::time(nullptr); }\n"
        "long mid_now() { return leaf_now(); }\n");
  write("src/j/enc.cpp",
        "void encode_checkpoint(int v) { (void)v; (void)mid_now(); }\n");
  const RunResult res = run_tree();
  const Finding* f = find_rule(res.findings, "det-journal-encode");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/j/enc.cpp");
  EXPECT_NE(f->chain.find("encode_checkpoint() -> mid_now() -> leaf_now()"),
            std::string::npos)
      << f->chain;
  // The direct det-wallclock token finding exists too, at the leaf.
  const Finding* direct = find_rule(res.findings, "det-wallclock");
  ASSERT_NE(direct, nullptr);
  EXPECT_EQ(direct->path, "src/j/leaf.cpp");
}

TEST_F(BslintFlowTest, RandomReachableFromTaskRootCarriesChain) {
  write("src/r/a.cpp", std::string(kTaskPrelude) +
                           "int pick() { return std::rand(); }\n"
                           "int shuffle() { return pick(); }\n"
                           "sim::Task<int> drive() { co_return shuffle(); "
                           "}\n");
  const RunResult res = run_tree();
  const Finding* f = find_rule(res.findings, "det-random");
  ASSERT_NE(f, nullptr);
  // Two det-random findings: the direct one at the rand() token and the
  // flow one attributed to drive()'s first call edge.
  EXPECT_EQ(count_rule(res.findings, "det-random"), 2);
  bool chained = false;
  for (const auto& g : res.findings) {
    if (g.rule == "det-random" && !g.chain.empty()) {
      chained = true;
      EXPECT_NE(g.chain.find("drive() -> shuffle() -> pick()"),
                std::string::npos)
          << g.chain;
    }
  }
  EXPECT_TRUE(chained);
}

TEST_F(BslintFlowTest, FlowRulesOnlyRootInSrc) {
  // A Task coroutine in tests/ reaching a dirty helper must NOT produce a
  // flow finding: flow roots are src/-only (tests legitimately use clocks).
  write("tests/t.cpp", std::string(kTaskPrelude) +
                           "int pick() { return std::rand(); }\n"
                           "sim::Task<int> drive() { co_return pick(); }\n");
  const RunResult res = run_tree({"tests"});
  for (const auto& f : res.findings) {
    EXPECT_TRUE(f.chain.empty()) << f.rule << " " << f.chain;
  }
}

// -------------------------------------------------- flow: the call graph

TEST_F(BslintFlowTest, MutualRecursionTerminatesAndReportsOnce) {
  write("src/c/a.cpp",
        "void ping(int n);\n"
        "long tick() { return std::time(nullptr); }\n"
        "void pong(int n) { tick(); ping(n - 1); }\n"
        "void ping(int n) { if (n > 0) pong(n); }\n"
        "void encode_log() { ping(3); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "det-journal-encode"), 1);
  const Finding* f = find_rule(res.findings, "det-journal-encode");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->chain.find("encode_log() -> ping() -> pong() -> tick()"),
            std::string::npos)
      << f->chain;
}

TEST_F(BslintFlowTest, SelfRecursionTerminates) {
  write("src/c/b.cpp",
        "int spin(int n) { if (n > 0) return spin(n - 1); return "
        "std::rand(); }\n"
        "void encode_rec() { spin(5); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "det-journal-encode"), 1);
}

TEST_F(BslintFlowTest, OverloadAmbiguityIsConservative) {
  // Two same-named definitions; only one is dirty. Name-level resolution
  // cannot tell which overload the call binds to, so the dirty candidate
  // wins (over-approximation: may report, must not miss).
  write("src/o/clean.cpp", "int fetch(int k) { return k; }\n");
  write("src/o/dirty.cpp",
        "double fetch(double k) { return k + std::rand(); }\n");
  write("src/o/enc.cpp", "void encode_row() { (void)fetch(1); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "det-journal-encode"), 1);
}

TEST_F(BslintFlowTest, UnresolvedExternalNeverSuppressesKnownPath) {
  // encode_mix calls an unknown external (no definition anywhere) AND a
  // known-dirty helper. The unknown edge widens nothing, but must never
  // swallow the finding on the resolved path.
  write("src/u/enc.cpp",
        "long stamp() { return std::time(nullptr); }\n"
        "void encode_mix() { external_unknowable(); stamp(); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "det-journal-encode"), 1);
}

// ------------------------------------------------- flow: suppression law

TEST_F(BslintFlowTest, SuppressedFactIsDischargedForFlowToo) {
  // An allow() at the offending token is a proof obligation discharged
  // once: neither the token rule nor any caller chain re-reports it.
  write("src/s/a.cpp",
        "long stamp() {\n"
        "  // bslint: allow(det-wallclock): host-only path, proven cold\n"
        "  return std::time(nullptr);\n"
        "}\n"
        "void encode_s() { stamp(); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(find_rule(res.findings, "det-wallclock"), nullptr);
  EXPECT_EQ(find_rule(res.findings, "det-journal-encode"), nullptr);
  EXPECT_GE(res.suppressed, 1);
}

TEST_F(BslintFlowTest, FlowFindingSuppressibleAtAttributedCallSite) {
  write("src/s/b.cpp",
        "long stamp() { return std::time(nullptr); }\n"
        "void encode_t() {\n"
        "  // bslint: allow(det-journal-encode): record excludes the stamp\n"
        "  stamp();\n"
        "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(find_rule(res.findings, "det-journal-encode"), nullptr);
  // The direct finding at the clock itself still stands.
  EXPECT_EQ(count_rule(res.findings, "det-wallclock"), 1);
}

// ----------------------------------------------------- coro-ref-escape

TEST_F(BslintFlowTest, TemporaryToRefParamOfCoroutineFlaggedCrossTU) {
  write("src/e/callee.cpp",
        std::string(kTaskPrelude) +
            "#include <string>\n"
            "sim::Task<int> consume(const std::string& s) { co_return 1; "
            "}\n");
  write("src/e/caller.cpp",
        std::string(kTaskPrelude) +
            "#include <string>\n"
            "namespace sim { template <class T> Task<T> hold(Task<T>); }\n"
            "sim::Task<int> consume(const std::string& s);\n"
            "void fire() { (void)consume(std::string(\"abc\")); }\n");
  const RunResult res = run_tree();
  const Finding* f = find_rule(res.findings, "coro-ref-escape");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/e/caller.cpp");
  EXPECT_NE(f->message.find("'consume'"), std::string::npos);
}

TEST_F(BslintFlowTest, DirectCoAwaitExemptsTheTemporary) {
  // A directly awaited call keeps the temporary alive across the whole
  // co_await expression — not an escape.
  write("src/e/ok.cpp",
        std::string(kTaskPrelude) +
            "#include <string>\n"
            "sim::Task<int> consume(const std::string& s) { co_return 1; "
            "}\n"
            "sim::Task<int> fine() { co_return co_await "
            "consume(std::string(\"ok\")); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(find_rule(res.findings, "coro-ref-escape"), nullptr);
}

TEST_F(BslintFlowTest, NamedLvalueArgumentIsNotATemporary) {
  write("src/e/lv.cpp",
        std::string(kTaskPrelude) +
            "#include <string>\n"
            "sim::Task<int> consume(const std::string& s) { co_return 1; "
            "}\n"
            "void fire(const std::string& name) { (void)consume(name); }\n");
  const RunResult res = run_tree();
  EXPECT_EQ(find_rule(res.findings, "coro-ref-escape"), nullptr);
}

TEST_F(BslintFlowTest, RefEscapeSuppressibleAtCallSite) {
  write("src/e/supp.cpp",
        std::string(kTaskPrelude) +
            "#include <string>\n"
            "sim::Task<int> consume(const std::string& s) { co_return 1; "
            "}\n"
            "void fire() {\n"
            "  // bslint: allow(coro-ref-escape): task runs eagerly to "
            "completion\n"
            "  (void)consume(std::string(\"abc\"));\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(find_rule(res.findings, "coro-ref-escape"), nullptr);
  EXPECT_GE(res.suppressed, 1);
}

// ------------------------------------------------- coro-first-await-if

TEST_F(BslintFlowTest, FirstStatementIfConditionAwaitFlagged) {
  write("src/f/bad.cpp",
        std::string(kTaskPrelude) +
            "sim::Task<int> other();\n"
            "sim::Task<int> bad() {\n"
            "  if (co_await other()) { co_return 1; }\n"
            "  co_return 0;\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "coro-first-await-if"), 1);
}

TEST_F(BslintFlowTest, InitStatementFormAlsoFlagged) {
  // The real-tree shape that motivated the rule:
  // `if (auto r = co_await f(); !r.ok())` as the first statement.
  write("src/f/init.cpp",
        std::string(kTaskPrelude) +
            "sim::Task<int> other();\n"
            "sim::Task<int> bad() {\n"
            "  if (auto r = co_await other(); r != 0) { co_return r; }\n"
            "  co_return 0;\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "coro-first-await-if"), 1);
}

TEST_F(BslintFlowTest, HoistedAwaitIsClean) {
  write("src/f/good.cpp",
        std::string(kTaskPrelude) +
            "sim::Task<int> other();\n"
            "sim::Task<int> good() {\n"
            "  const auto v = co_await other();\n"
            "  if (v != 0) { co_return v; }\n"
            "  co_return 0;\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "coro-first-await-if"), 0);
}

TEST_F(BslintFlowTest, SecondStatementIfConditionAwaitIsClean) {
  // Only the *first* statement displaces the frame header; a later
  // if-condition await is safe (the frame layout is already fixed).
  write("src/f/later.cpp",
        std::string(kTaskPrelude) +
            "sim::Task<int> other();\n"
            "sim::Task<int> later() {\n"
            "  int warm = 1;\n"
            "  if (co_await other()) { co_return warm; }\n"
            "  co_return 0;\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "coro-first-await-if"), 0);
}

TEST_F(BslintFlowTest, FirstAwaitIfSuppressible) {
  write("src/f/supp.cpp",
        std::string(kTaskPrelude) +
            "sim::Task<int> other();\n"
            "sim::Task<int> pinned() {\n"
            "  // bslint: allow(coro-first-await-if): frame checked by "
            "frame_scan on this TU\n"
            "  if (co_await other()) { co_return 1; }\n"
            "  co_return 0;\n"
            "}\n");
  const RunResult res = run_tree();
  EXPECT_EQ(count_rule(res.findings, "coro-first-await-if"), 0);
  EXPECT_GE(res.suppressed, 1);
}

// --------------------------------------------------------------- formats

TEST_F(BslintFlowTest, GccFormatIsTheDefaultWithColumns) {
  write("src/g/a.cpp", "int r = std::rand();\n");
  std::string out;
  EXPECT_EQ(cli({"src"}, &out), 1);
  EXPECT_NE(out.find("src/g/a.cpp:1:14: warning:"), std::string::npos)
      << out;
  EXPECT_NE(out.find("[det-random]"), std::string::npos);
}

TEST_F(BslintFlowTest, JsonFormatIsStableAndCarriesChains) {
  write("src/g/b.cpp",
        "long stamp() { return std::time(nullptr); }\n"
        "void encode_g() { stamp(); }\n");
  std::string a;
  std::string b;
  EXPECT_EQ(cli({"--format=json", "src"}, &a), 1);
  EXPECT_EQ(cli({"--format", "json", "src"}, &b), 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"rule\": \"det-journal-encode\""), std::string::npos)
      << a;
  EXPECT_NE(a.find("\"chain\": \"encode_g() -> stamp()"), std::string::npos)
      << a;
  EXPECT_NE(a.find("\"files_scanned\": 1"), std::string::npos);
}

TEST_F(BslintFlowTest, UnknownFormatIsAUsageError) {
  write("src/g/c.cpp", "int main() { return 0; }\n");
  std::string out;
  EXPECT_EQ(cli({"--format=yaml", "src"}, &out), 2);
}

}  // namespace
}  // namespace bs::lint
