// Policy description language: lexing, parsing, error reporting, and
// condition evaluation against a synthetic User Activity History.
#include <gtest/gtest.h>

#include "sec/policy.hpp"

namespace bs::sec {
namespace {

mon::Record activity_record(std::uint64_t client, mon::Metric metric,
                            SimTime t, double value) {
  mon::Record r;
  r.key = {mon::Domain::client, client, metric};
  r.time = t;
  r.value = value;
  return r;
}

TEST(PolicyParser, ParsesMinimalPolicy) {
  auto r = parse_policies(
      "policy p1 { when rate(write_ops, 10s) > 5; then log; }");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  ASSERT_EQ(r.value().size(), 1u);
  const Policy& p = r.value()[0];
  EXPECT_EQ(p.name, "p1");
  EXPECT_EQ(p.severity, Severity::medium);  // default
  ASSERT_EQ(p.actions.size(), 1u);
  EXPECT_EQ(p.actions[0].type, Action::Type::log);
}

TEST(PolicyParser, ParsesAllClausesAndActions) {
  auto r = parse_policies(R"(
    policy full {
      severity high;
      description "a full policy";
      when rate(write_ops, 10s) > 100 and total(write_bytes, 30s) > 500MB
           or not (trust() >= 0.5);
      then block(60s), throttle(25), trust(-0.25), alert, log;
    }
  )");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const Policy& p = r.value()[0];
  EXPECT_EQ(p.severity, Severity::high);
  EXPECT_EQ(p.description, "a full policy");
  ASSERT_EQ(p.actions.size(), 5u);
  EXPECT_EQ(p.actions[0].type, Action::Type::block);
  EXPECT_EQ(p.actions[0].duration, simtime::seconds(60));
  EXPECT_EQ(p.actions[1].type, Action::Type::throttle);
  EXPECT_DOUBLE_EQ(p.actions[1].value, 25);
  EXPECT_EQ(p.actions[2].type, Action::Type::trust_delta);
  EXPECT_DOUBLE_EQ(p.actions[2].value, -0.25);
}

TEST(PolicyParser, ParsesMultiplePoliciesAndComments) {
  auto r = parse_policies(R"(
    # first
    policy a { when rate(read_ops, 5s) > 1; then log; }
    # second
    policy b { severity low; when total(meta_ops, 1min) >= 10; then alert; }
  )");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[1].severity, Severity::low);
}

TEST(PolicyParser, ByteAndDurationUnits) {
  auto r = parse_policies(
      "policy u { when total(write_bytes, 500ms) > 2GB; then log; }");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  // Durations keep every written digit; a bare number counts seconds.
  auto fine = parse_policies(
      "policy f { when trust() < 1;"
      "           then block(0.0000005s), throttle(1, 1.5); }");
  ASSERT_TRUE(fine.ok()) << fine.error().to_string();
  EXPECT_EQ(fine.value()[0].actions[0].duration, 500);
  EXPECT_EQ(fine.value()[0].actions[1].duration, simtime::millis(1500));
}

TEST(PolicyParser, ErrorsCarryLineNumbers) {
  auto cases = std::vector<std::string>{
      "policy { when rate(write_ops, 1s) > 1; then log; }",  // missing name
      "policy p { when rate(bogus_metric, 1s) > 1; then log; }",
      "policy p { when rate(write_ops, 1s) >> 1; then log; }",
      "policy p { when rate(write_ops, 1s) > 1; }",  // no then
      "policy p { then log; }",                      // no when
      "policy p { severity extreme; when trust() < 1; then log; }",
      "policy p { when trust() < 1; then explode(); }",
      "policy p { when rate(write_ops, 1s) > 1; then block(10s) ",  // eof
      "policy p { when rate(write_ops, 1 parsecs) > 1; then log; }",
      // Durations that are negative or overflow simulated nanoseconds.
      "policy p { when trust() < 1; then block(1e12s); }",
      "policy p { when trust() < 1; then block(1e12); }",
      "policy p { when trust() < 1; then block(-60s); }",
  };
  for (const auto& src : cases) {
    auto r = parse_policies(src);
    EXPECT_FALSE(r.ok()) << "should fail: " << src;
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, Errc::parse_error);
      EXPECT_NE(r.error().message.find("line"), std::string::npos);
    }
  }
  // Each error quotes the line of the token at fault, not the next one's.
  const std::pair<const char*, const char*> multi_line[] = {
      {"policy p {\n  when trust() < 1;\n  then block(1e12s\n  );\n}\n",
       "line 3: "},  // bad duration
      {"policy p {\n  when rate(bogus_metric\n  , 1s) > 1;\n  then log;\n}\n",
       "line 2: unknown metric"},
      {"policy p {\n  when trust() < 1;\n  then explode\n  ();\n}\n",
       "line 3: unknown action"},
      {"policy p {\n  severity extreme\n  ;\n}\n", "line 2: unknown severity"},
      {"policy p {\n  when frobnicate\n  (write_ops, 1s) > 1;\n}\n",
       "line 2: unknown function"},
      {"policy p {\n  colour\n  red;\n}\n", "line 2: unknown clause"},
      {"policy p {\n  when trust() < 1;\n}\n\n",
       "line 3: policy 'p' missing then"},
      {"policy p {\n  then log;\n}\n\n", "line 3: policy 'p' missing when"},
  };
  for (const auto& [src, prefix] : multi_line) {
    auto r = parse_policies(src);
    ASSERT_FALSE(r.ok()) << src;
    EXPECT_EQ(r.error().message.rfind(prefix, 0), 0u)
        << r.error().message << " (expected " << prefix << ")";
  }
}

TEST(PolicyParser, DefaultPolicySourceParses) {
  auto r = parse_policies(default_policy_source());
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_GE(r.value().size(), 4u);
}

class PolicyEvalTest : public ::testing::Test {
 protected:
  PolicyEvalTest() : activity_(simtime::minutes(5)) {
    // Client 1: 20 write ops per second for 10 seconds.
    for (int t = 1; t <= 10; ++t) {
      activity_.ingest(activity_record(1, mon::Metric::write_ops,
                                       simtime::seconds(t), 20));
      activity_.ingest(activity_record(1, mon::Metric::write_bytes,
                                       simtime::seconds(t), 100e6));
    }
    // Client 2: quiet.
    activity_.ingest(activity_record(2, mon::Metric::write_ops,
                                     simtime::seconds(5), 1));
  }

  EvalContext ctx(std::uint64_t client, double trust = 1.0,
                  double scale = 1.0) {
    EvalContext c;
    c.activity = &activity_;
    c.client = ClientId{client};
    c.now = simtime::seconds(10);
    c.trust = trust;
    c.threshold_scale = scale;
    return c;
  }

  intro::UserActivityHistory activity_;
};

TEST_F(PolicyEvalTest, RateComparison) {
  auto p = parse_policies(
      "policy p { when rate(write_ops, 10s) > 15; then log; }");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value()[0].matches(ctx(1)));
  EXPECT_FALSE(p.value()[0].matches(ctx(2)));
}

TEST_F(PolicyEvalTest, TotalComparison) {
  auto p = parse_policies(
      "policy p { when total(write_bytes, 10s) >= 1GB; then log; }");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value()[0].matches(ctx(1)));  // 10 x 100 MB
  EXPECT_FALSE(p.value()[0].matches(ctx(2)));
}

TEST_F(PolicyEvalTest, LogicalOperatorsAndNot) {
  auto p = parse_policies(R"(
    policy p {
      when rate(write_ops, 10s) > 15 and not (trust() > 0.9);
      then log;
    })");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p.value()[0].matches(ctx(1, /*trust=*/1.0)));
  EXPECT_TRUE(p.value()[0].matches(ctx(1, /*trust=*/0.5)));
}

TEST_F(PolicyEvalTest, OrShortCircuitSemantics) {
  auto p = parse_policies(R"(
    policy p {
      when rate(read_ops, 10s) > 100 or rate(write_ops, 10s) > 15;
      then log;
    })");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value()[0].matches(ctx(1)));
}

TEST_F(PolicyEvalTest, TrustScaledThresholds) {
  // Threshold 30 ops/s; client 1 runs at 20 ops/s. At full trust the
  // policy does not fire; at threshold_scale 0.5 (low trust) the bound
  // becomes 15 and it does.
  auto p = parse_policies(
      "policy p { when rate(write_ops, 10s) > 30; then log; }");
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p.value()[0].matches(ctx(1, 1.0, 1.0)));
  EXPECT_TRUE(p.value()[0].matches(ctx(1, 0.1, 0.5)));
}

TEST_F(PolicyEvalTest, ScalingOnlyAppliesToUpperBounds) {
  // A `<` comparison against a constant must NOT shrink with trust.
  auto p = parse_policies(
      "policy p { when rate(write_ops, 10s) < 100; then log; }");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p.value()[0].matches(ctx(1, 0.1, 0.5)));
}

TEST(PolicyParser, ThrottleWithOptionalDuration) {
  auto r = parse_policies(
      "policy t { when trust() < 2; then throttle(25, 90s); }");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  const Action& a = r.value()[0].actions[0];
  EXPECT_EQ(a.type, Action::Type::throttle);
  EXPECT_DOUBLE_EQ(a.value, 25);
  EXPECT_EQ(a.duration, simtime::seconds(90));
  EXPECT_EQ(a.to_string(), "throttle(25.0, 90.000s)");
}

TEST(PolicyParser, ScientificNotationLiterals) {
  auto r = parse_policies(
      "policy s { when rate(read_ops, 10s) > 1e9 and "
      "total(write_bytes, 10s) < 2.5E-1; then log; }");
  ASSERT_TRUE(r.ok()) << r.error().to_string();
}

TEST(ActionToString, Readable) {
  Action a;
  a.type = Action::Type::block;
  a.duration = simtime::seconds(60);
  EXPECT_EQ(a.to_string(), "block(60.000s)");
  a.type = Action::Type::throttle;
  a.value = 12.5;
  a.duration = 0;
  EXPECT_EQ(a.to_string(), "throttle(12.5)");
}

}  // namespace
}  // namespace bs::sec
