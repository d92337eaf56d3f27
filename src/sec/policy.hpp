// Security-policy definition language (§III-C, §VI: "an expressive policy
// description language enabling system administrators to define a large
// array of security attacks"). Policies compile to predicate evaluators over
// the User Activity History:
//
//   policy dos_write_flood {
//     severity high;
//     description "client floods chunk writes";
//     when rate(write_ops, 10s) > 100 and total(write_bytes, 10s) > 500MB;
//     then block(60s), alert;
//   }
//
// Terms: rate(metric, window) — per-second rate over a trailing window;
//        total(metric, window) — sum over the window;
//        trust() — the caller's current trust in [0,1];
//        numeric literals with optional byte (KB/MB/GB) or duration units.
// Metrics: write_ops, read_ops, write_bytes, read_bytes, rejected_ops,
//          failed_ops, meta_ops, control_ops, op_latency.
// Actions: block(duration), throttle(ops_per_sec[, duration]),
//          trust(delta), alert, log.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "intro/activity.hpp"

namespace bs::sec {

enum class Severity : std::uint8_t { low = 0, medium, high };

/// Everything a policy condition may consult.
struct EvalContext {
  const intro::UserActivityHistory* activity{nullptr};
  ClientId client{};
  SimTime now{0};
  double trust{1.0};
  /// Thresholds are divided by this (low-trust clients => stricter).
  double threshold_scale{1.0};
};

namespace ast {

struct NumExpr {
  enum class Kind { constant, rate, total, trust };
  Kind kind{Kind::constant};
  double constant{0};
  mon::Metric metric{mon::Metric::write_ops};
  SimDuration window{0};

  [[nodiscard]] double eval(const EvalContext& ctx) const;
};

enum class CmpOp { gt, ge, lt, le, eq, ne };

struct BoolExpr;
using BoolPtr = std::unique_ptr<BoolExpr>;

struct BoolExpr {
  enum class Kind { cmp, logical_and, logical_or, logical_not };
  Kind kind{Kind::cmp};
  // cmp
  NumExpr lhs;
  CmpOp op{CmpOp::gt};
  NumExpr rhs;
  // logical
  BoolPtr a;
  BoolPtr b;

  [[nodiscard]] bool eval(const EvalContext& ctx) const;
};

}  // namespace ast

struct Action {
  enum class Type { block, throttle, alert, log, trust_delta };
  Type type{Type::log};
  double value{0};          ///< throttle rate / trust delta
  SimDuration duration{0};  ///< block duration

  [[nodiscard]] std::string to_string() const;
};

struct Policy {
  std::string name;
  Severity severity{Severity::medium};
  std::string description;
  ast::BoolPtr condition;
  std::vector<Action> actions;

  [[nodiscard]] bool matches(const EvalContext& ctx) const {
    return condition != nullptr && condition->eval(ctx);
  }
};

/// Parses a policy program; returns parse_error with line info on failure.
Result<std::vector<Policy>> parse_policies(const std::string& source);

/// Metric name <-> enum used by the language.
Result<mon::Metric> metric_from_name(const std::string& name);

/// The stock policy set used by the self-protection experiments.
std::string default_policy_source();

}  // namespace bs::sec
