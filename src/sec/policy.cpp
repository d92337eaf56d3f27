#include "sec/policy.hpp"

#include <cctype>
#include <cmath>
#include <map>

#include "common/config.hpp"

namespace bs::sec {

namespace ast {

double NumExpr::eval(const EvalContext& ctx) const {
  switch (kind) {
    case Kind::constant:
      return constant;
    case Kind::rate:
      return ctx.activity != nullptr
                 ? ctx.activity->rate(ctx.client, metric, window, ctx.now)
                 : 0.0;
    case Kind::total:
      return ctx.activity != nullptr
                 ? ctx.activity->total(ctx.client, metric, window, ctx.now)
                 : 0.0;
    case Kind::trust:
      return ctx.trust;
  }
  return 0.0;
}

bool BoolExpr::eval(const EvalContext& ctx) const {
  switch (kind) {
    case Kind::logical_and:
      return a->eval(ctx) && b->eval(ctx);
    case Kind::logical_or:
      return a->eval(ctx) || b->eval(ctx);
    case Kind::logical_not:
      return !a->eval(ctx);
    case Kind::cmp:
      break;
  }
  double l = lhs.eval(ctx);
  double r = rhs.eval(ctx);
  // Trust-adaptive thresholds: when an activity measure is compared against
  // a constant upper bound, the bound shrinks for low-trust clients.
  const bool activity_vs_const =
      lhs.kind != NumExpr::Kind::constant &&
      rhs.kind == NumExpr::Kind::constant;
  if (activity_vs_const && (op == CmpOp::gt || op == CmpOp::ge)) {
    r *= ctx.threshold_scale;
  }
  switch (op) {
    case CmpOp::gt: return l > r;
    case CmpOp::ge: return l >= r;
    case CmpOp::lt: return l < r;
    case CmpOp::le: return l <= r;
    case CmpOp::eq: return l == r;
    case CmpOp::ne: return l != r;
  }
  return false;
}

}  // namespace ast

std::string Action::to_string() const {
  char buf[64];
  switch (type) {
    case Type::block:
      std::snprintf(buf, sizeof(buf), "block(%s)",
                    simtime::to_string(duration).c_str());
      return buf;
    case Type::throttle:
      if (duration > 0) {
        std::snprintf(buf, sizeof(buf), "throttle(%.1f, %s)", value,
                      simtime::to_string(duration).c_str());
      } else {
        std::snprintf(buf, sizeof(buf), "throttle(%.1f)", value);
      }
      return buf;
    case Type::alert: return "alert";
    case Type::log: return "log";
    case Type::trust_delta:
      std::snprintf(buf, sizeof(buf), "trust(%+.2f)", value);
      return buf;
  }
  return "?";
}

Result<mon::Metric> metric_from_name(const std::string& name) {
  static const std::map<std::string, mon::Metric> kMap = {
      {"write_ops", mon::Metric::write_ops},
      {"read_ops", mon::Metric::read_ops},
      {"write_bytes", mon::Metric::write_bytes},
      {"read_bytes", mon::Metric::read_bytes},
      {"rejected_ops", mon::Metric::rejected_ops},
      {"failed_ops", mon::Metric::failed_ops},
      {"meta_ops", mon::Metric::meta_ops},
      {"control_ops", mon::Metric::control_ops},
      {"op_latency", mon::Metric::op_latency},
  };
  auto it = kMap.find(name);
  if (it == kMap.end()) {
    return Error{Errc::parse_error, "unknown metric '" + name + "'"};
  }
  return it->second;
}

// ------------------------------------------------------------------- lexer

namespace {

enum class Tok {
  ident, number, string, lbrace, rbrace, lparen, rparen, semi, comma,
  gt, ge, lt, le, eq, ne, end,
};

struct Token {
  Tok kind{Tok::end};
  std::string text;  ///< identifier, string, or a number as written
  double number{0};
  std::string unit;  ///< suffix attached to a number (MB, s, ...)
  int line{1};
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> out;
    while (true) {
      skip_ws_and_comments();
      if (pos_ >= src_.size()) break;
      const char c = src_[pos_];
      Token t;
      t.line = line_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        t.kind = Tok::ident;
        while (pos_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                src_[pos_] == '_')) {
          t.text += src_[pos_++];
        }
      } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                 c == '-' || c == '+') {
        t.kind = Tok::number;
        std::size_t start = pos_;
        if (c == '-' || c == '+') ++pos_;
        while (pos_ < src_.size() &&
               (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
                src_[pos_] == '.')) {
          ++pos_;
        }
        // Exponent part (1e9, 2.5E-3) — only when digits follow, so a
        // trailing unit like "5min" is not swallowed.
        if (pos_ + 1 < src_.size() &&
            (src_[pos_] == 'e' || src_[pos_] == 'E')) {
          std::size_t probe = pos_ + 1;
          if (src_[probe] == '+' || src_[probe] == '-') ++probe;
          if (probe < src_.size() &&
              std::isdigit(static_cast<unsigned char>(src_[probe]))) {
            pos_ = probe;
            while (pos_ < src_.size() &&
                   std::isdigit(static_cast<unsigned char>(src_[pos_]))) {
              ++pos_;
            }
          }
        }
        t.text = src_.substr(start, pos_ - start);
        t.number = std::strtod(t.text.c_str(), nullptr);
        // Optional unit suffix glued to the number (10s, 500MB).
        while (pos_ < src_.size() &&
               std::isalpha(static_cast<unsigned char>(src_[pos_]))) {
          t.unit += src_[pos_++];
        }
      } else if (c == '"') {
        t.kind = Tok::string;
        ++pos_;
        while (pos_ < src_.size() && src_[pos_] != '"') {
          t.text += src_[pos_++];
        }
        if (pos_ >= src_.size()) {
          return Error{Errc::parse_error,
                       "line " + std::to_string(line_) +
                           ": unterminated string"};
        }
        ++pos_;
      } else {
        ++pos_;
        switch (c) {
          case '{': t.kind = Tok::lbrace; break;
          case '}': t.kind = Tok::rbrace; break;
          case '(': t.kind = Tok::lparen; break;
          case ')': t.kind = Tok::rparen; break;
          case ';': t.kind = Tok::semi; break;
          case ',': t.kind = Tok::comma; break;
          case '>':
            if (pos_ < src_.size() && src_[pos_] == '=') {
              ++pos_;
              t.kind = Tok::ge;
            } else {
              t.kind = Tok::gt;
            }
            break;
          case '<':
            if (pos_ < src_.size() && src_[pos_] == '=') {
              ++pos_;
              t.kind = Tok::le;
            } else {
              t.kind = Tok::lt;
            }
            break;
          case '=':
            if (pos_ < src_.size() && src_[pos_] == '=') {
              ++pos_;
              t.kind = Tok::eq;
              break;
            }
            return Error{Errc::parse_error,
                         "line " + std::to_string(line_) + ": lone '='"};
          case '!':
            if (pos_ < src_.size() && src_[pos_] == '=') {
              ++pos_;
              t.kind = Tok::ne;
              break;
            }
            return Error{Errc::parse_error,
                         "line " + std::to_string(line_) + ": lone '!'"};
          default:
            return Error{Errc::parse_error,
                         "line " + std::to_string(line_) +
                             ": unexpected character '" + c + "'"};
        }
      }
      out.push_back(std::move(t));
    }
    Token end;
    end.kind = Tok::end;
    end.line = line_;
    out.push_back(end);
    return out;
  }

 private:
  void skip_ws_and_comments() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  const std::string& src_;
  std::size_t pos_{0};
  int line_{1};
};

// ------------------------------------------------------------------ parser

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<std::vector<Policy>> run() {
    std::vector<Policy> out;
    while (peek().kind != Tok::end) {
      auto p = parse_policy();
      if (!p.ok()) return p.error();
      out.push_back(std::move(p).value());
    }
    return out;
  }

 private:
  const Token& peek() const { return toks_[pos_]; }
  Token take() { return toks_[pos_++]; }

  /// An error at the next token (what it should have been).
  Error err(const std::string& message) { return err(peek(), message); }
  /// An error at `at`, a token already taken (what it turned out to be).
  static Error err(const Token& at, const std::string& message) {
    return Error{Errc::parse_error,
                 "line " + std::to_string(at.line) + ": " + message};
  }

  Result<void> expect(Tok kind, const char* what) {
    if (peek().kind != kind) return err(std::string("expected ") + what);
    take();
    return ok_result();
  }

  Result<Policy> parse_policy() {
    if (peek().kind != Tok::ident || peek().text != "policy") {
      return err("expected 'policy'");
    }
    take();
    if (peek().kind != Tok::ident) return err("expected policy name");
    Policy p;
    p.name = take().text;
    if (auto r = expect(Tok::lbrace, "'{'"); !r.ok()) return r.error();
    bool has_when = false, has_then = false;
    while (peek().kind != Tok::rbrace) {
      if (peek().kind != Tok::ident) return err("expected clause keyword");
      const Token clause = take();
      const std::string& kw = clause.text;
      if (kw == "severity") {
        if (peek().kind != Tok::ident) return err("expected severity level");
        const Token level_tok = take();
        const std::string& level = level_tok.text;
        if (level == "low") {
          p.severity = Severity::low;
        } else if (level == "medium") {
          p.severity = Severity::medium;
        } else if (level == "high") {
          p.severity = Severity::high;
        } else {
          return err(level_tok, "unknown severity '" + level + "'");
        }
      } else if (kw == "description") {
        if (peek().kind != Tok::string) return err("expected string");
        p.description = take().text;
      } else if (kw == "when") {
        auto cond = parse_or();
        if (!cond.ok()) return cond.error();
        p.condition = std::move(cond).value();
        has_when = true;
      } else if (kw == "then") {
        while (true) {
          auto a = parse_action();
          if (!a.ok()) return a.error();
          p.actions.push_back(a.value());
          if (peek().kind == Tok::comma) {
            take();
            continue;
          }
          break;
        }
        has_then = true;
      } else {
        return err(clause, "unknown clause '" + kw + "'");
      }
      if (auto r = expect(Tok::semi, "';'"); !r.ok()) return r.error();
    }
    const Token rbrace = take();
    if (!has_when) {
      return err(rbrace, "policy '" + p.name + "' missing when clause");
    }
    if (!has_then) {
      return err(rbrace, "policy '" + p.name + "' missing then clause");
    }
    return p;
  }

  Result<ast::BoolPtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs.ok()) return lhs.error();
    auto node = std::move(lhs).value();
    while (peek().kind == Tok::ident && peek().text == "or") {
      take();
      auto rhs = parse_and();
      if (!rhs.ok()) return rhs.error();
      auto combined = std::make_unique<ast::BoolExpr>();
      combined->kind = ast::BoolExpr::Kind::logical_or;
      combined->a = std::move(node);
      combined->b = std::move(rhs).value();
      node = std::move(combined);
    }
    return node;
  }

  Result<ast::BoolPtr> parse_and() {
    auto lhs = parse_not();
    if (!lhs.ok()) return lhs.error();
    auto node = std::move(lhs).value();
    while (peek().kind == Tok::ident && peek().text == "and") {
      take();
      auto rhs = parse_not();
      if (!rhs.ok()) return rhs.error();
      auto combined = std::make_unique<ast::BoolExpr>();
      combined->kind = ast::BoolExpr::Kind::logical_and;
      combined->a = std::move(node);
      combined->b = std::move(rhs).value();
      node = std::move(combined);
    }
    return node;
  }

  Result<ast::BoolPtr> parse_not() {
    if (peek().kind == Tok::ident && peek().text == "not") {
      take();
      auto inner = parse_not();
      if (!inner.ok()) return inner.error();
      auto node = std::make_unique<ast::BoolExpr>();
      node->kind = ast::BoolExpr::Kind::logical_not;
      node->a = std::move(inner).value();
      return node;
    }
    if (peek().kind == Tok::lparen) {
      take();
      auto inner = parse_or();
      if (!inner.ok()) return inner.error();
      if (auto r = expect(Tok::rparen, "')'"); !r.ok()) return r.error();
      return inner;
    }
    return parse_comparison();
  }

  Result<ast::BoolPtr> parse_comparison() {
    auto lhs = parse_term();
    if (!lhs.ok()) return lhs.error();
    ast::CmpOp op;
    switch (peek().kind) {
      case Tok::gt: op = ast::CmpOp::gt; break;
      case Tok::ge: op = ast::CmpOp::ge; break;
      case Tok::lt: op = ast::CmpOp::lt; break;
      case Tok::le: op = ast::CmpOp::le; break;
      case Tok::eq: op = ast::CmpOp::eq; break;
      case Tok::ne: op = ast::CmpOp::ne; break;
      default:
        return err("expected comparison operator");
    }
    take();
    auto rhs = parse_term();
    if (!rhs.ok()) return rhs.error();
    auto node = std::make_unique<ast::BoolExpr>();
    node->kind = ast::BoolExpr::Kind::cmp;
    node->lhs = lhs.value();
    node->op = op;
    node->rhs = rhs.value();
    return node;
  }

  Result<double> number_with_unit(const Token& t) {
    if (t.unit.empty()) return t.number;
    // Try bytes then duration (durations normalize to seconds for eval).
    const std::string text = t.text + t.unit;
    if (auto b = parse_bytes(text); b.ok()) {
      return static_cast<double>(b.value());
    }
    if (auto d = parse_duration(text); d.ok()) {
      return simtime::to_seconds(d.value());
    }
    return Error{Errc::parse_error,
                 "line " + std::to_string(t.line) + ": unknown unit '" +
                     t.unit + "'"};
  }

  Result<SimDuration> duration_arg() {
    if (peek().kind != Tok::number) return err("expected duration");
    const Token& t = peek();  // taken once parsed, so errors quote its line
    // A bare number counts seconds.
    auto d = parse_duration(t.text + (t.unit.empty() ? "s" : t.unit));
    if (!d.ok()) return err(d.error().message);
    take();
    return d.value();
  }

  Result<ast::NumExpr> parse_term() {
    ast::NumExpr node;
    if (peek().kind == Tok::number) {
      const Token t = take();
      auto v = number_with_unit(t);
      if (!v.ok()) return v.error();
      node.kind = ast::NumExpr::Kind::constant;
      node.constant = v.value();
      return node;
    }
    if (peek().kind != Tok::ident) return err("expected term");
    const Token fn_tok = take();
    const std::string& fn = fn_tok.text;
    if (auto r = expect(Tok::lparen, "'('"); !r.ok()) return r.error();
    if (fn == "trust") {
      node.kind = ast::NumExpr::Kind::trust;
    } else if (fn == "rate" || fn == "total") {
      node.kind = fn == "rate" ? ast::NumExpr::Kind::rate
                               : ast::NumExpr::Kind::total;
      if (peek().kind != Tok::ident) return err("expected metric name");
      const Token name = take();
      auto metric = metric_from_name(name.text);
      if (!metric.ok()) return err(name, metric.error().message);
      node.metric = metric.value();
      if (auto r = expect(Tok::comma, "','"); !r.ok()) return r.error();
      auto window = duration_arg();
      if (!window.ok()) return window.error();
      node.window = window.value();
    } else {
      return err(fn_tok, "unknown function '" + fn + "'");
    }
    if (auto r = expect(Tok::rparen, "')'"); !r.ok()) return r.error();
    return node;
  }

  Result<Action> parse_action() {
    if (peek().kind != Tok::ident) return err("expected action");
    const Token name_tok = take();
    const std::string& name = name_tok.text;
    Action a;
    if (name == "alert") {
      a.type = Action::Type::alert;
      return a;
    }
    if (name == "log") {
      a.type = Action::Type::log;
      return a;
    }
    if (auto r = expect(Tok::lparen, "'('"); !r.ok()) return r.error();
    if (name == "block") {
      a.type = Action::Type::block;
      auto d = duration_arg();
      if (!d.ok()) return d.error();
      a.duration = d.value();
    } else if (name == "throttle") {
      a.type = Action::Type::throttle;
      if (peek().kind != Tok::number) return err("expected rate");
      a.value = take().number;
      if (peek().kind == Tok::comma) {
        take();
        auto d = duration_arg();
        if (!d.ok()) return d.error();
        a.duration = d.value();  // 0 = until pardoned
      }
    } else if (name == "trust") {
      a.type = Action::Type::trust_delta;
      if (peek().kind != Tok::number) return err("expected delta");
      a.value = take().number;
    } else {
      return err(name_tok, "unknown action '" + name + "'");
    }
    if (auto r = expect(Tok::rparen, "')'"); !r.ok()) return r.error();
    return a;
  }

  std::vector<Token> toks_;
  std::size_t pos_{0};
};

}  // namespace

Result<std::vector<Policy>> parse_policies(const std::string& source) {
  Lexer lexer(source);
  auto tokens = lexer.run();
  if (!tokens.ok()) return tokens.error();
  Parser parser(std::move(tokens).value());
  return parser.run();
}

std::string default_policy_source() {
  return R"(
# Request-flooding DoS: far more write requests per second than any honest
# client can issue while actually moving data.
policy dos_write_flood {
  severity high;
  description "chunk-write request flood";
  when rate(write_ops, 10s) > 60;
  then block(60s), trust(-0.3), alert;
}

# Read-side DoS.
policy dos_read_flood {
  severity high;
  description "chunk-read request flood";
  when rate(read_ops, 10s) > 120;
  then block(60s), trust(-0.3), alert;
}

# Metadata scraping: hammering metadata providers without moving data.
policy meta_scrape {
  severity medium;
  description "metadata scan without data traffic";
  when rate(meta_ops, 30s) > 200 and total(write_bytes, 30s) < 1MB
       and total(read_bytes, 30s) < 1MB;
  then throttle(20), trust(-0.1), log;
}

# Repeat offender: keeps knocking while rejected.
policy repeat_offender {
  severity high;
  description "persistent access attempts while sanctioned";
  when total(rejected_ops, 60s) > 500 and trust() < 0.5;
  then block(300s), trust(-0.2), alert;
}
)";
}

}  // namespace bs::sec
