// Lightweight expected-style error handling used across all service
// boundaries: distributed operations fail for mundane reasons (timeouts,
// blocked clients, missing blobs) that are part of normal control flow and
// must not be exceptions.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace bs {

enum class Errc {
  ok = 0,
  timeout,
  unavailable,        ///< destination node down or service not registered
  not_found,
  already_exists,
  invalid_argument,
  permission_denied,  ///< ACL rejection
  blocked,            ///< client blocked by the self-protection framework
  throttled,          ///< client rate-limited by enforcement
  out_of_space,
  conflict,           ///< version conflict / lost serialization race
  cancelled,
  io_error,
  parse_error,
  unsupported,
  internal,
};

/// Human-readable name of an error code (stable, used in logs and tests).
const char* errc_name(Errc code);

struct Error {
  Errc code{Errc::internal};
  std::string message;

  std::string to_string() const;
};

/// Result<T>: either a value or an Error. Result<void> carries success only.
template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  Result(Error err) : data_(std::in_place_index<1>, std::move(err)) {}
  Result(Errc code, std::string message = {})
      : data_(std::in_place_index<1>, Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const { return data_.index() == 0; }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    assert(ok());
    return std::get<0>(data_);
  }
  [[nodiscard]] T& value() & {
    assert(ok());
    return std::get<0>(data_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok());
    return std::get<0>(std::move(data_));
  }

  [[nodiscard]] const Error& error() const& {
    assert(!ok());
    return std::get<1>(data_);
  }
  /// Moves the error out, message included: forwarding a failure up a
  /// call chain then copies no text.
  [[nodiscard]] Error&& error() && {
    assert(!ok());
    return std::get<1>(std::move(data_));
  }
  [[nodiscard]] Errc code() const {
    return ok() ? Errc::ok : error().code;
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` on error.
  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Error> data_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error err) : err_(std::move(err)) {}
  Result(Errc code, std::string message = {})
      : err_(Error{code, std::move(message)}) {}

  [[nodiscard]] bool ok() const { return !err_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Error& error() const& {
    assert(!ok());
    return *err_;
  }
  [[nodiscard]] Error&& error() && {
    assert(!ok());
    return *std::move(err_);
  }
  [[nodiscard]] Errc code() const { return ok() ? Errc::ok : err_->code; }

 private:
  std::optional<Error> err_;
};

inline Result<void> ok_result() { return {}; }

}  // namespace bs
