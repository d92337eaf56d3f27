// Knowledge base of the MAPE-K loop: the introspection snapshots (current +
// bounded history), shared by all self-* modules.
#pragma once

#include <deque>

#include "intro/introspection.hpp"

namespace bs::core {

class KnowledgeBase {
 public:
  explicit KnowledgeBase(std::size_t max_history = 64)
      : max_history_(max_history) {}

  void update(intro::SystemSnapshot snapshot) {
    history_.push_back(snapshot);
    if (history_.size() > max_history_) history_.pop_front();
    current_ = std::move(snapshot);
  }

  [[nodiscard]] const intro::SystemSnapshot& current() const {
    return current_;
  }
  [[nodiscard]] const std::deque<intro::SystemSnapshot>& history() const {
    return history_;
  }

  /// Trend of a snapshot scalar over the last `n` snapshots: mean of the
  /// extractor over them; 0 when empty.
  template <class Fn>
  [[nodiscard]] double trend(std::size_t n, Fn extract) const {
    if (history_.empty()) return 0;
    double sum = 0;
    std::size_t count = 0;
    for (auto it = history_.rbegin();
         it != history_.rend() && count < n; ++it, ++count) {
      sum += extract(*it);
    }
    return count > 0 ? sum / static_cast<double>(count) : 0;
  }

 private:
  std::size_t max_history_;
  intro::SystemSnapshot current_;
  std::deque<intro::SystemSnapshot> history_;
};

}  // namespace bs::core
