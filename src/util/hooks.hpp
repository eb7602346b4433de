// util::Hooks: the one observer mechanism. A Hooks<Args...> is a short
// list of std::function subscribers, called in subscription order. add()
// returns a Subscription; destroying it detaches the subscriber, so an
// observer that dies before the node or agent it watches can never be
// called again, and observers never overwrite one another.
//
// Lifetime rule: a Subscription must not outlive the Hooks it came from.
// Observers hold their subscriptions as members and are destroyed before
// what they watch. A subscriber must not add to or detach from the Hooks
// that is calling it.
//
// Subscriber ids are never reused, so a stale Subscription (its
// subscriber already detached or replaced) can never detach a later
// subscriber.
//
// Hooks also keeps the parts of std::function's interface that code
// chaining a single slot by hand relies on (perfbench/world.cpp):
// assigning a callable replaces every subscriber, a move leaves the
// source empty, copies carry the subscribers along, and it has an
// explicit operator bool and a const call.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace mhrp::util {

/// Move-only handle to one Hooks subscriber. Destroying it, assigning
/// over it or calling reset() detaches the subscriber; all three are
/// no-ops on an empty or moved-from handle.
class [[nodiscard]] Subscription {
 public:
  Subscription() = default;
  Subscription(Subscription&& other) noexcept { *this = std::move(other); }
  Subscription& operator=(Subscription&& other) noexcept {
    if (this != &other) {
      reset();
      detach_ = std::exchange(other.detach_, nullptr);
      hooks_ = other.hooks_;
      id_ = other.id_;
    }
    return *this;
  }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;
  ~Subscription() { reset(); }

  void reset() {
    if (detach_ != nullptr) std::exchange(detach_, nullptr)(hooks_, id_);
  }
  /// Whether this handle still holds its subscription.
  [[nodiscard]] bool active() const { return detach_ != nullptr; }

 private:
  template <typename...>
  friend class Hooks;
  using Detach = void (*)(void* hooks, std::uint64_t id);
  Subscription(Detach detach, void* hooks, std::uint64_t id)
      : detach_(detach), hooks_(hooks), id_(id) {}

  Detach detach_ = nullptr;
  void* hooks_ = nullptr;
  std::uint64_t id_ = 0;
};

template <typename... Args>
class Hooks {
 public:
  using Fn = std::function<void(Args...)>;

  Hooks() = default;
  Hooks(const Hooks&) = default;
  Hooks& operator=(const Hooks&) = default;
  Hooks(Hooks&& other) noexcept
      : subscribers_(std::exchange(other.subscribers_, {})) {}
  Hooks& operator=(Hooks&& other) noexcept {
    subscribers_ = std::exchange(other.subscribers_, {});
    return *this;
  }

  /// Replace every subscriber with `fn`. Subscriptions to the replaced
  /// subscribers go stale.
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, Hooks> &&
             std::is_invocable_v<F&, Args...>)
  Hooks& operator=(F&& fn) {
    subscribers_.clear();
    subscribers_.push_back({next_id(), Fn(std::forward<F>(fn))});
    return *this;
  }

  /// Subscribe `fn`; it runs after every earlier subscriber.
  Subscription add(Fn fn) {
    const std::uint64_t id = next_id();
    subscribers_.push_back({id, std::move(fn)});
    return Subscription(&detach, this, id);
  }

  void operator()(Args... args) const {
    for (const Subscriber& s : subscribers_) s.fn(args...);
  }
  explicit operator bool() const { return !subscribers_.empty(); }
  [[nodiscard]] std::size_t size() const { return subscribers_.size(); }

 private:
  struct Subscriber {
    std::uint64_t id;
    Fn fn;
  };

  static std::uint64_t next_id() {
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  static void detach(void* hooks, std::uint64_t id) {
    std::erase_if(static_cast<Hooks*>(hooks)->subscribers_,
                  [id](const Subscriber& s) { return s.id == id; });
  }

  std::vector<Subscriber> subscribers_;
};

}  // namespace mhrp::util
