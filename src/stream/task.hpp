// Coroutine task type for streaming modules.
//
// An FBLAS "HLS module" is a C++20 coroutine returning stream::Task. The
// coroutine body pops operands from input channels, computes, and pushes
// results to output channels, exactly mirroring the paper's OpenCL kernels
// (Fig. 4/5, Listing 1). Tasks are lazily started and driven by a
// Scheduler (see scheduler.hpp).
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

namespace fblas::stream {

class Scheduler;

class Task;

/// Promise type for module coroutines. The scheduler and module id are
/// injected when the task is registered with a Graph.
struct TaskPromise {
  Scheduler* sched = nullptr;
  int module_id = -1;
  /// How many steps the module's next resume moves: 1, or the length of
  /// a fast-forward window (stream::next_cycle returns it).
  std::int64_t grant = 1;
  std::exception_ptr exception;

  Task get_return_object();
  std::suspend_always initial_suspend() noexcept { return {}; }
  std::suspend_always final_suspend() noexcept { return {}; }
  void return_void() noexcept {}
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

using TaskHandle = std::coroutine_handle<TaskPromise>;

/// Move-only owner of a module coroutine frame.
class Task {
 public:
  using promise_type = TaskPromise;

  Task() = default;
  explicit Task(TaskHandle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  TaskHandle handle() const { return handle_; }
  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_.done(); }

 private:
  void destroy() {
    if (handle_) handle_.destroy();
    handle_ = {};
  }
  TaskHandle handle_{};
};

inline Task TaskPromise::get_return_object() {
  return Task(TaskHandle::from_promise(*this));
}

}  // namespace fblas::stream
