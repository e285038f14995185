#include "trace.h"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {

int64_t ThreadNumber() {
  static std::atomic<int64_t> next{0};
  thread_local const int64_t number = next.fetch_add(1);
  return number;
}

/// This thread's open spans, innermost last.
std::vector<int64_t>& OpenStack() {
  thread_local std::vector<int64_t> stack;
  return stack;
}

}  // namespace

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::Begin(const std::string& name, int64_t request) {
  std::vector<int64_t>& stack = OpenStack();
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.thread = ThreadNumber();
  span.start_us = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = stack.empty() ? phase_root_ : stack.back();
  spans_.push_back(span);
  stack.push_back(span.id);
  return span.id;
}

void Tracer::End(int64_t id) {
  const double end = NowUs();
  std::vector<int64_t>& stack = OpenStack();
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = end;
}

void Tracer::SetRequest(int64_t id, int64_t request) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].request = request;
}

void Tracer::SetPhaseRoot(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_root_ = id;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

}  // namespace perfbench
