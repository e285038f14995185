// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer: name, start, end, the span that
// caused it, a request id and the recording thread.  Spans are kept in
// memory and written once the run ends, so recording costs a clock read, a
// lock and a vector push.  With tracing off (the end-to-end run) a
// ScopedSpan costs one branch.
//
// Parenting: each thread keeps a stack of its open spans.  A span opened on
// a thread with an empty stack (a driver or service worker) takes the
// current phase root instead, so attack spans on worker threads hang under
// the EvaluateAttack call that spawned them.

#ifndef PERFBENCH_CPP_TRACE_H_
#define PERFBENCH_CPP_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call in the process.
double NowUs();

struct SpanRecord {
  int64_t id = -1;
  int64_t parent = -1;  ///< -1: top level.
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t request = -1;  ///< Target node or ticket; -1 when none.
  int64_t thread = -1;   ///< Small per-process thread number.
};

class Tracer {
 public:
  /// The process-wide recorder; disabled until Enable().
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t request);
  /// Closes span `id` opened on this thread.
  void End(int64_t id);

  /// Parent for spans opened on threads with no open span (-1 = none).
  void SetPhaseRoot(int64_t id);

  /// Sets the request id of span `id` once it is known (e.g. a ticket).
  void SetRequest(int64_t id, int64_t request);

  /// Snapshot of every closed span, in opening order.
  std::vector<SpanRecord> Spans() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< Indexed by id.
  int64_t phase_root_ = -1;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, int64_t request = -1)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, request)
                                    : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_TRACE_H_
