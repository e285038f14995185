// Transparent tracing decorators for the traced run.
//
// TracedAttack and TracedExplainer implement the library's TargetedAttack
// and Explainer interfaces by forwarding every call to the wrapped object
// and recording one span around it.  EvaluateAttack and AttackService call
// through them unchanged, so the traced run exercises exactly the
// production call graph.  The attack decorator also keeps each result's
// picks, which the campaigns compare against an undecorated run to prove
// the decorators change nothing.

#ifndef PERFBENCH_CPP_DECORATORS_H_
#define PERFBENCH_CPP_DECORATORS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/attack/attack.h"
#include "src/explain/explanation.h"
#include "trace.h"

namespace perfbench {

/// What a traced attack call returned, for the transparency check.
struct RecordedPick {
  int64_t node = -1;
  geattack::StatusCode status = geattack::StatusCode::kOk;
  std::vector<geattack::Edge> edges;
  /// First draw of a copy of the call's rng: identifies the seed stream
  /// (the service maps it back to a ticket) without consuming it.
  uint64_t stream_tag = 0;
  int64_t span = -1;
};

class TracedAttack : public geattack::TargetedAttack {
 public:
  /// `inner` must outlive the decorator.
  TracedAttack(const geattack::TargetedAttack* inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  std::string name() const override { return inner_->name(); }

  geattack::AttackResult Attack(const geattack::AttackContext& ctx,
                                const geattack::AttackRequest& request,
                                geattack::Rng* rng) const override {
    const uint64_t tag = StreamTag(rng);
    ScopedSpan span(span_name_, request.target_node);
    geattack::AttackResult result = inner_->Attack(ctx, request, rng);
    Record(request, result, tag, span.id());
    return result;
  }

  std::vector<geattack::AttackResult> AttackBatch(
      const geattack::AttackContext& ctx,
      const std::vector<geattack::AttackRequest>& requests,
      const std::vector<geattack::Rng*>& rngs) const override {
    std::vector<uint64_t> tags;
    for (geattack::Rng* rng : rngs) tags.push_back(StreamTag(rng));
    ScopedSpan span(span_name_ + ".batch");
    std::vector<geattack::AttackResult> results =
        inner_->AttackBatch(ctx, requests, rngs);
    for (size_t i = 0; i < results.size() && i < requests.size(); ++i)
      Record(requests[i], results[i], tags[i], span.id());
    return results;
  }

  /// Every recorded call, in completion order.
  std::vector<RecordedPick> Picks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return picks_;
  }

 private:
  static uint64_t StreamTag(geattack::Rng* rng) {
    if (rng == nullptr) return 0;
    auto copy = rng->engine();
    return copy();
  }

  void Record(const geattack::AttackRequest& request,
              const geattack::AttackResult& result, uint64_t tag,
              int64_t span) const {
    RecordedPick pick;
    pick.node = request.target_node;
    pick.status = result.status.code();
    pick.edges = result.added_edges;
    pick.stream_tag = tag;
    pick.span = span;
    std::lock_guard<std::mutex> lock(mu_);
    picks_.push_back(std::move(pick));
  }

  const geattack::TargetedAttack* inner_;
  std::string span_name_;
  mutable std::mutex mu_;
  mutable std::vector<RecordedPick> picks_;
};

class TracedExplainer : public geattack::Explainer {
 public:
  /// `inner` must outlive the decorator.
  TracedExplainer(const geattack::Explainer* inner, std::string span_name)
      : inner_(inner), span_name_(std::move(span_name)) {}

  using geattack::Explainer::Explain;
  geattack::Explanation Explain(const geattack::Graph& graph, int64_t node,
                                int64_t label) const override {
    ScopedSpan span(span_name_, node);
    return inner_->Explain(graph, node, label);
  }

 private:
  const geattack::Explainer* inner_;
  std::string span_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPP_DECORATORS_H_
