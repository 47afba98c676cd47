// Output checks computed apart from the engine.
//
// The expectation of a run comes from two sources that the engine does
// not use: a replay of the workload::Generator stream (which ops are
// writes, on which variable, with which value) and the x-relevant sets
// R(x) = C(x) ∪ hoop vertices from graph::enumerate_hoops — not from
// StaticRelevance, which the adhoc protocol itself consults.  check_run
// compares a finished run against it; self_test shows that each check
// rejects a perturbed copy of a healthy run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mcs/engine.h"
#include "sharegraph/share_graph.h"
#include "workload/generator.h"
#include "workloads.h"

namespace pardsm::bench {

/// Per-variable process sets, each sorted ascending.
using ProcessSets = std::vector<std::vector<ProcessId>>;

/// C(x) for every variable.
[[nodiscard]] ProcessSets cliques_of(const graph::Distribution& dist);

/// R(x) for every variable, as C(x) plus every vertex of every x-hoop
/// that enumerate_hoops lists.  Sets `truncated` when an enumeration hit
/// its limit (R(x) is then incomplete and the checks cannot rely on it).
[[nodiscard]] ProcessSets relevant_by_enumeration(const graph::ShareGraph& sg,
                                                  bool& truncated);

[[nodiscard]] std::uint64_t total_size(const ProcessSets& sets);

struct Expectation {
  std::uint64_t ops = 0;     ///< n × ops_per_process
  std::uint64_t writes = 0;
  /// Σ over generated writes of the protocol's recipient count; checked
  /// only when exact_msgs.
  std::uint64_t msgs = 0;
  bool exact_msgs = false;
  bool lossy = false;
  /// Who may observe x: C(x), or R(x) for the adhoc protocol.
  ProcessSets may_observe;
  /// Per x, sorted: the last value each writer of x wrote to it.
  std::vector<std::vector<Value>> last_writes;
};

/// Replay the stream of `spec` on `dist` and derive the expectation.
/// `relevant` is R(x) from relevant_by_enumeration (used by adhoc only).
[[nodiscard]] Expectation expect(const Workload& w,
                                 const graph::Distribution& dist,
                                 const workload::Spec& spec,
                                 const ProcessSets& relevant);

/// Every way the run disagrees with the expectation (empty = pass).
[[nodiscard]] std::vector<std::string> check_run(
    const Expectation& e, const mcs::ScenarioRunResult& r);

/// Perturb a copy of a healthy run once per check and return a message
/// for every perturbation the checks failed to reject (empty = pass).
[[nodiscard]] std::vector<std::string> self_test(
    const Expectation& e, const mcs::ScenarioRunResult& healthy);

}  // namespace pardsm::bench
