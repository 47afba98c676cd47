// The four benchmark workloads (README.md gives the reasoning for each).
//
// A workload fixes the protocol, the share-graph topology, the runtime and
// the load shape.  The topology does not depend on the seed; the seed
// drives the generator's op stream and the simulator's channel draws, so
// two seeds give two different inputs on the same system.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mcs/engine.h"
#include "sharegraph/share_graph.h"
#include "workload/generator.h"

namespace pardsm::bench {

struct Workload {
  const char* name = "";
  mcs::ProtocolKind protocol = mcs::ProtocolKind::kPramPartial;
  graph::Distribution (*topology)() = nullptr;
  mcs::EngineRuntime runtime = mcs::EngineRuntime::kSimulator;
  /// Load shape; the seed is filled in per run.
  workload::Spec spec;
  /// Per-message channel loss (routes the run through ReliableTransport).
  double loss = 0.0;

  [[nodiscard]] bool lossless() const { return loss == 0.0; }
  [[nodiscard]] bool parallel() const {
    return runtime == mcs::EngineRuntime::kParallelSim;
  }
  /// The load of the set-up run: the same configuration, one op per
  /// process.
  [[nodiscard]] workload::Spec setup_spec(std::uint64_t seed) const;
  [[nodiscard]] workload::Spec full_spec(std::uint64_t seed) const;
};

/// nullptr if no workload has this name.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Worker threads (== shards) of the parallel root.
[[nodiscard]] unsigned parallel_workers();

/// The engine configuration of one run.  `dist` and `spec` are borrowed;
/// `multicast` may be null (the default point-to-point fanout).
[[nodiscard]] mcs::EngineConfig make_config(const Workload& w,
                                            const graph::Distribution& dist,
                                            const workload::Spec& spec,
                                            std::uint64_t seed,
                                            mcs::EngineRuntime runtime,
                                            mcs::MulticastService* multicast);

}  // namespace pardsm::bench
