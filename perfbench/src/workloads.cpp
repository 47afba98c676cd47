#include "workloads.h"

#include <array>

#include "sharegraph/topologies.h"

namespace pardsm::bench {
namespace {

using mcs::EngineRuntime;
using mcs::ProtocolKind;

/// The random topology's own seed: fixed, so every run seed prices the
/// same share graph.
constexpr std::uint64_t kTopologySeed = 7;

graph::Distribution random_8x32() {
  return graph::topo::random_replication(8, 32, 3, kTopologySeed);
}
graph::Distribution sharded_1024() {
  return graph::topo::sharded(128, 8, 1024);
}
graph::Distribution chain_256() { return graph::topo::open_chain(256); }

workload::Spec spec(std::uint64_t ops_per_process, workload::KeyDist keys,
                    double arrival_rate) {
  workload::Spec s;
  s.ops_per_process = ops_per_process;
  s.read_fraction = 0.5;
  s.keys = keys;
  s.zipf_theta = 0.99;
  s.arrival_rate = arrival_rate;
  return s;
}

const std::array<Workload, 4>& all() {
  static const std::array<Workload, 4> workloads{{
      {"ycsb-a-adhoc", ProtocolKind::kCausalPartialAdHoc, random_8x32,
       EngineRuntime::kSimulator, spec(6'000, workload::KeyDist::kZipf, 0.0),
       0.0},
      {"sharded-pram-par", ProtocolKind::kPramPartial, sharded_1024,
       EngineRuntime::kParallelSim,
       spec(200, workload::KeyDist::kUniform, 1'000.0), 0.0},
      {"chain-adhoc-setup", ProtocolKind::kCausalPartialAdHoc, chain_256,
       EngineRuntime::kSimulator, spec(400, workload::KeyDist::kUniform, 0.0),
       0.0},
      {"lossy-atomic", ProtocolKind::kAtomicHome, random_8x32,
       EngineRuntime::kSimulator,
       spec(10'000, workload::KeyDist::kUniform, 0.0), 0.05},
  }};
  return workloads;
}

}  // namespace

workload::Spec Workload::setup_spec(std::uint64_t seed) const {
  workload::Spec s = full_spec(seed);
  s.ops_per_process = 1;
  return s;
}

workload::Spec Workload::full_spec(std::uint64_t seed) const {
  workload::Spec s = spec;
  s.seed = seed;
  return s;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : all()) out.emplace_back(w.name);
  return out;
}

unsigned parallel_workers() {
  // One worker: every barrier window waits for the slowest worker, so on
  // a shared host each extra worker turns a co-tenant's burst into a
  // stall, and the run-to-run spread of ops_per_s grew past the bound
  // (README.md, "Bounds and run length").
  return 1;
}

mcs::EngineConfig make_config(const Workload& w,
                              const graph::Distribution& dist,
                              const workload::Spec& spec, std::uint64_t seed,
                              EngineRuntime runtime,
                              mcs::MulticastService* multicast) {
  mcs::EngineConfig config;
  config.protocol = w.protocol;
  config.distribution = &dist;
  config.workload = &spec;
  config.record_history = false;
  config.runtime = runtime;
  config.sim_seed = seed;
  config.channel.drop_probability = w.loss;
  config.parallel.num_threads = parallel_workers();
  config.multicast = multicast;
  return config;
}

}  // namespace pardsm::bench
