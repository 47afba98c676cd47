#include "checks.h"

#include <algorithm>
#include <functional>
#include <iterator>

#include "sharegraph/hoops.h"

namespace pardsm::bench {

ProcessSets cliques_of(const graph::Distribution& dist) {
  ProcessSets out(dist.var_count);
  for (std::size_t p = 0; p < dist.process_count(); ++p) {
    for (const VarId x : dist.per_process[p]) {
      out[static_cast<std::size_t>(x)].push_back(static_cast<ProcessId>(p));
    }
  }
  for (auto& c : out) c.erase(std::unique(c.begin(), c.end()), c.end());
  return out;
}

ProcessSets relevant_by_enumeration(const graph::ShareGraph& sg,
                                    bool& truncated) {
  ProcessSets out = cliques_of(sg.distribution());
  truncated = false;
  for (std::size_t x = 0; x < out.size(); ++x) {
    const auto found = graph::enumerate_hoops(sg, static_cast<VarId>(x));
    truncated = truncated || found.truncated;
    for (const graph::Hoop& hoop : found.hoops) {
      out[x].insert(out[x].end(), hoop.begin(), hoop.end());
    }
    std::sort(out[x].begin(), out[x].end());
    out[x].erase(std::unique(out[x].begin(), out[x].end()), out[x].end());
  }
  return out;
}

std::uint64_t total_size(const ProcessSets& sets) {
  std::uint64_t n = 0;
  for (const auto& s : sets) n += s.size();
  return n;
}

Expectation expect(const Workload& w, const graph::Distribution& dist,
                   const workload::Spec& spec, const ProcessSets& relevant) {
  Expectation e;
  const ProcessSets cliques = cliques_of(dist);
  const bool adhoc = w.protocol == mcs::ProtocolKind::kCausalPartialAdHoc;
  e.may_observe = adhoc ? relevant : cliques;
  e.lossy = !w.lossless();
  // The recipient count per write is |C(x)| - 1 for pram and
  // |R(x)| - 1 for adhoc; atomic-home's RPC traffic (and any lossy run's
  // ARQ frames) has no such closed form.
  e.exact_msgs = w.lossless() && (adhoc || w.protocol ==
                                               mcs::ProtocolKind::kPramPartial);

  // last[x][i]: the last value written to x by its i-th clique member.
  std::vector<std::vector<Value>> last(dist.var_count);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    last[x].assign(cliques[x].size(), kBottom);
  }
  const workload::Generator gen(dist, spec);
  const std::size_t n = dist.process_count();
  for (std::size_t p = 0; p < n; ++p) {
    for (std::uint64_t k = 0; k < spec.ops_per_process; ++k) {
      ++e.ops;
      const workload::OpSpec op = gen.op(static_cast<ProcessId>(p), k);
      if (op.is_read) continue;
      const auto x = static_cast<std::size_t>(op.var);
      ++e.writes;
      e.msgs += e.may_observe[x].size() - 1;
      const auto& c = cliques[x];
      const auto at = std::lower_bound(c.begin(), c.end(),
                                       static_cast<ProcessId>(p));
      last[x][static_cast<std::size_t>(at - c.begin())] = op.value;
    }
  }
  e.last_writes.resize(dist.var_count);
  for (std::size_t x = 0; x < dist.var_count; ++x) {
    for (const Value v : last[x]) {
      if (v != kBottom) e.last_writes[x].push_back(v);
    }
    std::sort(e.last_writes[x].begin(), e.last_writes[x].end());
  }
  return e;
}

std::vector<std::string> check_run(const Expectation& e,
                                   const mcs::ScenarioRunResult& r) {
  std::vector<std::string> errors;
  const auto fail = [&](std::string what) { errors.push_back(std::move(what)); };

  if (r.ops_issued != e.ops || r.ops_completed != e.ops ||
      r.ops_censored != 0) {
    fail("ops: expected " + std::to_string(e.ops) + " issued and completed, "
         "got issued=" + std::to_string(r.ops_issued) +
         " completed=" + std::to_string(r.ops_completed) +
         " censored=" + std::to_string(r.ops_censored));
  }
  if (e.exact_msgs && r.total_traffic.msgs_sent != e.msgs) {
    fail("msgs_sent: expected " + std::to_string(e.msgs) +
         " (replayed writes x recipients), got " +
         std::to_string(r.total_traffic.msgs_sent));
  }
  if (e.lossy && (r.drops.loss == 0 || r.retransmissions == 0)) {
    fail("lossy run: expected loss drops and retransmissions above 0, got "
         "drops=" + std::to_string(r.drops.loss) +
         " retransmissions=" + std::to_string(r.retransmissions));
  }

  if (r.observed_relevant.size() > e.may_observe.size()) {
    fail("exposure: more variables observed than exist");
  }
  for (std::size_t x = 0;
       x < std::min(r.observed_relevant.size(), e.may_observe.size()); ++x) {
    const auto& allowed = e.may_observe[x];
    for (const ProcessId p : r.observed_relevant[x]) {
      if (!std::binary_search(allowed.begin(), allowed.end(), p)) {
        fail("exposure: process " + std::to_string(p) + " observed var " +
             std::to_string(x) + " outside its allowed set");
        break;
      }
    }
  }

  for (std::size_t p = 0; p < r.final_replicas.size(); ++p) {
    for (const mcs::ReplicaEntry& entry : r.final_replicas[p]) {
      if (entry.value == kBottom) continue;
      const auto x = static_cast<std::size_t>(entry.x);
      const bool known =
          x < e.last_writes.size() &&
          std::binary_search(e.last_writes[x].begin(),
                             e.last_writes[x].end(), entry.value);
      if (!known) {
        fail("final replica: process " + std::to_string(p) + " holds " +
             std::to_string(entry.value) + " for var " + std::to_string(x) +
             ", which is not the last write of any writer");
        break;
      }
    }
  }
  return errors;
}

std::vector<std::string> self_test(const Expectation& e,
                                   const mcs::ScenarioRunResult& healthy) {
  using Perturb = std::function<bool(mcs::ScenarioRunResult&)>;
  struct Case {
    const char* what;
    Perturb perturb;  ///< false = not applicable to this run
  };
  const std::vector<Case> cases{
      {"one op short", [](auto& r) {
         --r.ops_completed;
         return true;
       }},
      {"one op censored", [](auto& r) {
         ++r.ops_censored;
         return true;
       }},
      {"one message too many",
       [&](auto& r) {
         ++r.total_traffic.msgs_sent;
         return e.exact_msgs;
       }},
      {"no loss drops", [&](auto& r) {
         r.drops.loss = 0;
         return e.lossy;
       }},
      {"no retransmissions",
       [&](auto& r) {
         r.retransmissions = 0;
         return e.lossy;
       }},
      {"exposure beyond the allowed set",
       [](auto& r) {
         if (r.observed_relevant.empty()) return false;
         // One past the last process id is outside every allowed set.
         r.observed_relevant[0].insert(
             static_cast<ProcessId>(r.final_replicas.size()));
         return true;
       }},
      {"final value nobody wrote last",
       [&](auto& r) {
         for (auto& replica : r.final_replicas) {
           if (replica.empty()) continue;
           // Writes pack (k << kProcessBits) | p; op k = ops is never
           // generated, so this value was written by nobody.
           replica.front().value = workload::Generator::packed_value(
               0, e.ops + 1);
           return true;
         }
         return false;
       }},
  };

  std::vector<std::string> missed;
  if (!check_run(e, healthy).empty()) {
    missed.emplace_back("self-test: the unperturbed run does not pass");
    return missed;
  }
  for (const Case& c : cases) {
    mcs::ScenarioRunResult copy = healthy;
    if (!c.perturb(copy)) continue;
    if (check_run(e, copy).empty()) {
      missed.push_back(std::string("self-test: checks accept ") + c.what);
    }
  }
  return missed;
}

}  // namespace pardsm::bench
