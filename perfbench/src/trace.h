// The traced mode's span recorder and the timed mcs→simnet boundary.
//
// Spans are recorded from the benchmark's own files around each public
// call it makes into a layer (topology, ShareGraph, relevance, shard
// assignment, generator replay, process construction, the set-up and
// full runs).  Each has a name, a layer, start, end and parent; all stay
// in memory and are written at exit as Chrome trace-event JSON, which
// chrome://tracing and Perfetto load.
//
// The mcs→simnet boundary is every SendPlan a protocol submits.  Runs can
// submit millions of plans, so each submit is timed and counted into
// aggregates (exact), while only the first kKeptSubmits are kept as
// individual spans for the trace file.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mcs/protocol.h"

namespace pardsm::bench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);
  static constexpr std::size_t kKeptSubmits = 20'000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span as a child of the innermost open span (main thread only).
  std::size_t open(const char* name, const char* layer);
  void close(std::size_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, const char* layer)
        : tracer_(tracer), id_(tracer.open(name, layer)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::size_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::size_t id_;
  };

  /// Seconds between open and close of a closed span.
  [[nodiscard]] double seconds(std::size_t id) const;

  /// Account `count` child calls of `parent`, `total_ns` long in sum, as
  /// layer `layer` (the summarized submits of one traced run).
  void add_aggregate(std::size_t parent, const char* name, const char* layer,
                     std::uint64_t count, std::uint64_t total_ns);

  /// Keep one submit span for the trace file, if room is left (any
  /// thread).  `parent` is the traced run the submit happened in.
  void keep_submit(std::size_t parent, Clock::time_point start,
                   Clock::time_point end);

  /// Self time of each layer: each span's duration minus the time its
  /// recorded children (spans and aggregates) took, summed by layer.
  struct LayerSelf {
    std::string layer;
    double seconds = 0.0;
  };
  [[nodiscard]] std::vector<LayerSelf> self_times() const;

  /// Write every span as Chrome trace-event JSON.  False on I/O error.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    const char* layer = "";
    std::size_t parent = kNoSpan;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t child_ns = 0;
    std::uint64_t count = 1;  ///< > 1 for aggregates
    bool aggregate = false;
  };
  struct KeptSubmit {
    std::size_t parent = kNoSpan;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int thread = 0;
  };

  [[nodiscard]] std::int64_t ns_since_start(Clock::time_point t) const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span ids
  std::unique_ptr<KeptSubmit[]> kept_;
  std::atomic<std::size_t> kept_count_{0};
};

/// A MulticastService that forwards every SendPlan to the default
/// point-to-point fanout and times and counts it.  Injected through
/// EngineConfig::multicast on the traced run; safe to call from the
/// parallel root's worker threads.
class TimedMulticast final : public mcs::MulticastService {
 public:
  explicit TimedMulticast(Tracer& tracer) : tracer_(tracer) {}

  void submit(Transport& transport, ProcessId from,
              mcs::SendPlan&& plan) override;

  /// The traced run later submits belong to.
  void set_parent(std::size_t span) { parent_ = span; }

  [[nodiscard]] std::uint64_t plans() const { return plans_.load(); }
  [[nodiscard]] std::uint64_t recipients() const {
    return recipients_.load();
  }
  [[nodiscard]] std::uint64_t submit_ns() const { return ns_.load(); }

 private:
  Tracer& tracer_;
  std::size_t parent_ = Tracer::kNoSpan;
  std::atomic<std::uint64_t> plans_{0};
  std::atomic<std::uint64_t> recipients_{0};
  std::atomic<std::uint64_t> ns_{0};
};

}  // namespace pardsm::bench
