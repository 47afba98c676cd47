#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace pardsm::bench {
namespace {

/// Small per-thread id for the trace file (main thread first).
int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

double micros(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

Tracer::Tracer()
    : t0_(Clock::now()), kept_(std::make_unique<KeptSubmit[]>(kKeptSubmits)) {
  (void)thread_index();  // the constructing (main) thread is thread 0
}

std::int64_t Tracer::ns_since_start(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0_).count();
}

std::size_t Tracer::open(const char* name, const char* layer) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.start_ns = ns_since_start(Clock::now());
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  Span& s = spans_.at(id);
  s.end_ns = ns_since_start(Clock::now());
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (s.parent != kNoSpan) spans_[s.parent].child_ns += s.end_ns - s.start_ns;
}

double Tracer::seconds(std::size_t id) const {
  const Span& s = spans_.at(id);
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

void Tracer::add_aggregate(std::size_t parent, const char* name,
                           const char* layer, std::uint64_t count,
                           std::uint64_t total_ns) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = parent;
  s.end_ns = static_cast<std::int64_t>(total_ns);
  s.count = count;
  s.aggregate = true;
  spans_.push_back(s);
  if (parent != kNoSpan) {
    spans_[parent].child_ns += static_cast<std::int64_t>(total_ns);
  }
}

void Tracer::keep_submit(std::size_t parent, Clock::time_point start,
                         Clock::time_point end) {
  const std::size_t slot = kept_count_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kKeptSubmits) return;
  kept_[slot] = {parent, ns_since_start(start), ns_since_start(end),
                 thread_index()};
}

std::vector<Tracer::LayerSelf> Tracer::self_times() const {
  std::map<std::string, std::int64_t> by_layer;
  for (const Span& s : spans_) {
    // On the parallel root the submits of several workers overlap in time,
    // so their sum can exceed the run's wall time; self time stops at 0.
    const std::int64_t self =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns - s.child_ns);
    by_layer[s.layer] += self;
  }
  std::vector<LayerSelf> out;
  for (const auto& [layer, ns] : by_layer) {
    out.push_back({layer, static_cast<double>(ns) / 1e9});
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.aggregate) continue;  // reported as the parent's args below
    sep();
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld",
                 s.name, s.layer, micros(s.start_ns),
                 micros(s.end_ns - s.start_ns), i,
                 s.parent == kNoSpan ? -1LL
                                     : static_cast<long long>(s.parent));
    for (const Span& a : spans_) {
      if (a.aggregate && a.parent == i) {
        std::fprintf(f, ",\"%s_calls\":%llu,\"%s_ns\":%lld", a.name,
                     static_cast<unsigned long long>(a.count), a.name,
                     static_cast<long long>(a.end_ns));
      }
    }
    std::fprintf(f, "}}");
  }
  const std::size_t kept = std::min(kept_count_.load(), kKeptSubmits);
  for (std::size_t i = 0; i < kept; ++i) {
    const KeptSubmit& k = kept_[i];
    sep();
    std::fprintf(f,
                 "{\"name\":\"mcs.submit\",\"cat\":\"simnet\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"parent\":%lld}}",
                 k.thread, micros(k.start_ns), micros(k.end_ns - k.start_ns),
                 k.parent == kNoSpan ? -1LL : static_cast<long long>(k.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void TimedMulticast::submit(Transport& transport, ProcessId from,
                            mcs::SendPlan&& plan) {
  const std::size_t recipients = plan.to.size();
  const Clock::time_point start = Clock::now();
  mcs::MulticastService::fanout().submit(transport, from, std::move(plan));
  const Clock::time_point end = Clock::now();
  plans_.fetch_add(1, std::memory_order_relaxed);
  recipients_.fetch_add(recipients, std::memory_order_relaxed);
  ns_.fetch_add(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        end - start)
                        .count()),
                std::memory_order_relaxed);
  tracer_.keep_submit(parent_, start, end);
}

}  // namespace pardsm::bench
