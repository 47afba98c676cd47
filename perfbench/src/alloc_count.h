// Heap accounting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family with a
// malloc-backed shim that counts calls and requested bytes (relaxed
// atomics).  The benchmark diffs two snapshots around a region — the full
// run minus the one-op set-up run gives the run-phase allocations behind
// mcs.allocs_per_op and mcs.alloc_bytes_per_op.
#pragma once

#include <cstdint>

namespace pardsm::bench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;

  friend AllocCount operator-(AllocCount a, AllocCount b) {
    return {a.calls - b.calls, a.bytes - b.bytes};
  }
};

/// Allocations made by this process so far (monotone).
[[nodiscard]] AllocCount allocs_now() noexcept;

}  // namespace pardsm::bench
