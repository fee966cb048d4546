// Heap-allocation accounting for the benchmark binary.
//
// alloc_counter.cc replaces the global operator new/delete family, so every
// heap allocation made anywhere in this process (simulator library included)
// is counted. Counting is gated by an AllocWindow so the benchmark's own
// bookkeeping stays out of the per-transfer figures. The runner is
// single-threaded; the counters are plain integers.
#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

// Totals counted while a window was open, since process start.
AllocCount AllocTotals();

// Counts allocations for its lifetime; windows do not nest.
class AllocWindow {
 public:
  AllocWindow();
  ~AllocWindow();
  AllocWindow(const AllocWindow&) = delete;
  AllocWindow& operator=(const AllocWindow&) = delete;
};

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
