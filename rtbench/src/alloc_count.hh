/**
 * @file
 * Allocation counter: the benchmark binary replaces the global
 * operator new/delete (alloc_count.cc) so a pass can count exactly how
 * many heap allocations, and how many bytes, the code under test made.
 * Counts cover every thread of the process.
 */

#ifndef RTBENCH_ALLOC_COUNT_HH
#define RTBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace rtbench {

/** Running totals of operator new calls since process start. */
struct AllocCount {
    uint64_t calls = 0;
    uint64_t bytes = 0;
};

/** Current totals (relaxed snapshot; take deltas around a region). */
AllocCount allocCount();

} // namespace rtbench

#endif // RTBENCH_ALLOC_COUNT_HH
