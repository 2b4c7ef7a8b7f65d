/**
 * @file
 * Process-wide heap-allocation counters for allocation-free-path
 * verification (the zero-alloc tests and the micro benchmark's
 * allocs/op counter) and allocation-size bounds (the campaign parser's
 * hostile-input tests). Thread-safe.
 *
 * Deliberately NOT part of the cdir library: linking the companion
 * alloc_counter.cc into a binary replaces the global operator
 * new/delete, which only test/bench targets should opt into. Add
 * `src/common/alloc_counter.cc` to the target's sources to enable it.
 */

#ifndef CDIR_COMMON_ALLOC_COUNTER_HH
#define CDIR_COMMON_ALLOC_COUNTER_HH

#include <cstddef>

namespace cdir {

/**
 * Number of operator-new calls the process has performed so far.
 * Measure a window by differencing two reads.
 */
std::size_t allocationCount();

/**
 * Largest single operator-new request since the last
 * resetLargestAllocation() (or process start), in bytes — how a test
 * bounds the memory a parser commits to on hostile input.
 */
std::size_t largestAllocation();

/** Restart the largestAllocation() window. */
void resetLargestAllocation();

} // namespace cdir

#endif // CDIR_COMMON_ALLOC_COUNTER_HH
