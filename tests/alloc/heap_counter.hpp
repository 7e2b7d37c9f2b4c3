/**
 * @file
 * Global heap-allocation counter for the allocation audits.
 *
 * heap_counter.cpp replaces the global operator new (every form) with
 * one that counts calls, so the audits can assert that a hot path
 * allocates nothing. The replacement is process-wide, which is why the
 * audits live in their own test binary.
 */

#ifndef RCOAL_TESTS_ALLOC_HEAP_COUNTER_HPP
#define RCOAL_TESTS_ALLOC_HEAP_COUNTER_HPP

#include <cstddef>

namespace rcoal::test {

/** Global operator new calls so far in this process. */
extern std::size_t heapAllocations;

/** Keeps a value observable so the measured calls cannot be elided. */
template <typename T>
void
keep(const T &value)
{
    asm volatile("" : : "g"(&value) : "memory");
}

} // namespace rcoal::test

#endif // RCOAL_TESTS_ALLOC_HEAP_COUNTER_HPP
