/**
 * @file
 * Counting replacement of the global operator new (heap_counter.hpp).
 */

#include "alloc/heap_counter.hpp"

#include <cstdlib>
#include <new>

namespace rcoal::test {

std::size_t heapAllocations = 0;

} // namespace rcoal::test

namespace {

void *
countedAlloc(std::size_t size, std::size_t align)
{
    ++rcoal::test::heapAllocations;
    size = size == 0 ? 1 : size;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align *
                                                  align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
