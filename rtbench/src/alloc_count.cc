#include "alloc_count.hh"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_calls{0};
std::atomic<uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t bytes)
{
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    g_calls.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
    const auto alignment = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded =
        (bytes + alignment - 1) / alignment * alignment;
    return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

} // namespace

namespace rtbench {

AllocCount
allocCount()
{
    return {g_calls.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

} // namespace rtbench

void *
operator new(std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    if (void *p = countedAlloc(bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return countedAlloc(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    if (void *p = countedAlignedAlloc(bytes, align))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t bytes, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(bytes, align);
}

void *
operator new[](std::size_t bytes, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return countedAlignedAlloc(bytes, align);
}

// Every form releases through free(): malloc and aligned_alloc memory
// alike.
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::align_val_t,
                     const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::align_val_t,
                       const std::nothrow_t &) noexcept
{
    std::free(p);
}
