/**
 * @file
 * SubwarpPartition implementation.
 */

#include "rcoal/core/subwarp.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "rcoal/common/logging.hpp"

namespace rcoal::core {

namespace {

void
requireCapacity(std::size_t threads)
{
    RCOAL_ASSERT(threads <= SubwarpPartition::kMaxThreads,
                 "partition of %zu threads exceeds the inline capacity %u",
                 threads, SubwarpPartition::kMaxThreads);
}

} // namespace

SubwarpPartition::SubwarpPartition(std::span<const SubwarpId> sid_of_thread,
                                   unsigned num_subwarps)
    : n(static_cast<unsigned>(sid_of_thread.size())), m(num_subwarps)
{
    requireCapacity(sid_of_thread.size());
    std::copy(sid_of_thread.begin(), sid_of_thread.end(), sid.begin());
    validate();
}

SubwarpPartition
SubwarpPartition::single(unsigned warp_size)
{
    requireCapacity(warp_size);
    const std::array<SubwarpId, kMaxThreads> zeros{};
    return {std::span(zeros).first(warp_size), 1};
}

SubwarpPartition
SubwarpPartition::fromSizes(const std::vector<unsigned> &sizes)
{
    std::array<SubwarpId, kMaxThreads> sids{};
    std::size_t threads = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        requireCapacity(threads + sizes[s]);
        std::fill_n(sids.begin() + threads, sizes[s],
                    static_cast<SubwarpId>(s));
        threads += sizes[s];
    }
    return {std::span(sids).first(threads),
            static_cast<unsigned>(sizes.size())};
}

SubwarpId
SubwarpPartition::subwarpOf(ThreadId tid) const
{
    RCOAL_ASSERT(tid < n, "tid %u out of range", tid);
    return sid[tid];
}

std::vector<ThreadId>
SubwarpPartition::threadsOf(SubwarpId s) const
{
    std::vector<ThreadId> out;
    for (ThreadId tid = 0; tid < n; ++tid) {
        if (sid[tid] == s)
            out.push_back(tid);
    }
    return out;
}

std::vector<unsigned>
SubwarpPartition::sizes() const
{
    std::vector<unsigned> out(m, 0);
    for (SubwarpId s : sidOfThread())
        ++out[s];
    return out;
}

bool
SubwarpPartition::isInOrder() const
{
    return std::is_sorted(sid.begin(), sid.begin() + n);
}

void
SubwarpPartition::validate() const
{
    RCOAL_ASSERT(n > 0, "empty partition");
    RCOAL_ASSERT(m >= 1 && m <= n,
                 "numSubwarps %u invalid for warp of %u threads", m, n);
    // Constructed on the simulator's and the attacker's hot paths:
    // m <= n <= 32 subwarps, so one 64-bit mask tracks non-emptiness.
    std::uint64_t seen = 0;
    for (SubwarpId s : sidOfThread()) {
        RCOAL_ASSERT(s < m, "sid %u out of range (M=%u)", s, m);
        seen |= std::uint64_t{1} << s;
    }
    RCOAL_ASSERT(seen == (std::uint64_t{1} << m) - 1,
                 "subwarp %u is empty",
                 static_cast<unsigned>(std::countr_one(seen)));
}

} // namespace rcoal::core
