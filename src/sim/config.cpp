/**
 * @file
 * GpuConfig implementation.
 */

#include "rcoal/sim/config.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "rcoal/common/logging.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/sim/memory_access.hpp"

namespace rcoal::sim {

GpuConfig
GpuConfig::paperBaseline()
{
    return GpuConfig{};
}

namespace {

/**
 * Cache-geometry consistency, checked for both levels whether or not
 * the level is enabled (an ablation flips the enable bits at runtime;
 * the geometry must already be sound).
 */
void
validateCacheGeometry(const char *level, const CacheGeometry &geom,
                      std::uint32_t coalesce_block_bytes)
{
    if (geom.ways == 0) {
        fatal("%s associativity must be >= 1 (got %u ways)", level,
              geom.ways);
    }
    if (geom.sectorBytes == 0 || geom.lineBytes == 0 ||
        geom.lineBytes % geom.sectorBytes != 0) {
        fatal("%s lineBytes (%u) must be a positive multiple of "
              "sectorBytes (%u)",
              level, geom.lineBytes, geom.sectorBytes);
    }
    if (geom.lineBytes / geom.sectorBytes > 32) {
        fatal("%s has %u sectors per line; at most 32 supported "
              "(sector validity is a 32-bit mask)",
              level, geom.lineBytes / geom.sectorBytes);
    }
    if (geom.sizeBytes == 0 || geom.sizeBytes % geom.lineBytes != 0) {
        fatal("%s sizeBytes (%u) must be a positive multiple of "
              "lineBytes (%u)",
              level, geom.sizeBytes, geom.lineBytes);
    }
    if (geom.sizeBytes / geom.lineBytes < geom.ways) {
        fatal("%s too small for its associativity: %u lines < %u ways",
              level, geom.sizeBytes / geom.lineBytes, geom.ways);
    }
    if (geom.lineBytes % coalesce_block_bytes != 0) {
        fatal("%s lineBytes (%u) must be a multiple of "
              "coalesceBlockBytes (%u) so a coalesced access never "
              "straddles a line",
              level, geom.lineBytes, coalesce_block_bytes);
    }
    if (geom.hitLatency == 0)
        fatal("%s hitLatency must be >= 1 core cycle", level);
    if (geom.streamingReservations == 0) {
        fatal("%s streamingReservations must be >= 1 (bounds in-flight "
              "allocate-on-fill misses)",
              level);
    }
}

} // namespace

void
GpuConfig::validate() const
{
    if (numSms == 0 || warpSize == 0 || numPartitions == 0) {
        fatal("numSms, warpSize and numPartitions must be positive "
              "(got %u, %u, %u)",
              numSms, warpSize, numPartitions);
    }
    if ((warpSize & (warpSize - 1)) != 0) {
        fatal("warpSize must be a power of two (got %u): the subwarp "
              "partitioners split warps into power-of-two lane groups",
              warpSize);
    }
    if (issueWidth == 0 || issueWidth > 8)
        fatal("issueWidth must be in [1, 8]");
    if ((coalesceBlockBytes & (coalesceBlockBytes - 1)) != 0)
        fatal("coalesceBlockBytes must be a power of two");
    if ((partitionInterleaveBytes & (partitionInterleaveBytes - 1)) != 0)
        fatal("partitionInterleaveBytes must be a power of two");
    if (partitionInterleaveBytes < coalesceBlockBytes)
        fatal("partition interleave must be >= coalescing block size");
    if (rowBytes < partitionInterleaveBytes)
        fatal("row size must be >= partition interleave chunk");
    if (banksPerPartition == 0 || bankGroups == 0 ||
        banksPerPartition % bankGroups != 0) {
        fatal("banksPerPartition must be a positive multiple of bankGroups");
    }
    if (banksPerPartition > 64) {
        fatal("at most 64 banks per partition supported");
    }
    if (coreClockMhz <= 0.0 || memClockMhz <= 0.0)
        fatal("clock frequencies must be positive");
    if (prtEntries < warpSize)
        fatal("PRT must hold at least one entry per warp lane");
    // One warp-size bound for the PRT index list, the inline sids of
    // every drawn subwarp partition and each coalesced access's lanes.
    static_assert(PrtIndexList::kCapacity ==
                      core::SubwarpPartition::kMaxThreads &&
                  core::LaneList::kCapacity ==
                      core::SubwarpPartition::kMaxThreads);
    if (warpSize > PrtIndexList::kCapacity) {
        fatal("warpSize %u exceeds the inline PRT index capacity %zu "
              "(raise PrtIndexList::kCapacity)",
              warpSize, PrtIndexList::kCapacity);
    }
    validateCacheGeometry("L1", l1, coalesceBlockBytes);
    validateCacheGeometry("L2", l2, coalesceBlockBytes);
    if (l2.sizeBytes < l1.sizeBytes) {
        fatal("L2 capacity (%u bytes) must be >= L1 capacity (%u bytes)",
              l2.sizeBytes, l1.sizeBytes);
    }
    if (mshrEntries == 0 || l2MshrEntries == 0)
        fatal("mshrEntries and l2MshrEntries must be positive");
    policy.validate(warpSize);
}

namespace {

/// -1: no override; 0/1: forced off/on (set by --no-cycle-skipping etc).
std::atomic<int> cycleSkippingOverride{-1};

} // namespace

void
setCycleSkippingOverride(int forced)
{
    cycleSkippingOverride.store(forced < 0 ? -1 : (forced != 0 ? 1 : 0),
                                std::memory_order_relaxed);
}

bool
resolveCycleSkipping(bool config_flag)
{
    const int forced =
        cycleSkippingOverride.load(std::memory_order_relaxed);
    if (forced >= 0)
        return forced != 0;
    if (const char *env = std::getenv("RCOAL_CYCLE_SKIPPING")) {
        if (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
            std::strcmp(env, "false") == 0) {
            return false;
        }
    }
    return config_flag;
}

namespace {

/// Display name for a DRAM backend (see rcoal::mem::DramBackend).
const char *
backendDisplayName(DramBackendKind kind)
{
    switch (kind) {
      case DramBackendKind::Gddr5:
        return "GDDR5";
      case DramBackendKind::Gddr6:
        return "GDDR6";
      case DramBackendKind::Hbm2:
        return "HBM2";
    }
    return "unknown";
}

} // namespace

std::string
GpuConfig::describe() const
{
    std::ostringstream out;
    out << strprintf("Core: %u SMs, warp size %u (SIMT 16x%u), "
                     "%.0f MHz core clock\n",
                     numSms, warpSize, issueWidth, coreClockMhz);
    out << strprintf("Resources/core: %zu-entry PRT, %u warps max, "
                     "ALU latency %u\n",
                     prtEntries, maxWarpsPerSm, aluLatency);
    out << strprintf("Coalescing: %u-byte blocks, policy %s\n",
                     coalesceBlockBytes, policy.name().c_str());
    out << strprintf("Interconnect: 1 crossbar/direction, %u-cycle "
                     "traversal, %zu-deep port queues, %.0f MHz\n",
                     icnLatency, icnQueueDepth, coreClockMhz);
    const char *backend = backendDisplayName(dramBackend);
    out << strprintf("Memory: %u %s MCs (FR-FCFS), %u banks x %u "
                     "bank-groups each, %.0f MHz, %u-byte interleave, "
                     "%u-byte rows\n",
                     numPartitions, backend,
                     banksPerPartition / bankGroups, bankGroups,
                     memClockMhz, partitionInterleaveBytes, rowBytes);
    if (dramBackend == DramBackendKind::Gddr5) {
        out << strprintf("%s timing: tCL=%u tRP=%u tRC=%u tRAS=%u "
                         "tCCD=%u tRCD=%u tRRD=%u\n",
                         backend, timing.tCL, timing.tRP, timing.tRC,
                         timing.tRAS, timing.tCCD, timing.tRCD,
                         timing.tRRD);
    } else {
        out << strprintf("%s timing: backend-defined "
                         "(see rcoal::mem::DramBackend)\n",
                         backend);
    }
    out << strprintf("L1: %s (%u KiB, %u-byte lines, %u-byte sectors), "
                     "L2: %s (%u KiB), MSHR merging: %s "
                     "(paper disables all three)\n",
                     l1Enabled ? "on" : "off", l1.sizeBytes / 1024,
                     l1.lineBytes, l1.sectorBytes,
                     l2Enabled ? "on" : "off", l2.sizeBytes / 1024,
                     mshrEnabled ? "on" : "off");
    return out.str();
}

} // namespace rcoal::sim
