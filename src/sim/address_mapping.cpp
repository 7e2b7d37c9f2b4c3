/**
 * @file
 * Address mapping implementation.
 */

#include "rcoal/sim/address_mapping.hpp"

namespace rcoal::sim {

AddressMapping::AddressMapping(const GpuConfig &config)
    : interleave(config.partitionInterleaveBytes),
      partitions(config.numPartitions),
      banks(config.banksPerPartition),
      groups(config.bankGroups),
      chunksPerRow(config.rowBytes / config.partitionInterleaveBytes)
{
}

unsigned
AddressMapping::partitionOf(Addr addr) const
{
    return static_cast<unsigned>(
        partitions.remainder(interleave.quotient(addr)));
}

DramLocation
AddressMapping::decode(Addr addr) const
{
    DramLocation loc;
    const std::uint64_t chunk = interleave.quotient(addr);
    loc.partition = static_cast<unsigned>(partitions.remainder(chunk));

    // Partition-local chunk index: collapse the interleaving.
    const std::uint64_t local_chunk = partitions.quotient(chunk);

    // Spread consecutive chunks across banks, then fill rows: a row of
    // bank b holds chunksPerRow consecutive local chunks with stride
    // `banks` between them.
    loc.bank = static_cast<unsigned>(banks.remainder(local_chunk));
    loc.bankGroup = static_cast<unsigned>(groups.remainder(loc.bank));
    const std::uint64_t bank_chunk = banks.quotient(local_chunk);
    loc.row = chunksPerRow.quotient(bank_chunk);
    loc.column = static_cast<std::uint32_t>(
        chunksPerRow.remainder(bank_chunk) * interleave.divisor() +
        interleave.remainder(addr));
    return loc;
}

} // namespace rcoal::sim
