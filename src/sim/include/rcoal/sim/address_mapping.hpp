/**
 * @file
 * Global address space to memory-partition/bank/row mapping.
 *
 * Per Table I, the global linear address space is interleaved among the
 * memory partitions in chunks of 256 bytes. Within a partition,
 * consecutive chunks are spread across banks to maximize bank-level
 * parallelism, and rows span rowBytes of partition-local space per bank.
 */

#ifndef RCOAL_SIM_ADDRESS_MAPPING_HPP
#define RCOAL_SIM_ADDRESS_MAPPING_HPP

#include <cstdint>

#include "rcoal/common/types.hpp"
#include "rcoal/sim/config.hpp"
#include "rcoal/sim/invariant_divisor.hpp"

namespace rcoal::sim {

/** Decoded DRAM coordinates of a global address. */
struct DramLocation
{
    unsigned partition = 0;
    unsigned bank = 0;      ///< Bank within the partition.
    unsigned bankGroup = 0; ///< Bank group of the bank.
    std::uint64_t row = 0;  ///< Row within the bank.
    std::uint32_t column = 0; ///< Byte offset within the row.

    bool operator==(const DramLocation &other) const = default;
};

/**
 * Address decoder. Every divisor is a configuration parameter, so each
 * is precomputed as an InvariantDivisor: a decode runs no divide
 * instruction.
 */
class AddressMapping
{
  public:
    explicit AddressMapping(const GpuConfig &config);

    /** Memory partition servicing @p addr. */
    unsigned partitionOf(Addr addr) const;

    /** Full DRAM coordinates of @p addr. */
    DramLocation decode(Addr addr) const;

  private:
    InvariantDivisor interleave;
    InvariantDivisor partitions;
    InvariantDivisor banks;
    InvariantDivisor groups;
    InvariantDivisor chunksPerRow; ///< rowBytes / interleave.
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_ADDRESS_MAPPING_HPP
