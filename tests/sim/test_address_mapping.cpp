/**
 * @file
 * Unit tests for the address decoder and its division-free divisors.
 */

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <set>

#include "rcoal/common/rng.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/address_mapping.hpp"
#include "rcoal/sim/invariant_divisor.hpp"

namespace rcoal::sim {
namespace {

GpuConfig
baseConfig()
{
    return GpuConfig::paperBaseline();
}

TEST(AddressMapping, InterleavesInChunksOf256Bytes)
{
    const AddressMapping map(baseConfig());
    // Table I: 256-byte chunks rotate across the 6 partitions.
    EXPECT_EQ(map.partitionOf(0), 0u);
    EXPECT_EQ(map.partitionOf(255), 0u);
    EXPECT_EQ(map.partitionOf(256), 1u);
    EXPECT_EQ(map.partitionOf(511), 1u);
    EXPECT_EQ(map.partitionOf(256 * 5), 5u);
    EXPECT_EQ(map.partitionOf(256 * 6), 0u);
}

TEST(AddressMapping, AllPartitionsCovered)
{
    const AddressMapping map(baseConfig());
    std::set<unsigned> seen;
    for (Addr a = 0; a < 6 * 256; a += 256)
        seen.insert(map.partitionOf(a));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(AddressMapping, DecodePartitionConsistent)
{
    const AddressMapping map(baseConfig());
    for (Addr a = 0; a < 100000; a += 123)
        EXPECT_EQ(map.decode(a).partition, map.partitionOf(a));
}

TEST(AddressMapping, ConsecutiveChunksHitDifferentBanks)
{
    const AddressMapping map(baseConfig());
    // Two consecutive chunks of the same partition (stride 6*256).
    const auto a = map.decode(0);
    const auto b = map.decode(6 * 256);
    EXPECT_EQ(a.partition, b.partition);
    EXPECT_NE(a.bank, b.bank);
}

TEST(AddressMapping, BankGroupDerivedFromBank)
{
    const AddressMapping map(baseConfig());
    for (Addr a = 0; a < 200000; a += 4096) {
        const auto loc = map.decode(a);
        EXPECT_EQ(loc.bankGroup, loc.bank % baseConfig().bankGroups);
        EXPECT_LT(loc.bank, baseConfig().banksPerPartition);
    }
}

TEST(AddressMapping, RowAdvancesWithBankStride)
{
    const GpuConfig cfg = baseConfig();
    const AddressMapping map(cfg);
    // chunksPerRow chunks of the same bank fill one row.
    const std::uint64_t chunks_per_row =
        cfg.rowBytes / cfg.partitionInterleaveBytes;
    const Addr bank_stride =
        Addr{cfg.partitionInterleaveBytes} * cfg.numPartitions *
        cfg.banksPerPartition;
    const auto first = map.decode(0);
    const auto same_row = map.decode(bank_stride * (chunks_per_row - 1));
    EXPECT_EQ(same_row.bank, first.bank);
    EXPECT_EQ(same_row.row, first.row);
    const auto next_row = map.decode(bank_stride * chunks_per_row);
    EXPECT_EQ(next_row.bank, first.bank);
    EXPECT_EQ(next_row.row, first.row + 1);
}

TEST(AddressMapping, ColumnWithinRowBounds)
{
    const GpuConfig cfg = baseConfig();
    const AddressMapping map(cfg);
    for (Addr a = 0; a < 1000000; a += 97)
        EXPECT_LT(map.decode(a).column, cfg.rowBytes);
}

TEST(AddressMapping, DistinctAddressesDistinctCoordinates)
{
    // The decode must be injective on (partition, bank, row, column).
    const AddressMapping map(baseConfig());
    std::set<std::tuple<unsigned, unsigned, std::uint64_t,
                        std::uint32_t>>
        seen;
    for (Addr a = 0; a < 64 * 1024; a += 64) {
        const auto loc = map.decode(a);
        EXPECT_TRUE(
            seen.insert({loc.partition, loc.bank, loc.row, loc.column})
                .second)
            << "collision at addr " << a;
    }
}

TEST(AddressMapping, AesTableSpansFourPartitions)
{
    // A 1 KiB T-table covers 4 consecutive 256-byte chunks, i.e. 4
    // different partitions - the parallelism the AES kernel relies on.
    const AddressMapping map(baseConfig());
    std::set<unsigned> parts;
    for (Addr a = 0x1000; a < 0x1400; a += 64)
        parts.insert(map.partitionOf(a));
    EXPECT_EQ(parts.size(), 4u);
}

/** The decode written with plain `/` and `%`: the reference. */
DramLocation
plainDecode(const GpuConfig &cfg, Addr addr)
{
    DramLocation loc;
    const std::uint64_t chunk = addr / cfg.partitionInterleaveBytes;
    loc.partition = static_cast<unsigned>(chunk % cfg.numPartitions);
    const std::uint64_t local_chunk = chunk / cfg.numPartitions;
    const std::uint64_t chunks_per_row =
        cfg.rowBytes / cfg.partitionInterleaveBytes;
    loc.bank = static_cast<unsigned>(local_chunk % cfg.banksPerPartition);
    loc.bankGroup = loc.bank % cfg.bankGroups;
    const std::uint64_t bank_chunk = local_chunk / cfg.banksPerPartition;
    loc.row = bank_chunk / chunks_per_row;
    loc.column = static_cast<std::uint32_t>(
        (bank_chunk % chunks_per_row) * cfg.partitionInterleaveBytes +
        addr % cfg.partitionInterleaveBytes);
    return loc;
}

void
expectDivides(std::uint64_t d, std::uint64_t n)
{
    const InvariantDivisor div(d);
    ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
}

TEST(InvariantDivisor, MatchesPlainDivisionOnRandomAndEdgeValues)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::vector<std::uint64_t> divisors;
    for (std::uint64_t d = 1; d <= 300; ++d)
        divisors.push_back(d);
    for (unsigned k = 1; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t{1} << k;
        divisors.push_back(p - 1);
        divisors.push_back(p);
        if (k < 63)
            divisors.push_back(p + 1);
    }
    Rng rng(2026);
    for (int i = 0; i < 200; ++i) {
        divisors.push_back(1 + rng.below(std::uint64_t{1} << 32));
        divisors.push_back(1 + rng.below(std::uint64_t{1} << 63));
    }
    for (const std::uint64_t d : divisors) {
        for (const std::uint64_t n :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1, 2 * d - 1,
              kMax, kMax - 1, kMax - kMax % d, kMax - kMax % d - 1}) {
            expectDivides(d, n);
        }
        for (int i = 0; i < 200; ++i) {
            expectDivides(d, rng.next64());
            expectDivides(d, rng.below(std::uint64_t{1} << 40));
        }
    }
}

TEST(AddressMapping, DecodeMatchesPlainDivisionOnRandomConfigs)
{
    // Partition counts around the Table I six, bank counts that are not
    // powers of two, and rows that hold a non-power-of-two number of
    // chunks; each config decodes random 64-bit and small addresses.
    Rng rng(17);
    unsigned configs = 0;
    for (const unsigned partitions : {5u, 6u, 7u, 8u}) {
        for (const auto &[banks, groups] :
             std::array<std::pair<unsigned, unsigned>, 4>{
                 {{16, 4}, {12, 4}, {20, 2}, {24, 3}}}) {
            for (const std::uint32_t row_bytes : {2048u, 1536u, 3072u}) {
                GpuConfig cfg = baseConfig();
                cfg.numPartitions = partitions;
                cfg.banksPerPartition = banks;
                cfg.bankGroups = groups;
                cfg.rowBytes = row_bytes;
                cfg.validate();
                const AddressMapping map(cfg);
                ++configs;
                for (int i = 0; i < 2000; ++i) {
                    const Addr addr = i % 2 == 0
                                          ? rng.next64()
                                          : rng.below(Addr{1} << 32);
                    const DramLocation want = plainDecode(cfg, addr);
                    ASSERT_EQ(map.decode(addr), want)
                        << "addr " << addr << ", " << partitions
                        << " partitions, " << banks << " banks, "
                        << row_bytes << "-byte rows";
                    ASSERT_EQ(map.partitionOf(addr), want.partition);
                }
            }
        }
    }
    EXPECT_EQ(configs, 48u);
}

TEST(AddressMapping, BankGroupAndChannelDivisorsMatchEveryBackend)
{
    // DramPartition's groupOf/pcOf divide by the backend's bank groups
    // and by the banks per pseudo-channel.
    for (const DramBackendKind kind :
         {DramBackendKind::Gddr5, DramBackendKind::Gddr6,
          DramBackendKind::Hbm2}) {
        for (const auto &[banks, groups] :
             std::array<std::pair<unsigned, unsigned>, 4>{
                 {{16, 4}, {12, 4}, {20, 2}, {24, 3}}}) {
            GpuConfig cfg = baseConfig();
            cfg.dramBackend = kind;
            cfg.banksPerPartition = banks;
            cfg.bankGroups = groups;
            cfg.validate();
            const mem::BackendTiming bt =
                mem::makeDramBackend(kind)->timing(cfg);
            const unsigned per_pc = banks / bt.pseudoChannels;
            const InvariantDivisor group_div(bt.bankGroups);
            const InvariantDivisor pc_div(per_pc);
            for (unsigned bank = 0; bank < banks; ++bank) {
                EXPECT_EQ(group_div.remainder(bank), bank % bt.bankGroups);
                EXPECT_EQ(pc_div.quotient(bank), bank / per_pc);
            }
        }
    }
}

} // namespace
} // namespace rcoal::sim
