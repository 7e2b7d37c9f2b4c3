/**
 * @file
 * Pluggable DRAM backend: the timing/structure personality a
 * DramPartition runs with.
 *
 * The partition's FR-FCFS scheduler, bank state machine and refresh
 * logic are device-agnostic; what differs between GDDR5, GDDR6 and HBM2
 * is the timing set and the channel structure:
 *
 *  - GDDR5 (the paper's Hynix part, Table I): one unified data bus per
 *    partition, no bank-group command spacing. Timing comes verbatim
 *    from GpuConfig::timing so the default machine stays byte-identical
 *    to the historical model.
 *  - GDDR6: bank-group-aware column/ACT spacing — consecutive commands
 *    to the SAME bank group need the long tCCD_L/tRRD_L windows while
 *    different-group commands get the short ones.
 *  - HBM2: a channel split into pseudo-channels, each with its own data
 *    bus, plus bank-group spacing; higher tRFC for the larger banks.
 *
 * All three are validated by the same parameterized DramProtocolChecker
 * (checkerParamsFor()) and all three preserve the cycle-skipping
 * contract: DramPartition::workBound() folds the backend's extra
 * constraints into its lower bound.
 */

#ifndef RCOAL_MEM_DRAM_BACKEND_HPP
#define RCOAL_MEM_DRAM_BACKEND_HPP

#include <memory>

#include "rcoal/sim/config.hpp"
#include "rcoal/trace/dram_checker.hpp"

namespace rcoal::mem {

/**
 * The resolved timing/structure personality of one backend, in
 * memory-clock cycles. `base.tCCD`/`base.tRRD` are the SHORT
 * (different-bank-group) windows; the Long fields apply between
 * commands to the same bank group. When bankGroupAware is false the
 * long windows are ignored and the model degenerates to the flat
 * per-bank spacing GDDR5 always used.
 */
struct BackendTiming
{
    sim::DramTiming base{};
    unsigned tCCDLong = 2;     ///< Column-to-column, same bank group.
    unsigned tRRDLong = 6;     ///< ACT-to-ACT, same bank group.
    unsigned burstCycles = 2;  ///< Data-bus occupancy per access.
    unsigned bankGroups = 4;   ///< Groups per partition (bank % groups).
    unsigned pseudoChannels = 1; ///< Independent data buses.
    bool bankGroupAware = false; ///< Enforce the Long windows.
};

/**
 * One DRAM device personality.
 */
class DramBackend
{
  public:
    virtual ~DramBackend() = default;

    virtual sim::DramBackendKind kind() const = 0;

    /** Stable lowercase name ("gddr5", "gddr6", "hbm2"). */
    virtual const char *name() const = 0;

    /** Resolve the timing set for @p cfg. */
    virtual BackendTiming timing(const sim::GpuConfig &cfg) const = 0;
};

/** GDDR5: GpuConfig::timing verbatim, flat channel (the seed model). */
class Gddr5Backend final : public DramBackend
{
  public:
    sim::DramBackendKind kind() const override
    {
        return sim::DramBackendKind::Gddr5;
    }
    const char *name() const override { return "gddr5"; }
    BackendTiming timing(const sim::GpuConfig &cfg) const override;
};

/** GDDR6: bank-group-aware tCCD_L/tRRD_L, slower core timing. */
class Gddr6Backend final : public DramBackend
{
  public:
    sim::DramBackendKind kind() const override
    {
        return sim::DramBackendKind::Gddr6;
    }
    const char *name() const override { return "gddr6"; }
    BackendTiming timing(const sim::GpuConfig &cfg) const override;
};

/** HBM2: two pseudo-channels per partition, bank-group spacing. */
class Hbm2Backend final : public DramBackend
{
  public:
    sim::DramBackendKind kind() const override
    {
        return sim::DramBackendKind::Hbm2;
    }
    const char *name() const override { return "hbm2"; }
    BackendTiming timing(const sim::GpuConfig &cfg) const override;
};

/** Construct the backend selected by @p kind. */
std::unique_ptr<DramBackend> makeDramBackend(sim::DramBackendKind kind);

/** Stable lowercase name for @p kind (matches DramBackend::name()). */
const char *dramBackendKindName(sim::DramBackendKind kind);

/**
 * Parse @p text ("gddr5" / "gddr6" / "hbm2", case-sensitive) into
 * @p out; false when the name is unknown.
 */
bool parseDramBackendKind(const char *text, sim::DramBackendKind &out);

/**
 * Protocol-checker parameterization for @p cfg's backend: the referee
 * enforces exactly the windows the partition schedules against,
 * including the bank-group and pseudo-channel structure.
 */
trace::DramProtocolChecker::Params
checkerParamsFor(const sim::GpuConfig &cfg);

} // namespace rcoal::mem

#endif // RCOAL_MEM_DRAM_BACKEND_HPP
