/**
 * @file
 * Multi-tenant load model: the traffic a fleet actually faces.
 *
 * Three stacked effects on top of the per-tenant exponential arrival
 * process:
 *  - heavy-tailed per-tenant rates: tenant t's mean interarrival gap is
 *    baseMeanGapCycles * (t+1)^zipfExponent, so a few tenants dominate
 *    the load the way production multi-tenant traffic does;
 *  - a diurnal wave: every tenant's instantaneous rate is modulated by
 *    1 + amplitude * sin(2*pi*t/period) evaluated at the previous
 *    arrival, a deterministic stand-in for day/night load;
 *  - bursts: after any arrival a tenant may enter a burst episode of
 *    burstLength requests whose gaps shrink by burstRateFactor (flash
 *    crowds, retry storms).
 *
 * Everything is counter-based: request k of tenant t draws all of its
 * randomness from Rng::stream(deriveSeed(seed, t), k), and requests are
 * stamped with their scheduled arrival cycle — the model inherits both
 * reproducibility contracts of the single-tenant generators, so fleet
 * results are byte-identical across thread counts and cycle-skipping
 * modes.
 */

#ifndef RCOAL_FLEET_LOAD_MODEL_HPP
#define RCOAL_FLEET_LOAD_MODEL_HPP

#include <vector>

#include "rcoal/common/types.hpp"
#include "rcoal/serve/load_generator.hpp"

namespace rcoal::fleet {

/** Shape of the background tenant population offered to the fleet. */
struct TenantLoadConfig
{
    /** Background tenants; 0 offers no background load at all. */
    unsigned tenants = 4;

    /**
     * Mean interarrival gap of the heaviest tenant (tenant rank 0) in
     * core cycles; must be positive when tenants > 0.
     */
    double baseMeanGapCycles = 2000.0;

    /**
     * Rate skew: tenant rank t arrives (t+1)^zipfExponent times slower
     * than rank 0. 0 gives a uniform population.
     */
    double zipfExponent = 1.0;

    /** Diurnal modulation depth in [0, 1). 0 disables the wave. */
    double diurnalAmplitude = 0.0;

    /** Period of the diurnal wave in core cycles. */
    Cycle diurnalPeriodCycles = 2'000'000;

    /** Per-arrival chance to enter a burst episode. 0 disables. */
    double burstProbability = 0.0;

    /** Requests per burst episode. */
    unsigned burstLength = 8;

    /** Gap divisor while bursting; > 1 means faster arrivals. */
    double burstRateFactor = 4.0;

    /** Request sizes (plaintext lines), drawn uniformly per request. */
    std::vector<unsigned> lineChoices = {32, 64, 96, 128};

    /** Root of every tenant's randomness streams. */
    std::uint64_t seed = 777;

    /** Id of tenant rank 0's first request. */
    std::uint64_t firstId = 1'000'000'000;

    /** Id space reserved per tenant (ids must never collide). */
    std::uint64_t idStride = 1'000'000'000;

    /** Panics (fatal) on inconsistent parameters. */
    void validate() const;
};

/**
 * The deterministic multi-tenant arrival process.
 */
class TenantLoadModel final : public serve::ArrivalSource
{
  public:
    explicit TenantLoadModel(TenantLoadConfig config);

    /**
     * Append every request with a scheduled arrival at or before cycle
     * @p now, stamped with that scheduled arrival (not the poll cycle)
     * and carrying its tenant id (1-based; 0 is reserved for probes and
     * single-tenant traffic).
     */
    void poll(Cycle now, std::vector<serve::Request> &out) override;

    /**
     * Cycle of the earliest next arrival over all tenants
     * (kInvalidCycle when disabled). Primes lazily like poll() would,
     * so consulting the bound never perturbs the arrival sequence.
     */
    Cycle nextEventCycle() override;

    /** Requests emitted so far. */
    std::uint64_t issued() const { return issuedCount; }

    /** Configured mean gap of tenant rank @p rank (for tests). */
    double meanGapOfRank(unsigned rank) const;

    const TenantLoadConfig &config() const { return cfg; }

  private:
    struct Tenant
    {
        std::uint64_t tenantId = 0; ///< 1-based wire identity.
        double baseMeanGap = 0.0;   ///< Rank-skewed mean gap.
        std::uint64_t seed = 0;     ///< deriveSeed(root, tenantId).
        std::uint64_t nextIndex = 0;
        Cycle nextArrival = 0;
        unsigned burstLeft = 0;
        bool primed = false;
    };

    /** Diurnal rate multiplier at cycle @p at (>= 1 - amplitude > 0). */
    double diurnalMultiplier(Cycle at) const;

    /** Draw tenant @p t's next gap and advance its schedule. */
    void scheduleNext(Tenant &t);

    /** Emit tenant @p t's due request and schedule its successor. */
    void emitOne(Tenant &t, std::vector<serve::Request> &out);

    TenantLoadConfig cfg;
    std::vector<Tenant> tenantsState;
    std::uint64_t issuedCount = 0;
};

} // namespace rcoal::fleet

#endif // RCOAL_FLEET_LOAD_MODEL_HPP
