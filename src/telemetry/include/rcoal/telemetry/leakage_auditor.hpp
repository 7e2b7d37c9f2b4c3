/**
 * @file
 * LeakageAuditor: the paper's leakage statistic as a live SLO gauge.
 *
 * RCoal's security argument reduces to one number: the correlation
 * between the number of coalesced accesses a request's data *should*
 * produce under baseline coalescing and the time the kernel's last
 * AES round actually took.  Under BASE the two agree and the
 * correlation approaches 1 (the attacker's signal); under RSS/RTS the
 * subwarp randomization decouples them and the correlation collapses
 * toward 0 (paper §6, Fig. 5).
 *
 * The auditor computes that statistic online with Welford-style
 * streaming co-moments — O(1) state, no retained samples — and
 * publishes it as gauges plus an alert bit, so a serving deployment
 * watches information leakage the same way it watches p99.
 *
 * The X series must be the *model-predicted baseline* access count
 * (a pure function of request data), NOT the count the hardware
 * actually performed: actual accesses correlate with time under every
 * policy, predicted ones only when the policy leaks.
 *
 * One auditor is a family of such cells, one per labelled series:
 *
 *  - a single series (benches label it per coalescing policy);
 *  - per-replica series replica="<i>" plus an aggregate
 *    replica="fleet" that sees every observation. An attacker pinned
 *    to one replica concentrates signal where that replica's cell
 *    watches; spraying probes dilutes every per-replica series, but
 *    the aggregate still accumulates the full sample;
 *  - per-stage series stage="<name>" (leakage *attribution*): the
 *    predicted access count against each pipeline stage's last-round
 *    duration, so a run reports WHERE the key-dependent time lives.
 *    Pearson correlation is scale- and offset-invariant, so stages in
 *    different clock domains attribute correctly without conversion.
 */

#ifndef RCOAL_TELEMETRY_LEAKAGE_AUDITOR_HPP
#define RCOAL_TELEMETRY_LEAKAGE_AUDITOR_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "rcoal/telemetry/registry.hpp"

namespace rcoal::telemetry {

class LeakageAuditor
{
  public:
    struct Config {
        /** |correlation| at or above this raises the alert. */
        double alertThreshold = 0.35;
        /** Observations needed before the alert may assert. */
        std::size_t minSamples = 8;
    };

    /** Series index that addresses the aggregate cell. */
    static constexpr std::size_t kAggregate = static_cast<std::size_t>(-1);

    /**
     * Registers each cell's five instruments in @p registry. With no
     * @p key the auditor is one series labelled @p labels. Otherwise
     * series i is labelled @p labels plus (@p key, @p values[i]), and
     * a non-null @p aggregate adds a cell labelled
     * (@p key, @p aggregate) that every observation also feeds; it
     * registers before the series.
     */
    LeakageAuditor(MetricRegistry &registry, const Config &config,
                   const MetricRegistry::Labels &labels = {},
                   const std::string &key = {},
                   const std::vector<std::string> &values = {{}},
                   const char *aggregate = nullptr);

    /**
     * Feed one completed request to @p series (and the aggregate):
     * @p x is the baseline-coalescing access count predicted from the
     * request data; @p y is the attacker-visible duration (last round,
     * or one stage's slice).
     */
    void observe(std::size_t series, double x, double y);
    /** The single-series form: feeds series 0. */
    void observe(double x, double y) { observe(0, x, y); }

    /** Streaming Pearson correlation; 0 when degenerate or n < 2. */
    double correlation(std::size_t series = 0) const
    {
        return cells[cellIndex(series)].correlation();
    }

    /** True when |correlation| >= threshold with enough samples. */
    bool alerting(std::size_t series) const
    {
        return firing(cells[cellIndex(series)]);
    }

    /** True when any cell, the aggregate included, alerts. */
    bool alerting() const;

    std::size_t samples(std::size_t series = 0) const
    {
        return cells[cellIndex(series)].n;
    }
    /** Labelled series, not counting the aggregate. */
    std::size_t series() const { return cells.size() - firstSeries; }
    bool hasAggregate() const { return firstSeries == 1; }
    double alertThreshold() const { return cfg.alertThreshold; }

  private:
    /**
     * Welford co-moments of one series and its instruments. The alert
     * state is firing() of the moments, so it is derived, not stored.
     */
    struct Cell
    {
        std::size_t n = 0;
        double meanX = 0.0, meanY = 0.0;
        double m2x = 0.0, m2y = 0.0, cxy = 0.0;

        Counter *observations = nullptr;
        Counter *alertTransitions = nullptr;
        Gauge *correlationGauge = nullptr;
        Gauge *alertGauge = nullptr;

        double correlation() const;
    };

    /** Appends a cell labelled @p labels plus (@p key, @p value). */
    void addCell(MetricRegistry &registry, MetricRegistry::Labels labels,
                 const std::string &key, const std::string &value);
    void update(Cell &cell, double x, double y);
    bool firing(const Cell &cell) const;
    /** Index into cells of series @p s; panics on an unknown index. */
    std::size_t cellIndex(std::size_t s) const;

    Config cfg;
    /** 1 when cells[0] is the aggregate, else 0. */
    std::size_t firstSeries = 0;
    std::vector<Cell> cells;
};

/**
 * The fleet's family: replica="<i>" for each of @p num_replicas plus
 * the replica="fleet" aggregate.
 */
// Kept as a named type: perfbench/fleet_autoscale.cpp constructs it.
class FleetLeakageAuditor : public LeakageAuditor
{
  public:
    FleetLeakageAuditor(MetricRegistry &registry, const Config &config,
                        unsigned num_replicas);
};

} // namespace rcoal::telemetry

#endif // RCOAL_TELEMETRY_LEAKAGE_AUDITOR_HPP
