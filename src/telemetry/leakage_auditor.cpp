/**
 * @file
 * LeakageAuditor implementation.
 */

#include "rcoal/telemetry/leakage_auditor.hpp"

#include <algorithm>
#include <cmath>

#include "rcoal/common/logging.hpp"

namespace rcoal::telemetry {

LeakageAuditor::LeakageAuditor(MetricRegistry &registry, const Config &config,
                               const MetricRegistry::Labels &labels,
                               const std::string &key,
                               const std::vector<std::string> &values,
                               const char *aggregate)
    : cfg(config), firstSeries(aggregate != nullptr ? 1 : 0)
{
    RCOAL_ASSERT(cfg.alertThreshold > 0.0 && cfg.alertThreshold < 1.0,
                 "leakage alert threshold %f outside (0, 1)",
                 cfg.alertThreshold);
    RCOAL_ASSERT(cfg.minSamples >= 2, "correlation needs at least 2 samples");
    RCOAL_ASSERT(key.empty() ? values.size() == 1 && aggregate == nullptr
                             : !values.empty(),
                 "leakage family needs one series per label value");
    if (aggregate != nullptr)
        addCell(registry, labels, key, aggregate);
    for (const std::string &value : values)
        addCell(registry, labels, key, value);
}

void
LeakageAuditor::addCell(MetricRegistry &registry,
                        MetricRegistry::Labels labels,
                        const std::string &key, const std::string &value)
{
    if (!key.empty())
        labels.emplace_back(key, value);
    Cell &cell = cells.emplace_back();
    cell.observations = &registry.counter(
        "rcoal_leakage_observations_total",
        "Completed requests fed to the leakage auditor", labels);
    cell.alertTransitions = &registry.counter(
        "rcoal_leakage_alert_transitions_total",
        "Times the leakage alert flipped from clear to firing", labels);
    cell.correlationGauge = &registry.gauge(
        "rcoal_leakage_correlation",
        "Streaming Pearson correlation between baseline-predicted "
        "last-round coalesced accesses and measured last-round time",
        labels);
    cell.alertGauge = &registry.gauge(
        "rcoal_leakage_alert",
        "1 when |rcoal_leakage_correlation| is at or above the "
        "alert threshold with enough samples",
        labels);
    registry
        .gauge("rcoal_leakage_alert_threshold",
               "Configured |correlation| alert threshold", labels)
        .set(cfg.alertThreshold);
}

void
LeakageAuditor::observe(std::size_t series, double x, double y)
{
    const std::size_t index = cellIndex(series);
    update(cells[index], x, y);
    if (hasAggregate() && index != 0)
        update(cells[0], x, y);
}

void
LeakageAuditor::update(Cell &cell, double x, double y)
{
    const bool was_firing = firing(cell);
    const double count = static_cast<double>(++cell.n);
    const double dx = x - cell.meanX;
    const double dy = y - cell.meanY;
    cell.meanX += dx / count;
    cell.meanY += dy / count;
    const double dy2 = y - cell.meanY;
    cell.m2x += dx * (x - cell.meanX);
    cell.m2y += dy * dy2;
    cell.cxy += dx * dy2;

    cell.observations->inc();
    const bool now_firing = firing(cell);
    if (now_firing && !was_firing)
        cell.alertTransitions->inc();
    cell.correlationGauge->set(cell.correlation());
    cell.alertGauge->set(now_firing ? 1.0 : 0.0);
}

double
LeakageAuditor::Cell::correlation() const
{
    const bool degenerate = n < 2 || m2x <= 0.0 || m2y <= 0.0;
    return degenerate ? 0.0 : cxy / std::sqrt(m2x * m2y);
}

bool
LeakageAuditor::firing(const Cell &cell) const
{
    return cell.n >= cfg.minSamples &&
           std::fabs(cell.correlation()) >= cfg.alertThreshold;
}

std::size_t
LeakageAuditor::cellIndex(std::size_t s) const
{
    RCOAL_ASSERT(s == kAggregate ? hasAggregate() : s < series(),
                 "unknown leakage series %zu (of %zu)", s, series());
    return s == kAggregate ? 0 : firstSeries + s;
}

bool
LeakageAuditor::alerting() const
{
    return std::ranges::any_of(cells,
                               [this](const Cell &c) { return firing(c); });
}

FleetLeakageAuditor::FleetLeakageAuditor(MetricRegistry &registry,
                                         const Config &config,
                                         unsigned num_replicas)
    : LeakageAuditor(registry, config, {}, "replica",
                     [num_replicas] {
                         std::vector<std::string> names;
                         for (unsigned r = 0; r < num_replicas; ++r)
                             names.push_back(std::to_string(r));
                         return names;
                     }(),
                     "fleet")
{
}

} // namespace rcoal::telemetry
