/**
 * @file
 * LeakageAuditor tests: the streaming Pearson correlation must agree
 * with the offline batch statistic to floating-point noise, the alert
 * must respect the minimum-sample gate and count its clear->firing
 * transitions, and degenerate inputs must read as zero correlation
 * rather than NaN. A golden digest pins the exposition and statistics
 * of single, fleet and stage-labelled auditors sharing one registry.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/common/stats.hpp"
#include "rcoal/telemetry/leakage_auditor.hpp"
#include "rcoal/telemetry/prometheus.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "support/fnv.hpp"

namespace rcoal::telemetry {
namespace {

TEST(TelemetryLeakageAuditor, MatchesOfflinePearsonCorrelation)
{
    MetricRegistry reg;
    LeakageAuditor auditor(reg, LeakageAuditor::Config{});

    // A noisy linear relationship, deterministic LCG noise.
    std::vector<double> xs, ys;
    std::uint64_t state = 99;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const double noise =
            static_cast<double>(state >> 40) / double{1 << 24};
        const double x = 100.0 + (i % 37);
        const double y = 3.0 * x + 40.0 * noise;
        xs.push_back(x);
        ys.push_back(y);
        auditor.observe(x, y);
    }
    const double offline = pearsonCorrelation(xs, ys);
    EXPECT_NEAR(auditor.correlation(), offline, 1e-12);
    EXPECT_EQ(auditor.samples(), xs.size());
    EXPECT_EQ(reg.readValue("rcoal_leakage_observations_total"),
              static_cast<double>(xs.size()));
    EXPECT_NEAR(reg.readValue("rcoal_leakage_correlation"), offline,
                1e-12);
}

TEST(TelemetryLeakageAuditor, AlertRespectsMinimumSamples)
{
    MetricRegistry reg;
    LeakageAuditor::Config cfg;
    cfg.alertThreshold = 0.5;
    cfg.minSamples = 8;
    LeakageAuditor auditor(reg, cfg);

    // Perfectly correlated, but below the sample gate.
    for (int i = 1; i <= 7; ++i) {
        auditor.observe(i, 2.0 * i);
        EXPECT_FALSE(auditor.alerting()) << "n=" << i;
    }
    EXPECT_EQ(reg.readValue("rcoal_leakage_alert"), 0.0);

    auditor.observe(8.0, 16.0); // Crosses the gate; corr == 1.
    EXPECT_TRUE(auditor.alerting());
    EXPECT_EQ(reg.readValue("rcoal_leakage_alert"), 1.0);
    EXPECT_EQ(reg.readValue("rcoal_leakage_alert_transitions_total"),
              1.0);
    EXPECT_EQ(reg.readValue("rcoal_leakage_alert_threshold"), 0.5);

    // Staying in alert is one transition, not one per observation.
    auditor.observe(9.0, 18.0);
    EXPECT_EQ(reg.readValue("rcoal_leakage_alert_transitions_total"),
              1.0);
}

TEST(TelemetryLeakageAuditor, AntiCorrelationAlsoAlerts)
{
    MetricRegistry reg;
    LeakageAuditor::Config cfg;
    cfg.alertThreshold = 0.9;
    cfg.minSamples = 4;
    LeakageAuditor auditor(reg, cfg);
    for (int i = 0; i < 16; ++i)
        auditor.observe(i, -3.0 * i);
    EXPECT_NEAR(auditor.correlation(), -1.0, 1e-12);
    EXPECT_TRUE(auditor.alerting());
}

TEST(TelemetryLeakageAuditor, DegenerateSeriesReadAsZero)
{
    MetricRegistry reg;
    LeakageAuditor auditor(reg, LeakageAuditor::Config{});
    EXPECT_EQ(auditor.correlation(), 0.0); // No samples.

    auditor.observe(5.0, 10.0);
    EXPECT_EQ(auditor.correlation(), 0.0); // One sample.

    // Constant X (every request identical): no variance, no signal.
    for (int i = 0; i < 20; ++i)
        auditor.observe(5.0, 10.0 + i);
    EXPECT_EQ(auditor.correlation(), 0.0);
    EXPECT_FALSE(auditor.alerting());
    EXPECT_FALSE(std::isnan(
        reg.readValue("rcoal_leakage_correlation")));
}

TEST(TelemetryLeakageAuditorDeathTest, RejectsBadConfiguration)
{
    MetricRegistry reg;
    LeakageAuditor::Config bad_threshold;
    bad_threshold.alertThreshold = 1.5;
    EXPECT_DEATH(LeakageAuditor(reg, bad_threshold), "threshold");

    LeakageAuditor::Config bad_samples;
    bad_samples.minSamples = 1;
    EXPECT_DEATH(LeakageAuditor(reg, bad_samples), "samples");
}

/** Deterministic uniform noise in [0, 1) for the golden series. */
double
lcgNoise(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 40) / double{1 << 24};
}

TEST(TelemetryLeakageAuditor, FamilyExpositionGolden)
{
    // Three auditor shapes on one registry: a single labelled series,
    // a fleet (aggregate + three replicas, replica 1 never fed) and a
    // stage family (three stages under base labels, stage 2 never
    // fed). The exposition pins registration order, label order and
    // every gauge; the accessor digest pins the statistics.
    MetricRegistry reg;
    const LeakageAuditor::Config cfg;
    LeakageAuditor single(reg, cfg, {{"policy", "BASE"}});
    FleetLeakageAuditor fleet(reg, cfg, 3);
    LeakageAuditor stage(reg, cfg,
                         {{"policy", "BASE"}, {"hierarchy", "flat"}},
                         "stage", {"queue", "coalesce", "dram"});

    std::uint64_t state = 20261021;
    for (int i = 0; i < 40; ++i) {
        const double x = 8.0 + (i % 13);
        const double noise = lcgNoise(state);
        // Signal early, pure noise late: alerts fire and some clear
        // again. Replica 0 sees signal throughout, replica 2 none.
        const double y = (i < 28 ? 3.0 * x : 0.0) + 20.0 * noise;
        single.observe(x, y);
        if (i % 2 == 0)
            fleet.observe(0u, x, 3.0 * x + 20.0 * noise);
        else
            fleet.observe(2u, x, 50.0 * noise);
        stage.observe(0, x, y);
        stage.observe(1, x, 100.0 * lcgNoise(state));
    }

    test::Fnv text;
    text.str(renderPrometheus(reg));

    test::Fnv values;
    values.f64(single.correlation());
    values.u64(single.samples());
    values.u64(single.alerting());
    values.f64(single.alertThreshold());
    for (unsigned r = 0; r < 3; ++r) {
        values.f64(fleet.correlation(r));
        values.u64(fleet.samples(r));
    }
    values.u64(fleet.alerting());
    for (std::size_t s = 0; s < 3; ++s) {
        values.f64(stage.correlation(s));
        values.u64(stage.samples(s));
        values.u64(stage.alerting(s));
    }

    EXPECT_EQ(single.samples(), 40u);
    EXPECT_EQ(fleet.samples(0), 20u);
    EXPECT_EQ(fleet.samples(1), 0u);
    EXPECT_EQ(fleet.samples(2), 20u);
    EXPECT_EQ(stage.samples(0), 40u);
    EXPECT_EQ(stage.samples(2), 0u);
    EXPECT_EQ(stage.correlation(2), 0.0);
    EXPECT_FALSE(single.alerting()); // Fired, then cleared.
    EXPECT_TRUE(fleet.alerting());   // Replica 0 still fires.
    EXPECT_EQ(text.value(), 0x143b04af63e2dae4ull);
    EXPECT_EQ(values.value(), 0xf9c8e8c04d9f6a42ull);
}

TEST(TelemetryLeakageAuditorDeathTest, RejectsUnknownReplica)
{
    MetricRegistry reg;
    FleetLeakageAuditor fleet(reg, LeakageAuditor::Config{}, 3);
    EXPECT_DEATH(fleet.observe(3, 1.0, 2.0), "unknown");
    EXPECT_DEATH((void)fleet.correlation(3), "unknown");
    EXPECT_DEATH((void)fleet.samples(3), "unknown");
}

TEST(TelemetryLeakageAuditorDeathTest, RejectsUnknownStage)
{
    MetricRegistry reg;
    LeakageAuditor stage(reg, LeakageAuditor::Config{}, {}, "stage",
                         {"queue", "coalesce", "dram"});
    EXPECT_DEATH(stage.observe(3, 1.0, 2.0), "unknown");
    EXPECT_DEATH((void)stage.correlation(3), "unknown");
    EXPECT_DEATH((void)stage.alerting(3), "unknown");
    EXPECT_DEATH((void)stage.samples(3), "unknown");
}

} // namespace
} // namespace rcoal::telemetry
