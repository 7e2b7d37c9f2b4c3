/**
 * @file
 * Unit tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "rcoal/common/rng.hpp"
#include "rcoal/common/stats.hpp"

namespace rcoal {
namespace {

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variancePopulation(), 0.0);
    EXPECT_EQ(s.sum(), 0.0);
    EXPECT_TRUE(std::isinf(s.min()));
    EXPECT_TRUE(std::isinf(s.max()));
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.push(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.variancePopulation(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.push(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variancePopulation(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddevPopulation(), 2.0);
    EXPECT_NEAR(s.varianceSample(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(3);
    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.normal(3.0, 1.5);
        all.push(v);
        (i % 2 ? a : b).push(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variancePopulation(), all.variancePopulation(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.push(1.0);
    a.push(3.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.push(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Correlation, PerfectPositive)
{
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{2, 4, 6, 8, 10};
    EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-12);
}

TEST(Correlation, PerfectNegative)
{
    const std::vector<double> x{1, 2, 3, 4, 5};
    const std::vector<double> y{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(Correlation, InvariantToAffineTransform)
{
    Rng rng(5);
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 200; ++i) {
        const double v = rng.uniform01();
        x.push_back(v);
        y.push_back(v + 0.2 * rng.uniform01());
    }
    const double base = pearsonCorrelation(x, y);
    std::vector<double> y2;
    for (double v : y)
        y2.push_back(3.0 * v - 7.0);
    EXPECT_NEAR(pearsonCorrelation(x, y2), base, 1e-12);
}

TEST(Correlation, ZeroVarianceSeriesYieldsZero)
{
    const std::vector<double> x{1, 1, 1, 1};
    const std::vector<double> y{2, 5, 3, 8};
    EXPECT_EQ(pearsonCorrelation(x, y), 0.0);
    EXPECT_EQ(pearsonCorrelation(y, x), 0.0);
}

TEST(Correlation, KnownValue)
{
    const std::vector<double> x{1, 2, 3, 4};
    const std::vector<double> y{1, 3, 2, 4};
    // Pearson correlation of this series is 0.8.
    EXPECT_NEAR(pearsonCorrelation(x, y), 0.8, 1e-12);
}

TEST(Correlation, IndependentSeriesNearZero)
{
    Rng rng(7);
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 20000; ++i) {
        x.push_back(rng.uniform01());
        y.push_back(rng.uniform01());
    }
    EXPECT_NEAR(pearsonCorrelation(x, y), 0.0, 0.03);
}

TEST(Covariance, MatchesManualComputation)
{
    const std::vector<double> x{1, 2, 3};
    const std::vector<double> y{4, 6, 11};
    // means: 2 and 7; cov = ((-1)(-3) + 0(-1) + (1)(4)) / 3 = 7/3.
    EXPECT_NEAR(covariancePopulation(x, y), 7.0 / 3.0, 1e-12);
}

TEST(MeanStddev, BasicSeries)
{
    const std::vector<double> x{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(meanOf(x), 5.0);
    EXPECT_DOUBLE_EQ(stddevPopulationOf(x), 2.0);
    EXPECT_EQ(meanOf({}), 0.0);
}

TEST(MeanStddev, DivisorConventionsAreExplicit)
{
    // Regression for the divisor bug: one helper guarded size() < 2 like
    // a sample statistic while dividing by n like a population one.
    // The conventions are now split and must match RunningStats.
    const std::vector<double> x{2, 4};
    EXPECT_DOUBLE_EQ(stddevPopulationOf(x), 1.0);          // /n
    EXPECT_DOUBLE_EQ(stddevSampleOf(x), std::sqrt(2.0));   // /(n-1)

    RunningStats rs;
    rs.push(2);
    rs.push(4);
    EXPECT_DOUBLE_EQ(stddevPopulationOf(x), rs.stddevPopulation());
    EXPECT_DOUBLE_EQ(stddevSampleOf(x), rs.stddevSample());

    // Population stddev is defined (zero) for one observation; the
    // sample form needs two.
    const std::vector<double> one{5};
    EXPECT_DOUBLE_EQ(stddevPopulationOf(one), 0.0);
    EXPECT_DOUBLE_EQ(stddevSampleOf(one), 0.0);
    EXPECT_DOUBLE_EQ(stddevPopulationOf({}), 0.0);
}

TEST(Correlation, PopulationMomentsKeepPerfectCorrelationAtOne)
{
    // cov_n / (sigma_n sigma_n) must be exactly +-1 for linear series;
    // mixing divisor conventions would shrink it by (n-1)/n.
    const std::vector<double> x{1, 2};
    const std::vector<double> y{2, 4};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(x, y), 1.0);
    const std::vector<double> neg{-2, -4};
    EXPECT_DOUBLE_EQ(pearsonCorrelation(x, neg), -1.0);
}

TEST(NormalQuantile, StandardValues)
{
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normalQuantile(0.975), 1.959963985, 1e-6);
    EXPECT_NEAR(normalQuantile(0.99), 2.326347874, 1e-6);
    EXPECT_NEAR(normalQuantile(0.01), -2.326347874, 1e-6);
    EXPECT_NEAR(normalQuantile(0.0001), -normalQuantile(0.9999), 1e-6);
}

TEST(SampleEstimate, ApproximationNearExactForSmallRho)
{
    // Eq. 4: for small rho the exact and approximate forms agree.
    for (double rho : {0.05, 0.1, 0.2}) {
        const double exact = samplesForSuccessfulAttack(rho);
        const double approx = samplesForSuccessfulAttackApprox(rho);
        EXPECT_NEAR(exact / approx, 1.0, 0.05)
            << "rho=" << rho;
    }
}

TEST(SampleEstimate, PaperConstant)
{
    // The paper notes 2 * Z_0.99^2 ~= 11.
    const double z = normalQuantile(0.99);
    EXPECT_NEAR(2.0 * z * z, 10.82, 0.05);
}

TEST(SampleEstimate, ZeroRhoNeedsInfiniteSamples)
{
    EXPECT_TRUE(std::isinf(samplesForSuccessfulAttack(0.0)));
    EXPECT_TRUE(std::isinf(samplesForSuccessfulAttackApprox(0.0)));
}

TEST(SampleEstimate, PerfectCorrelationNeedsMinimumSamples)
{
    EXPECT_DOUBLE_EQ(samplesForSuccessfulAttack(1.0), 3.0);
}

TEST(SampleEstimate, MonotonicInRho)
{
    double prev = std::numeric_limits<double>::infinity();
    for (double rho : {0.01, 0.05, 0.1, 0.3, 0.6, 0.9}) {
        const double s = samplesForSuccessfulAttack(rho);
        EXPECT_LT(s, prev);
        prev = s;
    }
}

TEST(SampleEstimate, SymmetricInSign)
{
    EXPECT_DOUBLE_EQ(samplesForSuccessfulAttack(0.3),
                     samplesForSuccessfulAttack(-0.3));
}

} // namespace
} // namespace rcoal
