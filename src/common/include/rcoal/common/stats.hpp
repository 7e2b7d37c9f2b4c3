/**
 * @file
 * Statistics primitives: running moments, Pearson correlation, and the
 * sample-count estimator used by the correlation-attack analysis (Eq. 4 of
 * the RCoal paper).
 */

#ifndef RCOAL_COMMON_STATS_HPP
#define RCOAL_COMMON_STATS_HPP

#include <cstddef>
#include <span>
#include <vector>

namespace rcoal {

/**
 * Numerically stable single-pass accumulator for mean/variance
 * (Welford's algorithm).
 */
class RunningStats
{
  public:
    /** Add one observation. */
    void push(double x);

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Number of observations so far. */
    std::size_t count() const { return n; }

    /** Sample mean (0 when empty). */
    double mean() const { return n ? m : 0.0; }

    /** Population variance (divides by n; 0 when n < 1). */
    double variancePopulation() const;

    /** Sample variance (divides by n-1; 0 when n < 2). */
    double varianceSample() const;

    /** Population standard deviation. */
    double stddevPopulation() const;

    /** Sample standard deviation. */
    double stddevSample() const;

    /** Smallest observation (+inf when empty). */
    double min() const;

    /** Largest observation (-inf when empty). */
    double max() const;

    /** Sum of all observations. */
    double sum() const { return total; }

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t n = 0;
    double m = 0.0;   // running mean
    double m2 = 0.0;  // sum of squared deviations
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Pearson correlation coefficient of two equal-length series.
 *
 * Returns 0 when either series has zero variance or fewer than two
 * elements: for the attack analysis, "no variation" means "no exploitable
 * relationship", which the paper also treats as correlation 0 (e.g. FSS
 * with num-subwarp = 32, Section V-C).
 */
double pearsonCorrelation(std::span<const double> x,
                          std::span<const double> y);

/** Covariance (population) of two equal-length series. */
double covariancePopulation(std::span<const double> x,
                            std::span<const double> y);

/** Arithmetic mean of a series (0 when empty). */
double meanOf(std::span<const double> x);

/**
 * Population standard deviation of a series (divides by n, matching
 * RunningStats::stddevPopulation); 0 when empty. pearsonCorrelation
 * divides covariancePopulation by this, keeping both on the same
 * divide-by-n convention so the n's cancel exactly.
 */
double stddevPopulationOf(std::span<const double> x);

/**
 * Sample standard deviation (divides by n - 1, matching
 * RunningStats::stddevSample); 0 when fewer than two elements.
 */
double stddevSampleOf(std::span<const double> x);

/**
 * Expected number of samples for a successful correlation attack with
 * success rate @p alpha, given the correlation @p rho between the
 * measurement and estimation vectors (Eq. 4; Mangard's derivation).
 *
 * Returns +inf when |rho| is 0 (or numerically indistinguishable from 0)
 * or >= 1 with rho == 1 treated as needing the minimum 3 samples.
 */
double samplesForSuccessfulAttack(double rho, double alpha = 0.99);

/**
 * The approximate form of Eq. 4: S ~= 2 * Z_alpha^2 / rho^2.
 * Used for the normalized S column of Table II.
 */
double samplesForSuccessfulAttackApprox(double rho, double alpha = 0.99);

/**
 * Quantile (inverse CDF) of the standard normal distribution.
 * Acklam's rational approximation; |error| < 1.15e-9 over (0, 1).
 */
double normalQuantile(double p);

} // namespace rcoal

#endif // RCOAL_COMMON_STATS_HPP
