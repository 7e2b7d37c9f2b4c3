/**
 * @file
 * Shared pieces of the repository benchmark: options, metric and check
 * bookkeeping, the output digest, host timers, and the in-memory span
 * store of the traced pass.
 *
 * The benchmark drives the public APIs of rcoal::attack, serve, fleet,
 * sim, core, workloads and telemetry from one process. Every workload
 * runs a fixed, seed-derived unit of work (a "round") repeatedly for the
 * requested time; host-time metrics are medians over rounds, simulated
 * metrics come from one round and must repeat exactly in every round.
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome-trace output of the traced pass ("" = none). */
    std::string traceOut;
};

/** Worker threads the workloads use: every simulation runs serially. */
inline constexpr unsigned kWorkers = 1;

/**
 * Set-up repeats until kSetupSeconds of wall time and at least
 * kMinSetupReps repetitions (at most kMaxSetupReps); setup_s is the
 * median repetition.
 */
inline constexpr double kSetupSeconds = 0.2;
inline constexpr unsigned kMinSetupReps = 7;
inline constexpr unsigned kMaxSetupReps = 2000;

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds between two nowNs() stamps. */
inline double
secondsBetween(std::int64_t start_ns, std::int64_t end_ns)
{
    return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/** Wall seconds of one timed section. */
struct Stopwatch
{
    std::int64_t wall0 = nowNs();

    double wallSeconds() const { return secondsBetween(wall0, nowNs()); }
};

/** Call @p round until @p seconds of wall time passed (at least once). */
template <typename Round>
void
repeatFor(double seconds, Round &&round)
{
    const std::int64_t end =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    do {
        round();
    } while (nowNs() < end);
}

/**
 * repeatFor() over @p timed rounds, each paired with a @p traced round
 * when @p trace is set. The pair's order alternates, so drift in host
 * speed does not bias the traced-vs-timed comparison.
 */
template <typename Timed, typename Traced>
void
repeatPassesFor(double seconds, bool trace, Timed &&timed, Traced &&traced)
{
    unsigned pairs = 0;
    repeatFor(seconds, [&] {
        const bool traced_first = trace && pairs++ % 2 == 1;
        if (traced_first)
            traced();
        timed();
        if (trace && !traced_first)
            traced();
    });
}

/** Nearest-rank percentile of @p values (copied); NaN when empty. */
double percentile(std::vector<double> values, double p);

/** Median of @p values (mean of the middle pair); NaN when empty. */
double median(std::vector<double> values);

/**
 * "median M unit, pP Q unit, n=N": P is the highest of p90/p99/p99.9
 * that leaves at least ten samples above it; with fewer than 100
 * samples only the median is given.
 */
std::string summarize(const std::vector<double> &values, const char *unit);

/** The metrics one run reports, in insertion order. */
class MetricSet
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** Set (or overwrite) metric @p name. */
    void set(const std::string &name, double value, const std::string &unit);

    const std::vector<Entry> &entries() const { return items; }

  private:
    std::vector<Entry> items;
};

/** Output checks: every comparison counts as one attempted operation. */
class Checks
{
  public:
    /** Count one check of @p what; print the first failures. */
    void expect(bool ok, const std::string &what);

    /** Count @p n operations that need no comparison of their own. */
    void attempt(std::uint64_t n) { attemptedCount += n; }

    std::uint64_t attempted() const { return attemptedCount; }
    std::uint64_t failed() const { return failedCount; }

  private:
    std::uint64_t attemptedCount = 0;
    std::uint64_t failedCount = 0;
};

/** FNV-1a 64 over the simulated outputs a workload produces. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size);
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    /** Doubles enter by bit pattern: equal digests mean equal bits. */
    void f64(double v) { bytes(&v, sizeof v); }

    std::uint64_t value() const { return state; }
    std::string hex() const;

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/**
 * In-memory span store of the traced pass, written as Chrome-trace JSON
 * when the run ends. Spans nest through a stack of open spans; each
 * records its parent, so self time is a span's duration minus the time
 * its children cover.
 */
class SpanStore
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t durNs = 0;
        std::int32_t parent = -1; ///< Index of the parent span, -1 = root.
        std::string args;         ///< JSON object body ("" = none).
    };

    /** Open a span under the innermost open one; returns its index. */
    std::int32_t open(const std::string &name, std::int64_t start_ns);

    /** Close span @p index (must be the innermost open span). */
    void close(std::int32_t index, std::int64_t end_ns,
               std::string args = {});

    /**
     * Record a closed child of the innermost open span. Aggregated
     * spans (many tick or skip calls of one trial, summed to bound the
     * trace size) are laid out back to back inside their parent, with
     * the call count in @p args.
     */
    void leaf(const std::string &name, std::int64_t start_ns,
              std::int64_t end_ns, std::string args = {});

    const std::vector<Span> &spans() const { return all; }

    /** Total self time in seconds per span name, sorted by name. */
    std::vector<std::pair<std::string, double>> selfSeconds() const;

    /** Write Chrome-trace JSON; @p metadata is a JSON object. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &metadata) const;

  private:
    std::vector<Span> all;
    std::vector<std::int32_t> stack;
};

/** RAII span; a null store makes it a no-op (the timed pass). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanStore *store, const std::string &name)
        : spans(store), index(store ? store->open(name, nowNs()) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (spans != nullptr)
            spans->close(index, nowNs(), std::move(closingArgs));
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** JSON object body attached when the span closes. */
    void args(std::string json) { closingArgs = std::move(json); }

  private:
    SpanStore *spans;
    std::int32_t index;
    std::string closingArgs;
};

/** Machine fingerprint as a JSON object literal. */
std::string machineFingerprint();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** Everything a workload hands back to main(). */
struct WorkloadResult
{
    MetricSet metrics;
    Checks checks;
    Digest digest;
};

WorkloadResult runAttackEval(const Options &opts, SpanStore *spans);
WorkloadResult runServeSaturated(const Options &opts, SpanStore *spans);
WorkloadResult runFleetAutoscale(const Options &opts, SpanStore *spans);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
