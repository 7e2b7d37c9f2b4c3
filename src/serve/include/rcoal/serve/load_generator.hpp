/**
 * @file
 * Deterministic load generation for the serving frontend.
 *
 * Two classical shapes:
 *  - open loop: requests arrive on an exponential interarrival process
 *    regardless of service progress (models aggregate internet traffic);
 *  - closed loop: a fixed population of clients, each submitting its
 *    next request a think time after the previous one completed
 *    (models sessions — and the attacker's probe loop).
 *
 * All randomness is counter-based (Rng::stream(seed, request index)), so
 * request i carries the same interarrival gap, size and plaintext no
 * matter how the simulation is scheduled — the property that makes the
 * leakage-under-load experiments bit-reproducible under any
 * RCOAL_THREADS setting.
 */

#ifndef RCOAL_SERVE_LOAD_GENERATOR_HPP
#define RCOAL_SERVE_LOAD_GENERATOR_HPP

#include <vector>

#include "rcoal/common/rng.hpp"
#include "rcoal/serve/request.hpp"

namespace rcoal::serve {

namespace detail {

/**
 * Exponential interarrival gap (whole cycles, at least 1) for uniform
 * draw @p u in [0, 1) and mean @p mean_gap > 0.
 *
 * Hardened against edge draws: @p u is clamped below 1 so log1p(-u)
 * never reaches -inf (uniform01() cannot produce 1.0 today, but the
 * gap must stay finite even if a future generator or a caller-supplied
 * draw can), and the result is capped at kMaxGapCycles so the
 * double-to-Cycle conversion is always in range. The returned gap is
 * asserted finite.
 */
Cycle exponentialGap(double u, double mean_gap);

/** Largest gap exponentialGap() returns (keeps the cast in range). */
inline constexpr Cycle kMaxGapCycles = Cycle{1} << 62;

} // namespace detail

/**
 * An open-loop arrival process the frontend loop polls: the solo
 * server's OpenLoopGenerator or the fleet's TenantLoadModel.
 */
class ArrivalSource
{
  public:
    virtual ~ArrivalSource() = default;

    /** Append every request scheduled at or before cycle @p now. */
    virtual void poll(Cycle now, std::vector<Request> &out) = 0;

    /** Cycle of the next arrival (kInvalidCycle when none). */
    virtual Cycle nextEventCycle() = 0;
};

/**
 * Open-loop (arrival-rate driven) background traffic.
 */
class OpenLoopGenerator final : public ArrivalSource
{
  public:
    /**
     * @param mean_gap_cycles mean exponential interarrival gap in core
     *        cycles; <= 0 disables the generator (zero offered load).
     * @param line_choices request sizes (plaintext lines), drawn
     *        uniformly per request; must be non-empty when enabled.
     * @param seed root of the per-request randomness streams.
     * @param first_id id assigned to the first emitted request
     *        (id spaces of different generators must not collide).
     */
    OpenLoopGenerator(double mean_gap_cycles,
                      std::vector<unsigned> line_choices,
                      std::uint64_t seed, std::uint64_t first_id);

    /**
     * Append every request with a scheduled arrival at or before cycle
     * @p now. Each request is stamped with its *scheduled* arrival
     * cycle, not the poll cycle: a caller polling coarsely (or resuming
     * after a skipped window) must observe exactly the timestamps a
     * per-cycle poller would, or queueing latency is under-counted.
     */
    void poll(Cycle now, std::vector<Request> &out) override;

    /**
     * Cycle of the next arrival (kInvalidCycle when disabled). Primes
     * the lazily drawn first gap exactly as poll() would, so consulting
     * the bound never perturbs the arrival sequence.
     */
    Cycle nextEventCycle() override;

    /**
     * Rebase the arrival process to begin at @p origin: the first gap
     * extends from @p origin instead of cycle 0 (every later arrival
     * shifts with it, gaps unchanged). Must precede the first
     * poll()/nextEventCycle() — the serve loop calls it after a warm
     * boot so the offered load is the cold-boot load, shifted.
     */
    void startAt(Cycle origin);

    /** Requests emitted so far. */
    std::uint64_t issued() const { return issuedCount; }

  private:
    double meanGap;
    std::vector<unsigned> lineChoices;
    std::uint64_t seed;
    std::uint64_t nextId;
    std::uint64_t issuedCount = 0;
    Cycle nextArrival = 0;
    Cycle origin = 0; ///< startAt() rebase of the arrival process.
    bool enabled;
    bool primed = false; ///< First gap drawn lazily on first poll.
};

/**
 * Closed-loop client population. Every client keeps exactly one request
 * in flight; completions (and admission rejections) schedule the next
 * submission. The probe stream of the attack-under-load experiment is a
 * single-client instance whose request i draws its plaintext from
 * Rng::stream(seed, i) — the same derivation the one-shot attack
 * harness uses, so probe plaintexts match the solo experiment.
 */
class ClosedLoopGenerator
{
  public:
    /**
     * @param clients population size.
     * @param think_cycles gap between a completion and the client's
     *        next submission (also the retry delay after a rejection).
     * @param lines plaintext lines per request.
     * @param seed root of the per-request plaintext streams.
     * @param first_id id of the first request (collision-free spacing
     *        with other generators is the caller's job).
     * @param probes mark emitted requests as attacker probes.
     */
    ClosedLoopGenerator(unsigned clients, Cycle think_cycles,
                        unsigned lines, std::uint64_t seed,
                        std::uint64_t first_id, bool probes);

    /**
     * Append every request due at or before cycle @p now, each stamped
     * with the client's scheduled submission cycle (nextSubmitAt), not
     * the poll cycle — see OpenLoopGenerator::poll.
     */
    void poll(Cycle now, std::vector<Request> &out);

    /**
     * Earliest submission cycle over clients without a request in
     * flight (kInvalidCycle when every client is waiting — the next
     * submission then hinges on a completion, not on time).
     */
    Cycle nextEventCycle() const;

    /** A request of client @p client_id completed at @p now. */
    void onCompletion(int client_id, Cycle now);

    /**
     * A request of client @p client_id was rejected by admission
     * control at @p now; the client retries the same request content
     * after a think time (request index — hence plaintext — is reused,
     * keeping the observation sequence aligned with request indices).
     */
    void onRejection(int client_id, Request request, Cycle now);

    /**
     * Rebase every client's first submission to @p origin (see
     * OpenLoopGenerator::startAt). Must precede the first poll().
     */
    void startAt(Cycle origin);

    /** Requests submitted so far (retries are not re-counted). */
    std::uint64_t issued() const { return issuedCount; }

  private:
    struct Client
    {
        Cycle nextSubmitAt = 0;
        bool waiting = false; ///< Has a request in flight or queued.
        /** Pending retry payload after a rejection (empty otherwise). */
        std::vector<aes::Block> retryPlaintext;
        std::uint64_t retryId = 0;
    };

    Cycle thinkCycles;
    unsigned linesPerRequest;
    std::uint64_t seed;
    std::uint64_t nextId;
    std::uint64_t issuedCount = 0;
    bool probeRequests;
    std::vector<Client> clientsState;
};

} // namespace rcoal::serve

#endif // RCOAL_SERVE_LOAD_GENERATOR_HPP
