/**
 * @file
 * DRAM protocol checker: validates a partition's command stream against
 * its own timing rules.
 *
 * The simulator's timing credibility rests on DRAM commands respecting
 * the GDDR5 constraints of Table I; a silent bookkeeping rewind (a bank
 * deadline assigned backwards) corrupts every leakage figure downstream.
 * The checker is the independent referee: it watches the ACT/RD/PRE/REF
 * stream — online via the DramPartition test-mode hook, or offline by
 * replaying recorded trace events — and flags every command that arrives
 * inside a closed timing window:
 *
 *   ACT: bank precharged, >= tRC since last ACT (same bank), >= tRP
 *        since last PRE, >= tRRD since last ACT (any bank), outside tRFC.
 *   RD:  row open and matching, >= tRCD since ACT, >= tCCD since last
 *        RD (same bank), burst starts >= tCL after the command and never
 *        overlaps another burst on the shared data bus, outside tRFC.
 *   PRE: row open, >= tRAS since ACT, not before the bank's last read
 *        burst has drained (the read-to-precharge window).
 *   REF: data bus quiet, every open bank >= tRAS past its ACT, outside
 *        the previous tRFC window.
 */

#ifndef RCOAL_TRACE_DRAM_CHECKER_HPP
#define RCOAL_TRACE_DRAM_CHECKER_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rcoal/common/state_arena.hpp"
#include "rcoal/trace/event.hpp"

namespace rcoal::trace {

/** One detected protocol violation. */
struct DramProtocolViolation
{
    std::string rule;   ///< Constraint name ("tRCD", "bus-overlap", ...).
    std::string detail; ///< Human-readable description.
    Cycle cycle = 0;    ///< Memory cycle of the offending command.
};

/**
 * Replays one partition's command stream and checks every constraint.
 */
class DramProtocolChecker
{
  public:
    /**
     * The timing rules to enforce (memory-clock cycles). With
     * bankGroupAware set (GDDR6/HBM2 personalities), tCCD/tRRD become
     * the *short* different-bank-group windows and three extra rules
     * apply: same-group column commands >= tCCDLong apart (tCCD_L),
     * any two column commands in a pseudo-channel >= tCCD apart
     * (tCCD_S), and same-group ACTs >= tRRDLong apart (tRRD_L). The
     * data bus splits into pseudoChannels independent buses (banks are
     * divided contiguously across them).
     */
    struct Params
    {
        unsigned banks = 16;
        unsigned tCL = 12;
        unsigned tRP = 12;
        unsigned tRC = 40;
        unsigned tRAS = 28;
        unsigned tCCD = 2;
        unsigned tRCD = 12;
        unsigned tRRD = 6;
        unsigned tRFC = 83;
        unsigned burstCycles = 2;
        unsigned tCCDLong = 2;
        unsigned tRRDLong = 6;
        unsigned bankGroups = 4;
        unsigned pseudoChannels = 1;
        bool bankGroupAware = false;
    };

    /** What to do on a violation. */
    enum class Mode
    {
        Panic,   ///< panic() with the rule and command (test-mode trip).
        Collect, ///< Record into violations() and keep going.
    };

    explicit DramProtocolChecker(const Params &params,
                                 Mode on_violation = Mode::Panic);

    // Online hooks — called by DramPartition at command-issue points.
    void onActivate(unsigned bank, std::uint64_t row, Cycle now);
    void onRead(unsigned bank, std::uint64_t row, Cycle now,
                Cycle burst_start, unsigned burst_cycles);
    void onPrecharge(unsigned bank, std::uint64_t row, Cycle now);
    void onRefresh(Cycle now);

    /**
     * Offline replay of recorded Dram* trace events (other kinds are
     * ignored). Read bursts use Params::burstCycles for occupancy.
     */
    void replay(std::span<const TraceEvent> events);

    /** Commands checked so far. */
    std::uint64_t commandsChecked() const { return checked; }

    /** Violations found (Collect mode; Panic mode never returns one). */
    const std::vector<DramProtocolViolation> &violations() const
    {
        return found;
    }

    /** True when no command has violated a constraint. */
    bool clean() const { return found.empty(); }

    /** Return to the freshly-constructed state (same params/mode). */
    void reset();

    /** Serialize the full tracking state, verdicts included. */
    void saveState(common::ArenaWriter &w) const;

    /** Restore state saved by saveState(); params must match. */
    void restoreState(common::ArenaReader &r);

  private:
    struct BankState
    {
        std::int64_t openRow = -1;
        Cycle lastActivate = kInvalidCycle; ///< kInvalidCycle = never.
        Cycle lastRead = kInvalidCycle;
        Cycle lastPrecharge = kInvalidCycle;
        Cycle burstEnd = 0; ///< End of the bank's last read burst.
    };

    void report(const char *rule, Cycle now, const std::string &detail);

    /** now >= past + window, treating "never" as satisfied. */
    static bool elapsed(Cycle now, Cycle past, unsigned window)
    {
        return past == kInvalidCycle || now >= past + window;
    }

    unsigned groupOf(unsigned bank) const { return bank % p.bankGroups; }
    unsigned pcOf(unsigned bank) const
    {
        return bank / (p.banks / p.pseudoChannels);
    }

    Params p;
    Mode mode;
    std::vector<BankState> banks;
    Cycle lastActivateAny = kInvalidCycle;
    Cycle lastRefresh = kInvalidCycle;
    std::vector<Cycle> busBusyUntil;      ///< Data-bus horizon per PC.
    std::vector<Cycle> lastActivateGroup; ///< Per bank group (aware).
    std::vector<Cycle> lastReadGroup;     ///< Per bank group (aware).
    std::vector<Cycle> lastReadAnyPc;     ///< Per pseudo-channel (aware).
    std::uint64_t checked = 0;
    std::vector<DramProtocolViolation> found;
};

} // namespace rcoal::trace

#endif // RCOAL_TRACE_DRAM_CHECKER_HPP
