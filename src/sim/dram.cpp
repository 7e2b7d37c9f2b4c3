/**
 * @file
 * DramPartition implementation.
 */

#include "rcoal/sim/dram.hpp"

#include <algorithm>

#include "rcoal/common/logging.hpp"
#include "rcoal/trace/dram_checker.hpp"
#include "rcoal/trace/sink.hpp"

namespace rcoal::sim {

DramPartition::DramPartition(const GpuConfig &config, unsigned partition_id,
                             KernelStats *kernel_stats,
                             AccessSlab &shared_slab)
    : id(partition_id),
      bt(mem::makeDramBackend(config.dramBackend)->timing(config)),
      queueDepth(config.dramQueueDepth),
      stats(kernel_stats),
      slab(shared_slab),
      queue(config.dramQueueDepth),
      banks(config.banksPerPartition),
      bankStats(config.banksPerPartition),
      refreshEnabled(config.refreshEnabled),
      nextRefreshAt(bt.base.tREFI)
{
    RCOAL_ASSERT(stats != nullptr, "DramPartition requires a stats sink");
    RCOAL_ASSERT(bt.bankGroups > 0 && bt.pseudoChannels > 0,
                 "backend must report positive bankGroups/pseudoChannels");
    RCOAL_ASSERT(config.banksPerPartition % bt.pseudoChannels == 0,
                 "banks (%u) must split evenly across pseudo-channels (%u)",
                 config.banksPerPartition, bt.pseudoChannels);
    bankGroups = InvariantDivisor(bt.bankGroups);
    banksPerPc =
        InvariantDivisor(config.banksPerPartition / bt.pseudoChannels);
    busFreeAt.assign(bt.pseudoChannels, 0);
    nextColumnGroup.assign(bt.bankGroups, 0);
    nextActivateGroup.assign(bt.bankGroups, 0);
    nextColumnAnyPc.assign(bt.pseudoChannels, 0);
    inFlight.resize(bt.pseudoChannels);
    for (SlotRing<Request> &fifo : inFlight)
        fifo.reset(queueDepth);
    // A queue's worth of completions: the machine drains them every
    // core cycle, so only a caller that stops popping grows the ring.
    completed.reset(queueDepth);
}

bool
DramPartition::refreshDue(Cycle now) const
{
    return refreshEnabled && now >= nextRefreshAt;
}

bool
DramPartition::maybeRefresh(Cycle now)
{
    if (!refreshDue(now))
        return false;
    // A due refresh waits until the partition is quiescent: every data
    // bus drained and every open bank past tRAS (closing a row earlier
    // would violate it). The wait is bounded because a due refresh also
    // blocks new ACT and column commands.
    for (Cycle busy : busFreeAt) {
        if (now < busy)
            return false;
    }
    for (const Bank &bank : banks) {
        if (bank.openRow != -1 && now < bank.prechargeAllowed)
            return false;
    }
    if (checker != nullptr)
        checker->onRefresh(now);
    RCOAL_TRACE(traceSink, DramRefresh, now, bt.base.tRFC, 0, 0);
    // All-bank refresh: precharge everything and lock the banks for
    // tRFC memory cycles.
    for (Bank &bank : banks) {
        bank.openRow = -1;
        raiseTo(bank.nextActivate, now + bt.base.tRFC);
        raiseTo(bank.nextRead, now + bt.base.tRFC);
    }
    nextRefreshAt += bt.base.tREFI;
    ++stats->dramRefreshes;
    ++refreshCount;
    return true;
}

void
DramPartition::enqueueSlot(std::uint32_t slot, const DramLocation &loc)
{
    RCOAL_ASSERT(canAccept(), "enqueue on full DRAM queue (partition %u)",
                 id);
    RCOAL_ASSERT(loc.partition == id,
                 "access for partition %u routed to partition %u",
                 loc.partition, id);
    Request req;
    req.slot = slot;
    req.loc = loc;
    queue.push_back(req);
}

#if RCOAL_TRACE_ENABLED
namespace {

/**
 * Span bookkeeping: the DramService stage begins at the FIRST command
 * the controller issues on the access's behalf (precharge, activate,
 * or column) — queue wait ahead of that is cross-request contention,
 * not device service.
 */
void
markServiceStart(AccessSlab &slab, std::uint32_t slot, Cycle now)
{
    MemoryAccess &access = slab.at(slot);
    if (access.spanDramStart == kInvalidCycle)
        access.spanDramStart = now;
}

} // namespace
#endif

void
DramPartition::issueColumnAt(Request &req, Cycle now)
{
#if RCOAL_TRACE_ENABLED
    markServiceStart(slab, req.slot, now);
#endif
    Bank &bank = banks[req.loc.bank];
    const unsigned group = groupOf(req.loc.bank);
    const unsigned pc = pcOf(req.loc.bank);
    // Reserve the pseudo-channel's data bus: the burst begins after
    // CAS latency, or when the bus frees up, whichever is later.
    const Cycle burst_start = std::max(now + bt.base.tCL, busFreeAt[pc]);
    busFreeAt[pc] = burst_start + bt.burstCycles;
    req.completion = burst_start + bt.burstCycles;
    earliestCompletion = std::min(earliestCompletion, req.completion);
    // Completions on a channel strictly increase (the burst starts no
    // earlier than the bus frees), which keeps each FIFO sorted.
    inFlight[pc].push_back(req);
    ++inFlightCount;
    if (checker != nullptr) {
        checker->onRead(req.loc.bank, req.loc.row, now, burst_start,
                        bt.burstCycles);
    }
    RCOAL_TRACE(traceSink, DramRead, now, req.loc.bank, req.loc.row,
                burst_start);
    raiseTo(bank.nextRead, now + bt.base.tCCD);
    // Read-to-precharge: the row must stay open (and refresh must hold
    // off) until the data burst has drained.
    raiseTo(bank.prechargeAllowed, burst_start + bt.burstCycles);
    if (bt.bankGroupAware) {
        raiseTo(nextColumnGroup[group], now + bt.tCCDLong);
        raiseTo(nextColumnAnyPc[pc], now + bt.base.tCCD);
    }
    if (req.neededActivate) {
        ++stats->dramRowMisses;
        ++bankStats[req.loc.bank].rowMisses;
    } else {
        ++stats->dramRowHits;
        ++bankStats[req.loc.bank].rowHits;
    }
}

void
DramPartition::issueActivateAt(Request &req, Cycle now)
{
#if RCOAL_TRACE_ENABLED
    markServiceStart(slab, req.slot, now);
#endif
    Bank &bank = banks[req.loc.bank];
    const unsigned group = groupOf(req.loc.bank);
    if (checker != nullptr)
        checker->onActivate(req.loc.bank, req.loc.row, now);
    RCOAL_TRACE(traceSink, DramActivate, now, req.loc.bank, req.loc.row,
                0);
    bank.openRow = static_cast<std::int64_t>(req.loc.row);
    raiseTo(bank.nextRead, now + bt.base.tRCD);
    raiseTo(bank.prechargeAllowed, now + bt.base.tRAS);
    raiseTo(bank.nextActivate, now + bt.base.tRC);
    raiseTo(nextActivateAny, now + bt.base.tRRD);
    if (bt.bankGroupAware)
        raiseTo(nextActivateGroup[group], now + bt.tRRDLong);
    ++stats->dramActivates;
    ++bankStats[req.loc.bank].activates;
    // Row-hit accounting: only the request this ACT was issued for
    // counts as a miss; younger same-row requests will read from
    // the now-open row and count as hits.
    req.neededActivate = true;
}

void
DramPartition::issuePrechargeAt(Request &req, Cycle now)
{
#if RCOAL_TRACE_ENABLED
    markServiceStart(slab, req.slot, now);
#endif
    Bank &bank = banks[req.loc.bank];
    if (checker != nullptr) {
        checker->onPrecharge(req.loc.bank,
                             static_cast<std::uint64_t>(bank.openRow),
                             now);
    }
    RCOAL_TRACE(traceSink, DramPrecharge, now, req.loc.bank,
                bank.openRow, 0);
    bank.openRow = -1;
    raiseTo(bank.nextActivate, now + bt.base.tRP);
    ++stats->dramPrecharges;
    ++bankStats[req.loc.bank].precharges;
}

bool
DramPartition::issueCommands(Cycle now)
{
    // FR-FCFS, one command of each class per cycle, issued column, then
    // ACT, then precharge, each class's winner the oldest request that
    // passes its checks against the state the earlier issues left:
    //   - column: the bank's open row is the request's, and the bank
    //     and bank-group/pseudo-channel column windows have passed;
    //   - ACT: the bank is precharged and the bank, tRRD and group ACT
    //     windows have passed;
    //   - precharge: the bank's open row conflicts, tRAS and the read
    //     burst have drained, and no queued request wants the open row.
    // A due refresh blocks column and ACT. One walk in age order picks
    // the column and ACT winners of those three scans — proofs that the
    // fusion is exact:
    //   - The ACT winner is independent of the column issue: a column
    //     issue changes no field the ACT scan reads (openRow,
    //     nextActivate, the ACT windows), and the column winner itself
    //     can never be an ACT candidate (its bank has an open row).
    //   - No unserviced request older than a class's winner can target
    //     the winner's bank: it would pass the identical per-bank
    //     timing checks and have won instead.
    // The precharge step still needs the post-issue view (mask and
    // timing), reconstructed below without re-walking for it twice.
    const bool blocked = refreshDue(now); // Holds column + ACT, not PRE.
    const bool act_window_open = now >= nextActivateAny;
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t col_idx = npos;
    std::size_t act_idx = npos;
    std::size_t pre_first = npos; // First pre-issue precharge potential.
    unsigned col_bank = 0;
    unsigned act_bank = 0;
    unsigned col_bank_peers = 0; // Younger requests sharing the column
                                 // winner's (bank, open row).
    std::uint64_t open_row_wanted = 0; // Pre-issue, bit per bank.

    const std::size_t n = queue.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Request &req = queue[i];
        const Bank &bank = banks[req.loc.bank];
        if (bank.openRow == static_cast<std::int64_t>(req.loc.row)) {
            open_row_wanted |= std::uint64_t{1} << req.loc.bank;
            if (col_idx != npos) {
                col_bank_peers +=
                    static_cast<unsigned>(req.loc.bank == col_bank);
            } else if (!blocked && now >= bank.nextRead &&
                       now >= nextColumnGroup[groupOf(req.loc.bank)] &&
                       now >= nextColumnAnyPc[pcOf(req.loc.bank)]) {
                col_idx = i;
                col_bank = req.loc.bank;
            }
        } else if (bank.openRow == -1) {
            if (act_idx == npos && !blocked && act_window_open &&
                now >= bank.nextActivate &&
                now >= nextActivateGroup[groupOf(req.loc.bank)]) {
                act_idx = i;
                act_bank = req.loc.bank;
            }
        } else if (pre_first == npos && now >= bank.prechargeAllowed) {
            // Conflicting open row, timing already met pre-issue.
            pre_first = i;
        }
    }

    if (col_idx != npos)
        issueColumnAt(queue[col_idx], now);
    if (act_idx != npos)
        issueActivateAt(queue[act_idx], now);
    bool issued = col_idx != npos || act_idx != npos;

    if (pre_first != npos) {
        // Post-issue wanted mask, patched instead of re-walked: the
        // column winner left its bank's bit iff a younger request still
        // wants the row; the ACT'd bank's bit is always set (the ACT
        // winner itself now matches the row it just opened).
        std::uint64_t wanted = open_row_wanted;
        if (col_idx != npos && col_bank_peers == 0)
            wanted &= ~(std::uint64_t{1} << col_bank);
        if (act_idx != npos)
            wanted |= std::uint64_t{1} << act_bank;
        // No entry before pre_first can become a candidate post-issue:
        // the only bank whose row state changed is the ACT'd one, and
        // its fresh tRAS window blocks precharge this cycle (as does
        // the column winner's read-to-precharge raise, both checked
        // against live state below). The column winner is still in
        // the queue here and skips itself: its row is open.
        for (std::size_t i = pre_first; i < n; ++i) {
            Request &req = queue[i];
            const Bank &bank = banks[req.loc.bank];
            if (bank.openRow == -1 ||
                bank.openRow == static_cast<std::int64_t>(req.loc.row)) {
                continue;
            }
            if (now < bank.prechargeAllowed)
                continue;
            if (wanted & (std::uint64_t{1} << req.loc.bank))
                continue;
            issuePrechargeAt(req, now);
            issued = true;
            break;
        }
    }
    // The winner leaves the queue last, so the indices above held.
    if (col_idx != npos)
        queue.removeAt(col_idx);
    return issued;
}

bool
DramPartition::tick(Cycle now)
{
    // Retire bursts that finished. earliestCompletion is exact (the
    // min in-flight completion), so the gate both skips retirement on
    // no-retire ticks and guarantees at least one when taken.
    const bool retired = earliestCompletion <= now;
    if (retired)
        retireBursts(now);

    // One command of each class per cycle approximates the command bus.
    // A refresh that just fired closed every bank and pushed all their
    // deadlines past now, so no command can legally issue this cycle.
    if (maybeRefresh(now))
        return true;
    return issueCommands(now) || retired;
}

void
DramPartition::retireBursts(Cycle now)
{
    Cycle next_retire = kInvalidCycle;
    for (SlotRing<Request> &fifo : inFlight) {
        while (!fifo.empty() && fifo.front().completion <= now) {
            completed.pushBackGrowing(fifo.front().slot);
            fifo.pop_front();
            --inFlightCount;
        }
        if (!fifo.empty())
            next_retire = std::min(next_retire, fifo.front().completion);
    }
    earliestCompletion = next_retire;
}

Cycle
DramPartition::workBound(Cycle now) const
{
    Cycle bound = kInvalidCycle;
    const auto consider = [&](Cycle candidate) {
        bound = std::min(bound, std::max(candidate, now + 1));
    };

    if (refreshEnabled) {
        if (refreshDue(now)) {
            // A pending refresh fires once every data bus drains and
            // every open bank clears tRAS; both horizons are frozen
            // until then because a due refresh also blocks column/ACT
            // issue.
            Cycle fire = 0;
            for (Cycle busy : busFreeAt)
                fire = std::max(fire, busy);
            for (const Bank &bank : banks) {
                if (bank.openRow != -1)
                    fire = std::max(fire, bank.prechargeAllowed);
            }
            consider(fire);
        } else {
            // Becoming due is itself a state change: it starts blocking
            // column/ACT issue and may fire the refresh.
            consider(nextRefreshAt);
        }
    }

    // Burst retirement: the FIFO heads hold the earliest completions.
    consider(earliestCompletion);

    const bool commands_blocked = refreshDue(now);
    std::uint64_t open_row_wanted = 0; // Same mask issueCommands uses.
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Request &req = queue[i];
        const Bank &bank = banks[req.loc.bank];
        if (bank.openRow == static_cast<std::int64_t>(req.loc.row))
            open_row_wanted |= std::uint64_t{1} << req.loc.bank;
    }
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Request &req = queue[i];
        const Bank &bank = banks[req.loc.bank];
        const unsigned group = groupOf(req.loc.bank);
        if (bank.openRow == static_cast<std::int64_t>(req.loc.row)) {
            if (!commands_blocked) {
                consider(std::max({bank.nextRead, nextColumnGroup[group],
                                   nextColumnAnyPc[pcOf(req.loc.bank)]}));
            }
        } else if (bank.openRow == -1) {
            if (!commands_blocked) {
                consider(std::max({bank.nextActivate, nextActivateAny,
                                   nextActivateGroup[group]}));
            }
        } else if (!(open_row_wanted &
                     (std::uint64_t{1} << req.loc.bank))) {
            // Conflicting open row nobody still wants: a precharge (not
            // blocked by a due refresh) is this request's next step.
            // When the row IS still wanted, the wanting requests' column
            // candidates above bound the state change instead.
            consider(bank.prechargeAllowed);
        }
    }
    return bound;
}

std::uint32_t
DramPartition::popCompletedSlot()
{
    RCOAL_ASSERT(hasCompleted(),
                 "popCompletedSlot with nothing completed (partition %u)",
                 id);
    const std::uint32_t slot = completed.front();
    completed.pop_front();
    return slot;
}

void
DramPartition::reset()
{
    RCOAL_ASSERT(idle(), "DRAM reset with requests in flight");
    banks.assign(banks.size(), Bank{});
    for (BankCounters &c : bankStats)
        c = BankCounters{};
    refreshCount = 0;
    busFreeAt.assign(bt.pseudoChannels, 0);
    nextActivateAny = 0;
    nextColumnGroup.assign(bt.bankGroups, 0);
    nextActivateGroup.assign(bt.bankGroups, 0);
    nextColumnAnyPc.assign(bt.pseudoChannels, 0);
    nextRefreshAt = bt.base.tREFI;
    earliestCompletion = kInvalidCycle;
}

void
DramPartition::saveState(common::ArenaWriter &w) const
{
    RCOAL_ASSERT(idle(), "DRAM snapshot with requests in flight");
    w.pod(static_cast<std::uint64_t>(banks.size()));
    for (const Bank &bank : banks) {
        w.pod(bank.openRow);
        w.pod(bank.nextRead);
        w.pod(bank.nextActivate);
        w.pod(bank.prechargeAllowed);
    }
    for (const BankCounters &c : bankStats) {
        w.pod(c.rowHits);
        w.pod(c.rowMisses);
        w.pod(c.activates);
        w.pod(c.precharges);
    }
    w.pod(refreshCount);
    w.podVector(busFreeAt);
    w.pod(nextActivateAny);
    w.podVector(nextColumnGroup);
    w.podVector(nextActivateGroup);
    w.podVector(nextColumnAnyPc);
    w.pod(nextRefreshAt);
}

void
DramPartition::restoreState(common::ArenaReader &r)
{
    RCOAL_ASSERT(idle(), "DRAM restore with requests in flight");
    const auto count = r.take<std::uint64_t>();
    RCOAL_ASSERT(count == banks.size(),
                 "DRAM bank-count mismatch: snapshot has %llu, "
                 "partition has %zu",
                 static_cast<unsigned long long>(count), banks.size());
    for (Bank &bank : banks) {
        r.pod(bank.openRow);
        r.pod(bank.nextRead);
        r.pod(bank.nextActivate);
        r.pod(bank.prechargeAllowed);
    }
    for (BankCounters &c : bankStats) {
        r.pod(c.rowHits);
        r.pod(c.rowMisses);
        r.pod(c.activates);
        r.pod(c.precharges);
    }
    r.pod(refreshCount);
    r.podVector(busFreeAt);
    r.pod(nextActivateAny);
    r.podVector(nextColumnGroup);
    r.podVector(nextActivateGroup);
    r.podVector(nextColumnAnyPc);
    r.pod(nextRefreshAt);
    earliestCompletion = kInvalidCycle; // Idle: nothing serviced.
    RCOAL_ASSERT(busFreeAt.size() == bt.pseudoChannels &&
                     nextColumnGroup.size() == bt.bankGroups,
                 "DRAM backend structure mismatch on restore");
}

} // namespace rcoal::sim
