#include "rcoal/trace/dram_checker.hpp"

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"

namespace rcoal::trace {

DramProtocolChecker::DramProtocolChecker(const Params &params,
                                         Mode on_violation)
    : p(params), mode(on_violation), banks(params.banks),
      busBusyUntil(params.pseudoChannels, 0),
      lastActivateGroup(params.bankGroups, kInvalidCycle),
      lastReadGroup(params.bankGroups, kInvalidCycle),
      lastReadAnyPc(params.pseudoChannels, kInvalidCycle)
{
    RCOAL_ASSERT(p.banks > 0, "checker needs at least one bank");
    RCOAL_ASSERT(p.burstCycles > 0, "checker needs a non-zero burst");
    RCOAL_ASSERT(p.bankGroups > 0 && p.pseudoChannels > 0,
                 "checker needs positive bankGroups/pseudoChannels");
    RCOAL_ASSERT(p.banks % p.pseudoChannels == 0,
                 "banks (%u) must split evenly across pseudo-channels (%u)",
                 p.banks, p.pseudoChannels);
}

void
DramProtocolChecker::report(const char *rule, Cycle now,
                            const std::string &detail)
{
    if (mode == Mode::Panic) {
        panic("DRAM protocol violation [%s] at mem cycle %llu: %s", rule,
              static_cast<unsigned long long>(now), detail.c_str());
    }
    found.push_back({rule, detail, now});
}

void
DramProtocolChecker::onActivate(unsigned bank, std::uint64_t row, Cycle now)
{
    ++checked;
    RCOAL_ASSERT(bank < banks.size(), "ACT to bank %u of %zu", bank,
                 banks.size());
    BankState &b = banks[bank];

    if (b.openRow >= 0) {
        report("act-open-row", now,
               strprintf("ACT bank %u row %llu while row %lld is open", bank,
                         static_cast<unsigned long long>(row),
                         static_cast<long long>(b.openRow)));
    }
    if (!elapsed(now, b.lastActivate, p.tRC)) {
        report("tRC", now,
               strprintf("ACT bank %u only %llu cycles after previous ACT "
                         "(tRC=%u)",
                         bank,
                         static_cast<unsigned long long>(now - b.lastActivate),
                         p.tRC));
    }
    if (!elapsed(now, b.lastPrecharge, p.tRP)) {
        report("tRP", now,
               strprintf("ACT bank %u only %llu cycles after PRE (tRP=%u)",
                         bank,
                         static_cast<unsigned long long>(now -
                                                         b.lastPrecharge),
                         p.tRP));
    }
    if (!elapsed(now, lastActivateAny, p.tRRD)) {
        report("tRRD", now,
               strprintf("ACT bank %u only %llu cycles after ACT to another "
                         "bank (tRRD=%u)",
                         bank,
                         static_cast<unsigned long long>(now -
                                                         lastActivateAny),
                         p.tRRD));
    }
    if (p.bankGroupAware &&
        !elapsed(now, lastActivateGroup[groupOf(bank)], p.tRRDLong)) {
        report("tRRD_L", now,
               strprintf("ACT bank %u only %llu cycles after ACT in the "
                         "same bank group (tRRD_L=%u)",
                         bank,
                         static_cast<unsigned long long>(
                             now - lastActivateGroup[groupOf(bank)]),
                         p.tRRDLong));
    }
    if (!elapsed(now, lastRefresh, p.tRFC)) {
        report("tRFC", now,
               strprintf("ACT bank %u inside refresh window (tRFC=%u)", bank,
                         p.tRFC));
    }

    b.openRow = static_cast<std::int64_t>(row);
    b.lastActivate = now;
    lastActivateAny = now;
    lastActivateGroup[groupOf(bank)] = now;
}

void
DramProtocolChecker::onRead(unsigned bank, std::uint64_t row, Cycle now,
                            Cycle burst_start, unsigned burst_cycles)
{
    ++checked;
    RCOAL_ASSERT(bank < banks.size(), "RD to bank %u of %zu", bank,
                 banks.size());
    BankState &b = banks[bank];

    if (b.openRow < 0) {
        report("rd-closed-bank", now,
               strprintf("RD bank %u row %llu with no open row", bank,
                         static_cast<unsigned long long>(row)));
    } else if (b.openRow != static_cast<std::int64_t>(row)) {
        report("rd-row-mismatch", now,
               strprintf("RD bank %u row %llu but row %lld is open", bank,
                         static_cast<unsigned long long>(row),
                         static_cast<long long>(b.openRow)));
    }
    if (!elapsed(now, b.lastActivate, p.tRCD)) {
        report("tRCD", now,
               strprintf("RD bank %u only %llu cycles after ACT (tRCD=%u)",
                         bank,
                         static_cast<unsigned long long>(now -
                                                         b.lastActivate),
                         p.tRCD));
    }
    if (!elapsed(now, b.lastRead, p.tCCD)) {
        report("tCCD", now,
               strprintf("RD bank %u only %llu cycles after previous RD "
                         "(tCCD=%u)",
                         bank,
                         static_cast<unsigned long long>(now - b.lastRead),
                         p.tCCD));
    }
    if (p.bankGroupAware) {
        if (!elapsed(now, lastReadGroup[groupOf(bank)], p.tCCDLong)) {
            report("tCCD_L", now,
                   strprintf("RD bank %u only %llu cycles after RD in the "
                             "same bank group (tCCD_L=%u)",
                             bank,
                             static_cast<unsigned long long>(
                                 now - lastReadGroup[groupOf(bank)]),
                             p.tCCDLong));
        }
        if (!elapsed(now, lastReadAnyPc[pcOf(bank)], p.tCCD)) {
            report("tCCD_S", now,
                   strprintf("RD bank %u only %llu cycles after any RD in "
                             "its pseudo-channel (tCCD_S=%u)",
                             bank,
                             static_cast<unsigned long long>(
                                 now - lastReadAnyPc[pcOf(bank)]),
                             p.tCCD));
        }
    }
    if (burst_start < now + p.tCL) {
        report("tCL", now,
               strprintf("RD bank %u burst at %llu, before CAS latency "
                         "elapses at %llu",
                         bank, static_cast<unsigned long long>(burst_start),
                         static_cast<unsigned long long>(now + p.tCL)));
    }
    if (burst_start < busBusyUntil[pcOf(bank)]) {
        report("bus-overlap", now,
               strprintf("RD bank %u burst at %llu overlaps data bus busy "
                         "until %llu",
                         bank, static_cast<unsigned long long>(burst_start),
                         static_cast<unsigned long long>(
                             busBusyUntil[pcOf(bank)])));
    }
    if (!elapsed(now, lastRefresh, p.tRFC)) {
        report("tRFC", now,
               strprintf("RD bank %u inside refresh window (tRFC=%u)", bank,
                         p.tRFC));
    }

    b.lastRead = now;
    b.burstEnd = std::max(b.burstEnd, burst_start + burst_cycles);
    busBusyUntil[pcOf(bank)] =
        std::max(busBusyUntil[pcOf(bank)], burst_start + burst_cycles);
    lastReadGroup[groupOf(bank)] = now;
    lastReadAnyPc[pcOf(bank)] = now;
}

void
DramProtocolChecker::onPrecharge(unsigned bank, std::uint64_t row, Cycle now)
{
    (void)row; // Informational; the open-row check is what matters.
    ++checked;
    RCOAL_ASSERT(bank < banks.size(), "PRE to bank %u of %zu", bank,
                 banks.size());
    BankState &b = banks[bank];

    if (b.openRow < 0) {
        report("pre-closed-bank", now,
               strprintf("PRE bank %u with no open row", bank));
    }
    if (!elapsed(now, b.lastActivate, p.tRAS)) {
        report("tRAS", now,
               strprintf("PRE bank %u only %llu cycles after ACT (tRAS=%u)",
                         bank,
                         static_cast<unsigned long long>(now -
                                                         b.lastActivate),
                         p.tRAS));
    }
    if (now < b.burstEnd) {
        report("rd-to-pre", now,
               strprintf("PRE bank %u while its read burst runs until %llu",
                         bank,
                         static_cast<unsigned long long>(b.burstEnd)));
    }

    b.openRow = -1;
    b.lastPrecharge = now;
}

void
DramProtocolChecker::onRefresh(Cycle now)
{
    ++checked;

    for (Cycle busy : busBusyUntil) {
        if (now < busy) {
            report("ref-bus-busy", now,
                   strprintf("REF while data bus busy until %llu",
                             static_cast<unsigned long long>(busy)));
        }
    }
    if (!elapsed(now, lastRefresh, p.tRFC)) {
        report("tRFC", now, "REF inside the previous refresh window");
    }
    for (unsigned i = 0; i < banks.size(); ++i) {
        BankState &b = banks[i];
        if (b.openRow >= 0 && !elapsed(now, b.lastActivate, p.tRAS)) {
            report("ref-tRAS", now,
                   strprintf("REF closes bank %u only %llu cycles after ACT "
                             "(tRAS=%u)",
                             i,
                             static_cast<unsigned long long>(
                                 now - b.lastActivate),
                             p.tRAS));
        }
        if (now < b.burstEnd) {
            report("ref-burst", now,
                   strprintf("REF while bank %u read burst runs until %llu",
                             i,
                             static_cast<unsigned long long>(b.burstEnd)));
        }
        // Refresh closes every row; treat it as a precharge for tRP via
        // lastPrecharge so a post-refresh ACT still honours tRP.
        if (b.openRow >= 0) {
            b.openRow = -1;
            b.lastPrecharge = now;
        }
    }
    lastRefresh = now;
}

void
DramProtocolChecker::replay(std::span<const TraceEvent> events)
{
    for (const TraceEvent &e : events) {
        switch (e.kind) {
          case EventKind::DramActivate:
            onActivate(static_cast<unsigned>(e.a), e.b, e.cycle);
            break;
          case EventKind::DramPrecharge:
            onPrecharge(static_cast<unsigned>(e.a), e.b, e.cycle);
            break;
          case EventKind::DramRead:
            onRead(static_cast<unsigned>(e.a), e.b, e.cycle, e.c,
                   p.burstCycles);
            break;
          case EventKind::DramRefresh:
            onRefresh(e.cycle);
            break;
          default:
            break; // Non-DRAM events interleave freely; skip them.
        }
    }
}

void
DramProtocolChecker::reset()
{
    banks.assign(p.banks, BankState{});
    lastActivateAny = kInvalidCycle;
    lastRefresh = kInvalidCycle;
    busBusyUntil.assign(p.pseudoChannels, 0);
    lastActivateGroup.assign(p.bankGroups, kInvalidCycle);
    lastReadGroup.assign(p.bankGroups, kInvalidCycle);
    lastReadAnyPc.assign(p.pseudoChannels, kInvalidCycle);
    checked = 0;
    found.clear();
}

template <typename Arena>
void
DramProtocolChecker::transferState(Arena &a)
{
    a.expect(static_cast<std::uint64_t>(banks.size()), "checker bank count");
    for (BankState &bank : banks) {
        a.pod(bank.openRow);
        a.pod(bank.lastActivate);
        a.pod(bank.lastRead);
        a.pod(bank.lastPrecharge);
        a.pod(bank.burstEnd);
    }
    a.pod(lastActivateAny);
    a.pod(lastRefresh);
    a.podVector(busBusyUntil);
    a.podVector(lastActivateGroup);
    a.podVector(lastReadGroup);
    a.podVector(lastReadAnyPc);
    a.pod(checked);
    std::uint64_t violations = found.size();
    a.pod(violations);
    found.resize(static_cast<std::size_t>(violations));
    for (DramProtocolViolation &v : found) {
        a.string(v.rule);
        a.string(v.detail);
        a.pod(v.cycle);
    }
}

template void DramProtocolChecker::transferState(common::ArenaWriter &);
template void DramProtocolChecker::transferState(common::ArenaReader &);

} // namespace rcoal::trace
