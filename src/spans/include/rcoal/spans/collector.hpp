/**
 * @file
 * SpanCollector: per-request span lifecycle + stamp routing.
 *
 * One collector serves a whole deployment: the serve frontend (or the
 * fleet router) opens a span per admitted request, the scheduler
 * registers each kernel launch's warp->span ownership map under a
 * (namespace, launch slot) key, and the simulator's stamp points
 * resolve their (smId, launchSlot, warpId) coordinates back to the
 * owning span without any per-access bookkeeping of their own. The
 * namespace is the replica index in fleet runs (each replica's
 * GpuMachine assigns launch slots independently) and 0 for solo serve.
 *
 * Determinism: span ids are assigned by a plain counter in admission
 * order, live spans are kept in a std::map (ordered serialization),
 * and all stamps happen at simulation-determined cycles — so the slab
 * contents are byte-identical across cycle skipping on/off,
 * RCOAL_THREADS, and fork-vs-replay collection, and the whole
 * collector state round-trips through StateArena with the machine
 * snapshot.
 *
 * Sampling: `Config::sampleRate = N` retains spans with
 * `spanId % N == 0` (deterministic, no RNG). Every request still
 * consumes a span id, so the id sequence — and therefore the sampled
 * subset — is identical between a full run and a sampled run.
 * Unsampled spans take no slab space and return zeroed StageTotals.
 */

#ifndef RCOAL_SPANS_COLLECTOR_HPP
#define RCOAL_SPANS_COLLECTOR_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "rcoal/spans/span_slab.hpp"

namespace rcoal::spans {

class SpanCollector
{
  public:
    struct Config {
        /** SpanSlab capacity (records; overwrite-oldest past this). */
        std::size_t slabCapacity = 1u << 16;
        /** Keep spans with spanId % sampleRate == 0; 1 = keep all. */
        std::uint32_t sampleRate = 1;
    };

    SpanCollector(); ///< Default Config.
    explicit SpanCollector(Config config);

    /**
     * Assign the next span id (first id is 1; 0 means "no span").
     * Creates live accounting when the id is sampled.
     */
    std::uint32_t openRequest();

    /** True when @p span_id is retained under the sample rate. */
    bool sampled(std::uint32_t span_id) const;

    /** Drop a span opened for a request that was then rejected. */
    void abandon(std::uint32_t span_id);

    /**
     * Stamp a request-level stage ([begin, end), the stage's clock
     * domain). @p last_round_cycles adds to the stage's last-round
     * slice (used by KernelExec, whose measured last-round time is
     * known to the scheduler, not to the stamp site).
     */
    void stampRequest(std::uint32_t span_id, SpanStage stage, Cycle begin,
                      Cycle end, std::uint32_t detail = 0,
                      std::uint16_t component = 0,
                      std::uint64_t last_round_cycles = 0);

    /**
     * Announce a kernel launch: warp w of launch @p slot (in machine
     * namespace @p ns) belongs to span @p warp_spans[w] (0 = none).
     */
    void registerLaunch(std::uint32_t ns, std::uint32_t slot,
                        std::vector<std::uint32_t> warp_spans);

    /** Retire a launch's warp->span map once its requests finished. */
    void releaseLaunch(std::uint32_t ns, std::uint32_t slot);

    /**
     * Stamp a warp-attributed stage from inside the simulator. When
     * @p last_round is set the whole duration also counts toward the
     * stage's last-round slice. Silently ignored for unregistered
     * launches, out-of-range warps, spanless warps and unsampled
     * spans.
     */
    void stampWarp(std::uint32_t ns, std::uint32_t slot, WarpId warp,
                   SpanStage stage, std::uint16_t component, Cycle begin,
                   Cycle end, std::uint32_t detail, bool last_round);

    /**
     * Close a span and return its accumulated totals (zeroed when the
     * span was unsampled or unknown).
     */
    StageTotals finishRequest(std::uint32_t span_id);

    const SpanSlab &slab() const { return slabStore; }
    std::uint32_t sampleRate() const { return cfg.sampleRate; }
    std::uint64_t spansOpened() const { return opened; }
    std::uint64_t spansFinished() const { return finished; }
    std::size_t liveSpans() const { return live.size(); }

    /** Forget all spans, launches and slab contents (ids restart). */
    void clear();

    /**
     * Serialize through StateArena. Launch registrations must be
     * empty (machine quiescent) — the serve loop only snapshots
     * between batches, when every launch has been released.
     */
    template <typename Arena>
    void transferState(Arena &a);

  private:
    Config cfg;
    SpanSlab slabStore;
    std::uint32_t nextSpanId = 0; ///< Last id handed out.
    std::uint64_t opened = 0;
    std::uint64_t finished = 0;
    /** Ordered for deterministic serialization. */
    std::map<std::uint32_t, StageTotals> live;
    /** Keyed (ns << 32 | slot); never serialized (quiescent-empty). */
    std::map<std::uint64_t, std::vector<std::uint32_t>> launches;
};

} // namespace rcoal::spans

#endif // RCOAL_SPANS_COLLECTOR_HPP
