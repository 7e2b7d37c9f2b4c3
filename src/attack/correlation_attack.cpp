/**
 * @file
 * CorrelationAttack implementation.
 */

#include "rcoal/attack/correlation_attack.hpp"

#include <algorithm>
#include <bit>

#include "rcoal/aes/sbox.hpp"
#include "rcoal/common/logging.hpp"
#include "rcoal/common/stats.hpp"

namespace rcoal::attack {

CorrelationAttack::CorrelationAttack(AttackConfig attack_config)
    : cfg(std::move(attack_config)),
      partitioner(cfg.assumedPolicy, cfg.warpSize)
{
    RCOAL_ASSERT(cfg.elementsPerBlock > 0 &&
                     256 % cfg.elementsPerBlock == 0,
                 "elementsPerBlock must divide 256");
    RCOAL_ASSERT(cfg.drawsPerEstimate >= 1,
                 "need at least one draw per estimate");
    RCOAL_ASSERT(256 / cfg.elementsPerBlock <= 64,
                 "more than 64 memory blocks per table is unsupported");
    // The partitioner above rejects warps wider than kMaxThreads, so
    // every partition estimateLastRoundAccesses() sees has at most
    // kMaxThreads subwarps: its per-subwarp mask array cannot overflow.
    if (!cfg.assumedPolicy.isRandomized()) {
        // Deterministic models (baseline, plain FSS) always produce the
        // same partition; draw it once.
        Rng rng(cfg.seed);
        fixedPartition = partitioner.draw(rng);
    }
}

double
CorrelationAttack::estimateLastRoundAccesses(
    std::span<const aes::Block> ciphertext_lines, unsigned j,
    std::uint8_t guess, Rng &rng) const
{
    RCOAL_ASSERT(j < 16, "key byte index %u out of range", j);
    const std::size_t lines = ciphertext_lines.size();
    const auto &inv_sbox = aes::invSbox();
    const auto shift =
        static_cast<unsigned>(std::countr_zero(cfg.elementsPerBlock));

    // Coalesced accesses of one warp under @p partition: the number of
    // distinct (subwarp, memory block) pairs its lanes touch, counted
    // as the lanes set one bit per block in their subwarp's mask. A
    // line's block is its T4 lookup index (Eq. 3) >> shift, since
    // elementsPerBlock consecutive elements share one; 256 /
    // elementsPerBlock <= 64 blocks fit a 64-bit mask.
    const auto warp_accesses = [&](const core::SubwarpPartition &partition,
                                   std::span<const aes::Block> warp) {
        const std::span<const SubwarpId> sid = partition.sidOfThread();
        std::array<std::uint64_t, core::SubwarpPartition::kMaxThreads>
            mask{};
        std::uint64_t accesses = 0;
        for (std::size_t t = 0; t < warp.size(); ++t) {
            const std::uint64_t block = std::uint64_t{1}
                                        << (inv_sbox[warp[t][j] ^ guess] >>
                                            shift);
            accesses += (mask[sid[t]] & block) == 0;
            mask[sid[t]] |= block;
        }
        return accesses;
    };

    std::uint64_t accesses = 0;
    for (unsigned draw = 0; draw < cfg.drawsPerEstimate; ++draw) {
        for (std::size_t first = 0; first < lines; first += cfg.warpSize) {
            const auto warp = ciphertext_lines.subspan(
                first, std::min<std::size_t>(cfg.warpSize, lines - first));
            accesses += fixedPartition
                            ? warp_accesses(*fixedPartition, warp)
                            : warp_accesses(partitioner.draw(rng), warp);
        }
    }
    // Integer counts sum exactly, so this equals the mean of the
    // per-draw estimates.
    return static_cast<double>(accesses) / cfg.drawsPerEstimate;
}

double
CorrelationAttack::guessCorrelation(
    std::span<const EncryptionObservation> observations,
    std::span<const double> measured, unsigned j, unsigned m) const
{
    // Counter-based attacker RNG per (byte, guess) task: per the
    // paper's attack the per-plaintext randomization is simulated
    // independently of the guess, and the stream derivation makes the
    // task independent of scheduling, so serial and pooled recovery
    // produce identical correlation tables.
    Rng rng = Rng::stream(cfg.seed, j * 256ull + m);
    // One buffer per worker thread, refilled by every task it runs.
    thread_local std::vector<double> estimated;
    estimated.clear();
    for (const auto &obs : observations) {
        estimated.push_back(estimateLastRoundAccesses(
            obs.ciphertext, j, static_cast<std::uint8_t>(m), rng));
    }
    return pearsonCorrelation(estimated, measured);
}

void
CorrelationAttack::evaluateByte(ByteAttackResult &byte_result,
                                std::uint8_t truth)
{
    byte_result.correctGuessCorrelation = byte_result.correlation[truth];
    unsigned rank = 0;
    for (unsigned m = 0; m < 256; ++m) {
        if (m != truth &&
            byte_result.correlation[m] > byte_result.correlation[truth])
            ++rank;
    }
    byte_result.rankOfCorrect =
        static_cast<std::uint8_t>(std::min(rank, 255u));
}

ByteAttackResult
CorrelationAttack::attackByte(
    std::span<const EncryptionObservation> observations, unsigned j,
    ThreadPool *pool) const
{
    RCOAL_ASSERT(!observations.empty(), "no observations to attack");
    const std::vector<double> measured =
        measurementSeries(observations, cfg.measurement);

    ByteAttackResult result;
    const auto guess_task = [&](std::size_t m) {
        result.correlation[m] = guessCorrelation(
            observations, measured, j, static_cast<unsigned>(m));
    };
    if (pool != nullptr) {
        pool->parallelFor(256, guess_task);
    } else {
        for (std::size_t m = 0; m < 256; ++m)
            guess_task(m);
    }

    const auto best = std::max_element(result.correlation.begin(),
                                       result.correlation.end());
    result.bestGuess = static_cast<std::uint8_t>(
        best - result.correlation.begin());
    result.bestCorrelation = *best;
    return result;
}

KeyAttackResult
CorrelationAttack::attackKey(
    std::span<const EncryptionObservation> observations,
    const aes::Block &true_last_round_key, ThreadPool *pool) const
{
    RCOAL_ASSERT(!observations.empty(), "no observations to attack");
    const std::vector<double> measured =
        measurementSeries(observations, cfg.measurement);

    // Flatten all 16 bytes x 256 guesses into one task list so a pool
    // sees maximum width (per-byte batches would leave workers idle at
    // every byte boundary).
    KeyAttackResult result;
    const auto guess_task = [&](std::size_t idx) {
        const auto j = static_cast<unsigned>(idx / 256);
        const auto m = static_cast<unsigned>(idx % 256);
        result.bytes[j].correlation[m] =
            guessCorrelation(observations, measured, j, m);
    };
    if (pool != nullptr) {
        pool->parallelFor(16 * 256, guess_task);
    } else {
        for (std::size_t idx = 0; idx < 16 * 256; ++idx)
            guess_task(idx);
    }

    double corr_sum = 0.0;
    for (unsigned j = 0; j < 16; ++j) {
        ByteAttackResult &byte_result = result.bytes[j];
        const auto best = std::max_element(byte_result.correlation.begin(),
                                           byte_result.correlation.end());
        byte_result.bestGuess = static_cast<std::uint8_t>(
            best - byte_result.correlation.begin());
        byte_result.bestCorrelation = *best;
        evaluateByte(byte_result, true_last_round_key[j]);
        result.recoveredLastRoundKey[j] = byte_result.bestGuess;
        if (byte_result.bestGuess == true_last_round_key[j])
            ++result.bytesRecovered;
        corr_sum += byte_result.correctGuessCorrelation;
    }
    result.avgCorrectCorrelation = corr_sum / 16.0;
    return result;
}

double
averageCorrectCorrelation(const KeyAttackResult &result)
{
    return result.avgCorrectCorrelation;
}

double
estimatedSamplesToRecover(const KeyAttackResult &result, double alpha)
{
    return samplesForSuccessfulAttack(result.avgCorrectCorrelation,
                                      alpha);
}

} // namespace rcoal::attack
