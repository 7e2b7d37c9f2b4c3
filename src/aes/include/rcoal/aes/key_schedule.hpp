/**
 * @file
 * AES key expansion and its inverse.
 *
 * The baseline timing attack recovers the *last round key*; the key
 * expansion is invertible (Neve & Seifert), so the original cipher key
 * follows immediately. invertFromLastRoundKey() implements that step for
 * AES-128 and is exercised by the end-to-end attack demo.
 */

#ifndef RCOAL_AES_KEY_SCHEDULE_HPP
#define RCOAL_AES_KEY_SCHEDULE_HPP

#include <array>
#include <cstdint>
#include <span>

namespace rcoal::aes {

/** A 128-bit block or round key, as 16 bytes. */
using Block = std::array<std::uint8_t, 16>;

/** Supported AES key sizes. */
enum class KeySize
{
    Aes128,
    Aes192,
    Aes256,
};

/** Number of 32-bit words in the cipher key (Nk). */
unsigned keyWords(KeySize size);

/** Number of rounds (Nr): 10, 12 or 14. */
unsigned numRounds(KeySize size);

/** Key length in bytes. */
unsigned keyBytes(KeySize size);

/** KeySize for a raw key length of 16/24/32 bytes; fatal() otherwise. */
KeySize keySizeForLength(std::size_t bytes);

/**
 * Expanded AES key schedule.
 */
class KeySchedule
{
  public:
    /**
     * Expand a cipher key. @p key must hold keyBytes(size) bytes.
     */
    KeySchedule(std::span<const std::uint8_t> key, KeySize size);

    /** Key size this schedule was built for. */
    KeySize keySize() const { return size; }

    /** Number of rounds. */
    unsigned rounds() const { return nr; }

    /**
     * Round key for round @p round in [0, rounds()] as 16 bytes
     * (round 0 is the initial AddRoundKey whitening key).
     */
    Block roundKey(unsigned round) const;

    /** Raw schedule words w[0 .. 4*(Nr+1)-1], big-endian packed. */
    std::span<const std::uint32_t> words() const
    {
        return {w.data(), numWords};
    }

  private:
    /** Most schedule words of any key size: 4 * (14 + 1) for AES-256. */
    static constexpr unsigned kMaxWords = 60;

    KeySize size;
    unsigned nr;
    unsigned numWords;
    std::array<std::uint32_t, kMaxWords> w{};
};

/**
 * Recover the original AES-128 cipher key from the round-10 (last round)
 * key by running the key expansion backwards.
 */
Block invertFromLastRoundKey(const Block &last_round_key);

} // namespace rcoal::aes

#endif // RCOAL_AES_KEY_SCHEDULE_HPP
