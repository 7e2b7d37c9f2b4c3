/**
 * @file
 * AES key expansion (FIPS-197 section 5.2) and AES-128 inversion.
 */

#include "rcoal/aes/key_schedule.hpp"

#include "rcoal/aes/sbox.hpp"
#include "rcoal/common/logging.hpp"

namespace rcoal::aes {

namespace {

std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

std::uint32_t
subWord(std::uint32_t w, const std::array<std::uint8_t, 256> &sb)
{
    return (static_cast<std::uint32_t>(sb[w >> 24]) << 24) |
           (static_cast<std::uint32_t>(sb[(w >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(sb[(w >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(sb[w & 0xff]);
}

/** Round constants Rcon[1..10] in the high byte. */
constexpr std::array<std::uint32_t, 11> kRcon = {
    0x00000000, // unused index 0
    0x01000000, 0x02000000, 0x04000000, 0x08000000, 0x10000000,
    0x20000000, 0x40000000, 0x80000000, 0x1b000000, 0x36000000,
};

} // namespace

unsigned
keyWords(KeySize size)
{
    switch (size) {
      case KeySize::Aes128:
        return 4;
      case KeySize::Aes192:
        return 6;
      case KeySize::Aes256:
        return 8;
    }
    panic("invalid key size");
}

unsigned
numRounds(KeySize size)
{
    return keyWords(size) + 6;
}

unsigned
keyBytes(KeySize size)
{
    return keyWords(size) * 4;
}

KeySize
keySizeForLength(std::size_t bytes)
{
    switch (bytes) {
      case 16:
        return KeySize::Aes128;
      case 24:
        return KeySize::Aes192;
      case 32:
        return KeySize::Aes256;
      default:
        fatal("unsupported AES key length: %zu bytes", bytes);
    }
}

KeySchedule::KeySchedule(std::span<const std::uint8_t> key, KeySize key_size)
    : size(key_size), nr(numRounds(key_size)), numWords(4 * (nr + 1))
{
    const unsigned nk = keyWords(size);
    RCOAL_ASSERT(key.size() == keyBytes(size),
                 "AES key must be %u bytes, got %zu", keyBytes(size),
                 key.size());

    for (unsigned i = 0; i < nk; ++i) {
        w[i] = (static_cast<std::uint32_t>(key[4 * i]) << 24) |
               (static_cast<std::uint32_t>(key[4 * i + 1]) << 16) |
               (static_cast<std::uint32_t>(key[4 * i + 2]) << 8) |
               static_cast<std::uint32_t>(key[4 * i + 3]);
    }
    // Step i mod Nk and i / Nk with counters rather than dividing.
    const auto &sb = sbox();
    unsigned pos = 0;   // i mod nk
    unsigned rcon = 1;  // i / nk while pos == 0
    for (unsigned i = nk; i < numWords; ++i) {
        std::uint32_t temp = w[i - 1];
        if (pos == 0)
            temp = subWord(rotWord(temp), sb) ^ kRcon[rcon++];
        else if (nk > 6 && pos == 4)
            temp = subWord(temp, sb);
        w[i] = w[i - nk] ^ temp;
        if (++pos == nk)
            pos = 0;
    }
}

Block
KeySchedule::roundKey(unsigned round) const
{
    RCOAL_ASSERT(round <= nr, "round %u out of range (Nr=%u)", round, nr);
    Block out{};
    for (unsigned c = 0; c < 4; ++c) {
        const std::uint32_t word = w[4 * round + c];
        out[4 * c] = static_cast<std::uint8_t>(word >> 24);
        out[4 * c + 1] = static_cast<std::uint8_t>(word >> 16);
        out[4 * c + 2] = static_cast<std::uint8_t>(word >> 8);
        out[4 * c + 3] = static_cast<std::uint8_t>(word);
    }
    return out;
}

Block
invertFromLastRoundKey(const Block &last_round_key)
{
    // AES-128: 44 schedule words; we know w[40..43] and walk backwards
    // using w[i-4] = w[i] ^ f(w[i-1]).
    std::array<std::uint32_t, 44> w{};
    for (unsigned c = 0; c < 4; ++c) {
        w[40 + c] =
            (static_cast<std::uint32_t>(last_round_key[4 * c]) << 24) |
            (static_cast<std::uint32_t>(last_round_key[4 * c + 1]) << 16) |
            (static_cast<std::uint32_t>(last_round_key[4 * c + 2]) << 8) |
            static_cast<std::uint32_t>(last_round_key[4 * c + 3]);
    }
    const auto &sb = sbox();
    for (unsigned i = 43; i >= 4; --i) {
        std::uint32_t temp = w[i - 1];
        if (i % 4 == 0)
            temp = subWord(rotWord(temp), sb) ^ kRcon[i / 4];
        w[i - 4] = w[i] ^ temp;
    }

    Block key{};
    for (unsigned c = 0; c < 4; ++c) {
        key[4 * c] = static_cast<std::uint8_t>(w[c] >> 24);
        key[4 * c + 1] = static_cast<std::uint8_t>(w[c] >> 16);
        key[4 * c + 2] = static_cast<std::uint8_t>(w[c] >> 8);
        key[4 * c + 3] = static_cast<std::uint8_t>(w[c]);
    }
    return key;
}

} // namespace rcoal::aes
