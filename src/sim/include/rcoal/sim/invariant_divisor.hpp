/**
 * @file
 * Division by a divisor fixed at construction, without a divide
 * instruction.
 *
 * The address decoder and the DRAM scheduler divide every access (and
 * every FR-FCFS walk entry) by the same few configuration parameters.
 * A 64-bit DIV costs several times a multiply, so each parameter is
 * turned once into a shift and mask (powers of two) or a multiply-high
 * reciprocal (everything else): Granlund and Montgomery, "Division by
 * invariant integers using multiplication", PLDI 1994, Figure 4.1.
 * Both give the exact quotient and remainder of plain `/` and `%` for
 * every 64-bit dividend.
 */

#ifndef RCOAL_SIM_INVARIANT_DIVISOR_HPP
#define RCOAL_SIM_INVARIANT_DIVISOR_HPP

#include <bit>
#include <cstdint>

#include "rcoal/common/logging.hpp"

namespace rcoal::sim {

/** An exact divisor of 64-bit values by a constant d >= 1. */
class InvariantDivisor
{
  public:
    /** Division by 1. */
    InvariantDivisor() = default;

    explicit InvariantDivisor(std::uint64_t divisor)
        : d(divisor)
    {
        RCOAL_ASSERT(divisor != 0 && divisor <= (std::uint64_t{1} << 63),
                     "divisor %llu out of range",
                     static_cast<unsigned long long>(divisor));
        if (std::has_single_bit(divisor)) {
            shift = static_cast<unsigned>(std::countr_zero(divisor));
            return;
        }
        // l = ceil(log2 d) >= 2; m = floor(2^64 (2^l - d) / d) + 1 fits
        // 64 bits because 2^l - d < d.
        const auto l = static_cast<unsigned>(std::bit_width(divisor));
        const U128 scaled = static_cast<U128>((std::uint64_t{1} << l) -
                                              divisor)
                            << 64;
        magic = static_cast<std::uint64_t>(scaled / divisor) + 1;
        shift = l - 1;
    }

    std::uint64_t divisor() const { return d; }

    /** n / d. */
    std::uint64_t
    quotient(std::uint64_t n) const
    {
        if (magic == 0)
            return n >> shift;
        const auto t = static_cast<std::uint64_t>(
            (static_cast<U128>(magic) * n) >> 64);
        return (t + ((n - t) >> 1)) >> shift;
    }

    /** n % d. */
    std::uint64_t
    remainder(std::uint64_t n) const
    {
        if (magic == 0)
            return n & (d - 1);
        return n - quotient(n) * d;
    }

  private:
    __extension__ typedef unsigned __int128 U128;

    std::uint64_t d = 1;
    /** Multiply-high reciprocal; 0 for a power of two (shift alone). */
    std::uint64_t magic = 0;
    unsigned shift = 0;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_INVARIANT_DIVISOR_HPP
