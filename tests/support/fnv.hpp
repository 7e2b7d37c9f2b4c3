/**
 * @file
 * FNV-1a 64 digest for golden tests: folds observable outputs into one
 * constant a test can pin across commits.
 */

#ifndef RCOAL_TESTS_SUPPORT_FNV_HPP
#define RCOAL_TESTS_SUPPORT_FNV_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace rcoal::test {

/** FNV-1a 64; doubles enter by bit pattern. */
class Fnv
{
  public:
    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ull;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

} // namespace rcoal::test

#endif // RCOAL_TESTS_SUPPORT_FNV_HPP
