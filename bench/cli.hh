/**
 * @file
 * Numeric flag parsing shared by the bench drivers (bench_main.cc and
 * perf_kernel.cpp).
 */

#ifndef CBSIM_BENCH_CLI_HH
#define CBSIM_BENCH_CLI_HH

#include <charconv>
#include <iostream>
#include <string_view>
#include <system_error>

namespace cbsim::bench {

/**
 * Parse @p text as a plain decimal count into @p out. Signs, spaces,
 * trailing characters and values above UINT_MAX are rejected. On
 * failure prints "<flag>: ..." to stderr and returns false; the caller
 * exits with status 2.
 */
inline bool
parseUnsignedFlag(std::string_view flag, std::string_view text,
                  unsigned& out)
{
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec == std::errc::result_out_of_range) {
        std::cerr << flag << ": out of range: " << text << "\n";
        return false;
    }
    if (ec != std::errc() || text.empty() ||
        end != text.data() + text.size()) {
        std::cerr << flag << ": not a number: " << text << "\n";
        return false;
    }
    out = value;
    return true;
}

} // namespace cbsim::bench

#endif // CBSIM_BENCH_CLI_HH
