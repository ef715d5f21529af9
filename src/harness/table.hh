/**
 * @file
 * Fixed-width table printing for bench binaries, mirroring the rows and
 * series of the paper's figures.
 */

#ifndef CBSIM_HARNESS_TABLE_HH
#define CBSIM_HARNESS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace cbsim {

/** Prints aligned columns with a header row and a rule. */
class TablePrinter
{
  public:
    TablePrinter(std::ostream& os, std::vector<std::string> headers,
                 unsigned first_col_width = 16, unsigned col_width = 12);

    void row(const std::vector<std::string>& cells);

    /** Blank separator line. */
    void gap();

  private:
    std::ostream& os_;
    unsigned firstWidth_;
    unsigned width_;
    std::size_t columns_;
};

/** Format a double with @p prec decimals ("1.000", "0.127"). */
std::string fmt(double v, int prec = 3);

} // namespace cbsim

#endif // CBSIM_HARNESS_TABLE_HH
