#include "harness/table.hh"

#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace cbsim {

TablePrinter::TablePrinter(std::ostream& os,
                           std::vector<std::string> headers,
                           unsigned first_col_width, unsigned col_width)
    : os_(os), firstWidth_(first_col_width), width_(col_width),
      columns_(headers.size())
{
    row(headers);
    std::string rule(firstWidth_ + (columns_ - 1) * width_, '-');
    os_ << rule << '\n';
}

void
TablePrinter::row(const std::vector<std::string>& cells)
{
    CBSIM_ASSERT(cells.size() == columns_, "table row arity mismatch");
    std::ostringstream line;
    line << std::left << std::setw(firstWidth_) << cells[0];
    for (std::size_t i = 1; i < cells.size(); ++i)
        line << std::right << std::setw(width_) << cells[i];
    os_ << line.str() << '\n';
}

void
TablePrinter::gap()
{
    os_ << '\n';
}

std::string
fmt(double v, int prec)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

} // namespace cbsim
