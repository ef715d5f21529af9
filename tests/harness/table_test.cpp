/**
 * @file
 * Tests for the bench table printer and numeric formatting.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/table.hh"
#include "sim/log.hh"

namespace cbsim {
namespace {

TEST(TablePrinter, AlignsColumnsAndPrintsRule)
{
    std::ostringstream os;
    TablePrinter t(os, {"name", "a", "b"}, 8, 6);
    t.row({"x", "1", "2"});
    const auto text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
    // All lines have equal width (header, rule, row).
    std::istringstream in(text);
    std::string line;
    std::getline(in, line);
    const auto w = line.size();
    std::getline(in, line);
    EXPECT_EQ(line.size(), w);
    std::getline(in, line);
    EXPECT_EQ(line.size(), w);
}

TEST(TablePrinter, ArityMismatchPanics)
{
    std::ostringstream os;
    TablePrinter t(os, {"a", "b"});
    EXPECT_THROW(t.row({"only-one"}), PanicError);
}

TEST(TablePrinter, GapEmitsBlankLine)
{
    std::ostringstream os;
    TablePrinter t(os, {"a"});
    t.gap();
    EXPECT_NE(os.str().find("\n\n"), std::string::npos);
}

TEST(Format, FixedPrecision)
{
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt(0.5), "0.500");
    EXPECT_EQ(fmt(1.0), "1.000");
}

TEST(TablePrinter, FirstColumnLeftRestRightAligned)
{
    std::ostringstream os;
    TablePrinter t(os, {"bench", "cycles"}, 10, 8);
    t.row({"fft", "42"});
    std::istringstream in(os.str());
    std::string header, rule, row;
    std::getline(in, header);
    std::getline(in, rule);
    std::getline(in, row);
    // "fft" flush-left in a 10-char field, "42" flush-right in 8.
    EXPECT_EQ(row.substr(0, 10), "fft       ");
    EXPECT_EQ(row.substr(10), "      42");
    EXPECT_EQ(rule, std::string(18, '-'));
}

TEST(TablePrinter, NormalizationRowsLineUpNumerically)
{
    // The paper views print normalized series (fmt() at its default 3
    // decimals): every value lands in the same fixed format so columns
    // stay comparable.
    std::ostringstream os;
    TablePrinter t(os, {"tech", "llc", "traffic"}, 12, 10);
    t.row({"Invalidation", fmt(1.0), fmt(1.0)});
    t.row({"CB-One", fmt(0.127), fmt(0.271)});
    const auto text = os.str();
    EXPECT_NE(text.find("1.000"), std::string::npos);
    EXPECT_NE(text.find("0.127"), std::string::npos);
    // Equal-width rows even with mixed magnitudes.
    std::istringstream in(text);
    std::string line;
    std::size_t w = 0;
    while (std::getline(in, line)) {
        if (w == 0)
            w = line.size();
        EXPECT_EQ(line.size(), w);
    }
}

TEST(TablePrinter, EmptyCellsKeepTheGridAligned)
{
    std::ostringstream os;
    TablePrinter t(os, {"name", "a", "b"}, 8, 6);
    t.row({"x", "", "2"}); // empty cell pads to the column width
    t.row({"", "1", ""});  // empty first column keeps its field too
    std::istringstream in(os.str());
    std::string line;
    std::getline(in, line); // header
    const auto w = line.size();
    std::getline(in, line); // rule
    std::getline(in, line);
    EXPECT_EQ(line.size(), w);
    // "x" left in 8, empty right in 6, "2" right in 6.
    EXPECT_EQ(line, "x" + std::string(18, ' ') + "2");
    std::getline(in, line);
    EXPECT_EQ(line.size(), w);
    // Empty first column, "1" right in 6, empty right in 6.
    EXPECT_EQ(line, std::string(13, ' ') + "1" + std::string(6, ' '));
}

TEST(TablePrinter, OversizedCellsExpandRatherThanTruncate)
{
    std::ostringstream os;
    TablePrinter t(os, {"n", "v"}, 4, 4);
    t.row({"long-name-cell", "123456"});
    const auto text = os.str();
    EXPECT_NE(text.find("long-name-cell"), std::string::npos);
    EXPECT_NE(text.find("123456"), std::string::npos);
}

} // namespace
} // namespace cbsim
