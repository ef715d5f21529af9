#include "harness/journal.hh"

#include <csignal>
#include <filesystem>
#include <unistd.h>

#include "harness/harness_faults.hh"
#include "harness/json.hh"
#include "report/json_value.hh"

namespace cbsim {

ResultJournal::ResultJournal(std::string path) : path_(std::move(path)) {}

bool
ResultJournal::append(const std::string& cell_hash, const std::string& row)
{
    if (degraded_)
        return false;
    HarnessFaultInjector* faults = harnessFaults();
    if (faults != nullptr && faults->journalEioNow()) {
        // Behave exactly as if write(2) returned EIO: this line is
        // lost and the journal can no longer be trusted to be
        // append-complete, so stop writing it.
        degraded_ = true;
        return false;
    }
    if (!opened_) {
        const std::filesystem::path p(path_);
        std::error_code ec;
        if (p.has_parent_path())
            std::filesystem::create_directories(p.parent_path(), ec);
        // A sweep killed mid-append leaves a torn last line with no
        // newline; start on a fresh line so the rows appended now stay
        // parsable.
        bool torn = false;
        if (std::ifstream is(p, std::ios::binary | std::ios::ate);
            is && is.tellg() > 0) {
            is.seekg(-1, std::ios::end);
            torn = is.get() != '\n';
        }
        // Append mode: a resumed sweep extends the journal it loaded.
        os_.open(p, std::ios::app);
        if (torn)
            os_ << '\n';
        opened_ = true;
    }
    if (!os_) {
        degraded_ = true;
        return false;
    }
    os_ << "{\"cell\": " << JsonWriter::quote(cell_hash)
        << ", \"row\": " << JsonWriter::quote(row) << "}\n";
    os_.flush();
    if (!os_) {
        degraded_ = true;
        return false;
    }
    // The flush above pushed the line into the kernel, so it survives
    // the process dying here — which is exactly what the `sweep-kill`
    // chaos fault now provokes to prove the --resume path works.
    if (faults != nullptr && faults->sweepKillNow())
        ::kill(::getpid(), SIGKILL);
    return true;
}

std::vector<JournalEntry>
ResultJournal::load(const std::string& path)
{
    std::vector<JournalEntry> entries;
    std::ifstream is(path);
    if (!is)
        return entries;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string error;
        const JsonValue doc = JsonValue::parse(line, error);
        if (!error.empty())
            continue; // torn: the line being written at kill time
        JournalEntry e;
        e.cell = doc.getString("cell");
        e.row = doc.getString("row");
        if (e.cell.empty() || e.row.empty())
            continue;
        entries.push_back(std::move(e));
    }
    return entries;
}

void
ResultJournal::removeFile(const std::string& path)
{
    std::error_code ec;
    std::filesystem::remove(path, ec);
}

} // namespace cbsim
