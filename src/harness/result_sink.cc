#include "harness/result_sink.hh"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/json.hh"
#include "harness/result_codec.hh"
#include "sim/log.hh"

namespace cbsim {

ResultSink::ResultSink(std::string bench_name)
    : benchName_(std::move(bench_name))
{
}

void
ResultSink::meta(const std::string& key, const std::string& value)
{
    meta_.emplace_back(key, value);
}

void
ResultSink::add(const SweepJob& job, const JobOutcome& outcome)
{
    rows_.push_back(serializeRunRow(job, outcome));
    allOk_ = allOk_ && outcome.ok;
}

void
ResultSink::write(std::ostream& os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("schema_version", kSchemaVersion);
    w.field("generator", "cbsim");
    w.field("bench", benchName_);

    w.key("meta");
    w.beginObject();
    for (const auto& [k, v] : meta_)
        w.field(k, v);
    w.endObject();

    w.key("runs");
    w.beginArray();
    // Every row is a standalone root-depth string (result_codec.hh),
    // re-indented into place by rawValue().
    for (const std::string& row : rows_)
        w.rawValue(row);
    w.endArray();
    w.endObject();
    os << '\n';
}

std::string
ResultSink::toJson() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

void
ResultSink::writeFile(const std::string& path) const
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    // Temp file + rename in the same directory: rename(2) is atomic, so
    // a crash mid-publish can never leave a torn artifact behind.
    const std::filesystem::path tmp(path + ".tmp");
    {
        std::ofstream os(tmp);
        if (!os)
            fatal("cannot open result file for writing: ", tmp.string());
        write(os);
        os.flush();
        if (!os)
            fatal("write failed: ", tmp.string());
    }
    std::filesystem::rename(tmp, p, ec);
    if (ec)
        fatal("cannot publish result file ", path, ": ", ec.message());
}

} // namespace cbsim
