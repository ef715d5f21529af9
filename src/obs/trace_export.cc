#include "obs/trace_export.hh"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iostream>

#include "debug/forensics.hh"
#include "harness/json.hh"
#include "mem/addr.hh"
#include "obs/attribution.hh"

namespace cbsim {

namespace {

void
writeMeta(JsonWriter& w, const char* metaName, std::uint32_t pid,
          std::uint32_t tid, bool hasTid, const std::string& name)
{
    w.beginObject();
    w.field("name", metaName);
    w.field("ph", "M");
    w.field("pid", pid);
    if (hasTid)
        w.field("tid", tid);
    w.key("args");
    w.beginObject();
    w.field("name", name);
    w.endObject();
    w.endObject();
}

} // namespace

const char*
TraceExporter::lineName(Addr word)
{
    const Addr line = AddrLayout::lineAlign(word);
    auto it = lineNames_.find(line);
    if (it != lineNames_.end())
        return it->second;
    static const std::map<Addr, std::string> kNoSymbols;
    nameStore_.push_back(
        contentionSymbolFor(line, symbols_ != nullptr ? *symbols_
                                                      : kNoSymbols));
    const char* name = nameStore_.back().c_str();
    lineNames_.emplace(line, name);
    return name;
}

void
TraceExporter::writeJson(std::ostream& os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("otherData");
    w.beginObject();
    w.field("schema", kSchema);
    w.field("generator", "cbsim");
    w.endObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();

    // Metadata first: name the processes and their tracks so the UI
    // shows "core 3" instead of a bare tid.
    writeMeta(w, "process_name", pidCores, 0, false, "cores");
    writeMeta(w, "process_name", pidCbdir, 0, false, "callback-directory");
    writeMeta(w, "process_name", pidNoc, 0, false, "noc");
    writeMeta(w, "process_name", pidLines, 0, false, "contended-lines");
    for (unsigned c = 0; c < numCores_; ++c)
        writeMeta(w, "thread_name", pidCores, c, true,
                  "core " + std::to_string(c));
    for (unsigned b = 0; b < numBanks_; ++b)
        writeMeta(w, "thread_name", pidCbdir, b, true,
                  "cbdir bank " + std::to_string(b));

    for (const TraceEvent& ev : events_) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("ph", std::string(1, ev.ph));
        w.field("pid", ev.pid);
        w.field("tid", ev.tid);
        w.field("ts", ev.ts);
        if (ev.ph == 'X')
            w.field("dur", ev.dur);
        if (ev.ph == 'i')
            w.field("s", "t"); // instant scope: thread
        if (ev.ph == 'b' || ev.ph == 'e') {
            // Async pair key: (cat, id, name) per the trace-event
            // spec.
            w.field("cat", "contention");
            w.field("id", ev.arg);
        }
        if (ev.ph == 's' || ev.ph == 't' || ev.ph == 'f') {
            // Flow triple key: (cat, id, name); the arrow head
            // binds to the enclosing slice ("bp": "e") so it lands
            // on the waiter's stall slice, not the next one.
            w.field("cat", "causal-wake");
            w.field("id", ev.arg);
            if (ev.ph == 'f')
                w.field("bp", "e");
        }
        if (ev.argName != nullptr) {
            w.key("args");
            w.beginObject();
            w.field(ev.argName, ev.arg);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.endObject();
}

std::string
TraceExporter::writeFile(const std::string& dir,
                         const std::string& label) const
{
    if (dir.empty() || dir == "-")
        return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path =
        dir + "/" + forensics::sanitizeLabel(label) + ".trace.json";
    // Temp file + rename in the same directory, like
    // ResultSink::writeFile: rename(2) is atomic, so a reader (or a
    // crash mid-write) can never observe a torn trace. The pid suffix
    // keeps concurrent --isolate children writing into the same
    // directory from clobbering each other's temp files
    // (tests/harness/isolate_trace_test.cpp).
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            std::cerr << "warn: could not write trace file " << path
                      << std::endl;
            return "";
        }
        writeJson(out);
        out << "\n";
        out.flush();
        if (!out) {
            std::cerr << "warn: trace write failed " << path
                      << std::endl;
            std::filesystem::remove(tmp, ec);
            return "";
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::cerr << "warn: could not publish trace file " << path
                  << ": " << ec.message() << std::endl;
        std::filesystem::remove(tmp, ec);
        return "";
    }
    return path;
}

} // namespace cbsim
