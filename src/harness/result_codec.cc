#include "harness/result_codec.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "harness/json.hh"
#include "isa/instruction.hh"
#include "report/json_value.hh"

namespace cbsim {

namespace {

/** Integer fields round-trip via their raw token text, not the parsed
 * double, so counters above 2^53 survive the pipe/journal exactly. */
std::uint64_t
u64Field(const JsonValue& obj, const char* name)
{
    const JsonValue& v = obj.get(name);
    if (!v.isNumber())
        return 0;
    return std::strtoull(v.text().c_str(), nullptr, 10);
}

double
doubleField(const JsonValue& obj, const char* name)
{
    return obj.getNumber(name);
}

void
writeSyncKinds(JsonWriter& w, const RunResult& r)
{
    w.key("sync");
    w.beginArray();
    // Kind 0 is SyncKind::None (never recorded); start at 1.
    for (std::size_t k = 1; k < SyncStats::numKinds; ++k) {
        const SyncKindResult& s = r.sync[k];
        w.beginObject();
        w.field("kind", syncKindName(static_cast<SyncKind>(k)));
        w.field("completions", s.completions);
        w.field("total_latency", s.totalLatency);
        w.field("mean_latency", s.meanLatency);
        w.field("max_latency", s.maxLatency);
        w.field("p50_latency", s.p50Latency);
        w.field("p95_latency", s.p95Latency);
        w.field("p99_latency", s.p99Latency);
        w.endObject();
    }
    w.endArray();
}

void
parseSyncKinds(const JsonValue& arr, RunResult& r)
{
    if (!arr.isArray())
        return;
    std::size_t k = 1;
    for (const JsonValue& row : arr.items()) {
        if (k >= SyncStats::numKinds)
            break;
        SyncKindResult& s = r.sync[k++];
        s.completions = u64Field(row, "completions");
        s.totalLatency = u64Field(row, "total_latency");
        s.meanLatency = doubleField(row, "mean_latency");
        s.maxLatency = u64Field(row, "max_latency");
        s.p50Latency = doubleField(row, "p50_latency");
        s.p95Latency = doubleField(row, "p95_latency");
        s.p99Latency = doubleField(row, "p99_latency");
    }
}

void
writeEpochs(JsonWriter& w, const RunResult& r)
{
    if (r.epochs.empty())
        return;
    w.key("epochs");
    w.beginArray();
    for (const EpochRow& row : r.epochs) {
        w.beginObject();
        w.field(EpochSampler::kFieldNames[0], row.tick);
        w.field(EpochSampler::kFieldNames[1], row.llcAccesses);
        w.field(EpochSampler::kFieldNames[2], row.flitHops);
        w.field(EpochSampler::kFieldNames[3], row.packets);
        w.field(EpochSampler::kFieldNames[4], row.blockedCores);
        w.endObject();
    }
    w.endArray();
}

void
parseEpochs(const JsonValue& arr, RunResult& r)
{
    if (!arr.isArray())
        return;
    for (const JsonValue& row : arr.items()) {
        EpochRow e;
        e.tick = u64Field(row, EpochSampler::kFieldNames[0]);
        e.llcAccesses = u64Field(row, EpochSampler::kFieldNames[1]);
        e.flitHops = u64Field(row, EpochSampler::kFieldNames[2]);
        e.packets = u64Field(row, EpochSampler::kFieldNames[3]);
        e.blockedCores = u64Field(row, EpochSampler::kFieldNames[4]);
        r.epochs.push_back(e);
    }
}

void
writeContention(JsonWriter& w, const RunResult& r)
{
    if (r.contention.empty())
        return;
    w.key("contention");
    w.beginArray();
    for (const ContentionRow& row : r.contention) {
        w.beginObject();
        w.field(kContentionFields[0], contentionHexName(row.addr));
        w.field(kContentionFields[1], row.symbol);
        w.field(kContentionFields[2], row.cycles);
        w.field(kContentionFields[3], row.invalidations);
        w.field(kContentionFields[4], row.reacquires);
        w.field(kContentionFields[5], row.spinRereads);
        w.field(kContentionFields[6], row.backoffIters);
        w.field(kContentionFields[7], row.parks);
        w.field(kContentionFields[8], row.wakes);
        w.field(kContentionFields[9], row.wakeEvictions);
        w.field(kContentionFields[10], row.parkP50);
        w.field(kContentionFields[11], row.parkP95);
        w.field(kContentionFields[12], row.parkP99);
        w.endObject();
    }
    w.endArray();
}

void
parseContention(const JsonValue& arr, RunResult& r)
{
    if (!arr.isArray())
        return;
    for (const JsonValue& row : arr.items()) {
        ContentionRow c;
        // The artifact form carries the address as hex text.
        const std::string addr = row.getString(kContentionFields[0]);
        c.addr = std::strtoull(addr.c_str(), nullptr, 0);
        c.symbol = row.getString(kContentionFields[1]);
        c.cycles = u64Field(row, kContentionFields[2].c_str());
        c.invalidations = u64Field(row, kContentionFields[3].c_str());
        c.reacquires = u64Field(row, kContentionFields[4].c_str());
        c.spinRereads = u64Field(row, kContentionFields[5].c_str());
        c.backoffIters = u64Field(row, kContentionFields[6].c_str());
        c.parks = u64Field(row, kContentionFields[7].c_str());
        c.wakes = u64Field(row, kContentionFields[8].c_str());
        c.wakeEvictions = u64Field(row, kContentionFields[9].c_str());
        c.parkP50 = doubleField(row, kContentionFields[10].c_str());
        c.parkP95 = doubleField(row, kContentionFields[11].c_str());
        c.parkP99 = doubleField(row, kContentionFields[12].c_str());
        r.contention.push_back(std::move(c));
    }
}

void
writeCausal(JsonWriter& w, const RunResult& r)
{
    if (r.causal.empty())
        return;
    w.key("causal");
    w.beginArray();
    for (const CausalRow& row : r.causal) {
        w.beginObject();
        w.field(kCausalFields[0], row.segment);
        w.field(kCausalFields[1], row.cycles);
        w.field(kCausalFields[2], row.count);
        w.field(kCausalFields[3], row.flitHops);
        w.field(kCausalFields[4], row.p50);
        w.field(kCausalFields[5], row.p95);
        w.field(kCausalFields[6], row.p99);
        w.endObject();
    }
    w.endArray();
}

void
parseCausal(const JsonValue& arr, RunResult& r)
{
    if (!arr.isArray())
        return;
    for (const JsonValue& row : arr.items()) {
        CausalRow c;
        c.segment = row.getString(kCausalFields[0]);
        c.cycles = u64Field(row, kCausalFields[1].c_str());
        c.count = u64Field(row, kCausalFields[2].c_str());
        c.flitHops = u64Field(row, kCausalFields[3].c_str());
        c.p50 = doubleField(row, kCausalFields[4].c_str());
        c.p95 = doubleField(row, kCausalFields[5].c_str());
        c.p99 = doubleField(row, kCausalFields[6].c_str());
        r.causal.push_back(std::move(c));
    }
}

void
writeEnergy(JsonWriter& w, const EnergyBreakdown& e)
{
    w.key("energy_nj");
    w.beginObject();
    w.field("l1", e.l1);
    w.field("llc", e.llc);
    w.field("network", e.network);
    w.field("cbdir", e.cbdir);
    w.field("memory", e.memory);
    w.field("on_chip", e.onChip());
    w.field("total", e.total());
    w.endObject();
}

EnergyBreakdown
parseEnergy(const JsonValue& obj)
{
    EnergyBreakdown e;
    e.l1 = doubleField(obj, "l1");
    e.llc = doubleField(obj, "llc");
    e.network = doubleField(obj, "network");
    e.cbdir = doubleField(obj, "cbdir");
    e.memory = doubleField(obj, "memory");
    return e;
}

void
writeJobConfig(JsonWriter& w, const SweepJob& job)
{
    w.key("config");
    w.beginObject();
    w.field("kind", jobKindName(job.kind));
    switch (job.kind) {
      case JobKind::Profile:
        w.field("workload", job.profile.name);
        w.field("suite", job.profile.suite);
        w.field("technique", techniqueName(job.technique));
        w.field("cores", job.cores);
        w.field("lock", lockAlgoName(job.choice.lock));
        w.field("barrier", barrierAlgoName(job.choice.barrier));
        w.field("cb_entries_per_bank", job.cbEntriesPerBank);
        break;
      case JobKind::Micro:
        w.field("workload", syncMicroName(job.micro));
        w.field("technique", techniqueName(job.technique));
        w.field("cores", job.cores);
        w.field("iterations", job.iterations);
        w.field("work_between", job.workBetween);
        w.field("cb_entries_per_bank", job.cbEntriesPerBank);
        break;
      case JobKind::Custom:
        // A custom job's configuration lives in its function; only the
        // key identifies it.
        break;
    }
    w.endObject();
}

void
writeRunMetrics(JsonWriter& w, const RunResult& r)
{
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, value] : r.scalarFields())
        w.field(name, value);
    w.endObject();

    writeSyncKinds(w, r);

    // Present only when epoch sampling ran (CBSIM_OBS_EPOCH / ObsConfig)
    // — artifacts from plain runs stay byte-identical to obs-off runs.
    writeEpochs(w, r);

    // Present only when contention attribution ran (CBSIM_OBS_ATTR /
    // ObsConfig::attribution). Field names come from kContentionFields
    // so docs/RESULTS.md and scripts/check_docs.sh stay in lock-step.
    writeContention(w, r);

    // Present only when causal tracing ran (CBSIM_OBS_CAUSAL /
    // ObsConfig::causal). Field names come from kCausalFields, enforced
    // against the docs by scripts/check_docs.sh.
    writeCausal(w, r);
}

/** Inverse of jobStatusName(); Failed for unknown names. */
JobStatus
jobStatusFromName(const std::string& name)
{
    if (name == "ok")
        return JobStatus::Ok;
    if (name == "timeout")
        return JobStatus::TimedOut;
    if (name == "skipped")
        return JobStatus::Skipped;
    if (name == "crashed")
        return JobStatus::Crashed;
    return JobStatus::Failed;
}

} // namespace

std::string
serializeRunRow(const SweepJob& job, const JobOutcome& outcome)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.field("key", job.key);
    writeJobConfig(w, job);
    w.field("ok", outcome.ok);
    w.field("status", jobStatusName(outcome.status));
    w.field("attempts", outcome.attempts);
    w.field("quarantined", outcome.quarantined);
    if (outcome.ok) {
        writeRunMetrics(w, outcome.result.run);
        writeEnergy(w, outcome.result.energy);
    } else {
        w.field("error", outcome.error);
    }
    w.endObject();
    return os.str();
}

std::string
jobConfigHash(const SweepJob& job, unsigned schema_version,
              const std::string& sweep_meta)
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        w.beginObject();
        w.field("key", job.key);
        w.field("schema_version", schema_version);
        w.field("sweep_meta", sweep_meta);
        writeJobConfig(w, job);
        w.endObject();
    }
    const std::string canonical = os.str();
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : canonical) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

JobOutcome
parseRunRow(const JsonValue& row)
{
    JobOutcome out;
    out.ok = row.get("ok").boolean();
    out.status = jobStatusFromName(row.getString("status"));
    out.attempts = static_cast<unsigned>(u64Field(row, "attempts"));
    out.quarantined = row.get("quarantined").boolean();
    out.error = row.getString("error");
    // A failed row carries none of these members; each parses to its
    // default, which is what serializeRunRow had.
    RunResult& r = out.result.run;
    const JsonValue& metrics = row.get("metrics");
    for (const auto& [name, member] : RunResult::kCounters)
        r.*member = u64Field(metrics, name);
    parseSyncKinds(row.get("sync"), r);
    parseEpochs(row.get("epochs"), r);
    parseContention(row.get("contention"), r);
    parseCausal(row.get("causal"), r);
    out.result.energy = parseEnergy(row.get("energy_nj"));
    return out;
}

} // namespace cbsim
