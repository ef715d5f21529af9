/**
 * @file
 * Minimal Chrome trace-event JSON schema checker for tests.
 *
 * Parses a document with cbsim's own JSON reader (report/json_value.hh)
 * and validates the subset of the trace-event format cbsim emits
 * (docs/OBSERVABILITY.md): top-level otherData/displayTimeUnit/
 * traceEvents, per-event required fields by phase, known process ids.
 * Deliberately strict about what the exporter produces rather than
 * about what the format permits — it is a regression net for
 * src/obs/trace_export.cc, not a general validator.
 */

#ifndef CBSIM_TESTS_SUPPORT_TRACE_SCHEMA_HH
#define CBSIM_TESTS_SUPPORT_TRACE_SCHEMA_HH

#include <string>
#include <vector>

#include "report/json_value.hh"

namespace cbsim::test {

/**
 * Validate @p text against the cbsim trace-event schema.
 * @return violations, empty when the document conforms
 */
inline std::vector<std::string>
validateTrace(const std::string& text)
{
    std::vector<std::string> errs;
    std::string error;
    const JsonValue root = JsonValue::parse(text, error);
    if (!error.empty())
        return {error};

    if (!root.isObject())
        return {"top level is not an object"};

    const JsonValue& other = root.get("otherData");
    if (!other.isObject()) {
        errs.push_back("missing otherData object");
    } else {
        const JsonValue& schema = other.get("schema");
        if (!schema.isString() || schema.text() != "cbsim-trace-v1")
            errs.push_back("otherData.schema is not cbsim-trace-v1");
    }
    if (!root.get("displayTimeUnit").isString())
        errs.push_back("missing displayTimeUnit string");

    const JsonValue& events = root.get("traceEvents");
    if (!events.isArray()) {
        errs.push_back("missing traceEvents array");
        return errs;
    }

    for (std::size_t i = 0; i < events.items().size(); ++i) {
        const JsonValue& ev = events.items()[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (!ev.isObject()) {
            errs.push_back(at + " is not an object");
            continue;
        }
        const JsonValue& name = ev.get("name");
        if (!name.isString() || name.text().empty())
            errs.push_back(at + " has no name");
        const JsonValue& ph = ev.get("ph");
        if (!ph.isString() || ph.text().size() != 1 ||
            std::string("MXiCbestf").find(ph.text()) == std::string::npos) {
            errs.push_back(at + " has a bad ph");
            continue;
        }
        const JsonValue& pid = ev.get("pid");
        if (!pid.isNumber() ||
            (pid.number() != 1 && pid.number() != 2 &&
             pid.number() != 3 && pid.number() != 4))
            errs.push_back(at + " has an unknown pid");

        const char phase = ph.text()[0];
        // Only process-level metadata may omit the tid.
        const bool processMeta =
            phase == 'M' && name.isString() &&
            name.text() == "process_name";
        if (!processMeta && ev.get("tid").isNull())
            errs.push_back(at + " has no tid");
        if (phase == 'M') {
            if (name.text() != "process_name" &&
                name.text() != "thread_name")
                errs.push_back(at + " metadata has unexpected name");
            if (!ev.get("args").get("name").isString())
                errs.push_back(at + " metadata lacks args.name");
            continue;
        }
        const JsonValue& ts = ev.get("ts");
        if (!ts.isNumber() || ts.number() < 0)
            errs.push_back(at + " has no valid ts");
        if (phase == 'X') {
            const JsonValue& dur = ev.get("dur");
            if (!dur.isNumber() || dur.number() < 0)
                errs.push_back(at + " duration slice has no dur");
        }
        if (phase == 'i' && !ev.get("s").isString())
            errs.push_back(at + " instant has no scope");
        if (phase == 'C') {
            const JsonValue& args = ev.get("args");
            if (!args.isObject() || args.members().empty())
                errs.push_back(at + " counter has no args");
        }
        if (phase == 'b' || phase == 'e') {
            // Async contended-line slices pair on (cat, id, name).
            if (!ev.get("cat").isString())
                errs.push_back(at + " async event has no cat");
            if (ev.get("id").isNull())
                errs.push_back(at + " async event has no id");
            if (pid.isNumber() && pid.number() != 4)
                errs.push_back(at + " async event off the lines pid");
        }
        if (phase == 's' || phase == 't' || phase == 'f') {
            // Causal releaser→directory→waiter flow arrows triple-key
            // on (cat, id, name); the arrow head must bind to the
            // enclosing slice so it lands on the waiter's stall.
            const JsonValue& cat = ev.get("cat");
            if (!cat.isString() || cat.text() != "causal-wake")
                errs.push_back(at + " flow event lacks causal-wake cat");
            if (ev.get("id").isNull())
                errs.push_back(at + " flow event has no id");
            if (phase == 'f') {
                const JsonValue& bp = ev.get("bp");
                if (!bp.isString() || bp.text() != "e")
                    errs.push_back(at +
                                   " flow end lacks enclosing binding");
            }
        }
    }
    return errs;
}

} // namespace cbsim::test

#endif // CBSIM_TESTS_SUPPORT_TRACE_SCHEMA_HH
