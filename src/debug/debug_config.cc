#include "debug/debug_config.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "sim/log.hh"

namespace cbsim {

namespace {

bool
envFlag(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

DebugConfig
fromEnvironment()
{
    DebugConfig cfg;
    if (envFlag("CBSIM_CHECK_INVARIANTS"))
        cfg.checkInvariants = true;
    if (const char* dir = std::getenv("CBSIM_FORENSIC_DIR"))
        cfg.forensicDir = dir;
    if (const char* epoch = std::getenv("CBSIM_OBS_EPOCH");
        epoch != nullptr && epoch[0] != '\0') {
        const char* end = epoch + std::strlen(epoch);
        const auto [stop, ec] =
            std::from_chars(epoch, end, cfg.obs.epochTicks);
        if (ec != std::errc() || stop != end)
            fatal("CBSIM_OBS_EPOCH: not a tick count: '", epoch, "'");
    }
    if (const char* dir = std::getenv("CBSIM_TRACE_DIR"))
        cfg.obs.traceDir = dir;
    if (envFlag("CBSIM_OBS_ATTR"))
        cfg.obs.attribution = true;
    if (envFlag("CBSIM_OBS_CAUSAL"))
        cfg.obs.causal = true;
    return cfg;
}

thread_local const DebugConfig* tlsOverride = nullptr;

} // namespace

DebugConfig&
DebugConfig::processDefaults()
{
    static DebugConfig defaults = fromEnvironment();
    return defaults;
}

const DebugConfig&
DebugConfig::current()
{
    return tlsOverride != nullptr ? *tlsOverride : processDefaults();
}

DebugScope::DebugScope(DebugConfig cfg)
    : saved_(tlsOverride), cfg_(std::move(cfg))
{
    tlsOverride = &cfg_;
}

DebugScope::~DebugScope()
{
    tlsOverride = saved_;
}

} // namespace cbsim
