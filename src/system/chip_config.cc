#include "system/chip_config.hh"

#include <cmath>
#include <cstdlib>

#include "sim/log.hh"

namespace cbsim {

const char*
techniqueName(Technique t)
{
    switch (t) {
      case Technique::Invalidation: return "Invalidation";
      case Technique::BackOff0: return "BackOff-0";
      case Technique::BackOff5: return "BackOff-5";
      case Technique::BackOff10: return "BackOff-10";
      case Technique::BackOff15: return "BackOff-15";
      case Technique::CbAll: return "CB-All";
      case Technique::CbOne: return "CB-One";
      default: return "?";
    }
}

ChipConfig
ChipConfig::forTechnique(Technique t, unsigned cores)
{
    ChipConfig cfg;
    cfg.numCores = cores;
    const auto side = static_cast<unsigned>(std::lround(std::sqrt(cores)));
    if (side * side != cores)
        fatal("core count must be a perfect square, got ", cores);
    cfg.noc.width = side;
    cfg.noc.height = side;

    switch (t) {
      case Technique::Invalidation:
        cfg.protocol = ProtocolKind::Mesi;
        // Local spin loops re-check the cached copy at a PAUSE-style
        // interval; invalidation wakes them, so the interval only
        // bounds the exit latency.
        cfg.backoff = BackoffConfig::pause(12);
        break;
      case Technique::BackOff0:
        cfg.protocol = ProtocolKind::Vips;
        cfg.backoff = BackoffConfig::off();
        break;
      case Technique::BackOff5:
        cfg.protocol = ProtocolKind::Vips;
        cfg.backoff = BackoffConfig::capped(5);
        break;
      case Technique::BackOff10:
        cfg.protocol = ProtocolKind::Vips;
        cfg.backoff = BackoffConfig::capped(10);
        break;
      case Technique::BackOff15:
        cfg.protocol = ProtocolKind::Vips;
        cfg.backoff = BackoffConfig::capped(15);
        break;
      case Technique::CbAll:
      case Technique::CbOne:
        cfg.protocol = ProtocolKind::Vips;
        cfg.backoff = BackoffConfig::off();
        break;
      default:
        fatal("bad technique");
    }
    return cfg;
}

void
ChipConfig::validate() const
{
    if (numCores == 0 || numCores > 64)
        fatal("numCores must be 1..64 (callback masks are 64-bit)");
    if (noc.nodes() != numCores)
        fatal("mesh must have one node per core: ", noc.nodes(), " vs ",
              numCores);
    if (cbEntriesPerBank == 0)
        fatal("callback directory needs >= 1 entry per bank");
}

} // namespace cbsim
