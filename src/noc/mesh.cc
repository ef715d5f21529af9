#include "noc/mesh.hh"

#include <bit>
#include <string>

#include "debug/fault_injection.hh"
#include "debug/noc_tracker.hh"
#include "obs/causal.hh"
#include "sim/log.hh"
#include "sim/trace.hh"

namespace cbsim {

Mesh::Mesh(EventQueue& eq, const NocConfig& cfg, const StatsScope& scope)
    : eq_(eq), cfg_(cfg),
      widthPow2_(std::has_single_bit(cfg.width)),
      widthShift_(static_cast<unsigned>(std::countr_zero(cfg.width))),
      routers_(cfg.nodes()), coreHandlers_(cfg.nodes()),
      bankHandlers_(cfg.nodes())
{
    if (cfg_.width == 0 || cfg_.height == 0)
        fatal("mesh dimensions must be non-zero");
    scope.add("packets", packets_);
    scope.add("flit_hops", flitHops_);
    scope.add("local_deliveries", localDeliveries_);
    const StatsScope byType = scope.scope("packets");
    for (std::size_t t = 0; t < packetsByType_.size(); ++t)
        byType.add(msgTypeName(static_cast<MsgType>(t)), packetsByType_[t]);
    scope.add("hop_distance", hopDistance_);
}

void
Mesh::attach(NodeId node, Port port, MessageHandler handler)
{
    CBSIM_ASSERT(node < cfg_.nodes(), "attach: node out of range");
    auto& slot = port == Port::Core ? coreHandlers_[node]
                                    : bankHandlers_[node];
    slot = std::move(handler);
}

unsigned
Mesh::hopCount(NodeId from, NodeId to) const
{
    const int dx = static_cast<int>(xOf(to)) - static_cast<int>(xOf(from));
    const int dy = static_cast<int>(yOf(to)) - static_cast<int>(yOf(from));
    return static_cast<unsigned>((dx < 0 ? -dx : dx) +
                                 (dy < 0 ? -dy : dy));
}

Tick
Mesh::minLatency(const Message& msg) const
{
    if (msg.src == msg.dst)
        return cfg_.localLatency;
    const unsigned hops = hopCount(msg.src, msg.dst);
    const unsigned flits =
        msg.flits(cfg_.flitBytes, cfg_.headerBytes, cfg_.lineBytes);
    return hops * cfg_.switchLatency + (flits - 1);
}

std::pair<NodeId, Direction>
Mesh::nextHop(NodeId at, NodeId dst) const
{
    const unsigned ax = xOf(at), ay = yOf(at);
    const unsigned dx = xOf(dst), dy = yOf(dst);
    // Deterministic X-Y: fully resolve X, then Y.
    if (dx > ax)
        return {nodeAt(ax + 1, ay), Direction::East};
    if (dx < ax)
        return {nodeAt(ax - 1, ay), Direction::West};
    if (dy > ay)
        return {nodeAt(ax, ay + 1), Direction::South};
    CBSIM_ASSERT(dy < ay, "nextHop called at destination");
    return {nodeAt(ax, ay - 1), Direction::North};
}

void
Mesh::send(Message msg)
{
    CBSIM_ASSERT(msg.src < cfg_.nodes() && msg.dst < cfg_.nodes(),
                 "send: node out of range");
    packets_.inc();
    packetsByType_[static_cast<std::size_t>(msg.type)].inc();
    if (causal_ != nullptr)
        recordCausalTraffic(msg);
    CBSIM_TRACE(TraceCategory::Noc, eq_.now(), msg.addr,
                "inject " << msg.toString());

    if (tracker_ != nullptr || faults_ != nullptr) {
        sendDebug(std::move(msg));
        return;
    }
    if (msg.src == msg.dst) {
        // Same-node core<->bank traffic never enters the network.
        localDeliveries_.inc();
        eq_.schedule(cfg_.localLatency,
                     [this, msg = std::move(msg)] { deliver(msg); });
        return;
    }
    const unsigned flits =
        msg.flits(cfg_.flitBytes, cfg_.headerBytes, cfg_.lineBytes);
    hopDistance_.sample(hopCount(msg.src, msg.dst));
    const NodeId src = msg.src;
    hop(std::move(msg), src, flits);
}

void
Mesh::hop(Message msg, NodeId at, unsigned flits)
{
    auto [next, dir] = nextHop(at, msg.dst);
    const Tick start = routers_[at].reserve(dir, eq_.now(), flits);
    flitHops_.inc(flits);
    const Tick wait = start - eq_.now();

    if (next == msg.dst) {
        // Final hop: account tail serialization on delivery.
        eq_.schedule(wait + cfg_.switchLatency + (flits - 1),
                     [this, msg = std::move(msg)] { deliver(msg); });
    } else {
        eq_.schedule(wait + cfg_.switchLatency,
                     [this, msg = std::move(msg), next, flits]() mutable {
                         hop(std::move(msg), next, flits);
                     });
    }
}

void
Mesh::sendDebug(Message msg)
{
    // Mirrors send()'s tail, threading a tracker slot through every hop
    // closure and front-loading any injected fault delay. Lives off the
    // hot path so the untracked send() stays unchanged.
    const std::uint32_t slot =
        tracker_ != nullptr ? tracker_->onInject(msg, eq_.now()) : 0;
    const Tick extra = faults_ != nullptr ? faults_->nocDelay() : 0;

    if (msg.src == msg.dst) {
        localDeliveries_.inc();
        eq_.schedule(cfg_.localLatency + extra,
                   [this, msg = std::move(msg), slot] {
                       if (tracker_ != nullptr)
                           tracker_->onDeliver(slot);
                       deliver(msg);
                   });
        return;
    }
    const unsigned flits =
        msg.flits(cfg_.flitBytes, cfg_.headerBytes, cfg_.lineBytes);
    hopDistance_.sample(hopCount(msg.src, msg.dst));
    const NodeId src = msg.src;
    if (extra == 0) {
        hopDebug(std::move(msg), src, flits, slot);
    } else {
        eq_.schedule(extra,
                   [this, msg = std::move(msg), src, flits,
                    slot]() mutable {
                       hopDebug(std::move(msg), src, flits, slot);
                   });
    }
}

void
Mesh::hopDebug(Message msg, NodeId at, unsigned flits, std::uint32_t slot)
{
    if (tracker_ != nullptr)
        tracker_->onHop(slot, at);
    auto [next, dir] = nextHop(at, msg.dst);
    const Tick start = routers_[at].reserve(dir, eq_.now(), flits);
    flitHops_.inc(flits);
    const Tick wait = start - eq_.now();

    if (next == msg.dst) {
        eq_.schedule(wait + cfg_.switchLatency + (flits - 1),
                     [this, msg = std::move(msg), slot] {
                         if (tracker_ != nullptr)
                             tracker_->onDeliver(slot);
                         deliver(msg);
                     });
    } else {
        eq_.schedule(wait + cfg_.switchLatency,
                     [this, msg = std::move(msg), next, flits,
                      slot]() mutable {
                         hopDebug(std::move(msg), next, flits, slot);
                     });
    }
}

void
Mesh::deliver(const Message& msg)
{
    const auto& handler = msg.dstPort == Port::Core
                              ? coreHandlers_[msg.dst]
                              : bankHandlers_[msg.dst];
    if (!handler) {
        panic("message delivered to unattached endpoint: ",
              msg.toString());
    }
    handler(msg);
}

void
Mesh::recordCausalTraffic(const Message& msg)
{
    // Classify at injection: the whole route's flit×hop cost belongs to
    // one causal segment. Request traffic is everything a waiter sends
    // toward the directory on the sync path; wake traffic is what
    // travels back to break the wait (callback wake-ups, sync-store
    // invalidations).
    bool wake = false;
    bool request = false;
    switch (msg.type) {
      case MsgType::WakeUp:
        wake = true;
        break;
      case MsgType::Inv:
        wake = msg.sync;
        break;
      case MsgType::GetCB:
        request = true;
        break;
      case MsgType::LdThrough:
        request = msg.sync || msg.spin;
        break;
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::AtomicReq:
      case MsgType::StThrough:
      case MsgType::StCb1:
      case MsgType::StCb0:
        request = msg.sync;
        break;
      default:
        break;
    }
    if (!wake && !request)
        return;
    const std::uint64_t traffic =
        static_cast<std::uint64_t>(
            msg.flits(cfg_.flitBytes, cfg_.headerBytes, cfg_.lineBytes)) *
        hopCount(msg.src, msg.dst);
    if (traffic == 0)
        return; // local core<->bank delivery never enters the network
    if (wake)
        causal_->addWakeHops(traffic);
    else
        causal_->addRequestHops(traffic);
}

} // namespace cbsim
