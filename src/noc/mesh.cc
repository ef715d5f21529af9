#include "noc/mesh.hh"

#include <string>

#include "debug/fault_injection.hh"
#include "obs/causal.hh"
#include "sim/log.hh"

namespace cbsim {

const NocConfig&
Mesh::checked(const NocConfig& cfg)
{
    if (cfg.width == 0 || cfg.height == 0)
        fatal("mesh dimensions must be non-zero");
    if (cfg.width > maxNodes || cfg.height > maxNodes ||
        cfg.width * cfg.height > maxNodes) {
        fatal("mesh of ", cfg.width, "x", cfg.height,
              " exceeds the ", maxNodes, "-node limit");
    }
    return cfg;
}

Mesh::Mesh(EventQueue& eq, const NocConfig& cfg)
    : eq_(eq), cfg_(checked(cfg)), nodes_(cfg_.nodes()),
      route_(std::size_t{nodes_} * nodes_), routers_(nodes_),
      coreHandlers_(nodes_), bankHandlers_(nodes_)
{
    for (NodeId at = 0; at < nodes_; ++at) {
        for (NodeId dst = 0; dst < nodes_; ++dst) {
            const int dx = static_cast<int>(xOf(dst)) -
                           static_cast<int>(xOf(at));
            const int dy = static_cast<int>(yOf(dst)) -
                           static_cast<int>(yOf(at));
            Route& r = route_[at * nodes_ + dst];
            r.hops = static_cast<std::uint8_t>((dx < 0 ? -dx : dx) +
                                               (dy < 0 ? -dy : dy));
            if (at == dst) {
                r.next = static_cast<std::uint8_t>(at);
                continue;
            }
            const auto [next, dir] = nextHop(at, dst);
            r.next = static_cast<std::uint8_t>(next);
            r.dir = dir;
        }
    }
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
    return route(from, to).hops;
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
    const Tick extra = faults_ != nullptr ? faults_->nocDelay() : 0;

    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    Packet& p = pool_[slot];
    p.msg = std::move(msg);
    p.injectedAt = eq_.now();
    p.at = p.msg.src;
    p.live = true;

    if (p.msg.src == p.msg.dst) {
        // Same-node core<->bank traffic never enters the network.
        eq_.schedule(cfg_.localLatency + extra,
                     [this, slot] { deliver(slot); });
        return;
    }
    p.flits = p.msg.flits(cfg_.flitBytes, cfg_.headerBytes, cfg_.lineBytes);
    const NodeId src = p.msg.src;
    if (extra == 0)
        hop(slot, src);
    else
        eq_.schedule(extra, [this, slot, src] { hop(slot, src); });
}

void
Mesh::hop(std::uint32_t slot, NodeId at)
{
    Packet& p = pool_[slot];
    p.at = at;
    const Route r = route(at, p.msg.dst);
    const NodeId next = r.next;
    const Tick start = routers_[at].reserve(r.dir, eq_.now(), p.flits);
    flitHops_.inc(p.flits);
    const Tick wait = start - eq_.now();

    if (next == p.msg.dst) {
        // Final hop: account tail serialization on delivery.
        eq_.schedule(wait + cfg_.switchLatency + (p.flits - 1),
                     [this, slot] { deliver(slot); });
    } else {
        eq_.schedule(wait + cfg_.switchLatency,
                     [this, slot, next] { hop(slot, next); });
    }
}

void
Mesh::deliver(std::uint32_t slot)
{
    Packet& p = pool_[slot];
    CBSIM_ASSERT(p.live, "Mesh: double delivery of packet slot ", slot);
    // The handler may send, and a send may grow the pool: hand it a copy
    // and hold no reference into pool_ across the call.
    const Message msg = std::move(p.msg);
    p.live = false;
    free_.push_back(slot);

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
