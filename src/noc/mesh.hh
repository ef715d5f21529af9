/**
 * @file
 * 2-D mesh interconnect with deterministic X-Y routing (GARNET-inspired).
 *
 * Nodes are numbered row-major: node = y * width + x. Each node hosts a
 * core endpoint and an LLC-bank endpoint; delivery dispatches on
 * Message::dstPort. Traffic is accounted in flit-hops (the metric behind
 * the paper's "network traffic" figures) and per-message-type packets.
 *
 * Routes are precomputed: route_[at * nodes + dst] holds the next node,
 * the output direction and the remaining X-Y hop count, so a hop is a
 * table read rather than a coordinate decomposition. Meshes are capped
 * at 256 nodes (chips have at most 64 cores), which keeps each field
 * in a byte and the table at 16 KB for the 8x8 default.
 *
 * Every injected packet lives in a recycled slot of the mesh's packet
 * pool until it is delivered; hop and delivery events carry only the
 * slot index. The pool is also the record the watchdog's forensic dump
 * and the invariant checker's noc-no-leak check read, so the path they
 * observe is the one every run takes.
 */

#ifndef CBSIM_NOC_MESH_HH
#define CBSIM_NOC_MESH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "noc/message.hh"
#include "noc/router.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

class FaultInjector;
class CausalTracker;

/** Static mesh parameters (paper Table 2 defaults). */
struct NocConfig
{
    unsigned width = 8;           ///< mesh columns
    unsigned height = 8;          ///< mesh rows
    unsigned flitBytes = 16;      ///< flit size
    unsigned headerBytes = 8;     ///< control/header size
    unsigned lineBytes = 64;      ///< cache-line payload size
    Tick switchLatency = 6;       ///< switch-to-switch time (cycles)
    Tick localLatency = 1;        ///< same-node core<->bank delivery

    unsigned nodes() const { return width * height; }
};

/** An endpoint the mesh delivers messages to: an L1 or an LLC bank. */
class MessageSink
{
  public:
    virtual ~MessageSink() = default;

    /** Handle @p msg, delivered to this endpoint's (node, port). */
    virtual void handleMessage(const Message& msg) = 0;
};

/** The mesh network: one event per router hop on the chip's queue. */
class Mesh
{
  public:
    Mesh(EventQueue& eq, const NocConfig& cfg);

    /** Attach @p sink (not owned) as the endpoint @p port of @p node. */
    void attach(NodeId node, Port port, MessageSink* sink);

    /**
     * Inject @p msg at its source node; it is delivered to the sink of
     * (msg.dst, msg.dstPort) after routing latency + contention.
     */
    void send(Message msg);

    /** X-Y route hop count between two nodes (for tests/analysis). */
    unsigned hopCount(NodeId from, NodeId to) const;

    /** Minimum (contention-free) latency for a message. */
    Tick minLatency(const Message& msg) const;

    const NocConfig& config() const { return cfg_; }

    /** Total flit-hops so far (the traffic metric). */
    std::uint64_t flitHops() const { return flitHops_.value(); }

    /** Packets injected so far. */
    std::uint64_t packets() const { return packets_.value(); }

    /** Packets of @p type injected so far. */
    std::uint64_t
    packets(MsgType type) const
    {
        return packetsByType_[static_cast<std::size_t>(type)].value();
    }

    /**
     * Install the fault injector (null, the default, turns it off):
     * every injection then draws a bounded extra delay
     * (FaultPlan::nocDelay*) before the packet enters the network.
     */
    void setFaults(FaultInjector* faults) { faults_ = faults; }

    /** Packets injected and not yet delivered. */
    std::size_t inFlight() const { return pool_.size() - free_.size(); }

    /** Visit every undelivered packet: fn(msg, currentNode, injectedAt). */
    template <typename Fn>
    void
    forEachInFlight(Fn&& fn) const
    {
        for (const Packet& p : pool_) {
            if (p.live)
                fn(p.msg, p.at, p.injectedAt);
        }
    }

    /**
     * Enable causal sync-episode tracing: at injection, each sync/spin
     * request or wake/invalidation message charges its total flit×hop
     * traffic to the matching causal segment (noc_request / noc_wake).
     * Null (default) costs one compare per injection.
     */
    void setCausal(CausalTracker* causal) { causal_ = causal; }

  private:
    /** Largest mesh the route table's one-byte fields can describe. */
    static constexpr unsigned maxNodes = 256;

    /** Route-table entry for (at, dst): the first hop of the X-Y route
     *  from at to dst, and the route's length. */
    struct alignas(4) Route
    {
        std::uint8_t next = 0;  ///< node the next hop reaches
        Direction dir = Direction::Local; ///< output port taken
        std::uint8_t hops = 0;  ///< hops left to the destination
    };

    /** @p cfg, or fatal if it has no nodes or more than maxNodes. */
    static const NocConfig& checked(const NocConfig& cfg);

    const Route&
    route(NodeId at, NodeId dst) const
    {
        return route_[at * nodes_ + dst];
    }

    unsigned xOf(NodeId n) const { return n % cfg_.width; }
    unsigned yOf(NodeId n) const { return n / cfg_.width; }
    NodeId nodeAt(unsigned x, unsigned y) const
    {
        return y * cfg_.width + x;
    }

    /** Next hop (node, output direction) along the X-Y route; builds
     *  route_. */
    std::pair<NodeId, Direction> nextHop(NodeId at, NodeId dst) const;

    /** One injected packet; slots are recycled through free_. */
    struct Packet
    {
        Message msg;
        Tick injectedAt = 0;
        NodeId at = 0;       ///< router the packet last arrived at
        unsigned flits = 0;
        bool live = false;
    };

    /** Route pool_[slot] one hop onward from router @p at. */
    void hop(std::uint32_t slot, NodeId at);
    /** Free pool_[slot] and hand its message to the endpoint's sink. */
    void deliver(std::uint32_t slot);

    EventQueue& eq_;
    NocConfig cfg_;
    unsigned nodes_;
    std::vector<Route> route_;
    std::vector<Router> routers_;
    /** Endpoint of (node, port) at sinks_[node * 2 + port]; null until
     *  attached. */
    std::vector<MessageSink*> sinks_;
    std::vector<Packet> pool_;
    std::vector<std::uint32_t> free_;
    FaultInjector* faults_ = nullptr;
    CausalTracker* causal_ = nullptr;

    /** Cold path of send(): classify traffic for the causal stitcher. */
    void recordCausalTraffic(const Message& msg);

    Counter packets_;
    Counter flitHops_;
    std::array<Counter, static_cast<std::size_t>(MsgType::NumTypes)>
        packetsByType_;
};

} // namespace cbsim

#endif // CBSIM_NOC_MESH_HH
