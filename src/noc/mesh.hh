/**
 * @file
 * 2-D mesh interconnect with deterministic X-Y routing (GARNET-inspired).
 *
 * Nodes are numbered row-major: node = y * width + x. Each node hosts a
 * core endpoint and an LLC-bank endpoint; delivery dispatches on
 * Message::dstPort. Traffic is accounted in flit-hops (the metric behind
 * the paper's "network traffic" figures) and per-message-type packets.
 */

#ifndef CBSIM_NOC_MESH_HH
#define CBSIM_NOC_MESH_HH

#include <array>
#include <functional>
#include <vector>

#include "noc/message.hh"
#include "noc/router.hh"
#include "obs/registry.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace cbsim {

class NocTracker;
class FaultInjector;
struct CausalShard;

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

/** Receives messages delivered to an endpoint. */
using MessageHandler = std::function<void(const Message&)>;

/** The mesh network: one event per router hop on the chip's queue. */
class Mesh
{
  public:
    Mesh(EventQueue& eq, const NocConfig& cfg, const StatsScope& scope);

    /** Attach the handler for @p port of node @p node. */
    void attach(NodeId node, Port port, MessageHandler handler);

    /**
     * Inject @p msg at its source node; it is delivered to the handler of
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

    /**
     * Install debug hooks (either may be null). With both null — the
     * default — send() takes the original untracked path after two
     * pointer compares, so production runs stay byte-identical.
     * @p tracker records in-flight messages for forensics/leak checks;
     * @p faults adds bounded injection delays (FaultPlan::nocDelay*).
     */
    void
    setDebug(NocTracker* tracker, FaultInjector* faults)
    {
        tracker_ = tracker;
        faults_ = faults;
    }

    const NocTracker* tracker() const { return tracker_; }

    /**
     * Enable causal sync-episode tracing: at injection, each sync/spin
     * request or wake/invalidation message charges its total flit×hop
     * traffic to the matching causal segment (noc_request / noc_wake).
     * Null (default) costs one compare per injection.
     */
    void setCausal(CausalShard* causal) { causal_ = causal; }

  private:
    // X-Y decomposition runs twice per routed hop (millions of times
    // per run), and a division by the runtime mesh width costs tens of
    // cycles; mask/shift when the width is a power of two (all
    // power-of-four core counts — 9/25/49-core meshes keep the
    // div/mod).
    unsigned
    xOf(NodeId n) const
    {
        return widthPow2_ ? (n & (cfg_.width - 1)) : (n % cfg_.width);
    }
    unsigned
    yOf(NodeId n) const
    {
        return widthPow2_ ? (n >> widthShift_) : (n / cfg_.width);
    }
    NodeId nodeAt(unsigned x, unsigned y) const
    {
        return y * cfg_.width + x;
    }

    /** Next hop (node, output direction) along the X-Y route. */
    std::pair<NodeId, Direction> nextHop(NodeId at, NodeId dst) const;

    void hop(Message msg, NodeId at, unsigned flits);
    void deliver(const Message& msg);

    /** Cold path of send(): tracking and/or fault delay enabled. */
    void sendDebug(Message msg);
    void hopDebug(Message msg, NodeId at, unsigned flits,
                  std::uint32_t slot);

    EventQueue& eq_;
    NocConfig cfg_;
    bool widthPow2_;      ///< mesh width is a power of two
    unsigned widthShift_; ///< log2(width), widthPow2_ only
    std::vector<Router> routers_;
    std::vector<MessageHandler> coreHandlers_;
    std::vector<MessageHandler> bankHandlers_;
    NocTracker* tracker_ = nullptr;
    FaultInjector* faults_ = nullptr;
    CausalShard* causal_ = nullptr;

    /** Cold path of send(): classify traffic for the causal stitcher. */
    void recordCausalTraffic(const Message& msg);

    Counter packets_;
    Counter flitHops_;
    Counter localDeliveries_;
    std::array<Counter, static_cast<std::size_t>(MsgType::NumTypes)>
        packetsByType_;
    /** X-Y route length of each remote packet (locality). */
    Histogram hopDistance_;
};

} // namespace cbsim

#endif // CBSIM_NOC_MESH_HH
