/**
 * @file
 * Mesh tests: X-Y routing distances, latency model, point-to-point
 * ordering (a protocol correctness prerequisite), contention,
 * flit-hop accounting, and the in-flight packet pool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "noc/mesh.hh"

namespace cbsim {
namespace {

/** Test endpoint: forwards each delivered message to a callable. */
struct FnSink : MessageSink
{
    std::function<void(const Message&)> fn;

    explicit FnSink(std::function<void(const Message&)> f)
        : fn(std::move(f))
    {
    }

    void handleMessage(const Message& msg) override { fn(msg); }
};

struct MeshFixture : ::testing::Test
{
    EventQueue eq;
    NocConfig cfg;
    std::deque<FnSink> sinks;
    std::unique_ptr<Mesh> mesh;

    /** Attach @p fn as the endpoint (@p node, @p port) of the mesh. */
    void
    attach(NodeId node, Port port, std::function<void(const Message&)> fn)
    {
        mesh->attach(node, port, &sinks.emplace_back(std::move(fn)));
    }

    void
    build(unsigned w = 8, unsigned h = 8)
    {
        cfg.width = w;
        cfg.height = h;
        mesh = std::make_unique<Mesh>(eq, cfg);
    }

    Message
    msg(NodeId src, NodeId dst, MsgType t = MsgType::GetS)
    {
        Message m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.dstPort = Port::Bank;
        return m;
    }
};

TEST_F(MeshFixture, HopCountIsManhattanDistance)
{
    build();
    EXPECT_EQ(mesh->hopCount(0, 0), 0u);
    EXPECT_EQ(mesh->hopCount(0, 7), 7u);   // same row
    EXPECT_EQ(mesh->hopCount(0, 56), 7u);  // same column
    EXPECT_EQ(mesh->hopCount(0, 63), 14u); // opposite corner
    EXPECT_EQ(mesh->hopCount(9, 18), 2u);  // (1,1) -> (2,2)
}

TEST_F(MeshFixture, DeliveryLatencyMatchesModel)
{
    build();
    Tick arrival = 0;
    attach(63, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 63));
    eq.run();
    // 14 hops * 6 cycles, single-flit control message, no contention.
    EXPECT_EQ(arrival, 14u * 6u);
    EXPECT_EQ(arrival, mesh->minLatency(msg(0, 63)));
}

TEST_F(MeshFixture, DataMessagePaysSerialization)
{
    build();
    Tick arrival = 0;
    attach(1, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 1, MsgType::Data));
    eq.run();
    // 1 hop * 6 + (5 flits - 1) tail serialization.
    EXPECT_EQ(arrival, 6u + 4u);
}

TEST_F(MeshFixture, LocalDeliveryBypassesNetwork)
{
    build();
    Tick arrival = 0;
    attach(5, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(5, 5));
    eq.run();
    EXPECT_EQ(arrival, cfg.localLatency);
    EXPECT_EQ(mesh->flitHops(), 0u); // never entered the network
}

TEST_F(MeshFixture, FlitHopAccounting)
{
    build();
    attach(3, Port::Bank, [](const Message&) {});
    mesh->send(msg(0, 3));                 // 3 hops x 1 flit
    mesh->send(msg(0, 3, MsgType::Data));  // 3 hops x 5 flits
    eq.run();
    EXPECT_EQ(mesh->flitHops(), 3u + 15u);
    EXPECT_EQ(mesh->packets(), 2u);
    EXPECT_EQ(mesh->packets(MsgType::GetS), 1u);
    EXPECT_EQ(mesh->packets(MsgType::Data), 1u);
    // Every packet is counted under exactly one type.
    std::uint64_t byType = 0;
    for (std::size_t t = 0; t < static_cast<std::size_t>(MsgType::NumTypes);
         ++t)
        byType += mesh->packets(static_cast<MsgType>(t));
    EXPECT_EQ(byType, mesh->packets());
}

TEST_F(MeshFixture, PointToPointOrderingHolds)
{
    // Same source, same destination: X-Y routing + FCFS links must keep
    // message order (the MESI L1 relies on Data-before-Inv ordering).
    build();
    std::vector<std::uint64_t> order;
    attach(10, Port::Core, [&](const Message& m) {
        order.push_back(m.txn);
    });
    for (std::uint64_t i = 0; i < 20; ++i) {
        Message m = msg(0, 10);
        m.dstPort = Port::Core;
        m.txn = i;
        // Mix sizes so serialization could reorder if the model allowed.
        m.type = i % 3 == 0 ? MsgType::Data : MsgType::Inv;
        mesh->send(m);
    }
    eq.run();
    ASSERT_EQ(order.size(), 20u);
    for (std::uint64_t i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(MeshFixture, ContentionDelaysSecondPacket)
{
    build();
    std::vector<Tick> arrivals;
    attach(1, Port::Bank,
                 [&](const Message&) { arrivals.push_back(eq.now()); });
    // Two 5-flit data packets over the same link, injected together.
    mesh->send(msg(0, 1, MsgType::Data));
    mesh->send(msg(0, 1, MsgType::Data));
    eq.run();
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 10u);
    // Second starts crossing after the first's 5-cycle link occupancy.
    EXPECT_EQ(arrivals[1], 15u);
}

TEST_F(MeshFixture, CrossTrafficDoesNotInterfere)
{
    build();
    Tick a = 0, b = 0;
    attach(1, Port::Bank, [&](const Message&) { a = eq.now(); });
    attach(15, Port::Bank, [&](const Message&) { b = eq.now(); });
    mesh->send(msg(0, 1));
    mesh->send(msg(8, 15)); // different row, disjoint links
    eq.run();
    EXPECT_EQ(a, 6u);
    EXPECT_EQ(b, 7u * 6u);
}

TEST_F(MeshFixture, UnattachedEndpointPanics)
{
    build(2, 2);
    mesh->send(msg(0, 3));
    EXPECT_THROW(eq.run(), PanicError);
}

TEST_F(MeshFixture, SmallMeshWorks)
{
    build(2, 2);
    Tick arrival = 0;
    attach(3, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 3));
    eq.run();
    EXPECT_EQ(arrival, 2u * 6u);
}

TEST_F(MeshFixture, InFlightPacketIsListedAtItsCurrentRouter)
{
    build();
    attach(63, Port::Bank, [](const Message&) {});
    Message m = msg(0, 63);
    m.txn = 42;
    mesh->send(m);
    // X first: the packet reaches routers 1, 2, 3 at ticks 6, 12, 18.
    std::size_t inFlight = 0;
    std::vector<std::tuple<std::uint64_t, NodeId, Tick>> listed;
    eq.schedule(15, [&] {
        inFlight = mesh->inFlight();
        mesh->forEachInFlight(
            [&](const Message& p, NodeId at, Tick injected) {
                listed.emplace_back(p.txn, at, injected);
            });
    });
    eq.run();
    EXPECT_EQ(inFlight, 1u);
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0], std::make_tuple(std::uint64_t{42}, NodeId{2},
                                         Tick{0}));
    EXPECT_EQ(mesh->inFlight(), 0u);
}

TEST_F(MeshFixture, HandlerMaySendWhileThePoolGrows)
{
    // The first delivery's handler sends 1,000 packets, growing the
    // pool under its own feet; the message it was handed must stay
    // intact (the ASan tier runs this) and every packet must arrive.
    build();
    constexpr unsigned kBurst = 1000;
    unsigned arrived = 0;
    std::uint64_t seenAfterBurst = 0;
    attach(9, Port::Core, [&](const Message&) { ++arrived; });
    attach(5, Port::Bank, [&](const Message& trigger) {
        for (unsigned i = 0; i < kBurst; ++i) {
            Message m = msg(5, 9);
            m.dstPort = Port::Core;
            m.txn = i;
            mesh->send(m);
        }
        seenAfterBurst = trigger.txn;
    });
    Message trigger = msg(0, 5);
    trigger.txn = 7;
    mesh->send(trigger);
    eq.run();
    EXPECT_EQ(seenAfterBurst, 7u);
    EXPECT_EQ(arrived, kBurst);
    EXPECT_EQ(mesh->inFlight(), 0u);
}

TEST_F(MeshFixture, ZeroDimensionIsFatal)
{
    NocConfig bad;
    bad.width = 0;
    EXPECT_THROW(Mesh(eq, bad), FatalError);
}

TEST_F(MeshFixture, OverLargeMeshIsFatal)
{
    NocConfig bad;
    bad.width = 17; // 272 nodes: past the route table's 256
    bad.height = 16;
    EXPECT_THROW(Mesh(eq, bad), FatalError);
}

/**
 * The route table against the X-Y model on square, odd and degenerate
 * meshes: for every (src, dst) pair the hop count is the Manhattan
 * distance and a lone packet arrives at exactly minLatency.
 */
TEST_F(MeshFixture, RouteTableMatchesManhattanOnEveryPair)
{
    for (auto [w, h] : {std::pair{8u, 8u}, std::pair{3u, 3u},
                        std::pair{5u, 3u}, std::pair{1u, 7u}}) {
        cfg.width = w;
        cfg.height = h;
        mesh = std::make_unique<Mesh>(eq, cfg);
        Tick arrival = 0;
        for (NodeId n = 0; n < w * h; ++n) {
            attach(n, Port::Bank,
                         [&](const Message&) { arrival = eq.now(); });
        }
        for (NodeId src = 0; src < w * h; ++src) {
            for (NodeId dst = 0; dst < w * h; ++dst) {
                const int dx = static_cast<int>(dst % w) -
                               static_cast<int>(src % w);
                const int dy = static_cast<int>(dst / w) -
                               static_cast<int>(src / w);
                EXPECT_EQ(mesh->hopCount(src, dst),
                          static_cast<unsigned>(std::abs(dx) +
                                                std::abs(dy)))
                    << w << "x" << h << " " << src << "->" << dst;
                const Message m = msg(src, dst, MsgType::Data);
                const Tick sent = eq.now();
                mesh->send(m);
                eq.run();
                EXPECT_EQ(arrival - sent, mesh->minLatency(m))
                    << w << "x" << h << " " << src << "->" << dst;
            }
        }
    }
}

} // namespace
} // namespace cbsim
