/**
 * @file
 * Mesh tests: X-Y routing distances, latency model, point-to-point
 * ordering (a protocol correctness prerequisite), contention, and
 * flit-hop accounting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/mesh.hh"

namespace cbsim {
namespace {

struct MeshFixture : ::testing::Test
{
    EventQueue eq;
    StatsRegistry stats;
    NocConfig cfg;
    std::unique_ptr<Mesh> mesh;

    void
    build(unsigned w = 8, unsigned h = 8)
    {
        cfg.width = w;
        cfg.height = h;
        mesh = std::make_unique<Mesh>(eq, cfg, stats.scope("noc"));
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
    mesh->attach(63, Port::Bank, [&](const Message&) { arrival = eq.now(); });
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
    mesh->attach(1, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 1, MsgType::Data));
    eq.run();
    // 1 hop * 6 + (5 flits - 1) tail serialization.
    EXPECT_EQ(arrival, 6u + 4u);
}

TEST_F(MeshFixture, LocalDeliveryBypassesNetwork)
{
    build();
    Tick arrival = 0;
    mesh->attach(5, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(5, 5));
    eq.run();
    EXPECT_EQ(arrival, cfg.localLatency);
    EXPECT_EQ(mesh->flitHops(), 0u); // never entered the network
}

TEST_F(MeshFixture, FlitHopAccounting)
{
    build();
    mesh->attach(3, Port::Bank, [](const Message&) {});
    mesh->send(msg(0, 3));                 // 3 hops x 1 flit
    mesh->send(msg(0, 3, MsgType::Data));  // 3 hops x 5 flits
    eq.run();
    EXPECT_EQ(mesh->flitHops(), 3u + 15u);
    EXPECT_EQ(stats.counter("noc.packets"), 2u);
    EXPECT_EQ(stats.counter("noc.packets.GetS"), 1u);
    EXPECT_EQ(stats.counter("noc.packets.Data"), 1u);
}

TEST_F(MeshFixture, PointToPointOrderingHolds)
{
    // Same source, same destination: X-Y routing + FCFS links must keep
    // message order (the MESI L1 relies on Data-before-Inv ordering).
    build();
    std::vector<std::uint64_t> order;
    mesh->attach(10, Port::Core, [&](const Message& m) {
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
    mesh->attach(1, Port::Bank,
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
    mesh->attach(1, Port::Bank, [&](const Message&) { a = eq.now(); });
    mesh->attach(15, Port::Bank, [&](const Message&) { b = eq.now(); });
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
    mesh->attach(3, Port::Bank, [&](const Message&) { arrival = eq.now(); });
    mesh->send(msg(0, 3));
    eq.run();
    EXPECT_EQ(arrival, 2u * 6u);
}

TEST_F(MeshFixture, ZeroDimensionIsFatal)
{
    NocConfig bad;
    bad.width = 0;
    EXPECT_THROW(Mesh(eq, bad, stats.scope("noc2")), FatalError);
}

} // namespace
} // namespace cbsim
