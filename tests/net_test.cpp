//===- tests/net_test.cpp - network model tests ----------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "net/Config.h"
#include "net/Rule.h"
#include "net/Topology.h"
#include "support/Random.h"
#include "topo/Generators.h"

#include <gtest/gtest.h>

using namespace netupd;

TEST(PacketTest, HeaderAccessors) {
  Header H = makeHeader(1, 2, 3);
  EXPECT_EQ(H.get(Field::Src), 1u);
  EXPECT_EQ(H.get(Field::Dst), 2u);
  EXPECT_EQ(H.get(Field::Typ), 3u);
  H.set(Field::Typ, 9);
  EXPECT_EQ(H.get(Field::Typ), 9u);
  EXPECT_EQ(H.str(), "{src=1, dst=2, typ=9}");
}

TEST(PacketTest, FieldNames) {
  EXPECT_STREQ(fieldName(Field::Src), "src");
  EXPECT_EQ(fieldFromName("dst"), Field::Dst);
  EXPECT_FALSE(fieldFromName("nope").has_value());
}

TEST(PatternTest, WildcardMatchesEverything) {
  Pattern P = Pattern::wildcard();
  EXPECT_TRUE(P.matches(makeHeader(1, 2), 0));
  EXPECT_TRUE(P.matches(makeHeader(9, 9, 9), 77));
}

TEST(PatternTest, FieldAndPortConstraints) {
  Pattern P = Pattern::onField(Field::Dst, 5);
  EXPECT_TRUE(P.matches(makeHeader(0, 5), 3));
  EXPECT_FALSE(P.matches(makeHeader(0, 6), 3));
  P.InPort = 3;
  EXPECT_TRUE(P.matches(makeHeader(0, 5), 3));
  EXPECT_FALSE(P.matches(makeHeader(0, 5), 4));
}

TEST(TableTest, HighestPriorityWins) {
  Table T;
  Rule Low;
  Low.Priority = 1;
  Low.Pat = Pattern::wildcard();
  Low.Actions.push_back(Action::forward(1));
  Rule High;
  High.Priority = 5;
  High.Pat = Pattern::onField(Field::Dst, 2);
  High.Actions.push_back(Action::forward(2));
  T.addRule(Low);
  T.addRule(High);

  std::vector<Output> Outs = T.apply(makeHeader(1, 2), 0);
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_EQ(Outs[0].OutPort, 2u);

  // Non-matching header falls back to the wildcard rule.
  Outs = T.apply(makeHeader(1, 3), 0);
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_EQ(Outs[0].OutPort, 1u);
}

TEST(TableTest, NoMatchDrops) {
  Table T;
  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::onField(Field::Dst, 7);
  R.Actions.push_back(Action::forward(1));
  T.addRule(R);
  EXPECT_TRUE(T.apply(makeHeader(0, 0), 0).empty());
}

TEST(TableTest, SetFieldThenForward) {
  Table T;
  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::setField(Field::Typ, 1));
  R.Actions.push_back(Action::forward(4));
  T.addRule(R);
  std::vector<Output> Outs = T.apply(makeHeader(1, 2, 0), 0);
  ASSERT_EQ(Outs.size(), 1u);
  EXPECT_EQ(Outs[0].Hdr.get(Field::Typ), 1u);
  EXPECT_EQ(Outs[0].OutPort, 4u);
}

TEST(TableTest, MulticastEmitsAllForwards) {
  Table T;
  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::forward(1));
  R.Actions.push_back(Action::forward(2));
  T.addRule(R);
  EXPECT_EQ(T.apply(makeHeader(0, 0), 0).size(), 2u);
}

TEST(TableTest, RemoveRule) {
  Table T;
  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::forward(1));
  T.addRule(R);
  T.removeRule(0);
  EXPECT_TRUE(T.empty());
}

TEST(TopologyTest, PortsAreGloballyUnique) {
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  auto [PA, PB] = T.connectSwitches(A, B);
  EXPECT_NE(PA, PB);
  EXPECT_EQ(T.portOwner(PA), A);
  EXPECT_EQ(T.portOwner(PB), B);
  EXPECT_EQ(T.numPorts(), 2u);
}

TEST(TopologyTest, LinkLookup) {
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  auto [PA, PB] = T.connectSwitches(A, B);
  const Location *To = T.linkFrom(A, PA);
  ASSERT_NE(To, nullptr);
  EXPECT_EQ(To->Switch, B);
  EXPECT_EQ(To->Port, PB);
  EXPECT_EQ(T.linkFrom(A, PB), nullptr);
}

/// The first-match link scan that the per-port link record replaces.
static const Location *linkFromByScan(const Topology &T, SwitchId S,
                                      PortId P) {
  for (const Link &L : T.links())
    if (!L.From.isHost() && L.From.Switch == S && L.From.Port == P)
      return &L.To;
  return nullptr;
}

static void expectLinkFromMatchesScan(const Topology &T) {
  std::vector<PortId> Queries = {InvalidPort, T.numPorts(),
                                 T.numPorts() + 7};
  for (PortId P = 0; P != T.numPorts(); ++P)
    Queries.push_back(P);
  for (SwitchId S = 0; S != T.numSwitches(); ++S)
    for (PortId P : Queries)
      EXPECT_EQ(T.linkFrom(S, P), linkFromByScan(T, S, P))
          << "switch " << S << ", port " << P;
}

TEST(TopologyTest, LinkFromMatchesFirstMatchScan) {
  expectLinkFromMatchesScan(buildZooLike(0));
  Rng R(7);
  expectLinkFromMatchesScan(buildSmallWorld(40, 4, 0.2, R));

  // Hand-built corner cases, all accepted by parseRepro.
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  SwitchId C = T.addSwitch("c");
  HostId H = T.addHost("h");
  PortId PA = T.addPort(A);
  PortId PB = T.addPort(B);
  PortId PC = T.addPort(C);
  PortId Unwired = T.addPort(C);
  T.addLink(Location::host(H), Location::switchPort(A, PA));
  // (a) A link leaving B's port from switch C, declared before B's own.
  T.addLink(Location::switchPort(C, PB), Location::host(H));
  T.addLink(Location::switchPort(B, PB), Location::switchPort(A, PA));
  // (b) Two links leaving one port: the first must win.
  T.addLink(Location::switchPort(A, PA), Location::switchPort(B, PB));
  T.addLink(Location::switchPort(A, PA), Location::switchPort(C, PC));
  // A link leaving InvalidPort, as minimization can leave behind.
  T.addLink(Location::switchPort(C, InvalidPort), Location::host(H));
  expectLinkFromMatchesScan(T);

  const Location *FromB = T.linkFrom(B, PB);
  ASSERT_NE(FromB, nullptr);
  EXPECT_EQ(FromB->Switch, A);
  const Location *FromA = T.linkFrom(A, PA);
  ASSERT_NE(FromA, nullptr);
  EXPECT_EQ(FromA->Switch, B);
  EXPECT_TRUE(T.linkFrom(C, PB)->isHost());
  EXPECT_TRUE(T.linkFrom(C, InvalidPort)->isHost());
  // (c) An unwired port has no outgoing link.
  EXPECT_EQ(T.linkFrom(C, Unwired), nullptr);
  EXPECT_EQ(T.linkFrom(C, PC), nullptr);
}

TEST(TopologyTest, HostAttachment) {
  Topology T;
  SwitchId A = T.addSwitch("a");
  HostId H = T.addHost("h");
  PortId P = T.attachHost(H, A);
  EXPECT_EQ(T.hostAttachment(H), P);
  ASSERT_EQ(T.ingressLocations().size(), 1u);
  EXPECT_EQ(T.ingressLocations()[0].Port, P);
  ASSERT_EQ(T.egressLocations().size(), 1u);
  EXPECT_EQ(T.egressLocations()[0].Port, P);
}

TEST(ConfigTest, DiffSwitches) {
  Topology T;
  SwitchId A = T.addSwitch("a");
  SwitchId B = T.addSwitch("b");
  T.connectSwitches(A, B);
  Config C1(2), C2(2);
  EXPECT_TRUE(diffSwitches(C1, C2).empty());

  Rule R;
  R.Priority = 1;
  R.Pat = Pattern::wildcard();
  R.Actions.push_back(Action::forward(0));
  Table Tb;
  Tb.addRule(R);
  C2.setTable(B, Tb);
  std::vector<SwitchId> D = diffSwitches(C1, C2);
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0], B);
}

TEST(ConfigTest, InstallPathRoutesEndToEnd) {
  // h0 - s0 - s1 - s2 - h1: install the path and walk a packet along it.
  Topology T;
  SwitchId S0 = T.addSwitch("s0");
  SwitchId S1 = T.addSwitch("s1");
  SwitchId S2 = T.addSwitch("s2");
  T.connectSwitches(S0, S1);
  T.connectSwitches(S1, S2);
  HostId H0 = T.addHost("h0");
  HostId H1 = T.addHost("h1");
  PortId In = T.attachHost(H0, S0);
  PortId Out = T.attachHost(H1, S2);

  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg(3);
  installPath(T, Cfg, C, {S0, S1, S2}, H1);
  EXPECT_EQ(Cfg.totalRules(), 3u);

  // Walk: arrive at S0 from the host, follow the forwards to the egress.
  Header H = C.Hdr;
  PortId Port = In;
  SwitchId Sw = S0;
  for (int Hop = 0; Hop != 3; ++Hop) {
    std::vector<Output> Outs = Cfg.table(Sw).apply(H, Port);
    ASSERT_EQ(Outs.size(), 1u);
    const Location *Next = T.linkFrom(Sw, Outs[0].OutPort);
    ASSERT_NE(Next, nullptr);
    if (Next->isHost()) {
      EXPECT_EQ(Next->Host, H1);
      EXPECT_EQ(Outs[0].OutPort, Out);
      return;
    }
    Sw = Next->Switch;
    Port = Next->Port;
  }
  FAIL() << "packet did not reach the destination host";
}

TEST(ConfigTest, InstallPathIsIdempotentPerClass) {
  Topology T;
  SwitchId S0 = T.addSwitch("s0");
  SwitchId S1 = T.addSwitch("s1");
  T.connectSwitches(S0, S1);
  HostId H1 = T.addHost("h1");
  T.attachHost(H1, S1);

  TrafficClass C{makeHeader(1, 2), "c"};
  Config Cfg(2);
  installPath(T, Cfg, C, {S0, S1}, H1);
  installPath(T, Cfg, C, {S0, S1}, H1);
  EXPECT_EQ(Cfg.totalRules(), 2u); // Re-install replaces, not duplicates.
}
