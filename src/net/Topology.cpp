//===- net/Topology.cpp - Switches, hosts, links ---------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//

#include "net/Topology.h"

#include "support/Strings.h"

using namespace netupd;

std::string Location::str() const {
  if (K == Kind::Host)
    return format("host(%u)", Host);
  return format("(sw %u, pt %u)", Switch, Port);
}

SwitchId Topology::addSwitch(std::string Name) {
  SwitchId Id = static_cast<SwitchId>(SwitchNames.size());
  SwitchNames.push_back(std::move(Name));
  SwitchPortIds.emplace_back();
  return Id;
}

HostId Topology::addHost(std::string Name) {
  HostId Id = static_cast<HostId>(HostNames.size());
  HostNames.push_back(std::move(Name));
  return Id;
}

PortId Topology::addPort(SwitchId S) {
  assert(S < SwitchPortIds.size() && "bad switch id");
  PortId P = static_cast<PortId>(Ports.size());
  Ports.push_back(PortRecord{S, 0});
  SwitchPortIds[S].push_back(P);
  return P;
}

void Topology::addLink(Location From, Location To) {
  assert((From.isHost() || From.Port < Ports.size() ||
          From.Port == InvalidPort) &&
         "link leaves an unallocated port");
  if (!From.isHost() && From.Port < Ports.size()) {
    uint32_t &First = Ports[From.Port].FirstLinkPlus1;
    if (First == 0)
      First = static_cast<uint32_t>(Links.size()) + 1;
  }
  Links.push_back(Link{From, To});
}

std::pair<PortId, PortId> Topology::connectSwitches(SwitchId A, SwitchId B) {
  PortId PA = addPort(A);
  PortId PB = addPort(B);
  addLink(Location::switchPort(A, PA), Location::switchPort(B, PB));
  addLink(Location::switchPort(B, PB), Location::switchPort(A, PA));
  return {PA, PB};
}

PortId Topology::attachHost(HostId H, SwitchId S) {
  PortId P = addPort(S);
  addLink(Location::host(H), Location::switchPort(S, P));
  addLink(Location::switchPort(S, P), Location::host(H));
  return P;
}

const Location *Topology::linkFrom(SwitchId S, PortId P) const {
  // Links before a port's first link never leave that port, so the scan
  // (kept for InvalidPort and for links leaving a port from a switch that
  // does not own it) can start there.
  size_t Begin = 0;
  if (P < Ports.size()) {
    uint32_t First = Ports[P].FirstLinkPlus1;
    if (First == 0)
      return nullptr;
    const Link &L = Links[First - 1];
    if (L.From.Switch == S)
      return &L.To;
    Begin = First;
  }
  for (size_t I = Begin, E = Links.size(); I != E; ++I) {
    const Link &L = Links[I];
    if (!L.From.isHost() && L.From.Switch == S && L.From.Port == P)
      return &L.To;
  }
  return nullptr;
}

std::vector<Location> Topology::ingressLocations() const {
  std::vector<Location> Ingresses;
  for (const Link &L : Links)
    if (L.From.isHost() && !L.To.isHost())
      Ingresses.push_back(L.To);
  return Ingresses;
}

PortId Topology::hostAttachment(HostId H) const {
  for (const Link &L : Links)
    if (L.From.isHost() && L.From.Host == H && !L.To.isHost())
      return L.To.Port;
  return InvalidPort;
}

std::vector<Location> Topology::egressLocations() const {
  std::vector<Location> Egresses;
  for (const Link &L : Links)
    if (!L.From.isHost() && L.To.isHost())
      Egresses.push_back(L.From);
  return Egresses;
}

Digest netupd::digestOf(const Topology &T) {
  DigestBuilder B;
  B.addU64(T.numSwitches());
  B.addU64(T.numHosts());
  B.addU64(T.numPorts());
  for (PortId P = 0; P != T.numPorts(); ++P)
    B.addU32(T.portOwner(P));
  B.addU64(T.numLinks());
  for (const Link &L : T.links())
    for (const Location &Loc : {L.From, L.To}) {
      B.addBool(Loc.isHost());
      if (Loc.isHost())
        B.addU32(Loc.Host);
      else {
        B.addU32(Loc.Switch);
        B.addU32(Loc.Port);
      }
    }
  return B.finish();
}
