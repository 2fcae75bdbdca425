//===- net/Topology.h - Switches, hosts, links -----------------*- C++ -*-===//
//
// Part of the netupd project, reproducing "Efficient Synthesis of Network
// Updates" (McClurg et al., PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static interconnect of the network model (§3.1): switches with
/// globally-numbered ports, hosts, and directed links between locations.
/// A location is either a host or a (switch, port) pair.
///
//===----------------------------------------------------------------------===//

#ifndef NETUPD_NET_TOPOLOGY_H
#define NETUPD_NET_TOPOLOGY_H

#include "net/Packet.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace netupd {

/// A location: a host, or a (switch, port) pair.
struct Location {
  enum class Kind : uint8_t { Host, SwitchPort };

  Kind K = Kind::Host;
  HostId Host = 0;
  SwitchId Switch = 0;
  PortId Port = InvalidPort;

  static Location host(HostId H) {
    Location L;
    L.K = Kind::Host;
    L.Host = H;
    return L;
  }

  static Location switchPort(SwitchId S, PortId P) {
    Location L;
    L.K = Kind::SwitchPort;
    L.Switch = S;
    L.Port = P;
    return L;
  }

  bool isHost() const { return K == Kind::Host; }

  friend bool operator==(const Location &A, const Location &B) {
    if (A.K != B.K)
      return false;
    if (A.K == Kind::Host)
      return A.Host == B.Host;
    return A.Switch == B.Switch && A.Port == B.Port;
  }

  std::string str() const;
};

/// A directed link from one location to another ("{loc; pkts; loc'}" in the
/// model; the packet queue lives in the simulator, not here).
struct Link {
  Location From;
  Location To;
};

/// An immutable-after-construction network interconnect.
///
/// Ports are allocated by the topology and are globally unique, so an
/// atomic proposition "port = n" (see ltl/Prop.h) names exactly one
/// attachment point in the whole network.
class Topology {
public:
  /// Adds a switch; returns its id. Switch names are used by printers.
  SwitchId addSwitch(std::string Name);

  /// Adds a host; returns its id.
  HostId addHost(std::string Name);

  /// Allocates a fresh port on switch \p S; returns its global id.
  PortId addPort(SwitchId S);

  /// Adds a directed link. A switch-side \p From must name an allocated
  /// port (or InvalidPort), so the port's link record sees every link
  /// leaving it.
  void addLink(Location From, Location To);

  /// Adds a pair of directed links between two switches, allocating one
  /// fresh port on each side. Returns the (port on A, port on B) pair.
  std::pair<PortId, PortId> connectSwitches(SwitchId A, SwitchId B);

  /// Attaches host \p H to switch \p S with a bidirectional link,
  /// allocating a fresh switch port. Returns that port.
  PortId attachHost(HostId H, SwitchId S);

  unsigned numSwitches() const {
    return static_cast<unsigned>(SwitchNames.size());
  }
  unsigned numHosts() const { return static_cast<unsigned>(HostNames.size()); }
  unsigned numPorts() const { return static_cast<unsigned>(Ports.size()); }
  unsigned numLinks() const { return static_cast<unsigned>(Links.size()); }

  const std::string &switchName(SwitchId S) const {
    assert(S < SwitchNames.size() && "bad switch id");
    return SwitchNames[S];
  }
  const std::string &hostName(HostId H) const {
    assert(H < HostNames.size() && "bad host id");
    return HostNames[H];
  }

  /// Returns the switch owning global port \p P.
  SwitchId portOwner(PortId P) const {
    assert(P < Ports.size() && "bad port id");
    return Ports[P].Owner;
  }

  /// Returns all ports of switch \p S.
  const std::vector<PortId> &switchPorts(SwitchId S) const {
    assert(S < SwitchPortIds.size() && "bad switch id");
    return SwitchPortIds[S];
  }

  const std::vector<Link> &links() const { return Links; }

  /// Returns the destination of the first link leaving (switch, port), or
  /// nullptr if that port has no outgoing link. O(1) unless \p P is not an
  /// allocated port or the first link naming it leaves from another switch
  /// (links only a .repro can declare); those fall back to a scan.
  const Location *linkFrom(SwitchId S, PortId P) const;

  /// Returns all (switch, port) pairs fed directly by a host link —
  /// the network ingresses (initial Kripke states, Def. 9).
  std::vector<Location> ingressLocations() const;

  /// Returns the switch port attached to host \p H (assumes a single
  /// attachment, which every workload in this repo satisfies), or
  /// InvalidPort if the host is detached.
  PortId hostAttachment(HostId H) const;

  /// Returns the host-facing egress ports: switch ports with a link to a
  /// host.
  std::vector<Location> egressLocations() const;

private:
  std::vector<std::string> SwitchNames;
  std::vector<std::string> HostNames;
  /// One record per global port, kept in a single vector because every
  /// job copies its Topology.
  struct PortRecord {
    SwitchId Owner;
    /// 1 + index into Links of the first link whose From names this port
    /// (on any switch); 0 if none does.
    uint32_t FirstLinkPlus1;
  };
  std::vector<PortRecord> Ports;             // global port -> record
  std::vector<std::vector<PortId>> SwitchPortIds; // switch -> ports
  std::vector<Link> Links;
};

/// Canonical digest over the interconnect structure (switch/host/port
/// counts, port ownership, links). Display names are excluded so renamed
/// but otherwise identical topologies share a digest — the memoization
/// caches key on what the checkers can observe.
Digest digestOf(const Topology &T);

} // namespace netupd

#endif // NETUPD_NET_TOPOLOGY_H
