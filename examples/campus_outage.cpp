// Campus outage drill: the §5 robustness features under fault injection.
//
//  1. The serving foreign agent crashes and loses its visiting list; the
//     next data packet bounces off the home agent, which restores the
//     foreign agent with a location update (§5.2).
//  2. A rogue implementation has wired a cycle of cache agents; an
//     injected packet circles once, is detected via the previous-source
//     list, and the loop is dissolved with invalidating updates (§5.3).
//
// Build & run:  ./build/examples/campus_outage
#include <cstdio>

#include "core/encapsulation.hpp"
#include "net/udp.hpp"
#include "scenario/figure1.hpp"

using namespace mhrp;

int main() {
  std::printf("== Part 1: foreign agent crash & recovery (paper 5.2) ==\n");
  scenario::Figure1 w;
  if (!w.register_at_d()) return 1;
  bool ok = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  std::printf("baseline ping: %s\n", ok ? "ok" : "FAILED");

  std::printf("\n*** R4 crashes and reboots: visiting list gone ***\n");
  w.fa_r4->reboot();
  std::printf("R4 visiting list has M: %s\n",
              w.fa_r4->is_visiting(w.m_address()) ? "yes" : "no");

  ok = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { ok = r.replied; }, 32,
            sim::seconds(3));
  w.topo.sim().run_for(sim::seconds(10));
  std::printf("first ping after crash: %s (the packet detoured to the home\n"
              "agent, which discarded it and restored R4 instead)\n",
              ok ? "ok" : "lost, as expected");
  std::printf("home agent discarded-for-recovery: %llu, "
              "R4 recovery re-adds: %llu, R4 visiting again: %s\n",
              (unsigned long long)w.ha->stats().discarded_for_recovery,
              (unsigned long long)w.fa_r4->stats().recovery_readds,
              w.fa_r4->is_visiting(w.m_address()) ? "yes" : "no");

  ok = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  std::printf("second ping: %s\n", ok ? "ok — service restored" : "FAILED");

  std::printf("\n== Part 2: cache-agent loop detection (paper 5.3) ==\n");
  scenario::Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  const net::IpAddress mh = net::IpAddress::parse("10.99.0.77");
  std::vector<node::Router*> routers;
  std::vector<std::unique_ptr<core::MhrpAgent>> agents;
  constexpr int kLoop = 5;
  for (int i = 0; i < kLoop; ++i) {
    auto& r = topo.add_router(scenario::numbered("C", i));
    topo.connect(r, lan, net::IpAddress::of(10, 9, 0, std::uint8_t(i + 1)),
                 24);
    routers.push_back(&r);
    core::AgentConfig config;
    config.cache_agent = true;
    config.update_min_interval = sim::millis(10);
    agents.push_back(std::make_unique<core::MhrpAgent>(r, config));
  }
  auto& injector = topo.add_host("inj");
  topo.connect(injector, lan, net::IpAddress::parse("10.9.0.100"), 24);
  topo.install_static_routes();
  for (int i = 0; i < kLoop; ++i) {
    agents[std::size_t(i)]->cache().update(
        mh, routers[std::size_t((i + 1) % kLoop)]->primary_address());
  }
  std::printf("built a %d-agent cache cycle for phantom host %s\n", kLoop,
              mh.to_string().c_str());

  core::MhrpHeader h;
  h.orig_protocol = net::to_u8(net::IpProto::kUdp);
  h.mobile_host = mh;
  util::ByteWriter writer;
  h.encode(writer);
  std::vector<std::uint8_t> payload(12, 0xEE);
  auto udp = net::encode_udp({1, 2}, payload);
  writer.bytes(udp);
  net::IpHeader iph;
  iph.protocol = net::to_u8(net::IpProto::kMhrp);
  iph.src = injector.primary_address();
  iph.dst = routers[0]->primary_address();
  iph.ttl = 255;
  injector.send_ip(net::Packet(iph, writer.take()));
  topo.sim().run_for(sim::seconds(10));

  std::uint64_t detected = 0;
  std::uint64_t retunnels = 0;
  std::size_t entries = 0;
  for (const auto& a : agents) {
    detected += a->stats().loops_detected;
    retunnels += a->stats().retunnels;
    entries += a->cache().peek(mh).has_value() ? 1 : 0;
  }
  std::printf("packet circled the loop: %llu re-tunnels before detection\n",
              (unsigned long long)retunnels);
  std::printf("loops detected: %llu; cache entries for %s remaining in the "
              "cycle: %zu\n",
              (unsigned long long)detected, mh.to_string().c_str(), entries);
  std::printf("\n\"Any such loop detected can also easily be corrected "
              "using the list in the MHRP header.\"\n");
  return 0;
}
