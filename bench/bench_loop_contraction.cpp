// E3 — §5.3 loop contraction. A forwarding loop of L cache agents with
// previous-source lists capped at K entries "will contract during each
// cycle by a factor of the maximum list size"; a loop small enough to be
// recorded is detected within one pass, and a packet that dies of TTL
// hands the contraction to the next packet.
//
// For each (L, K) this bench injects probes until the loop dissolves and
// reports probes used and total re-tunnels, next to the prediction that
// detection needs on the order of ceil(log_K(L)) contraction passes.
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "core/agent.hpp"
#include "core/encapsulation.hpp"
#include "net/udp.hpp"
#include "scenario/topology.hpp"

using namespace mhrp;

namespace {

struct Outcome {
  int probes = 0;
  std::uint64_t retunnels = 0;
  std::uint64_t loops_detected = 0;
  std::uint64_t overflows = 0;
  bool dissolved = false;
};

Outcome run(int loop_size, std::size_t max_list) {
  scenario::Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  const net::IpAddress mh = net::IpAddress::parse("10.99.0.77");
  std::vector<node::Router*> routers;
  std::vector<std::unique_ptr<core::MhrpAgent>> agents;
  for (int i = 0; i < loop_size; ++i) {
    auto& r = topo.add_router(scenario::numbered("C", i));
    topo.connect(r, lan, net::IpAddress::of(10, 9, std::uint8_t(i / 250),
                                            std::uint8_t(i % 250 + 1)),
                 16);
    routers.push_back(&r);
    core::AgentConfig config;
    config.cache_agent = true;
    config.max_list_length = max_list;
    config.update_min_interval = sim::millis(1);
    agents.push_back(std::make_unique<core::MhrpAgent>(r, config));
  }
  auto& injector = topo.add_host("inj");
  topo.connect(injector, lan, net::IpAddress::parse("10.9.250.250"), 16);
  topo.install_static_routes();
  for (int i = 0; i < loop_size; ++i) {
    agents[std::size_t(i)]->cache().update(
        mh, routers[std::size_t((i + 1) % loop_size)]->primary_address());
  }

  auto has_cycle = [&] {
    for (std::size_t start = 0; start < agents.size(); ++start) {
      std::set<std::uint32_t> path{
          routers[start]->primary_address().raw()};
      auto cursor = agents[start]->cache().peek(mh);
      while (cursor.has_value()) {
        if (!path.insert(cursor->raw()).second) return true;
        // Find the agent owning this address.
        core::MhrpAgent* next = nullptr;
        for (std::size_t i = 0; i < routers.size(); ++i) {
          if (routers[i]->primary_address() == *cursor) next = agents[i].get();
        }
        if (next == nullptr) break;
        cursor = next->cache().peek(mh);
      }
    }
    return false;
  };

  Outcome out;
  while (out.probes < 200 && has_cycle()) {
    ++out.probes;
    core::MhrpHeader h;
    h.orig_protocol = net::to_u8(net::IpProto::kUdp);
    h.mobile_host = mh;
    util::ByteWriter w;
    h.encode(w);
    std::vector<std::uint8_t> data(12, 0xEE);
    auto udp = net::encode_udp({1, 2}, data);
    w.bytes(udp);
    net::IpHeader iph;
    iph.protocol = net::to_u8(net::IpProto::kMhrp);
    iph.src = injector.primary_address();
    iph.dst = routers[0]->primary_address();
    iph.ttl = 255;
    injector.send_ip(net::Packet(iph, w.take()));
    topo.sim().run_for(sim::seconds(30));
  }
  out.dissolved = !has_cycle();
  for (const auto& a : agents) {
    out.retunnels += a->stats().retunnels;
    out.loops_detected += a->stats().loops_detected;
    out.overflows += a->stats().list_overflows;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("E3: loop contraction under truncated previous-source lists "
              "(§5.3)\n");
  std::printf("  %4s %4s | %7s %9s %9s %9s | %s\n", "L", "K", "probes",
              "retunnel", "overflow", "detected", "~log_K(L) passes");
  const int loop_sizes[] = {4, 8, 16, 32, 64};
  const std::size_t caps[] = {2, 4, 8, 0 /*unbounded*/};
  for (int L : loop_sizes) {
    for (std::size_t K : caps) {
      Outcome o = run(L, K);
      const double predicted =
          K == 0 ? 1.0
                 : std::max(1.0, std::ceil(std::log(double(L)) /
                                           std::log(double(K))));
      std::printf("  %4d %4s | %7d %9llu %9llu %9llu | %.0f%s\n", L,
                  K == 0 ? "inf" : std::to_string(K).c_str(), o.probes,
                  (unsigned long long)o.retunnels,
                  (unsigned long long)o.overflows,
                  (unsigned long long)o.loops_detected, predicted,
                  o.dissolved ? "" : "  [NOT DISSOLVED]");
    }
  }
  std::printf("\n  Paper: an unbounded (or large-enough) list detects the "
              "loop within one\n  pass; with a cap of K the loop shrinks "
              "each cycle until it fits, TTL\n  expiry only deferring work "
              "to the next packet.\n");
  return 0;
}
