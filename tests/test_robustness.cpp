// §5 robustness machinery: foreign-agent state recovery after a crash,
// routing-loop detection and dissolution, loop contraction under a
// truncated previous-source list, list overflow handling, and ICMP error
// reverse-tunneling (§4.5).
#include <gtest/gtest.h>

#include <set>

#include "core/agent.hpp"
#include "core/encapsulation.hpp"
#include "net/udp.hpp"
#include "scenario/figure1.hpp"
#include "scenario/topology.hpp"

namespace mhrp {
namespace {

using scenario::Figure1;
using scenario::Figure1Options;
using scenario::Topology;

net::IpAddress ip(const char* s) { return net::IpAddress::parse(s); }

// Craft an MHRP tunnel packet as if `from` had built it for mobile host
// `mh` and tunneled it to `to` (empty previous-source list).
net::Packet make_mhrp_probe(net::IpAddress from, net::IpAddress to,
                            net::IpAddress mh, std::uint8_t ttl = 200) {
  core::MhrpHeader h;
  h.orig_protocol = net::to_u8(net::IpProto::kUdp);
  h.mobile_host = mh;
  util::ByteWriter w;
  h.encode(w);
  std::vector<std::uint8_t> transport(12, 0xEE);
  auto udp = net::encode_udp({1000, 2000}, transport);
  w.bytes(udp);

  net::IpHeader iph;
  iph.protocol = net::to_u8(net::IpProto::kMhrp);
  iph.src = from;
  iph.dst = to;
  iph.ttl = ttl;
  net::Packet p(iph, w.take());
  p.set_base_payload_size(udp.size());
  return p;
}

// ---- §5.2 foreign agent state recovery ----

TEST(Robustness, FaRebootRecoversThroughHomeAgentUpdate) {
  Figure1 w;
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);

  // R4 loses its visiting list.
  w.fa_r4->reboot();
  ASSERT_FALSE(w.fa_r4->is_visiting(w.m_address()));

  // S's next packet tunnels to R4, which has forgotten M: it re-tunnels
  // to M's home; the HA finds R4 among the handlers, discards the packet
  // (the first ping is lost) and restores R4 with a location update.
  bool first = true;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { first = r.replied; },
            32, sim::seconds(3));
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_FALSE(first);
  EXPECT_GE(w.ha->stats().discarded_for_recovery, 1u);
  EXPECT_GE(w.fa_r4->stats().recovery_readds, 1u);
  EXPECT_TRUE(w.fa_r4->is_visiting(w.m_address()));

  bool second = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { second = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_TRUE(second);
}

// With protocol.fa_verify_recovery_with_arp, a rebooted R4 believes the
// home agent's recovery update only if M answers an ARP query on cell D.
// Registers M at D and warms S's cache, lets M leave D silently when
// `m_departs`, reboots R4, and lets S's next ping draw the update.
void reboot_r4_under_arp_verification(Figure1& w, bool m_departs) {
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);

  if (m_departs) w.m->detach();
  w.fa_r4->reboot();
  ASSERT_FALSE(w.fa_r4->is_visiting(w.m_address()));
  w.s->ping(w.m_address(), [](const node::Host::PingResult&) {}, 32,
            sim::seconds(3));
  w.topo.sim().run_for(sim::seconds(5));
  // The update did arrive: the HA discarded the bounced ping for it.
  EXPECT_GE(w.ha->stats().discarded_for_recovery, 1u);
}

Figure1Options verify_recovery_with_arp() {
  Figure1Options options;
  options.protocol.fa_verify_recovery_with_arp = true;
  return options;
}

TEST(Robustness, FaRebootWithArpVerification) {
  // M is still on D, answers the query, and is re-added.
  Figure1 w(verify_recovery_with_arp());
  ASSERT_NO_FATAL_FAILURE(
      reboot_r4_under_arp_verification(w, /*m_departs=*/false));
  EXPECT_EQ(w.fa_r4->stats().recovery_readds, 1u);
  EXPECT_TRUE(w.fa_r4->is_visiting(w.m_address()));
}

TEST(Robustness, ArpVerifiedRecoveryIgnoresADepartedHost) {
  // R4's ARP entry for M was learned before the reboot, and neither a
  // reboot nor time clears it; only a fresh answer may count, so R4 must
  // not re-add the departed M.
  Figure1 w(verify_recovery_with_arp());
  ASSERT_NO_FATAL_FAILURE(
      reboot_r4_under_arp_verification(w, /*m_departs=*/true));
  EXPECT_EQ(w.fa_r4->stats().recovery_readds, 0u);
  EXPECT_FALSE(w.fa_r4->is_visiting(w.m_address()));
}

TEST(Robustness, FaRebootBroadcastSpeedsReregistration) {
  // §5.2 optional speedup: the rebooted FA broadcasts a re-register
  // query on its cell, and M re-registers with no traffic to repair the
  // data path. Without the option nothing prompts M to.
  auto reregisters_after_reboot = [](bool broadcast) {
    Figure1Options options;
    options.protocol.fa_reregister_broadcast_on_reboot = broadcast;
    Figure1 w(options);
    EXPECT_TRUE(w.register_at_d());
    const std::uint64_t before = w.m->stats().registrations_completed;
    w.fa_r4->reboot();
    w.topo.sim().run_for(sim::seconds(5));
    return w.m->stats().registrations_completed == before + 1 &&
           w.fa_r4->is_visiting(w.m_address());
  };
  EXPECT_TRUE(reregisters_after_reboot(true));
  EXPECT_FALSE(reregisters_after_reboot(false));
}

// ---- §5.3 loop detection ----

// A LAN of cache-agent routers whose caches are poisoned into a cycle.
struct LoopWorld {
  Topology topo;
  std::vector<node::Router*> routers;
  std::vector<std::unique_ptr<core::MhrpAgent>> agents;
  node::Host* injector;
  net::IpAddress mh = net::IpAddress::parse("10.99.0.77");

  LoopWorld(int size, std::size_t max_list) {
    auto& lan = topo.add_link("lan", sim::millis(1));
    for (int i = 0; i < size; ++i) {
      auto& r = topo.add_router(scenario::numbered("C", i));
      topo.connect(r, lan, net::IpAddress::of(10, 9, 0, std::uint8_t(i + 1)),
                   24);
      routers.push_back(&r);
      core::AgentConfig config;
      config.cache_agent = true;
      config.max_list_length = max_list;
      config.update_min_interval = sim::millis(10);
      agents.push_back(std::make_unique<core::MhrpAgent>(r, config));
    }
    injector = &topo.add_host("inj");
    topo.connect(*injector, lan, ip("10.9.0.100"), 24);
    topo.install_static_routes();
    // Poison: Ci points to C(i+1) mod size.
    for (int i = 0; i < size; ++i) {
      agents[std::size_t(i)]->cache().update(
          mh, routers[std::size_t((i + 1) % size)]->primary_address());
    }
  }

  void inject() {
    injector->send_ip(make_mhrp_probe(injector->primary_address(),
                                      routers[0]->primary_address(), mh));
  }

  [[nodiscard]] std::uint64_t total_loops_detected() const {
    std::uint64_t n = 0;
    for (const auto& a : agents) n += a->stats().loops_detected;
    return n;
  }
  [[nodiscard]] std::size_t agents_with_entry() const {
    std::size_t n = 0;
    for (const auto& a : agents) {
      if (a->cache().peek(mh).has_value()) ++n;
    }
    return n;
  }

  /// Does following cache entries from any agent revisit a node — i.e.
  /// does a forwarding cycle still exist? (§5.3 dissolution breaks the
  /// cycle; entries pointing into the now-acyclic remainder are repaired
  /// later by the normal home-agent path and are not part of the claim.)
  [[nodiscard]] bool has_cache_cycle() const {
    auto index_of = [&](net::IpAddress a) -> int {
      for (std::size_t i = 0; i < routers.size(); ++i) {
        if (routers[i]->primary_address() == a) return static_cast<int>(i);
      }
      return -1;
    };
    for (std::size_t start = 0; start < agents.size(); ++start) {
      std::set<std::size_t> path{start};
      std::size_t cursor = start;
      while (true) {
        auto next = agents[cursor]->cache().peek(mh);
        if (!next.has_value()) break;
        int idx = index_of(*next);
        if (idx < 0) break;
        if (!path.insert(static_cast<std::size_t>(idx)).second) return true;
        cursor = static_cast<std::size_t>(idx);
      }
    }
    return false;
  }
};

TEST(Robustness, LoopDetectedWithinOneCycleWhenListIsLargeEnough) {
  LoopWorld w(/*size=*/4, /*max_list=*/8);
  w.inject();
  w.topo.sim().run_for(sim::seconds(10));
  EXPECT_EQ(w.total_loops_detected(), 1u);
  // §5.3 dissolution: every member deleted its cache entry.
  EXPECT_EQ(w.agents_with_entry(), 0u);
}

TEST(Robustness, LoopContractsUnderTruncatedListAndEventuallyDissolves) {
  // Loop of 6, list capped at 2: one pass cannot record the loop; the
  // §4.4 overflow updates shortcut members until it fits.
  LoopWorld w(/*size=*/6, /*max_list=*/2);
  ASSERT_TRUE(w.has_cache_cycle());
  std::uint64_t overflows = 0;
  for (int attempt = 0; attempt < 10 && w.has_cache_cycle(); ++attempt) {
    w.inject();
    w.topo.sim().run_for(sim::seconds(5));
  }
  for (const auto& a : w.agents) overflows += a->stats().list_overflows;
  EXPECT_GE(w.total_loops_detected(), 1u);
  EXPECT_GE(overflows, 1u);  // the contraction mechanism actually ran
  EXPECT_FALSE(w.has_cache_cycle());
}

TEST(Robustness, TtlBoundsEachLoopPass) {
  // A packet injected with a tiny TTL dies in the loop without detection
  // (list too small), but is counted; the network does not melt.
  LoopWorld w(/*size=*/8, /*max_list=*/2);
  w.injector->send_ip(make_mhrp_probe(w.injector->primary_address(),
                                      w.routers[0]->primary_address(), w.mh,
                                      /*ttl=*/6));
  w.topo.sim().run_for(sim::seconds(10));
  std::uint64_t ttl_drops = 0;
  for (const auto& a : w.agents) ttl_drops += a->stats().retunnel_ttl_drops;
  EXPECT_EQ(ttl_drops, 1u);
}

// ---- §4.4 list overflow on a (non-loop) chain of stale agents ----

TEST(Robustness, ListOverflowFlushesUpdatesToEarlyHandlers) {
  Topology topo;
  auto& lan = topo.add_link("lan", sim::millis(1));
  const net::IpAddress mh = ip("10.9.0.77");

  std::vector<node::Router*> chain;
  std::vector<std::unique_ptr<core::MhrpAgent>> agents;
  for (int i = 0; i < 4; ++i) {
    auto& r = topo.add_router(scenario::numbered("C", i));
    topo.connect(r, lan, net::IpAddress::of(10, 9, 0, std::uint8_t(i + 1)),
                 24);
    chain.push_back(&r);
    core::AgentConfig config;
    config.cache_agent = true;
    config.foreign_agent = (i == 3);  // the last is the real FA
    config.max_list_length = 2;
    config.update_min_interval = sim::millis(10);
    agents.push_back(std::make_unique<core::MhrpAgent>(r, config));
  }
  agents[3]->serve_on(*chain[3]->interfaces().front());
  // The mobile host itself, attached to the same LAN, visiting agent 3.
  auto& m = topo.add_host("M0");
  topo.connect(m, lan, mh, 24);
  auto& injector = topo.add_host("inj");
  topo.connect(injector, lan, ip("10.9.0.100"), 24);
  topo.install_static_routes();

  // Stale chain C0→C1→C2→C3.
  for (int i = 0; i < 3; ++i) {
    agents[std::size_t(i)]->cache().update(
        mh, chain[std::size_t(i + 1)]->primary_address());
  }
  // C3 "recovers" M as a visitor via a §5.2-style update.
  net::IpHeader h;
  h.protocol = net::to_u8(net::IpProto::kIcmp);
  h.dst = chain[3]->primary_address();
  injector.send_ip(net::Packet(
      h, net::encode_icmp(net::IcmpLocationUpdate{
             mh, chain[3]->primary_address(), false})));
  topo.sim().run_for(sim::seconds(2));
  ASSERT_TRUE(agents[3]->is_visiting(mh));

  bool delivered = false;
  m.bind_udp(2000, [&](const net::UdpDatagram&, const net::IpHeader&,
                       net::Interface&) { delivered = true; });
  injector.send_ip(make_mhrp_probe(injector.primary_address(),
                                   chain[0]->primary_address(), mh));
  topo.sim().run_for(sim::seconds(10));

  EXPECT_TRUE(delivered);
  // The injected list was empty; C0 appends injector, C1 appends C0, C2
  // hits the 2-entry cap: overflow at C2.
  EXPECT_EQ(agents[2]->stats().list_overflows, 1u);
  // The flushed member C0 was pointed at C2's tunnel target (C3).
  auto c0_entry = agents[0]->cache().peek(mh);
  ASSERT_TRUE(c0_entry.has_value());
  EXPECT_EQ(*c0_entry, chain[3]->primary_address());
}

// ---- §4.5 ICMP error reverse-tunneling ----

struct ErrorWorld {
  Figure1 w;
  explicit ErrorWorld(std::size_t quote_limit)
      : w([&] {
          Figure1Options options;
          options.protocol.icmp_quote_limit = quote_limit;
          return options;
        }()) {}
};

TEST(Robustness, FullQuoteErrorsReverseTheTunnelChain) {
  // Full quotes: S tunnels to R4 (forwarding pointer to R5), R5 is dead;
  // the unreachable error reverses R4's re-tunnel, reaches S as a plain
  // quote, and both R4's pointer and S's entry are invalidated.
  ErrorWorld ew(0);
  Figure1& w = ew.w;
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);
  ASSERT_TRUE(w.register_at_e());
  ASSERT_TRUE(w.fa_r4->cache().peek(w.m_address()).has_value());

  // Kill R5: detach both its interfaces so nothing reaches it, and clear
  // R4's ARP cache toward network C so the next-hop resolution genuinely
  // fails (a stale ARP entry would drop the frame silently instead).
  for (const auto& iface : w.r5->interfaces()) {
    if (iface->attached()) iface->link()->detach(*iface);
  }
  w.r4->arp_table(*w.r4->interface_named("eth0")).clear();

  bool replied = true;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { replied = r.replied; },
            32, sim::seconds(8));
  w.topo.sim().run_for(sim::seconds(20));
  EXPECT_FALSE(replied);
  EXPECT_GE(w.fa_r4->stats().errors_reversed, 1u);
  EXPECT_FALSE(w.fa_r4->cache().peek(w.m_address()).has_value());
  EXPECT_FALSE(w.agent_s->cache().peek(w.m_address()).has_value());
}

TEST(Robustness, TruncatedQuoteOnlyInvalidatesCache) {
  // Default 28-byte quotes cannot be reversed (§4.5: "little can be done
  // by a cache agent beyond deleting its cache entry").
  ErrorWorld ew(28);
  Figure1& w = ew.w;
  ASSERT_TRUE(w.register_at_d());
  bool warm = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { warm = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  ASSERT_TRUE(warm);
  ASSERT_TRUE(w.register_at_e());

  for (const auto& iface : w.r5->interfaces()) {
    if (iface->attached()) iface->link()->detach(*iface);
  }
  w.r4->arp_table(*w.r4->interface_named("eth0")).clear();

  bool replied = true;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { replied = r.replied; },
            32, sim::seconds(8));
  w.topo.sim().run_for(sim::seconds(20));
  EXPECT_FALSE(replied);
  EXPECT_EQ(w.fa_r4->stats().errors_reversed, 0u);
  EXPECT_GE(w.fa_r4->stats().cache_error_invalidations, 1u);
  EXPECT_FALSE(w.fa_r4->cache().peek(w.m_address()).has_value());
}

}  // namespace
}  // namespace mhrp
