// E5 — foreign agent state recovery (§5.2). The serving FA crashes and
// forgets its visiting list. Three recovery configurations are compared:
//
//   optimistic   — the FA re-adds the visitor on the home agent's
//                  location update, "believing the home agent";
//   ARP-verified — the FA first elicits an ARP reply from the mobile
//                  host ("a query message onto its local network");
//   broadcast    — after reboot the FA broadcasts a re-register query so
//                  visitors reconnect before any data packet suffers.
//
// Reported per configuration: packets lost before service resumes and
// the time from crash to restored delivery, under a steady 50 ms ping
// stream.
#include <cstdio>

#include "scenario/figure1.hpp"

using namespace mhrp;

namespace {

struct Result {
  int lost = 0;
  double recovery_s = -1;
  std::uint64_t readds = 0;
  std::uint64_t discards = 0;
  bool ok = false;
};

Result run(bool verify_arp, bool broadcast) {
  scenario::Figure1Options options;
  options.protocol.fa_verify_recovery_with_arp = verify_arp;
  options.protocol.fa_reregister_broadcast_on_reboot = broadcast;
  scenario::Figure1 w(options);
  Result result;
  if (!w.register_at_d()) return result;

  // Warm the sender's cache.
  bool ok = false;
  w.s->ping(w.m_address(),
            [&](const node::Host::PingResult& r) { ok = r.replied; });
  w.topo.sim().run_for(sim::seconds(10));
  if (!ok) return result;

  const sim::Time crash_at = w.topo.sim().now();
  w.fa_r4->reboot();

  // Steady ping stream until delivery resumes.
  for (int attempt = 0; attempt < 100; ++attempt) {
    bool replied = false;
    w.s->ping(w.m_address(),
              [&](const node::Host::PingResult& r) { replied = r.replied; },
              32, sim::millis(900));
    w.topo.sim().run_for(sim::seconds(1));
    if (replied) {
      result.recovery_s = sim::to_seconds(w.topo.sim().now() - crash_at);
      result.ok = true;
      break;
    }
    ++result.lost;
  }
  result.readds = w.fa_r4->stats().recovery_readds;
  result.discards = w.ha->stats().discarded_for_recovery;
  return result;
}

}  // namespace

int main() {
  std::printf("E5: foreign agent reboot recovery (§5.2), 1 ping per second\n\n");
  std::printf("  %-24s | %6s %12s %8s %10s\n", "configuration", "lost",
              "recovery", "re-adds", "HA discards");
  struct Config {
    const char* name;
    bool verify;
    bool broadcast;
  };
  for (const Config& config : {Config{"optimistic re-add", false, false},
                               Config{"ARP-verified re-add", true, false},
                               Config{"re-register broadcast", false, true}}) {
    Result r = run(config.verify, config.broadcast);
    if (!r.ok) {
      std::printf("  %-24s | did not recover\n", config.name);
      continue;
    }
    std::printf("  %-24s | %6d %10.2f s %8llu %10llu\n", config.name, r.lost,
                r.recovery_s, (unsigned long long)r.readds,
                (unsigned long long)r.discards);
  }
  std::printf(
      "\n  Paper: the update-driven repair loses (only) the packets that\n"
      "  arrive before the first one completes the HA round trip; the\n"
      "  broadcast option shortcuts even that by having visitors\n"
      "  re-register before data arrives.\n");
  return 0;
}
