// The scale benches' validity rules (bench/harness.hpp): each rule trips
// on its own, and a slice that meets all three passes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.hpp"

namespace mhrp::bench {
namespace {

/// A slice exactly at every bound: 95% delivery, 95% registration, and
/// one ICMP error per drop.
scenario::ScaleRunStats at_the_bounds() {
  scenario::ScaleRunStats s;
  s.cbr_sent = 100;
  s.packets_delivered = 95;
  s.moves = 20;
  s.registrations = 19;
  s.ttl_drops = 1;
  s.arp_timeouts = 2;
  s.no_route_drops = 3;
  s.icmp_errors = 6;
  return s;
}

/// Expects exactly one problem, containing `text`.
void expect_one_problem(const scenario::ScaleRunStats& s,
                        const std::string& text) {
  const std::vector<std::string> problems = slice_problems(s);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(text), std::string::npos) << problems[0];
}

TEST(BenchHarness, SliceAtEveryBoundIsValid) {
  EXPECT_TRUE(slice_problems(at_the_bounds()).empty());
}

TEST(BenchHarness, LowDeliveryTripsOnlyTheDeliveryRule) {
  scenario::ScaleRunStats s = at_the_bounds();
  s.packets_delivered = 94;
  expect_one_problem(s, "delivered 94 of 100 CBR datagrams");
}

TEST(BenchHarness, LowRegistrationTripsOnlyTheRegistrationRule) {
  scenario::ScaleRunStats s = at_the_bounds();
  s.moves = 21;
  expect_one_problem(s, "completed 19 registrations for 21 moves");
}

TEST(BenchHarness, UnansweredIcmpErrorTripsOnlyTheIcmpRule) {
  scenario::ScaleRunStats s = at_the_bounds();
  s.icmp_errors = 7;
  expect_one_problem(s, "7 ICMP errors exceed 6 drops");
}

TEST(BenchHarness, SliceThatSentNothingIsInvalid) {
  EXPECT_EQ(slice_problems(scenario::ScaleRunStats{}).size(), 2u);
}

}  // namespace
}  // namespace mhrp::bench
