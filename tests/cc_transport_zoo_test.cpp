// The transport zoo's contracts (src/cc/policy + the new transports):
//
//  * porting DCQCN / DCQCN-adaptive / TIMELY onto the shared policy core
//    (cc/policy/{observation,cadence,slab}.h) changed ZERO observable bytes —
//    golden FNV-1a hashes of rates + finish times + full JSONL trace captured
//    on the pre-port seed are pinned here;
//  * branch-complete goldens pin the DCQCN, TIMELY and Swift rate machines
//    (each has one kernel; these hashes were captured while a second,
//    reference kernel still agreed with it bit for bit), and were shown to
//    fail on planted mutants of branches the older contest never reached;
//  * the decision-cadence edge cases hold: flows that start with no RTT
//    sample yet produce finite rates, and a cadence longer than the whole
//    burst window makes zero decisions instead of a partial-interval one;
//  * every new transport's rate machine (Swift, BBR-lite, table) serializes
//    deterministically, including its RNG stream, and record / replay-verify
//    checkpointing is byte-identical for every new transport — the library
//    half of the SIGKILL + --resume contract CI exercises end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cc/factory.h"
#include "cc_contest.h"
#include "ckpt/checkpoint.h"
#include "ckpt/snapshot.h"
#include "cluster/scenario.h"
#include "net/network.h"
#include "obs/sinks.h"
#include "obs/trace_bus.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace ccml {
namespace {

CcPolicyTable tiny_table() {
  std::istringstream in(
      "ccml-cc-table v1\n"
      "cadence_us 30\n"
      "bins rtt_us 40 80\n"
      "bins ecn 0.05\n"
      "rule 2 * * * 0.7\n"
      "rule * * 1 * 0.85\n"
      "rule 0 * 0 * 1.05 5\n"
      "default 1.0 2\n");
  return CcPolicyTable::parse(in);
}

TransportConfig table_transports() {
  TransportConfig tc;
  tc.table.table = tiny_table();
  return tc;
}

// --- Branch-complete goldens ------------------------------------------------

struct Golden {
  const char* name;
  PolicyKind kind;
  TransportConfig tc;
  Contest contest;
  std::uint64_t hash;        ///< ContestResult::hash
  std::uint64_t state_hash;  ///< FNV-1a of the final serialize_state()
};

std::vector<Golden> goldens() {
  // 4.25 Mbps on the 50 Gbps bottleneck: below the 10 Mbps floor that
  // DCQCN's decrease, TIMELY's min_rate and Swift's min_rate clamp to.
  Contest brownout;
  brownout.brownout_factor = 4.25e6 / 50e9;
  Contest fused;
  fused.observe = false;
  Contest fused_brownout = brownout;
  fused_brownout.observe = false;
  // One 8 MB aggressive flow against one long meek flow that recovers
  // alone once the aggressive flow is done: 50 MB with no CNP fills five
  // byte-counter rounds, and with five timer rounds DCQCN enters hyper
  // increase below line rate.
  Contest recovery;
  recovery.rounds = 1;
  recovery.meek_size = Bytes::mega(400);
  recovery.tail = Duration::millis(150);

  TransportConfig bernoulli;
  bernoulli.dcqcn.deterministic_marking = false;
  TransportConfig jitter;
  jitter.swift.target_jitter_us = 3.0;
  // A TIMELY band from the base RTT up: the RTT never drops below t_low, so
  // every decision takes the gradient branches, queues push it past t_high,
  // and draining queues give the falling gradients that reach hyper
  // additive increase.
  TransportConfig tight_timely;
  tight_timely.timely.t_low = Duration::micros(20);
  tight_timely.timely.t_high = Duration::micros(40);

  return {
      // The first three run hashes were captured before the policy
      // subsystem existed: a mismatch there means a change of DCQCN /
      // TIMELY behaviour, not just of their plumbing.
      {"dcqcn", PolicyKind::kDcqcn, {}, {},
       0x379fc0c60a6dfaf1ULL, 0xf4b17bf7f7e34188ULL},
      {"dcqcn-adaptive", PolicyKind::kDcqcnAdaptive, {}, {},
       0x09085310be36bad6ULL, 0xd7b662502d8f4b73ULL},
      {"timely", PolicyKind::kTimely, {}, {},
       0xab782057066d798cULL, 0xfc81a8f17c579798ULL},
      {"mltcp-timely", PolicyKind::kMltcpTimely, {}, {},
       0x7e2913de59abe801ULL, 0x33aa5235176679b4ULL},
      {"swift", PolicyKind::kSwift, {}, {},
       0x1fa388745c740585ULL, 0x0395604f8b04a463ULL},
      {"swift-jitter", PolicyKind::kSwift, jitter, {},
       0xd519be6ea6b39ee0ULL, 0x04859de4a5b9e3f7ULL},
      {"mltcp-swift", PolicyKind::kMltcpSwift, {}, {},
       0x469ea0c21992d9d7ULL, 0x2f1182a3c4f6eb85ULL},
      {"dcqcn-bernoulli", PolicyKind::kDcqcn, bernoulli, {},
       0xc3e16a26ac725204ULL, 0x922400014e7717ddULL},
      {"dcqcn-brownout", PolicyKind::kDcqcn, {}, brownout,
       0x46251153ef605be9ULL, 0xbe7a75cd503b59d9ULL},
      {"timely-brownout", PolicyKind::kTimely, {}, brownout,
       0x8c58ce9005a35faaULL, 0x9dae567e6c26d123ULL},
      {"swift-brownout", PolicyKind::kSwift, {}, brownout,
       0x8ba64d4043ad0bafULL, 0xcad42dce17cbd869ULL},
      {"dcqcn-fused", PolicyKind::kDcqcn, {}, fused,
       0xce68ec476fd9a455ULL, 0xf4b17bf7f7e34188ULL},
      {"dcqcn-fused-brownout", PolicyKind::kDcqcn, {}, fused_brownout,
       0x662b53882f0ee524ULL, 0xbe7a75cd503b59d9ULL},
      {"mltcp-dcqcn-fused", PolicyKind::kMltcpDcqcn, {}, fused,
       0x734cdbcda144598fULL, 0xd7b662502d8f4b73ULL},
      {"timely-fused-brownout", PolicyKind::kTimely, {}, fused_brownout,
       0xe448308a996da85cULL, 0x9dae567e6c26d123ULL},
      {"mltcp-swift-fused", PolicyKind::kMltcpSwift, {}, fused,
       0x39c3ddb2783c7d27ULL, 0x2f1182a3c4f6eb85ULL},
      {"dcqcn-recovery", PolicyKind::kDcqcn, {}, recovery,
       0x7b5af14c701be53aULL, 0xdb245545ddde4fe0ULL},
      {"timely-tight", PolicyKind::kTimely, tight_timely, {},
       0x669164cd1f6ee9f3ULL, 0x97241ec8d8720529ULL},
      {"mltcp-timely-tight", PolicyKind::kMltcpTimely, tight_timely, {},
       0x39f1b6560baa1dccULL, 0x3dac33fad6723751ULL},
  };
}

TEST(TransportZoo, BranchCompleteGoldens) {
  // Each entry pins rates, finish times, trace and rate-machine state of
  // one transport variant; together they reach every branch of the
  // DCQCN, TIMELY and Swift rate machines.  A mismatch prints the table row
  // to paste back after a deliberate behaviour change.
  for (const Golden& g : goldens()) {
    const ContestResult r = run_contest(g.kind, g.tc, g.contest);
    const std::uint64_t state_hash =
        fnv1a(r.cc_state.data(), r.cc_state.size());
    EXPECT_EQ(r.hash, g.hash) << g.name;
    EXPECT_EQ(state_hash, g.state_hash) << g.name;
    if (r.hash != g.hash || state_hash != g.state_hash) {
      std::printf("golden row: {\"%s\", ..., 0x%016llxULL, 0x%016llxULL}\n",
                  g.name, static_cast<unsigned long long>(r.hash),
                  static_cast<unsigned long long>(state_hash));
    }
  }
}

// --- Decision-cadence edge cases -------------------------------------------

TEST(TransportZoo, ZeroRttStartupProducesFiniteRates) {
  // The first decision after flow start has no previous RTT sample; the
  // gradient must come out zero, not NaN, for every transport that uses it.
  for (const PolicyKind kind :
       {PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpSwift}) {
    const ContestResult r = run_contest(
        kind, kind == PolicyKind::kTable ? table_transports()
                                         : TransportConfig{});
    EXPECT_EQ(r.finish_ms.size(), 6u) << to_string(kind);
    for (const double s : r.samples) {
      ASSERT_TRUE(std::isfinite(s) && s > 0.0)
          << to_string(kind) << " produced rate " << s;
    }
  }
}

TEST(TransportZoo, CadenceLongerThanBurstWindowMakesNoDecision) {
  // With the decision interval stretched past the whole run, the cadence
  // gate must simply never fire: rates stay at their flow-start value for
  // the entire burst (no partial-interval decision, no since_ns artifact)
  // and the flows still complete.
  TransportConfig tc;
  tc.swift.update_interval = Duration::millis(500);
  const ContestResult r = run_contest(PolicyKind::kSwift, tc);
  EXPECT_EQ(r.finish_ms.size(), 6u);
  ASSERT_FALSE(r.samples.empty());
  for (const double s : r.samples) {
    EXPECT_EQ(s, r.samples.front());
  }
}

// --- RNG + serialization determinism ---------------------------------------

TEST(TransportZoo, RngStateRoundTripsExactly) {
  Rng a(42);
  for (int i = 0; i < 100; ++i) a.uniform();
  const std::string state = a.save_state();
  std::vector<double> ahead;
  for (int i = 0; i < 32; ++i) ahead.push_back(a.uniform());

  Rng b(7);  // different seed, fully overwritten by load_state
  ASSERT_TRUE(b.load_state(state));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(b.uniform(), ahead[static_cast<std::size_t>(i)]);
  }
}

TEST(TransportZoo, NewTransportsSerializeDeterministically) {
  // Two identical contests must produce byte-identical serialize_state()
  // payloads — including the RNG stream position — or checkpoint verify
  // could never hold.  BBR draws its probe-cycle offset per flow and the
  // table policy draws exploration jitter per decision, so this covers
  // every new rate machine's RNG usage.
  for (const PolicyKind kind :
       {PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpSwift}) {
    const TransportConfig tc =
        kind == PolicyKind::kTable ? table_transports() : TransportConfig{};
    const ContestResult once = run_contest(kind, tc);
    const ContestResult twice = run_contest(kind, tc);
    EXPECT_FALSE(once.cc_state.empty()) << to_string(kind);
    EXPECT_EQ(once.cc_state, twice.cc_state) << to_string(kind);
    EXPECT_EQ(once.hash, twice.hash) << to_string(kind);
  }
}

// --- Checkpoint record / replay-verify per new transport --------------------

JobProfile toy(double compute_ms, double comm_ms) {
  return ModelZoo::synthetic(
      "toy", Duration::from_millis_f(compute_ms),
      Rate::gbps(42.5) * Duration::from_millis_f(comm_ms));
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("ccml_transport_zoo_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(TransportZoo, EveryNewTransportRecordsAndReplayVerifies) {
  // The scenario snapshot's "cc" section is the transport's serialized rate
  // machine; replay from the latest checkpoint must verify byte-identically
  // for every transport the zoo added (the library half of the CLI's
  // SIGKILL + --resume test in CI).
  for (const PolicyKind kind :
       {PolicyKind::kSwift, PolicyKind::kBbr, PolicyKind::kTable,
        PolicyKind::kMltcpDcqcn, PolicyKind::kMltcpTimely,
        PolicyKind::kMltcpSwift}) {
    const std::string label = to_string(kind);
    const std::string dir = fresh_dir(label);
    const std::vector<ScenarioJob> jobs = {{"a", toy(40, 20)},
                                           {"b", toy(60, 25)}};
    ScenarioConfig cfg;
    cfg.policy = kind;
    if (kind == PolicyKind::kTable) cfg.transports = table_transports();
    cfg.duration = Duration::seconds(2);

    CheckpointCoordinator ck(CheckpointCoordinator::Options{
        Duration::millis(400), dir, "zoo-spec",
        CheckpointCoordinator::Mode::kRecord, {}, 0});
    cfg.checkpoint = &ck;
    run_dumbbell_scenario(jobs, cfg);
    ASSERT_GE(ck.snapshots_taken(), 1u) << label;

    const Snapshot snap = Snapshot::load(dir + "/latest.ccml");
    EXPECT_FALSE(snap.get("cc").empty()) << label;

    const auto cursor = CheckpointCoordinator::read_cursor(snap);
    CheckpointCoordinator rk(CheckpointCoordinator::Options{
        Duration::millis(400), fresh_dir(label + "_replay"), "zoo-spec",
        CheckpointCoordinator::Mode::kReplayVerify, snap, cursor.seq});
    ScenarioConfig cfg2 = cfg;
    cfg2.checkpoint = &rk;
    run_dumbbell_scenario(jobs, cfg2);
    EXPECT_TRUE(rk.verified()) << label;
  }
}

// --- Factory + registry diagnostics -----------------------------------------

TEST(TransportZoo, UnknownTransportErrorListsTheRegistry) {
  try {
    parse_policy_kind("cubic");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* name : {"dcqcn", "timely", "swift", "bbr", "table",
                             "mltcp-dcqcn", "mltcp-swift"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(TransportZoo, TableTransportWithoutTableThrows) {
  EXPECT_THROW(make_policy(PolicyKind::kTable, TransportConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ccml
