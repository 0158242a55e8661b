// Tests for the fault-injection subsystem: plan determinism, structural
// mutant well-formedness, JSON round-trips, the protocol-fault decorator,
// the symbolic-MC column's ability to falsify a mutant, and the full
// campaign's mutation score / false-alarm gate at 1 and 2 banks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/verilog.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace la1 {
namespace {

rtl::Module flat_device(int banks) {
  core::RtlConfig cfg;
  cfg.banks = banks;
  core::RtlDevice dev = core::build_device(cfg);
  return dev.flatten();
}

TEST(FaultPlan, SameSeedSamePlan) {
  const rtl::Module flat = flat_device(2);
  fault::PlanOptions opt;
  const auto a = fault::plan_faults(flat, opt, 42);
  const auto b = fault::plan_faults(flat, opt, 42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(),
            static_cast<std::size_t>(opt.structural + opt.protocol));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(FaultPlan, DifferentSeedDifferentPlan) {
  const rtl::Module flat = flat_device(2);
  fault::PlanOptions opt;
  const auto a = fault::plan_faults(flat, opt, 1);
  const auto b = fault::plan_faults(flat, opt, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    any_difference = any_difference || !(a[i] == b[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, CoversBothLayersAndAllStructuralKinds) {
  const rtl::Module flat = flat_device(1);
  fault::PlanOptions opt;
  opt.structural = 10;
  opt.protocol = 4;
  const auto plan = fault::plan_faults(flat, opt, 1);
  std::set<fault::FaultKind> kinds;
  for (const fault::FaultSpec& s : plan) kinds.insert(s.kind);
  for (fault::FaultKind k :
       {fault::FaultKind::kStuckAt0, fault::FaultKind::kStuckAt1,
        fault::FaultKind::kInvertedDriver, fault::FaultKind::kBitFlip,
        fault::FaultKind::kDroppedUpdate, fault::FaultKind::kCorruptReadData,
        fault::FaultKind::kGlitchBankSelect, fault::FaultKind::kDroppedTransfer,
        fault::FaultKind::kDelayedTransfer}) {
    EXPECT_TRUE(kinds.count(k)) << "plan lacks kind " << fault::to_string(k);
  }
}

TEST(FaultSpec, JsonRoundTrip) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kBitFlip;
  spec.net = "bank1.word";
  spec.bit = 7;
  spec.cycle = 152;
  const fault::FaultSpec back = fault::FaultSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, back);
  EXPECT_EQ(back.id(), "bitflip:bank1.word[7]@152");
}

TEST(FaultSpec, KindNamesRoundTrip) {
  for (fault::FaultKind k :
       {fault::FaultKind::kStuckAt0, fault::FaultKind::kStuckAt1,
        fault::FaultKind::kInvertedDriver, fault::FaultKind::kBitFlip,
        fault::FaultKind::kDroppedUpdate, fault::FaultKind::kCorruptReadData,
        fault::FaultKind::kGlitchBankSelect, fault::FaultKind::kDroppedTransfer,
        fault::FaultKind::kDelayedTransfer}) {
    EXPECT_EQ(fault::fault_kind_from_string(fault::to_string(k)), k);
  }
  EXPECT_THROW(fault::fault_kind_from_string("meltdown"),
               std::invalid_argument);
}

// Every structural mutant must stay a well-formed netlist: the
// bit-blaster and the Verilog emitter both have to accept it.
TEST(ApplyStructural, MutantsStayWellFormed) {
  const rtl::Module pristine = flat_device(1);
  fault::PlanOptions opt;
  const auto plan = fault::plan_faults(pristine, opt, 5);
  int applied = 0;
  for (const fault::FaultSpec& spec : plan) {
    if (!fault::is_structural(spec.kind)) continue;
    rtl::Module mutant = flat_device(1);
    fault::apply_structural(mutant, spec);
    const rtl::Module expanded = rtl::expand_memories(mutant);
    EXPECT_NO_THROW(rtl::bitblast(expanded, core::clock_schedule(mutant)))
        << spec.id();
    EXPECT_FALSE(rtl::to_verilog(mutant).empty()) << spec.id();
    ++applied;
  }
  EXPECT_EQ(applied, opt.structural);
}

TEST(ApplyStructural, RejectsProtocolKindsAndUnknownNets) {
  rtl::Module flat = flat_device(1);
  fault::FaultSpec protocol;
  protocol.kind = fault::FaultKind::kDroppedTransfer;
  EXPECT_THROW(fault::apply_structural(flat, protocol), std::invalid_argument);
  fault::FaultSpec unknown;
  unknown.kind = fault::FaultKind::kStuckAt0;
  unknown.net = "bank0.no_such_reg";
  EXPECT_THROW(fault::apply_structural(flat, unknown), std::invalid_argument);
}

// The symbolic column must be able to falsify a mutant, not just run:
// stuck-at-1 on addr_captured_q forces P3's antecedent true forever, so
// `always (addr_captured_q -> next[1] write_commit_q)` must fail.
TEST(SymbolicColumn, CatchesStuckAt1OnAddrCaptured) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  rtl::Module flat = dev.flatten();
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kStuckAt1;
  spec.net = "bank0.addr_captured_q";
  fault::apply_structural(flat, spec);
  const rtl::Module expanded = rtl::expand_memories(flat);
  const rtl::BitBlast bb = rtl::bitblast(expanded, core::clock_schedule(flat));

  bool falsified = false;
  for (const auto& [name, prop] : core::rtl_properties(cfg)) {
    if (name.rfind("P3_", 0) != 0) continue;
    const mc::SymbolicResult r = mc::check(bb, prop, mc::SymbolicOptions{});
    falsified = r.verdict.kind == mc::Verdict::Kind::kFalsified;
    EXPECT_FALSE(r.trace.empty());
  }
  EXPECT_TRUE(falsified);
}

// The campaign compiles each catalog row once and checks it through the
// Observer overload of mc::check; the property overload is the preflight
// lint plus build_observer in front of it. On every 2-bank row, over the
// stock blast and every structural mutant the benchmark plan (seed 1)
// draws, the two must report the same verdict and the same BDD work.
TEST(SymbolicColumn, ObserverOverloadMatchesPropertyOverload) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(2);
  fault::PlanOptions popt;
  popt.structural = 20;
  popt.protocol = 4;
  const std::vector<fault::FaultSpec> plan =
      fault::plan_faults(flat_device(2), popt, 1);
  std::vector<const fault::FaultSpec*> designs{nullptr};  // nullptr: stock
  for (const fault::FaultSpec& spec : plan) {
    if (fault::is_structural(spec.kind)) designs.push_back(&spec);
  }
  ASSERT_EQ(designs.size(), 21u);

  const auto suite = core::rtl_properties(cfg);
  std::vector<mc::Observer> observers;
  for (const auto& [name, prop] : suite) {
    observers.push_back(mc::build_observer(prop));
  }
  // The campaign's node and iteration caps without its wall clock, so both
  // overloads stop at the same point and the order retry stays reachable.
  mc::SymbolicOptions sopt;
  sopt.budget.bdd_nodes = 500'000;
  sopt.budget.max_cycles = 64;
  for (const fault::FaultSpec* spec : designs) {
    rtl::Module flat = core::build_device(cfg).flatten();
    if (spec != nullptr) fault::apply_structural(flat, *spec);
    const rtl::Module expanded = rtl::expand_memories(flat);
    const rtl::BitBlast bb = rtl::bitblast(expanded, core::clock_schedule(flat));
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const std::string at =
          suite[i].first + " on " + (spec != nullptr ? spec->id() : "stock");
      const mc::SymbolicResult a = mc::check(bb, observers[i], sopt);
      const mc::SymbolicResult b = mc::check(bb, suite[i].second, sopt);
      EXPECT_EQ(a.verdict.kind, b.verdict.kind) << at;
      EXPECT_EQ(a.verdict.depth, b.verdict.depth) << at;
      EXPECT_EQ(a.verdict.retries, b.verdict.retries) << at;
      EXPECT_EQ(a.iterations, b.iterations) << at;
      EXPECT_EQ(a.peak_bdd_nodes, b.peak_bdd_nodes) << at;
      EXPECT_EQ(a.created_bdd_nodes, b.created_bdd_nodes) << at;
    }
  }
}

// The campaign's MC budget without its wall clock, so a check stops at the
// same point on every run.
mc::Budget deterministic_mc_budget() {
  mc::Budget budget;
  budget.bdd_nodes = 500'000;
  budget.max_cycles = 64;
  return budget;
}

// McSuite pruning: every (fault, row) pair must_check lets through takes
// the row's stock result, so a real check of the mutant must agree with it
// on everything the report or a budget reads. Over 1, 2 and 4 banks and
// seeds 1 and 2004, on every structural fault of a 20-fault plan.
class McPruning : public ::testing::TestWithParam<int> {};

TEST_P(McPruning, InheritedResultsEqualRealMutantChecks) {
  const int banks = GetParam();
  const mc::Budget budget = deterministic_mc_budget();
  const fault::McSuite suite(banks, budget);
  mc::SymbolicOptions sopt;
  sopt.budget = budget;
  fault::PlanOptions popt;
  popt.structural = 20;
  popt.protocol = 0;
  int inherited = 0;
  int checked = 0;
  for (const std::uint64_t seed : {1, 2004}) {
    for (const fault::FaultSpec& spec :
         fault::plan_faults(flat_device(banks), popt, seed)) {
      const rtl::BitBlast mutant = fault::mc_blast(banks, &spec);
      for (const fault::McRow& row : suite.rows) {
        if (suite.must_check(row, spec)) {
          ++checked;
          continue;
        }
        ++inherited;
        const std::string at = row.name + " on " + spec.id();
        const mc::SymbolicResult r = mc::check(mutant, row.observer, sopt);
        EXPECT_EQ(r.verdict.kind, row.stock.verdict.kind) << at;
        EXPECT_EQ(r.verdict.depth, row.stock.verdict.depth) << at;
        EXPECT_EQ(r.verdict.retries, row.stock.verdict.retries) << at;
        EXPECT_EQ(r.iterations, row.stock.iterations) << at;
        EXPECT_EQ(r.peak_bdd_nodes, row.stock.peak_bdd_nodes) << at;
        EXPECT_EQ(r.created_bdd_nodes, row.stock.created_bdd_nodes) << at;
      }
    }
  }
  // Both sides of the rule are exercised, and pruning is the common case.
  EXPECT_GT(checked, 0);
  EXPECT_GT(inherited, checked);
}

INSTANTIATE_TEST_SUITE_P(Banks, McPruning, ::testing::Values(1, 2, 4));

// Only a fault the rule knows rewrites nothing but a register of the stock
// blast may inherit: a name outside the stock registers (absent, or a net
// that is no register) lies in no cone, yet every row must still check it;
// so must a kind that is not known to rewrite its target alone.
TEST(McPruning, UnknownTargetsAndKindsAreNeverPruned) {
  const fault::McSuite suite(1, deterministic_mc_budget());
  const rtl::BitBlast stock = fault::mc_blast(1, nullptr);
  std::string wire;  // a net of the blast that is no register
  for (const auto& [net, bits] : stock.net_bits) {
    if (!std::binary_search(suite.registers.begin(), suite.registers.end(),
                            net)) {
      wire = net;
      break;
    }
  }
  ASSERT_FALSE(wire.empty());
  // A stock register outside some row's cone: pruned there when the kind
  // allows it.
  const std::string reg = suite.registers.front();
  bool pruned_somewhere = false;
  for (const fault::McRow& row : suite.rows) {
    pruned_somewhere |=
        !suite.must_check(row, {fault::FaultKind::kStuckAt0, reg, 0, 0});
  }
  ASSERT_TRUE(pruned_somewhere) << reg;

  const std::vector<fault::FaultSpec> never = {
      {fault::FaultKind::kStuckAt0, "bank0.no_such_reg", 0, 0},
      {fault::FaultKind::kBitFlip, wire, 0, 3},
      {fault::FaultKind::kCorruptReadData, reg, 0, 1},
  };
  for (const fault::FaultSpec& spec : never) {
    for (const fault::McRow& row : suite.rows) {
      EXPECT_TRUE(suite.must_check(row, spec)) << row.name << " " << spec.id();
    }
  }
}

// The protocol decorator corrupts only the wrapped model's observation:
// the inner device keeps simulating, and lockstep against a pristine
// reference sees the divergence.
TEST(ProtocolFaultModel, CorruptsReadDataAgainstReference) {
  core::RtlConfig cfg;
  cfg.banks = 1;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCorruptReadData;
  spec.cycle = 0;
  fault::ProtocolFaultModel mutant(
      std::make_unique<harness::RtlDeviceModel>(cfg), spec);
  harness::RtlDeviceModel reference(cfg);
  mutant.reset();
  reference.reset();

  harness::Transactor tx(reference.geometry());
  harness::Stimulus read;
  read.read = true;
  read.read_addr = 3;
  bool diverged = false;
  for (int tick = 0; tick < 32; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(tick % 2);
    if (edge == harness::Edge::kK) tx.enqueue(read);
    const harness::EdgePins pins = tx.next(edge);
    reference.apply_edge(pins);
    mutant.apply_edge(pins);
    const harness::DoutSample a = reference.dout();
    const harness::DoutSample b = mutant.dout();
    if (!(a == b)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

core::Config behavioural_config(const harness::Geometry& g) {
  core::Config cfg;
  cfg.banks = g.banks;
  cfg.data_bits = g.data_bits;
  cfg.addr_bits = g.mem_addr_bits + cfg.bank_bits();
  return cfg;
}

struct PairRun {
  int diverging_ticks = 0;
  bool memory_equal = true;
};

/// Drives a pristine behavioural reference and a ProtocolFaultModel-wrapped
/// twin through `txns` plus `idle_cycles_after` drain cycles, counting the
/// ticks where their read-data buses disagree.
PairRun run_against_reference(const harness::Geometry& g,
                              const fault::FaultSpec& spec,
                              const std::vector<harness::Stimulus>& txns,
                              int idle_cycles_after) {
  harness::BehavioralDeviceModel reference(behavioural_config(g));
  fault::ProtocolFaultModel mutant(
      std::make_unique<harness::BehavioralDeviceModel>(behavioural_config(g)),
      spec);
  reference.reset();
  mutant.reset();
  harness::Transactor tx(g);
  const int cycles = static_cast<int>(txns.size()) + idle_cycles_after;
  PairRun run;
  for (int tick = 0; tick < 2 * cycles; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(tick % 2);
    if (edge == harness::Edge::kK) {
      const std::size_t k = static_cast<std::size_t>(tick) / 2;
      if (k < txns.size()) tx.enqueue(txns[k]);
    }
    const harness::EdgePins pins = tx.next(edge);
    reference.apply_edge(pins);
    mutant.apply_edge(pins);
    if (!(reference.dout() == mutant.dout())) ++run.diverging_ticks;
  }
  for (int bank = 0; bank < g.banks; ++bank) {
    for (std::uint64_t a = 0; a < g.mem_depth(); ++a) {
      run.memory_equal = run.memory_equal &&
                         reference.memory_word(bank, a) ==
                             mutant.memory_word(bank, a);
    }
  }
  return run;
}

// The delayed read suppressed on the stream's very last transaction replays
// on a K cycle past end-of-stream: the divergence only shows up during the
// drain, and the fault must not corrupt memory.
TEST(ProtocolFaultModel, DelayedTransferAtEndOfStream) {
  harness::Geometry g;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kDelayedTransfer;
  spec.cycle = 0;
  harness::Stimulus w;
  w.write = true;
  w.write_addr = 1;
  w.write_word = 0xABCD;
  harness::Stimulus r;
  r.read = true;
  r.read_addr = 1;
  const PairRun run = run_against_reference(g, spec, {w, r}, 8);
  EXPECT_GT(run.diverging_ticks, 0);
  EXPECT_TRUE(run.memory_equal);
}

// A select glitch activated exactly on the final transaction redirects that
// read into the wrong bank; the earlier writes (captured on K#, which the
// glitch never touches) must land where they were aimed.
TEST(ProtocolFaultModel, GlitchedBankSelectOnFinalTransaction) {
  harness::Geometry g;
  g.banks = 2;  // addr_bits = 3, so bit 2 is the bank select the glitch flips
  harness::Stimulus w0;
  w0.write = true;
  w0.write_addr = 1;
  w0.write_word = 0x1111;
  harness::Stimulus w1;
  w1.write = true;
  w1.write_addr = 1 | (1ull << 2);
  w1.write_word = 0x2222;
  harness::Stimulus idle;
  harness::Stimulus r;
  r.read = true;
  r.read_addr = 1;
  const std::vector<harness::Stimulus> txns = {w0, w1, idle, idle, r};
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kGlitchBankSelect;
  spec.cycle = static_cast<int>(txns.size()) - 1;  // only the final read
  const PairRun run = run_against_reference(g, spec, txns, 8);
  EXPECT_GT(run.diverging_ticks, 0);
  EXPECT_TRUE(run.memory_equal);
}

// With no transfers at all, none of the protocol faults has anything to
// corrupt: a zero-length stimulus must stay divergence-free through both
// the raw edge loop and the official lockstep path.
TEST(ProtocolFaultModel, ZeroLengthStimulusNeverActivates) {
  harness::Geometry g;
  for (fault::FaultKind kind :
       {fault::FaultKind::kCorruptReadData, fault::FaultKind::kGlitchBankSelect,
        fault::FaultKind::kDroppedTransfer,
        fault::FaultKind::kDelayedTransfer}) {
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.cycle = 0;
    const PairRun run = run_against_reference(g, spec, {}, 8);
    EXPECT_EQ(run.diverging_ticks, 0) << fault::to_string(kind);
    EXPECT_TRUE(run.memory_equal) << fault::to_string(kind);

    harness::BehavioralDeviceModel reference(behavioural_config(g));
    fault::ProtocolFaultModel mutant(
        std::make_unique<harness::BehavioralDeviceModel>(
            behavioural_config(g)),
        spec);
    harness::RecordedStream empty(g, {});
    harness::LockstepOptions lo;
    lo.transactions = 0;
    const harness::LockstepReport report =
        harness::run_lockstep({&reference, &mutant}, empty, lo);
    EXPECT_TRUE(report.ok) << fault::to_string(kind) << ": "
                           << report.mismatch;
  }
}

fault::CampaignOptions small_campaign(int banks) {
  fault::CampaignOptions opt;
  opt.banks = banks;
  opt.seed = 1;
  return opt;
}

TEST(Campaign, OneBankMeetsScoreWithNoFalseAlarms) {
  const fault::CampaignReport report =
      fault::run_campaign(small_campaign(1));
  EXPECT_TRUE(report.clean_ok)
      << (report.clean_alarms.empty() ? "" : report.clean_alarms.front());
  EXPECT_GE(report.mutation_score(), 0.9) << report.render();
  EXPECT_EQ(report.rows.size(), 14u);
}

TEST(Campaign, TwoBanksMeetsScoreWithNoFalseAlarms) {
  const fault::CampaignReport report =
      fault::run_campaign(small_campaign(2));
  EXPECT_TRUE(report.clean_ok)
      << (report.clean_alarms.empty() ? "" : report.clean_alarms.front());
  EXPECT_GE(report.mutation_score(), 0.9) << report.render();
}

TEST(Campaign, ProtocolFaultsCaughtByLockstepOnly) {
  const fault::CampaignReport report =
      fault::run_campaign(small_campaign(1));
  int protocol_rows = 0;
  for (const fault::CampaignRow& row : report.rows) {
    if (fault::is_structural(row.fault.kind)) continue;
    ++protocol_rows;
    const fault::CampaignCell* mc = row.cell("mc");
    ASSERT_NE(mc, nullptr);
    EXPECT_EQ(mc->outcome, fault::CellOutcome::kNotApplicable);
    const fault::CampaignCell* ls = row.cell("lockstep");
    ASSERT_NE(ls, nullptr);
    EXPECT_EQ(ls->outcome, fault::CellOutcome::kCaught) << row.fault.id();
  }
  EXPECT_EQ(protocol_rows, 4);
}

// Campaign reports are write-only: a parse of the JSON text re-dumps it
// byte for byte, and it carries the header, every row's fault and cells,
// the control run and the score. (The pinned benchmark hash below pins
// the bytes of one full report.)
TEST(Campaign, ReportJsonRoundTrip) {
  fault::CampaignOptions opt = small_campaign(1);
  opt.run_mc = false;  // keep the fixture fast
  const fault::CampaignReport report = fault::run_campaign(opt);
  const std::string text = report.to_json().dump(2);
  const util::Json j = util::Json::parse(text);
  EXPECT_EQ(j.dump(2), text);
  EXPECT_EQ(j.find("banks")->as_int(), report.banks);
  EXPECT_EQ(j.find("seed")->as_int(), static_cast<std::int64_t>(report.seed));
  EXPECT_EQ(j.find("transactions")->as_int(), report.transactions);
  std::vector<std::string> checkers;
  for (const util::Json& c : j.find("checkers")->items()) {
    checkers.push_back(c.as_string());
  }
  EXPECT_EQ(checkers, report.checkers);
  EXPECT_EQ(j.find("clean")->find("ok")->as_bool(), report.clean_ok);
  const util::Json& rows = *j.find("rows");
  ASSERT_EQ(rows.size(), report.rows.size());
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const fault::CampaignRow& row = report.rows[i];
    const util::Json& jr = rows.items()[i];
    EXPECT_EQ(fault::FaultSpec::from_json(*jr.find("fault")), row.fault);
    EXPECT_EQ(jr.find("caught")->as_bool(), row.caught());
    const util::Json& cells = *jr.find("cells");
    ASSERT_EQ(cells.size(), row.cells.size());
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      const util::Json& cell = cells.items()[c];
      EXPECT_EQ(cell.find("checker")->as_string(), row.cells[c].checker);
      EXPECT_EQ(cell.find("outcome")->as_string(),
                fault::to_string(row.cells[c].outcome));
      EXPECT_EQ(cell.find("detail")->as_string(), row.cells[c].detail);
    }
  }
  EXPECT_EQ(j.find("caught")->as_int(), report.caught_count());
  EXPECT_DOUBLE_EQ(j.find("mutation_score")->as_double(),
                   report.mutation_score());
}

TEST(Campaign, SameSeedSameReport) {
  fault::CampaignOptions opt = small_campaign(2);
  opt.run_mc = false;
  const fault::CampaignReport a = fault::run_campaign(opt);
  const fault::CampaignReport b = fault::run_campaign(opt);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

/// The benchmark's campaign (perfbench `campaign`): 2 banks, seed 1, 20
/// structural + 4 protocol faults, 300 transactions, MC column on.
fault::CampaignOptions benchmark_campaign(harness::RtlBackend backend) {
  fault::CampaignOptions opt;
  opt.banks = 2;
  opt.seed = 1;
  opt.transactions = 300;
  opt.plan.structural = 20;
  opt.plan.protocol = 4;
  opt.run_mc = true;
  opt.backend = backend;
  return opt;
}

std::string report_hash(const fault::CampaignReport& report) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    util::fnv1a64(report.to_json().dump())));
  return hex;
}

constexpr const char* kBenchmarkReportHash = "7711c8457d5b9656";

class BenchmarkCampaign
    : public ::testing::TestWithParam<harness::RtlBackend> {};

TEST_P(BenchmarkCampaign, SequentialReportHashIsPinned) {
  EXPECT_EQ(report_hash(fault::run_campaign(benchmark_campaign(GetParam()))),
            kBenchmarkReportHash);
}

TEST_P(BenchmarkCampaign, ParallelReportHashIsPinnedAtOneAndTwoWorkers) {
  for (int workers : {1, 2}) {
    fault::ParallelOptions par;
    par.workers = workers;
    exec::PoolStats stats;
    const fault::CampaignReport report = fault::run_campaign_parallel(
        benchmark_campaign(GetParam()), par, &stats);
    EXPECT_EQ(report_hash(report), kBenchmarkReportHash)
        << workers << " worker(s)";
    // Control run, the lane batches (one compiled Machine for all 24
    // faults; one interpreted batch per fault), one MC shard per
    // structural fault.
    const int batches = GetParam() == harness::RtlBackend::kCompiled ? 1 : 24;
    EXPECT_EQ(stats.shards, 1 + batches + 20);
    EXPECT_EQ(stats.ok, stats.shards);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BenchmarkCampaign,
    ::testing::Values(harness::RtlBackend::kInterpreted,
                      harness::RtlBackend::kCompiled),
    [](const ::testing::TestParamInfo<harness::RtlBackend>& info) {
      return std::string(harness::to_string(info.param));
    });

// More than 63 faults split into several lane batches; the compiled
// batches (one Machine each) must report exactly what the interpreted
// lanes (one CycleSim per mutant) report.
TEST(Campaign, MultiBatchPlanCompiledMatchesInterpreted) {
  fault::CampaignOptions opt;
  opt.banks = 2;
  opt.seed = 3;
  opt.transactions = 60;
  opt.plan.structural = 70;
  opt.plan.protocol = 8;
  opt.run_mc = false;
  const fault::CampaignReport interpreted = fault::run_campaign(opt);
  opt.backend = harness::RtlBackend::kCompiled;
  const fault::CampaignReport compiled = fault::run_campaign(opt);
  ASSERT_EQ(compiled.rows.size(), 78u);
  EXPECT_EQ(compiled.to_json().dump(), interpreted.to_json().dump());

  fault::ParallelOptions par;
  par.workers = 2;
  exec::PoolStats stats;
  const fault::CampaignReport parallel =
      fault::run_campaign_parallel(opt, par, &stats);
  EXPECT_EQ(stats.shards, 1 + 2);  // control + two lane batches, no MC
  EXPECT_EQ(parallel.to_json().dump(), compiled.to_json().dump());
}

// ^C mid-campaign: whatever was finished is a prefix of the full report.
TEST(Campaign, CancelledRunReturnsPrefixOfFullReport) {
  fault::CampaignOptions opt = small_campaign(1);
  opt.backend = harness::RtlBackend::kCompiled;
  const util::Json full_rows = *fault::run_campaign(opt).to_json().find("rows");
  for (int delay_ms : {0, 5, 20, 60}) {
    std::atomic<bool> cancel{false};
    opt.cancel = &cancel;
    std::thread raiser([&cancel, delay_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      cancel.store(true);
    });
    const fault::CampaignReport partial = fault::run_campaign(opt);
    raiser.join();
    const util::Json rows = *partial.to_json().find("rows");
    ASSERT_LE(rows.items().size(), full_rows.items().size());
    for (std::size_t i = 0; i < rows.items().size(); ++i) {
      EXPECT_EQ(rows.items()[i].dump(), full_rows.items()[i].dump())
          << "row " << i << " after a " << delay_ms << " ms cancel";
    }
  }
}

// A flag raised through CampaignOptions::cancel alone (no executor
// token) still stops every lane batch: its shard reports cancelled and its
// rows degrade to timeout cells instead of reading a half-run batch.
TEST(Campaign, ParallelCancelThroughCampaignOptionsDegradesBatchShards) {
  for (harness::RtlBackend backend :
       {harness::RtlBackend::kInterpreted, harness::RtlBackend::kCompiled}) {
    SCOPED_TRACE(harness::to_string(backend));
    fault::CampaignOptions opt = small_campaign(1);
    opt.backend = backend;
    const std::atomic<bool> cancel{true};
    opt.cancel = &cancel;
    fault::ParallelOptions par;
    par.workers = 2;
    const fault::CampaignReport report = fault::run_campaign_parallel(opt, par);
    ASSERT_EQ(report.rows.size(), 14u);
    for (const fault::CampaignRow& row : report.rows) {
      ASSERT_EQ(row.cells.size(), 4u) << row.fault.id();
      for (const char* checker : {"psl", "ovl", "lockstep"}) {
        const fault::CampaignCell* cell = row.cell(checker);
        ASSERT_NE(cell, nullptr);
        EXPECT_EQ(cell->outcome, fault::CellOutcome::kTimeout)
            << row.fault.id() << " " << checker;
        EXPECT_EQ(cell->detail, "shard cancelled: cancelled");
      }
    }
  }
}

}  // namespace
}  // namespace la1
