// Property tests of the live (mutable, epoch-snapshotted) database:
//  * epoch equivalence — after any append/delete/compact history, querying
//    the router is bit-identical (decisions, match ids, latency, ledger op
//    counts) to a fresh monolithic accelerator holding exactly the live
//    (id, segment) pairs, on every backend INCLUDING noisy circuit
//    sensing (per-id silicon keying makes noise placement-invariant);
//  * suffix-delete exactness — tombstoning a suffix leaves the bank
//    bit-identical to a fresh prefix load, energy included;
//  * pinned-ticket isolation — a SearchTicket launched against epoch E
//    returns epoch E's exact results no matter what mutations publish
//    while it is in flight;
//  * tombstone lifecycle — slot recycling, id stability, and the typed
//    DbError taxonomy;
//  * hot-bank overflow and compaction — staging-bank geometry changes
//    never change decisions;
//  * sketch consistency — shard pruning stays decision-neutral across
//    mutations;
//  * resident state — the packed slot matrix is the one copy of a bank's
//    segments, circuit silicon exists only on circuit banks, and a bank
//    switched to circuit or cloned decides exactly like one that was
//    circuit throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "asmcap/db_error.h"
#include "asmcap/edam.h"
#include "asmcap/ingest.h"
#include "asmcap/service.h"
#include "asmcap/sharded.h"
#include "genome/readsim.h"
#include "genome/reference.h"
#include "genome/stream_reader.h"

namespace asmcap {
namespace {

AsmcapConfig bank_config(std::size_t array_count, bool ideal = true) {
  AsmcapConfig config;
  config.array_rows = 16;
  config.array_cols = 64;
  config.array_count = array_count;
  config.ideal_sensing = ideal;
  return config;
}

class LiveDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2301);
    reference_ = generate_reference(64 * 50 + 128, {}, rng);
    segments_ = segment_reference(reference_, 64);
    segments_.resize(50);

    Rng read_rng(2302);
    ReadSimConfig sim_config;
    sim_config.read_length = 64;
    sim_config.rates = ErrorRates::condition_a();
    const ReadSimulator sim(reference_, sim_config);
    for (int i = 0; i < 18; ++i) {
      switch (i % 3) {
        case 0:
          reads_.push_back(segments_[static_cast<std::size_t>(
              read_rng.below(segments_.size()))]);
          break;
        case 1:
          reads_.push_back(
              sim.simulate_at(read_rng.below(40) * 64, read_rng).read);
          break;
        default:
          reads_.push_back(Sequence::random(64, read_rng));
      }
    }
  }

  std::vector<Sequence> first(std::size_t n) const {
    return std::vector<Sequence>(segments_.begin(), segments_.begin() + n);
  }

  Sequence reference_;
  std::vector<Sequence> segments_;
  std::vector<Sequence> reads_;
};

// After load + append + mid-database deletes + compact, the router must
// answer every query exactly like a fresh monolithic bank that holds the
// surviving (id, segment) pairs and nothing else — decisions, global
// match ids, latency, and ledger operation counts all equal, on the noisy
// circuit path too. This is the core guarantee of the live database: a
// mutation history is indistinguishable from the database it produced.
TEST_F(LiveDbTest, EpochEquivalentToFreshLoadOfLiveSegments) {
  struct Case {
    bool ideal;
    BackendKind backend;
  };
  const Case cases[] = {{true, BackendKind::Circuit},
                       {false, BackendKind::Circuit},
                       {true, BackendKind::Functional}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.ideal ? "ideal" : "noisy");
    ShardedAccelerator router(bank_config(2, c.ideal), 2);
    router.set_backend(c.backend);
    router.set_error_profile(ErrorRates::condition_a());
    router.load_reference(first(30));
    const std::vector<std::uint64_t> fresh = router.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.begin() + 40));
    ASSERT_EQ(fresh.front(), 30u);
    router.remove_segments({3, 17, 25, 31});
    router.compact();
    ASSERT_EQ(router.live_segment_count(), 36u);

    // The replay bank: same seed (hence the same silicon root and query
    // streams), explicit ids at the router's surviving global ids.
    AsmcapAccelerator mono(bank_config(4, c.ideal));
    mono.set_backend(c.backend);
    mono.set_error_profile(ErrorRates::condition_a());
    std::vector<Sequence> live_rows;
    std::vector<std::uint64_t> live_ids;
    for (const auto& [id, row] : router.live_segments()) {
      live_ids.push_back(id);
      live_rows.push_back(row);
    }
    mono.append_segments(live_rows, live_ids);

    for (const Sequence& read : reads_) {
      const QueryResult a = router.search(read, 4, StrategyMode::Full);
      const QueryResult b = mono.search(read, 4, StrategyMode::Full);
      EXPECT_EQ(a.decisions, b.decisions);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
    }
    const ExecutionTotals& rt = router.totals();
    const ExecutionTotals& mt = mono.controller().totals();
    EXPECT_EQ(rt.queries, mt.queries);
    EXPECT_EQ(rt.searches, mt.searches);
    EXPECT_EQ(rt.hd_searches, mt.hd_searches);
    EXPECT_EQ(rt.rotation_searches, mt.rotation_searches);
    EXPECT_EQ(rt.latency_seconds, mt.latency_seconds);
  }
}

// Deleting a suffix of ids leaves the surviving rows in exactly the slots
// a fresh prefix load would use, so EVERYTHING must be bit-identical —
// energy included: a tombstoned row's all-ones mask has zero matchline
// swing, and a fully-dead array drops out of the SL-driver term.
TEST_F(LiveDbTest, SuffixDeleteBitIdenticalToPrefixLoadIncludingEnergy) {
  for (const bool ideal : {true, false}) {
    SCOPED_TRACE(ideal ? "ideal" : "noisy");
    AsmcapAccelerator pruned(bank_config(3, ideal));
    pruned.set_error_profile(ErrorRates::condition_a());
    pruned.load_reference(first(40));
    std::vector<std::uint64_t> tail;
    for (std::uint64_t id = 30; id < 40; ++id) tail.push_back(id);
    pruned.remove_segments(tail);

    AsmcapAccelerator fresh(bank_config(3, ideal));
    fresh.set_error_profile(ErrorRates::condition_a());
    fresh.load_reference(first(30));

    for (const Sequence& read : reads_) {
      const QueryResult a = pruned.search(read, 4, StrategyMode::Full);
      const QueryResult b = fresh.search(read, 4, StrategyMode::Full);
      ASSERT_EQ(a.decisions.size(), 40u);
      ASSERT_EQ(b.decisions.size(), 30u);
      for (std::size_t i = 0; i < 30; ++i)
        EXPECT_EQ(a.decisions[i], b.decisions[i]);
      for (std::size_t i = 30; i < 40; ++i) EXPECT_FALSE(a.decisions[i]);
      EXPECT_EQ(a.matched_segments, b.matched_segments);
      EXPECT_EQ(a.latency_seconds, b.latency_seconds);
      EXPECT_EQ(a.energy_joules, b.energy_joules);
    }
  }
}

// A ticket submitted against epoch E must return epoch E's exact results
// even when appends, deletes, and a compaction all publish while it is in
// flight: the ticket pins the epoch snapshot at launch, and copy-on-write
// means no mutation can touch a pinned bank. The quiesced reference is an
// identical router that never mutates.
TEST_F(LiveDbTest, PinnedTicketIsIsolatedFromConcurrentMutations) {
  ShardedAccelerator quiet(bank_config(2), 2);
  quiet.load_reference(first(40));
  const std::vector<QueryResult> expected =
      quiet.search_batch(reads_, 4, StrategyMode::Full, 2);

  ShardedAccelerator live(bank_config(2), 2);
  live.load_reference(first(40));
  SearchService service(live);
  SearchService::Options options;
  options.workers = 2;
  auto ticket =
      service.submit_borrowed(reads_, 4, StrategyMode::Full, options);

  // Mutate while the ticket is in flight (whatever the interleaving, the
  // pinned epoch makes the outcome identical).
  live.append_segments(
      std::vector<Sequence>(segments_.begin() + 40, segments_.begin() + 48));
  live.remove_segments({0, 11, 39});
  live.compact();

  ticket->wait();
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    const QueryResult& got = ticket->result(i);
    EXPECT_EQ(got.decisions, expected[i].decisions);
    EXPECT_EQ(got.matched_segments, expected[i].matched_segments);
    EXPECT_EQ(got.latency_seconds, expected[i].latency_seconds);
    EXPECT_EQ(got.energy_joules, expected[i].energy_joules);
  }

  // A search AFTER the mutations sees the new epoch: a wider id space and
  // silent tombstones.
  const QueryResult after = live.search(segments_[5], 0, StrategyMode::Full);
  EXPECT_EQ(after.decisions.size(), 48u);
  EXPECT_FALSE(after.decisions[0]);
  EXPECT_FALSE(after.decisions[11]);
  EXPECT_FALSE(after.decisions[39]);
  EXPECT_TRUE(after.decisions[5]);
}

// Slot recycling and the id lifecycle: a tombstoned slot is reused by the
// next append, its old id becomes Unknown (never reusable), double
// deletes and duplicate ids are typed errors, and decisions index the
// GLOBAL id space (recycled slots answer under their new id only).
TEST_F(LiveDbTest, TombstoneRecyclingKeepsIdsStable) {
  AsmcapAccelerator accel(bank_config(1));
  accel.load_reference(first(10));
  EXPECT_TRUE(accel.identity_layout());

  accel.remove_segments({3, 7});
  EXPECT_EQ(accel.live_segment_count(), 8u);
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Slots, not live rows.
  EXPECT_EQ(accel.segment_state(3), SegmentState::Dead);

  // A dead row never matches, even its exact content.
  const QueryResult dead = accel.search(segments_[3], 0, StrategyMode::Full);
  EXPECT_FALSE(dead.decisions[3]);

  // Recycle both tombstones; ids continue from the high-water mark.
  const std::vector<std::uint64_t> fresh = accel.append_segments(
      {segments_[40], segments_[41]});
  EXPECT_EQ(fresh, (std::vector<std::uint64_t>{10, 11}));
  EXPECT_EQ(accel.loaded_segments(), 10u);  // Reused slots 3 and 7.
  EXPECT_FALSE(accel.identity_layout());
  EXPECT_EQ(accel.segment_state(3), SegmentState::Unknown);  // Recycled.
  EXPECT_EQ(accel.segment_state(10), SegmentState::Live);

  // The new rows answer under their NEW global ids.
  const QueryResult hit = accel.search(segments_[40], 0, StrategyMode::Full);
  ASSERT_EQ(hit.decisions.size(), 12u);
  EXPECT_TRUE(hit.decisions[10]);
  EXPECT_FALSE(hit.decisions[3]);

  try {
    accel.remove_segments({3});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }
  accel.remove_segments({10});
  try {
    accel.remove_segments({10});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DoubleDelete);
  }
  try {
    accel.append_segments({segments_[42]}, {5});  // Id 5 is still live.
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::DuplicateId);
  }
}

// Hot-bank overflow folds the staging rows into the cold tier mid-append,
// and explicit compaction does the same at an epoch boundary; neither may
// change a single decision. Two routers with identical mutation history —
// one compacted, one not — must agree bit-for-bit.
TEST_F(LiveDbTest, HotBankOverflowAndCompactionAreDecisionNeutral) {
  AsmcapConfig config = bank_config(2);
  config.live.hot_array_rows = 4;
  config.live.hot_array_count = 2;  // Hot capacity 8 < the 20 appends.

  auto build = [&]() {
    auto router = std::make_unique<ShardedAccelerator>(config, 2);
    router->load_reference(first(25));
    router->append_segments(
        std::vector<Sequence>(segments_.begin() + 25, segments_.begin() + 45));
    router->remove_segments({2, 30, 44});
    return router;
  };
  auto plain = build();
  auto compacted = build();
  const std::uint64_t before = compacted->epoch();
  EXPECT_GT(compacted->compact(), before);
  // A second compact is a no-op: nothing is staged any more.
  EXPECT_EQ(compacted->compact(), compacted->epoch());

  EXPECT_EQ(plain->live_segment_count(), compacted->live_segment_count());
  EXPECT_EQ(plain->live_segments(), compacted->live_segments());

  const std::vector<QueryResult> a =
      plain->search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      compacted->search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
  }
}

// Shard pruning must stay decision-neutral across mutations: the bank
// sketches are updated incrementally on every append/delete/fold, and a
// stale sketch would prune a bank that holds a real hit. Equality against
// an unpruned twin after a full mutation history proves the incremental
// maintenance correct.
TEST_F(LiveDbTest, SketchPruningDecisionNeutralAfterMutations) {
  AsmcapConfig pruned_config = bank_config(2);
  pruned_config.pruning.enabled = true;
  AsmcapConfig plain_config = bank_config(2);
  plain_config.pruning.enabled = false;

  auto mutate = [&](ShardedAccelerator& router) {
    router.load_reference(first(30));
    router.append_segments(
        std::vector<Sequence>(segments_.begin() + 30, segments_.begin() + 42));
    router.remove_segments({1, 8, 33, 41});
    router.compact();
  };
  ShardedAccelerator pruned(pruned_config, 2);
  ShardedAccelerator plain(plain_config, 2);
  mutate(pruned);
  mutate(plain);

  const std::vector<QueryResult> a =
      pruned.search_batch(reads_, 4, StrategyMode::Full, 2);
  const std::vector<QueryResult> b =
      plain.search_batch(reads_, 4, StrategyMode::Full, 2);
  for (std::size_t i = 0; i < reads_.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions);
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
  }
  // Every (query, bank) pair was either probed or pruned, never dropped.
  EXPECT_EQ(pruned.totals().banks_probed + pruned.totals().banks_pruned,
            reads_.size() * pruned.active_shards());
}

// A history of appends, removes and slot recycling on one bank (48-row
// capacity): ids 40..42 recycle the slots of 3, 7 and 18; after 40 and 12
// die too, ids 43..45 recycle slots 3, 12 and 33 and ids 46..47 take two
// fresh slots. `expected` receives the surviving (id, segment) pairs.
void run_history(AsmcapAccelerator& bank,
                 const std::vector<Sequence>& segments,
                 std::map<std::uint64_t, Sequence>* expected) {
  const std::vector<Sequence> first40(segments.begin(),
                                      segments.begin() + 40);
  bank.load_reference(first40);
  bank.remove_segments({3, 7, 18, 33});
  bank.append_segments({segments[40], segments[41], segments[42]});
  bank.remove_segments({40, 12});
  bank.append_segments(std::vector<Sequence>(segments.begin() + 43,
                                             segments.begin() + 48));
  if (expected == nullptr) return;
  expected->clear();
  for (std::uint64_t id = 0; id < 48; ++id)
    if (id != 3 && id != 7 && id != 18 && id != 33 && id != 40 && id != 12)
      (*expected)[id] = segments[static_cast<std::size_t>(id)];
}

// A bank whose decisions hinge on its silicon: a large capacitor
// mismatch moves a row's V_ML by more than half a mismatch level, so a
// row with the wrong silicon decides differently near the threshold.
AsmcapConfig silicon_sensitive_config() {
  AsmcapConfig config = bank_config(3, /*ideal=*/false);
  config.process.charge.cap_sigma_rel = 0.3;
  return config;
}

// Reads 3..6 substitutions away from each segment that lands in a
// recycled or fresh slot in run_history (ids 41..47): at T = 4 their
// decisions sit on the threshold, where silicon decides.
std::vector<Sequence> near_threshold_reads(
    const std::vector<Sequence>& segments) {
  Rng rng(0x7E57);
  std::vector<Sequence> reads;
  for (std::size_t id = 41; id < 48; ++id) {
    for (std::size_t edits = 3; edits <= 6; ++edits) {
      Sequence read = segments[id];
      for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t at = static_cast<std::size_t>(rng.below(read.size()));
        read.set(at, base_from_code(static_cast<std::uint8_t>(
                         (code_of(read[at]) + 1) & 3u)));
      }
      reads.push_back(read);
    }
  }
  return reads;
}

// Const, stream-explicit results of every read (decisions, energy): what
// two banks must agree on bit for bit.
std::vector<QueryResult> execute_all(const AsmcapAccelerator& bank,
                                     const std::vector<Sequence>& reads) {
  std::vector<QueryResult> out;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const ExecutionPlan plan = bank.planner().build(
        reads[i], 4, bank.error_profile(), StrategyMode::Full);
    out.push_back(bank.execute(plan, Rng(0xB0A7 + i)));
  }
  return out;
}

void expect_same_results(const std::vector<QueryResult>& a,
                         const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].decisions, b[i].decisions) << "read " << i;
    EXPECT_EQ(a[i].matched_segments, b[i].matched_segments);
    EXPECT_EQ(a[i].latency_seconds, b[i].latency_seconds);
    EXPECT_EQ(a[i].energy_joules, b[i].energy_joules);
  }
}

// The packed slot matrix is the bank's one copy of its segments:
// live_segments() unpacks from it, recycled slots included, on either
// backend and on a clone.
TEST_F(LiveDbTest, LiveSegmentsUnpackFromThePackedRows) {
  for (const BackendKind kind : {BackendKind::Functional, BackendKind::Circuit}) {
    SCOPED_TRACE(to_string(kind));
    AsmcapAccelerator bank(bank_config(3));
    bank.set_backend(kind);
    std::map<std::uint64_t, Sequence> expected;
    run_history(bank, segments_, &expected);
    const std::vector<std::pair<std::uint64_t, Sequence>> want(
        expected.begin(), expected.end());

    std::vector<std::pair<std::uint64_t, Sequence>> got = bank.live_segments();
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    EXPECT_EQ(got, want);
    // Recycled slots answer with their new occupant.
    EXPECT_EQ(bank.live_segments()[3].first, 43u);
    EXPECT_EQ(bank.clone()->live_segments(), bank.live_segments());
  }
}

// A bank whose history ran on the functional backend and then switched
// to circuit must decide exactly like a bank that was circuit all along —
// noisy sensing, decisions and energy both: its silicon is rebuilt from
// the same per-id streams. Switching back drops the silicon again.
TEST_F(LiveDbTest, SwitchToCircuitAfterFunctionalHistoryIsBitIdentical) {
  std::vector<Sequence> reads = near_threshold_reads(segments_);
  reads.insert(reads.end(), reads_.begin(), reads_.end());
  AsmcapAccelerator always(silicon_sensitive_config());
  run_history(always, segments_, nullptr);
  AsmcapAccelerator switched(silicon_sensitive_config());
  switched.set_backend(BackendKind::Functional);
  run_history(switched, segments_, nullptr);
  EXPECT_EQ(switched.silicon_rows(), 0u);

  switched.set_backend(BackendKind::Circuit);
  EXPECT_EQ(switched.silicon_rows(), switched.live_segment_count());
  EXPECT_EQ(always.silicon_rows(), always.live_segment_count());
  expect_same_results(execute_all(switched, reads),
                      execute_all(always, reads));
  // The sequential and batch entry points agree too.
  for (const Sequence& read : reads) {
    const QueryResult a = switched.search(read, 4, StrategyMode::Full);
    const QueryResult b = always.search(read, 4, StrategyMode::Full);
    EXPECT_EQ(a.decisions, b.decisions);
    EXPECT_EQ(a.energy_joules, b.energy_joules);
  }
  expect_same_results(switched.search_batch(reads, 4, StrategyMode::Full, 2),
                      always.search_batch(reads, 4, StrategyMode::Full, 2));

  switched.set_backend(BackendKind::Functional);
  EXPECT_EQ(switched.silicon_rows(), 0u);
}

// clone() copies flat memory: after a mutation history the clone of a
// functional bank and of a (noisy) circuit bank answers bit-identically
// to its original, and mutating the clone leaves the original's answers
// untouched — the isolation the router's copy-on-write epochs rest on.
TEST_F(LiveDbTest, CloneIsBitIdenticalAndIsolated) {
  std::vector<Sequence> reads = near_threshold_reads(segments_);
  reads.insert(reads.end(), reads_.begin(), reads_.end());
  for (const BackendKind kind : {BackendKind::Functional, BackendKind::Circuit}) {
    SCOPED_TRACE(to_string(kind));
    AsmcapAccelerator bank(silicon_sensitive_config());
    bank.set_backend(kind);
    run_history(bank, segments_, nullptr);
    const std::vector<QueryResult> before = execute_all(bank, reads);

    const std::unique_ptr<AsmcapAccelerator> copy = bank.clone();
    EXPECT_EQ(copy->backend_kind(), kind);
    EXPECT_EQ(copy->silicon_rows(), bank.silicon_rows());
    EXPECT_EQ(copy->directory().ids, bank.directory().ids);
    EXPECT_EQ(copy->directory().live, bank.directory().live);
    expect_same_results(execute_all(*copy, reads), before);
    for (const Sequence& read : reads) {
      const QueryResult a = copy->search(read, 4, StrategyMode::Full);
      const QueryResult b = bank.search(read, 4, StrategyMode::Full);
      EXPECT_EQ(a.decisions, b.decisions);
      EXPECT_EQ(a.energy_joules, b.energy_joules);
    }

    copy->remove_segments({0, 1, 2, 43});
    copy->append_segments({segments_[48], segments_[49]});
    expect_same_results(execute_all(bank, reads), before);
    EXPECT_EQ(bank.segment_state(0), SegmentState::Live);
    EXPECT_EQ(bank.live_segment_count(), 42u);
  }
}

// A functional database never manufactures circuit silicon, however it
// was built (streamed ingest, hot-bank folds, clones); switching it to
// circuit gives every live row its silicon, and only those rows.
TEST(ResidentState, FunctionalIngestBuildsNoSilicon) {
  AsmcapConfig config;
  config.array_rows = 64;
  config.array_cols = 64;
  config.array_count = 24;
  config.ideal_sensing = false;
  ShardedAccelerator db(config, 2);
  db.set_backend(BackendKind::Functional);

  Rng rng(0x5111);
  const Sequence genome = generate_reference(64 * 2000, {}, rng);
  std::istringstream in(">genome\n" + genome.to_string() + "\n");
  SeqStreamReader reader(in, "genome.fa");
  const IngestStats stats = ingest_reference(db, reader);
  ASSERT_EQ(stats.segments, 2000u);

  const std::shared_ptr<const DbEpoch> epoch = db.db();
  ASSERT_GE(epoch->banks.size(), 2u);
  std::size_t live = 0;
  for (const auto& bank : epoch->banks) {
    EXPECT_EQ(bank->silicon_rows(), 0u);
    live += bank->live_segment_count();
  }
  EXPECT_EQ(live, 2000u);

  db.set_backend(BackendKind::Circuit);
  for (const auto& bank : db.db()->banks)
    EXPECT_EQ(bank->silicon_rows(), bank->live_segment_count());
}

// The typed error taxonomy shared by the ASMCap banks, the router, and
// the EDAM comparator.
TEST_F(LiveDbTest, DbErrorKindsAreShared) {
  AsmcapAccelerator accel(bank_config(1));
  try {
    accel.search(reads_[0], 4, StrategyMode::Full);
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::NotLoaded);
  }
  accel.load_reference(first(8));
  try {
    accel.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
  try {
    accel.remove_segments({});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::EmptyMutation);
  }

  ShardedAccelerator router(bank_config(1), 2);
  router.load_reference(first(8));
  try {
    router.remove_segments({99});
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::UnknownSegment);
  }

  EdamConfig edam_config;
  edam_config.array_rows = 16;
  edam_config.array_cols = 64;
  edam_config.array_count = 1;
  EdamAccelerator edam(edam_config);
  edam.load_reference(first(8));
  try {
    edam.load_reference(first(8));
    FAIL() << "expected DbError";
  } catch (const DbError& error) {
    EXPECT_EQ(error.kind(), DbErrorKind::AlreadyLoaded);
  }
}

}  // namespace
}  // namespace asmcap
