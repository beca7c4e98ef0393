/**
 * @file
 * Cross-validation of the simulator against independent reference
 * models: a from-first-principles set-associative LRU simulator (kept
 * deliberately naive — std::list based — so it shares no code or
 * structure with the production cache), a std::map-based residency
 * sharing tracker fed by that LRU, a per-way-array model of the
 * sharing-aware wrapper (reference_sharing_aware.hh), and closed-form
 * miss counts for analytically tractable access patterns.
 */

#include <bit>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/sharing_aware.hh"
#include "core/sharing_tracker.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/opt.hh"
#include "sim/experiment.hh"
#include "sim/stream_sim.hh"
#include "reference_sharing_aware.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

/** Naive reference LRU cache: one std::list of tags per set. */
class ReferenceLru
{
  public:
    ReferenceLru(unsigned num_sets, unsigned ways)
        : numSets_(num_sets), ways_(ways), sets_(num_sets)
    {
    }

    /** Access one block address; returns true on hit. */
    bool
    access(Addr block_addr)
    {
        victim_.reset();
        const unsigned set = static_cast<unsigned>(
            (block_addr / kBlockBytes) % numSets_);
        auto &lru = sets_[set];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == block_addr) {
                lru.erase(it);
                lru.push_front(block_addr);
                return true;
            }
        }
        lru.push_front(block_addr);
        if (lru.size() > ways_) {
            victim_ = lru.back();
            lru.pop_back();
        }
        return false;
    }

    /**
     * The block the last miss evicted, if it evicted one; cleared by
     * every access.
     */
    std::optional<Addr> lastVictim() const { return victim_; }

    /** Every block still resident. */
    std::vector<Addr>
    residents() const
    {
        std::vector<Addr> blocks;
        for (const auto &lru : sets_)
            blocks.insert(blocks.end(), lru.begin(), lru.end());
        return blocks;
    }

  private:
    unsigned numSets_;
    unsigned ways_;
    std::vector<std::list<Addr>> sets_;
    std::optional<Addr> victim_;
};

/**
 * Naive reference for SharingTracker + SharingSummary: one std::map
 * entry per live residency holding the set of touching cores, a
 * written flag and a hit count, folded into per-class totals when the
 * residency ends.  Shares no code with the CacheBlock instrumentation
 * or the tracker's counters.
 */
class ReferenceSharing
{
  public:
    explicit ReferenceSharing(unsigned num_cores)
        : sharerHits(num_cores, 0)
    {
    }

    /** A demand reference that hit (`hit`) or filled `block`. */
    void
    reference(Addr block, CoreId core, bool is_write, bool hit)
    {
        Residency &res = live_[block];
        if (hit)
            ++res.hits;
        res.cores.insert(core);
        res.written = res.written || is_write;
    }

    /** `block`'s residency ended (eviction or final flush). */
    void
    end(Addr block)
    {
        const auto it = live_.find(block);
        ASSERT_NE(it, live_.end()) << "ending a residency never begun";
        const Residency &res = it->second;
        const bool shared = res.cores.size() >= 2;
        const int cls = (shared ? 2 : 0) + (res.written ? 1 : 0);
        ++classResidencies[cls];
        classHits[cls] += res.hits;
        sharerHits.at(res.cores.size() - 1) += res.hits;
        (shared ? sharedHits : privateHits) += res.hits;
        if (res.hits == 0)
            ++deadResidencies;
        live_.erase(it);
    }

    std::uint64_t sharedHits = 0;
    std::uint64_t privateHits = 0;
    std::map<int, std::uint64_t> classHits;
    std::map<int, std::uint64_t> classResidencies;
    std::vector<std::uint64_t> sharerHits;
    std::uint64_t deadResidencies = 0;

  private:
    struct Residency
    {
        std::set<CoreId> cores;
        bool written = false;
        std::uint64_t hits = 0;
    };

    std::map<Addr, Residency> live_;
};

TEST(ReferenceModel, LruMatchesOnRandomStreams)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        Trace trace("ref", 4);
        for (int i = 0; i < 50000; ++i)
            trace.append(rng.below(1024) * kBlockBytes,
                         0x400 + rng.below(8),
                         static_cast<CoreId>(rng.below(4)),
                         rng.chance(0.3));

        const CacheGeometry geo{32 * 1024, 8, kBlockBytes};
        StreamSim sim(trace, geo,
                      requirePolicyFactory("lru")(geo.numSets(),
                                               geo.ways));
        sim.run();

        ReferenceLru reference(geo.numSets(), geo.ways);
        std::uint64_t ref_misses = 0;
        for (const auto &access : trace)
            ref_misses += reference.access(access.blockAddr()) ? 0 : 1;

        ASSERT_EQ(sim.misses(), ref_misses) << "seed " << seed;
    }
}

TEST(ReferenceModel, SharingSummaryMatchesNaiveTracker)
{
    // replaySharing runs the payload path (SharingTracker attached as
    // a chained observer); every SharingSummary field must equal the
    // naive model's, over random multi-core streams with a hot shared
    // region so every sharing class and sharer count occurs.
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const unsigned cores = seed == 3 ? 8 : 4;
        Rng rng(seed);
        Trace trace("ref", cores);
        for (int i = 0; i < 30000; ++i) {
            const Addr block =
                rng.chance(0.6) ? rng.below(256) : rng.below(2048);
            trace.append(block * kBlockBytes, 0x400 + rng.below(8),
                         static_cast<CoreId>(rng.below(cores)),
                         rng.chance(0.25));
        }

        ReplaySpec spec;
        spec.policy = "lru";
        spec.geo = CacheGeometry{32 * 1024, 8, kBlockBytes};
        const SharingSummary summary =
            replaySharing(trace, spec, cores);

        ReferenceLru lru(spec.geo.numSets(), spec.geo.ways);
        ReferenceSharing reference(cores);
        for (const auto &access : trace) {
            const Addr block = access.blockAddr();
            const bool hit = lru.access(block);
            if (const auto victim = lru.lastVictim())
                reference.end(*victim);
            reference.reference(block, access.core, access.isWrite,
                                hit);
        }
        for (const Addr block : lru.residents())
            reference.end(block);

        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_EQ(summary.sharedHits, reference.sharedHits);
        EXPECT_EQ(summary.privateHits, reference.privateHits);
        for (int cls = 0; cls < 4; ++cls) {
            EXPECT_EQ(summary.classHits[cls], reference.classHits[cls])
                << sharingClassName(static_cast<SharingClass>(cls));
            EXPECT_EQ(summary.classResidencies[cls],
                      reference.classResidencies[cls])
                << sharingClassName(static_cast<SharingClass>(cls));
            EXPECT_GT(reference.classResidencies[cls], 0u);
        }
        EXPECT_EQ(summary.sharerHits, reference.sharerHits);
        EXPECT_EQ(summary.deadResidencies, reference.deadResidencies);
        const std::uint64_t hits =
            reference.sharedHits + reference.privateHits;
        ASSERT_GT(hits, 0u);
        EXPECT_DOUBLE_EQ(summary.sharedHitFraction,
                         static_cast<double>(reference.sharedHits) /
                             static_cast<double>(hits));
    }
}

TEST(ReferenceModel, LruMatchesOnGeneratedWorkload)
{
    WorkloadParams params;
    params.threads = 4;
    params.scale = 0.03;
    params.seed = 12;
    const Trace trace = makeWorkloadTrace("ocean", params);

    const CacheGeometry geo{64 * 1024, 4, kBlockBytes};
    StreamSim sim(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();

    ReferenceLru reference(geo.numSets(), geo.ways);
    std::uint64_t ref_misses = 0;
    for (const auto &access : trace)
        ref_misses += reference.access(access.blockAddr()) ? 0 : 1;
    EXPECT_EQ(sim.misses(), ref_misses);
}

TEST(ReferenceModel, CyclicScanClosedForm)
{
    // Scanning N blocks cyclically through a fully-utilised LRU cache
    // of capacity C < N (all one set) misses on every reference.
    const unsigned ways = 8;
    const unsigned blocks = 12;
    Trace trace("scan", 1);
    for (int pass = 0; pass < 10; ++pass)
        for (unsigned b = 0; b < blocks; ++b)
            trace.append(static_cast<Addr>(b) * kBlockBytes, 0x400, 0,
                         false);
    const CacheGeometry geo{ways * kBlockBytes, ways, kBlockBytes};
    StreamSim sim(trace, geo,
                  requirePolicyFactory("lru")(geo.numSets(), geo.ways));
    sim.run();
    EXPECT_EQ(sim.misses(), trace.size());
}

TEST(ReferenceModel, CyclicScanOptAnalyticBounds)
{
    // Under OPT a cyclic scan of N blocks through a C-way cache costs
    // at least N - C new blocks per pass (information-theoretic lower
    // bound: a miss can pre-empt at most one future miss) and far
    // fewer than LRU's every-reference miss.
    const unsigned ways = 8;
    const unsigned blocks = 12;
    const int passes = 10;
    Trace trace("scan", 1);
    for (int pass = 0; pass < passes; ++pass)
        for (unsigned b = 0; b < blocks; ++b)
            trace.append(static_cast<Addr>(b) * kBlockBytes, 0x400, 0,
                         false);
    const CacheGeometry geo{ways * kBlockBytes, ways, kBlockBytes};
    const NextUseIndex index(trace);
    StreamSim sim(trace, geo,
                  std::make_unique<OptPolicy>(geo.numSets(), geo.ways,
                                              index));
    sim.run();
    const std::uint64_t lower =
        blocks + (passes - 1) * (blocks - ways);
    // Steady state approaches (N - C) / (N - 1) misses per reference.
    const auto steady = static_cast<std::uint64_t>(
        blocks + 1.10 * (passes - 1) * blocks *
                     (blocks - ways) / (blocks - 1.0));
    EXPECT_GE(sim.misses(), lower);
    EXPECT_LE(sim.misses(), steady);
    EXPECT_LT(sim.misses(), trace.size() / 2); // far below LRU's 100%
}

TEST(ReferenceModel, WorkingSetThatFitsMissesOnlyCold)
{
    // Any demand-fill policy over a working set smaller than the
    // cache incurs exactly one cold miss per block.
    Rng rng(9);
    Trace trace("fits", 2);
    for (int i = 0; i < 20000; ++i)
        trace.append(rng.below(256) * kBlockBytes, 0x400,
                     static_cast<CoreId>(rng.below(2)),
                     rng.chance(0.5));
    const CacheGeometry geo{64 * 1024, 8, kBlockBytes}; // 1024 blocks
    for (const auto &policy : builtinPolicyNames()) {
        StreamSim sim(trace, geo,
                      requirePolicyFactory(policy)(geo.numSets(),
                                                geo.ways));
        sim.run();
        EXPECT_EQ(sim.misses(), trace.footprintBlocks()) << policy;
    }
}

/** One configuration of the wrapper under the reference check. */
struct WrapperCase
{
    std::uint64_t seed;
    unsigned ways;
    bool dueling;
    bool demote;
    double quota;
};

/** Victim-branch counts summed over the cases, to prove coverage. */
struct WrapperBranches
{
    std::uint64_t filtered = 0;
    std::uint64_t demoted = 0;
    std::uint64_t saturated = 0;
};

/**
 * Drive the production wrapper and the reference with one random
 * sequence of fills, hits, evictions, invalidations and bare victim()
 * calls (random caller exclusions included) on 16 sets, asserting the
 * same victim, the same isProtected/isDemoted on every way of the
 * touched set, the same PSEL and the same counters after every step.
 * Set selection runs in phases that favour the off-leaders, then the
 * on-leaders, so the dueling selector swings the followers both ways.
 */
void
checkWrapperCase(const WrapperCase &c, WrapperBranches &branches)
{
    using Role = ReferenceSharingAwareWrapper::Role;
    constexpr unsigned kSets = 16;
    constexpr int kSteps = 6000;
    Rng rng(c.seed * 1000 + c.ways);
    const unsigned pre = 4 + static_cast<unsigned>(rng.below(24));
    SharingAwareWrapper real(std::make_unique<LruPolicy>(kSets, c.ways),
                             pre, 0, c.quota, c.dueling, c.demote);
    ReferenceSharingAwareWrapper ref(
        std::make_unique<LruPolicy>(kSets, c.ways), pre, 0, c.quota,
        c.dueling, c.demote);

    std::vector<unsigned> on, off;
    for (unsigned set = 0; set < kSets; ++set) {
        ASSERT_EQ(static_cast<int>(real.role(set)),
                  static_cast<int>(ref.role(set)));
        if (ref.role(set) == Role::OnLeader)
            on.push_back(set);
        else if (ref.role(set) == Role::OffLeader)
            off.push_back(set);
    }

    const std::uint64_t all = c.ways >= 64 ? ~0ULL : (1ULL << c.ways) - 1;
    std::vector<std::uint64_t> valid(kSets, 0);
    bool followers_on = false, followers_off = false;
    for (int step = 0; step < kSteps; ++step) {
        const int phase = step * 3 / kSteps;
        auto set = static_cast<unsigned>(rng.below(kSets));
        if (c.dueling && phase > 0 && rng.chance(0.6)) {
            const auto &leaders = phase == 1 ? off : on;
            set = leaders[rng.below(leaders.size())];
        }
        const ReplContext ctx{rng.below(4096) * kBlockBytes, 0x400,
                              static_cast<CoreId>(rng.below(4)),
                              rng.chance(0.3), static_cast<SeqNo>(step),
                              rng.chance(0.5)};
        const auto random_valid = [&] {
            std::uint64_t bits = valid[set];
            for (auto k = rng.below(std::popcount(bits)); k > 0; --k)
                bits &= bits - 1;
            return static_cast<unsigned>(std::countr_zero(bits));
        };
        // A caller exclusion that leaves at least one way; empty half
        // the time, as the cache itself always passes.
        std::uint64_t exclude = rng.chance(0.5) ? 0 : rng.next() & all;
        if (exclude == all)
            exclude &= ~(1ULL << rng.below(c.ways));

        const auto op = rng.below(100);
        if (op < 40 && valid[set] != 0) {
            const unsigned way = random_valid();
            real.onHit(set, way, ctx);
            ref.onHit(set, way, ctx);
        } else if (op < 80) {
            unsigned way;
            if (valid[set] != all) {
                way = static_cast<unsigned>(std::countr_zero(~valid[set]));
            } else {
                way = real.victim(set, ctx, exclude);
                ASSERT_EQ(way, ref.victim(set, ctx, exclude))
                    << "step " << step;
                ASSERT_EQ(exclude >> way & 1, 0u);
                real.onEvict(set, way);
                ref.onEvict(set, way);
            }
            real.onFill(set, way, ctx);
            ref.onFill(set, way, ctx);
            valid[set] |= 1ULL << way;
        } else if (op < 92 && valid[set] != 0) {
            const unsigned way = random_valid();
            if (op < 87) {
                real.onInvalidate(set, way);
                ref.onInvalidate(set, way);
            } else {
                real.onEvict(set, way);
                ref.onEvict(set, way);
            }
            valid[set] &= ~(1ULL << way);
        } else {
            ASSERT_EQ(real.victim(set, ctx, exclude),
                      ref.victim(set, ctx, exclude))
                << "step " << step;
        }

        for (unsigned way = 0; way < c.ways; ++way) {
            ASSERT_EQ(real.isProtected(set, way), ref.isProtected(set, way))
                << "set " << set << " way " << way << " step " << step;
            ASSERT_EQ(real.isDemoted(set, way), ref.isDemoted(set, way))
                << "set " << set << " way " << way << " step " << step;
        }
        ASSERT_EQ(real.psel(), ref.psel()) << "step " << step;
        ASSERT_EQ(real.filteredVictims(), ref.filteredVictims());
        ASSERT_EQ(real.demotedVictims(), ref.demotedVictims());
        ASSERT_EQ(real.saturatedSets(), ref.saturatedSets());
        followers_on |= real.followersProtect();
        followers_off |= !real.followersProtect();
    }
    if (c.dueling) {
        EXPECT_TRUE(followers_on);
        EXPECT_TRUE(followers_off);
    }
    branches.filtered += real.filteredVictims();
    branches.demoted += real.demotedVictims();
    branches.saturated += real.saturatedSets();
}

TEST(ReferenceModel, SharingAwareWrapperMatchesReference)
{
    WrapperBranches branches;
    for (const std::uint64_t seed : {1u, 2u, 3u})
        for (const unsigned ways : {4u, 16u})
            for (const bool dueling : {false, true})
                for (const bool demote : {false, true})
                    for (const double quota : {0.25, 1.0}) {
                        const WrapperCase c{seed, ways, dueling, demote,
                                            quota};
                        SCOPED_TRACE(testing::Message()
                                     << "seed " << seed << " ways " << ways
                                     << " dueling " << dueling
                                     << " demote " << demote << " quota "
                                     << quota);
                        checkWrapperCase(c, branches);
                        if (testing::Test::HasFatalFailure())
                            return;
                    }
    // Every victim-preference branch was exercised somewhere.
    EXPECT_GT(branches.filtered, 0u);
    EXPECT_GT(branches.demoted, 0u);
    EXPECT_GT(branches.saturated, 0u);
}

} // namespace
} // namespace casim
