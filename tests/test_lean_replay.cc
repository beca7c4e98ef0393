/**
 * @file
 * Payload-free replay: a StreamSim with nothing attached runs on the
 * cache's tag store alone (no CacheBlock array).  These tests pin that
 * it reproduces, counter for counter, the same replay forced to keep
 * the residency payload, serial and set-sharded, for every builtin
 * policy plus OPT, and for the sharing-aware lru+oracle cell, at a
 * fitting and an evicting geometry; that the payload is allocated
 * exactly when a hook can see a block; and that a payload-free cache
 * refuses to hand out blocks.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "core/awareness.hh"
#include "core/predictor.hh"
#include "core/sharing_aware.hh"
#include "mem/prefetcher.hh"
#include "mem/repl/factory.hh"
#include "mem/repl/lru.hh"
#include "mem/repl/opt.hh"
#include "sim/sharded_sim.hh"
#include "sim/stream_sim.hh"

namespace casim {
namespace {

/**
 * Four-core stream with writes: 70% of references hit a 512-block hot
 * set, the rest a 4096-block range, so the evicting geometry both
 * hits and evicts (dirty victims included).
 */
const Trace &
leanTrace()
{
    static const Trace trace = [] {
        Trace t("lean", 4);
        Rng rng(23);
        for (int i = 0; i < 40000; ++i) {
            const Addr block =
                rng.chance(0.7) ? rng.below(512) : rng.below(4096);
            t.append(block * kBlockBytes, 0x400 + rng.below(16),
                     static_cast<CoreId>(rng.below(4)),
                     rng.chance(0.3));
        }
        return t;
    }();
    return trace;
}

/** 8192 blocks: the whole footprint fits, only cold misses. */
constexpr CacheGeometry kFitting{512 * 1024, 16, kBlockBytes};

/** 1024 blocks: every policy evicts. */
constexpr CacheGeometry kEvicting{64 * 1024, 8, kBlockBytes};

constexpr unsigned kShards = 4;

/** Keeps the payload alive by observing; records nothing. */
class NoopObserver : public CacheObserver
{
};

/** Builtin factory, or OPT over `index`. */
ReplPolicyFactory
factoryFor(const std::string &policy, const NextUseIndex &index)
{
    if (policy != "opt")
        return requirePolicyFactory(policy);
    return [&index](unsigned sets, unsigned ways) {
        return std::unique_ptr<ReplPolicy>(
            new OptPolicy(sets, ways, index));
    };
}

std::string
statsJson(const Cache &cache)
{
    std::ostringstream json;
    cache.stats().dumpJson(json);
    return json.str();
}

std::vector<std::string>
policiesUnderTest()
{
    std::vector<std::string> names = builtinPolicyNames();
    names.push_back("opt");
    return names;
}

TEST(LeanReplay, SerialMatchesPayloadReplay)
{
    const NextUseIndex index(leanTrace());
    for (const std::string &policy : policiesUnderTest()) {
        const ReplPolicyFactory factory = factoryFor(policy, index);
        for (const CacheGeometry &geo : {kFitting, kEvicting}) {
            SCOPED_TRACE(policy + " @ " +
                         std::to_string(geo.sizeBytes) + " B");
            StreamSim lean(leanTrace(), geo,
                           factory(geo.numSets(), geo.ways));
            lean.run();
            EXPECT_FALSE(lean.cache().hasPayload());

            StreamSim kept(leanTrace(), geo,
                           factory(geo.numSets(), geo.ways));
            NoopObserver observer;
            kept.setObserver(&observer);
            kept.run();
            ASSERT_TRUE(kept.cache().hasPayload());

            EXPECT_EQ(lean.misses(), kept.misses());
            EXPECT_EQ(statsJson(lean.cache()), statsJson(kept.cache()));
            EXPECT_EQ(lean.cache().validBlocks(), 0u);
            // Neither geometry is vacuous: one only cold-misses, the
            // other replaces (dirty victims included).
            const auto *evictions = dynamic_cast<const stats::Counter *>(
                lean.cache().stats().find("llc.evictions"));
            const auto *dirty = dynamic_cast<const stats::Counter *>(
                lean.cache().stats().find("llc.dirty_evictions"));
            ASSERT_NE(evictions, nullptr);
            ASSERT_NE(dirty, nullptr);
            if (geo.sizeBytes == kFitting.sizeBytes) {
                EXPECT_EQ(lean.misses(), leanTrace().footprintBlocks());
                EXPECT_EQ(evictions->value(), 0u);
            } else {
                EXPECT_GT(dirty->value(), 0u);
            }
        }
    }
}

/**
 * The sharded replay with the payload forced on: ShardedStreamSim's
 * routing and stat merge, but every shard observed.  Returns the
 * merged stats JSON and the summed misses.
 */
std::pair<std::uint64_t, std::string>
shardedWithPayload(const CacheGeometry &geo,
                   const ReplPolicyFactory &factory)
{
    const unsigned bits = floorLog2(kShards);
    const CacheGeometry local{geo.sizeBytes / kShards, geo.ways,
                              geo.blockBytes};
    std::vector<Trace> substreams;
    std::vector<std::vector<SeqNo>> positions(kShards);
    for (unsigned s = 0; s < kShards; ++s)
        substreams.emplace_back("shard", leanTrace().numCores());
    for (std::size_t i = 0; i < leanTrace().size(); ++i) {
        const MemAccess &access = leanTrace()[i];
        const auto s = static_cast<unsigned>(
            (access.blockAddr() / geo.blockBytes) & (kShards - 1));
        substreams[s].append(access);
        positions[s].push_back(static_cast<SeqNo>(i));
    }

    NoopObserver observer;
    std::vector<std::unique_ptr<StreamSim>> sims;
    std::uint64_t misses = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        sims.push_back(std::make_unique<StreamSim>(
            substreams[s], local,
            factory(local.numSets(), local.ways), CacheShard{bits, s}));
        sims[s]->setStreamPositions(&positions[s]);
        sims[s]->setObserver(&observer);
        sims[s]->run();
        EXPECT_TRUE(sims[s]->cache().hasPayload());
        misses += sims[s]->misses();
        if (s > 0)
            sims[0]->cache().stats().mergeFrom(sims[s]->cache().stats());
    }
    return {misses, statsJson(sims[0]->cache())};
}

TEST(LeanReplay, ShardedMatchesPayloadReplay)
{
    const NextUseIndex index(leanTrace());
    for (const std::string &policy : policiesUnderTest()) {
        const ReplPolicyFactory factory = factoryFor(policy, index);
        for (const CacheGeometry &geo : {kFitting, kEvicting}) {
            SCOPED_TRACE(policy + " @ " +
                         std::to_string(geo.sizeBytes) + " B");
            ShardedStreamSim lean(leanTrace(), geo, kShards, factory);
            lean.run();
            EXPECT_FALSE(lean.cache().hasPayload());

            const auto [misses, json] = shardedWithPayload(geo, factory);
            EXPECT_EQ(lean.misses(), misses);
            EXPECT_EQ(statsJson(lean.cache()), json);
        }
    }
}

TEST(LeanReplay, PayloadAllocatedOnlyWhenHooked)
{
    const CacheGeometry geo = kEvicting;
    const NextUseIndex index(leanTrace());
    const auto make = [&] {
        return std::make_unique<StreamSim>(
            leanTrace(), geo,
            std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    };

    auto bare = make();
    bare->run();
    EXPECT_FALSE(bare->cache().hasPayload());

    // Labelers that never train only label fills: no block needed.
    NeverSharedLabeler labeler;
    auto labeled = make();
    labeled->setLabeler(&labeler);
    labeled->run();
    EXPECT_FALSE(labeled->cache().hasPayload());

    OracleLabeler oracle(index, 1000);
    auto oracled = make();
    oracled->setLabeler(&oracle);
    oracled->run();
    EXPECT_FALSE(oracled->cache().hasPayload());

    // A predictor learns from residency outcomes, so it keeps them.
    AddressSharingPredictor predictor(PredictorConfig{});
    auto predicted = make();
    predicted->setLabeler(&predictor);
    predicted->run();
    EXPECT_TRUE(predicted->cache().hasPayload());

    NoopObserver observer;
    auto observed = make();
    observed->setObserver(&observer);
    observed->run();
    EXPECT_TRUE(observed->cache().hasPayload());

    AwarenessScorer scorer(index, 1000);
    auto scored = make();
    scored->setAwarenessScorer(&scorer);
    scored->run();
    EXPECT_TRUE(scored->cache().hasPayload());
    EXPECT_GT(scorer.evictions(), 0u);

    StridePrefetcher prefetcher;
    auto prefetched = make();
    prefetched->setPrefetcher(&prefetcher);
    prefetched->run();
    EXPECT_TRUE(prefetched->cache().hasPayload());

    EXPECT_EQ(bare->misses(), labeled->misses());
    EXPECT_EQ(bare->misses(), oracled->misses());
    EXPECT_EQ(bare->misses(), predicted->misses());
    EXPECT_EQ(bare->misses(), observed->misses());
    EXPECT_EQ(bare->misses(), scored->misses());
}

/** The oracle's label-split counters, as one JSON document. */
std::string
statsJson(const OracleLabeler &oracle)
{
    std::ostringstream json;
    oracle.stats().dumpJson(json);
    return json.str();
}

TEST(LeanReplay, OracleCellMatchesPayloadReplay)
{
    // The lru+oracle cell as the experiment layer builds it: the
    // payload-free replay (the oracle does not train) against the same
    // replay with an observer forcing the payload on.
    const NextUseIndex index(leanTrace());
    for (const CacheGeometry &geo : {kFitting, kEvicting}) {
        SCOPED_TRACE(std::to_string(geo.sizeBytes) + " B");
        const SeqNo window = 4 * (geo.sizeBytes / kBlockBytes);
        const auto make = [&] {
            return std::make_unique<StreamSim>(
                leanTrace(), geo,
                std::make_unique<SharingAwareWrapper>(
                    std::make_unique<LruPolicy>(geo.numSets(),
                                                geo.ways)));
        };

        OracleLabeler lean_oracle(index, window);
        auto lean = make();
        lean->setLabeler(&lean_oracle);
        lean->run();
        EXPECT_FALSE(lean->cache().hasPayload());

        OracleLabeler kept_oracle(index, window);
        NoopObserver observer;
        auto kept = make();
        kept->setLabeler(&kept_oracle);
        kept->setObserver(&observer);
        kept->run();
        ASSERT_TRUE(kept->cache().hasPayload());

        EXPECT_EQ(lean->misses(), kept->misses());
        EXPECT_EQ(statsJson(lean->cache()), statsJson(kept->cache()));
        EXPECT_EQ(statsJson(lean_oracle), statsJson(kept_oracle));
        // The oracle labeled something shared, so protection engaged.
        const auto *shared = dynamic_cast<const stats::Counter *>(
            lean_oracle.stats().find("oracle.shared_labels"));
        ASSERT_NE(shared, nullptr);
        EXPECT_GT(shared->value(), 0u);
    }
}

TEST(LeanReplay, CacheOpsMatchWithoutPayload)
{
    // Demand accesses, fills, external invalidations and the final
    // flush on a payload-free cache keep the same tag state and
    // counters as on a payload cache (paranoid builds also re-check
    // the mirrors of every set they touch).
    const CacheGeometry geo{8 * 1024, 4, kBlockBytes};
    Cache lean("llc", geo,
               std::make_unique<LruPolicy>(geo.numSets(), geo.ways), {},
               /*payload=*/false);
    Cache kept("llc", geo,
               std::make_unique<LruPolicy>(geo.numSets(), geo.ways));
    ASSERT_FALSE(lean.hasPayload());
    ASSERT_TRUE(kept.hasPayload());

    Rng rng(5);
    for (SeqNo seq = 0; seq < 20000; ++seq) {
        const Addr addr = rng.below(512) * kBlockBytes;
        if (rng.chance(0.05)) {
            EXPECT_EQ(lean.invalidate(addr), kept.invalidate(addr));
            continue;
        }
        const ReplContext ctx{addr, 0x400,
                              static_cast<CoreId>(rng.below(4)),
                              rng.chance(0.3), seq, false};
        const Cache::Lookup lean_hit = lean.access(ctx);
        const Cache::Lookup kept_hit = kept.access(ctx);
        ASSERT_EQ(lean_hit.hit, kept_hit.hit);
        EXPECT_EQ(lean_hit.block, nullptr);
        EXPECT_EQ(kept_hit.hit, kept_hit.block != nullptr);
        if (!lean_hit.hit) {
            EXPECT_EQ(lean.fill(ctx), nullptr);
            EXPECT_NE(kept.fill(ctx), nullptr);
        }
    }
    EXPECT_EQ(lean.validBlocks(), kept.validBlocks());
    lean.flushResidencies();
    kept.flushResidencies();
    EXPECT_EQ(lean.validBlocks(), 0u);
    EXPECT_EQ(kept.validBlocks(), 0u);
    EXPECT_EQ(statsJson(lean), statsJson(kept));

    // Allocating the payload later is allowed once the cache is empty.
    lean.allocatePayload();
    EXPECT_TRUE(lean.hasPayload());
}

TEST(LeanReplayDeathTest, BlockAtWithoutPayloadDies)
{
    StreamSim sim(leanTrace(), kEvicting,
                  std::make_unique<LruPolicy>(kEvicting.numSets(),
                                              kEvicting.ways));
    sim.run();
    ASSERT_FALSE(sim.cache().hasPayload());
    EXPECT_DEATH(sim.cache().blockAt(0, 0), "has no residency payload");
}

TEST(LeanReplayDeathTest, ObserverOnPayloadFreeCacheDies)
{
    const CacheGeometry geo = kEvicting;
    Cache cache("llc", geo,
                std::make_unique<LruPolicy>(geo.numSets(), geo.ways), {},
                /*payload=*/false);
    NoopObserver observer;
    EXPECT_DEATH(cache.setObserver(&observer),
                 "without a residency payload");
}

} // namespace
} // namespace casim
