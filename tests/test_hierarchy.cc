/**
 * @file
 * Integration tests for the coherent hierarchy: MESI transitions,
 * directory precision, inclusion, writeback flow and stream capture,
 * plus golden digests that pin real workload captures absolutely.
 */

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "mem/repl/factory.hh"
#include "sim/experiment.hh"
#include "sim/hierarchy_sim.hh"
#include "wgen/registry.hh"

namespace casim {
namespace {

HierarchyConfig
tinyConfig(unsigned cores = 2)
{
    HierarchyConfig config;
    config.numCores = cores;
    config.l1 = CacheGeometry{1024, 2, kBlockBytes};        // 8 sets
    config.llc = CacheGeometry{8 * 1024, 4, kBlockBytes};   // 32 sets
    config.useDramModel = false; // fixed latency: exact cycle checks
    return config;
}

std::unique_ptr<Hierarchy>
makeHierarchy(unsigned cores = 2)
{
    return std::make_unique<Hierarchy>(tinyConfig(cores),
                                       requirePolicyFactory("lru"));
}

MemAccess
acc(Addr addr, CoreId core, bool write = false)
{
    return MemAccess{blockAlign(addr), 0x400, core, write};
}

std::uint64_t
counterValue(const Hierarchy &h, const char *name)
{
    const auto *stat =
        h.stats().find(std::string("hierarchy.") + name);
    const auto *ctr = dynamic_cast<const stats::Counter *>(stat);
    return ctr == nullptr ? 0 : ctr->value();
}

TEST(Hierarchy, ReadMissFillsExclusive)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    const CacheBlock *l1 = h->l1(0).probe(0x1000);
    ASSERT_NE(l1, nullptr);
    EXPECT_EQ(l1->state, MesiState::Exclusive);
    const CacheBlock *llc = h->llc().probe(0x1000);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->sharers, 0b01u);
}

TEST(Hierarchy, SecondReaderDowngradesToShared)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 1));
    EXPECT_EQ(h->l1(0).probe(0x1000)->state, MesiState::Shared);
    EXPECT_EQ(h->l1(1).probe(0x1000)->state, MesiState::Shared);
    EXPECT_EQ(h->llc().probe(0x1000)->sharers, 0b11u);
    EXPECT_EQ(counterValue(*h, "interventions"), 1u);
}

TEST(Hierarchy, WriteMissFillsModified)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true));
    EXPECT_EQ(h->l1(0).probe(0x1000)->state, MesiState::Modified);
    EXPECT_TRUE(h->l1(0).probe(0x1000)->dirty);
}

TEST(Hierarchy, SilentExclusiveToModified)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));       // E
    const auto llc_before = h->llcSeq();
    h->access(acc(0x1000, 0, true)); // silent E -> M
    EXPECT_EQ(h->l1(0).probe(0x1000)->state, MesiState::Modified);
    EXPECT_EQ(h->llcSeq(), llc_before); // no LLC transaction
    EXPECT_EQ(counterValue(*h, "upgrades"), 0u);
}

TEST(Hierarchy, SharedToModifiedUpgradeInvalidatesPeers)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));       // core 0: E
    h->access(acc(0x1000, 1));       // both S
    h->access(acc(0x1000, 0, true)); // core 0 upgrades
    EXPECT_EQ(h->l1(0).probe(0x1000)->state, MesiState::Modified);
    EXPECT_EQ(h->l1(1).probe(0x1000), nullptr);
    EXPECT_EQ(h->llc().probe(0x1000)->sharers, 0b01u);
    EXPECT_EQ(counterValue(*h, "upgrades"), 1u);
    EXPECT_EQ(counterValue(*h, "invalidations_sent"), 1u);
}

TEST(Hierarchy, WriteMissInvalidatesModifiedOwner)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true)); // core 0: M
    h->access(acc(0x1000, 1, true)); // core 1 takes ownership
    EXPECT_EQ(h->l1(0).probe(0x1000), nullptr);
    EXPECT_EQ(h->l1(1).probe(0x1000)->state, MesiState::Modified);
    // Core 0's dirty data flowed into the LLC.
    EXPECT_TRUE(h->llc().probe(0x1000)->dirty);
}

TEST(Hierarchy, ReadAfterRemoteWritePullsDirtyData)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0, true)); // core 0: M
    h->access(acc(0x1000, 1));       // core 1 reads
    EXPECT_EQ(h->l1(0).probe(0x1000)->state, MesiState::Shared);
    EXPECT_EQ(h->l1(1).probe(0x1000)->state, MesiState::Shared);
    EXPECT_FALSE(h->l1(0).probe(0x1000)->dirty);
    EXPECT_TRUE(h->llc().probe(0x1000)->dirty);
    EXPECT_EQ(counterValue(*h, "interventions"), 1u);
}

TEST(Hierarchy, L1EvictionWritesBackAndUpdatesDirectory)
{
    auto h = makeHierarchy();
    // Fill both ways of core 0's L1 set 0, then force an eviction.
    // L1 has 8 sets; blocks 0x0000, 0x2000, 0x4000 map to set 0.
    h->access(acc(0x0000, 0, true));
    h->access(acc(0x2000, 0));
    h->access(acc(0x4000, 0)); // evicts 0x0000 (LRU, dirty M)
    EXPECT_EQ(h->l1(0).probe(0x0000), nullptr);
    const CacheBlock *llc = h->llc().probe(0x0000);
    ASSERT_NE(llc, nullptr);
    EXPECT_TRUE(llc->dirty);
    EXPECT_EQ(llc->sharers, 0u);
    EXPECT_EQ(counterValue(*h, "l1_writebacks"), 1u);
}

TEST(Hierarchy, LlcEvictionBackInvalidatesL1)
{
    // Give the L1 4 ways so the victim block is still L1-resident
    // when the LLC evicts it.
    HierarchyConfig config = tinyConfig();
    config.l1 = CacheGeometry{2048, 4, kBlockBytes}; // 8 sets x 4 ways
    auto h = std::make_unique<Hierarchy>(config,
                                         requirePolicyFactory("lru"));
    // LLC has 32 sets x 4 ways.  Five blocks in LLC set 0:
    // stride = 32 * 64 = 0x800 (also all in L1 set 0).
    for (int i = 0; i < 5; ++i)
        h->access(acc(static_cast<Addr>(i) * 0x800, 0));
    // The first block was evicted from the LLC and must be gone from
    // the L1 too (inclusion).
    EXPECT_EQ(h->llc().probe(0x0000), nullptr);
    EXPECT_EQ(h->l1(0).probe(0x0000), nullptr);
    EXPECT_GE(counterValue(*h, "back_invalidations"), 1u);
}

TEST(Hierarchy, MemoryTrafficCounted)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x2000, 0));
    EXPECT_EQ(counterValue(*h, "mem_reads"), 2u);
}

TEST(Hierarchy, L1HitsFilterLlc)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    const auto llc_accesses = h->llc().demandAccesses();
    for (int i = 0; i < 10; ++i)
        h->access(acc(0x1000, 0));
    EXPECT_EQ(h->llc().demandAccesses(), llc_accesses);
    EXPECT_EQ(h->l1(0).demandHits(), 10u);
}

TEST(Hierarchy, CaptureRecordsLlcStream)
{
    auto h = makeHierarchy();
    Trace captured("cap", 2);
    h->setCaptureTrace(&captured);
    h->access(acc(0x1000, 0));        // LLC miss -> captured
    h->access(acc(0x1000, 0));        // L1 hit -> not captured
    h->access(acc(0x1000, 1));        // L1 miss, LLC hit -> captured
    h->access(acc(0x1000, 1, true));  // S->M upgrade -> captured
    ASSERT_EQ(captured.size(), 3u);
    EXPECT_EQ(captured[0].core, 0);
    EXPECT_FALSE(captured[0].isWrite);
    EXPECT_EQ(captured[1].core, 1);
    EXPECT_TRUE(captured[2].isWrite);
    EXPECT_EQ(h->llcSeq(), 3u);
}

TEST(Hierarchy, UpgradeCountsAsLlcWriteHit)
{
    auto h = makeHierarchy();
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 1));
    const auto hits_before = h->llc().demandHits();
    h->access(acc(0x1000, 0, true)); // upgrade
    EXPECT_EQ(h->llc().demandHits(), hits_before + 1);
    // The LLC block saw the write during this residency.
    EXPECT_TRUE(h->llc().probe(0x1000)->writtenDuringResidency);
}

TEST(Hierarchy, SharerMaskAccumulatesInLlcBlock)
{
    auto h = makeHierarchy(4);
    h->access(acc(0x1000, 0));
    h->access(acc(0x1000, 2));
    h->access(acc(0x1000, 3));
    const CacheBlock *llc = h->llc().probe(0x1000);
    ASSERT_NE(llc, nullptr);
    EXPECT_EQ(llc->touchedMask, 0b1101u);
    EXPECT_EQ(llc->touchedCores(), 3u);
    EXPECT_TRUE(llc->sharedThisResidency());
}

TEST(Hierarchy, CyclesAccumulate)
{
    auto h = makeHierarchy();
    const HierarchyConfig &config = h->config();
    h->access(acc(0x1000, 0)); // L1 miss + LLC miss + memory
    EXPECT_EQ(h->cycles(), config.l1Latency + config.llcLatency +
                               config.memLatency);
    h->access(acc(0x1000, 0)); // L1 hit
    EXPECT_EQ(h->cycles(), 2 * config.l1Latency + config.llcLatency +
                               config.memLatency);
}

TEST(Hierarchy, RunWholeTrace)
{
    auto h = makeHierarchy();
    Trace trace("t", 2);
    for (int i = 0; i < 100; ++i)
        trace.append(static_cast<Addr>(i % 10) * kBlockBytes, 0x400,
                     static_cast<CoreId>(i % 2), i % 7 == 0);
    h->run(trace);
    h->finish();
    EXPECT_EQ(h->accesses(), 100u);
    EXPECT_EQ(h->llc().validBlocks(), 0u); // flushed
}

// Property test: the directory exactly tracks which L1s hold each
// LLC-resident block, under a random multicore access pattern.
TEST(HierarchyProperty, DirectoryStaysPrecise)
{
    auto h = makeHierarchy(4);
    Rng rng(555);
    for (int i = 0; i < 20000; ++i) {
        h->access(acc(rng.below(256) * kBlockBytes,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.3)));
        if (i % 500 != 0)
            continue;
        // Audit: every LLC block's sharer mask matches L1 contents.
        const auto &llc = h->llc();
        for (unsigned set = 0; set < llc.geometry().numSets(); ++set) {
            for (unsigned way = 0; way < llc.geometry().ways; ++way) {
                const CacheBlock &block = llc.blockAt(set, way);
                if (!block.valid)
                    continue;
                std::uint64_t actual = 0;
                for (unsigned core = 0; core < 4; ++core) {
                    const CacheBlock *l1 =
                        h->l1(core).probe(block.addr);
                    if (l1 != nullptr &&
                        l1->state != MesiState::Invalid)
                        actual |= 1ULL << core;
                }
                ASSERT_EQ(block.sharers, actual)
                    << "block " << std::hex << block.addr;
            }
        }
        // Inclusion audit: every valid L1 block exists in the LLC.
        for (unsigned core = 0; core < 4; ++core) {
            const auto &l1 = h->l1(core);
            for (unsigned set = 0; set < l1.geometry().numSets();
                 ++set) {
                for (unsigned way = 0; way < l1.geometry().ways;
                     ++way) {
                    const CacheBlock &block = l1.blockAt(set, way);
                    if (block.valid)
                        { ASSERT_NE(h->llc().probe(block.addr), nullptr); }
                }
            }
        }
    }
}

// Property test: at most one L1 holds a block in M/E, and M/E implies
// no other sharers.
TEST(HierarchyProperty, SingleWriterInvariant)
{
    auto h = makeHierarchy(4);
    Rng rng(777);
    for (int i = 0; i < 20000; ++i) {
        h->access(acc(rng.below(128) * kBlockBytes,
                      static_cast<CoreId>(rng.below(4)),
                      rng.chance(0.4)));
        if (i % 500 != 0)
            continue;
        for (Addr block = 0; block < 128 * kBlockBytes;
             block += kBlockBytes) {
            unsigned holders = 0, owners = 0;
            for (unsigned core = 0; core < 4; ++core) {
                const CacheBlock *l1 = h->l1(core).probe(block);
                if (l1 == nullptr)
                    continue;
                ++holders;
                if (l1->state == MesiState::Modified ||
                    l1->state == MesiState::Exclusive)
                    ++owners;
            }
            ASSERT_LE(owners, 1u);
            if (owners == 1)
                ASSERT_EQ(holders, 1u);
        }
    }
}

// Golden capture pins.  Every other capture check compares two code
// paths of one build (cold vs warm, mmap vs resident, ...), so a change
// that shifts both sides alike — a MESI directory slip, a lost
// writeback — would pass them all.  These digests pin the captured LLC
// stream and every HierarchyRunResult / SharingSummary field of one
// workload per suite against constants recorded from a known-good
// build.  A deliberate change to capture results regenerates them (the
// failure message prints the new digest) and says why.

/** FNV-1a over a capture and every field of its run result. */
std::uint64_t
captureDigest(const Trace &stream, const HierarchyRunResult &result)
{
    Fnv1a64 h;
    h.update(static_cast<std::uint64_t>(stream.size()));
    for (const MemAccess &access : stream) {
        h.update(static_cast<std::uint64_t>(access.addr));
        h.update(static_cast<std::uint64_t>(access.pc));
        h.update(static_cast<std::uint64_t>(access.core));
        h.update(static_cast<std::uint64_t>(access.isWrite));
    }
    h.update(result.demandAccesses);
    h.update(result.llcAccesses);
    h.update(result.llcHits);
    h.update(result.llcMisses);
    h.update(result.llcMpkr);
    h.update(result.upgrades);
    h.update(result.interventions);
    h.update(result.backInvalidations);
    h.update(result.memReads);
    h.update(result.memWritebacks);
    h.update(static_cast<std::uint64_t>(result.cycles));
    const SharingSummary &sharing = result.sharing;
    h.update(sharing.sharedHitFraction);
    h.update(sharing.sharedHits);
    h.update(sharing.privateHits);
    for (const std::uint64_t hits : sharing.classHits)
        h.update(hits);
    for (const std::uint64_t residencies : sharing.classResidencies)
        h.update(residencies);
    h.update(static_cast<std::uint64_t>(sharing.sharerHits.size()));
    for (const std::uint64_t hits : sharing.sharerHits)
        h.update(hits);
    h.update(sharing.deadResidencies);
    return h.digest();
}

struct GoldenCase
{
    const char *workload;
    std::uint64_t llcBytes;
    std::uint64_t digest;
};

/**
 * One workload per suite at the study's capture LLC (4 MiB) and at a
 * 128 KiB LLC, whose evictions exercise the inclusion victim path
 * (back-invalidations, LLC writebacks) that the larger LLC never hits
 * at this scale.
 */
constexpr GoldenCase kGoldenCases[] = {
    {"canneal", 4ull << 20, 0x5a5dc1fa2385d79dull},
    {"canneal", 128ull << 10, 0x65e1441f8dc0ad6aull},
    {"ocean", 4ull << 20, 0x45227210b9cf84eaull},
    {"ocean", 128ull << 10, 0x1a318cfea133fb03ull},
    {"art_omp", 4ull << 20, 0x36ba2798629b86a9ull},
    {"art_omp", 128ull << 10, 0x6eba9108a3079370ull},
};

TEST(HierarchyGolden, CaptureDigestsArePinned)
{
    for (const GoldenCase &golden : kGoldenCases) {
        StudyConfig config;
        config.workload.scale = 0.02;
        config.workload.seed = 1;
        config.llcSmallBytes = golden.llcBytes;
        const Trace trace =
            makeWorkloadTrace(golden.workload, config.workload);
        Trace stream(std::string(golden.workload) + ".llc",
                     config.workload.threads);
        const HierarchyRunResult result =
            runHierarchy(trace, captureHierarchyConfig(config),
                         requirePolicyFactory("lru"), &stream);
        ASSERT_EQ(result.llcAccesses, stream.size()) << golden.workload;
        if (golden.llcBytes < (1ull << 20)) {
            EXPECT_GT(result.backInvalidations, 0u) << golden.workload;
        }
        const std::uint64_t digest = captureDigest(stream, result);
        EXPECT_EQ(digest, golden.digest)
            << golden.workload << " @ " << golden.llcBytes
            << " B: digest 0x" << std::hex << digest;
    }
}

} // namespace
} // namespace casim
